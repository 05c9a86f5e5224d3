//! End-to-end regression of the paper's Table 1 across crate boundaries:
//! state generators → decision diagram → synthesis → simulator.
//!
//! Exact expectations (structural metrics, operation counts) live in the
//! checked-in golden file `tests/golden/table1.json`; new rows (families,
//! registers) are data additions there, not code edits here. Fidelity
//! columns are re-measured with the simulator.

mod support;

use mdq::core::{prepare, verify::prepare_and_verify, PrepareOptions};
use mdq::num::hash::fnv1a;
use mdq::num::radix::Dims;
use mdq::num::Complex;
use mdq::states::{embedded_w, ghz, random_state, w_state, RandomKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use support::json::Json;

/// A generator for one structured benchmark family.
type Generator = fn(&Dims) -> Vec<Complex>;

fn generator_for(family: &str) -> Generator {
    match family {
        "Emb. W-State" => embedded_w as Generator,
        "GHZ State" => ghz as Generator,
        "W-State" => w_state as Generator,
        other => panic!("golden file names unknown family `{other}`"),
    }
}

/// One register row of the golden file.
struct GoldenRegister {
    label: String,
    dims: Dims,
    nodes_exact: usize,
    /// `(family, operations)` pairs; empty for random-only registers.
    operations: Vec<(String, usize)>,
    random_exact_operations: Option<usize>,
}

/// A stable per-row RNG seed derived from the register label, so adding or
/// reordering golden rows never shifts the random states — and therefore
/// the checked-in expectations — of unrelated rows.
fn row_seed(label: &str) -> u64 {
    fnv1a(label.as_bytes())
}

fn load_golden() -> Vec<GoldenRegister> {
    let doc = Json::parse(include_str!("golden/table1.json"))
        .unwrap_or_else(|e| panic!("tests/golden/table1.json: {e}"));
    let families: Vec<String> = doc
        .get("families")
        .expect("golden file lists families")
        .expect_array()
        .iter()
        .map(|f| f.expect_str().to_owned())
        .collect();
    doc.get("registers")
        .expect("golden file lists registers")
        .expect_array()
        .iter()
        .map(|row| {
            let label = row
                .get("label")
                .expect("register label")
                .expect_str()
                .to_owned();
            // A misspelled key would silently drop expectations (absent keys
            // reclassify a register as random-only), so reject anything
            // outside the schema outright.
            for key in row.expect_object().keys() {
                assert!(
                    matches!(
                        key.as_str(),
                        "label" | "dims" | "nodes_exact" | "operations" | "random_exact_operations"
                    ),
                    "register {label} has unknown key `{key}`"
                );
            }
            let dims_vec: Vec<usize> = row
                .get("dims")
                .unwrap_or_else(|| panic!("register {label} has dims"))
                .expect_array()
                .iter()
                .map(Json::expect_usize)
                .collect();
            let dims = Dims::new(dims_vec)
                .unwrap_or_else(|e| panic!("register {label} has invalid dims: {e}"));
            let operations = match row.get("operations") {
                None => Vec::new(),
                Some(map) => {
                    let members = map.expect_object();
                    for key in members.keys() {
                        assert!(
                            families.iter().any(|f| f == key),
                            "register {label} has operations for unknown family `{key}`"
                        );
                    }
                    families
                        .iter()
                        .map(|family| {
                            let ops = members
                                .get(family)
                                .unwrap_or_else(|| {
                                    panic!("register {label} is missing operations for {family}")
                                })
                                .expect_usize();
                            (family.clone(), ops)
                        })
                        .collect()
                }
            };
            GoldenRegister {
                nodes_exact: row
                    .get("nodes_exact")
                    .unwrap_or_else(|| panic!("register {label} has nodes_exact"))
                    .expect_usize(),
                random_exact_operations: row.get("random_exact_operations").map(Json::expect_usize),
                label,
                dims,
                operations,
            }
        })
        .collect()
}

#[test]
fn golden_registers_are_structurally_consistent() {
    // "Nodes" (Exact) is the unreduced-tree edge count — a pure function of
    // the register, checkable without running any synthesis.
    let golden = load_golden();
    assert!(!golden.is_empty(), "golden file has no registers");
    for row in &golden {
        assert_eq!(
            row.dims.full_tree_edge_count(),
            row.nodes_exact,
            "{} ({})",
            row.label,
            row.dims
        );
        if let Some(random_ops) = row.random_exact_operations {
            // A dense state's diagram is the full tree; exact synthesis emits
            // one operation per edge except the terminal's incoming root edge.
            assert_eq!(random_ops, row.nodes_exact - 1, "{}", row.label);
        }
    }
}

#[test]
fn exact_structural_metrics_all_rows() {
    // The pipeline must report exactly the golden "Nodes" count, for every
    // structured family (the metric is structural: identical across them).
    for row in load_golden().iter().filter(|r| !r.operations.is_empty()) {
        for (family, _) in &row.operations {
            let state = generator_for(family)(&row.dims);
            let r = prepare(&row.dims, &state, PrepareOptions::exact()).unwrap();
            assert_eq!(
                r.report.nodes_initial, row.nodes_exact,
                "{family} over {}",
                row.label
            );
        }
    }
}

#[test]
fn exact_operation_counts_all_structured_rows() {
    for row in load_golden().iter().filter(|r| !r.operations.is_empty()) {
        for (family, want) in &row.operations {
            let state = generator_for(family)(&row.dims);
            let r = prepare(&row.dims, &state, PrepareOptions::exact()).unwrap();
            assert_eq!(r.report.operations, *want, "{family} over {}", row.label);
        }
    }
}

#[test]
fn structured_rows_are_unaffected_by_approximation() {
    // "Due to the regular structure of the first three benchmarks, the
    // approximation shows no effect" — every component carries ≥ 1/21 of
    // the mass, far above the 2 % budget.
    for row in load_golden().iter().filter(|r| !r.operations.is_empty()) {
        for (family, _) in &row.operations {
            let state = generator_for(family)(&row.dims);
            let exact = prepare(&row.dims, &state, PrepareOptions::exact()).unwrap();
            let approx = prepare(&row.dims, &state, PrepareOptions::approximated(0.98)).unwrap();
            assert_eq!(
                exact.report.operations, approx.report.operations,
                "{family} over {}",
                row.label
            );
            // The zero-weight branches of the structural tree are removed
            // for free, but no probability mass is ever pruned.
            assert!(
                approx.report.pruned_mass < 1e-12,
                "{family} over {}",
                row.label
            );
            assert!((approx.report.fidelity_bound - 1.0).abs() < 1e-12);
        }
    }
}

#[test]
fn structured_fidelities_are_exactly_one() {
    // Simulation is exponential in the register, so verify fidelity on the
    // rows small enough for the dense simulator's test budget.
    for row in load_golden()
        .iter()
        .filter(|r| !r.operations.is_empty() && r.dims.space_size() <= 1000)
    {
        for (family, _) in &row.operations {
            let state = generator_for(family)(&row.dims);
            let (_, f) = prepare_and_verify(&row.dims, &state, PrepareOptions::exact()).unwrap();
            assert!(
                (f - 1.0).abs() < 1e-9,
                "{family} over {}: fidelity {f}",
                row.label
            );
        }
    }
}

#[test]
fn random_rows_exact_and_approximated() {
    for row in load_golden() {
        let Some(want_ops) = row.random_exact_operations else {
            continue;
        };
        // Per-row seed: adding golden rows must not reshuffle the random
        // states of existing ones.
        let mut rng = StdRng::seed_from_u64(0x2468 ^ row_seed(&row.label));
        let state = random_state(&row.dims, RandomKind::ReImUniform, &mut rng);

        let (exact, f_exact) =
            prepare_and_verify(&row.dims, &state, PrepareOptions::exact()).unwrap();
        assert_eq!(exact.report.operations, want_ops, "{}", row.label);
        assert!(
            (f_exact - 1.0).abs() < 1e-9,
            "{}: exact fidelity {f_exact}",
            row.label
        );

        let (approx, f_approx) =
            prepare_and_verify(&row.dims, &state, PrepareOptions::approximated(0.98)).unwrap();
        assert!(
            f_approx >= 0.98 - 1e-9,
            "{}: approx fidelity {f_approx}",
            row.label
        );
        assert!(
            (f_approx - approx.report.fidelity_bound).abs() < 1e-9,
            "{}: measured {f_approx} vs bound {}",
            row.label,
            approx.report.fidelity_bound
        );
        assert!(approx.report.operations <= exact.report.operations);
        assert!(approx.report.nodes_final <= exact.report.nodes_initial);
    }
}

#[test]
fn time_grows_with_diagram_size() {
    // "Performance directly linked to the size of the decision diagram":
    // the largest random row must take longer than the smallest, by a wide
    // margin (the diagrams differ by 150×).
    let golden = load_golden();
    let smallest = golden
        .iter()
        .min_by_key(|r| r.nodes_exact)
        .expect("non-empty golden file");
    let largest = golden
        .iter()
        .max_by_key(|r| r.nodes_exact)
        .expect("non-empty golden file");
    let mut rng = StdRng::seed_from_u64(7);
    let small_state = random_state(&smallest.dims, RandomKind::ReImUniform, &mut rng);
    let large_state = random_state(&largest.dims, RandomKind::ReImUniform, &mut rng);
    // Warm up, then time a few runs.
    let mut t_small = std::time::Duration::MAX;
    let mut t_large = std::time::Duration::MAX;
    for _ in 0..5 {
        let rs = prepare(&smallest.dims, &small_state, PrepareOptions::exact()).unwrap();
        let rl = prepare(&largest.dims, &large_state, PrepareOptions::exact()).unwrap();
        t_small = t_small.min(rs.report.time);
        t_large = t_large.min(rl.report.time);
    }
    assert!(
        t_large > t_small,
        "large register ({t_large:?}) should outweigh small ({t_small:?})"
    );
}
