//! Shared workload definitions and table formatting for the benchmark
//! harness that regenerates every table and figure of the paper.
//!
//! The binaries in `src/bin/` each regenerate one experiment:
//!
//! * `table1` — Table 1 (all rows, exact + approximated 98 %);
//! * `scaling` — the §5 claim that synthesis time is linear in DD nodes;
//! * `approx_sweep` — the §4.3 accuracy/size trade-off;
//! * `ablation_reduction` — the §4.3 reduction rules (product-node control
//!   elision, identity skipping);
//! * `transpile_cost` — the "transposable to two-qudit gates" claim.
//!
//! Criterion micro-benchmarks for the individual pipeline stages live in
//! `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mdq_num::radix::Dims;
use mdq_num::Complex;
use mdq_states::{embedded_w, ghz, random_state, w_state, RandomKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A benchmark family of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Embedded W state (levels {0,1} of each qudit).
    EmbeddedW,
    /// Mixed-dimensional GHZ state.
    Ghz,
    /// All-levels W state.
    W,
    /// Dense random state (fresh draw per run).
    Random,
}

impl Family {
    /// Display name matching Table 1.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Family::EmbeddedW => "Emb. W-State",
            Family::Ghz => "GHZ State",
            Family::W => "W-State",
            Family::Random => "Random State",
        }
    }

    /// Generates the target state; `run` seeds the random family so each of
    /// the 40 averaged runs uses a fresh state, reproducibly.
    #[must_use]
    pub fn state(self, dims: &Dims, run: u64) -> Vec<Complex> {
        match self {
            Family::EmbeddedW => embedded_w(dims),
            Family::Ghz => ghz(dims),
            Family::W => w_state(dims),
            Family::Random => {
                let mut rng = StdRng::seed_from_u64(0xD1CE + run);
                random_state(dims, RandomKind::ReImUniform, &mut rng)
            }
        }
    }

    /// Whether the state differs between runs.
    #[must_use]
    pub fn is_randomized(self) -> bool {
        matches!(self, Family::Random)
    }
}

/// One benchmark configuration (a row of Table 1).
#[derive(Debug, Clone)]
pub struct Config {
    /// The benchmark family.
    pub family: Family,
    /// Qudit dimensions (most significant first) — the orderings recovered
    /// from the structural "Nodes" counts of Table 1.
    pub dims: Dims,
    /// The "Qudits" column text of Table 1 (e.g. `[1x3,1x6,1x2]`).
    pub label: &'static str,
}

/// The Table 1 register for 3 qudits.
#[must_use]
pub fn dims3() -> Dims {
    Dims::new(vec![3, 6, 2]).expect("valid register")
}

/// The Table 1 register for 4 qudits.
#[must_use]
pub fn dims4() -> Dims {
    Dims::new(vec![9, 5, 6, 3]).expect("valid register")
}

/// The Table 1 register for 5 qudits (random rows only).
#[must_use]
pub fn dims5() -> Dims {
    Dims::new(vec![6, 6, 5, 3, 3]).expect("valid register")
}

/// The Table 1 register for 6 qudits, variant `[3x5,1x4,2x2]` (random only).
#[must_use]
pub fn dims6a() -> Dims {
    Dims::new(vec![5, 4, 2, 5, 5, 2]).expect("valid register")
}

/// The Table 1 register for 6 qudits, variant `[3x4,1x7,1x3,1x5]`.
#[must_use]
pub fn dims6b() -> Dims {
    Dims::new(vec![4, 7, 4, 4, 3, 5]).expect("valid register")
}

/// All 14 rows of Table 1, in the paper's order.
#[must_use]
pub fn table1_rows() -> Vec<Config> {
    let structured = [Family::EmbeddedW, Family::Ghz, Family::W];
    let mut rows = Vec::new();
    for family in structured {
        rows.push(Config {
            family,
            dims: dims3(),
            label: "[1x3,1x6,1x2]",
        });
        rows.push(Config {
            family,
            dims: dims4(),
            label: "[1x9,1x5,1x6,1x3]",
        });
        rows.push(Config {
            family,
            dims: dims6b(),
            label: "[3x4,1x7,1x3,1x5]",
        });
    }
    rows.push(Config {
        family: Family::Random,
        dims: dims3(),
        label: "[1x3,1x6,1x2]",
    });
    rows.push(Config {
        family: Family::Random,
        dims: dims4(),
        label: "[1x9,1x5,1x6,1x3]",
    });
    rows.push(Config {
        family: Family::Random,
        dims: dims5(),
        label: "[2x6,1x5,2x3]",
    });
    rows.push(Config {
        family: Family::Random,
        dims: dims6a(),
        label: "[3x5,1x4,2x2]",
    });
    rows.push(Config {
        family: Family::Random,
        dims: dims6b(),
        label: "[3x4,1x7,1x3,1x5]",
    });
    rows
}

/// The register used by the sparse build/apply benchmarks: 20 mixed
/// qudits, a Hilbert space of ≈10^10 amplitudes — far beyond dense reach,
/// routine for the arena-backed sparse path.
#[must_use]
pub fn sparse_bench_dims() -> Dims {
    let pattern: Vec<usize> = (0..20).map(|i| 2 + (i % 4)).collect();
    Dims::new(pattern).expect("valid register")
}

/// The three sparse workload families of the DD build/apply benchmarks:
/// GHZ, W, and a seeded random sparse state with 32 support entries.
#[must_use]
pub fn sparse_workloads(dims: &Dims) -> Vec<(&'static str, mdq_states::sparse::SparseState)> {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    vec![
        ("ghz", mdq_states::sparse::ghz(dims)),
        ("w", mdq_states::sparse::w_state(dims)),
        (
            "random_sparse",
            mdq_states::sparse::random_sparse(dims, 32, &mut rng),
        ),
    ]
}

/// Returns the value following `flag` in an argument list (shared CLI
/// helper of the benchmark binaries).
#[must_use]
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Simple running mean.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mean {
    sum: f64,
    count: u64,
}

impl Mean {
    /// Adds a sample.
    pub fn add(&mut self, value: f64) {
        self.sum += value;
        self.count += 1;
    }

    /// The mean of the samples added so far (0 when empty).
    #[must_use]
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_fourteen_rows() {
        assert_eq!(table1_rows().len(), 14);
    }

    #[test]
    fn structural_nodes_match_table_one() {
        assert_eq!(dims3().full_tree_edge_count(), 58);
        assert_eq!(dims4().full_tree_edge_count(), 1135);
        assert_eq!(dims5().full_tree_edge_count(), 2383);
        assert_eq!(dims6a().full_tree_edge_count(), 3266);
        assert_eq!(dims6b().full_tree_edge_count(), 8657);
    }

    #[test]
    fn random_family_differs_between_runs() {
        let d = dims3();
        let a = Family::Random.state(&d, 0);
        let b = Family::Random.state(&d, 1);
        assert_ne!(a, b);
        let c = Family::Random.state(&d, 0);
        assert_eq!(a, c);
    }

    #[test]
    fn structured_families_are_deterministic() {
        let d = dims3();
        for f in [Family::EmbeddedW, Family::Ghz, Family::W] {
            assert_eq!(f.state(&d, 0), f.state(&d, 5));
            assert!(!f.is_randomized());
        }
    }

    #[test]
    fn mean_averages() {
        let mut m = Mean::default();
        m.add(1.0);
        m.add(3.0);
        assert_eq!(m.value(), 2.0);
        assert_eq!(Mean::default().value(), 0.0);
    }
}
