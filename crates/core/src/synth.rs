//! The decision-diagram traversal synthesis algorithm (paper §4.2).

use mdq_circuit::{Circuit, Control, Gate, Instruction};
use mdq_dd::{NodeId, NodeRef, StateDd};
use mdq_num::Complex;

/// When the tensor-product reduction of §4.3 may drop a qudit from the
/// control set of the operations synthesized below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProductRule {
    /// Never elide controls (plain tree traversal).
    Off,
    /// Elide when **all** nonzero edges of a node (at least two of them)
    /// point to the same shared child — the paper's tensor-product pattern.
    /// This is the default; it fires on shared diagrams, which arena-built
    /// ([canonical](StateDd::is_canonical)) diagrams are by construction.
    /// On the unreduced Table-1 trees it needs an explicit
    /// [`StateDd::reduce`] first, because only reduction makes identical
    /// subtrees shared there.
    #[default]
    SharedChild,
    /// Additionally elide single-successor nodes (one nonzero edge). Sound —
    /// the other successors carry zero amplitude when the child operations
    /// run — but not done by the paper's implementation, whose operation
    /// counts include the full |0…0⟩ chains; kept as an ablation option.
    SharedChildOrSingle,
}

/// Which circuit the synthesis returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Direction {
    /// The preparation circuit `C` with `C|0…0⟩ = |ψ⟩` (up to global phase).
    #[default]
    Prepare,
    /// The disentangling circuit `D` with `D|ψ⟩ = w_root·|0…0⟩`; this is the
    /// order in which operations are derived from the diagram.
    Disentangle,
}

/// Options for [`synthesize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SynthesisOptions {
    /// Control-elision rule for tensor-product nodes.
    pub product_rule: ProductRule,
    /// Skip rotations that are numerically the identity (θ ≈ 0 Givens and
    /// α ≈ 0 phase corrections). The paper's operation counts include them,
    /// so the default is `false`; enabling this is a free post-optimization
    /// whose effect the ablation benchmark measures.
    pub skip_identities: bool,
    /// Which direction to emit. Defaults to the preparation circuit.
    pub direction: Direction,
}

impl SynthesisOptions {
    /// Options reproducing the paper's Table 1 operation counts exactly:
    /// no identity skipping, shared-child product rule, preparation order.
    #[must_use]
    pub fn paper() -> Self {
        SynthesisOptions::default()
    }
}

/// Synthesizes a circuit constructing the state represented by `dd`
/// (paper §4.2).
///
/// The diagram is traversed depth-first along nonzero edges. For every node
/// visited in a control context, the successor weights are collected into
/// level 0 by `d − 1` Givens rotations processed pairwise from the back
/// (`θ = 2·atan(|w_hi| / |w_lo|)`, `φ = arg w_hi − arg w_lo − π/2`),
/// followed by one two-level phase rotation on levels (0, 1) cancelling the
/// residual phase; each operation is controlled on the `(qudit, level)`
/// pairs along the path from the root, minus any product-elided ancestors.
/// The preparation circuit is the adjoint of this disentangling sequence.
///
/// Complexity is linear in the number of `(node, context)` pairs, which for
/// trees is the node count — the paper's linearity claim.
///
/// The prepared state equals the diagram's state up to the global phase of
/// the diagram's root weight (exactly 1 for states with a real positive
/// leading amplitude).
#[must_use]
pub fn synthesize(dd: &StateDd, opts: SynthesisOptions) -> Circuit {
    let mut disentangler: Vec<Instruction> = Vec::new();
    let tol = dd.tolerance().value();
    if let (_, NodeRef::Node(root)) = dd.root() {
        let mut path: Vec<Control> = Vec::new();
        emit_node(dd, root, &mut path, opts, tol, &mut disentangler);
    }

    // Sized exactly: a served circuit may live on in a cache, where spare
    // capacity from growth by pushing would stay resident.
    let mut circuit = Circuit::with_capacity(dd.dims().clone(), disentangler.len());
    match opts.direction {
        Direction::Disentangle => {
            for instr in disentangler {
                circuit
                    .push(instr)
                    .expect("synthesized instruction is valid");
            }
        }
        Direction::Prepare => {
            for instr in disentangler.into_iter().rev() {
                circuit
                    .push(instr.adjoint())
                    .expect("synthesized instruction is valid");
            }
        }
    }
    circuit
}

/// Post-order emission: children first (so that, in disentangling order,
/// lower levels are cleaned before their parent collects its successors),
/// then the node's own cascade.
fn emit_node(
    dd: &StateDd,
    id: NodeId,
    path: &mut Vec<Control>,
    opts: SynthesisOptions,
    tol: f64,
    out: &mut Vec<Instruction>,
) {
    let node = dd.node(id);
    let qudit = node.level();

    // Tensor-product elision (paper §4.3): if every nonzero edge shares one
    // child, the child factorizes from this qudit and is emitted once,
    // without a control on this qudit.
    let elide = match opts.product_rule {
        ProductRule::Off => None,
        ProductRule::SharedChild => node
            .common_child(tol)
            .and_then(|(child, count)| (count >= 2).then_some(child)),
        ProductRule::SharedChildOrSingle => node.common_child(tol).map(|(child, _)| child),
    };

    if let Some(child) = elide {
        emit_node(dd, child, path, opts, tol, out);
    } else {
        for (k, edge) in node.nonzero_edges(tol) {
            if let NodeRef::Node(child) = edge.target {
                path.push(Control::new(qudit, k));
                emit_node(dd, child, path, opts, tol, out);
                path.pop();
            }
        }
    }

    emit_cascade(node.edges(), qudit, path, opts, out);
}

/// Emits the Givens cascade and phase correction for one node context.
fn emit_cascade(
    edges: &[mdq_dd::Edge],
    qudit: usize,
    path: &[Control],
    opts: SynthesisOptions,
    out: &mut Vec<Instruction>,
) {
    let d = edges.len();
    // Accumulate from the last successor downwards (paper: "beginning from
    // the end of the list, in pairs of two, following a decreasing order").
    let mut acc: Complex = edges[d - 1].weight;
    for k in (0..d - 1).rev() {
        let w = edges[k].weight;
        let theta = 2.0 * acc.abs().atan2(w.abs());
        let phi = acc.arg() - w.arg() - std::f64::consts::FRAC_PI_2;
        let gate = Gate::givens(k, k + 1, theta, phi);
        if !(opts.skip_identities && gate.is_identity(1e-12)) {
            out.push(Instruction::controlled(qudit, gate, path.to_vec()));
        }
        // The collected amplitude lands on level k with magnitude
        // hypot(|w|, |acc|) and the phase of w (for w = 0 the phase is 0).
        acc = Complex::from_polar(w.abs().hypot(acc.abs()), w.arg());
    }
    // Residual phase correction on levels (0, 1): Z(θ) multiplies level 0 by
    // e^{iθ/2}; θ = −2·arg(acc) leaves the branch at exact phase 0.
    let alpha = acc.arg();
    let gate = Gate::z_rotation(0, 1, -2.0 * alpha);
    if !(opts.skip_identities && gate.is_identity(1e-12)) {
        out.push(Instruction::controlled(qudit, gate, path.to_vec()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdq_dd::BuildOptions;
    use mdq_num::radix::Dims;
    use mdq_sim::StateVector;

    fn dims(v: &[usize]) -> Dims {
        Dims::new(v.to_vec()).unwrap()
    }

    fn build(d: &Dims, amps: &[Complex]) -> StateDd {
        StateDd::from_amplitudes(d, amps, BuildOptions::default()).unwrap()
    }

    /// Synthesizes `amps` and returns the fidelity reached from |0…0⟩.
    fn prep_fidelity(d: &Dims, amps: &[Complex], opts: SynthesisOptions) -> f64 {
        let dd = build(d, amps);
        let circuit = synthesize(&dd, opts);
        let mut state = StateVector::ground(d.clone());
        state.apply_circuit(&circuit);
        state.fidelity_with_amplitudes(amps)
    }

    #[test]
    fn single_qutrit_uniform_superposition() {
        let d = dims(&[3]);
        let a = Complex::real(1.0 / 3.0_f64.sqrt());
        let f = prep_fidelity(&d, &[a, a, a], SynthesisOptions::paper());
        assert!((f - 1.0).abs() < 1e-10, "fidelity {f}");
    }

    #[test]
    fn single_qudit_with_phases() {
        let d = dims(&[4]);
        let amps = [
            Complex::from_polar(0.5, 0.3),
            Complex::from_polar(0.5, -1.2),
            Complex::from_polar(0.5, 2.2),
            Complex::from_polar(0.5, 0.9),
        ];
        let f = prep_fidelity(&d, &amps, SynthesisOptions::paper());
        assert!((f - 1.0).abs() < 1e-10, "fidelity {f}");
    }

    #[test]
    fn qutrit_qubit_fig3_state() {
        let d = dims(&[3, 2]);
        let a = 1.0 / 3.0_f64.sqrt();
        let mut amps = vec![Complex::ZERO; 6];
        amps[d.index_of(&[0, 0])] = Complex::real(a);
        amps[d.index_of(&[1, 1])] = Complex::real(-a);
        amps[d.index_of(&[2, 1])] = Complex::real(a);
        let f = prep_fidelity(&d, &amps, SynthesisOptions::paper());
        assert!((f - 1.0).abs() < 1e-10, "fidelity {f}");
    }

    #[test]
    fn ghz_operation_counts_match_table_one() {
        // Table 1, GHZ rows, "Operations" (Exact): 19, 51, 73.
        for (v, expected) in [
            (vec![3usize, 6, 2], 19usize),
            (vec![9, 5, 6, 3], 51),
            (vec![4, 7, 4, 4, 3, 5], 73),
        ] {
            let d = dims(&v);
            let k = v.iter().copied().min().unwrap();
            let amp = Complex::real(1.0 / (k as f64).sqrt());
            let mut amps = vec![Complex::ZERO; d.space_size()];
            for l in 0..k {
                amps[d.index_of(&vec![l; v.len()])] = amp;
            }
            let circuit = synthesize(&build(&d, &amps), SynthesisOptions::paper());
            assert_eq!(circuit.len(), expected, "dims {v:?}");
        }
    }

    #[test]
    fn random_operation_count_is_edge_count_minus_one() {
        // For dense states every tree node of every level is visited:
        // operations = Σ d_v = edges − 1 (Table 1 Random rows).
        let d = dims(&[3, 6, 2]);
        let amps: Vec<Complex> = (0..36)
            .map(|i| Complex::new(1.0 + (i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let dd = build(&d, &amps);
        let circuit = synthesize(&dd, SynthesisOptions::paper());
        assert_eq!(circuit.len(), 57);
        assert_eq!(circuit.len(), dd.edge_count() - 1);
    }

    #[test]
    fn controls_equal_path_depth() {
        let d = dims(&[3, 6, 2]);
        let amps: Vec<Complex> = (0..36).map(|i| Complex::real(1.0 + i as f64)).collect();
        let circuit = synthesize(&build(&d, &amps), SynthesisOptions::paper());
        let stats = circuit.stats();
        assert_eq!(stats.controls_max, 2); // depth n−1
                                           // Median over per-level op counts (3, 18, 36): level-2 ops dominate.
        assert_eq!(stats.controls_median, 2.0);
    }

    #[test]
    fn disentangle_direction_returns_to_ground() {
        let d = dims(&[3, 2, 4]);
        let amps: Vec<Complex> = (0..24)
            .map(|i| Complex::new((i as f64 * 0.7).sin() + 1.2, (i as f64 * 0.3).cos()))
            .collect();
        let norm = mdq_num::norm(&amps);
        let amps: Vec<Complex> = amps.into_iter().map(|a| a / norm).collect();
        let dd = build(&d, &amps);
        let dis = synthesize(
            &dd,
            SynthesisOptions {
                direction: Direction::Disentangle,
                ..SynthesisOptions::default()
            },
        );
        let mut state = StateVector::from_amplitudes(d.clone(), &amps).unwrap();
        state.apply_circuit(&dis);
        assert!(
            (state.probability(&[0, 0, 0]) - 1.0).abs() < 1e-10,
            "state {state}"
        );
    }

    #[test]
    fn prepare_is_adjoint_of_disentangle() {
        let d = dims(&[2, 3]);
        let amps: Vec<Complex> = (0..6).map(|i| Complex::real(i as f64 + 0.5)).collect();
        let dd = build(&d, &amps);
        let prep = synthesize(&dd, SynthesisOptions::paper());
        let dis = synthesize(
            &dd,
            SynthesisOptions {
                direction: Direction::Disentangle,
                ..SynthesisOptions::default()
            },
        );
        assert_eq!(prep, dis.adjoint());
    }

    #[test]
    fn skip_identities_reduces_ops_for_sparse_states() {
        let d = dims(&[3, 6, 2]);
        let mut amps = vec![Complex::ZERO; 36];
        let a = Complex::real(1.0 / 2.0_f64.sqrt());
        amps[d.index_of(&[0, 0, 0])] = a;
        amps[d.index_of(&[1, 1, 1])] = a;
        let dd = build(&d, &amps);
        let full = synthesize(&dd, SynthesisOptions::paper());
        let skipped = synthesize(
            &dd,
            SynthesisOptions {
                skip_identities: true,
                ..SynthesisOptions::default()
            },
        );
        assert_eq!(full.len(), 19);
        assert!(
            skipped.len() < full.len(),
            "{} vs {}",
            skipped.len(),
            full.len()
        );
        // Both prepare the state.
        let mut s = StateVector::ground(d.clone());
        s.apply_circuit(&skipped);
        assert!((s.fidelity_with_amplitudes(&dd.to_amplitudes()) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn product_rule_drops_controls_on_factorized_states() {
        // Uniform product state on [3,4,2]: after reduction, levels share
        // children, so no controls are needed at all.
        let d = dims(&[3, 4, 2]);
        let n = d.space_size();
        let amps = vec![Complex::real(1.0 / (n as f64).sqrt()); n];
        let reduced = build(&d, &amps).reduce();
        let circuit = synthesize(&reduced, SynthesisOptions::paper());
        assert_eq!(circuit.stats().controls_max, 0);
        // And exactly one context per level: Σ d = 3 + 4 + 2 ops.
        assert_eq!(circuit.len(), 9);
        let mut s = StateVector::ground(d);
        s.apply_circuit(&circuit);
        assert!((s.fidelity_with_amplitudes(&amps) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn product_rule_off_keeps_tree_contexts() {
        let d = dims(&[3, 4, 2]);
        let n = d.space_size();
        let amps = vec![Complex::real(1.0 / (n as f64).sqrt()); n];
        let reduced = build(&d, &amps).reduce();
        let circuit = synthesize(
            &reduced,
            SynthesisOptions {
                product_rule: ProductRule::Off,
                ..SynthesisOptions::default()
            },
        );
        // Tree contexts: 3 + 3·4 + 12·2 = 39 ops.
        assert_eq!(circuit.len(), 39);
    }

    #[test]
    fn single_successor_elision_shortens_w_chains() {
        let d = dims(&[3, 6, 2]);
        let amps = {
            // All-levels W state.
            let comps: usize = d.as_slice().iter().map(|x| x - 1).sum();
            let a = Complex::real(1.0 / (comps as f64).sqrt());
            let mut v = vec![Complex::ZERO; d.space_size()];
            for (q, &dd_) in d.as_slice().iter().enumerate() {
                for l in 1..dd_ {
                    let mut digits = vec![0; 3];
                    digits[q] = l;
                    v[d.index_of(&digits)] = a;
                }
            }
            v
        };
        let reduced = build(&d, &amps).reduce();
        let paper = synthesize(&reduced, SynthesisOptions::paper());
        let aggressive = synthesize(
            &reduced,
            SynthesisOptions {
                product_rule: ProductRule::SharedChildOrSingle,
                ..SynthesisOptions::default()
            },
        );
        // Single-successor elision drops *controls* (not operations): the
        // |0…0⟩ chains below excited branches no longer control on their
        // parents.
        assert_eq!(aggressive.len(), paper.len());
        let total = |c: &mdq_circuit::Circuit| c.iter().map(|i| i.control_count()).sum::<usize>();
        assert!(
            total(&aggressive) < total(&paper),
            "{} vs {}",
            total(&aggressive),
            total(&paper)
        );
        let mut s = StateVector::ground(d);
        s.apply_circuit(&aggressive);
        assert!((s.fidelity_with_amplitudes(&amps) - 1.0).abs() < 1e-10);
    }
}
