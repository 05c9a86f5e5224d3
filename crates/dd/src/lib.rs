//! Edge-weighted decision diagrams with a variable number of successors for
//! mixed-dimensional quantum states.
//!
//! This crate implements the data structure at the heart of
//! *"Mixed-Dimensional Qudit State Preparation Using Edge-Weighted Decision
//! Diagrams"* (Mato, Hillmich, Wille — DAC 2024): a rooted directed acyclic
//! graph whose levels correspond to qudits, whose nodes have as many
//! successor edges as the local dimension of their qudit, and whose complex
//! edge weights multiply along a root-to-terminal path to the amplitude of
//! the corresponding basis state.
//!
//! The main type is [`StateDd`]. Every diagram lives in a hash-consed
//! [`DdArena`]: a central unique table (see [`unique`]) canonicalizes edge
//! weights through a tolerance-bucketed
//! [`ComplexTable`](mdq_num::ComplexTable) and shares structurally
//! identical subtrees at intern time, so diagrams produced by
//! [`StateDd::from_amplitudes`], [`StateDd::from_sparse`],
//! [`StateDd::ground`], [`StateDd::apply`] and [`StateDd::approximate`] are
//! **canonical by construction** — [`StateDd::reduce`] on them is a
//! structural no-op. The only exception is the explicit
//! [`keep_zero_subtrees`](BuildOptions::keep_zero_subtrees) path, which
//! reproduces the paper's unreduced Table-1 trees with every node distinct
//! (reduction then performs real sharing).
//!
//! [`StateDd`] supports:
//!
//! * construction from a dense amplitude vector with bottom-up
//!   normalization ([`StateDd::from_amplitudes`]) or from a sparse
//!   `(digits, amplitude)` support list ([`StateDd::from_sparse`]) whose
//!   cost is linear in the support size, never the Hilbert-space size;
//! * amplitude queries and reconstruction of the dense vector;
//! * the evaluation metrics of the paper (edge count, node count, distinct
//!   complex values);
//! * fidelity-driven **approximation** ([`StateDd::approximate`]), the
//!   qudit generalization of Hillmich et al. (TQC 2022);
//! * **reduction** ([`StateDd::reduce`]): a canonicity assertion on
//!   arena-built diagrams, a real hash-consing pass on Table-1 trees;
//! * circuit application ([`StateDd::apply_circuit`]) that threads one
//!   arena and one [`ComputeCache`] through every instruction;
//! * fidelity and inner products between diagrams, sampling, and DOT export.
//!
//! # Examples
//!
//! ```
//! use mdq_dd::{BuildOptions, StateDd};
//! use mdq_num::{radix::Dims, Complex};
//!
//! // The qutrit-qubit state of the paper's Figure 3: (|00⟩ − |11⟩ + |21⟩)/√3.
//! let dims = Dims::new(vec![3, 2])?;
//! let a = 1.0 / 3.0_f64.sqrt();
//! let mut amps = vec![Complex::ZERO; 6];
//! amps[dims.index_of(&[0, 0])] = Complex::real(a);
//! amps[dims.index_of(&[1, 1])] = Complex::real(-a);
//! amps[dims.index_of(&[2, 1])] = Complex::real(a);
//!
//! let dd = StateDd::from_amplitudes(&dims, &amps, BuildOptions::default())?;
//! assert!(dd.amplitude(&[1, 1]).approx_eq(Complex::real(-a), 1e-12));
//!
//! // The identical |1⟩ successors are shared at build time already…
//! assert!(dd.node_count() < dims.full_tree_node_count());
//! // …so reduction has nothing left to do.
//! assert_eq!(dd.reduce().node_count(), dd.node_count());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apply;
mod approx;
pub mod arena;
mod build;
mod dot;
mod entanglement;
mod metrics;
mod node;
mod query;
mod reduce;
pub mod unique;

pub use apply::ApplyError;
pub use approx::{ApproxError, Approximation};
pub use arena::{ArenaOverflow, ComputeCache, DdArena};
pub use build::{BuildError, BuildOptions};
pub use dot::render_summary;
pub use metrics::DdMetrics;
pub use node::{Edge, Node, NodeId, NodeRef};

use mdq_num::radix::Dims;
use mdq_num::{Complex, Tolerance};

// Compile-time Send/Sync audit: diagrams and their arenas cross worker
// threads in the batch-preparation engine (`mdq-engine`), so none of these
// types may silently grow a non-thread-safe field (Rc, RefCell, raw
// pointer) without breaking this build.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<DdArena>();
    assert_send_sync::<ComputeCache>();
    assert_send_sync::<unique::UniqueTable>();
    assert_send_sync::<StateDd>();
    assert_send_sync::<Node>();
    assert_send_sync::<Edge>();
    assert_send_sync::<NodeRef>();
};

/// An edge-weighted decision diagram representing a pure quantum state of a
/// mixed-dimensional qudit register.
///
/// Level 0 is the most-significant qudit (the root level, `q_{n−1}` in the
/// paper); level `n−1` is the least significant. A node at level `ℓ` has
/// exactly `dims[ℓ]` successor edges. Zero-weight edges either point to the
/// terminal (pruned form) or to an all-zero subtree (unreduced form, used to
/// reproduce the paper's structural "Nodes" metric).
///
/// Instances are produced by [`StateDd::from_amplitudes`] and transformed by
/// [`StateDd::prune_zero_subtrees`], [`StateDd::reduce`] and
/// [`StateDd::approximate`]; all transformations return new diagrams. The
/// node storage is a hash-consed [`DdArena`], so every diagram except the
/// explicit `keep_zero_subtrees` trees is canonical (maximally shared) by
/// construction.
#[derive(Debug, Clone)]
pub struct StateDd {
    dims: Dims,
    arena: DdArena,
    root: NodeRef,
    root_weight: Complex,
    /// Whether the diagram was built through the hash-consing intern path
    /// (true) or as an unshared Table-1 tree (false).
    canonical: bool,
}

impl StateDd {
    /// The register layout the diagram is defined over.
    #[must_use]
    pub fn dims(&self) -> &Dims {
        &self.dims
    }

    /// The tolerance used for zero tests and weight canonicalization.
    #[must_use]
    pub fn tolerance(&self) -> Tolerance {
        self.arena.tolerance()
    }

    /// The incoming edge of the root node.
    ///
    /// Its weight is a unit-magnitude global phase for a normalized state.
    #[must_use]
    pub fn root(&self) -> (Complex, NodeRef) {
        (self.root_weight, self.root)
    }

    /// Access a node by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this diagram.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        self.arena.node(id)
    }

    /// All nodes of the diagram, in bottom-up creation order (children come
    /// before their parents, so iterating in reverse is a valid top-down
    /// topological order).
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        self.arena.nodes()
    }

    /// The arena holding this diagram's nodes and canonicalization tables.
    #[must_use]
    pub fn arena(&self) -> &DdArena {
        &self.arena
    }

    /// Number of nodes reachable from the root. Equals
    /// [`StateDd::node_count`] on a compacted diagram; on an uncompacted
    /// one (e.g. the result of [`StateDd::apply_circuit_consuming`]) it
    /// counts only the live diagram, not superseded arena garbage.
    #[must_use]
    pub fn live_node_count(&self) -> usize {
        let mut reachable = vec![false; self.arena.len()];
        self.mark_reachable(&mut reachable);
        reachable.iter().filter(|&&r| r).count()
    }

    /// Consumes the diagram and returns its arena, so a worker can
    /// [`reset`](DdArena::reset) and reuse the grown node store and
    /// canonicalization indices for the next job instead of reallocating
    /// them per request.
    #[must_use]
    pub fn into_arena(self) -> DdArena {
        self.arena
    }

    /// Whether the diagram was built through the hash-consing intern path
    /// and is therefore canonical (maximally shared, no all-zero nodes) by
    /// construction. False only for the
    /// [`keep_zero_subtrees`](BuildOptions::keep_zero_subtrees) Table-1
    /// trees; [`StateDd::reduce`] turns those into canonical diagrams.
    #[must_use]
    pub fn is_canonical(&self) -> bool {
        self.canonical
    }

    /// Internal constructor shared by every producer.
    pub(crate) fn from_parts(
        dims: Dims,
        arena: DdArena,
        root: NodeRef,
        root_weight: Complex,
        canonical: bool,
    ) -> Self {
        StateDd {
            dims,
            arena,
            root,
            root_weight,
            canonical,
        }
    }

    /// Re-interns every selected node into `arena` bottom-up, remapping
    /// edge targets through the returned per-index memo (zero edges become
    /// [`Edge::ZERO`]). The shared core of [`StateDd::reduce`],
    /// [`StateDd::check_canonical`] and [`StateDd::compacted`]; indices for
    /// which `keep` returns false are skipped and stay `None` in the memo.
    ///
    /// # Panics
    ///
    /// Panics if `arena` cannot hold the re-interned nodes, which cannot
    /// happen when its node limit is at least the source arena's.
    pub(crate) fn reintern_into(
        &self,
        arena: &mut DdArena,
        keep: impl Fn(usize) -> bool,
    ) -> Vec<Option<NodeRef>> {
        let tol = self.tolerance().value();
        let mut memo: Vec<Option<NodeRef>> = vec![None; self.arena.len()];
        for (idx, node) in self.arena.nodes().iter().enumerate() {
            if !keep(idx) {
                continue;
            }
            let edges: Vec<Edge> = node
                .edges()
                .iter()
                .map(|e| {
                    if e.is_zero(tol) {
                        Edge::ZERO
                    } else {
                        let target = match e.target {
                            NodeRef::Terminal => NodeRef::Terminal,
                            NodeRef::Node(id) => {
                                memo[id.index()].expect("children precede parents")
                            }
                        };
                        Edge::new(e.weight, target)
                    }
                })
                .collect();
            memo[idx] = Some(
                arena
                    .intern(node.level(), edges)
                    .expect("re-interning never exceeds the source arena size"),
            );
        }
        memo
    }

    /// Rebuilds the diagram into a minimal arena holding exactly the nodes
    /// reachable from the root, preserving bottom-up order. Used by
    /// [`StateDd::apply_circuit`] after threading one arena through a whole
    /// circuit; a no-op (by move) when the arena is already minimal.
    #[must_use]
    pub(crate) fn compacted(self) -> StateDd {
        let mut reachable = vec![false; self.arena.len()];
        self.mark_reachable(&mut reachable);
        if reachable.iter().all(|&r| r) {
            return self;
        }
        let mut arena = DdArena::with_node_limit(self.tolerance(), self.arena.node_limit());
        let memo = self.reintern_into(&mut arena, |idx| reachable[idx]);
        let root = match self.root {
            NodeRef::Terminal => NodeRef::Terminal,
            NodeRef::Node(id) => memo[id.index()].expect("root is reachable"),
        };
        StateDd::from_parts(self.dims, arena, root, self.root_weight, true)
    }

    fn mark_reachable(&self, reachable: &mut [bool]) {
        let tol = self.tolerance().value();
        let mut stack: Vec<NodeId> = Vec::new();
        if let NodeRef::Node(root) = self.root {
            if !reachable[root.index()] {
                reachable[root.index()] = true;
                stack.push(root);
            }
        }
        while let Some(id) = stack.pop() {
            for edge in self.arena.node(id).edges() {
                if edge.is_zero(tol) {
                    continue;
                }
                if let NodeRef::Node(child) = edge.target {
                    if !reachable[child.index()] {
                        reachable[child.index()] = true;
                        stack.push(child);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mdq_num::fidelity;
    use proptest::prelude::*;

    fn arb_dims() -> impl Strategy<Value = Dims> {
        proptest::collection::vec(2usize..5, 1..4).prop_map(|v| Dims::new(v).unwrap())
    }

    pub(crate) fn arb_state(dims: &Dims) -> impl Strategy<Value = Vec<Complex>> {
        let n = dims.space_size();
        proptest::collection::vec((-1.0..1.0f64, -1.0..1.0f64), n..=n).prop_filter_map(
            "state must have nonzero norm",
            |parts| {
                let v: Vec<Complex> = parts
                    .into_iter()
                    .map(|(re, im)| Complex::new(re, im))
                    .collect();
                let norm = mdq_num::norm(&v);
                (norm > 1e-6).then(|| v.iter().map(|a| *a / norm).collect::<Vec<_>>())
            },
        )
    }

    fn arb_dims_and_state() -> impl Strategy<Value = (Dims, Vec<Complex>)> {
        arb_dims().prop_flat_map(|d| {
            let s = arb_state(&d);
            (Just(d), s)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_round_trip_preserves_amplitudes((dims, amps) in arb_dims_and_state()) {
            let dd = StateDd::from_amplitudes(&dims, &amps, BuildOptions::default()).unwrap();
            let back = dd.to_amplitudes();
            prop_assert!(fidelity(&amps, &back) > 1.0 - 1e-9);
            for (a, b) in amps.iter().zip(back.iter()) {
                prop_assert!(a.approx_eq(*b, 1e-7));
            }
        }

        #[test]
        fn prop_reduce_preserves_amplitudes((dims, amps) in arb_dims_and_state()) {
            let dd = StateDd::from_amplitudes(&dims, &amps, BuildOptions::default()).unwrap();
            let reduced = dd.reduce();
            for (a, b) in amps.iter().zip(reduced.to_amplitudes().iter()) {
                prop_assert!(a.approx_eq(*b, 1e-7));
            }
            prop_assert!(reduced.node_count() <= dd.node_count());
        }

        #[test]
        fn prop_normalization_invariant((dims, amps) in arb_dims_and_state()) {
            let dd = StateDd::from_amplitudes(&dims, &amps, BuildOptions::default()).unwrap();
            for node in dd.nodes() {
                let sum: f64 = node.edges().iter().map(|e| e.weight.norm_sqr()).sum();
                prop_assert!((sum - 1.0).abs() < 1e-9, "node norm {}", sum);
            }
            prop_assert!((dd.root().0.abs() - 1.0).abs() < 1e-9);
        }

        #[test]
        fn prop_approximation_meets_fidelity_budget(
            (dims, amps) in arb_dims_and_state(),
            budget in 0.0..0.3f64,
        ) {
            let dd = StateDd::from_amplitudes(&dims, &amps, BuildOptions::default()).unwrap();
            let approx = dd.approximate(budget).unwrap();
            let out = approx.dd.to_amplitudes();
            let f = fidelity(&amps, &out);
            prop_assert!(f >= 1.0 - budget - 1e-9, "fidelity {} below 1-{}", f, budget);
            prop_assert!(approx.dd.edge_count() <= dd.edge_count());
        }

        #[test]
        fn prop_contributions_sum_to_one_per_level((dims, amps) in arb_dims_and_state()) {
            let dd = StateDd::from_amplitudes(&dims, &amps, BuildOptions::default()).unwrap();
            let contrib = dd.contributions();
            let mut per_level = vec![0.0; dims.len()];
            for (node, c) in dd.nodes().iter().zip(contrib.iter()) {
                per_level[node.level()] += c;
            }
            for (level, total) in per_level.iter().enumerate() {
                // Levels below pruned-to-terminal zero edges may miss mass,
                // but a fully dense random state covers every level.
                prop_assert!(*total <= 1.0 + 1e-9, "level {} mass {}", level, total);
            }
        }
    }
}
