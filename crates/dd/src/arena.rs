//! The hash-consed node arena underlying every [`StateDd`].
//!
//! A [`DdArena`] owns the node storage of a diagram together with the two
//! canonicalization indices that make diagrams *reduced by construction*:
//!
//! * one tolerance-bucketed [`ComplexTable`] assigning every edge weight a
//!   canonical id, and
//! * one [`UniqueTable`] hash-consing nodes by their structural signature
//!   (see the [`unique`](crate::unique) module).
//!
//! Both are plain single-map tables owned by the arena, hashed with
//! [`FxHashMap`]; every build, reduction and circuit application runs
//! sequentially on one arena, and no probe of either table allocates.
//!
//! [`DdArena::intern`] applies the reduction rules of the paper's §4.3 on
//! the fly: weights within the tolerance of zero become explicit zero edges
//! to the terminal, a node whose edges are all zero collapses to the
//! terminal itself, and a node structurally identical (up to tolerance) to
//! an interned node is shared instead of allocated. Because children are
//! always interned before their parents, the arena's creation order is a
//! bottom-up topological order — the invariant every traversal in this
//! crate relies on.
//!
//! The unreduced trees of the paper's Table 1 (`keep_zero_subtrees`) are
//! built through [`DdArena::alloc_unshared`], which bypasses both indices so
//! that every tree position stays a distinct node.
//!
//! [`StateDd`]: crate::StateDd

use std::fmt;

use mdq_num::hash::FxHashMap;
use mdq_num::{Complex, ComplexTable, ComplexTableStats, Tolerance};

use crate::node::{Edge, Node, NodeId, NodeRef};
use crate::unique::{NodeSignature, UniqueTable};

/// Error raised when an arena cannot hold another node.
///
/// Produced when interning would exceed the configured node limit (or the
/// hard `u32` index space). Surface layers convert this into
/// [`BuildError::ArenaOverflow`](crate::BuildError::ArenaOverflow) and
/// [`ApplyError::ArenaOverflow`](crate::ApplyError::ArenaOverflow) instead
/// of panicking mid-build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaOverflow {
    /// The node limit that was hit.
    pub limit: usize,
}

impl fmt::Display for ArenaOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decision-diagram arena is full ({} nodes)", self.limit)
    }
}

impl std::error::Error for ArenaOverflow {}

/// Hash-consed node store with on-the-fly reduction.
///
/// See the [module documentation](self) for the invariants. Each
/// [`StateDd`](crate::StateDd) owns one arena holding exactly the nodes of
/// its diagram; transformation pipelines (notably
/// [`StateDd::apply_circuit`](crate::StateDd::apply_circuit)) thread a
/// single arena through many operations, leave superseded nodes in place,
/// and rebuild it only as that method's docs describe.
#[derive(Debug, Clone)]
pub struct DdArena {
    tolerance: Tolerance,
    node_limit: usize,
    nodes: Vec<Node>,
    unique: UniqueTable,
    weights: ComplexTable,
    /// Scratch for [`DdArena::intern`]'s signature probe.
    signature: NodeSignature,
}

impl DdArena {
    /// Creates an empty arena with the full `u32` index space available.
    #[must_use]
    pub fn new(tolerance: Tolerance) -> Self {
        Self::with_node_limit(tolerance, u32::MAX as usize)
    }

    /// Creates an empty arena that refuses to grow beyond `node_limit`
    /// nodes, surfacing [`ArenaOverflow`] instead of exhausting memory —
    /// a resource cap for service deployments.
    #[must_use]
    pub fn with_node_limit(tolerance: Tolerance, node_limit: usize) -> Self {
        DdArena {
            tolerance,
            node_limit: node_limit.min(u32::MAX as usize),
            nodes: Vec::new(),
            unique: UniqueTable::new(),
            weights: ComplexTable::new(tolerance),
            signature: NodeSignature::new(),
        }
    }

    /// The tolerance used for zero tests and weight canonicalization.
    #[must_use]
    pub fn tolerance(&self) -> Tolerance {
        self.tolerance
    }

    /// The configured maximum node count.
    #[must_use]
    pub fn node_limit(&self) -> usize {
        self.node_limit
    }

    /// Number of nodes currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena holds no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All stored nodes in creation order (children precede parents).
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Access a node by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this arena.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of distinct canonical edge weights interned so far.
    #[must_use]
    pub fn distinct_weights(&self) -> usize {
        self.weights.len()
    }

    /// Usage counters of the weight table — the pressure this arena's
    /// workloads put on the canonical complex store. Counters are
    /// cumulative across [`DdArena::reset`] and [`DdArena::reset_for`], so
    /// a recycled per-worker arena reports the traffic of every job it
    /// served.
    #[must_use]
    pub fn weight_stats(&self) -> ComplexTableStats {
        self.weights.stats()
    }

    /// Empties the arena while retaining the allocated capacity of the node
    /// store and both canonicalization indices — the recycling path that
    /// lets one worker reuse a single arena across many preparation jobs
    /// instead of re-growing hash maps from scratch per request.
    ///
    /// The tolerance and node limit are unchanged; see [`DdArena::reset_for`]
    /// to reconfigure them at the same time.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.unique.clear();
        self.weights.clear();
    }

    /// [`DdArena::reset`] plus reconfiguration of the tolerance and node
    /// limit, for recycling an arena into a job with different numerical
    /// settings.
    pub fn reset_for(&mut self, tolerance: Tolerance, node_limit: usize) {
        self.tolerance = tolerance;
        self.node_limit = node_limit.min(u32::MAX as usize);
        self.nodes.clear();
        self.unique.clear();
        self.weights.reset(tolerance);
    }

    fn push(&mut self, node: Node) -> Result<NodeId, ArenaOverflow> {
        if self.nodes.len() >= self.node_limit {
            return Err(ArenaOverflow {
                limit: self.node_limit,
            });
        }
        let id = NodeId::try_new(self.nodes.len()).ok_or(ArenaOverflow {
            limit: self.node_limit,
        })?;
        self.nodes.push(node);
        Ok(id)
    }

    /// Interns a canonical node, applying the zero-edge and redundant-node
    /// rules: zero-ish weights become explicit zero edges, an all-zero node
    /// collapses to [`NodeRef::Terminal`], and a node structurally equal
    /// (within tolerance) to an existing one is shared.
    ///
    /// The edge weights are expected to be normalized already (this is the
    /// back end of [`DdArena::intern_normalized`]); callers interning
    /// already-normalized nodes — e.g. a reduction pass — may use it
    /// directly.
    ///
    /// `edges` is canonicalized in place and, when the node is new, becomes
    /// its edge list; the signature probe runs on a reused scratch buffer,
    /// so only a new node allocates (its table key).
    ///
    /// # Errors
    ///
    /// Returns [`ArenaOverflow`] when the node limit is reached.
    pub fn intern(&mut self, level: usize, mut edges: Vec<Edge>) -> Result<NodeRef, ArenaOverflow> {
        let tol = self.tolerance.value();
        let level_slot = u32::try_from(level).expect("diagram levels fit in u32");
        self.signature.clear();
        self.signature.push((level_slot, NodeRef::Terminal));
        let mut live = false;
        for e in &mut edges {
            let zero = e.is_zero(tol);
            let id = self
                .weights
                .insert(if zero { Complex::ZERO } else { e.weight });
            // Canonicalization may fold a borderline weight onto the zero
            // representative; treat it as a zero edge then.
            let target = if zero || self.weights.value(id).is_zero(tol) {
                *e = Edge::ZERO;
                NodeRef::Terminal
            } else {
                live = true;
                e.target
            };
            self.signature.push((id.index() as u32, target));
        }
        if !live {
            return Ok(NodeRef::Terminal);
        }
        if let Some(existing) = self.unique.get(&self.signature) {
            return Ok(NodeRef::Node(existing));
        }
        let id = self.push(Node::new(level, edges))?;
        self.unique.insert(self.signature.clone(), id);
        Ok(NodeRef::Node(id))
    }

    /// Normalizes raw successor edges and interns the resulting canonical
    /// node, returning the upward edge: the norm of the raw weights and the
    /// phase of the first nonzero weight are pulled out of the node onto the
    /// returned edge weight, so structurally equal subtrees (up to a global
    /// factor) intern to the same node.
    ///
    /// An all-zero edge list yields [`Edge::ZERO`] without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`ArenaOverflow`] when the node limit is reached.
    pub fn intern_normalized(
        &mut self,
        level: usize,
        mut edges: Vec<Edge>,
    ) -> Result<Edge, ArenaOverflow> {
        let tol = self.tolerance.value();
        let norm_sqr: f64 = edges.iter().map(|e| e.weight.norm_sqr()).sum();
        let norm = norm_sqr.sqrt();
        if norm <= tol {
            return Ok(Edge::ZERO);
        }
        for e in &mut edges {
            e.weight = e.weight / norm;
        }
        let lead = edges.iter().find(|e| !e.is_zero(tol)).map(|e| e.weight);
        // Fast path for an already phase-free leading weight (the common
        // case when re-interning nodes that were canonical before an edit):
        // skips `arg`/`cis`/`from_polar` transcendentals entirely.
        if lead.is_none_or(|w| w.im == 0.0 && w.re > 0.0) {
            for e in &mut edges {
                if e.is_zero(tol) {
                    e.weight = Complex::ZERO;
                }
            }
            let target = self.intern(level, edges)?;
            if target.is_terminal() {
                return Ok(Edge::ZERO);
            }
            return Ok(Edge::new(Complex::real(norm), target));
        }
        let phase = lead.map_or(0.0, Complex::arg);
        let unphase = Complex::cis(-phase);
        for e in &mut edges {
            e.weight *= unphase;
            if e.is_zero(tol) {
                e.weight = Complex::ZERO;
            }
        }
        let target = self.intern(level, edges)?;
        if target.is_terminal() {
            // Numerically possible only for borderline norms; the subtree
            // carries no mass.
            return Ok(Edge::ZERO);
        }
        Ok(Edge::new(Complex::from_polar(norm, phase), target))
    }

    /// Allocates a node without hash-consing or zero collapsing — the
    /// Table-1 reproduction path, where every position of the unreduced
    /// tree must stay a distinct node (including all-zero subtrees).
    ///
    /// # Errors
    ///
    /// Returns [`ArenaOverflow`] when the node limit is reached.
    pub fn alloc_unshared(
        &mut self,
        level: usize,
        edges: Vec<Edge>,
    ) -> Result<NodeRef, ArenaOverflow> {
        Ok(NodeRef::Node(self.push(Node::new(level, edges))?))
    }
}

/// Memoization tables for the recursive diagram operations, reusable across
/// the instructions of a circuit so that one pipeline run allocates one set
/// of maps.
///
/// The caches key on exact weight bit patterns (operation intermediates are
/// instruction-specific), so they must be cleared between instructions via
/// [`ComputeCache::begin_op`]; clearing retains the allocated capacity.
#[derive(Debug, Default)]
pub struct ComputeCache {
    /// Transform memo of [`StateDd::apply`](crate::StateDd::apply):
    /// `(source node, pending-control index) → transformed edge`.
    pub(crate) rec: FxHashMap<(NodeId, usize), Edge>,
    /// Weighted-sum memo: sorted `(weight bits, target)` terms → summed edge.
    pub(crate) sum: FxHashMap<Vec<(u64, u64, NodeRef)>, Edge>,
    /// Scratch key for probing `sum` as a borrowed slice; only a miss
    /// copies it into the memo.
    pub(crate) sum_key: Vec<(u64, u64, NodeRef)>,
}

impl ComputeCache {
    /// Creates empty caches.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears both memo tables (keeping capacity) ahead of a new operation.
    pub fn begin_op(&mut self) {
        self.rec.clear();
        self.sum.clear();
    }

    /// Clears only the per-instruction transform memo, keeping the
    /// weighted-sum memo. Sound *within* one circuit application on one
    /// (append-only) arena: sums are matrix-independent, so their entries
    /// stay valid across instructions — until a rebuild replaces the arena
    /// (see [`StateDd::apply_circuit`](crate::StateDd::apply_circuit)), at
    /// which point the caller must [`ComputeCache::begin_op`].
    pub fn begin_instruction(&mut self) {
        self.rec.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tol() -> Tolerance {
        Tolerance::default()
    }

    fn c(re: f64) -> Complex {
        Complex::real(re)
    }

    #[test]
    fn interning_identical_nodes_shares_them() {
        let mut arena = DdArena::new(tol());
        let a = arena
            .intern(1, vec![Edge::new(c(1.0), NodeRef::Terminal), Edge::ZERO])
            .unwrap();
        let b = arena
            .intern(1, vec![Edge::new(c(1.0), NodeRef::Terminal), Edge::ZERO])
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn interning_within_tolerance_shares_nodes() {
        let mut arena = DdArena::new(tol());
        let a = arena
            .intern(0, vec![Edge::new(c(0.6), NodeRef::Terminal), Edge::ZERO])
            .unwrap();
        let b = arena
            .intern(
                0,
                vec![Edge::new(c(0.6 + 1e-12), NodeRef::Terminal), Edge::ZERO],
            )
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn all_zero_node_collapses_to_terminal() {
        let mut arena = DdArena::new(tol());
        let r = arena.intern(2, vec![Edge::ZERO; 3]).unwrap();
        assert!(r.is_terminal());
        assert!(arena.is_empty());
    }

    #[test]
    fn tiny_weights_become_zero_edges() {
        let mut arena = DdArena::new(tol());
        let r = arena
            .intern(
                0,
                vec![
                    Edge::new(c(1.0), NodeRef::Terminal),
                    Edge::new(c(1e-12), NodeRef::Terminal),
                ],
            )
            .unwrap();
        let id = r.id().unwrap();
        assert_eq!(arena.node(id).edges()[1], Edge::ZERO);
    }

    #[test]
    fn intern_normalized_pulls_norm_and_phase() {
        let mut arena = DdArena::new(tol());
        let up = arena
            .intern_normalized(
                0,
                vec![
                    Edge::new(Complex::real(-3.0), NodeRef::Terminal),
                    Edge::new(Complex::real(-4.0), NodeRef::Terminal),
                ],
            )
            .unwrap();
        assert!((up.weight.abs() - 5.0).abs() < 1e-12);
        let node = arena.node(up.target.id().unwrap());
        let s: f64 = node.edges().iter().map(|e| e.weight.norm_sqr()).sum();
        assert!((s - 1.0).abs() < 1e-12);
        // First nonzero weight has phase zero after the pull.
        assert!(node.edges()[0].weight.approx_eq(c(0.6), 1e-12));
    }

    #[test]
    fn intern_normalized_returns_zero_for_empty_mass() {
        let mut arena = DdArena::new(tol());
        let up = arena
            .intern_normalized(0, vec![Edge::ZERO, Edge::ZERO])
            .unwrap();
        assert_eq!(up, Edge::ZERO);
    }

    #[test]
    fn alloc_unshared_keeps_duplicates_distinct() {
        let mut arena = DdArena::new(tol());
        let edges = vec![Edge::new(c(1.0), NodeRef::Terminal), Edge::ZERO];
        let a = arena.alloc_unshared(0, edges.clone()).unwrap();
        let b = arena.alloc_unshared(0, edges).unwrap();
        assert_ne!(a, b);
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn node_limit_surfaces_overflow() {
        let mut arena = DdArena::with_node_limit(tol(), 2);
        for k in 0..2 {
            arena
                .intern(
                    0,
                    vec![Edge::new(c(0.1 + k as f64), NodeRef::Terminal), Edge::ZERO],
                )
                .unwrap();
        }
        let err = arena
            .intern(0, vec![Edge::new(c(9.0), NodeRef::Terminal), Edge::ZERO])
            .unwrap_err();
        assert_eq!(err, ArenaOverflow { limit: 2 });
        // Re-interning an existing node still works at the limit.
        let ok = arena
            .intern(0, vec![Edge::new(c(0.1), NodeRef::Terminal), Edge::ZERO])
            .unwrap();
        assert!(ok.id().is_some());
        assert_eq!(
            arena.alloc_unshared(0, vec![Edge::ZERO]).unwrap_err(),
            ArenaOverflow { limit: 2 }
        );
    }

    #[test]
    fn reset_empties_arena_but_keeps_configuration() {
        let mut arena = DdArena::with_node_limit(tol(), 100);
        arena
            .intern(0, vec![Edge::new(c(0.7), NodeRef::Terminal), Edge::ZERO])
            .unwrap();
        assert_eq!(arena.len(), 1);
        arena.reset();
        assert!(arena.is_empty());
        assert_eq!(arena.node_limit(), 100);
        assert_eq!(arena.tolerance(), tol());
        // Interning after a reset starts a fresh id space.
        let r = arena
            .intern(0, vec![Edge::new(c(0.3), NodeRef::Terminal), Edge::ZERO])
            .unwrap();
        assert_eq!(r.id().unwrap().index(), 0);
        // Weight-table counters survive the reset (cumulative telemetry).
        assert!(arena.weight_stats().lookups >= 2);
    }

    #[test]
    fn reset_for_reconfigures_tolerance_and_limit() {
        let mut arena = DdArena::new(tol());
        arena
            .intern(0, vec![Edge::new(c(0.7), NodeRef::Terminal), Edge::ZERO])
            .unwrap();
        arena.reset_for(Tolerance::new(1e-3), 5);
        assert!(arena.is_empty());
        assert_eq!(arena.tolerance(), Tolerance::new(1e-3));
        assert_eq!(arena.node_limit(), 5);
        // The new tolerance governs weight canonicalization.
        let a = arena
            .intern(0, vec![Edge::new(c(0.5), NodeRef::Terminal), Edge::ZERO])
            .unwrap();
        let b = arena
            .intern(
                0,
                vec![Edge::new(c(0.5 + 1e-5), NodeRef::Terminal), Edge::ZERO],
            )
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn compute_cache_clears_between_ops() {
        let mut cache = ComputeCache::new();
        cache.rec.insert((NodeId::new(0), 0), Edge::ZERO);
        cache.sum.insert(vec![], Edge::ZERO);
        cache.begin_op();
        assert!(cache.rec.is_empty());
        assert!(cache.sum.is_empty());
    }
}
