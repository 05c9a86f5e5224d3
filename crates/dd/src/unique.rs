//! The unique table: the hash-consing index of a [`DdArena`].
//!
//! Each arena owns exactly one [`UniqueTable`], a single [`FxHashMap`] from
//! structural signature to node. Every canonical node is registered here
//! under its signature — level plus the `(canonical weight id, successor)`
//! pair of every edge. Interning a node whose signature is already present
//! returns the existing node instead of allocating a new one, which is what
//! makes arena-built diagrams maximally shared *by construction* (the
//! paper's §4.3 reduction rule, applied eagerly the way mature DD packages
//! do it).
//!
//! Weight components of the signature are [`CanonicalId`]s from the arena's
//! tolerance-bucketed [`ComplexTable`](mdq_num::ComplexTable), so subtrees
//! that are equal only up to the diagram tolerance still collide on the same
//! signature and merge. That is also why the table owns each signature as
//! its key instead of hashing a node's stored edges: nodes keep their raw
//! weights, and two raw weights within tolerance share one id only through
//! the weight table.
//!
//! Probes allocate nothing. [`DdArena::intern`] writes each candidate's
//! signature into one reused scratch buffer and looks it up as a borrowed
//! slice (`Vec<T>: Borrow<[T]>`, and both hash alike); only a miss copies
//! the buffer into the table as the new node's key.
//!
//! [`DdArena`]: crate::DdArena
//! [`DdArena::intern`]: crate::DdArena::intern
//! [`CanonicalId`]: mdq_num::CanonicalId

use mdq_num::hash::FxHashMap;

use crate::node::{NodeId, NodeRef};

/// Structural signature of a canonical node: slot 0 holds
/// `(level, Terminal)`, then one slot per edge holds the canonical id of
/// the weight together with the successor reference.
///
/// Zero edges are represented as `(id of 0, Terminal)`, so two nodes that
/// differ only in how their zero branches were produced share a signature.
pub type NodeSignature = Vec<(u32, NodeRef)>;

/// Hash-consing index mapping [`NodeSignature`]s to interned [`NodeId`]s.
///
/// The table only stores signatures of *canonical* nodes; unshared tree
/// allocations (the `keep_zero_subtrees` Table-1 reproduction path) bypass
/// it entirely.
#[derive(Debug, Clone, Default)]
pub struct UniqueTable {
    map: FxHashMap<NodeSignature, NodeId>,
}

impl UniqueTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered signatures (equals the number of canonical nodes
    /// interned through this table).
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table holds no signatures.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every signature while retaining the map's allocated capacity —
    /// the [`DdArena::reset`](crate::DdArena::reset) recycling path.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Looks up the node interned under `signature`, if any. The signature
    /// is borrowed, so a probe needs no owned [`NodeSignature`].
    #[must_use]
    pub fn get(&self, signature: &[(u32, NodeRef)]) -> Option<NodeId> {
        self.map.get(signature).copied()
    }

    /// Registers `signature` for `id`. Returns the previously registered
    /// node if the signature was already present (the caller should then
    /// discard its candidate and reuse the existing node).
    pub fn insert(&mut self, signature: NodeSignature, id: NodeId) -> Option<NodeId> {
        self.map.insert(signature, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(level: u32, parts: &[(u32, NodeRef)]) -> NodeSignature {
        let mut signature = vec![(level, NodeRef::Terminal)];
        signature.extend_from_slice(parts);
        signature
    }

    #[test]
    fn empty_table_has_no_entries() {
        let t = UniqueTable::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.get(&sig(0, &[(0, NodeRef::Terminal)])), None);
    }

    #[test]
    fn insert_then_get_round_trips() {
        let mut t = UniqueTable::new();
        let s = sig(1, &[(3, NodeRef::Terminal), (0, NodeRef::Terminal)]);
        assert_eq!(t.insert(s.clone(), NodeId::new(7)), None);
        assert_eq!(t.get(&s), Some(NodeId::new(7)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn signatures_distinguish_level_and_edges() {
        let mut t = UniqueTable::new();
        t.insert(sig(0, &[(1, NodeRef::Terminal)]), NodeId::new(0));
        t.insert(sig(1, &[(1, NodeRef::Terminal)]), NodeId::new(1));
        t.insert(sig(0, &[(2, NodeRef::Terminal)]), NodeId::new(2));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn duplicate_insert_reports_existing_node() {
        let mut t = UniqueTable::new();
        let s = sig(2, &[(5, NodeRef::Node(NodeId::new(1)))]);
        t.insert(s.clone(), NodeId::new(4));
        assert_eq!(t.insert(s, NodeId::new(9)), Some(NodeId::new(4)));
    }
}
