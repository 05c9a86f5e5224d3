//! The unique table: the hash-consing index of a [`DdArena`].
//!
//! Each arena owns exactly one [`UniqueTable`], a single hash map from
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
//! signature and merge.
//!
//! [`DdArena`]: crate::DdArena
//! [`CanonicalId`]: mdq_num::CanonicalId

use std::collections::HashMap;

use crate::node::{NodeId, NodeRef};

/// Structural signature of a canonical node: its level and, per edge, the
/// canonical id of the weight together with the successor reference.
///
/// Zero edges are represented as `(id of 0, Terminal)`, so two nodes that
/// differ only in how their zero branches were produced share a signature.
pub type NodeSignature = (usize, Vec<(u32, NodeRef)>);

/// Hash-consing index mapping [`NodeSignature`]s to interned [`NodeId`]s.
///
/// The table only stores signatures of *canonical* nodes; unshared tree
/// allocations (the `keep_zero_subtrees` Table-1 reproduction path) bypass
/// it entirely.
#[derive(Debug, Clone, Default)]
pub struct UniqueTable {
    map: HashMap<NodeSignature, NodeId>,
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

    /// Looks up the node interned under `signature`, if any.
    #[must_use]
    pub fn get(&self, signature: &NodeSignature) -> Option<NodeId> {
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

    fn sig(level: usize, parts: &[(u32, NodeRef)]) -> NodeSignature {
        (level, parts.to_vec())
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
