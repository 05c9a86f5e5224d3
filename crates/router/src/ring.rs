//! Consistent-hash ring over shard ids.
//!
//! The router keys every request by its cache fingerprint
//! ([`mdq_engine::fingerprint_of`]) and must send *equal fingerprints to
//! the same shard* — that is what makes each shard's prepared-circuit
//! cache accumulate its own stable slice of the key space. A plain
//! `fp % n_shards` would satisfy that until the first resize, when almost
//! every key would change shard and every cache would go cold at once.
//!
//! Consistent hashing (Karger et al.) keeps resizes incremental: each
//! shard is hashed to `replicas` pseudo-random *points* on a `u64` ring,
//! and a fingerprint routes to the shard owning the first point at or
//! after it (wrapping around). Adding a shard only claims the arcs
//! immediately before its own points — roughly `1/(n+1)` of the key
//! space, taken evenly from everyone — and removing one only releases its
//! own arcs to the next point's owners. Keys never move between two
//! *surviving* shards, so a resize costs exactly the moved fraction and
//! nothing else; `ring` unit tests pin both the exact-membership property
//! and the moved-fraction bound.

use mdq_num::hash::Fnv1a;

/// Salt separating ring point hashes from the fingerprint domain they
/// route (a fingerprint is itself an FNV-1a value; without a salt a shard
/// point could collide with "its own" keys more often than chance).
const POINT_SALT: u64 = 0x6d64_715f_7269_6e67; // "mdq_ring"

/// The ring position of one virtual point: FNV-1a ([`mdq_num::hash`], the
/// same stable hash as the engine's fingerprints) over the salt, the shard
/// and the replica index, so placement is reproducible across runs and
/// builds.
fn point(shard: usize, replica: usize) -> u64 {
    let mut hash = Fnv1a::new();
    for word in [POINT_SALT, shard as u64, replica as u64] {
        hash.write_u64(word);
    }
    hash.finish()
}

/// A consistent-hash ring mapping `u64` fingerprints to shard ids.
///
/// Deterministic: the same shard set and replica count always produce the
/// same placement, on every platform and across restarts — a router can
/// be rebuilt after a crash and route every fingerprint exactly as
/// before.
#[derive(Debug, Clone)]
pub struct HashRing {
    replicas: usize,
    /// `(point, shard)` sorted by point (then shard, for the vanishingly
    /// rare equal-point tie — the ordering must not depend on insertion
    /// order or rebuilds would not be deterministic).
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Default virtual nodes per shard: enough to keep the max/min key
    /// spread across shards within a small factor without making resizes
    /// expensive.
    pub const DEFAULT_REPLICAS: usize = 64;

    /// An empty ring placing `replicas` virtual points per shard.
    /// `replicas` is clamped to at least 1.
    #[must_use]
    pub fn new(replicas: usize) -> Self {
        HashRing {
            replicas: replicas.max(1),
            points: Vec::new(),
        }
    }

    /// Adds a shard's points. Returns `false` (ring unchanged) if the
    /// shard is already present.
    pub fn add(&mut self, shard: usize) -> bool {
        if self.contains(shard) {
            return false;
        }
        for replica in 0..self.replicas {
            self.points.push((point(shard, replica), shard));
        }
        self.points.sort_unstable();
        true
    }

    /// Removes a shard's points. Returns `false` if it was not present.
    pub fn remove(&mut self, shard: usize) -> bool {
        let before = self.points.len();
        self.points.retain(|&(_, s)| s != shard);
        before != self.points.len()
    }

    /// Whether the shard is on the ring.
    #[must_use]
    pub fn contains(&self, shard: usize) -> bool {
        self.points.iter().any(|&(_, s)| s == shard)
    }

    /// The shard owning this fingerprint: the first ring point at or
    /// after it, wrapping around. `None` only when the ring is empty.
    #[must_use]
    pub fn route(&self, fingerprint: u64) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let successor = self
            .points
            .partition_point(|&(point, _)| point < fingerprint);
        let (_, shard) = self.points[successor % self.points.len()];
        Some(shard)
    }

    /// The shard ids currently on the ring, ascending.
    #[must_use]
    pub fn shards(&self) -> Vec<usize> {
        let mut shards: Vec<usize> = self.points.iter().map(|&(_, s)| s).collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }

    /// Number of shards on the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards().len()
    }

    /// Whether the ring has no shards.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

impl Default for HashRing {
    fn default() -> Self {
        HashRing::new(Self::DEFAULT_REPLICAS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic spread of fingerprints covering the whole `u64`
    /// range (golden-ratio stride, no RNG needed).
    fn fingerprints(n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect()
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let ring = HashRing::default();
        assert!(ring.is_empty());
        assert_eq!(ring.len(), 0);
        assert_eq!(ring.route(42), None);
    }

    #[test]
    fn placement_is_deterministic_and_membership_exact() {
        let mut a = HashRing::default();
        let mut b = HashRing::default();
        // Different insertion orders, same shard set.
        for s in [0, 1, 2, 3] {
            assert!(a.add(s));
        }
        for s in [3, 1, 0, 2] {
            assert!(b.add(s));
        }
        assert!(!a.add(2), "duplicate add must be refused");
        assert_eq!(a.shards(), vec![0, 1, 2, 3]);
        assert_eq!(a.len(), 4);
        for fp in fingerprints(10_000) {
            assert_eq!(a.route(fp), b.route(fp));
        }
        assert!(a.contains(3));
        assert!(!a.contains(4));
    }

    #[test]
    fn join_moves_keys_only_to_the_joiner() {
        let mut ring = HashRing::default();
        for s in 0..4 {
            ring.add(s);
        }
        let fps = fingerprints(20_000);
        let before: Vec<usize> = fps.iter().map(|&fp| ring.route(fp).unwrap()).collect();
        ring.add(4);
        let mut moved = 0usize;
        for (&fp, &old) in fps.iter().zip(&before) {
            let new = ring.route(fp).unwrap();
            if new != old {
                assert_eq!(new, 4, "a moved key may only move to the joining shard");
                moved += 1;
            }
        }
        // Expected moved fraction is 1/5; allow a generous factor for
        // placement variance at 64 replicas.
        let fraction = moved as f64 / fps.len() as f64;
        assert!(
            fraction > 0.05 && fraction < 0.45,
            "moved fraction {fraction} far from 1/5"
        );
    }

    #[test]
    fn leave_moves_only_the_leavers_keys() {
        let mut ring = HashRing::default();
        for s in 0..5 {
            ring.add(s);
        }
        let fps = fingerprints(20_000);
        let before: Vec<usize> = fps.iter().map(|&fp| ring.route(fp).unwrap()).collect();
        assert!(ring.remove(2));
        assert!(!ring.remove(2), "double remove must be refused");
        for (&fp, &old) in fps.iter().zip(&before) {
            let new = ring.route(fp).unwrap();
            if old != 2 {
                assert_eq!(new, old, "keys on surviving shards must not move");
            } else {
                assert_ne!(new, 2);
            }
        }
    }

    #[test]
    fn leave_then_rejoin_restores_the_original_placement() {
        let mut ring = HashRing::default();
        for s in 0..4 {
            ring.add(s);
        }
        let fps = fingerprints(5_000);
        let before: Vec<usize> = fps.iter().map(|&fp| ring.route(fp).unwrap()).collect();
        ring.remove(1);
        ring.add(1);
        for (&fp, &old) in fps.iter().zip(&before) {
            assert_eq!(ring.route(fp).unwrap(), old);
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let mut ring = HashRing::new(1);
        ring.add(7);
        for fp in [0, 1, u64::MAX / 2, u64::MAX] {
            assert_eq!(ring.route(fp), Some(7));
        }
    }
}
