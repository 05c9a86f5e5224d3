//! The workspace's two hashes: stable FNV-1a for anything that leaves the
//! process, fast Fx for process-local hash maps.
//!
//! # The rule
//!
//! * **FNV-1a** ([`Fnv1a`], [`fnv1a`]) is the one persisted hash. Every
//!   hash value that outlives a process or crosses a socket is FNV-1a 64
//!   over little-endian bytes: the engine's cache fingerprint, the
//!   router's consistent-hash ring points, and the transport envelope
//!   checksum. `DefaultHasher`'s algorithm is explicitly unspecified across
//!   Rust releases, so these values are computed here, byte by byte, and
//!   may only change with a deliberate format-version bump.
//! * **Fx** ([`FxHasher`], [`FxHashMap`], [`FxHashSet`]) is for
//!   process-local maps only — the decision-diagram unique, weight and
//!   compute tables. Its values are never persisted, never sent, and never
//!   used to order output: nothing observable may depend on an Fx map's
//!   iteration order.
//!
//! Neither hash is collision-resistant. Like the FNV cache fingerprint, an
//! Fx table keyed on attacker-chosen data can be driven into long probe
//! sequences; a hostile payload's worst case is bounded by the per-job
//! node limit, which caps how many keys one job can insert.
//!
//! FNV-1a folds each byte with XOR and then multiplies by an odd (hence
//! invertible mod 2⁶⁴) prime, so two equal-length inputs that differ in
//! exactly one byte never share a hash.
//!
//! Fx (the rustc-hash 2 design) folds one machine word at a time with an
//! add and a multiply by an odd constant, and rotates the result on
//! [`finish`](std::hash::Hasher::finish): a multiplicative hash keeps its
//! entropy in the high bits, while std's `HashMap` picks buckets from the
//! low bits. Small integer keys — node ids, canonical weight ids, grid
//! cells — hash in a few cycles instead of SipHash's full rounds.
//!
//! # Examples
//!
//! ```
//! use mdq_num::hash::{fnv1a, Fnv1a, FxHashMap};
//!
//! assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
//!
//! let mut h = Fnv1a::new();
//! h.write(b"foo");
//! h.write(b"bar");
//! assert_eq!(h.finish(), fnv1a(b"foobar"));
//!
//! let mut ids: FxHashMap<(u32, u32), usize> = FxHashMap::default();
//! ids.insert((3, 4), 7);
//! assert_eq!(ids.get(&(3, 4)), Some(&7));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a 64-bit offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming byte-wise 64-bit FNV-1a hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the offset basis (the hash of the empty input).
    #[must_use]
    pub const fn new() -> Self {
        Fnv1a(OFFSET_BASIS)
    }

    /// Folds `bytes` into the hash, one byte at a time.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Folds the eight little-endian bytes of `value` into the hash.
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// The hash of everything written so far.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a 64 of one byte slice.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv1a::new();
    hasher.write(bytes);
    hasher.finish()
}

/// Fx multiplier: an odd 64-bit constant with well-spread bits.
const FX_K: u64 = 0xf135_7aea_2e62_a9c5;
/// Final left rotation moving the product's high-entropy top bits down to
/// where the table's bucket index is taken.
const FX_ROTATE: u32 = 26;

/// A fast, word-at-a-time, non-cryptographic hasher for process-local maps.
///
/// Each written word `w` updates the state as `h = (h + w) · K`;
/// [`finish`](Hasher::finish) returns the state rotated left by 26 bits.
/// See the [module documentation](self) for when to use it.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(FX_K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(FX_ROTATE)
    }
}

/// Builds [`FxHasher`]s for std's hash collections.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A std `HashMap` hashed with [`FxHasher`]; create with `default()`.
#[allow(clippy::disallowed_types)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A std `HashSet` hashed with [`FxHasher`]; create with `default()`.
#[allow(clippy::disallowed_types)]
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hash};

    use super::*;

    // Reference vectors are pinned in `tests/transport_proptest.rs`; the
    // module example covers streaming.
    #[test]
    fn write_u64_is_little_endian_bytes() {
        let mut words = Fnv1a::new();
        words.write_u64(0x0102_0304_0506_0708);
        assert_eq!(words.finish(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }

    fn fx<T: Hash + ?Sized>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn fx_is_multiply_then_rotate() {
        let want = 7_u64.wrapping_mul(FX_K).rotate_left(FX_ROTATE);
        assert_eq!(fx(&7_u64), want);
        assert_eq!(fx(&7_u32), want);
        assert_eq!(fx(&7_usize), want);
        // Byte writes fold whole little-endian words, zero-padding the tail.
        let mut bytes = FxHasher::default();
        bytes.write(&[7, 0, 0]);
        assert_eq!(bytes.finish(), want);
    }

    #[test]
    fn fx_low_bits_vary_across_small_keys() {
        // Bucket indices come from the low bits; without the final rotate
        // every multiple of 2⁶ would land in one of a few buckets.
        let low: FxHashSet<u64> = (0..64_u64).map(|k| fx(&(k << 6)) & 0x3f).collect();
        assert!(
            low.len() > 32,
            "only {} distinct low-bit patterns",
            low.len()
        );
    }

    #[test]
    fn fx_slices_hash_like_vecs() {
        let parts = [(1_u32, 2_u64), (3, 4)];
        assert_eq!(fx(&parts[..]), fx(&parts.to_vec()));
        assert_ne!(fx(&parts[..1]), fx(&parts[..]));
    }
}
