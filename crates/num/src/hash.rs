//! The workspace's three hashes: stable FNV-1a for identities that must
//! not move across releases, a word-at-a-time checksum for bytes in
//! flight, and fast Fx for process-local hash maps.
//!
//! # The rule
//!
//! * **FNV-1a** ([`Fnv1a`], [`fnv1a`]) is the persisted identity hash:
//!   the engine's cache fingerprint, the router's consistent-hash ring
//!   points and the Table-1 test seeds are FNV-1a 64 over little-endian
//!   bytes. `DefaultHasher`'s algorithm is explicitly unspecified across
//!   Rust releases, so these values are computed here, byte by byte, and
//!   may only change with a deliberate format-version bump.
//! * **The checksum** ([`checksum`]) guards bytes in flight: the
//!   transport envelope around every frame. Its values are sent but never
//!   stored, and the envelope tag names the algorithm, so a change of
//!   checksum is a change of tag.
//! * **Fx** ([`FxHasher`], [`FxHashMap`], [`FxHashSet`]) is for
//!   process-local maps only — the decision-diagram unique, weight and
//!   compute tables. Its values are never persisted, never sent, and never
//!   used to order output: nothing observable may depend on an Fx map's
//!   iteration order.
//!
//! None of the three is collision-resistant. Like the FNV cache
//! fingerprint, an Fx table keyed on attacker-chosen data can be driven
//! into long probe sequences; a hostile payload's worst case is bounded
//! by the per-job node limit, which caps how many keys one job can insert.
//!
//! FNV-1a folds each byte with XOR and then multiplies by an odd (hence
//! invertible mod 2⁶⁴) prime, so two equal-length inputs that differ in
//! exactly one byte never share a hash.
//!
//! The checksum keeps that guarantee a word at a time, at about an eighth
//! of FNV-1a's cost per byte. It reads little-endian `u64` words into
//! four independent lanes over 32-byte stripes, and folds each word `w`
//! into its lane as `lane = fmix64(lane ^ w)`, where `fmix64` is
//! MurmurHash3's 64-bit finalizer, a bijection. The lanes, the length and
//! the zero-padded tail words then fold the same way into one state. For
//! a fixed word every step is a bijection of the state, and for a fixed
//! state it is injective in the word, so two equal-length inputs that
//! differ in one byte, or in one 8-byte word, never share a checksum.
//! Every step mixes all 64 bits, so low-weight multi-bit errors do not
//! cancel either: the tests sweep every pair of bit flips in a 96-byte
//! input.
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
//! use mdq_num::hash::{checksum, fnv1a, Fnv1a, FxHashMap};
//!
//! assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
//!
//! let mut h = Fnv1a::new();
//! h.write(b"foo");
//! h.write(b"bar");
//! assert_eq!(h.finish(), fnv1a(b"foobar"));
//!
//! assert_eq!(checksum(b"foobar"), 0x6895_a90b_e259_5072);
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

/// Seeds of the checksum's four stripe lanes. Any four distinct values
/// keep the one-word guarantee; distinct seeds keep equal stripes in
/// different lanes from hashing alike.
const LANE_SEEDS: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xc2b2_ae3d_27d4_eb4f,
];

/// MurmurHash3's 64-bit finalizer: a bijection of `u64` whose every
/// output bit depends on every input bit. Each xorshift and each odd
/// multiply is invertible, hence so is their composition.
#[inline]
const fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// Up to eight bytes as a little-endian word, zero-padded.
#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// The envelope checksum of `bytes`: four `fmix64` lanes over 32-byte
/// stripes, then the length, the lanes and the zero-padded tail words
/// folded into one state. See the [module documentation](self) for why
/// a one-byte or one-word difference always changes it.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = fmix64(*lane ^ le_word(word));
        }
    }
    let mut h = fmix64(bytes.len() as u64);
    for lane in lanes {
        h = fmix64(h ^ lane);
    }
    for word in stripes.remainder().chunks(8) {
        h = fmix64(h ^ le_word(word));
    }
    h
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
            self.add(le_word(chunk));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            self.add(le_word(tail));
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

    #[test]
    fn fnv1a_matches_its_reference_vectors() {
        // The empty input hashes to the offset basis; the others exercise
        // the multiplier. The module example covers streaming.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn write_u64_is_little_endian_bytes() {
        let mut words = Fnv1a::new();
        words.write_u64(0x0102_0304_0506_0708);
        assert_eq!(words.finish(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }

    /// A deterministic payload whose bytes all differ from their
    /// neighbours, so no sweep runs over a constant word.
    fn payload(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(167).wrapping_add(13))
            .collect()
    }

    /// Asserts that XOR-ing any of the 255 non-zero masks into byte `at`
    /// of `base` changes its checksum.
    fn assert_every_mask_changes_the_checksum(base: &[u8], at: usize) {
        let reference = checksum(base);
        let mut bad = base.to_vec();
        for xor in 1u8..=255 {
            bad[at] = base[at] ^ xor;
            assert_ne!(
                checksum(&bad),
                reference,
                "mask {xor:#04x} at byte {at} of {} collides",
                base.len()
            );
        }
    }

    #[test]
    fn every_single_byte_change_changes_the_checksum() {
        // Lengths 1..=96 put the changed byte in every lane of up to three
        // stripes and in every position of a full or partial tail word.
        for len in 1..=96 {
            let base = payload(len);
            for at in 0..len {
                assert_every_mask_changes_the_checksum(&base, at);
            }
        }
        // A long payload, at a stride coprime to the word size, so every
        // lane and byte position is hit across 32 stripes and a 7-byte tail.
        let base = payload(1031);
        for at in (0..base.len()).step_by(13).chain([base.len() - 1]) {
            assert_every_mask_changes_the_checksum(&base, at);
        }
    }

    #[test]
    fn every_pair_of_bit_flips_changes_the_checksum() {
        // A fold without full mixing lets two low-weight errors cancel:
        // word-wise FNV-1a maps a top-bit flip to a top-bit flip, so the
        // top bits of two adjacent words collide. All 294 528 pairs of a
        // three-stripe payload.
        let base = payload(96);
        let reference = checksum(&base);
        let bits = base.len() * 8;
        let mut bad = base.clone();
        for first in 0..bits {
            bad[first / 8] ^= 1 << (first % 8);
            for second in first + 1..bits {
                bad[second / 8] ^= 1 << (second % 8);
                assert_ne!(
                    checksum(&bad),
                    reference,
                    "bits {first} and {second} collide"
                );
                bad[second / 8] ^= 1 << (second % 8);
            }
            bad[first / 8] ^= 1 << (first % 8);
        }
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
