//! Stable 64-bit FNV-1a hashing — the workspace's one persisted hash.
//!
//! Every hash value that outlives a process or crosses a socket is FNV-1a
//! 64 over little-endian bytes: the engine's cache fingerprint, the
//! router's consistent-hash ring points, and the transport envelope
//! checksum. `DefaultHasher`'s algorithm is explicitly unspecified across
//! Rust releases, so these values are computed here, byte by byte, and
//! may only change with a deliberate format-version bump.
//!
//! FNV-1a folds each byte with XOR and then multiplies by an odd (hence
//! invertible mod 2⁶⁴) prime, so two equal-length inputs that differ in
//! exactly one byte never share a hash.
//!
//! # Examples
//!
//! ```
//! use mdq_num::hash::{fnv1a, Fnv1a};
//!
//! assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
//!
//! let mut h = Fnv1a::new();
//! h.write(b"foo");
//! h.write(b"bar");
//! assert_eq!(h.finish(), fnv1a(b"foobar"));
//! ```

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

#[cfg(test)]
mod tests {
    use super::*;

    // Reference vectors are pinned in `tests/transport_proptest.rs`; the
    // module example covers streaming.
    #[test]
    fn write_u64_is_little_endian_bytes() {
        let mut words = Fnv1a::new();
        words.write_u64(0x0102_0304_0506_0708);
        assert_eq!(words.finish(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }
}
