//! Numeric substrate for mixed-dimensional qudit systems.
//!
//! This crate provides the numeric foundations used by the decision-diagram
//! package ([`mdq-dd`]), the circuit IR ([`mdq-circuit`]), and the simulator
//! ([`mdq-sim`]):
//!
//! * [`Complex`] — a small, dependency-free complex-number type with the
//!   operations required for quantum amplitudes (arithmetic, polar form,
//!   tolerance comparison).
//! * [`Tolerance`] — the comparison threshold threaded through every
//!   approximate equality in the workspace.
//! * [`ComplexTable`] — a tolerance-bucketed canonical store of complex
//!   values; its size is the "DistinctC" metric of the paper's Table 1.
//!   Each decision-diagram arena owns exactly one plain table and
//!   canonicalizes every edge weight through it.
//! * [`hash`] — the stable 64-bit FNV-1a hash behind every persisted
//!   identity in the workspace (cache fingerprints, ring points), the
//!   word-at-a-time checksum of the transport envelope, and the fast Fx
//!   hasher behind the process-local decision-diagram tables.
//! * [`radix`] — mixed-radix index arithmetic for Hilbert spaces that are
//!   tensor products of different local dimensions, including the
//!   unreduced-tree edge-count formula behind the "Nodes" metric.
//!
//! # Examples
//!
//! ```
//! use mdq_num::{Complex, radix::Dims};
//!
//! let a = Complex::new(0.0, 1.0);
//! assert!((a * a).approx_eq(Complex::new(-1.0, 0.0), 1e-12));
//!
//! let dims = Dims::new(vec![3, 6, 2]).unwrap();
//! assert_eq!(dims.space_size(), 36);
//! assert_eq!(dims.full_tree_edge_count(), 58); // Table 1, "Nodes" (Exact)
//! ```
//!
//! [`mdq-dd`]: https://example.invalid/mdq
//! [`mdq-circuit`]: https://example.invalid/mdq
//! [`mdq-sim`]: https://example.invalid/mdq

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod complex;
mod table;
mod tolerance;

pub mod hash;
pub mod matrix;
pub mod radix;

pub use complex::Complex;
pub use table::{distinct_complex_count, CanonicalId, ComplexTable, ComplexTableStats};
pub use tolerance::Tolerance;

// Compile-time Send/Sync audit: these types cross worker-thread boundaries
// in the batch-preparation engine, and none of them may silently grow a
// non-thread-safe field (Rc, RefCell, raw pointer) without breaking here.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<Complex>();
    assert_send_sync::<Tolerance>();
    assert_send_sync::<ComplexTable>();
    assert_send_sync::<ComplexTableStats>();
    assert_send_sync::<radix::Dims>();
    assert_send_sync::<matrix::CMatrix>();
};

/// Euclidean norm of a slice of complex amplitudes.
///
/// # Examples
///
/// ```
/// use mdq_num::{norm, Complex};
/// let v = [Complex::new(3.0, 0.0), Complex::new(0.0, 4.0)];
/// assert!((norm(&v) - 5.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn norm(amplitudes: &[Complex]) -> f64 {
    amplitudes.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
}

/// Inner product `⟨a|b⟩ = Σ conj(a_i) · b_i` of two amplitude slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// use mdq_num::{inner_product, Complex};
/// let a = [Complex::ONE, Complex::ZERO];
/// let b = [Complex::ZERO, Complex::ONE];
/// assert_eq!(inner_product(&a, &b), Complex::ZERO);
/// ```
#[must_use]
pub fn inner_product(a: &[Complex], b: &[Complex]) -> Complex {
    assert_eq!(a.len(), b.len(), "inner product of unequal lengths");
    a.iter()
        .zip(b.iter())
        .fold(Complex::ZERO, |acc, (x, y)| acc + x.conj() * *y)
}

/// Fidelity `|⟨a|b⟩|²` between two *normalized* amplitude slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn fidelity(a: &[Complex], b: &[Complex]) -> f64 {
    inner_product(a, b).norm_sqr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_of_empty_slice_is_zero() {
        assert_eq!(norm(&[]), 0.0);
    }

    #[test]
    fn fidelity_of_identical_states_is_one() {
        let inv = 1.0 / 2.0_f64.sqrt();
        let v = [Complex::new(inv, 0.0), Complex::new(0.0, inv)];
        assert!((fidelity(&v, &v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fidelity_of_orthogonal_states_is_zero() {
        let a = [Complex::ONE, Complex::ZERO];
        let b = [Complex::ZERO, Complex::ONE];
        assert!(fidelity(&a, &b) < 1e-15);
    }

    #[test]
    fn inner_product_conjugates_left_argument() {
        let a = [Complex::new(0.0, 1.0)];
        let b = [Complex::ONE];
        assert!(inner_product(&a, &b).approx_eq(Complex::new(0.0, -1.0), 1e-15));
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn inner_product_panics_on_length_mismatch() {
        let _ = inner_product(&[Complex::ONE], &[]);
    }
}
