//! The gate alphabet for mixed-dimensional qudit circuits.

use std::f64::consts::PI;
use std::fmt;

use mdq_num::matrix::CMatrix;
use mdq_num::Complex;

/// A single-qudit gate, parameterized by the local dimension of its target
/// at application time (gates are dimension-generic where possible).
///
/// The synthesis algorithm uses only [`Gate::Givens`] and
/// [`Gate::PhaseLevel`]; the remaining variants cover the textbook qudit
/// gates used in examples and benchmarks (Figure 1 of the paper uses the
/// qutrit Hadamard and controlled increments).
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    /// Two-level Givens rotation `R_{i,j}(θ, φ)` on levels `lo < hi`:
    ///
    /// `R = exp(−iθ/2 (cos φ · σx^{lo,hi} + sin φ · σy^{lo,hi}))`,
    ///
    /// i.e. the 2×2 block
    /// `[[cos θ/2, −i e^{−iφ} sin θ/2], [−i e^{iφ} sin θ/2, cos θ/2]]`
    /// embedded at rows/columns `(lo, hi)` of the identity. This is the
    /// native entangling-free primitive of trapped-ion qudit processors
    /// (Ringbauer et al., Nature Physics 2022) and the workhorse of the
    /// paper's synthesis.
    Givens {
        /// Lower level of the rotation subspace.
        lo: usize,
        /// Higher level of the rotation subspace.
        hi: usize,
        /// Rotation angle θ.
        theta: f64,
        /// Rotation phase φ.
        phi: f64,
    },
    /// Phase on a single level: `|level⟩ → e^{iα}|level⟩`.
    ///
    /// Note that a single-level phase has determinant `e^{iα}` and therefore
    /// cannot be written exactly as a product of (determinant-1) Givens
    /// rotations; the synthesizer instead emits [`Gate::ZRotation`], which
    /// can. `PhaseLevel` remains in the alphabet for hand-written circuits
    /// and for the local corrections of the transpiler.
    PhaseLevel {
        /// The level receiving the phase.
        level: usize,
        /// Phase angle α.
        angle: f64,
    },
    /// Two-level Z rotation `Z_{lo,hi}(θ) = diag(e^{iθ/2}, e^{−iθ/2})`
    /// embedded at levels `(lo, hi)` of the identity.
    ///
    /// This is the paper's final per-node "phase rotation applied on the
    /// level 0-1"; it is counted as **one** operation in Table 1 and
    /// decomposes exactly into two-level rotations via
    /// `Z(θ) = R(−π/2, 0)·R(θ, π/2)·R(π/2, 0)`
    /// (see [`crate::passes::decompose_phases`]).
    ZRotation {
        /// Lower level of the rotation subspace.
        lo: usize,
        /// Higher level of the rotation subspace.
        hi: usize,
        /// Rotation angle θ.
        theta: f64,
    },
    /// Cyclic shift `|k⟩ → |k + amount mod d⟩` (the qudit generalization of
    /// Pauli-X; the "+1"/"+2" boxes of the paper's Figure 1).
    Shift {
        /// Shift amount (may be negative; reduced modulo the dimension).
        amount: i64,
    },
    /// The generalized Hadamard (discrete Fourier transform)
    /// `H|j⟩ = 1/√d Σ_k ω^{jk}|k⟩` with `ω = e^{2πi/d}`, or its inverse.
    Fourier {
        /// Whether this is the inverse transform.
        inverse: bool,
    },
    /// An arbitrary single-qudit unitary of explicit dimension.
    Unitary(CMatrix),
}

impl Gate {
    /// A Givens rotation; see [`Gate::Givens`].
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[must_use]
    pub fn givens(lo: usize, hi: usize, theta: f64, phi: f64) -> Gate {
        assert!(
            lo < hi,
            "Givens rotation requires lo < hi, got {lo} >= {hi}"
        );
        Gate::Givens { lo, hi, theta, phi }
    }

    /// A single-level phase gate; see [`Gate::PhaseLevel`].
    #[must_use]
    pub fn phase(level: usize, angle: f64) -> Gate {
        Gate::PhaseLevel { level, angle }
    }

    /// A two-level Z rotation; see [`Gate::ZRotation`].
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[must_use]
    pub fn z_rotation(lo: usize, hi: usize, theta: f64) -> Gate {
        assert!(lo < hi, "Z rotation requires lo < hi, got {lo} >= {hi}");
        Gate::ZRotation { lo, hi, theta }
    }

    /// A cyclic shift gate; see [`Gate::Shift`].
    #[must_use]
    pub fn shift(amount: i64) -> Gate {
        Gate::Shift { amount }
    }

    /// The generalized Hadamard; see [`Gate::Fourier`].
    #[must_use]
    pub fn fourier() -> Gate {
        Gate::Fourier { inverse: false }
    }

    /// The inverse generalized Hadamard.
    #[must_use]
    pub fn fourier_inverse() -> Gate {
        Gate::Fourier { inverse: true }
    }

    /// The highest level index the gate touches, used for validation against
    /// the target dimension (`None` when every level is acceptable). For a
    /// rotation this is the larger of its two levels: a decoded gate need
    /// not keep `lo < hi`.
    #[must_use]
    pub fn max_level(&self) -> Option<usize> {
        match self {
            Gate::Givens { lo, hi, .. } | Gate::ZRotation { lo, hi, .. } => Some(*lo.max(hi)),
            Gate::PhaseLevel { level, .. } => Some(*level),
            Gate::Shift { .. } | Gate::Fourier { .. } => None,
            Gate::Unitary(m) => Some(m.dim().saturating_sub(1)),
        }
    }

    /// The exact dimension the gate requires, if any (only explicit
    /// unitaries are dimension-pinned).
    #[must_use]
    pub fn required_dim(&self) -> Option<usize> {
        match self {
            Gate::Unitary(m) => Some(m.dim()),
            _ => None,
        }
    }

    /// The 2×2 block of a Givens rotation `G(θ, φ)`, row-major over the
    /// levels `(lo, hi)`: `[[c, a₀₁], [a₁₀, c]]`. [`Gate::matrix`] embeds
    /// exactly these entries, so code that applies the rotation row by row
    /// reads the same numbers.
    #[must_use]
    pub fn givens_block(theta: f64, phi: f64) -> [[Complex; 2]; 2] {
        let c = Complex::real((theta / 2.0).cos());
        let s = (theta / 2.0).sin();
        let a01 = Complex::new(0.0, -1.0) * Complex::cis(-phi) * s;
        let a10 = Complex::new(0.0, -1.0) * Complex::cis(phi) * s;
        [[c, a01], [a10, c]]
    }

    /// The diagonal entries at `(lo, lo)` and `(hi, hi)` of a Z rotation
    /// `Z(θ)`, as [`Gate::matrix`] embeds them.
    #[must_use]
    pub fn z_rotation_diagonal(theta: f64) -> [Complex; 2] {
        [Complex::cis(theta / 2.0), Complex::cis(-theta / 2.0)]
    }

    /// The dense `d×d` matrix of the gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate's levels do not fit in `d`, or if an explicit
    /// unitary has a different dimension.
    #[must_use]
    pub fn matrix(&self, d: usize) -> CMatrix {
        match self {
            Gate::Givens { lo, hi, theta, phi } => {
                assert!(*hi < d, "Givens level {hi} out of range for dimension {d}");
                let mut m = CMatrix::identity(d);
                let [[c, a01], [a10, _]] = Gate::givens_block(*theta, *phi);
                m.set(*lo, *lo, c);
                m.set(*hi, *hi, c);
                m.set(*lo, *hi, a01);
                m.set(*hi, *lo, a10);
                m
            }
            Gate::PhaseLevel { level, angle } => {
                assert!(
                    *level < d,
                    "phase level {level} out of range for dimension {d}"
                );
                let mut m = CMatrix::identity(d);
                m.set(*level, *level, Complex::cis(*angle));
                m
            }
            Gate::ZRotation { lo, hi, theta } => {
                assert!(
                    *hi < d,
                    "Z-rotation level {hi} out of range for dimension {d}"
                );
                let mut m = CMatrix::identity(d);
                let [at_lo, at_hi] = Gate::z_rotation_diagonal(*theta);
                m.set(*lo, *lo, at_lo);
                m.set(*hi, *hi, at_hi);
                m
            }
            Gate::Shift { amount } => {
                let shift = amount.rem_euclid(d as i64) as usize;
                let mut m = CMatrix::zero(d);
                for k in 0..d {
                    m.set((k + shift) % d, k, Complex::ONE);
                }
                m
            }
            Gate::Fourier { inverse } => {
                let sign = if *inverse { -1.0 } else { 1.0 };
                let scale = 1.0 / (d as f64).sqrt();
                let mut m = CMatrix::zero(d);
                for j in 0..d {
                    for k in 0..d {
                        let angle = sign * 2.0 * PI * (j * k) as f64 / d as f64;
                        m.set(k, j, Complex::from_polar(scale, angle));
                    }
                }
                m
            }
            Gate::Unitary(m) => {
                assert_eq!(m.dim(), d, "unitary dimension mismatch");
                m.clone()
            }
        }
    }

    /// The adjoint (inverse) gate.
    #[must_use]
    pub fn adjoint(&self) -> Gate {
        match self {
            Gate::Givens { lo, hi, theta, phi } => Gate::Givens {
                lo: *lo,
                hi: *hi,
                theta: -theta,
                phi: *phi,
            },
            Gate::PhaseLevel { level, angle } => Gate::PhaseLevel {
                level: *level,
                angle: -angle,
            },
            Gate::ZRotation { lo, hi, theta } => Gate::ZRotation {
                lo: *lo,
                hi: *hi,
                theta: -theta,
            },
            Gate::Shift { amount } => Gate::Shift { amount: -amount },
            Gate::Fourier { inverse } => Gate::Fourier { inverse: !inverse },
            Gate::Unitary(m) => Gate::Unitary(m.adjoint()),
        }
    }

    /// Whether the gate is (numerically) the identity within `tol`.
    #[must_use]
    pub fn is_identity(&self, tol: f64) -> bool {
        match self {
            Gate::Givens { theta, .. } => {
                // R(θ,·) = I iff θ ≡ 0 (mod 4π); θ = 2π gives −I ≠ I.
                let t = theta.rem_euclid(4.0 * PI);
                t.abs() <= tol || (4.0 * PI - t).abs() <= tol
            }
            Gate::PhaseLevel { angle, .. } => {
                let a = angle.rem_euclid(2.0 * PI);
                a.abs() <= tol || (2.0 * PI - a).abs() <= tol
            }
            Gate::ZRotation { theta, .. } => {
                // Z(θ) = I iff θ ≡ 0 (mod 4π); θ = 2π is −I on the block.
                let t = theta.rem_euclid(4.0 * PI);
                t.abs() <= tol || (4.0 * PI - t).abs() <= tol
            }
            Gate::Shift { amount } => *amount == 0,
            Gate::Fourier { .. } => false,
            Gate::Unitary(m) => m.approx_eq(&CMatrix::identity(m.dim()), tol),
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::Givens { lo, hi, theta, phi } => {
                write!(f, "R[{lo},{hi}](θ={theta:.4}, φ={phi:.4})")
            }
            Gate::PhaseLevel { level, angle } => write!(f, "P[{level}](α={angle:.4})"),
            Gate::ZRotation { lo, hi, theta } => write!(f, "Z[{lo},{hi}](θ={theta:.4})"),
            Gate::Shift { amount } => write!(f, "X(+{amount})"),
            Gate::Fourier { inverse: false } => write!(f, "H"),
            Gate::Fourier { inverse: true } => write!(f, "H†"),
            Gate::Unitary(m) => write!(f, "U({}×{})", m.dim(), m.dim()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn givens_matrix_matches_definition() {
        // θ = π on levels (0,1) of a qutrit: block [[0, −ie^{−iφ}], [−ie^{iφ}, 0]].
        let phi = 0.4;
        let m = Gate::givens(0, 1, PI, phi).matrix(3);
        assert!(m.get(0, 0).is_zero(TOL));
        assert!(m
            .get(0, 1)
            .approx_eq(Complex::new(0.0, -1.0) * Complex::cis(-phi), TOL));
        assert!(m
            .get(1, 0)
            .approx_eq(Complex::new(0.0, -1.0) * Complex::cis(phi), TOL));
        assert!(m.get(2, 2).approx_eq(Complex::ONE, TOL));
    }

    #[test]
    fn givens_rotation_moves_amplitude_between_levels() {
        // R(π/2, −π/2) on (0,1) maps |0⟩ to (|0⟩ + |1⟩)/√2 up to phases.
        let m = Gate::givens(0, 1, PI / 2.0, 0.0).matrix(2);
        let v = m.mul_vec(&[Complex::ONE, Complex::ZERO]);
        assert!((v[0].abs() - 1.0 / 2.0_f64.sqrt()).abs() < TOL);
        assert!((v[1].abs() - 1.0 / 2.0_f64.sqrt()).abs() < TOL);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn givens_rejects_bad_levels() {
        let _ = Gate::givens(1, 1, 0.1, 0.0);
    }

    #[test]
    fn phase_matrix_is_diagonal() {
        let m = Gate::phase(2, 0.9).matrix(4);
        assert!(m.get(2, 2).approx_eq(Complex::cis(0.9), TOL));
        assert!(m.get(0, 0).approx_eq(Complex::ONE, TOL));
        assert!(m.get(1, 2).is_zero(TOL));
    }

    #[test]
    fn shift_matrix_permutes_levels() {
        let m = Gate::shift(1).matrix(3);
        let v = m.mul_vec(&[Complex::ONE, Complex::ZERO, Complex::ZERO]);
        assert!(v[1].approx_eq(Complex::ONE, TOL));
        // Wrap-around.
        let v = m.mul_vec(&[Complex::ZERO, Complex::ZERO, Complex::ONE]);
        assert!(v[0].approx_eq(Complex::ONE, TOL));
    }

    #[test]
    fn negative_shift_is_inverse() {
        let plus = Gate::shift(1).matrix(5);
        let minus = Gate::shift(-1).matrix(5);
        assert!((&plus * &minus).approx_eq(&CMatrix::identity(5), TOL));
    }

    #[test]
    fn fourier_creates_uniform_superposition_from_ground() {
        // The paper's Example 2: H|0⟩ on a qutrit = (|0⟩+|1⟩+|2⟩)/√3.
        let m = Gate::fourier().matrix(3);
        let v = m.mul_vec(&[Complex::ONE, Complex::ZERO, Complex::ZERO]);
        let a = Complex::real(1.0 / 3.0_f64.sqrt());
        for x in v {
            assert!(x.approx_eq(a, TOL));
        }
    }

    #[test]
    fn fourier_inverse_undoes_fourier() {
        for d in 2..=6 {
            let f = Gate::fourier().matrix(d);
            let fi = Gate::fourier_inverse().matrix(d);
            assert!((&fi * &f).approx_eq(&CMatrix::identity(d), 1e-10), "d={d}");
        }
    }

    #[test]
    fn adjoint_inverts_every_gate_kind() {
        let gates = [
            Gate::givens(0, 2, 1.1, -0.7),
            Gate::phase(1, 2.2),
            Gate::shift(2),
            Gate::fourier(),
            Gate::Unitary(Gate::givens(0, 1, 0.3, 0.1).matrix(3)),
        ];
        for g in gates {
            let d = 3;
            let m = g.matrix(d);
            let ma = g.adjoint().matrix(d);
            assert!(
                (&ma * &m).approx_eq(&CMatrix::identity(d), 1e-10),
                "gate {g}"
            );
        }
    }

    #[test]
    fn identity_detection() {
        assert!(Gate::givens(0, 1, 0.0, 0.3).is_identity(1e-12));
        assert!(!Gate::givens(0, 1, 2.0 * PI, 0.0).is_identity(1e-12)); // = −I on the block
        assert!(Gate::givens(0, 1, 4.0 * PI, 0.0).is_identity(1e-9));
        assert!(Gate::phase(0, 0.0).is_identity(1e-12));
        assert!(Gate::phase(0, 2.0 * PI).is_identity(1e-9));
        assert!(Gate::shift(0).is_identity(1e-12));
        assert!(!Gate::fourier().is_identity(1e-12));
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(Gate::shift(2).to_string(), "X(+2)");
        assert!(Gate::givens(1, 2, 0.5, 0.0).to_string().contains("R[1,2]"));
    }

    proptest! {
        #[test]
        fn prop_all_gates_are_unitary(
            theta in -10.0..10.0f64,
            phi in -10.0..10.0f64,
            angle in -10.0..10.0f64,
            amount in -10i64..10,
            d in 2usize..7,
        ) {
            let lo = 0;
            let hi = d - 1;
            prop_assert!(Gate::givens(lo, hi, theta, phi).matrix(d).is_unitary(1e-9));
            prop_assert!(Gate::phase(d - 1, angle).matrix(d).is_unitary(1e-9));
            prop_assert!(Gate::shift(amount).matrix(d).is_unitary(1e-9));
            prop_assert!(Gate::fourier().matrix(d).is_unitary(1e-9));
        }

        #[test]
        fn prop_givens_composition_adds_angles(
            t1 in -3.0..3.0f64,
            t2 in -3.0..3.0f64,
            phi in -3.0..3.0f64,
        ) {
            // Same-axis rotations compose additively: R(t1,φ)·R(t2,φ) = R(t1+t2,φ).
            let a = Gate::givens(0, 1, t1, phi).matrix(2);
            let b = Gate::givens(0, 1, t2, phi).matrix(2);
            let c = Gate::givens(0, 1, t1 + t2, phi).matrix(2);
            prop_assert!((&a * &b).approx_eq(&c, 1e-9));
        }
    }
}
