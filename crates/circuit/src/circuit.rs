//! The circuit container: validation, statistics, depth, rendering.

use std::fmt;

use mdq_num::radix::Dims;

use crate::gate::Gate;
use crate::instruction::Instruction;

/// Errors produced when pushing instructions into a [`Circuit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// The target qudit index is out of range.
    TargetOutOfRange {
        /// The offending index.
        qudit: usize,
        /// Number of qudits in the register.
        register: usize,
    },
    /// The gate addresses a level outside the target's dimension.
    LevelOutOfRange {
        /// The level addressed by the gate.
        level: usize,
        /// The target qudit's dimension.
        dim: usize,
    },
    /// An explicit unitary has a dimension different from the target's.
    GateDimMismatch {
        /// The unitary's dimension.
        gate_dim: usize,
        /// The target qudit's dimension.
        dim: usize,
    },
    /// A control refers to a qudit out of range.
    ControlOutOfRange {
        /// The offending control qudit index.
        qudit: usize,
        /// Number of qudits in the register.
        register: usize,
    },
    /// A control level exceeds the control qudit's dimension.
    ControlLevelOutOfRange {
        /// The offending control level.
        level: usize,
        /// The control qudit's dimension.
        dim: usize,
    },
    /// The target appears among the controls, or a control qudit repeats.
    OverlappingOperands,
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::TargetOutOfRange { qudit, register } => {
                write!(
                    f,
                    "target qudit {qudit} out of range for {register}-qudit register"
                )
            }
            CircuitError::LevelOutOfRange { level, dim } => {
                write!(f, "gate level {level} out of range for dimension {dim}")
            }
            CircuitError::GateDimMismatch { gate_dim, dim } => {
                write!(
                    f,
                    "unitary of dimension {gate_dim} applied to qudit of dimension {dim}"
                )
            }
            CircuitError::ControlOutOfRange { qudit, register } => {
                write!(
                    f,
                    "control qudit {qudit} out of range for {register}-qudit register"
                )
            }
            CircuitError::ControlLevelOutOfRange { level, dim } => {
                write!(f, "control level {level} out of range for dimension {dim}")
            }
            CircuitError::OverlappingOperands => {
                write!(f, "target and control qudits must be pairwise distinct")
            }
        }
    }
}

impl std::error::Error for CircuitError {}

/// Aggregate statistics of a circuit, mirroring the evaluation columns of
/// the paper's Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitStats {
    /// Total number of (multi-controlled) operations — "Operations".
    pub operations: usize,
    /// Median number of controls per operation — "#Controls".
    pub controls_median: f64,
    /// Mean number of controls per operation.
    pub controls_mean: f64,
    /// Maximum number of controls on any operation.
    pub controls_max: usize,
    /// Number of Givens rotations.
    pub givens_count: usize,
    /// Number of single-level phase rotations.
    pub phase_count: usize,
    /// Number of operations acting on at least two qudits (≥ 1 control).
    pub entangling_count: usize,
}

/// An ordered list of instructions over a mixed-dimensional register.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    dims: Dims,
    instructions: Vec<Instruction>,
}

impl Circuit {
    /// An empty circuit over the given register.
    #[must_use]
    pub fn new(dims: Dims) -> Self {
        Circuit {
            dims,
            instructions: Vec::new(),
        }
    }

    /// An empty circuit with room for `capacity` instructions: pushing
    /// that many never reallocates, and the finished circuit holds no
    /// spare capacity.
    #[must_use]
    pub fn with_capacity(dims: Dims, capacity: usize) -> Self {
        Circuit {
            dims,
            instructions: Vec::with_capacity(capacity),
        }
    }

    /// The register layout.
    #[must_use]
    pub fn dims(&self) -> &Dims {
        &self.dims
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the circuit contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The instructions in application order.
    #[must_use]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Iterates over the instructions in application order.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }

    /// Validates an instruction against the register without pushing it.
    ///
    /// # Errors
    ///
    /// Returns the specific [`CircuitError`] describing the first violated
    /// constraint.
    pub fn validate(&self, instruction: &Instruction) -> Result<(), CircuitError> {
        let n = self.dims.len();
        if instruction.qudit >= n {
            return Err(CircuitError::TargetOutOfRange {
                qudit: instruction.qudit,
                register: n,
            });
        }
        let dim = self.dims.dim(instruction.qudit);
        if let Some(level) = instruction.gate.max_level() {
            if let Gate::Unitary(_) = instruction.gate {
                // handled below via required_dim
            } else if level >= dim {
                return Err(CircuitError::LevelOutOfRange { level, dim });
            }
        }
        if let Some(gate_dim) = instruction.gate.required_dim() {
            if gate_dim != dim {
                return Err(CircuitError::GateDimMismatch { gate_dim, dim });
            }
        }
        // One bit per operand qudit, with no allocation: `Dims::new` admits
        // at most 63 qudits (each has dimension ≥ 2 and the space fits
        // `usize`), and every index here is already checked against `n`.
        let mut seen: u64 = 1 << instruction.qudit;
        let mut seen_before = |qudit: usize| {
            let bit = 1u64 << qudit;
            let repeated = seen & bit != 0;
            seen |= bit;
            repeated
        };
        for c in &instruction.controls {
            if c.qudit >= n {
                return Err(CircuitError::ControlOutOfRange {
                    qudit: c.qudit,
                    register: n,
                });
            }
            if seen_before(c.qudit) {
                return Err(CircuitError::OverlappingOperands);
            }
            let cdim = self.dims.dim(c.qudit);
            if c.level >= cdim {
                return Err(CircuitError::ControlLevelOutOfRange {
                    level: c.level,
                    dim: cdim,
                });
            }
        }
        Ok(())
    }

    /// Appends an instruction.
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] if the instruction does not fit the
    /// register (see [`Circuit::validate`]).
    pub fn push(&mut self, instruction: Instruction) -> Result<(), CircuitError> {
        self.validate(&instruction)?;
        self.instructions.push(instruction);
        Ok(())
    }

    /// Appends every instruction of `other` (which must be over the same
    /// register).
    ///
    /// # Errors
    ///
    /// Returns the first validation error.
    pub fn extend_from(&mut self, other: &Circuit) -> Result<(), CircuitError> {
        for instr in other.iter() {
            self.push(instr.clone())?;
        }
        Ok(())
    }

    /// The adjoint circuit: reversed instruction order, each gate inverted.
    ///
    /// Applying `c.adjoint()` after `c` is the identity; this is how the
    /// synthesizer turns a disentangling sequence into a preparation
    /// circuit.
    #[must_use]
    pub fn adjoint(&self) -> Circuit {
        Circuit {
            dims: self.dims.clone(),
            instructions: self
                .instructions
                .iter()
                .rev()
                .map(Instruction::adjoint)
                .collect(),
        }
    }

    /// Aggregate statistics (Table 1 columns). An empty circuit reports
    /// zeroed statistics.
    #[must_use]
    pub fn stats(&self) -> CircuitStats {
        let mut counts: Vec<usize> = self
            .instructions
            .iter()
            .map(Instruction::control_count)
            .collect();
        counts.sort_unstable();
        let operations = counts.len();
        let controls_median = if counts.is_empty() {
            0.0
        } else if operations % 2 == 1 {
            counts[operations / 2] as f64
        } else {
            (counts[operations / 2 - 1] + counts[operations / 2]) as f64 / 2.0
        };
        let controls_mean = if counts.is_empty() {
            0.0
        } else {
            counts.iter().sum::<usize>() as f64 / operations as f64
        };
        let controls_max = counts.last().copied().unwrap_or(0);
        let mut givens_count = 0;
        let mut phase_count = 0;
        let mut entangling_count = 0;
        for i in &self.instructions {
            match i.gate {
                Gate::Givens { .. } => givens_count += 1,
                Gate::PhaseLevel { .. } => phase_count += 1,
                _ => {}
            }
            if i.control_count() > 0 {
                entangling_count += 1;
            }
        }
        CircuitStats {
            operations,
            controls_median,
            controls_mean,
            controls_max,
            givens_count,
            phase_count,
            entangling_count,
        }
    }

    /// Circuit depth under greedy ASAP scheduling: an instruction occupies
    /// its target and all control qudits for one time step; instructions on
    /// disjoint qudit sets run in parallel.
    #[must_use]
    pub fn depth(&self) -> usize {
        let mut busy_until = vec![0usize; self.dims.len()];
        let mut depth = 0;
        for instr in &self.instructions {
            let start = instr.qudits().map(|q| busy_until[q]).max().unwrap_or(0);
            let finish = start + 1;
            for q in instr.qudits() {
                busy_until[q] = finish;
            }
            depth = depth.max(finish);
        }
        depth
    }

    /// A multi-line textual rendering, one instruction per line.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "circuit over {} ({} instructions)",
            self.dims,
            self.len()
        );
        for (i, instr) in self.instructions.iter().enumerate() {
            let _ = writeln!(out, "  {i:4}: {instr}");
        }
        out
    }

    /// Removes instructions whose gate is the identity within `tol`,
    /// returning how many were dropped.
    pub fn drop_identities(&mut self, tol: f64) -> usize {
        let before = self.instructions.len();
        self.instructions.retain(|i| !i.gate.is_identity(tol));
        before - self.instructions.len()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;
    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::Control;

    fn dims(v: &[usize]) -> Dims {
        Dims::new(v.to_vec()).unwrap()
    }

    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new(dims(&[3, 2]));
        c.push(Instruction::local(0, Gate::fourier())).unwrap();
        c.push(Instruction::controlled(
            1,
            Gate::givens(0, 1, 1.0, 0.0),
            vec![Control::new(0, 1)],
        ))
        .unwrap();
        c.push(Instruction::controlled(
            1,
            Gate::phase(1, 0.5),
            vec![Control::new(0, 2)],
        ))
        .unwrap();
        c
    }

    #[test]
    fn push_validates_target_range() {
        let mut c = Circuit::new(dims(&[2]));
        let err = c.push(Instruction::local(1, Gate::fourier()));
        assert_eq!(
            err.unwrap_err(),
            CircuitError::TargetOutOfRange {
                qudit: 1,
                register: 1
            }
        );
    }

    #[test]
    fn push_validates_gate_levels() {
        let mut c = Circuit::new(dims(&[2, 2]));
        let err = c.push(Instruction::local(0, Gate::givens(0, 2, 1.0, 0.0)));
        assert_eq!(
            err.unwrap_err(),
            CircuitError::LevelOutOfRange { level: 2, dim: 2 }
        );
    }

    /// A decoded rotation may carry `lo > hi`: the larger level is the one
    /// checked, so `Gate::matrix` never sees an out-of-range `lo`.
    #[test]
    fn push_validates_the_low_level_of_reversed_rotations() {
        let mut c = Circuit::new(dims(&[3]));
        for gate in [
            Gate::Givens {
                lo: 5,
                hi: 1,
                theta: 1.0,
                phi: 0.0,
            },
            Gate::ZRotation {
                lo: 5,
                hi: 1,
                theta: 1.0,
            },
        ] {
            assert_eq!(
                c.push(Instruction::local(0, gate)).unwrap_err(),
                CircuitError::LevelOutOfRange { level: 5, dim: 3 }
            );
        }
    }

    #[test]
    fn push_validates_unitary_dimension() {
        let mut c = Circuit::new(dims(&[3]));
        let u = Gate::Unitary(mdq_num::matrix::CMatrix::identity(2));
        let err = c.push(Instruction::local(0, u));
        assert_eq!(
            err.unwrap_err(),
            CircuitError::GateDimMismatch {
                gate_dim: 2,
                dim: 3
            }
        );
    }

    #[test]
    fn push_validates_control_levels_and_overlap() {
        let mut c = Circuit::new(dims(&[3, 2]));
        let err = c.push(Instruction::controlled(
            1,
            Gate::shift(1),
            vec![Control::new(0, 3)],
        ));
        assert_eq!(
            err.unwrap_err(),
            CircuitError::ControlLevelOutOfRange { level: 3, dim: 3 }
        );
        let err = c.push(Instruction::controlled(
            1,
            Gate::shift(1),
            vec![Control::new(1, 0)],
        ));
        assert_eq!(err.unwrap_err(), CircuitError::OverlappingOperands);
        let err = c.push(Instruction::controlled(
            1,
            Gate::shift(1),
            vec![Control::new(0, 0), Control::new(0, 1)],
        ));
        assert_eq!(err.unwrap_err(), CircuitError::OverlappingOperands);
    }

    #[test]
    fn stats_median_and_mean() {
        let c = sample_circuit();
        let s = c.stats();
        assert_eq!(s.operations, 3);
        assert_eq!(s.controls_median, 1.0);
        assert!((s.controls_mean - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.controls_max, 1);
        assert_eq!(s.givens_count, 1);
        assert_eq!(s.phase_count, 1);
        assert_eq!(s.entangling_count, 2);
    }

    #[test]
    fn stats_median_of_even_count() {
        let mut c = Circuit::new(dims(&[2, 2, 2]));
        c.push(Instruction::local(0, Gate::shift(1))).unwrap();
        c.push(Instruction::controlled(
            1,
            Gate::shift(1),
            vec![Control::new(0, 1), Control::new(2, 1)],
        ))
        .unwrap();
        assert_eq!(c.stats().controls_median, 1.0); // median of {0, 2}
    }

    #[test]
    fn empty_circuit_stats_are_zero() {
        let c = Circuit::new(dims(&[2]));
        let s = c.stats();
        assert_eq!(s.operations, 0);
        assert_eq!(s.controls_median, 0.0);
        assert_eq!(s.controls_max, 0);
    }

    #[test]
    fn adjoint_reverses_and_inverts() {
        let c = sample_circuit();
        let a = c.adjoint();
        assert_eq!(a.len(), c.len());
        assert_eq!(a.instructions()[0].gate, Gate::phase(1, -0.5));
        assert_eq!(a.instructions()[2].gate, Gate::fourier_inverse());
    }

    #[test]
    fn depth_parallelizes_disjoint_instructions() {
        let mut c = Circuit::new(dims(&[2, 2, 2, 2]));
        c.push(Instruction::local(0, Gate::shift(1))).unwrap();
        c.push(Instruction::local(1, Gate::shift(1))).unwrap();
        assert_eq!(c.depth(), 1);
        c.push(Instruction::controlled(
            1,
            Gate::shift(1),
            vec![Control::new(0, 1)],
        ))
        .unwrap();
        assert_eq!(c.depth(), 2);
        // Disjoint pair still fits in parallel with the controlled gate.
        c.push(Instruction::controlled(
            3,
            Gate::shift(1),
            vec![Control::new(2, 1)],
        ))
        .unwrap();
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn drop_identities_removes_null_rotations() {
        let mut c = Circuit::new(dims(&[2]));
        c.push(Instruction::local(0, Gate::givens(0, 1, 0.0, 0.3)))
            .unwrap();
        c.push(Instruction::local(0, Gate::givens(0, 1, 1.0, 0.3)))
            .unwrap();
        c.push(Instruction::local(0, Gate::phase(0, 0.0))).unwrap();
        assert_eq!(c.drop_identities(1e-12), 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn render_lists_instructions() {
        let c = sample_circuit();
        let r = c.render();
        assert!(r.contains("H on q0"));
        assert!(r.contains("ctrl[q0@1]"));
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = sample_circuit();
        let b = sample_circuit();
        a.extend_from(&b).unwrap();
        assert_eq!(a.len(), 6);
    }
}
