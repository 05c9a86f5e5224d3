//! The three-step preparation pipeline of the paper's Figure 2:
//! state → decision diagram → (approximation) → circuit.
//!
//! The pipeline comes in two shapes:
//!
//! * the free functions [`prepare`], [`prepare_sparse`] and
//!   [`prepare_from_dd`] — one-shot entry points allocating fresh scratch
//!   state per call;
//! * the [`Preparer`] — a reusable pipeline object owning per-worker
//!   scratch (a resettable [`DdArena`] and a [`ComputeCache`]) that is
//!   recycled across jobs, the building block of the `mdq-engine` batch
//!   engine. The free functions are thin wrappers over a throwaway
//!   `Preparer`, so both shapes produce bit-identical circuits.

use std::fmt;
use std::time::{Duration, Instant};

use mdq_circuit::Circuit;
use mdq_dd::{ApplyError, ApproxError, BuildError, BuildOptions, ComputeCache, DdArena, StateDd};
use mdq_num::radix::Dims;
use mdq_num::{Complex, ComplexTableStats, Tolerance};

use crate::synth::{synthesize, SynthesisOptions};

/// Errors produced by [`prepare`].
#[derive(Debug, Clone, PartialEq)]
pub enum PrepareError {
    /// Building the decision diagram failed.
    Build(BuildError),
    /// The approximation step failed.
    Approx(ApproxError),
    /// The fidelity threshold was not in `(0, 1]`.
    InvalidThreshold(f64),
    /// The verification policy's minimum fidelity was not in `(0, 1]`.
    InvalidVerification(f64),
    /// Replaying a synthesized circuit for verification failed.
    Replay(ApplyError),
}

impl fmt::Display for PrepareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrepareError::Build(e) => write!(f, "building the decision diagram failed: {e}"),
            PrepareError::Approx(e) => write!(f, "approximation failed: {e}"),
            PrepareError::InvalidThreshold(t) => {
                write!(f, "fidelity threshold must be in (0, 1], got {t}")
            }
            PrepareError::InvalidVerification(t) => {
                write!(f, "verification fidelity must be in (0, 1], got {t}")
            }
            PrepareError::Replay(e) => write!(f, "verification replay failed: {e}"),
        }
    }
}

impl std::error::Error for PrepareError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PrepareError::Build(e) => Some(e),
            PrepareError::Approx(e) => Some(e),
            PrepareError::Replay(e) => Some(e),
            PrepareError::InvalidThreshold(_) | PrepareError::InvalidVerification(_) => None,
        }
    }
}

impl From<BuildError> for PrepareError {
    fn from(e: BuildError) -> Self {
        PrepareError::Build(e)
    }
}

impl From<ApproxError> for PrepareError {
    fn from(e: ApproxError) -> Self {
        PrepareError::Approx(e)
    }
}

/// Serving-time verification policy: whether a synthesized circuit must be
/// replayed by decision-diagram simulation ([`Preparer::replay`]) and
/// checked against the requested target before it is handed to the caller.
///
/// The pipeline itself never acts on this — [`prepare`] produces the same
/// circuit either way — but serving layers (the `mdq-engine` service) read
/// it to decide whether to run the replay check, and the cache layer uses
/// it to keep verified and unverified servings apart. The measured fidelity
/// is against the *original* target state, so for approximated synthesis it
/// reflects the approximation error too: a job prepared with
/// [`PrepareOptions::approximated`]`(0.98)` verifies at roughly the reached
/// fidelity (≈0.99 in the paper's Table 1), not at 1.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum VerificationPolicy {
    /// Serve circuits as synthesized, without replaying them (the default).
    #[default]
    Off,
    /// Replay the circuit on the ground-state diagram and require at least
    /// this fidelity against the requested target state. Serving compares
    /// the measured fidelity against `min(min_fidelity, 1 − tolerance)`,
    /// with the request's own [`PrepareOptions::tolerance`]: exact circuits
    /// replay a rounding error below 1, so a floor of 1 means "exact up to
    /// the tolerance".
    Replay {
        /// Minimum acceptable fidelity, in `(0, 1]`.
        min_fidelity: f64,
    },
}

impl VerificationPolicy {
    /// Replay verification at the given minimum fidelity.
    #[must_use]
    pub fn replay(min_fidelity: f64) -> Self {
        VerificationPolicy::Replay { min_fidelity }
    }

    /// The minimum fidelity demanded, or `None` when verification is off.
    #[must_use]
    pub fn min_fidelity(&self) -> Option<f64> {
        match self {
            VerificationPolicy::Off => None,
            VerificationPolicy::Replay { min_fidelity } => Some(*min_fidelity),
        }
    }

    /// Whether any verification is demanded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !matches!(self, VerificationPolicy::Off)
    }
}

/// The outcome of one replay verification ([`Preparer::verify_dense`] /
/// [`Preparer::verify_sparse`]): what was measured, how big the replayed
/// diagram was, and how long the check took.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationReport {
    /// Fidelity between the state the circuit actually prepares (by DD
    /// replay from `|0…0⟩`) and the requested target state.
    pub fidelity: f64,
    /// Node count of the replayed diagram — the size of the verification
    /// witness.
    pub replay_nodes: usize,
    /// Wall-clock time of the replay + fidelity computation.
    pub duration: Duration,
}

/// Options for the [`prepare`] pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrepareOptions {
    /// Target state fidelity. `None` synthesizes exactly (Table 1 "Exact");
    /// `Some(0.98)` reproduces the "Approximated 98 %" columns.
    pub fidelity_threshold: Option<f64>,
    /// Numerical tolerance for zero tests and weight canonicalization.
    pub tolerance: Tolerance,
    /// Synthesis options (product rule, identity skipping, direction).
    pub synthesis: SynthesisOptions,
    /// Reduce the diagram (share identical subtrees) before synthesis; this
    /// is what allows the tensor-product control elision to fire.
    pub reduce: bool,
    /// Build the initial diagram as the paper's unreduced tree including
    /// zero branches, so that the reported initial "Nodes" metric matches
    /// the Exact column of Table 1 (e.g. 58 for `[3,6,2]` regardless of the
    /// state). Synthesis itself never descends zero branches, so this only
    /// affects metrics and memory, not the circuit.
    pub keep_zero_subtrees: bool,
    /// Serving-time verification demanded for this preparation. The
    /// pipeline ignores it (circuits are identical either way); serving
    /// layers replay-check the circuit when it is enabled.
    pub verification: VerificationPolicy,
}

impl PrepareOptions {
    /// Exact synthesis with paper-faithful metrics.
    #[must_use]
    pub fn exact() -> Self {
        PrepareOptions {
            fidelity_threshold: None,
            tolerance: Tolerance::default(),
            synthesis: SynthesisOptions::paper(),
            reduce: false,
            keep_zero_subtrees: true,
            verification: VerificationPolicy::Off,
        }
    }

    /// Approximated synthesis targeting the given fidelity (the paper's
    /// evaluation uses 0.98).
    #[must_use]
    pub fn approximated(fidelity_threshold: f64) -> Self {
        PrepareOptions {
            fidelity_threshold: Some(fidelity_threshold),
            ..PrepareOptions::exact()
        }
    }

    /// Enables diagram reduction (subtree sharing + tensor-product control
    /// elision) before synthesis.
    #[must_use]
    pub fn with_reduction(mut self) -> Self {
        self.reduce = true;
        self
    }

    /// Overrides the synthesis options.
    #[must_use]
    pub fn with_synthesis(mut self, synthesis: SynthesisOptions) -> Self {
        self.synthesis = synthesis;
        self
    }

    /// Disables the zero-branch tree (smaller memory, identical circuits;
    /// the initial "Nodes" metric then reports the zero-pruned tree).
    #[must_use]
    pub fn without_zero_subtrees(mut self) -> Self {
        self.keep_zero_subtrees = false;
        self
    }

    /// Demands serving-time verification under the given policy (builder
    /// style). The synthesized circuit is unchanged; serving layers replay
    /// it and fail the job below the policy's fidelity floor.
    #[must_use]
    pub fn with_verification(mut self, verification: VerificationPolicy) -> Self {
        self.verification = verification;
        self
    }

    /// Validates the thresholds of these options exactly as the pipeline
    /// itself will: the fidelity threshold and any demanded verification
    /// floor must lie in `(0, 1]`. Exposed so admission layers (the
    /// engine's submit path) can reject invalid options *before* queueing
    /// a job, with the identical error the worker would have produced.
    /// A verification floor above `1 − tolerance` is valid and is held to
    /// `1 − tolerance` when served (see [`VerificationPolicy::Replay`]).
    ///
    /// # Errors
    ///
    /// [`PrepareError::InvalidThreshold`] /
    /// [`PrepareError::InvalidVerification`], as [`prepare`] returns them.
    pub fn validate(&self) -> Result<(), PrepareError> {
        if let Some(t) = self.fidelity_threshold {
            if !(t > 0.0 && t <= 1.0) {
                return Err(PrepareError::InvalidThreshold(t));
            }
        }
        if let Some(t) = self.verification.min_fidelity() {
            if !(t > 0.0 && t <= 1.0) {
                return Err(PrepareError::InvalidVerification(t));
            }
        }
        Ok(())
    }
}

impl Default for PrepareOptions {
    fn default() -> Self {
        PrepareOptions::exact()
    }
}

/// The metrics of one pipeline run — the columns of the paper's Table 1.
#[derive(Debug, Clone)]
pub struct SynthesisReport {
    /// Edge count of the initial diagram ("Nodes", Exact column when
    /// `keep_zero_subtrees` is on).
    pub nodes_initial: usize,
    /// Edge count of the diagram actually synthesized ("Nodes",
    /// Approximated column).
    pub nodes_final: usize,
    /// Distinct complex weights of the initial diagram ("DistinctC").
    pub distinct_c_initial: usize,
    /// Distinct complex weights of the synthesized diagram.
    pub distinct_c_final: usize,
    /// Number of multi-controlled operations ("Operations").
    pub operations: usize,
    /// Median controls per operation ("#Controls").
    pub controls_median: f64,
    /// Mean controls per operation.
    pub controls_mean: f64,
    /// Maximum controls on any operation.
    pub controls_max: usize,
    /// Nodes removed by the approximation step.
    pub removed_nodes: usize,
    /// Probability mass pruned by the approximation step.
    pub pruned_mass: f64,
    /// Guaranteed lower bound on the prepared fidelity ("Fidelity"):
    /// 1 − pruned mass (exactly 1 for exact synthesis).
    pub fidelity_bound: f64,
    /// Wall-clock time of approximation + synthesis ("Time"), excluding the
    /// initial diagram construction (matching the paper's "elapsed time
    /// during the approximation and synthesis process").
    pub time: Duration,
    /// Wall-clock time including diagram construction.
    pub total_time: Duration,
}

/// Result of the [`prepare`] pipeline.
#[derive(Debug, Clone)]
pub struct PreparationResult {
    /// The synthesized preparation circuit (`C|0…0⟩ = |ψ⟩` up to the global
    /// phase of the diagram root weight).
    pub circuit: Circuit,
    /// The diagram that was synthesized (after approximation/reduction).
    pub dd: StateDd,
    /// The Table 1 metrics of this run.
    pub report: SynthesisReport,
}

/// Runs the full pipeline of the paper's Figure 2 on a dense state vector:
/// build the edge-weighted decision diagram, optionally approximate it to
/// the requested fidelity, optionally reduce it, and synthesize the
/// preparation circuit.
///
/// # Errors
///
/// Returns [`PrepareError`] if the amplitudes are invalid for `dims`, the
/// threshold is outside `(0, 1]`, or approximation fails.
///
/// # Examples
///
/// ```
/// use mdq_core::{prepare, PrepareOptions};
/// use mdq_num::radix::Dims;
/// use mdq_states::w_state;
///
/// let dims = Dims::new(vec![3, 6, 2])?;
/// let result = prepare(&dims, &w_state(&dims), PrepareOptions::exact())?;
/// // Table 1, W-state row for [3,6,2]: 58 tree edges, 37 operations.
/// assert_eq!(result.report.nodes_initial, 58);
/// assert_eq!(result.report.operations, 37);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn prepare(
    dims: &Dims,
    amplitudes: &[Complex],
    opts: PrepareOptions,
) -> Result<PreparationResult, PrepareError> {
    Preparer::new().prepare(dims, amplitudes, opts)
}

fn validate_threshold(opts: &PrepareOptions) -> Result<(), PrepareError> {
    opts.validate()
}

/// Runs approximation, reduction and synthesis on an already-built diagram —
/// the shared back half of [`prepare`] and [`prepare_sparse`], also usable
/// directly to reuse a diagram (and its arena) across pipeline stages.
///
/// Since diagrams are canonical by construction, the historical
/// build-then-reduce two-step only survives for the `keep_zero_subtrees`
/// Table-1 trees: on an arena-built diagram the reduce option is skipped
/// outright (it would be a structural no-op), so one pipeline run allocates
/// one arena.
///
/// # Errors
///
/// Returns [`PrepareError`] for an invalid threshold or a failing
/// approximation step.
pub fn prepare_from_dd(
    initial: StateDd,
    opts: PrepareOptions,
) -> Result<PreparationResult, PrepareError> {
    Preparer::new().prepare_from_dd(initial, opts)
}

/// Runs the preparation pipeline on a *sparse* `(digits, amplitude)` state
/// description, never materializing the dense vector.
///
/// This scales structured states (GHZ, W, basis, Dicke, …) to registers far
/// beyond dense reach: the cost is linear in the support size and the
/// diagram size, independent of the Hilbert-space size. The
/// `keep_zero_subtrees` option is ignored (the unreduced tree is
/// exponentially large by definition), so the reported initial "Nodes"
/// metric is the zero-pruned tree.
///
/// # Errors
///
/// Returns [`PrepareError`] as [`prepare`] does.
///
/// # Examples
///
/// ```
/// use mdq_core::{prepare_sparse, PrepareOptions};
/// use mdq_num::radix::Dims;
/// use mdq_states::sparse;
///
/// // GHZ over 16 qudits: ~43 million dense amplitudes, 2 sparse entries.
/// let dims = Dims::new(vec![3, 4, 2, 5, 3, 2, 4, 3, 2, 3, 4, 2, 5, 3, 2, 3])?;
/// let result = prepare_sparse(&dims, &sparse::ghz(&dims), PrepareOptions::exact())?;
/// assert!(result.report.operations < 100);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn prepare_sparse(
    dims: &Dims,
    entries: &[(Vec<usize>, Complex)],
    opts: PrepareOptions,
) -> Result<PreparationResult, PrepareError> {
    Preparer::new().prepare_sparse(dims, entries, opts)
}

/// A reusable preparation pipeline owning per-worker scratch state.
///
/// A `Preparer` holds a resettable [`DdArena`] and a [`ComputeCache`] that
/// are recycled across jobs: each [`Preparer::prepare`] call builds its
/// diagram into the reclaimed arena (retaining the grown node store and
/// canonicalization indices instead of reallocating them per request), and
/// [`Preparer::recycle`] takes the arena back out of a finished result.
/// This is the mechanism behind the throughput of persistent unique/compute
/// tables in mature DD packages, applied *across requests*: the batch
/// engine (`mdq-engine`) keeps one `Preparer` per worker thread.
///
/// Results are bit-identical to the one-shot free functions — [`prepare`]
/// and friends are in fact thin wrappers over a throwaway `Preparer`.
///
/// # Examples
///
/// ```
/// use mdq_core::{Preparer, PrepareOptions};
/// use mdq_num::radix::Dims;
/// use mdq_states::{ghz, w_state};
///
/// let dims = Dims::new(vec![3, 6, 2])?;
/// let mut preparer = Preparer::new();
/// // One worker, many jobs, one arena.
/// for state in [ghz(&dims), w_state(&dims)] {
///     let result = preparer.prepare(&dims, &state, PrepareOptions::exact())?;
///     let (circuit, _report) = preparer.recycle(result);
///     assert!(!circuit.is_empty());
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct Preparer {
    /// The reclaimed arena of the previous job, if any.
    scratch: Option<DdArena>,
    /// The reclaimed arena of the previous *replay verification*, kept
    /// separately because a job's own arena is still holding its result
    /// while the replay runs.
    replay_scratch: Option<DdArena>,
    /// Memo tables for diagram replays ([`Preparer::replay`]).
    cache: ComputeCache,
    /// Resource cap applied to every build (service deployments).
    node_limit: Option<usize>,
}

impl Preparer {
    /// Creates a preparer with empty scratch state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps every diagram this preparer builds at `limit` nodes; jobs
    /// exceeding it fail with [`PrepareError::Build`] instead of exhausting
    /// memory — the per-worker resource cap for service deployments.
    #[must_use]
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.node_limit = Some(limit);
        self
    }

    /// The configured per-job node cap, if any.
    #[must_use]
    pub fn node_limit(&self) -> Option<usize> {
        self.node_limit
    }

    /// Whether this preparer currently holds a reclaimed scratch arena —
    /// i.e. whether the *next* pipeline run will start on warmed tables
    /// instead of allocating fresh ones. Long-lived service workers use
    /// this to report arena persistence across submissions.
    #[must_use]
    pub fn has_scratch(&self) -> bool {
        self.scratch.is_some()
    }

    /// Usage counters of the scratch arena's weight table (cumulative over
    /// the jobs whose arena this preparer has reclaimed), or `None` while no
    /// arena is held. Telemetry for engine statistics.
    #[must_use]
    pub fn weight_stats(&self) -> Option<ComplexTableStats> {
        self.scratch.as_ref().map(DdArena::weight_stats)
    }

    fn build_options(&self, opts: &PrepareOptions) -> BuildOptions {
        let mut build = BuildOptions::default().tolerance(opts.tolerance);
        if let Some(limit) = self.node_limit {
            build = build.node_limit(limit);
        }
        build
    }

    /// The scratch arena if one is held (reset happens inside the `_in`
    /// builders), or a fresh arena matching the build options.
    fn take_arena(&mut self, build: &BuildOptions) -> DdArena {
        self.scratch
            .take()
            .unwrap_or_else(|| match build.node_limit_value() {
                Some(limit) => DdArena::with_node_limit(build.tolerance_value(), limit),
                None => DdArena::new(build.tolerance_value()),
            })
    }

    /// [`prepare`] executed on this preparer's recycled scratch arena.
    ///
    /// Inputs are validated *before* the scratch arena is handed to the
    /// builder, so a malformed request fails without costing this preparer
    /// its warmed arena (only arena exhaustion mid-build can).
    ///
    /// # Errors
    ///
    /// Returns [`PrepareError`] as [`prepare`] does.
    pub fn prepare(
        &mut self,
        dims: &Dims,
        amplitudes: &[Complex],
        opts: PrepareOptions,
    ) -> Result<PreparationResult, PrepareError> {
        validate_threshold(&opts)?;
        let t0 = Instant::now();
        let build_opts = self
            .build_options(&opts)
            .keep_zero_subtrees(opts.keep_zero_subtrees);
        // The builder re-validates internally; the duplicated O(n) scan is
        // accepted — it is orders of magnitude below build + synthesis, and
        // keeping `from_amplitudes_in` fallible-by-value stays simpler than
        // threading the arena through error returns.
        StateDd::validate_amplitudes(dims, amplitudes, build_opts)?;
        let arena = self.take_arena(&build_opts);
        let initial = StateDd::from_amplitudes_in(dims, amplitudes, build_opts, arena)?;
        run_pipeline(initial, opts, t0)
    }

    /// [`prepare_sparse`] executed on this preparer's recycled scratch
    /// arena, with the same validate-before-seeding contract as
    /// [`Preparer::prepare`].
    ///
    /// # Errors
    ///
    /// Returns [`PrepareError`] as [`prepare_sparse`] does.
    pub fn prepare_sparse(
        &mut self,
        dims: &Dims,
        entries: &[(Vec<usize>, Complex)],
        opts: PrepareOptions,
    ) -> Result<PreparationResult, PrepareError> {
        validate_threshold(&opts)?;
        let t0 = Instant::now();
        let build_opts = self.build_options(&opts);
        StateDd::validate_sparse(dims, entries, build_opts)?;
        let arena = self.take_arena(&build_opts);
        let initial = StateDd::from_sparse_in(dims, entries, build_opts, arena)?;
        run_pipeline(initial, opts, t0)
    }

    /// [`prepare_from_dd`] on an already-built diagram (no arena seeding —
    /// the diagram brings its own).
    ///
    /// # Errors
    ///
    /// Returns [`PrepareError`] as [`prepare_from_dd`] does.
    pub fn prepare_from_dd(
        &mut self,
        initial: StateDd,
        opts: PrepareOptions,
    ) -> Result<PreparationResult, PrepareError> {
        validate_threshold(&opts)?;
        run_pipeline(initial, opts, Instant::now())
    }

    /// Takes a finished result apart, reclaiming its diagram's arena as this
    /// preparer's scratch (reset, capacity retained) and returning the parts
    /// a serving layer actually ships: the circuit and its metrics.
    pub fn recycle(&mut self, result: PreparationResult) -> (Circuit, SynthesisReport) {
        let mut arena = result.dd.into_arena();
        arena.reset();
        self.scratch = Some(arena);
        (result.circuit, result.report)
    }

    /// [`Preparer::prepare`] followed by [`Preparer::recycle`] in one call —
    /// the serving loop of a long-lived worker, which never keeps the
    /// diagram, only the circuit and its metrics, and always wants its
    /// arena back for the next job.
    ///
    /// # Errors
    ///
    /// Returns [`PrepareError`] as [`Preparer::prepare`] does; the scratch
    /// arena survives jobs that fail pre-validation.
    pub fn prepare_recycled(
        &mut self,
        dims: &Dims,
        amplitudes: &[Complex],
        opts: PrepareOptions,
    ) -> Result<(Circuit, SynthesisReport), PrepareError> {
        let result = self.prepare(dims, amplitudes, opts)?;
        Ok(self.recycle(result))
    }

    /// [`Preparer::prepare_sparse`] followed by [`Preparer::recycle`] in one
    /// call, the sparse twin of [`Preparer::prepare_recycled`].
    ///
    /// # Errors
    ///
    /// Returns [`PrepareError`] as [`Preparer::prepare_sparse`] does.
    pub fn prepare_sparse_recycled(
        &mut self,
        dims: &Dims,
        entries: &[(Vec<usize>, Complex)],
        opts: PrepareOptions,
    ) -> Result<(Circuit, SynthesisReport), PrepareError> {
        let result = self.prepare_sparse(dims, entries, opts)?;
        Ok(self.recycle(result))
    }

    /// Replays a preparation circuit on the ground-state diagram through
    /// this preparer's [`ComputeCache`] — the decision-diagram verification
    /// path, with the memo tables reused across replays.
    ///
    /// # Errors
    ///
    /// Returns [`ApplyError`] if an instruction cannot be applied to a
    /// diagram (e.g. below-target controls) or the arena overflows.
    pub fn replay(&mut self, circuit: &Circuit) -> Result<StateDd, ApplyError> {
        StateDd::ground(circuit.dims()).apply_circuit_with(circuit, &mut self.cache)
    }

    /// The verification-internal replay: like [`Preparer::replay`], but
    /// built into this preparer's reclaimed replay arena and left
    /// uncompacted (the caller evaluates it once, then hands the arena
    /// back through [`Preparer::recycle_replay`]).
    fn replay_recycled(&mut self, circuit: &Circuit) -> Result<StateDd, ApplyError> {
        let ground = match self.replay_scratch.take() {
            Some(arena) => StateDd::ground_in(circuit.dims(), arena),
            None => StateDd::ground(circuit.dims()),
        };
        ground.apply_circuit_consuming(circuit, &mut self.cache)
    }

    /// Reclaims a replayed diagram's arena for the next verification.
    fn recycle_replay(&mut self, replayed: StateDd) {
        let mut arena = replayed.into_arena();
        arena.reset();
        self.replay_scratch = Some(arena);
    }

    /// Replay-verifies a synthesized circuit against the *dense* target it
    /// was prepared from: applies the circuit to the ground-state diagram
    /// ([`Preparer::replay`], memo tables reused) and measures the fidelity
    /// with `target` — the serving-time correctness check advocated by
    /// DD-based simulation packages, without ever touching a dense
    /// simulator.
    ///
    /// `target` must be the amplitude vector of the circuit's register
    /// (length `circuit.dims().space_size()`); it does not have to be
    /// normalized.
    ///
    /// # Errors
    ///
    /// [`PrepareError::Replay`] when the circuit cannot be replayed on a
    /// diagram (below-target controls, arena overflow).
    /// [`PrepareError::Build`] with [`BuildError::WrongLength`] when
    /// `target` does not have the register's length; the check runs before
    /// the replay, so the replay scratch survives the refusal.
    pub fn verify_dense(
        &mut self,
        circuit: &Circuit,
        target: &[Complex],
    ) -> Result<VerificationReport, PrepareError> {
        let t0 = Instant::now();
        let expected = circuit.dims().space_size();
        if target.len() != expected {
            return Err(PrepareError::Build(BuildError::WrongLength {
                expected,
                got: target.len(),
            }));
        }
        let replayed = self
            .replay_recycled(circuit)
            .map_err(PrepareError::Replay)?;
        let replay_nodes = replayed.live_node_count();
        let prepared = replayed.to_amplitudes();
        let norm = mdq_num::norm(target);
        let fidelity = if norm > 0.0 {
            let normalized: Vec<Complex> = target.iter().map(|a| *a / norm).collect();
            mdq_num::fidelity(&normalized, &prepared)
        } else {
            0.0
        };
        self.recycle_replay(replayed);
        Ok(VerificationReport {
            fidelity,
            replay_nodes,
            duration: t0.elapsed(),
        })
    }

    /// The sparse twin of [`Preparer::verify_dense`]: replay the circuit,
    /// then compute the fidelity against the `(digits, amplitude)` support
    /// list by evaluating the replayed diagram at each support point —
    /// `O(support × width)` on top of the replay, never materializing the
    /// dense vector, so it scales to the same registers the sparse pipeline
    /// does. Duplicate support entries are summed, near-zero ones dropped,
    /// exactly as the builder does under `tolerance`.
    ///
    /// # Errors
    ///
    /// [`PrepareError::Replay`] when the replay fails,
    /// [`PrepareError::Build`] when the support list is malformed for the
    /// circuit's register.
    pub fn verify_sparse(
        &mut self,
        circuit: &Circuit,
        target: &[(Vec<usize>, Complex)],
        tolerance: Tolerance,
    ) -> Result<VerificationReport, PrepareError> {
        let t0 = Instant::now();
        let dims = circuit.dims().clone();
        let support = StateDd::canonical_sparse_support(&dims, target, tolerance)?;
        let replayed = self
            .replay_recycled(circuit)
            .map_err(PrepareError::Replay)?;
        let replay_nodes = replayed.live_node_count();
        // ⟨target|replayed⟩ over the target's support; the replayed diagram
        // is normalized by construction (unitary circuit on |0…0⟩), so the
        // fidelity only needs the target's norm.
        let mut inner = Complex::ZERO;
        let mut norm_sq = 0.0;
        for (index, amplitude) in support {
            let digits = dims.digits_of(index);
            inner += amplitude.conj() * replayed.amplitude(&digits);
            norm_sq += amplitude.norm_sqr();
        }
        let fidelity = if norm_sq > 0.0 {
            inner.norm_sqr() / norm_sq
        } else {
            0.0
        };
        self.recycle_replay(replayed);
        Ok(VerificationReport {
            fidelity,
            replay_nodes,
            duration: t0.elapsed(),
        })
    }
}

fn run_pipeline(
    initial: StateDd,
    opts: PrepareOptions,
    t0: Instant,
) -> Result<PreparationResult, PrepareError> {
    let nodes_initial = initial.edge_count();
    let distinct_c_initial = initial.distinct_complex_count();

    let t1 = Instant::now();
    let (dd, removed_nodes, pruned_mass) = match opts.fidelity_threshold {
        Some(threshold) => {
            let approx = initial.approximate(1.0 - threshold)?;
            (approx.dd, approx.removed_nodes, approx.pruned_mass)
        }
        None => (initial, 0, 0.0),
    };
    // Arena-built diagrams are maximally shared already; an explicit
    // reduction pass is only meaningful on Table-1 trees.
    let reduced = opts.reduce && !dd.is_canonical();
    let dd = if reduced { dd.reduce() } else { dd };

    let circuit = synthesize(&dd, opts.synthesis);
    let time = t1.elapsed();
    let total_time = t0.elapsed();
    // Unless a pass rewrote the diagram, its DistinctC is the initial one.
    let distinct_c_final = if reduced || opts.fidelity_threshold.is_some() {
        dd.distinct_complex_count()
    } else {
        distinct_c_initial
    };

    let stats = circuit.stats();
    let report = SynthesisReport {
        nodes_initial,
        nodes_final: dd.edge_count(),
        distinct_c_initial,
        distinct_c_final,
        operations: stats.operations,
        controls_median: stats.controls_median,
        controls_mean: stats.controls_mean,
        controls_max: stats.controls_max,
        removed_nodes,
        pruned_mass,
        fidelity_bound: 1.0 - pruned_mass,
        time,
        total_time,
    };
    Ok(PreparationResult {
        circuit,
        dd,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdq_states::{embedded_w, ghz, random_state, w_state, RandomKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dims(v: &[usize]) -> Dims {
        Dims::new(v.to_vec()).unwrap()
    }

    /// The five Table 1 registers with the qudit orderings recovered from
    /// the structural "Nodes" column.
    const TABLE1_DIMS: [&[usize]; 5] = [
        &[3, 6, 2],
        &[9, 5, 6, 3],
        &[4, 7, 4, 4, 3, 5],
        &[6, 6, 5, 3, 3],
        &[5, 4, 2, 5, 5, 2],
    ];

    #[test]
    fn exact_nodes_metric_matches_table_one() {
        let expected = [58usize, 1135, 8657, 2383, 3266];
        for (v, want) in TABLE1_DIMS.iter().zip(expected) {
            let d = dims(v);
            let r = prepare(&d, &ghz(&d), PrepareOptions::exact()).unwrap();
            assert_eq!(r.report.nodes_initial, want, "dims {v:?}");
        }
    }

    #[test]
    fn ghz_rows_match_table_one() {
        // (dims, operations, approx nodes, distinctC)
        for (v, ops, approx_nodes) in [
            (&[3usize, 6, 2][..], 19usize, 20usize),
            (&[9, 5, 6, 3], 51, 52),
            (&[4, 7, 4, 4, 3, 5], 73, 74),
        ] {
            let d = dims(v);
            let exact = prepare(&d, &ghz(&d), PrepareOptions::exact()).unwrap();
            assert_eq!(exact.report.operations, ops, "dims {v:?}");
            assert_eq!(exact.report.distinct_c_initial, 3, "dims {v:?}");
            let approx = prepare(&d, &ghz(&d), PrepareOptions::approximated(0.98)).unwrap();
            assert_eq!(approx.report.nodes_final, approx_nodes, "dims {v:?}");
            assert_eq!(
                approx.report.operations, ops,
                "approximation must not change GHZ"
            );
            assert!((approx.report.fidelity_bound - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn w_state_rows_match_table_one() {
        for (v, ops, approx_nodes) in [
            (&[3usize, 6, 2][..], 37usize, 38usize),
            (&[9, 5, 6, 3], 186, 187),
            (&[4, 7, 4, 4, 3, 5], 262, 263),
        ] {
            let d = dims(v);
            let r = prepare(&d, &w_state(&d), PrepareOptions::approximated(0.98)).unwrap();
            assert_eq!(r.report.operations, ops, "dims {v:?}");
            assert_eq!(r.report.nodes_final, approx_nodes, "dims {v:?}");
        }
    }

    #[test]
    fn embedded_w_rows_match_table_one() {
        for (v, ops, approx_nodes) in [
            (&[3usize, 6, 2][..], 21usize, 22usize),
            (&[9, 5, 6, 3], 49, 50),
            (&[4, 7, 4, 4, 3, 5], 91, 92),
        ] {
            let d = dims(v);
            let r = prepare(&d, &embedded_w(&d), PrepareOptions::approximated(0.98)).unwrap();
            assert_eq!(r.report.operations, ops, "dims {v:?}");
            assert_eq!(r.report.nodes_final, approx_nodes, "dims {v:?}");
        }
    }

    #[test]
    fn w_state_distinct_c_small_register() {
        // {0, 1, √(6/8), √(1/8), √(1/6)} — Table 1 reports 5.
        let d = dims(&[3, 6, 2]);
        let r = prepare(&d, &w_state(&d), PrepareOptions::exact()).unwrap();
        assert_eq!(r.report.distinct_c_initial, 5);
    }

    #[test]
    fn embedded_w_distinct_c() {
        for (v, want) in [(&[3usize, 6, 2][..], 5usize), (&[9, 5, 6, 3], 7)] {
            let d = dims(v);
            let r = prepare(&d, &embedded_w(&d), PrepareOptions::exact()).unwrap();
            assert_eq!(r.report.distinct_c_initial, want, "dims {v:?}");
        }
    }

    #[test]
    fn random_exact_rows_match_table_one() {
        let expected_ops = [57usize, 1134, 8656, 2382, 3265];
        let mut rng = StdRng::seed_from_u64(40);
        for (v, ops) in TABLE1_DIMS.iter().zip(expected_ops) {
            let d = dims(v);
            let state = random_state(&d, RandomKind::ReImUniform, &mut rng);
            let r = prepare(&d, &state, PrepareOptions::exact()).unwrap();
            assert_eq!(r.report.operations, ops, "dims {v:?}");
            // Dense random states: every weight distinct ⇒ DistinctC equals
            // the edge count ("Nodes" column), as in Table 1.
            assert_eq!(r.report.distinct_c_initial, r.report.nodes_initial);
        }
    }

    #[test]
    fn random_controls_median_matches_table_one() {
        // Table 1 reports medians 2/2/5/4/5 for the five Random rows. Our
        // per-operation median (= depth of the level holding the median
        // operation) reproduces four of the five exactly; for [9,5,6,3] the
        // structural median is 3 where the paper reports 2 (see
        // EXPERIMENTS.md for the discussion of this metric).
        let expected_median = [2.0, 3.0, 5.0, 4.0, 5.0];
        let mut rng = StdRng::seed_from_u64(41);
        for (v, want) in TABLE1_DIMS.iter().zip(expected_median) {
            let d = dims(v);
            let state = random_state(&d, RandomKind::ReImUniform, &mut rng);
            let r = prepare(&d, &state, PrepareOptions::exact()).unwrap();
            assert_eq!(r.report.controls_median, want, "dims {v:?}");
            assert_eq!(r.report.controls_max, v.len() - 1, "dims {v:?}");
        }
    }

    #[test]
    fn approximated_random_state_reduces_diagram() {
        let d = dims(&[3, 6, 2]);
        let mut rng = StdRng::seed_from_u64(11);
        let state = random_state(&d, RandomKind::ReImUniform, &mut rng);
        let exact = prepare(&d, &state, PrepareOptions::exact()).unwrap();
        let approx = prepare(&d, &state, PrepareOptions::approximated(0.98)).unwrap();
        assert!(approx.report.nodes_final <= exact.report.nodes_initial);
        assert!(approx.report.operations <= exact.report.operations);
        assert!(approx.report.fidelity_bound >= 0.98);
        assert!(approx.report.pruned_mass <= 0.02 + 1e-12);
    }

    #[test]
    fn invalid_threshold_is_rejected() {
        let d = dims(&[2]);
        let amps = [Complex::ONE, Complex::ZERO];
        for t in [0.0, -0.5, 1.5] {
            assert_eq!(
                prepare(&d, &amps, PrepareOptions::approximated(t)).unwrap_err(),
                PrepareError::InvalidThreshold(t)
            );
        }
    }

    #[test]
    fn build_errors_propagate() {
        let d = dims(&[2, 2]);
        let err = prepare(&d, &[Complex::ONE], PrepareOptions::exact()).unwrap_err();
        assert!(matches!(
            err,
            PrepareError::Build(BuildError::WrongLength { .. })
        ));
    }

    #[test]
    fn reduction_option_shares_subtrees() {
        let d = dims(&[3, 4, 2]);
        let n = d.space_size();
        let amps = vec![Complex::real(1.0 / (n as f64).sqrt()); n];
        let plain = prepare(&d, &amps, PrepareOptions::exact()).unwrap();
        let reduced = prepare(&d, &amps, PrepareOptions::exact().with_reduction()).unwrap();
        assert!(reduced.report.nodes_final < plain.report.nodes_final);
        assert!(reduced.report.operations < plain.report.operations);
        assert_eq!(reduced.report.controls_max, 0); // fully factorized
    }

    #[test]
    fn timing_fields_are_populated() {
        let d = dims(&[3, 6, 2]);
        let r = prepare(&d, &ghz(&d), PrepareOptions::exact()).unwrap();
        assert!(r.report.total_time >= r.report.time);
    }

    #[test]
    fn sparse_pipeline_matches_dense_pipeline() {
        let d = dims(&[3, 6, 2]);
        let dense = prepare(
            &d,
            &w_state(&d),
            PrepareOptions::exact().without_zero_subtrees(),
        )
        .unwrap();
        let sparse = prepare_sparse(
            &d,
            &mdq_states::sparse::w_state(&d),
            PrepareOptions::exact(),
        )
        .unwrap();
        assert_eq!(sparse.report.operations, dense.report.operations);
        assert_eq!(sparse.report.nodes_initial, dense.report.nodes_initial);
        assert_eq!(sparse.circuit, dense.circuit);
    }

    #[test]
    fn sparse_pipeline_scales_to_large_registers() {
        // 18 qudits, ~1.1e9 dense amplitudes: only possible sparsely.
        let pattern = [3usize, 4, 2, 5, 3, 2, 4, 3, 2, 3, 4, 2, 5, 3, 2, 3, 4, 2];
        let d = dims(&pattern);
        let r = prepare_sparse(&d, &mdq_states::sparse::ghz(&d), PrepareOptions::exact()).unwrap();
        // GHZ: one context per zero-pruned tree node; 2 branches per level
        // below the root ⇒ ops = d_root + 2·Σ_{ℓ>0} d_ℓ.
        let expected: usize = pattern[0] + 2 * pattern[1..].iter().sum::<usize>();
        assert_eq!(r.report.operations, expected);
        assert_eq!(r.report.controls_max, pattern.len() - 1);
        // Amplitude check on the diagram itself (simulation is impossible).
        let a = 1.0 / 2.0_f64.sqrt();
        assert!((r.dd.amplitude(&[1; 18]).abs() - a).abs() < 1e-12);
    }

    #[test]
    fn prepare_from_dd_matches_prepare() {
        // Handing an already-built diagram into the pipeline (arena reuse
        // across stages) must produce the same circuit and metrics as the
        // end-to-end entry point.
        let d = dims(&[3, 6, 2]);
        let target = w_state(&d);
        let opts = PrepareOptions::exact().without_zero_subtrees();
        let end_to_end = prepare(&d, &target, opts).unwrap();
        let dd = mdq_dd::StateDd::from_amplitudes(
            &d,
            &target,
            BuildOptions::default().tolerance(opts.tolerance),
        )
        .unwrap();
        let staged = prepare_from_dd(dd, opts).unwrap();
        assert_eq!(staged.circuit, end_to_end.circuit);
        assert_eq!(staged.report.operations, end_to_end.report.operations);
        assert_eq!(staged.report.nodes_initial, end_to_end.report.nodes_initial);
    }

    #[test]
    fn prepare_from_dd_validates_threshold() {
        let d = dims(&[2]);
        let dd = mdq_dd::StateDd::ground(&d);
        assert_eq!(
            prepare_from_dd(dd, PrepareOptions::approximated(2.0)).unwrap_err(),
            PrepareError::InvalidThreshold(2.0)
        );
    }

    #[test]
    fn preparer_reuse_is_bit_identical_to_one_shot() {
        // One preparer, many jobs on a recycled arena: every circuit must be
        // bit-identical to the corresponding one-shot free-function run.
        let mut preparer = Preparer::new();
        let mut rng = StdRng::seed_from_u64(7);
        let d3 = dims(&[3, 6, 2]);
        let d2 = dims(&[4, 3]);
        let jobs: Vec<(Dims, Vec<Complex>, PrepareOptions)> = vec![
            (d3.clone(), ghz(&d3), PrepareOptions::exact()),
            (d3.clone(), w_state(&d3), PrepareOptions::approximated(0.98)),
            (
                d2.clone(),
                random_state(&d2, RandomKind::ReImUniform, &mut rng),
                PrepareOptions::exact().without_zero_subtrees(),
            ),
            (d3.clone(), embedded_w(&d3), PrepareOptions::exact()),
        ];
        for (dims, state, opts) in &jobs {
            let one_shot = prepare(dims, state, *opts).unwrap();
            let reused = preparer.prepare(dims, state, *opts).unwrap();
            assert_eq!(reused.circuit, one_shot.circuit);
            assert_eq!(reused.report.operations, one_shot.report.operations);
            assert_eq!(reused.report.nodes_initial, one_shot.report.nodes_initial);
            let (circuit, report) = preparer.recycle(reused);
            assert_eq!(circuit, one_shot.circuit);
            assert_eq!(report.nodes_final, one_shot.report.nodes_final);
        }
        // After recycling, the preparer holds a scratch arena with telemetry.
        let stats = preparer.weight_stats().expect("scratch arena reclaimed");
        assert!(stats.lookups > 0);
        assert_eq!(stats.len, 0, "reset scratch arena is empty");
    }

    #[test]
    fn preparer_recycled_hooks_match_free_functions() {
        let d = dims(&[3, 6, 2]);
        let mut preparer = Preparer::new();
        assert!(!preparer.has_scratch(), "fresh preparer holds no arena");
        let opts = PrepareOptions::exact().without_zero_subtrees();
        let (circuit, report) = preparer.prepare_recycled(&d, &ghz(&d), opts).unwrap();
        let one_shot = prepare(&d, &ghz(&d), opts).unwrap();
        assert_eq!(circuit, one_shot.circuit);
        assert_eq!(report.operations, one_shot.report.operations);
        assert!(preparer.has_scratch(), "arena reclaimed after the job");
        let entries = mdq_states::sparse::w_state(&d);
        let (circuit, _) = preparer
            .prepare_sparse_recycled(&d, &entries, PrepareOptions::exact())
            .unwrap();
        let one_shot = prepare_sparse(&d, &entries, PrepareOptions::exact()).unwrap();
        assert_eq!(circuit, one_shot.circuit);
        assert!(preparer.has_scratch());
        // A pre-validation failure keeps the warmed arena.
        preparer
            .prepare_recycled(&d, &[Complex::ONE], PrepareOptions::exact())
            .unwrap_err();
        assert!(preparer.has_scratch());
    }

    #[test]
    fn preparer_sparse_matches_free_function() {
        let d = dims(&[3, 6, 2]);
        let entries = mdq_states::sparse::w_state(&d);
        let mut preparer = Preparer::new();
        // Warm the arena with an unrelated dense job first.
        let warm = preparer
            .prepare(
                &d,
                &ghz(&d),
                PrepareOptions::exact().without_zero_subtrees(),
            )
            .unwrap();
        preparer.recycle(warm);
        let reused = preparer
            .prepare_sparse(&d, &entries, PrepareOptions::exact())
            .unwrap();
        let one_shot = prepare_sparse(&d, &entries, PrepareOptions::exact()).unwrap();
        assert_eq!(reused.circuit, one_shot.circuit);
        assert_eq!(reused.report.nodes_initial, one_shot.report.nodes_initial);
    }

    #[test]
    fn preparer_node_limit_caps_builds() {
        let d = dims(&[3, 6, 2]);
        let mut preparer = Preparer::new().with_node_limit(2);
        assert_eq!(preparer.node_limit(), Some(2));
        let err = preparer
            .prepare(
                &d,
                &w_state(&d),
                PrepareOptions::exact().without_zero_subtrees(),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            PrepareError::Build(BuildError::ArenaOverflow { limit: 2 })
        ));
    }

    #[test]
    fn preparer_keeps_scratch_arena_across_failed_jobs() {
        let d = dims(&[3, 6, 2]);
        let mut preparer = Preparer::new();
        let warm = preparer
            .prepare(
                &d,
                &ghz(&d),
                PrepareOptions::exact().without_zero_subtrees(),
            )
            .unwrap();
        preparer.recycle(warm);
        let lookups_before = preparer.weight_stats().unwrap().lookups;
        // Malformed jobs (wrong length, bad digits) fail during
        // pre-validation and must not cost the preparer its warmed arena.
        let err = preparer
            .prepare(&d, &[Complex::ONE], PrepareOptions::exact())
            .unwrap_err();
        assert!(matches!(
            err,
            PrepareError::Build(BuildError::WrongLength { .. })
        ));
        let err = preparer
            .prepare_sparse(&d, &[(vec![0], Complex::ONE)], PrepareOptions::exact())
            .unwrap_err();
        assert!(matches!(
            err,
            PrepareError::Build(BuildError::WrongDigitCount { .. })
        ));
        let stats = preparer.weight_stats().expect("scratch arena survived");
        assert_eq!(stats.lookups, lookups_before, "arena untouched by failures");
        // The surviving arena still serves the next good job.
        let again = preparer
            .prepare(
                &d,
                &ghz(&d),
                PrepareOptions::exact().without_zero_subtrees(),
            )
            .unwrap();
        let one_shot = prepare(
            &d,
            &ghz(&d),
            PrepareOptions::exact().without_zero_subtrees(),
        )
        .unwrap();
        assert_eq!(again.circuit, one_shot.circuit);
    }

    #[test]
    fn preparer_replay_reaches_target_state() {
        let d = dims(&[3, 4, 2]);
        let target = mdq_states::sparse::ghz(&d);
        let mut preparer = Preparer::new();
        let result = preparer
            .prepare_sparse(&d, &target, PrepareOptions::exact())
            .unwrap();
        let replayed = preparer.replay(&result.circuit).unwrap();
        assert!((replayed.fidelity(&result.dd) - 1.0).abs() < 1e-9);
        // Second replay reuses the preparer's memo tables.
        let again = preparer.replay(&result.circuit).unwrap();
        assert!((again.fidelity(&result.dd) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn warm_verification_is_bit_identical_to_fresh() {
        // A warm preparer replays into a recycled arena through a recycled
        // compute cache, reusing their signature and sum-key buffers; no
        // leftover of an earlier job may change a measured bit.
        let mut rng = StdRng::seed_from_u64(29);
        let mut warm = Preparer::new();
        let small = dims(&[3, 6, 2]);
        let tree = random_state(&small, RandomKind::ReImUniform, &mut rng);
        for opts in [PrepareOptions::exact(), PrepareOptions::approximated(0.98)] {
            let result = warm.prepare(&small, &tree, opts).unwrap();
            warm.verify_dense(&result.circuit, &tree).unwrap();
            warm.recycle(result);
        }
        let mixed = dims(&[2, 3, 4, 5]);
        let sparse = mdq_states::sparse::random_sparse(&mixed, 12, &mut rng);
        let result = warm
            .prepare_sparse(&mixed, &sparse, PrepareOptions::exact())
            .unwrap();
        warm.verify_sparse(&result.circuit, &sparse, Tolerance::default())
            .unwrap();
        warm.recycle(result);

        let same = |hot: VerificationReport, cold: VerificationReport| {
            assert_eq!(hot.fidelity.to_bits(), cold.fidelity.to_bits());
            assert_eq!(hot.replay_nodes, cold.replay_nodes);
        };
        let d = dims(&[4, 7, 4, 4, 3, 5]);
        let target = random_state(&d, RandomKind::ReImUniform, &mut rng);
        for opts in [PrepareOptions::exact(), PrepareOptions::approximated(0.98)] {
            let mut fresh = Preparer::new();
            let hot = warm.prepare(&d, &target, opts).unwrap();
            let cold = fresh.prepare(&d, &target, opts).unwrap();
            same(
                warm.verify_dense(&hot.circuit, &target).unwrap(),
                fresh.verify_dense(&cold.circuit, &target).unwrap(),
            );
            warm.recycle(hot);
        }
        let wide = dims(&(0..20).map(|i| 2 + i % 4).collect::<Vec<_>>());
        let w = mdq_states::sparse::w_state(&wide);
        let mut fresh = Preparer::new();
        let opts = PrepareOptions::exact();
        let hot = warm.prepare_sparse(&wide, &w, opts).unwrap();
        let cold = fresh.prepare_sparse(&wide, &w, opts).unwrap();
        let tol = Tolerance::default();
        same(
            warm.verify_sparse(&hot.circuit, &w, tol).unwrap(),
            fresh.verify_sparse(&cold.circuit, &w, tol).unwrap(),
        );
    }

    #[test]
    fn final_distinct_c_counts_the_final_diagram() {
        // `distinct_c_final` is only recomputed when a pass rewrote the
        // diagram; either way it must count the diagram that was synthesized.
        let mut rng = StdRng::seed_from_u64(31);
        let d = dims(&[3, 6, 2]);
        let target = random_state(&d, RandomKind::ReImUniform, &mut rng);
        for opts in [
            PrepareOptions::exact(),
            PrepareOptions::exact().without_zero_subtrees(),
            PrepareOptions::exact().with_reduction(),
            PrepareOptions::approximated(0.9),
        ] {
            let result = prepare(&d, &target, opts).unwrap();
            assert_eq!(
                result.report.distinct_c_final,
                result.dd.distinct_complex_count(),
                "{opts:?}"
            );
        }
    }

    #[test]
    fn sparse_pipeline_validates_threshold() {
        let d = dims(&[2, 2]);
        let entries = vec![(vec![0, 0], Complex::ONE)];
        assert_eq!(
            prepare_sparse(&d, &entries, PrepareOptions::approximated(0.0)).unwrap_err(),
            PrepareError::InvalidThreshold(0.0)
        );
    }

    #[test]
    fn verification_policy_is_validated_and_inert() {
        let d = dims(&[3, 3]);
        // Out-of-range verification fidelity is rejected up front.
        for bad in [0.0, -1.0, 1.5] {
            let opts = PrepareOptions::exact().with_verification(VerificationPolicy::replay(bad));
            assert_eq!(
                prepare(&d, &ghz(&d), opts).unwrap_err(),
                PrepareError::InvalidVerification(bad)
            );
        }
        // A valid policy never changes the synthesized circuit.
        let plain = prepare(&d, &ghz(&d), PrepareOptions::exact()).unwrap();
        let policed = prepare(
            &d,
            &ghz(&d),
            PrepareOptions::exact().with_verification(VerificationPolicy::replay(0.99)),
        )
        .unwrap();
        assert_eq!(plain.circuit, policed.circuit);
        assert_eq!(VerificationPolicy::replay(0.99).min_fidelity(), Some(0.99));
        assert!(VerificationPolicy::replay(0.99).is_enabled());
        assert!(!VerificationPolicy::default().is_enabled());
    }

    #[test]
    fn verify_dense_measures_exact_circuits_at_unit_fidelity() {
        let d = dims(&[3, 6, 2]);
        let mut preparer = Preparer::new();
        for target in [ghz(&d), w_state(&d), embedded_w(&d)] {
            let result = preparer
                .prepare(&d, &target, PrepareOptions::exact())
                .unwrap();
            let report = preparer.verify_dense(&result.circuit, &target).unwrap();
            assert!(
                (report.fidelity - 1.0).abs() < 1e-9,
                "fidelity {}",
                report.fidelity
            );
            assert!(report.replay_nodes > 0);
            preparer.recycle(result);
        }
    }

    #[test]
    fn verify_dense_sees_the_approximation_error() {
        // Verification measures against the ORIGINAL target, so an
        // approximated circuit verifies at the reached fidelity (< 1), and
        // the measurement agrees with the dense simulator's.
        let d = dims(&[3, 6, 2]);
        let mut rng = StdRng::seed_from_u64(13);
        let target = random_state(&d, RandomKind::ReImUniform, &mut rng);
        let opts = PrepareOptions::approximated(0.9).without_zero_subtrees();
        let mut preparer = Preparer::new();
        let result = preparer.prepare(&d, &target, opts).unwrap();
        assert!(result.report.pruned_mass > 0.0, "budget 0.1 must prune");
        let report = preparer.verify_dense(&result.circuit, &target).unwrap();
        assert!(report.fidelity < 1.0 - 1e-9, "fidelity {}", report.fidelity);
        assert!(report.fidelity >= 0.9 - 1e-9);
        let simulated = crate::verify::prepared_fidelity(&result.circuit, &target);
        assert!(
            (report.fidelity - simulated).abs() < 1e-9,
            "replay {} vs dense {}",
            report.fidelity,
            simulated
        );
    }

    #[test]
    fn verify_sparse_scales_past_dense_reach() {
        // 16 qudits (~43M dense amplitudes): replay verification works on
        // the support list alone, duplicates summed like the builder does.
        let pattern = [3usize, 4, 2, 5, 3, 2, 4, 3, 2, 3, 4, 2, 5, 3, 2, 3];
        let d = dims(&pattern);
        let entries = mdq_states::sparse::ghz(&d);
        let mut preparer = Preparer::new();
        let result = preparer
            .prepare_sparse(&d, &entries, PrepareOptions::exact())
            .unwrap();
        let report = preparer
            .verify_sparse(&result.circuit, &entries, Tolerance::default())
            .unwrap();
        assert!(
            (report.fidelity - 1.0).abs() < 1e-9,
            "fidelity {}",
            report.fidelity
        );
        // Duplicate-split support verifies identically.
        let h = entries[0].1 * Complex::real(0.5);
        let mut split = vec![(entries[0].0.clone(), h), (entries[0].0.clone(), h)];
        split.extend(entries[1..].iter().cloned());
        let split_report = preparer
            .verify_sparse(&result.circuit, &split, Tolerance::default())
            .unwrap();
        assert!((split_report.fidelity - report.fidelity).abs() < 1e-12);
    }

    #[test]
    fn verify_dense_rejects_a_target_of_the_wrong_length() {
        let d = dims(&[3, 6, 2]);
        let mut preparer = Preparer::new();
        let result = preparer
            .prepare(&d, &ghz(&d), PrepareOptions::exact())
            .unwrap();
        preparer.verify_dense(&result.circuit, &ghz(&d)).unwrap();
        assert!(preparer.replay_scratch.is_some());
        let short = vec![Complex::real(1.0 / 18.0_f64.sqrt()); 18];
        assert_eq!(
            preparer.verify_dense(&result.circuit, &short).unwrap_err(),
            PrepareError::Build(BuildError::WrongLength {
                expected: 36,
                got: 18
            })
        );
        // The refusal comes before the replay, so its scratch survives.
        assert!(preparer.replay_scratch.is_some());
    }

    #[test]
    fn verify_sparse_rejects_malformed_support() {
        let d = dims(&[3, 3]);
        let mut preparer = Preparer::new();
        let result = preparer
            .prepare_sparse(&d, &mdq_states::sparse::ghz(&d), PrepareOptions::exact())
            .unwrap();
        let err = preparer
            .verify_sparse(
                &result.circuit,
                &[(vec![0, 9], Complex::ONE)],
                Tolerance::default(),
            )
            .unwrap_err();
        assert!(matches!(err, PrepareError::Build(_)));
    }
}
