//! Request and report types of the engine service.

use std::time::Duration;

use mdq_circuit::Circuit;
use mdq_core::{
    prepare, prepare_sparse, PreparationResult, PrepareError, PrepareOptions, SynthesisReport,
    VerificationPolicy, VerificationReport,
};
use mdq_dd::{BuildOptions, StateDd};
use mdq_num::radix::Dims;
use mdq_num::Complex;

use crate::scheduler::Priority;

/// The target state of a preparation request, in either of the two forms
/// the pipeline accepts.
#[derive(Debug, Clone, PartialEq)]
pub enum StatePayload {
    /// A dense amplitude vector in mixed-radix index order
    /// (length `dims.space_size()`), as taken by [`mdq_core::prepare`].
    Dense(Vec<Complex>),
    /// A sparse `(digits, amplitude)` support list, as taken by
    /// [`mdq_core::prepare_sparse`] — the scalable form for structured
    /// states on large registers.
    Sparse(Vec<(Vec<usize>, Complex)>),
}

/// One unit of work for the [`EngineService`](crate::EngineService): a
/// register, a target state, the pipeline options, and a scheduling
/// priority.
#[derive(Debug, Clone, PartialEq)]
pub struct PrepareRequest {
    /// The register layout.
    pub dims: Dims,
    /// The target state.
    pub payload: StatePayload,
    /// Pipeline options (fidelity threshold, tolerance, synthesis, …).
    pub options: PrepareOptions,
    /// Scheduling urgency ([`Priority::Normal`] unless overridden with
    /// [`PrepareRequest::with_priority`]); never influences the result,
    /// only when the job runs under the size-aware scheduler.
    pub priority: Priority,
}

impl PrepareRequest {
    /// A request over a dense amplitude vector.
    #[must_use]
    pub fn dense(dims: Dims, amplitudes: Vec<Complex>, options: PrepareOptions) -> Self {
        PrepareRequest {
            dims,
            payload: StatePayload::Dense(amplitudes),
            options,
            priority: Priority::Normal,
        }
    }

    /// A request over a sparse `(digits, amplitude)` support list.
    #[must_use]
    pub fn sparse(
        dims: Dims,
        entries: Vec<(Vec<usize>, Complex)>,
        options: PrepareOptions,
    ) -> Self {
        PrepareRequest {
            dims,
            payload: StatePayload::Sparse(entries),
            options,
            priority: Priority::Normal,
        }
    }

    /// Overrides the scheduling priority (builder style).
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Overrides the pipeline options (builder style).
    #[must_use]
    pub fn with_options(mut self, options: PrepareOptions) -> Self {
        self.options = options;
        self
    }

    /// Demands serving-time verification for this request (builder style):
    /// workers replay the synthesized circuit by decision-diagram
    /// simulation and fail the job with
    /// [`EngineError::VerificationFailed`](crate::EngineError) when the
    /// measured fidelity against the requested target falls below the
    /// policy's floor. Shorthand for setting
    /// [`PrepareOptions::verification`] on the request's options.
    #[must_use]
    pub fn with_verification(mut self, verification: VerificationPolicy) -> Self {
        self.options.verification = verification;
        self
    }

    /// The scheduler's size estimate for this request — what the
    /// size-aware policy orders equal-priority jobs by (dense: the full
    /// amplitude-vector length; sparse: support size × register width).
    #[must_use]
    pub fn cost_estimate(&self) -> u64 {
        crate::scheduler::estimate_cost(self)
    }

    /// Validates this request exactly as the pipeline will — option
    /// thresholds first ([`PrepareOptions::validate`]), then the payload
    /// against the register (length/digits, finiteness, nonzero norm at
    /// the request's tolerance) through the same
    /// [`StateDd`](mdq_dd::StateDd) pre-validation the
    /// [`Preparer`](mdq_core::Preparer) runs. The
    /// [`EngineService`](crate::EngineService) calls this at **admission**,
    /// so a malformed request fails its handle immediately instead of
    /// occupying a queue slot and a worker.
    ///
    /// # Errors
    ///
    /// The identical [`PrepareError`] the sequential pipeline would return,
    /// in the identical precedence order.
    pub fn validate(&self) -> Result<(), PrepareError> {
        self.options.validate()?;
        // Only the tolerance feeds validation (node limits gate the build,
        // not the payload), matching the worker's build options.
        let build_opts = BuildOptions::default().tolerance(self.options.tolerance);
        match &self.payload {
            StatePayload::Dense(amplitudes) => {
                StateDd::validate_amplitudes(&self.dims, amplitudes, build_opts)?;
            }
            StatePayload::Sparse(entries) => {
                StateDd::validate_sparse(&self.dims, entries, build_opts)?;
            }
        }
        Ok(())
    }

    /// Runs this request through the one-shot sequential pipeline
    /// ([`prepare`] or [`prepare_sparse`], by payload) — the reference the
    /// engine's output is bit-identical to, and the single dispatch point
    /// shared by the determinism tests and benchmarks.
    ///
    /// # Errors
    ///
    /// Returns [`PrepareError`] as the underlying pipeline does.
    pub fn prepare_sequential(&self) -> Result<PreparationResult, PrepareError> {
        match &self.payload {
            StatePayload::Dense(amplitudes) => prepare(&self.dims, amplitudes, self.options),
            StatePayload::Sparse(entries) => prepare_sparse(&self.dims, entries, self.options),
        }
    }
}

/// The engine's answer to one [`PrepareRequest`]: the synthesized circuit,
/// its Table-1 metrics, and how the job was served.
///
/// The circuit (and the structural fields of the report) are bit-identical
/// to what a sequential [`mdq_core::prepare`] call would produce for the
/// same request, regardless of worker count, scheduling order, or whether
/// the job was answered from the cache. A cached report carries the
/// `time`/`total_time` durations of the run that originally computed it;
/// [`PrepareReport::elapsed`] is always the serving time of *this* job.
#[derive(Debug, Clone)]
pub struct PrepareReport {
    /// The synthesized preparation circuit.
    pub circuit: Circuit,
    /// The pipeline metrics (the paper's Table-1 columns).
    pub report: SynthesisReport,
    /// The replay-verification outcome: `Some` when this serving carries a
    /// verification — freshly measured, or recorded on the cache entry the
    /// job was answered from (so a cached report always discloses whether
    /// the entry was verified). `None` on unverified servings.
    pub verification: Option<VerificationReport>,
    /// Whether the job was answered from the prepared-circuit cache.
    pub from_cache: bool,
    /// Wall-clock time this job spent in its worker (cache lookup included).
    pub elapsed: Duration,
    /// Time between submission and a worker picking the job up — the
    /// latency-under-load observable of the streaming service (zero when
    /// the job was served synchronously, e.g. in unit helpers). Includes
    /// [`PrepareReport::admission_wait`] when the submitter parked.
    pub queue_wait: Duration,
    /// Time this job's blocking submitter spent **parked on the admission
    /// ticket queue** before the job entered the scheduler — the wait
    /// provenance of bounded admission
    /// ([`EngineConfig::with_queue_depth`](crate::EngineConfig)). Zero for
    /// jobs admitted without parking (free slot, unbounded queue, or the
    /// non-blocking [`try_submit`](crate::EngineService::try_submit)
    /// path, which refuses instead of parking).
    pub admission_wait: Duration,
}
