//! The persistent, non-blocking preparation service.
//!
//! An [`EngineService`] spawns its worker pool **once** at construction and
//! keeps each worker's warmed [`Preparer`](mdq_core::Preparer) — diagram
//! arena, unique table, weight table, compute cache — alive across
//! submissions. Callers stream requests in through [`EngineService::submit`]
//! (never blocking on the pipeline) and await each result through the
//! returned [`JobHandle`]. Admission answers cache hits on the submitting
//! thread; only misses enter the [`scheduler`](crate::scheduler), which
//! decides the execution order without ever changing the result, which
//! stays bit-identical to the sequential pipeline for every job.
//!
//! Everything is built on `std` synchronization primitives (mpsc channels,
//! mutex + condvar) — no external async runtime, consistent with the
//! repository's vendored-dependency constraint.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use mdq_core::{PrepareError, PrepareOptions, Preparer, VerificationReport};

use crate::cache::{canonical_key, CachedPreparation, CanonicalKey, CircuitCache};
use crate::engine::{EngineConfig, EngineStats};
use crate::request::{PrepareReport, PrepareRequest, StatePayload};
use crate::scheduler::{Job, PushRefusal, Scheduler};
use crate::snapshot::{self, SnapshotError, SnapshotLoad};

/// Unified error type of the service: either the pipeline itself failed,
/// or the service refused / stopped before (or instead of) running the
/// job, or the result failed its demanded verification.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The preparation pipeline rejected or failed the job.
    Prepare(PrepareError),
    /// The service was shut down (or dropped) while this job was still
    /// queued; it was never run.
    Shutdown,
    /// The job was submitted after the service had stopped accepting work.
    QueueClosed,
    /// Admission control refused the job: the scheduler queue was at its
    /// configured bound ([`EngineConfig::with_queue_depth`]) when
    /// [`EngineService::try_submit`] ran. The job was never queued. Only
    /// cache misses can be refused this way: a hit is answered at
    /// admission and takes no queue slot.
    QueueFull {
        /// Jobs queued at the moment of refusal.
        depth: usize,
        /// The configured queue bound.
        limit: usize,
    },
    /// The job ran, but the replayed circuit's fidelity against the
    /// requested target fell below the demanded
    /// [`VerificationPolicy`](mdq_core::VerificationPolicy) floor.
    VerificationFailed {
        /// The fidelity actually measured by the replay.
        fidelity: f64,
        /// The minimum the request demanded.
        threshold: f64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Prepare(e) => write!(f, "preparation failed: {e}"),
            EngineError::Shutdown => write!(f, "engine service shut down before the job ran"),
            EngineError::QueueClosed => {
                write!(f, "engine service no longer accepts submissions")
            }
            EngineError::QueueFull { depth, limit } => {
                write!(f, "admission refused: queue at {depth} of {limit} slots")
            }
            EngineError::VerificationFailed {
                fidelity,
                threshold,
            } => {
                write!(
                    f,
                    "verification failed: replay fidelity {fidelity} below threshold {threshold}"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Prepare(e) => Some(e),
            EngineError::Shutdown
            | EngineError::QueueClosed
            | EngineError::QueueFull { .. }
            | EngineError::VerificationFailed { .. } => None,
        }
    }
}

impl From<PrepareError> for EngineError {
    fn from(e: PrepareError) -> Self {
        EngineError::Prepare(e)
    }
}

/// A refused [`EngineService::try_submit`]: the request is handed back
/// untouched (so the caller can retry, reroute, or shed it) together with
/// the refusal — [`EngineError::QueueFull`] or [`EngineError::QueueClosed`].
///
/// Nothing about a refused submission outlives this value: the job was
/// never queued, no [`JobHandle`] exists for it, and the per-job reply
/// channel is torn down before the error is returned — dropping an
/// `AdmissionError` cannot deadlock a worker or leak a channel.
#[derive(Debug)]
pub struct AdmissionError {
    /// The rejected request, returned to the caller by value.
    pub request: PrepareRequest,
    /// Why admission was refused.
    pub error: EngineError,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.error)
    }
}

impl std::error::Error for AdmissionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// The caller's side of one submission: a future-like handle resolving to
/// the job's [`PrepareReport`].
///
/// A queued job's handle polls a dedicated mpsc channel; a job answered at
/// admission (a cache hit or a malformed request) gets a handle that is
/// resolved from the start and has no channel. Once a result has been
/// received it is retained, so [`JobHandle::try_wait`] and
/// [`JobHandle::wait_timeout`] can be called repeatedly and
/// [`JobHandle::wait`] consumes the handle for the final by-value result.
/// Dropping a handle abandons the job's result (the job itself still
/// runs); it never blocks the service.
#[derive(Debug)]
pub struct JobHandle {
    /// The reply channel of a queued job; `None` when resolved at admission.
    rx: Option<Receiver<Result<PrepareReport, EngineError>>>,
    outcome: Option<Result<PrepareReport, EngineError>>,
}

impl JobHandle {
    pub(crate) fn new(rx: Receiver<Result<PrepareReport, EngineError>>) -> Self {
        JobHandle {
            rx: Some(rx),
            outcome: None,
        }
    }

    /// A handle resolved at admission, without a channel.
    fn resolved(outcome: Result<PrepareReport, EngineError>) -> Self {
        JobHandle {
            rx: None,
            outcome: Some(outcome),
        }
    }

    /// Non-blocking poll: `Some` once the job has finished (or the service
    /// stopped), `None` while it is still queued or running.
    pub fn try_wait(&mut self) -> Option<&Result<PrepareReport, EngineError>> {
        if let (None, Some(rx)) = (&self.outcome, &self.rx) {
            match rx.try_recv() {
                Ok(result) => self.outcome = Some(result),
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) => {
                    self.outcome = Some(Err(EngineError::Shutdown));
                }
            }
        }
        self.outcome.as_ref()
    }

    /// Blocks for at most `timeout` for the result; `None` on timeout.
    /// Like [`JobHandle::try_wait`], repeatable — the result is retained.
    pub fn wait_timeout(
        &mut self,
        timeout: Duration,
    ) -> Option<&Result<PrepareReport, EngineError>> {
        if let (None, Some(rx)) = (&self.outcome, &self.rx) {
            match rx.recv_timeout(timeout) {
                Ok(result) => self.outcome = Some(result),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    self.outcome = Some(Err(EngineError::Shutdown));
                }
            }
        }
        self.outcome.as_ref()
    }

    /// Blocks until the job resolves and returns its result by value.
    ///
    /// # Errors
    ///
    /// [`EngineError::Prepare`] if the pipeline failed,
    /// [`EngineError::Shutdown`]/[`EngineError::QueueClosed`] if the
    /// service stopped before serving the job.
    pub fn wait(mut self) -> Result<PrepareReport, EngineError> {
        if let Some(result) = self.outcome.take() {
            return result;
        }
        match self.rx.as_ref().map(Receiver::recv) {
            Some(Ok(result)) => result,
            // Workers dropped the sender without replying: the service
            // went away (or a worker died) before this job resolved.
            _ => Err(EngineError::Shutdown),
        }
    }
}

/// What admission makes of a request before the scheduler sees it.
enum Admission {
    /// Resolved on the submitting thread: a validation failure, or a cache
    /// hit with its verification verdict.
    Answered(Result<PrepareReport, EngineError>),
    /// The service no longer accepts work.
    Closed,
    /// A cache miss, to be queued with the key it was probed under.
    Miss(Option<(u64, CanonicalKey)>),
}

/// Per-worker telemetry slots, written by the worker after every job and
/// summed by [`EngineService::stats`] — long-lived workers never hand
/// their [`Preparer`](mdq_core::Preparer) back, so the gauges travel
/// through these atomics instead.
#[derive(Debug, Default)]
struct WorkerSlot {
    weight_lookups: AtomicU64,
    weight_insertions: AtomicU64,
}

#[derive(Debug)]
struct ServiceShared {
    config: EngineConfig,
    scheduler: Scheduler,
    cache: CircuitCache,
    /// Submission sequence — the deterministic FIFO tie-breaker.
    seq: AtomicU64,
    jobs: AtomicU64,
    failures: AtomicU64,
    /// Submissions refused by admission control ([`EngineError::QueueFull`]).
    rejected: AtomicU64,
    /// Jobs served with a passing verification attached.
    verified: AtomicU64,
    /// Jobs whose replay fidelity fell below the demanded floor.
    verification_failures: AtomicU64,
    /// Jobs whose pipeline ran on a worker's *retained* scratch arena —
    /// the observable proof of worker persistence across submissions.
    arena_reuses: AtomicU64,
    workers: Vec<WorkerSlot>,
    /// Outcome of the construction-time warm-start load: `None` when no
    /// [`EngineConfig::warm_start`] path was set or the file did not exist
    /// yet (a silent cold start), `Some` with the load result otherwise.
    warm_start_load: Option<Result<SnapshotLoad, SnapshotError>>,
}

impl ServiceShared {
    /// Threshold gate shared by the fresh and cached serving paths: `Ok`
    /// when the request demands no verification or the measured fidelity
    /// clears the floor, [`EngineError::VerificationFailed`] otherwise.
    ///
    /// The floor is capped at `1 − tolerance`, with the request's own
    /// tolerance: exact circuits replay a rounding error below 1, so a
    /// floor of exactly 1 would otherwise refuse correct circuits. Floors
    /// below the cap are compared as given.
    fn check_verification(
        &self,
        options: &PrepareOptions,
        verification: Option<&VerificationReport>,
    ) -> Result<(), EngineError> {
        let Some(threshold) = options.verification.min_fidelity() else {
            return Ok(());
        };
        let measured = verification
            .expect("verification demanded, so a report was measured or served")
            .fidelity;
        if measured < threshold.min(1.0 - options.tolerance.value()) {
            self.verification_failures.fetch_add(1, Ordering::Relaxed);
            return Err(EngineError::VerificationFailed {
                fidelity: measured,
                threshold,
            });
        }
        self.verified.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Admission, on the submitting thread: validate, refuse when closed,
    /// key the request, and probe the cache once. A malformed request
    /// fails with the identical [`PrepareError`] the pipeline would have
    /// produced, counted as a failure; a hit is answered from the shared
    /// entry, copying no circuit, and its `elapsed` times that answer from
    /// the probe on. Neither takes a queue slot.
    fn admit(&self, request: &PrepareRequest) -> Admission {
        if let Err(error) = request.validate() {
            self.failures.fetch_add(1, Ordering::Relaxed);
            return Admission::Answered(Err(EngineError::Prepare(error)));
        }
        if self.scheduler.is_closed() {
            return Admission::Closed;
        }
        if !self.config.use_cache {
            return Admission::Miss(None);
        }
        let Some((fingerprint, key)) = canonical_key(request) else {
            return Admission::Miss(None);
        };
        // A verified request never silently reuses an unverified entry:
        // `get` skips entries without a verification report when one is
        // demanded (counted as a miss), so the worker re-runs the pipeline
        // and upgrades the entry.
        let verified = request.options.verification.is_enabled();
        let answering = Instant::now();
        let Some(cached) = self.cache.get(fingerprint, &key, verified) else {
            return Admission::Miss(Some((fingerprint, key)));
        };
        let outcome = self
            .check_verification(&request.options, cached.verification.as_ref())
            .map(|()| {
                self.jobs.fetch_add(1, Ordering::Relaxed);
                PrepareReport {
                    circuit: Arc::clone(&cached.circuit),
                    report: cached.report.clone(),
                    verification: cached.verification.clone(),
                    from_cache: true,
                    elapsed: answering.elapsed(),
                    queue_wait: Duration::ZERO,
                    admission_wait: Duration::ZERO,
                }
            });
        Admission::Answered(outcome)
    }

    /// Pipeline → replay verification (when the request demands it) →
    /// cache fill under the admission key → threshold gate, on one
    /// worker's preparer: the miss path, the only work a worker does.
    fn serve(
        &self,
        preparer: &mut Preparer,
        request: &PrepareRequest,
        key: Option<(u64, CanonicalKey)>,
    ) -> Result<PrepareReport, EngineError> {
        let warm_start = preparer.has_scratch();
        let outcome = match &request.payload {
            StatePayload::Dense(amplitudes) => {
                preparer.prepare(&request.dims, amplitudes, request.options)
            }
            StatePayload::Sparse(entries) => {
                preparer.prepare_sparse(&request.dims, entries, request.options)
            }
        };
        let result = match outcome {
            Ok(result) => result,
            Err(error) => {
                self.failures.fetch_add(1, Ordering::Relaxed);
                return Err(EngineError::Prepare(error));
            }
        };
        if warm_start {
            self.arena_reuses.fetch_add(1, Ordering::Relaxed);
        }
        let verification = if request.options.verification.is_enabled() {
            let measured = match &request.payload {
                StatePayload::Dense(amplitudes) => {
                    preparer.verify_dense(&result.circuit, amplitudes)
                }
                StatePayload::Sparse(entries) => {
                    preparer.verify_sparse(&result.circuit, entries, request.options.tolerance)
                }
            };
            match measured {
                Ok(report) => Some(report),
                Err(error) => {
                    self.failures.fetch_add(1, Ordering::Relaxed);
                    // The pipeline itself succeeded: reclaim the result's
                    // arena so a failing replay never costs this worker
                    // its warmed scratch state.
                    preparer.recycle(result);
                    return Err(EngineError::Prepare(error));
                }
            }
        } else {
            None
        };
        let (circuit, report) = preparer.recycle(result);
        let circuit = Arc::new(circuit);
        if let Some((fingerprint, key)) = key {
            // Filled even when the threshold check below fails: the
            // circuit itself is valid and the measured fidelity is part of
            // the entry, so identical verified requests fail fast at
            // admission with the same verdict.
            self.cache.insert(
                fingerprint,
                key,
                Arc::new(CachedPreparation {
                    circuit: Arc::clone(&circuit),
                    report: report.clone(),
                    verification: verification.clone(),
                }),
            );
        }
        self.check_verification(&request.options, verification.as_ref())?;
        self.jobs.fetch_add(1, Ordering::Relaxed);
        Ok(PrepareReport {
            circuit,
            report,
            verification,
            from_cache: false,
            elapsed: Duration::default(),
            queue_wait: Duration::default(),
            admission_wait: Duration::default(),
        })
    }

    /// The loop of one persistent worker: pop, serve, reply, publish
    /// telemetry — until the scheduler signals exit.
    fn worker_loop(&self, slot: usize) {
        let mut preparer = match self.config.node_limit {
            Some(limit) => Preparer::new().with_node_limit(limit),
            None => Preparer::new(),
        };
        let slot = &self.workers[slot];
        // Last-seen weight-table counters of the worker's scratch arena.
        // Counters are cumulative within one arena but some pipeline paths
        // (e.g. approximating an unreduced tree) swap in a fresh arena, so
        // telemetry is published as per-job deltas instead of raw gauges.
        let mut seen = (0u64, 0u64);
        while let Some(job) = self.scheduler.pop() {
            let queue_wait = job.submitted_at.elapsed();
            let started = Instant::now();
            let mut outcome = self.serve(&mut preparer, &job.request, job.key);
            if let Ok(report) = &mut outcome {
                report.elapsed = started.elapsed();
                report.queue_wait = queue_wait;
                report.admission_wait = job.admission_wait;
            }
            // A dropped handle is not an error — the caller abandoned the
            // result, not the job.
            let _ = job.reply.send(outcome);
            if let Some(stats) = preparer.weight_stats() {
                let (lookups, insertions) = if stats.lookups >= seen.0 && stats.insertions >= seen.1
                {
                    (stats.lookups - seen.0, stats.insertions - seen.1)
                } else {
                    // The scratch arena was replaced this job; its
                    // counters restarted from zero.
                    (stats.lookups, stats.insertions)
                };
                seen = (stats.lookups, stats.insertions);
                slot.weight_lookups.fetch_add(lookups, Ordering::Relaxed);
                slot.weight_insertions
                    .fetch_add(insertions, Ordering::Relaxed);
            }
        }
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            jobs: self.jobs.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            verified: self.verified.load(Ordering::Relaxed),
            verification_failures: self.verification_failures.load(Ordering::Relaxed),
            high_watermark: self.scheduler.high_watermark(),
            cache: self.cache.stats(),
            weight_lookups: self
                .workers
                .iter()
                .map(|w| w.weight_lookups.load(Ordering::Relaxed))
                .sum(),
            weight_insertions: self
                .workers
                .iter()
                .map(|w| w.weight_insertions.load(Ordering::Relaxed))
                .sum(),
            arena_reuses: self.arena_reuses.load(Ordering::Relaxed),
            queued: self.scheduler.len(),
            parked: self.scheduler.parked(),
        }
    }
}

/// Scheduler kill switch armed for the duration of a worker's loop: runs
/// only when the worker is *unwinding*, so a panicking worker degrades the
/// service into clean `Shutdown` errors instead of hung handles.
struct AbortOnPanic<'a>(&'a ServiceShared);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.scheduler.abort();
        }
    }
}

/// A persistent, non-blocking preparation service; see the
/// [crate documentation](crate) for the architecture.
///
/// The worker pool is spawned once in [`EngineService::new`] and lives
/// until [`EngineService::shutdown`], [`EngineService::shutdown_now`] or
/// `Drop`. Submissions stream in through [`EngineService::submit`] /
/// [`EngineService::submit_batch`] and resolve through per-job
/// [`JobHandle`]s, scheduled by the configured
/// [`SchedulingPolicy`](crate::SchedulingPolicy).
///
/// # Examples
///
/// ```
/// use mdq_engine::{EngineConfig, EngineService, PrepareRequest, Priority};
/// use mdq_core::PrepareOptions;
/// use mdq_num::radix::Dims;
/// use mdq_states::ghz;
///
/// let service = EngineService::new(EngineConfig::default().with_workers(2));
/// let dims = Dims::new(vec![3, 3])?;
/// let handle = service.submit(
///     PrepareRequest::dense(dims.clone(), ghz(&dims), PrepareOptions::exact())
///         .with_priority(Priority::High),
/// );
/// let report = handle.wait()?;
/// assert!(!report.circuit.is_empty());
/// service.shutdown(); // drains queued work, then joins the pool
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct EngineService {
    shared: Arc<ServiceShared>,
    pool: Vec<JoinHandle<()>>,
}

impl EngineService {
    /// Spawns the worker pool (once — it persists across submissions) and
    /// returns the ready service.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        let workers = config.workers.max(1);
        let cache = CircuitCache::with_capacity(config.cache_shards, config.cache_capacity);
        // Warm start: replay the snapshot into the cache before any worker
        // runs. A missing file is a silent cold start (first boot and warm
        // restart share one configuration); an unreadable or corrupt file
        // is kept as an inspectable error, never a panic — the service
        // simply starts cold.
        let warm_start_load = config
            .warm_start
            .as_ref()
            .and_then(|path| path.exists().then(|| snapshot::load_into(&cache, path)));
        let shared = Arc::new(ServiceShared {
            scheduler: Scheduler::new(config.scheduling, config.queue_depth, config.aging),
            cache,
            warm_start_load,
            seq: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            verified: AtomicU64::new(0),
            verification_failures: AtomicU64::new(0),
            arena_reuses: AtomicU64::new(0),
            workers: (0..workers).map(|_| WorkerSlot::default()).collect(),
            config,
        });
        let pool = (0..workers)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("mdq-engine-worker-{slot}"))
                    .spawn(move || {
                        // If the loop unwinds, fail the whole service
                        // rather than hang it: aborting the scheduler
                        // resolves every queued (and future) handle to
                        // `Shutdown` instead of leaving callers blocked on
                        // a reply that will never come.
                        let abort_guard = AbortOnPanic(&shared);
                        shared.worker_loop(slot);
                        drop(abort_guard);
                    })
                    .expect("spawning engine worker")
            })
            .collect();
        EngineService { shared, pool }
    }

    /// A service with the default configuration.
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::new(EngineConfig::default())
    }

    /// The service's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.shared.config
    }

    /// The prepared-circuit cache (e.g. to pre-warm or clear it).
    #[must_use]
    pub fn cache(&self) -> &CircuitCache {
        &self.shared.cache
    }

    /// Aggregate counters, cumulative since construction. The cache
    /// counters are read without locking a cache shard
    /// ([`CircuitCache::stats`]), so an aggregator polling many services
    /// (the `mdq-router` front-end) never contends with cache probes.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.shared.stats()
    }

    /// Outcome of the construction-time warm-start load: `None` when no
    /// [`EngineConfig::warm_start`] path was configured or the snapshot
    /// file did not exist yet, `Some(Ok(load))` with the loaded/skipped
    /// counts and load time otherwise, `Some(Err(_))` when the file was
    /// present but rejected (the service started cold).
    #[must_use]
    pub fn warm_start_load(&self) -> Option<&Result<SnapshotLoad, SnapshotError>> {
        self.shared.warm_start_load.as_ref()
    }

    /// A queued miss and the handle its worker will resolve.
    fn queued(
        request: PrepareRequest,
        key: Option<(u64, CanonicalKey)>,
        submitted_at: Instant,
    ) -> (Job, JobHandle) {
        let (reply, rx) = channel();
        let job = Job {
            request,
            key,
            submitted_at,
            admission_wait: Duration::ZERO,
            reply,
        };
        (job, JobHandle::new(rx))
    }

    /// Submits one request and returns its handle.
    ///
    /// Admission runs on the calling thread, in order: the request is
    /// validated, a stopped service refuses it with
    /// [`EngineError::QueueClosed`], and, with the cache on, the request
    /// is keyed ([`canonical_key`]) and the cache probed once. A cache hit
    /// returns a handle that is already resolved: it never queues, never
    /// parks, and never reaches a worker (see [`PrepareReport`] for its
    /// timing fields). A malformed request (payload or options the
    /// pipeline would reject) likewise fails its handle at once with the
    /// identical [`EngineError::Prepare`] error, without consuming a
    /// queue slot.
    ///
    /// A miss is enqueued with its key and runs when the scheduler picks
    /// it, ordered by [`Priority`](crate::Priority) / size under the
    /// default policy, with wait-time aging ([`EngineConfig::aging`])
    /// guaranteeing no accepted job starves. On an unbounded queue (the
    /// default) this never blocks. With [`EngineConfig::with_queue_depth`]
    /// set, a miss that finds the queue full **parks on the admission
    /// ticket queue until space frees** — the backpressure submission
    /// path. Admission is FIFO-fair: slots freed by workers are handed to
    /// parked submitters strictly in arrival order, and a concurrent
    /// [`try_submit`](EngineService::try_submit) flood is refused rather
    /// than allowed to steal an owed slot, so every parked submitter's
    /// wait is bounded by the pops ahead of its ticket. The time spent
    /// parked is reported per job as
    /// [`PrepareReport::admission_wait`](crate::PrepareReport) and in
    /// aggregate as [`EngineStats::parked`](crate::EngineStats). Callers
    /// that must not block use `try_submit` instead.
    pub fn submit(&self, request: PrepareRequest) -> JobHandle {
        let submitted_at = Instant::now();
        match self.shared.admit(&request) {
            Admission::Answered(outcome) => JobHandle::resolved(outcome),
            Admission::Closed => JobHandle::resolved(Err(EngineError::QueueClosed)),
            Admission::Miss(key) => {
                let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
                let (job, handle) = Self::queued(request, key, submitted_at);
                self.shared.scheduler.push(job, seq);
                handle
            }
        }
    }

    /// Non-blocking submission. Admission runs as in
    /// [`submit`](EngineService::submit): a malformed request or a cache
    /// hit returns `Ok` with a handle that is already resolved, and a hit
    /// is never refused [`EngineError::QueueFull`], because it takes no
    /// queue slot. A miss is enqueued if the scheduler queue has room
    /// **and no blocking submitters are parked**, or returned to the
    /// caller inside an [`AdmissionError`] — [`EngineError::QueueFull`]
    /// when the [`EngineConfig::with_queue_depth`] bound is hit or a
    /// parked `submit` holds a ticket for the next freed slot (counted in
    /// [`EngineStats::rejected`](crate::EngineStats)). Refusing while
    /// tickets are outstanding is what makes bounded admission FIFO-fair:
    /// a non-blocking flood sheds load instead of starving parked
    /// submitters. A stopped service refuses every valid request, hit or
    /// miss, with [`EngineError::QueueClosed`]. A refused job is never
    /// queued and leaves no handle or channel behind.
    ///
    /// # Errors
    ///
    /// [`AdmissionError`] carrying the request back, as above.
    // The large Err variant is deliberate: the refused request is returned
    // to the caller by value so it can be retried or rerouted.
    #[allow(clippy::result_large_err)]
    pub fn try_submit(&self, request: PrepareRequest) -> Result<JobHandle, AdmissionError> {
        let submitted_at = Instant::now();
        let key = match self.shared.admit(&request) {
            Admission::Answered(outcome) => return Ok(JobHandle::resolved(outcome)),
            Admission::Closed => {
                return Err(AdmissionError {
                    request,
                    error: EngineError::QueueClosed,
                })
            }
            Admission::Miss(key) => key,
        };
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        let (job, handle) = Self::queued(request, key, submitted_at);
        match self.shared.scheduler.try_push(job, seq) {
            Ok(()) => Ok(handle),
            Err((job, refusal)) => {
                let error = match refusal {
                    PushRefusal::Full { depth, limit } => {
                        self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                        EngineError::QueueFull { depth, limit }
                    }
                    PushRefusal::Closed => EngineError::QueueClosed,
                };
                // The handle and the job's reply sender both die right
                // here: nothing of a refused submission reaches the queue
                // or a worker, so dropping the error cannot leak or
                // deadlock.
                Err(AdmissionError {
                    request: job.request,
                    error,
                })
            }
        }
    }

    /// Enqueues a whole batch, returning one handle per request in the
    /// same order. Sugar for repeated [`EngineService::submit`] calls;
    /// waiting on the handles in order yields the results in request
    /// order, independent of worker count and scheduling.
    pub fn submit_batch<I>(&self, requests: I) -> Vec<JobHandle>
    where
        I: IntoIterator<Item = PrepareRequest>,
    {
        requests.into_iter().map(|r| self.submit(r)).collect()
    }

    /// Graceful shutdown: stops accepting submissions, **drains** every
    /// queued job, then joins the worker pool. All outstanding handles
    /// resolve with their real results. With
    /// [`EngineConfig::with_warm_start`] configured, the drained cache is
    /// then snapshotted back to the warm-start path (best-effort: a
    /// failed write is ignored — the next boot is simply colder), so a
    /// restart replays this process's accumulated work.
    pub fn shutdown(mut self) {
        self.shared.scheduler.close();
        self.join_pool();
        if let Some(path) = &self.shared.config.warm_start {
            let _ = snapshot::save(&self.shared.cache, path);
        }
    }

    /// Immediate shutdown: stops accepting submissions and **aborts** the
    /// queue — every still-queued job resolves to
    /// [`EngineError::Shutdown`]; jobs already running finish and deliver.
    /// This is also the `Drop` behaviour.
    pub fn shutdown_now(mut self) {
        self.shared.scheduler.abort();
        self.join_pool();
    }

    fn join_pool(&mut self) {
        let mut worker_panicked = false;
        for handle in self.pool.drain(..) {
            worker_panicked |= handle.join().is_err();
        }
        // Surface a worker panic to the caller — but never panic while
        // already unwinding (that would abort the process in `Drop`).
        if worker_panicked && !thread::panicking() {
            panic!("engine worker panicked");
        }
    }
}

impl Drop for EngineService {
    /// Dropping the service aborts queued jobs (handles resolve to
    /// [`EngineError::Shutdown`]) and joins the pool — never hangs on a
    /// deep queue, never leaks threads.
    fn drop(&mut self) {
        if !self.pool.is_empty() {
            self.shared.scheduler.abort();
            self.join_pool();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{PopHook, Priority, SchedulingPolicy};
    use mdq_core::PrepareOptions;
    use mdq_num::radix::Dims;
    use mdq_states::{ghz, w_state};
    use rand::SeedableRng;

    fn dims(v: &[usize]) -> Dims {
        Dims::new(v.to_vec()).unwrap()
    }

    /// Dense exact and approximated, sparse, and zero-pruned requests at
    /// mixed priorities, plus a bit-identical duplicate of the first
    /// (cache-hit probe).
    fn mixed_batch() -> Vec<PrepareRequest> {
        let d3 = dims(&[3, 6, 2]);
        let d2 = dims(&[4, 3]);
        let mut batch = vec![
            PrepareRequest::dense(d3.clone(), ghz(&d3), PrepareOptions::exact()),
            PrepareRequest::dense(d3.clone(), w_state(&d3), PrepareOptions::approximated(0.98))
                .with_priority(Priority::High),
            PrepareRequest::sparse(
                d3.clone(),
                mdq_states::sparse::w_state(&d3),
                PrepareOptions::exact(),
            )
            .with_priority(Priority::Low),
            PrepareRequest::dense(
                d2.clone(),
                ghz(&d2),
                PrepareOptions::exact().without_zero_subtrees(),
            ),
        ];
        batch.push(batch[0].clone());
        batch
    }

    /// Waits on every handle, returning the results in request order.
    fn wait_all(handles: Vec<JobHandle>) -> Vec<Result<PrepareReport, EngineError>> {
        handles.into_iter().map(JobHandle::wait).collect()
    }

    #[test]
    fn submit_resolves_like_sequential_prepare() {
        let requests = mixed_batch();
        let expected: Vec<_> = requests
            .iter()
            .map(|r| r.prepare_sequential().expect("reference runs").circuit)
            .collect();
        // 16 workers outnumber the jobs: the idle ones must not matter.
        for workers in [1, 2, 4, 16] {
            let service = EngineService::new(EngineConfig::default().with_workers(workers));
            let results = wait_all(service.submit_batch(requests.clone()));
            assert_eq!(results.len(), requests.len());
            for (i, (result, want)) in results.iter().zip(&expected).enumerate() {
                let report = result.as_ref().expect("job succeeds");
                assert_eq!(&*report.circuit, want, "request {i} at {workers} workers");
            }
            assert_eq!(service.stats().jobs, requests.len() as u64);
            assert!(service.submit_batch(Vec::new()).is_empty());
            service.shutdown();
        }
    }

    #[test]
    fn duplicate_requests_hit_the_cache() {
        let requests = mixed_batch();
        let service = EngineService::new(EngineConfig::default().with_workers(1));
        // Request 4 duplicates request 0. The cache is probed at
        // admission, so a duplicate submitted while its twin is still
        // queued computes too; submitted after its twin resolved, it hits.
        let mut cold = wait_all(service.submit_batch(requests[..4].iter().cloned()));
        cold.push(service.submit(requests[4].clone()).wait());
        let (first, duplicate) = (cold[0].as_ref().unwrap(), cold[4].as_ref().unwrap());
        assert!(!first.from_cache);
        assert!(duplicate.from_cache);
        assert_eq!(first.circuit, duplicate.circuit);
        let warm = wait_all(service.submit_batch(requests.clone()));
        for (cold_r, warm_r) in cold.iter().zip(&warm) {
            let warm_r = warm_r.as_ref().unwrap();
            assert!(warm_r.from_cache, "warm batch is served from cache");
            assert_eq!(cold_r.as_ref().unwrap().circuit, warm_r.circuit);
        }
        let stats = service.stats();
        assert_eq!(stats.jobs, 2 * requests.len() as u64);
        assert_eq!(stats.cache.hits, requests.len() as u64 + 1);
        assert_eq!(stats.cache.misses, 4, "each distinct key missed once");
        assert_eq!(stats.cache.entries, 4, "four distinct keys stored");
        assert!(stats.weight_lookups > 0, "arena telemetry aggregated");
        assert!(stats.arena_reuses > 0, "worker arenas persisted");
        service.shutdown();
    }

    #[test]
    fn cache_can_be_disabled() {
        let requests = mixed_batch();
        let service = EngineService::new(EngineConfig::default().with_workers(2).without_cache());
        let first = wait_all(service.submit_batch(requests.clone()));
        let second = wait_all(service.submit_batch(requests));
        for (a, b) in first.iter().zip(&second) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert!(!a.from_cache && !b.from_cache);
            assert_eq!(a.circuit, b.circuit);
        }
        assert_eq!(service.stats().cache, crate::CacheStats::default());
        service.shutdown();
    }

    #[test]
    fn node_limit_is_enforced_per_job() {
        let d = dims(&[3, 6, 2]);
        let service =
            EngineService::new(EngineConfig::default().with_workers(1).with_node_limit(2));
        let result = service
            .submit(PrepareRequest::dense(
                d.clone(),
                w_state(&d),
                PrepareOptions::exact().without_zero_subtrees(),
            ))
            .wait();
        assert!(matches!(
            result,
            Err(EngineError::Prepare(PrepareError::Build(_)))
        ));
        service.shutdown();
    }

    #[test]
    fn tree_metric_reports_do_not_alias_sparse_cache_entries() {
        // `prepare` honors keep_zero_subtrees (nodes_initial = full tree),
        // `prepare_sparse` ignores it; a sparse job must not fill a cache
        // entry that a dense tree-metric request would then be served.
        let d = dims(&[2, 2]);
        let a = mdq_num::Complex::real(0.5f64.sqrt());
        let mut amps = vec![mdq_num::Complex::ZERO; 4];
        amps[d.index_of(&[0, 0])] = a;
        amps[d.index_of(&[1, 1])] = a;
        let sparse = PrepareRequest::sparse(
            d.clone(),
            vec![(vec![0, 0], a), (vec![1, 1], a)],
            PrepareOptions::exact(),
        );
        let dense = PrepareRequest::dense(d, amps, PrepareOptions::exact());
        let expected = dense.prepare_sequential().unwrap();
        // The cache is probed at admission: the sparse job resolves first,
        // so its entry is in the cache before the dense request probes.
        let service = EngineService::new(EngineConfig::default().with_workers(1));
        service.submit(sparse).wait().unwrap();
        assert_eq!(service.cache().len(), 1, "the sparse entry is cached");
        let served = &service.submit(dense).wait().unwrap();
        assert!(!served.from_cache, "tree-metric request must not alias");
        assert_eq!(served.report.nodes_initial, expected.report.nodes_initial);
        assert_eq!(*served.circuit, expected.circuit);
        service.shutdown();
    }

    #[test]
    fn try_wait_polls_without_blocking() {
        let d = dims(&[3, 3]);
        let service = EngineService::new(EngineConfig::default().with_workers(1));
        let mut handle = service.submit(PrepareRequest::dense(
            d.clone(),
            ghz(&d),
            PrepareOptions::exact(),
        ));
        // Poll until resolution; try_wait never blocks.
        let deadline = Instant::now() + Duration::from_secs(30);
        while handle.try_wait().is_none() {
            assert!(Instant::now() < deadline, "job should resolve quickly");
            thread::yield_now();
        }
        // The retained result is observable repeatedly, then consumable.
        assert!(handle.try_wait().unwrap().is_ok());
        assert!(handle.wait_timeout(Duration::from_millis(1)).is_some());
        assert!(handle.wait().is_ok());
    }

    #[test]
    fn wait_timeout_times_out_then_resolves() {
        let d = dims(&[3, 6, 2]);
        let service = EngineService::new(EngineConfig::default().with_workers(1));
        let mut handle = service.submit(PrepareRequest::dense(
            d.clone(),
            w_state(&d),
            PrepareOptions::exact(),
        ));
        // A zero timeout may or may not resolve; a generous one must.
        let _ = handle.wait_timeout(Duration::from_nanos(1));
        assert!(handle.wait_timeout(Duration::from_secs(30)).is_some());
        assert!(handle.wait().is_ok());
    }

    #[test]
    fn pipeline_failures_surface_as_prepare_errors() {
        let d = dims(&[2, 2]);
        let ok = PrepareRequest::dense(d.clone(), ghz(&d), PrepareOptions::exact());
        let bad = PrepareRequest::dense(d, vec![mdq_num::Complex::ONE], PrepareOptions::exact());
        let service = EngineService::new(EngineConfig::default().with_workers(2));
        // The failure surfaces at its own index; its neighbours succeed.
        let results = wait_all(service.submit_batch([ok.clone(), bad, ok]));
        assert!(results[0].is_ok());
        match &results[1] {
            Err(EngineError::Prepare(PrepareError::Build(_))) => {}
            other => panic!("expected a build error, got {other:?}"),
        }
        assert!(results[2].is_ok());
        let stats = service.stats();
        assert_eq!((stats.jobs, stats.failures), (2, 1));
    }

    #[test]
    fn dropped_service_resolves_pending_handles_to_shutdown() {
        let d = dims(&[3, 6, 2]);
        let service = EngineService::new(EngineConfig::default().with_workers(1).without_cache());
        // Enough queued work that most of it is still pending at drop.
        let handles: Vec<JobHandle> = (0..16)
            .map(|_| {
                service.submit(PrepareRequest::dense(
                    d.clone(),
                    w_state(&d),
                    PrepareOptions::exact(),
                ))
            })
            .collect();
        drop(service);
        let mut shutdown = 0;
        for handle in handles {
            match handle.wait() {
                Ok(_) => {}
                Err(EngineError::Shutdown) => shutdown += 1,
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        assert!(shutdown > 0, "queued jobs resolve to Shutdown on drop");
    }

    #[test]
    fn graceful_shutdown_drains_the_queue() {
        let d = dims(&[3, 6, 2]);
        let service = EngineService::new(EngineConfig::default().with_workers(1).without_cache());
        let handles: Vec<JobHandle> = (0..8)
            .map(|_| {
                service.submit(PrepareRequest::dense(
                    d.clone(),
                    ghz(&d),
                    PrepareOptions::exact(),
                ))
            })
            .collect();
        service.shutdown();
        for handle in handles {
            assert!(handle.wait().is_ok(), "drained jobs deliver real results");
        }
    }

    #[test]
    fn zero_duration_wait_timeout_is_a_pure_poll() {
        // Driven through a raw reply channel so the pending/resolved/dead
        // states are fully deterministic (no racing worker).
        let (tx, rx) = channel();
        let mut handle = JobHandle::new(rx);
        // Pending: a zero-duration wait returns None and blocks for nothing.
        assert!(handle.wait_timeout(Duration::ZERO).is_none());
        assert!(handle.try_wait().is_none());
        tx.send(Err(EngineError::Shutdown)).unwrap();
        // Resolved: the zero-duration wait sees the outcome and retains it.
        assert!(matches!(
            handle.wait_timeout(Duration::ZERO),
            Some(Err(EngineError::Shutdown))
        ));
        drop(tx);
        assert!(matches!(
            handle.wait_timeout(Duration::ZERO),
            Some(Err(EngineError::Shutdown))
        ));
        // A handle whose channel died unresolved reads as Shutdown, even
        // with a zero-duration poll.
        let (tx2, rx2) = channel::<Result<PrepareReport, EngineError>>();
        let mut dead = JobHandle::new(rx2);
        drop(tx2);
        assert!(matches!(
            dead.wait_timeout(Duration::ZERO),
            Some(Err(EngineError::Shutdown))
        ));
    }

    #[test]
    fn try_submit_admits_on_an_unbounded_queue() {
        let d = dims(&[3, 3]);
        let service = EngineService::new(EngineConfig::default().with_workers(1));
        let handle = service
            .try_submit(PrepareRequest::dense(
                d.clone(),
                ghz(&d),
                PrepareOptions::exact(),
            ))
            .expect("unbounded queue always admits");
        assert!(handle.wait().is_ok());
        assert_eq!(service.stats().rejected, 0);
        service.shutdown();
    }

    #[test]
    fn rejected_submission_returns_the_request_and_counts() {
        let d = dims(&[9, 5, 6, 3]);
        // One worker, one queue slot: occupy the worker with an expensive
        // job, fill the slot, then flood — rejections must occur, each
        // handing the request back untouched.
        let service = EngineService::new(
            EngineConfig::default()
                .with_workers(1)
                .with_queue_depth(1)
                .without_cache(),
        );
        let busy = service.submit(PrepareRequest::dense(
            d.clone(),
            w_state(&d),
            PrepareOptions::exact(),
        ));
        let cheap_dims = dims(&[2, 2]);
        let cheap = PrepareRequest::dense(
            cheap_dims.clone(),
            ghz(&cheap_dims),
            PrepareOptions::exact(),
        );
        let mut accepted = Vec::new();
        let mut rejections = 0u64;
        for _ in 0..64 {
            match service.try_submit(cheap.clone()) {
                Ok(handle) => accepted.push(handle),
                Err(refused) => {
                    assert_eq!(refused.request, cheap, "request returned by value");
                    assert!(
                        matches!(refused.error, EngineError::QueueFull { limit: 1, .. }),
                        "unexpected refusal: {:?}",
                        refused.error
                    );
                    // Dropping the AdmissionError (and the request inside)
                    // must be inert — regression guard for the
                    // never-queued-job channel.
                    drop(refused);
                    rejections += 1;
                }
            }
        }
        assert!(rejections > 0, "a saturated queue must reject");
        busy.wait().expect("busy job finishes");
        for handle in accepted {
            handle.wait().expect("accepted jobs resolve");
        }
        let stats = service.stats();
        assert_eq!(stats.rejected, rejections);
        assert_eq!(stats.high_watermark, 1, "rejections imply a full queue");
        service.shutdown();
    }

    /// Bounded admission is FIFO-fair end to end. A gate on the scheduler's
    /// pop holds the single worker on a first job while a second takes the
    /// one queue slot, so three blocking submitters park one at a time,
    /// each observed through `EngineStats::parked` before the next arrives,
    /// which pins their ticket order. A burst of `try_submit`s is refused
    /// rather than allowed to steal a slot owed to a parked submitter. Once
    /// the gate opens, the FIFO worker pops the parked submissions in
    /// ticket order, and each reports its park as `admission_wait`.
    #[test]
    fn parked_submitters_admit_in_ticket_order_with_observable_waits() {
        let service = EngineService::new(
            EngineConfig::default()
                .with_workers(1)
                .with_queue_depth(1)
                .with_scheduling(SchedulingPolicy::Fifo)
                .without_cache(),
        );
        // Every job has a register of its own, so the registers the worker
        // pops spell out the pop order.
        let request = |register: &[usize]| {
            let d = dims(register);
            PrepareRequest::dense(d.clone(), ghz(&d), PrepareOptions::exact())
        };
        let (blocker, filler) = (request(&[3, 3]), request(&[2, 2]));
        let submissions: Vec<_> = (0..3).map(|id| request(&[2, 3 + id])).collect();

        let gate = Arc::new(std::sync::Mutex::new(()));
        let (popped_tx, popped) = channel();
        let on_pop: PopHook = {
            let gate = Arc::clone(&gate);
            Box::new(move |job: &Job| {
                let _ = popped_tx.send(job.request.dims.clone());
                // Poisoned when the test failed while holding the gate,
                // which opens it all the same.
                drop(gate.lock());
            })
        };
        assert!(service.shared.scheduler.on_pop.set(on_pop).is_ok());

        let held = gate.lock().expect("the gate is fresh");
        let blocker_handle = service.submit(blocker.clone());
        // The worker holds the blocker at the gate, so the filler takes
        // the single queue slot.
        let first = popped.recv_timeout(Duration::from_secs(30));
        assert_eq!(first.expect("the worker pops the blocker"), blocker.dims);
        let filler_handle = service.submit(filler.clone());

        let mut refused = 0u64;
        let mut parked_seen = 0;
        let submitter_handles: Vec<JobHandle> = thread::scope(|scope| {
            // Moved in so that a failed assertion opens the gate before
            // the scope joins the parked submitters.
            let held = held;
            let mut submitters = Vec::new();
            for (id, submission) in submissions.iter().enumerate() {
                let service = &service;
                submitters.push(scope.spawn(move || service.submit(submission.clone())));
                // Park the submitters strictly one at a time: their
                // tickets, and so their arrival order, are pinned.
                let deadline = Instant::now() + Duration::from_secs(30);
                while service.stats().parked < id + 1 {
                    assert!(Instant::now() < deadline, "submitter {id} must park");
                    thread::yield_now();
                }
            }
            parked_seen = service.stats().parked;
            // With the queue full and three ticket holders parked,
            // non-blocking admission must be refused: a probe can never
            // steal a slot owed to a parked submitter.
            for _ in 0..64 {
                match service.try_submit(filler.clone()) {
                    Ok(_) => panic!("try_submit must not steal a slot owed to a parked submitter"),
                    Err(refusal) => {
                        assert!(
                            matches!(refusal.error, EngineError::QueueFull { limit: 1, .. }),
                            "unexpected refusal: {:?}",
                            refusal.error
                        );
                        refused += 1;
                    }
                }
            }
            drop(held);
            submitters
                .into_iter()
                .map(|s| s.join().expect("submitter thread never panics"))
                .collect()
        });

        assert_eq!(parked_seen, 3, "all three parked");
        assert_eq!(refused, 64);
        blocker_handle.wait().expect("blocker completes");
        filler_handle.wait().expect("filler completes");
        for handle in submitter_handles {
            let report = handle.wait().expect("parked submission completes");
            assert!(
                !report.admission_wait.is_zero(),
                "a parked submitter's wait is reported as admission_wait"
            );
            assert!(
                report.queue_wait >= report.admission_wait,
                "queue_wait is measured from submission and so includes the park"
            );
        }
        // Every job has resolved, so every pop has been recorded.
        let rest: Vec<Dims> = popped.try_iter().collect();
        assert_eq!(rest.len(), 4, "filler and three parked submissions");
        assert_eq!(rest[0], filler.dims, "the queued filler pops first");
        let order: Vec<usize> = rest[1..]
            .iter()
            .map(|register| {
                submissions
                    .iter()
                    .position(|submission| &submission.dims == register)
                    .expect("a parked submission")
            })
            .collect();
        assert_eq!(
            order,
            vec![0, 1, 2],
            "parked submitters admit strictly in ticket (arrival) order"
        );
        let stats = service.stats();
        assert_eq!(stats.rejected, refused);
        assert_eq!(stats.parked, 0, "no submitter left parked");
        assert_eq!(stats.jobs, 5, "blocker + filler + three parked submissions");
        service.shutdown();
    }

    #[test]
    fn verification_attaches_a_passing_report() {
        let d = dims(&[3, 6, 2]);
        let service = EngineService::new(EngineConfig::default().with_workers(1));
        let request = PrepareRequest::dense(d.clone(), ghz(&d), PrepareOptions::exact())
            .with_verification(mdq_core::VerificationPolicy::replay(0.99));
        let report = service.submit(request.clone()).wait().expect("verifies");
        let verification = report.verification.expect("report attached");
        assert!((verification.fidelity - 1.0).abs() < 1e-9);
        assert!(verification.replay_nodes > 0);
        // Bit-identical to the unverified sequential pipeline.
        let want = request.prepare_sequential().unwrap();
        assert_eq!(*report.circuit, want.circuit);
        // The verified entry is in the cache; a repeat is served from it,
        // verification report included.
        let again = service.submit(request).wait().expect("cache hit");
        assert!(again.from_cache);
        assert!(again.verification.is_some());
        let stats = service.stats();
        assert_eq!(stats.verified, 2);
        assert_eq!(stats.verification_failures, 0);
        service.shutdown();
    }

    #[test]
    fn below_threshold_jobs_fail_fresh_and_from_cache() {
        // An approximated random state reaches a fidelity strictly below 1;
        // demanding anything above the reached value must fail the job. The
        // demanded floor is calibrated from a sequential replay, so the
        // failure is deterministic by construction.
        let d = dims(&[3, 6, 2]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let target = mdq_states::random_state(&d, mdq_states::RandomKind::ReImUniform, &mut rng);
        let opts = PrepareOptions::approximated(0.9).without_zero_subtrees();
        let sequential = mdq_core::prepare(&d, &target, opts).unwrap();
        assert!(sequential.report.pruned_mass > 0.0, "budget 0.1 must prune");
        let reached = mdq_core::Preparer::new()
            .verify_dense(&sequential.circuit, &target)
            .unwrap()
            .fidelity;
        assert!(reached < 1.0 - 1e-9);
        let floor = (reached + 1.0) / 2.0;

        let service = EngineService::new(EngineConfig::default().with_workers(1));
        let request = PrepareRequest::dense(d.clone(), target, opts)
            .with_verification(mdq_core::VerificationPolicy::replay(floor));
        let first = service.submit(request.clone()).wait();
        let Err(EngineError::VerificationFailed {
            fidelity,
            threshold,
        }) = first
        else {
            panic!("expected VerificationFailed, got {first:?}");
        };
        assert!(fidelity < threshold);
        assert!(
            (fidelity - reached).abs() < 1e-12,
            "engine measures the same fidelity as the sequential replay"
        );
        // The measured entry is cached: the identical request fails fast
        // with the *same* verdict, without re-running the pipeline.
        let second = service.submit(request.clone()).wait();
        assert_eq!(
            second.unwrap_err(),
            EngineError::VerificationFailed {
                fidelity,
                threshold
            }
        );
        let stats = service.stats();
        assert_eq!(stats.verification_failures, 2);
        assert_eq!(stats.jobs, 0);
        assert_eq!(stats.cache.hits, 1, "second attempt hit the entry");
        // An *unverified* request for the same state is served the (valid)
        // circuit from the cache.
        let relaxed = request.with_verification(mdq_core::VerificationPolicy::Off);
        let served = service.submit(relaxed).wait().expect("circuit is valid");
        assert!(served.from_cache);
        service.shutdown();
    }

    #[test]
    fn verified_requests_never_reuse_unverified_entries() {
        let d = dims(&[3, 6, 2]);
        let service = EngineService::new(EngineConfig::default().with_workers(1));
        let plain = PrepareRequest::dense(d.clone(), ghz(&d), PrepareOptions::exact());
        let unverified = service.submit(plain.clone()).wait().unwrap();
        assert!(unverified.verification.is_none());
        // Same state, verification demanded: must re-run (and upgrade the
        // entry), not silently serve the unverified one.
        let strict = plain
            .clone()
            .with_verification(mdq_core::VerificationPolicy::replay(0.99));
        let verified = service.submit(strict.clone()).wait().unwrap();
        assert!(!verified.from_cache, "unverified entry was not reused");
        assert!(verified.verification.is_some());
        // The upgraded entry now serves verified requests from cache.
        let again = service.submit(strict).wait().unwrap();
        assert!(again.from_cache);
        assert!(again.verification.is_some());
        service.shutdown();
    }

    #[test]
    fn sparse_jobs_verify_too() {
        let d = dims(&[3, 4, 2, 5, 3, 2, 4, 3]);
        let service = EngineService::new(EngineConfig::default().with_workers(1));
        let request = PrepareRequest::sparse(
            d.clone(),
            mdq_states::sparse::ghz(&d),
            PrepareOptions::exact(),
        )
        .with_verification(mdq_core::VerificationPolicy::replay(0.999));
        let report = service.submit(request).wait().expect("verifies");
        let verification = report.verification.expect("report attached");
        assert!((verification.fidelity - 1.0).abs() < 1e-9);
        service.shutdown();
    }

    #[test]
    fn warm_start_round_trips_through_graceful_shutdown() {
        let path =
            std::env::temp_dir().join(format!("mdq-warmstart-service-{}.snap", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let d = dims(&[3, 6, 2]);
        let request = PrepareRequest::dense(d.clone(), ghz(&d), PrepareOptions::exact());
        let config = EngineConfig::default()
            .with_workers(1)
            .with_warm_start(&path);
        let service = EngineService::new(config.clone());
        assert!(
            service.warm_start_load().is_none(),
            "no snapshot yet: silent cold start"
        );
        let cold = service.submit(request.clone()).wait().unwrap();
        assert!(!cold.from_cache);
        service.shutdown(); // writes the snapshot
        assert!(path.exists(), "graceful shutdown snapshotted the cache");

        let warmed = EngineService::new(config);
        let load = warmed
            .warm_start_load()
            .expect("snapshot file existed")
            .as_ref()
            .expect("snapshot loads cleanly");
        assert_eq!((load.loaded, load.skipped), (1, 0));
        let warm = warmed.submit(request.clone()).wait().unwrap();
        assert!(warm.from_cache, "served from the loaded snapshot");
        assert_eq!(warm.circuit, cold.circuit);
        assert_eq!(
            *warm.circuit,
            request.prepare_sequential().unwrap().circuit,
            "snapshot-served circuit is bit-identical to sequential prepare"
        );
        warmed.shutdown();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_warm_start_file_starts_cold_with_inspectable_error() {
        let path =
            std::env::temp_dir().join(format!("mdq-warmstart-corrupt-{}.snap", std::process::id()));
        std::fs::write(&path, "mdqsnap 7\nentries 0\ndone\n").unwrap();
        let service = EngineService::new(
            EngineConfig::default()
                .with_workers(1)
                .with_warm_start(&path),
        );
        match service.warm_start_load() {
            Some(Err(SnapshotError::Version { found: 7, .. })) => {}
            other => panic!("expected a Version error, got {other:?}"),
        }
        // The service still serves, cold.
        let d = dims(&[3, 3]);
        let report = service
            .submit(PrepareRequest::dense(
                d.clone(),
                ghz(&d),
                PrepareOptions::exact(),
            ))
            .wait()
            .unwrap();
        assert!(!report.from_cache);
        // Graceful shutdown replaces the bad file with a valid snapshot.
        service.shutdown();
        let follow_up = EngineService::new(
            EngineConfig::default()
                .with_workers(1)
                .with_warm_start(&path),
        );
        assert!(matches!(follow_up.warm_start_load(), Some(Ok(_))));
        follow_up.shutdown();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn workers_and_arenas_persist_across_submission_waves() {
        let d = dims(&[3, 6, 2]);
        // Cache off so every job runs the pipeline (cache hits would not
        // touch the arena).
        let service = EngineService::new(EngineConfig::default().with_workers(1).without_cache());
        let wave = |n: u64| -> Vec<JobHandle> {
            (0..n)
                .map(|_| {
                    // Canonical (zero-pruned) builds intern through the
                    // weight table, so lookups are visible telemetry.
                    service.submit(PrepareRequest::dense(
                        d.clone(),
                        w_state(&d),
                        PrepareOptions::exact().without_zero_subtrees(),
                    ))
                })
                .collect()
        };
        for handle in wave(4) {
            handle.wait().expect("wave-1 job succeeds");
        }
        let after_first = service.stats();
        assert_eq!(after_first.arena_reuses, 3, "3 of 4 wave-1 jobs warm");
        for handle in wave(4) {
            handle.wait().expect("wave-2 job succeeds");
        }
        let after_second = service.stats();
        // The first wave-2 job is *also* warm — the worker (and its arena)
        // survived between waves instead of being torn down.
        assert_eq!(after_second.arena_reuses, 7);
        assert!(after_second.weight_lookups > after_first.weight_lookups);
        service.shutdown();
    }
}
