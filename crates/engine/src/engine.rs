//! Engine configuration, aggregate statistics, and the batch-mode
//! compatibility wrapper over the persistent [`EngineService`].

use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::cache::{CacheStats, CircuitCache, HotTier};
use crate::request::{PrepareReport, PrepareRequest};
use crate::scheduler::{Aging, SchedulingPolicy};
use crate::service::{EngineError, EngineService};

/// Configuration of an [`EngineService`] (and of the [`BatchEngine`]
/// wrapper over it).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads of the persistent pool (minimum 1).
    pub workers: usize,
    /// Per-job node cap forwarded to every worker's
    /// [`Preparer`](mdq_core::Preparer) — the resource guard for service
    /// deployments.
    pub node_limit: Option<usize>,
    /// Shard count of the prepared-circuit cache (rounded up to a power of
    /// two).
    pub cache_shards: usize,
    /// Whether to consult and fill the prepared-circuit cache at all.
    pub use_cache: bool,
    /// Entry bound of the prepared-circuit cache (`None` is unbounded);
    /// full shards evict their least-recently-used entry. The bound is
    /// enforced per shard (split evenly, rounded up), so the effective
    /// total can exceed this by up to one entry per shard — see
    /// [`CircuitCache::with_capacity`].
    pub cache_capacity: Option<usize>,
    /// Queue discipline of the scheduler (size-aware by default; FIFO is
    /// the pre-service baseline).
    pub scheduling: SchedulingPolicy,
    /// Wait-time aging of the size-aware scheduler — the starvation guard
    /// (on by default at [`Aging::DEFAULT_EPOCH`]): every epoch of queue
    /// wait halves a job's effective cost, and long waits eventually
    /// promote it across [`Priority`](crate::Priority) classes, so no
    /// accepted job can be deferred indefinitely by a stream of smaller or
    /// higher-priority work. Ignored under [`SchedulingPolicy::Fifo`],
    /// which is starvation-free by construction. See
    /// [`Aging`](crate::Aging) for the tuning trade-off.
    pub aging: Aging,
    /// Admission bound on the scheduler queue (`None` is unbounded, the
    /// default): with at most this many jobs queued,
    /// [`EngineService::try_submit`](crate::EngineService::try_submit)
    /// rejects further submissions with
    /// [`EngineError::QueueFull`](crate::EngineError) and
    /// [`EngineService::submit`](crate::EngineService::submit) parks until
    /// space frees. Clamped to a minimum of 1.
    pub queue_depth: Option<usize>,
    /// Maximum age of a cache entry (`None`, the default, never expires):
    /// entries older than this stop being served and are swept lazily —
    /// see [`CircuitCache::with_ttl`] and [`CircuitCache::expire`].
    pub cache_ttl: Option<Duration>,
    /// Warm-start snapshot path. At construction,
    /// [`EngineService::new`] loads this snapshot into the cache if the
    /// file exists (a missing file is a silent cold start, so first boot
    /// and warm restart share one configuration); at graceful
    /// [`EngineService::shutdown`](crate::EngineService::shutdown), the
    /// cache is snapshotted back to the same path, best-effort. See the
    /// [`snapshot`](crate::snapshot) module for the format and its
    /// bit-exactness guarantees.
    pub warm_start: Option<PathBuf>,
    /// Shared read-mostly hot tier consulted on per-shard cache miss —
    /// how multiple services in one process exchange hot entries without
    /// write contention. Build one with [`CircuitCache::freeze`] or
    /// [`snapshot::load_hot_tier`](crate::snapshot::load_hot_tier).
    pub hot_tier: Option<Arc<HotTier>>,
}

impl Default for EngineConfig {
    /// One worker per available core (1 when parallelism is unknown), a
    /// 16-shard unbounded cache, caching enabled, no node cap, size-aware
    /// scheduling.
    fn default() -> Self {
        EngineConfig {
            workers: thread::available_parallelism().map_or(1, usize::from),
            node_limit: None,
            cache_shards: 16,
            use_cache: true,
            cache_capacity: None,
            scheduling: SchedulingPolicy::SizeAware,
            aging: Aging::default(),
            queue_depth: None,
            cache_ttl: None,
            warm_start: None,
            hot_tier: None,
        }
    }
}

impl EngineConfig {
    /// Overrides the worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Caps every job's diagram at `limit` nodes.
    #[must_use]
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.node_limit = Some(limit);
        self
    }

    /// Overrides the cache shard count.
    #[must_use]
    pub fn with_cache_shards(mut self, shards: usize) -> Self {
        self.cache_shards = shards;
        self
    }

    /// Disables the prepared-circuit cache (every job runs the pipeline).
    #[must_use]
    pub fn without_cache(mut self) -> Self {
        self.use_cache = false;
        self
    }

    /// Bounds the prepared-circuit cache at `capacity` total entries with
    /// per-shard LRU eviction.
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }

    /// Overrides the scheduler's queue discipline.
    #[must_use]
    pub fn with_scheduling(mut self, scheduling: SchedulingPolicy) -> Self {
        self.scheduling = scheduling;
        self
    }

    /// Overrides the size-aware scheduler's wait-time aging — the
    /// starvation guard. [`Aging::Off`] restores the raw (frozen) sort key
    /// as a baseline for fairness measurements; a smaller
    /// [`Aging::HalveEvery`] epoch bounds queue waits tighter at the cost
    /// of the small-job latency win. See [`EngineConfig::aging`].
    #[must_use]
    pub fn with_aging(mut self, aging: Aging) -> Self {
        self.aging = aging;
        self
    }

    /// Bounds the scheduler queue at `depth` jobs (minimum 1) — the
    /// admission-control switch. See [`EngineConfig::queue_depth`].
    #[must_use]
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = Some(depth);
        self
    }

    /// Bounds the age of cache entries at `ttl` — the staleness guard for
    /// long-lived services. See [`EngineConfig::cache_ttl`].
    #[must_use]
    pub fn with_cache_ttl(mut self, ttl: Duration) -> Self {
        self.cache_ttl = Some(ttl);
        self
    }

    /// Warm-starts the service from (and snapshots back to) `path` — load
    /// on construction if the file exists, save on graceful shutdown. See
    /// [`EngineConfig::warm_start`].
    #[must_use]
    pub fn with_warm_start(mut self, path: impl Into<PathBuf>) -> Self {
        self.warm_start = Some(path.into());
        self
    }

    /// Attaches a shared read-mostly hot tier, consulted when a per-shard
    /// cache lookup misses. See [`EngineConfig::hot_tier`].
    #[must_use]
    pub fn with_hot_tier(mut self, tier: Arc<HotTier>) -> Self {
        self.hot_tier = Some(tier);
        self
    }
}

/// Aggregate counters of a service/engine, cumulative since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Successfully served jobs (computed or cached).
    pub jobs: u64,
    /// Jobs that returned a [`PrepareError`](mdq_core::PrepareError).
    pub failures: u64,
    /// Submissions refused by admission control
    /// ([`EngineError::QueueFull`](crate::EngineError) from
    /// [`EngineService::try_submit`](crate::EngineService::try_submit)).
    pub rejected: u64,
    /// Jobs served with a passing verification attached (fresh replay or
    /// verified cache entry).
    pub verified: u64,
    /// Jobs that failed their demanded verification
    /// ([`EngineError::VerificationFailed`](crate::EngineError)).
    pub verification_failures: u64,
    /// Deepest the scheduler queue has ever been — sizing signal for
    /// [`EngineConfig::with_queue_depth`].
    pub high_watermark: usize,
    /// Prepared-circuit cache counters.
    pub cache: CacheStats,
    /// Total weight-table lookups across the persistent worker arenas
    /// (weight-table pressure; see
    /// [`ComplexTableStats`](mdq_num::ComplexTableStats)).
    pub weight_lookups: u64,
    /// Weight-table insertions, same scope as
    /// [`EngineStats::weight_lookups`].
    pub weight_insertions: u64,
    /// Pipeline runs that started on a worker's retained (warmed) scratch
    /// arena — the observable of worker persistence across submissions.
    pub arena_reuses: u64,
    /// Jobs currently waiting in the scheduler queue.
    pub queued: usize,
    /// Blocking submitters currently **parked on the admission ticket
    /// queue** of a bounded scheduler
    /// ([`EngineConfig::with_queue_depth`]), waiting for freed slots that
    /// are handed out strictly in arrival order. A sustained nonzero value
    /// means submitters outpace the pool — the backpressure gauge of
    /// FIFO-fair admission.
    pub parked: usize,
}

/// The batch-mode compatibility wrapper over [`EngineService`]: submit a
/// whole batch, block until every job resolves, return results **in
/// request order**.
///
/// Since PR 4 this is a thin shim — the worker pool, the scheduler and the
/// cache all live in the wrapped service and persist across
/// [`BatchEngine::run`] calls, so a warm engine serves repeated requests
/// without re-running the pipeline *and* without respawning threads.
#[derive(Debug)]
pub struct BatchEngine {
    service: EngineService,
}

impl BatchEngine {
    /// Creates an engine from a configuration (spawning the persistent
    /// worker pool once, up front).
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        BatchEngine {
            service: EngineService::new(config),
        }
    }

    /// Creates an engine with the default configuration.
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::new(EngineConfig::default())
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        self.service.config()
    }

    /// The prepared-circuit cache (e.g. to pre-warm or clear it).
    #[must_use]
    pub fn cache(&self) -> &CircuitCache {
        self.service.cache()
    }

    /// Aggregate counters, cumulative over every batch run so far.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.service.stats()
    }

    /// The wrapped persistent service, for callers migrating from batch
    /// mode to streaming submission.
    #[must_use]
    pub fn service(&self) -> &EngineService {
        &self.service
    }

    /// Consumes the wrapper, handing out the service itself.
    #[must_use]
    pub fn into_service(self) -> EngineService {
        self.service
    }

    /// Submits the batch to the persistent pool and blocks until every job
    /// resolves, returning one result per request, **in request order** —
    /// the output is independent of worker count and scheduling.
    ///
    /// The batch API clones each request into the queue (the persistent
    /// workers need owned jobs); callers that already own their requests
    /// can stream them into [`EngineService::submit_batch`] by value
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics if the worker pool died mid-batch (a worker panicked) — the
    /// failure surfaces here rather than hanging the caller.
    pub fn run(&self, requests: &[PrepareRequest]) -> Vec<Result<PrepareReport, EngineError>> {
        let handles = self.service.submit_batch(requests.iter().cloned());
        handles
            .into_iter()
            .map(|handle| match handle.wait() {
                Ok(report) => Ok(report),
                Err(error @ (EngineError::Prepare(_) | EngineError::VerificationFailed { .. })) => {
                    Err(error)
                }
                // We hold the service, so nobody can have shut it down;
                // seeing Shutdown/QueueClosed here means the pool died.
                Err(other) => panic!("engine worker pool stopped mid-batch: {other}"),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdq_core::{PrepareError, PrepareOptions};
    use mdq_num::radix::Dims;
    use mdq_num::Complex;
    use mdq_states::{ghz, w_state};

    fn dims(v: &[usize]) -> Dims {
        Dims::new(v.to_vec()).unwrap()
    }

    fn mixed_batch() -> Vec<PrepareRequest> {
        let d3 = dims(&[3, 6, 2]);
        let d2 = dims(&[4, 3]);
        let mut batch = vec![
            PrepareRequest::dense(d3.clone(), ghz(&d3), PrepareOptions::exact()),
            PrepareRequest::dense(d3.clone(), w_state(&d3), PrepareOptions::approximated(0.98)),
            PrepareRequest::sparse(
                d3.clone(),
                mdq_states::sparse::w_state(&d3),
                PrepareOptions::exact(),
            ),
            PrepareRequest::dense(
                d2.clone(),
                ghz(&d2),
                PrepareOptions::exact().without_zero_subtrees(),
            ),
        ];
        // A bit-identical duplicate of the first request (cache-hit probe).
        batch.push(batch[0].clone());
        batch
    }

    fn sequential(requests: &[PrepareRequest]) -> Vec<mdq_circuit::Circuit> {
        requests
            .iter()
            .map(|r| r.prepare_sequential().unwrap().circuit)
            .collect()
    }

    #[test]
    fn batch_matches_sequential_for_every_worker_count() {
        let requests = mixed_batch();
        let expected = sequential(&requests);
        for workers in [1, 2, 4] {
            let engine = BatchEngine::new(EngineConfig::default().with_workers(workers));
            let results = engine.run(&requests);
            assert_eq!(results.len(), requests.len());
            for (i, (result, want)) in results.iter().zip(&expected).enumerate() {
                let report = result.as_ref().expect("job succeeds");
                assert_eq!(&report.circuit, want, "request {i} at {workers} workers");
            }
        }
    }

    #[test]
    fn duplicate_requests_hit_the_cache() {
        let requests = mixed_batch();
        let engine = BatchEngine::new(EngineConfig::default().with_workers(1));
        let cold = engine.run(&requests);
        // Request 4 duplicates request 0, so even the cold batch hits once.
        assert!(cold[4].as_ref().unwrap().from_cache);
        assert_eq!(
            cold[0].as_ref().unwrap().circuit,
            cold[4].as_ref().unwrap().circuit
        );
        let warm = engine.run(&requests);
        for (cold_r, warm_r) in cold.iter().zip(&warm) {
            let warm_r = warm_r.as_ref().unwrap();
            assert!(warm_r.from_cache, "warm batch is served from cache");
            assert_eq!(cold_r.as_ref().unwrap().circuit, warm_r.circuit);
        }
        let stats = engine.stats();
        assert_eq!(stats.jobs, 2 * requests.len() as u64);
        assert!(stats.cache.hits >= requests.len() as u64);
        assert_eq!(stats.cache.entries, 4, "four distinct keys stored");
        assert!(stats.weight_lookups > 0, "arena telemetry aggregated");
        assert!(stats.arena_reuses > 0, "worker arenas persisted");
    }

    #[test]
    fn cache_can_be_disabled() {
        let requests = mixed_batch();
        let engine = BatchEngine::new(EngineConfig::default().with_workers(2).without_cache());
        let first = engine.run(&requests);
        let second = engine.run(&requests);
        for (a, b) in first.iter().zip(&second) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert!(!a.from_cache && !b.from_cache);
            assert_eq!(a.circuit, b.circuit);
        }
        assert_eq!(engine.stats().cache, CacheStats::default());
    }

    #[test]
    fn failures_surface_at_the_right_index() {
        let d = dims(&[2, 2]);
        let ok = PrepareRequest::dense(d.clone(), ghz(&d), PrepareOptions::exact());
        let bad = PrepareRequest::dense(d.clone(), vec![Complex::ONE], PrepareOptions::exact());
        let engine = BatchEngine::new(EngineConfig::default().with_workers(2));
        let results = engine.run(&[ok.clone(), bad, ok]);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(EngineError::Prepare(PrepareError::Build(_)))
        ));
        assert!(results[2].is_ok());
        let stats = engine.stats();
        assert_eq!(stats.jobs, 2);
        assert_eq!(stats.failures, 1);
    }

    #[test]
    fn node_limit_is_enforced_per_job() {
        let d = dims(&[3, 6, 2]);
        let engine = BatchEngine::new(EngineConfig::default().with_workers(1).with_node_limit(2));
        let results = engine.run(&[PrepareRequest::dense(
            d.clone(),
            w_state(&d),
            PrepareOptions::exact().without_zero_subtrees(),
        )]);
        assert!(matches!(
            results[0],
            Err(EngineError::Prepare(PrepareError::Build(_)))
        ));
    }

    #[test]
    fn tree_metric_reports_do_not_alias_sparse_cache_entries() {
        // `prepare` honors keep_zero_subtrees (nodes_initial = full tree),
        // `prepare_sparse` ignores it; a sparse job must not fill a cache
        // entry that a dense tree-metric request would then be served.
        let d = dims(&[2, 2]);
        let a = Complex::real(0.5f64.sqrt());
        let mut amps = vec![Complex::ZERO; 4];
        amps[d.index_of(&[0, 0])] = a;
        amps[d.index_of(&[1, 1])] = a;
        let sparse = PrepareRequest::sparse(
            d.clone(),
            vec![(vec![0, 0], a), (vec![1, 1], a)],
            PrepareOptions::exact(),
        );
        let dense = PrepareRequest::dense(d, amps, PrepareOptions::exact());
        let expected = dense.prepare_sequential().unwrap();
        // One worker: the sparse job is submitted (and popped) first, so it
        // lands in the cache before the dense job probes.
        let engine = BatchEngine::new(EngineConfig::default().with_workers(1));
        let results = engine.run(&[sparse, dense]);
        let served = results[1].as_ref().unwrap();
        assert!(!served.from_cache, "tree-metric request must not alias");
        assert_eq!(served.report.nodes_initial, expected.report.nodes_initial);
        assert_eq!(served.circuit, expected.circuit);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let engine = BatchEngine::with_defaults();
        assert!(engine.run(&[]).is_empty());
        assert_eq!(engine.stats().jobs, 0);
    }

    #[test]
    fn worker_count_exceeding_batch_size_is_fine() {
        let d = dims(&[3, 3]);
        let engine = BatchEngine::new(EngineConfig::default().with_workers(16));
        let results = engine.run(&[PrepareRequest::dense(
            d.clone(),
            ghz(&d),
            PrepareOptions::exact(),
        )]);
        assert!(results[0].is_ok());
    }

    #[test]
    fn queue_wait_is_reported() {
        let requests = mixed_batch();
        let engine = BatchEngine::new(EngineConfig::default().with_workers(1).without_cache());
        let results = engine.run(&requests);
        // With one worker, later jobs necessarily queued behind earlier
        // ones; at least one must have observed a nonzero wait.
        let waits: Vec<_> = results
            .iter()
            .map(|r| r.as_ref().unwrap().queue_wait)
            .collect();
        assert!(waits.iter().any(|w| !w.is_zero()), "waits: {waits:?}");
    }
}
