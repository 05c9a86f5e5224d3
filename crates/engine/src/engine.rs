//! Engine configuration and aggregate statistics of the persistent
//! [`EngineService`](crate::EngineService).

use std::path::PathBuf;
use std::thread;

use crate::cache::CacheStats;
use crate::scheduler::{Aging, SchedulingPolicy};

/// Configuration of an [`EngineService`](crate::EngineService).
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
    /// [`CircuitCache::with_capacity`](crate::CircuitCache::with_capacity).
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
    /// Warm-start snapshot path. At construction,
    /// [`EngineService::new`](crate::EngineService::new) loads this
    /// snapshot into the cache if the file exists (a missing file is a
    /// silent cold start, so first boot and warm restart share one
    /// configuration); at graceful
    /// [`EngineService::shutdown`](crate::EngineService::shutdown), the
    /// cache is snapshotted back to the same path, best-effort. See the
    /// [`snapshot`](crate::snapshot) module for the format and its
    /// bit-exactness guarantees.
    pub warm_start: Option<PathBuf>,
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
            warm_start: None,
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

    /// Warm-starts the service from (and snapshots back to) `path` — load
    /// on construction if the file exists, save on graceful shutdown. See
    /// [`EngineConfig::warm_start`].
    #[must_use]
    pub fn with_warm_start(mut self, path: impl Into<PathBuf>) -> Self {
        self.warm_start = Some(path.into());
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
