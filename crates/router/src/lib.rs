//! Sharded multi-tenant serving front-end over [`mdq-engine`] instances.
//!
//! A single [`EngineService`] scales to one process's worth of workers and
//! one prepared-circuit cache. A serving deployment wants *N* of them —
//! each with its own worker pool, cache shard, and warm-start snapshot —
//! behind one submission surface. This crate is that surface:
//!
//! ```text
//!                          ┌─────────────────────── Router ───────────────────────┐
//!  submit(tenant, req) ──▶ │ quota gate ─▶ consistent-hash ring ─▶ shard 0 Engine │
//!    ─▶ RouterHandle       │ (per-tenant    (fingerprint-keyed)  ─▶ shard 1 Engine │
//!  submit(tenant, req) ──▶ │  in-flight)                         ─▶ shard 2 Engine │
//!    ─▶ RouterHandle       │                                         …             │
//!                          └──────────────────────────────────────────────────────┘
//! ```
//!
//! * **Cache-affine routing** — requests are keyed by the engine's own
//!   content fingerprint ([`mdq_engine::canonical_key`]): identical
//!   requests always land on the same shard, so each shard's cache and
//!   warm-start snapshot accumulate a stable slice of the key space. The
//!   [`ring`] is a consistent-hash ring: resizing from *n* to *n±1*
//!   shards moves only ~1/n of the keys and never moves a key between
//!   two surviving shards.
//! * **Per-tenant quotas** — every submission names a [`TenantId`]; a
//!   [`TenantQuota`] bounds the tenant's in-flight jobs. A tenant at its
//!   quota is refused with [`RouterError::TenantOverQuota`] — the request
//!   handed back by value, other tenants unaffected.
//! * **Warm shards** — with [`RouterConfig::with_snapshot_dir`], each
//!   shard loads `shard-<id>.mdqsnap` at construction and writes it back
//!   on graceful removal, so a shard re-joining the ring starts with the
//!   cache slice it owned before.
//! * **Bit-exact serving** — routing adds nothing to the result: every
//!   circuit is bit-identical to a sequential
//!   [`prepare`](mdq_core::prepare) of the same request, whatever the
//!   shard count, quota pressure, or resize history (pinned by the
//!   routing proptests and the router stress scenario).
//! * **Strict accounting** — [`RouterStats`] reports, per tenant,
//!   `completed + failed + rejected + dropped == submitted` once all
//!   handles resolve, plus per-shard [`EngineStats`] (read via
//!   [`EngineService::stats`], which locks no cache shard) and cache hit
//!   rates.
//!
//! # Example
//!
//! ```
//! use mdq_core::PrepareOptions;
//! use mdq_engine::{EngineConfig, PrepareRequest};
//! use mdq_num::radix::Dims;
//! use mdq_router::{Router, RouterConfig, TenantId, TenantQuota};
//! use mdq_states::ghz;
//!
//! let router = Router::new(
//!     RouterConfig::default().with_engine_config(EngineConfig::default().with_workers(1)),
//! );
//! for shard in 0..3 {
//!     assert!(router.add_shard(shard));
//! }
//! router.set_quota(TenantId(1), TenantQuota::unlimited().with_max_in_flight(8));
//!
//! let dims = Dims::new(vec![2, 3])?;
//! let request = PrepareRequest::dense(dims.clone(), ghz(&dims), PrepareOptions::exact());
//! let report = router.submit(TenantId(1), request)?.wait()?;
//! assert!(!report.circuit.is_empty());
//! router.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`mdq-engine`]: mdq_engine

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ring;
mod tenant;

use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use mdq_engine::{
    canonical_key, AdmissionError, EngineConfig, EngineError, EngineService, EngineStats,
    JobHandle, PrepareReport, PrepareRequest,
};

pub use ring::HashRing;
pub use tenant::{TenantId, TenantQuota, TenantStats};

use tenant::TenantState;

/// Configuration for a [`Router`]. Shards sit on a
/// [`HashRing::default`] ring.
#[derive(Debug, Clone, Default)]
pub struct RouterConfig {
    /// Template for every shard's engine (workers, cache, queue bound…).
    /// The template's [`warm_start`](EngineConfig::warm_start) is ignored:
    /// each shard warm-starts from its own
    /// [`snapshot_dir`](RouterConfig::snapshot_dir) file, or not at all
    /// when no directory is set, so shards never share a snapshot.
    pub engine: EngineConfig,
    /// Directory for per-shard warm-start snapshots
    /// (`shard-<id>.mdqsnap`); `None` disables warm shards.
    pub snapshot_dir: Option<PathBuf>,
}

impl RouterConfig {
    /// Sets the engine template every shard is built from.
    #[must_use]
    pub fn with_engine_config(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Enables per-shard warm-start snapshots under `dir`.
    #[must_use]
    pub fn with_snapshot_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.snapshot_dir = Some(dir.into());
        self
    }
}

/// Why the router refused a submission. Every variant hands the request
/// back by value, mirroring the engine's [`AdmissionError`] idiom: a
/// refused request can be retried, re-routed, or shed without a copy.
#[derive(Debug)]
pub enum RouterError {
    /// The tenant is at its in-flight quota; other tenants are
    /// unaffected.
    TenantOverQuota {
        /// The refused tenant.
        tenant: TenantId,
        /// The request, handed back untouched.
        request: PrepareRequest,
        /// The tenant's in-flight jobs at refusal.
        in_flight: usize,
        /// The tenant's [`TenantQuota::max_in_flight`] that was hit.
        limit: usize,
    },
    /// The ring is empty — no shard to route to.
    NoShards {
        /// The request, handed back untouched.
        request: PrepareRequest,
    },
    /// The routed shard refused admission (bounded queue full or
    /// closed).
    ShardRefused {
        /// The shard that refused.
        shard: usize,
        /// The request, handed back untouched.
        request: PrepareRequest,
        /// The shard's refusal.
        error: EngineError,
    },
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::TenantOverQuota {
                tenant,
                in_flight,
                limit,
                ..
            } => write!(
                f,
                "{tenant} is over quota ({in_flight} in flight, limit {limit})"
            ),
            RouterError::NoShards { .. } => write!(f, "router has no shards"),
            RouterError::ShardRefused { shard, error, .. } => {
                write!(f, "shard {shard} refused the job: {error}")
            }
        }
    }
}

impl std::error::Error for RouterError {}

/// One shard: a stable id on the ring plus the engine serving its slice.
#[derive(Debug)]
struct ShardEntry {
    id: usize,
    service: EngineService,
}

/// The resizable part of the router, guarded by one `RwLock`:
/// submissions take it for read (shared), resizes for write.
#[derive(Debug)]
struct Topology {
    shards: Vec<ShardEntry>,
    ring: HashRing,
}

/// A sharded, multi-tenant front-end over N [`EngineService`] shards.
///
/// All methods take `&self`; the router is shared across submitting
/// threads directly (it is `Sync`), no `Arc` required unless callers
/// need one.
#[derive(Debug)]
pub struct Router {
    config: RouterConfig,
    topology: RwLock<Topology>,
    tenants: Mutex<HashMap<TenantId, Arc<TenantState>>>,
}

impl Router {
    /// A router with no shards yet; add them with [`Router::add_shard`].
    #[must_use]
    pub fn new(config: RouterConfig) -> Self {
        Router {
            config,
            topology: RwLock::new(Topology {
                shards: Vec::new(),
                ring: HashRing::default(),
            }),
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// The configuration the router (and every shard) was built from.
    #[must_use]
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Adds a shard with the given stable id, building its engine from
    /// the config template. With a snapshot directory configured the new
    /// shard warm-starts from `shard-<id>.mdqsnap` when present — a
    /// shard that left gracefully re-joins with the cache slice it owned
    /// before. Without one the shard neither loads nor saves a snapshot.
    ///
    /// Joining moves only the keys the consistent-hash ring assigns to
    /// the joiner (~1/(n+1) of the space); keys on surviving shards stay
    /// put. Returns `false` (and builds nothing lasting) if the id is
    /// already on the ring.
    pub fn add_shard(&self, id: usize) -> bool {
        if self
            .topology
            .read()
            .expect("router topology poisoned")
            .ring
            .contains(id)
        {
            return false;
        }
        // Build the engine outside the write lock: construction spawns a
        // worker pool and may load a snapshot, and submissions should
        // keep flowing to existing shards meanwhile.
        let mut engine = self.config.engine.clone();
        engine.warm_start = self
            .config
            .snapshot_dir
            .as_ref()
            .map(|dir| dir.join(format!("shard-{id}.mdqsnap")));
        let service = EngineService::new(engine);
        let mut topology = self.topology.write().expect("router topology poisoned");
        if !topology.ring.add(id) {
            // Lost a race with a concurrent add of the same id.
            drop(topology);
            service.shutdown_now();
            return false;
        }
        topology.shards.push(ShardEntry { id, service });
        true
    }

    /// Removes a shard from the ring and gracefully drains it: jobs
    /// already accepted by the shard still complete (their
    /// [`RouterHandle`]s resolve normally), and with a snapshot
    /// directory configured the shard's cache is written back to its
    /// `shard-<id>.mdqsnap` so a later [`Router::add_shard`] of the same
    /// id re-joins warm. Only the leaver's keys move. Returns `false` if
    /// the id is not on the ring.
    pub fn remove_shard(&self, id: usize) -> bool {
        let entry = {
            let mut topology = self.topology.write().expect("router topology poisoned");
            let Some(position) = topology.shards.iter().position(|e| e.id == id) else {
                return false;
            };
            topology.ring.remove(id);
            topology.shards.remove(position)
        };
        // Drain outside the lock: new submissions already route around
        // the leaver while it finishes its accepted jobs.
        entry.service.shutdown();
        true
    }

    /// The shard ids currently on the ring, ascending.
    #[must_use]
    pub fn shards(&self) -> Vec<usize> {
        self.topology
            .read()
            .expect("router topology poisoned")
            .ring
            .shards()
    }

    /// Where a fingerprint would route right now (`None` with no
    /// shards). Exposed for balance instrumentation — the serving path
    /// is [`Router::submit`].
    #[must_use]
    pub fn route_fingerprint(&self, fingerprint: u64) -> Option<usize> {
        self.topology
            .read()
            .expect("router topology poisoned")
            .ring
            .route(fingerprint)
    }

    /// Sets (or replaces) a tenant's quota. Takes effect on the next
    /// submission; jobs already in flight are unaffected.
    pub fn set_quota(&self, tenant: TenantId, quota: TenantQuota) {
        let state = self.tenant_state(tenant);
        *state.quota.lock().expect("tenant quota poisoned") = quota;
    }

    fn tenant_state(&self, tenant: TenantId) -> Arc<TenantState> {
        let mut tenants = self.tenants.lock().expect("router tenants poisoned");
        Arc::clone(tenants.entry(tenant).or_default())
    }

    /// Routes and submits one request for `tenant`.
    ///
    /// The request is fingerprinted with the engine's own
    /// [`canonical_key`], routed to the owning shard, and admitted
    /// non-blockingly. A request the engine cannot fingerprint (it would
    /// fail validation anyway) routes deterministically under a zero
    /// fingerprint, so the owning shard reports the same
    /// [`EngineError::Prepare`] a direct submission would.
    ///
    /// # Errors
    ///
    /// Refusals hand the request back by value: over-quota tenants get
    /// [`RouterError::TenantOverQuota`] (no shard ever sees the
    /// request), an empty ring [`RouterError::NoShards`], a full or
    /// closed shard queue [`RouterError::ShardRefused`].
    #[allow(clippy::result_large_err)] // hands the request back by value
    pub fn submit(
        &self,
        tenant: TenantId,
        request: PrepareRequest,
    ) -> Result<RouterHandle, RouterError> {
        let state = self.tenant_state(tenant);
        state.submitted.fetch_add(1, Ordering::Relaxed);
        let topology = self.topology.read().expect("router topology poisoned");
        if topology.shards.is_empty() {
            state.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(RouterError::NoShards { request });
        }
        let limit = state
            .quota
            .lock()
            .expect("tenant quota poisoned")
            .max_in_flight;
        if let Err(in_flight) = state.try_reserve(limit) {
            state.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(RouterError::TenantOverQuota {
                tenant,
                request,
                in_flight,
                limit: limit.unwrap_or(usize::MAX),
            });
        }
        let fingerprint = canonical_key(&request).map_or(0, |(fp, _)| fp);
        let shard = topology
            .ring
            .route(fingerprint)
            .expect("non-empty ring routes every fingerprint");
        let entry = topology
            .shards
            .iter()
            .find(|e| e.id == shard)
            .expect("routed shard is on the ring");
        match entry.service.try_submit(request) {
            Ok(handle) => Ok(RouterHandle {
                handle: Some(handle),
                completion: Some(state),
                shard,
                tenant,
            }),
            Err(AdmissionError { request, error }) => {
                state.release();
                state.rejected.fetch_add(1, Ordering::Relaxed);
                Err(RouterError::ShardRefused {
                    shard,
                    request,
                    error,
                })
            }
        }
    }

    /// A point-in-time [`RouterStats`]: per-tenant ledgers plus each
    /// shard's [`EngineStats`] and cache hit rate. Reading them locks no
    /// cache shard ([`EngineService::stats`]).
    #[must_use]
    pub fn stats(&self) -> RouterStats {
        let shards: Vec<ShardStats> = {
            let topology = self.topology.read().expect("router topology poisoned");
            topology
                .shards
                .iter()
                .map(|entry| {
                    let engine = entry.service.stats();
                    let probes = engine.cache.hits + engine.cache.misses;
                    #[allow(clippy::cast_precision_loss)]
                    let hit_rate = if probes == 0 {
                        0.0
                    } else {
                        engine.cache.hits as f64 / probes as f64
                    };
                    let warm_loaded = entry
                        .service
                        .warm_start_load()
                        .and_then(|result| result.as_ref().ok())
                        .map(|load| load.loaded);
                    ShardStats {
                        shard: entry.id,
                        engine,
                        hit_rate,
                        warm_loaded,
                    }
                })
                .collect()
        };
        let mut tenants: Vec<TenantStats> = {
            let map = self.tenants.lock().expect("router tenants poisoned");
            map.iter().map(|(id, state)| state.stats(*id)).collect()
        };
        tenants.sort_by_key(|t| t.tenant);
        let mut stats = RouterStats {
            submitted: 0,
            completed: 0,
            failed: 0,
            rejected: 0,
            dropped: 0,
            tenants,
            shards,
        };
        for t in &stats.tenants {
            stats.submitted += t.submitted;
            stats.completed += t.completed;
            stats.failed += t.failed;
            stats.rejected += t.rejected;
            stats.dropped += t.dropped;
        }
        stats
    }

    /// Gracefully shuts every shard down: accepted jobs drain, warm
    /// snapshots are written (when configured), worker pools are joined.
    pub fn shutdown(self) {
        let topology = self
            .topology
            .into_inner()
            .expect("router topology poisoned");
        for entry in topology.shards {
            entry.service.shutdown();
        }
    }
}

/// The caller's side of one routed submission. Wraps the shard's
/// [`JobHandle`] and keeps the tenant ledger exact: the first observed
/// outcome is recorded as completed/failed and releases the tenant's
/// in-flight slot; dropping the handle unobserved records it as dropped
/// (the job itself still runs).
#[derive(Debug)]
pub struct RouterHandle {
    handle: Option<JobHandle>,
    completion: Option<Arc<TenantState>>,
    shard: usize,
    tenant: TenantId,
}

impl RouterHandle {
    /// The shard the job was routed to.
    #[must_use]
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The submitting tenant.
    #[must_use]
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    fn record(&mut self, ok: bool) {
        if let Some(state) = self.completion.take() {
            state.release();
            if ok {
                state.completed.fetch_add(1, Ordering::Relaxed);
            } else {
                state.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn inner(&mut self) -> &mut JobHandle {
        self.handle.as_mut().expect("handle taken only by wait()")
    }

    /// Non-blocking poll; repeatable once resolved (see
    /// [`JobHandle::try_wait`]).
    pub fn try_wait(&mut self) -> Option<&Result<PrepareReport, EngineError>> {
        let outcome = self.inner().try_wait().map(Result::is_ok);
        if let Some(ok) = outcome {
            self.record(ok);
        }
        self.inner().try_wait()
    }

    /// Blocks at most `timeout`; `None` on timeout, repeatable once
    /// resolved.
    pub fn wait_timeout(
        &mut self,
        timeout: Duration,
    ) -> Option<&Result<PrepareReport, EngineError>> {
        let outcome = self.inner().wait_timeout(timeout).map(Result::is_ok);
        if let Some(ok) = outcome {
            self.record(ok);
        }
        self.inner().try_wait()
    }

    /// Blocks until the job resolves and returns the result by value.
    ///
    /// # Errors
    ///
    /// The shard's [`EngineError`], exactly as a direct
    /// [`EngineService::submit`] would report it.
    pub fn wait(mut self) -> Result<PrepareReport, EngineError> {
        let result = self
            .handle
            .take()
            .expect("handle taken only by wait()")
            .wait();
        self.record(result.is_ok());
        result
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        if let Some(state) = self.completion.take() {
            state.release();
            state.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Point-in-time router telemetry: global totals, per-tenant ledgers,
/// per-shard engine snapshots.
#[derive(Debug, Clone)]
pub struct RouterStats {
    /// Every submission attempt across all tenants.
    pub submitted: u64,
    /// Jobs that resolved successfully.
    pub completed: u64,
    /// Jobs that resolved with an engine error.
    pub failed: u64,
    /// Submissions refused (quota, no shards, or shard queue).
    pub rejected: u64,
    /// Accepted jobs whose handle was dropped unobserved.
    pub dropped: u64,
    /// Per-tenant ledgers, ascending by tenant id.
    pub tenants: Vec<TenantStats>,
    /// Per-shard snapshots, in ring-join order.
    pub shards: Vec<ShardStats>,
}

/// One shard's slice of [`RouterStats`].
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// The shard's stable ring id.
    pub shard: usize,
    /// The shard engine's own stats ([`EngineService::stats`]).
    pub engine: EngineStats,
    /// Cache hits over probes, `0.0` before the first probe.
    pub hit_rate: f64,
    /// Records loaded from the shard's warm-start snapshot, when one was
    /// configured and loaded cleanly.
    pub warm_loaded: Option<usize>,
}

// Compile-time Send/Sync audit, mirroring `mdq-engine`: the router is
// shared by reference across submitting threads, handles move to
// whichever thread awaits them.
const fn assert_send_sync<T: Send + Sync>() {}
const fn assert_send<T: Send>() {}
const _: () = {
    assert_send_sync::<Router>();
    assert_send_sync::<RouterConfig>();
    assert_send_sync::<RouterError>();
    assert_send_sync::<RouterStats>();
    assert_send_sync::<ShardStats>();
    assert_send_sync::<HashRing>();
    assert_send_sync::<TenantId>();
    assert_send_sync::<TenantQuota>();
    assert_send_sync::<TenantStats>();
    // A RouterHandle wraps the shard's single-consumer JobHandle.
    assert_send::<RouterHandle>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use mdq_core::PrepareOptions;
    use mdq_num::radix::Dims;
    use mdq_num::Complex;
    use mdq_states::{ghz, w_state};

    fn dims() -> Dims {
        Dims::new(vec![2, 3]).unwrap()
    }

    fn request(seed: usize) -> PrepareRequest {
        let dims = dims();
        let mut amplitudes = ghz(&dims);
        // Distinct fingerprints per seed.
        let slot = seed % amplitudes.len();
        amplitudes[slot] = Complex::new(0.5, 0.25 + seed as f64 * 1e-3);
        let norm: f64 = amplitudes.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        for a in &mut amplitudes {
            *a = Complex::new(a.re / norm, a.im / norm);
        }
        PrepareRequest::dense(dims, amplitudes, PrepareOptions::exact())
    }

    fn small_router(shards: usize) -> Router {
        let router = Router::new(
            RouterConfig::default().with_engine_config(EngineConfig::default().with_workers(1)),
        );
        for id in 0..shards {
            assert!(router.add_shard(id));
        }
        router
    }

    #[test]
    fn routed_results_match_sequential_preparation() {
        let router = small_router(3);
        let tenant = TenantId(0);
        for seed in 0..6 {
            let req = request(seed);
            let direct = req.clone().prepare_sequential().unwrap();
            let routed = router.submit(tenant, req).unwrap().wait().unwrap();
            assert_eq!(*routed.circuit, direct.circuit);
        }
        let stats = router.stats();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.rejected, 0);
        router.shutdown();
    }

    #[test]
    fn equal_requests_route_to_the_same_shard_and_hit_its_cache() {
        let router = small_router(4);
        let tenant = TenantId(3);
        let req = request(1);
        let first = router.submit(tenant, req.clone()).unwrap();
        let shard = first.shard();
        let fresh = first.wait().unwrap();
        assert!(!fresh.from_cache);
        let second = router.submit(tenant, req).unwrap();
        assert_eq!(second.shard(), shard, "equal fingerprints must co-locate");
        let cached = second.wait().unwrap();
        assert!(cached.from_cache, "the owning shard's cache must serve it");
        assert_eq!(cached.circuit, fresh.circuit);
        let stats = router.stats();
        let owning = stats.shards.iter().find(|s| s.shard == shard).unwrap();
        assert!(owning.hit_rate > 0.0);
        router.shutdown();
    }

    #[test]
    fn over_quota_tenant_is_refused_with_the_request_handed_back() {
        let router = small_router(2);
        let bounded = TenantId(1);
        let free = TenantId(2);
        router.set_quota(bounded, TenantQuota::unlimited().with_max_in_flight(2));

        let h1 = router.submit(bounded, request(0)).unwrap();
        let h2 = router.submit(bounded, request(1)).unwrap();
        let refused = request(2);
        match router.submit(bounded, refused.clone()) {
            Err(RouterError::TenantOverQuota {
                tenant,
                request,
                in_flight,
                limit,
            }) => {
                assert_eq!(tenant, bounded);
                assert_eq!(request, refused, "request must come back untouched");
                assert_eq!((in_flight, limit), (2, 2));
            }
            other => panic!("expected TenantOverQuota, got {other:?}"),
        }
        // Another tenant is unaffected by the bounded tenant's quota.
        let other = router.submit(free, request(3)).unwrap();
        assert!(other.wait().is_ok());
        // Draining the bounded tenant frees its slots.
        h1.wait().unwrap();
        h2.wait().unwrap();
        assert!(router.submit(bounded, refused).is_ok());

        let stats = router.stats();
        let t = stats.tenants.iter().find(|t| t.tenant == bounded).unwrap();
        assert_eq!(t.rejected, 1);
        assert_eq!(t.submitted, 4);
        router.shutdown();
    }

    #[test]
    fn empty_router_refuses_with_no_shards() {
        let router = Router::new(RouterConfig::default());
        let req = request(0);
        match router.submit(TenantId(0), req.clone()) {
            Err(RouterError::NoShards { request }) => assert_eq!(request, req),
            other => panic!("expected NoShards, got {other:?}"),
        }
        assert_eq!(router.stats().rejected, 1);
        router.shutdown();
    }

    #[test]
    fn duplicate_shard_ids_are_refused() {
        let router = small_router(2);
        assert!(!router.add_shard(1));
        assert_eq!(router.shards(), vec![0, 1]);
        assert!(router.remove_shard(1));
        assert!(!router.remove_shard(1));
        assert_eq!(router.shards(), vec![0]);
        router.shutdown();
    }

    #[test]
    fn malformed_requests_fail_exactly_as_direct_submission() {
        let router = small_router(2);
        // Not normalized and wrong length: no canonical key; routes at
        // fingerprint 0 and fails in the shard's pipeline.
        let bad = PrepareRequest::dense(dims(), vec![Complex::ONE; 2], PrepareOptions::exact());
        let direct = bad.clone().prepare_sequential().unwrap_err();
        let routed = router.submit(TenantId(0), bad).unwrap().wait().unwrap_err();
        assert_eq!(routed, EngineError::Prepare(direct));
        let stats = router.stats();
        assert_eq!(stats.failed, 1);
        router.shutdown();
    }

    #[test]
    fn dropped_handles_release_slots_and_are_ledgered() {
        let router = small_router(1);
        let tenant = TenantId(9);
        router.set_quota(tenant, TenantQuota::unlimited().with_max_in_flight(1));
        drop(router.submit(tenant, request(0)).unwrap());
        // The dropped handle released its slot: the next submission fits.
        let h = router.submit(tenant, request(1)).unwrap();
        h.wait().unwrap();
        let stats = router.stats();
        let t = stats.tenants.iter().find(|t| t.tenant == tenant).unwrap();
        assert_eq!(t.dropped, 1);
        assert_eq!(t.completed, 1);
        assert_eq!(t.completed + t.failed + t.rejected + t.dropped, t.submitted);
        router.shutdown();
    }

    #[test]
    fn removed_shard_drains_and_rejoins_warm_from_its_snapshot() {
        let dir = std::env::temp_dir().join(format!(
            "mdq-router-warm-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let router = Router::new(
            RouterConfig::default()
                .with_engine_config(EngineConfig::default().with_workers(1))
                .with_snapshot_dir(&dir),
        );
        for id in 0..2 {
            router.add_shard(id);
        }
        let tenant = TenantId(0);
        // Fill shard caches, remembering which shard served which seed.
        let mut by_shard: Vec<(usize, PrepareRequest)> = Vec::new();
        for seed in 0..8 {
            let req = request(seed);
            let handle = router.submit(tenant, req.clone()).unwrap();
            by_shard.push((handle.shard(), req));
            handle.wait().unwrap();
        }
        let victim = by_shard[0].0;
        assert!(router.remove_shard(victim));
        assert!(dir.join(format!("shard-{victim}.mdqsnap")).exists());
        assert!(router.add_shard(victim));
        let stats = router.stats();
        let rejoined = stats.shards.iter().find(|s| s.shard == victim).unwrap();
        let warm = rejoined.warm_loaded.unwrap();
        assert!(warm > 0, "re-joined shard must load its snapshot");
        // A request the victim served before re-routes to it (same ring)
        // and is a cache hit without recomputation.
        let (_, req) = by_shard.iter().find(|(s, _)| *s == victim).unwrap();
        let report = router.submit(tenant, req.clone()).unwrap().wait().unwrap();
        assert!(report.from_cache);
        router.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn template_warm_start_is_neither_read_nor_written_without_a_snapshot_dir() {
        // Shards built from one template must not share its snapshot file:
        // with no snapshot directory, no shard loads or saves one.
        let path = std::env::temp_dir().join(format!(
            "mdq-router-template-{}-{:?}.mdqsnap",
            std::process::id(),
            std::thread::current().id()
        ));
        let empty = "mdqsnap 1\nentries 0\ndone\n";
        std::fs::write(&path, empty).unwrap();
        let router = Router::new(
            RouterConfig::default().with_engine_config(
                EngineConfig::default()
                    .with_workers(1)
                    .with_warm_start(&path),
            ),
        );
        for id in 0..2 {
            assert!(router.add_shard(id));
        }
        let stats = router.stats();
        assert!(
            stats.shards.iter().all(|s| s.warm_loaded.is_none()),
            "no shard read the template's snapshot"
        );
        for seed in 0..4 {
            let handle = router.submit(TenantId(0), request(seed)).unwrap();
            handle.wait().unwrap();
        }
        router.shutdown();
        let after = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(after, empty, "no shard wrote the template's snapshot");
    }

    #[test]
    fn w_state_round_trips_through_the_router() {
        let router = small_router(2);
        let d = Dims::new(vec![3, 6, 2]).unwrap();
        let req = PrepareRequest::dense(d.clone(), w_state(&d), PrepareOptions::exact());
        let direct = req.clone().prepare_sequential().unwrap();
        let routed = router.submit(TenantId(0), req).unwrap().wait().unwrap();
        assert_eq!(*routed.circuit, direct.circuit);
        router.shutdown();
    }
}
