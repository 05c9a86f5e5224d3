//! Persistent preparation service for mixed-dimensional qudit states.
//!
//! The per-call pipeline of [`mdq-core`] (state → edge-weighted decision
//! diagram → approximation → circuit) is fast, but a serving deployment
//! sees *streams* of preparation requests. Mature decision-diagram packages
//! (Wille/Hillmich/Burgholzer, *Decision Diagrams for Quantum Computing*)
//! get their throughput from persistent unique and compute tables reused
//! across operations; this crate applies the same idea **across requests**,
//! behind a non-blocking submission front-end:
//!
//! ```text
//!                   ┌───────────────────────── EngineService ─────────────────────────┐
//!  submit(req) ───▶ │ scheduler ─▶ worker 0 ─ Preparer { DdArena ♻, ComputeCache ♻ }  │
//!   ─▶ JobHandle    │ (priority/ ─▶ worker 1 ─ Preparer { DdArena ♻, ComputeCache ♻ } │
//!  submit(req) ───▶ │  size/FIFO)─▶ worker n ─ …                                      │
//!   ─▶ JobHandle    │                    │ probe / fill                               │
//!       …           │        CircuitCache (sharded, fingerprint-keyed, LRU-bounded)   │
//!                   └──────────────────────────────────────────────────────────────────┘
//!     handle.wait() / try_wait() / wait_timeout() ◀── per-job result channel
//! ```
//!
//! * **Persistent worker pool** — [`EngineService::new`] spawns the pool
//!   once; each worker owns a [`Preparer`](mdq_core::Preparer) whose
//!   diagram arena and canonicalization/memo tables stay warm across *all*
//!   submissions for the lifetime of the service (observable through
//!   [`EngineStats::arena_reuses`]).
//! * **Non-blocking submission** — [`EngineService::submit`] enqueues and
//!   returns a [`JobHandle`] immediately; the handle resolves through a
//!   per-job channel with blocking, polling, and timeout waits. No
//!   external async runtime — std mpsc + condvar only.
//! * **Size-aware scheduling with wait-time aging** — the default
//!   [`SchedulingPolicy::SizeAware`] orders by caller [`Priority`], then
//!   by estimated job cost, so large Table-1 jobs stop head-of-line
//!   blocking small ones; wait-time [`Aging`] (on by default) halves a
//!   queued job's effective cost every epoch and eventually promotes it
//!   across priority classes, so no accepted job starves under a
//!   sustained small-job flood ([`scheduler`] module docs); `Fifo` is the
//!   baseline. Scheduling never changes results, only queue waits
//!   ([`PrepareReport::queue_wait`]).
//! * **Prepared-circuit cache** — requests are fingerprinted by a content
//!   hash of the register, the tolerance-quantized target amplitudes, and
//!   the pipeline options ([`cache`] module); identical requests are
//!   served the stored circuit. Optionally bounded with per-shard LRU
//!   eviction ([`EngineConfig::with_cache_capacity`]); entries are
//!   content-addressed, so they never go stale and the size bound is the
//!   only one.
//! * **Warm-start persistence** — [`EngineConfig::with_warm_start`] loads
//!   a [`snapshot`] of the prepared-circuit cache at construction (loads
//!   re-derive every fingerprint and only admit records that round-trip
//!   bit-exactly) and snapshots back on graceful shutdown, so a restart
//!   replays the previous process's work instead of starting cold;
//!   [`EngineService::snapshot_to`] saves on demand.
//! * **FIFO-fair admission control** — [`EngineConfig::with_queue_depth`]
//!   bounds the scheduler queue: [`EngineService::try_submit`] refuses
//!   overflow with [`EngineError::QueueFull`] (the request handed back by
//!   value in an [`AdmissionError`]), while the blocking
//!   [`EngineService::submit`] parks on a **ticketed waiter queue** —
//!   freed slots go to parked submitters strictly in arrival order, and a
//!   non-blocking flood is refused rather than allowed to steal an owed
//!   slot. Shed load, the queue's high-watermark, parked submitters
//!   ([`EngineStats::parked`]) and per-job admission waits
//!   ([`PrepareReport::admission_wait`]) are all observable.
//! * **Verification mode** — [`PrepareRequest::with_verification`] makes
//!   the worker replay the synthesized circuit by decision-diagram
//!   simulation ([`Preparer::replay`](mdq_core::Preparer::replay)) and
//!   compare the fidelity against the requested target; a
//!   [`VerificationReport`] rides on the [`PrepareReport`], jobs below the
//!   floor fail with [`EngineError::VerificationFailed`], and cache
//!   entries record whether they were verified — a verified request never
//!   silently reuses an unverified entry.
//! * **Wire protocol & public fingerprinting** — the [`wire`] module
//!   carries full [`PrepareRequest`] / [`PrepareReport`] / error frames in
//!   a versioned, line-oriented raw-f64-bit text form (bit-exact round
//!   trip, typed parse errors), and [`canonical_key`] /
//!   [`fingerprint_of`] expose the cache's stable content fingerprint —
//!   together the substrate of the `mdq-router` sharded front-end, which
//!   routes each request to the shard whose cache already holds it.
//! * **Deterministic by construction** — every circuit is bit-identical
//!   to what a sequential [`prepare`](mdq_core::prepare) loop would
//!   produce, regardless of worker count, scheduling order, priorities, or
//!   cache state (cache entries are only served on *exact* key matches).
//! * **Clean teardown** — [`EngineService::shutdown`] drains,
//!   [`EngineService::shutdown_now`] / `Drop` abort (queued jobs resolve
//!   to [`EngineError::Shutdown`]); either way the pool is joined.
//!
//! A blocking batch is [`EngineService::submit_batch`] followed by
//! [`JobHandle::wait`] on each handle, which yields results in request
//! order.
//!
//! # Examples
//!
//! ```
//! use mdq_engine::{EngineService, EngineConfig, PrepareRequest, Priority};
//! use mdq_core::PrepareOptions;
//! use mdq_num::radix::Dims;
//! use mdq_states::{ghz, w_state};
//!
//! let dims = Dims::new(vec![3, 6, 2])?;
//! let service = EngineService::new(EngineConfig::default().with_workers(2));
//!
//! // Stream requests in; submission never blocks on the pipeline.
//! let big = service.submit(PrepareRequest::dense(
//!     dims.clone(), w_state(&dims), PrepareOptions::exact(),
//! ));
//! let urgent = service.submit(
//!     PrepareRequest::dense(dims.clone(), ghz(&dims), PrepareOptions::exact())
//!         .with_priority(Priority::High),
//! );
//!
//! // Await each job individually.
//! let urgent = urgent.wait()?;
//! let big = big.wait()?;
//! assert!(!urgent.circuit.is_empty() && !big.circuit.is_empty());
//!
//! service.shutdown(); // drain + join
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`mdq-core`]: mdq_core

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod engine;
mod request;
pub mod scheduler;
mod service;
pub mod snapshot;
pub mod wire;

pub use cache::{canonical_key, fingerprint_of, CacheStats, CanonicalKey, CircuitCache};
pub use engine::{EngineConfig, EngineStats};
pub use request::{PrepareReport, PrepareRequest, StatePayload};
pub use scheduler::{Aging, Priority, SchedulingPolicy};
pub use service::{AdmissionError, EngineError, EngineService, JobHandle};
pub use snapshot::{SnapshotError, SnapshotLoad, SnapshotStats};
pub use wire::{ErrorFrame, Frame, ReportFrame, RequestFrame, WireError};

// Re-exported for convenience: the verification vocabulary lives in
// `mdq-core` (the replay hook is on `Preparer`), but it is configured and
// consumed through the engine's request/report types.
pub use mdq_core::{VerificationPolicy, VerificationReport};

// Compile-time Send/Sync audit: every type that crosses the engine's worker
// threads (requests in, reports out, the shared cache and service state)
// must stay thread-safe; a non-thread-safe field added anywhere below
// breaks this build, not a production deployment.
const fn assert_send_sync<T: Send + Sync>() {}
const fn assert_send<T: Send>() {}
const _: () = {
    assert_send_sync::<EngineService>();
    assert_send_sync::<EngineConfig>();
    assert_send_sync::<EngineStats>();
    assert_send_sync::<EngineError>();
    assert_send_sync::<CircuitCache>();
    assert_send_sync::<CacheStats>();
    assert_send_sync::<SnapshotError>();
    assert_send_sync::<SnapshotLoad>();
    assert_send_sync::<SnapshotStats>();
    assert_send_sync::<PrepareRequest>();
    assert_send_sync::<PrepareReport>();
    assert_send_sync::<StatePayload>();
    assert_send_sync::<Priority>();
    assert_send_sync::<SchedulingPolicy>();
    assert_send_sync::<Aging>();
    assert_send_sync::<AdmissionError>();
    assert_send_sync::<VerificationPolicy>();
    assert_send_sync::<VerificationReport>();
    assert_send_sync::<CanonicalKey>();
    assert_send_sync::<Frame>();
    assert_send_sync::<RequestFrame>();
    assert_send_sync::<ReportFrame>();
    assert_send_sync::<ErrorFrame>();
    assert_send_sync::<WireError>();
    // A JobHandle wraps an mpsc receiver: movable across threads, but
    // deliberately single-consumer (not Sync).
    assert_send::<JobHandle>();
};
