//! Deterministic stress/chaos harness for the hardened `EngineService`:
//! multiple submitter threads flood a bounded service past its queue depth
//! with a mix of good, malformed, and below-verification-threshold jobs,
//! and the harness proves — at 1, 2, and 4 workers, under both scheduling
//! policies — that
//!
//! * every submission is accounted for **exactly once** (completed,
//!   rejected by admission control, failed in the pipeline, or failed
//!   verification),
//! * every accepted-and-completed job is **bit-identical** to the one-shot
//!   sequential pipeline,
//! * the service's own counters (`EngineStats::{jobs, failures, rejected,
//!   verification_failures, high_watermark}`) reconcile with the harness's
//!   independent ledger.
//!
//! The chaos is in the *timing* (which submissions get rejected, which hit
//! the cache); every assertion is an invariant that holds for all
//! interleavings, which is what makes the suite deterministic.
//!
//! This file also carries the `JobHandle` edge-case regression tests
//! (zero-duration timeouts, timeout racing completion, waits after
//! `shutdown_now`, dropped handles mid-flight) that the PR's satellites
//! call for. It is timing-sensitive in debug builds; CI runs it in a
//! dedicated `--release` job.

use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use mdq::circuit::Circuit;
use mdq::core::{prepare, PrepareOptions, Preparer, VerificationPolicy};
use mdq::engine::{
    Aging, EngineConfig, EngineError, EngineService, JobHandle, PrepareRequest, Priority,
    SchedulingPolicy, SnapshotError,
};
use mdq::num::radix::Dims;
use mdq::num::Complex;
use mdq::states::{ghz, random_state, w_state, RandomKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dims(v: &[usize]) -> Dims {
    Dims::new(v.to_vec()).unwrap()
}

/// What the harness knows a template request must resolve to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expected {
    /// Resolves `Ok` with the precomputed sequential circuit.
    Success,
    /// Fails in the pipeline with `EngineError::Prepare`.
    Malformed,
    /// Fails verification with the precomputed fidelity.
    BelowThreshold,
}

/// One workload template: the request, its expected outcome, and (where
/// applicable) the sequential reference circuit / replay fidelity it must
/// reproduce bit-for-bit.
struct Template {
    request: PrepareRequest,
    expected: Expected,
    circuit: Option<Circuit>,
    fidelity: Option<f64>,
}

impl Template {
    fn success(request: PrepareRequest) -> Self {
        let circuit = request
            .prepare_sequential()
            .expect("success template runs sequentially")
            .circuit;
        Template {
            request,
            expected: Expected::Success,
            circuit: Some(circuit),
            fidelity: None,
        }
    }

    fn malformed(request: PrepareRequest) -> Self {
        request
            .prepare_sequential()
            .expect_err("malformed template must fail sequentially");
        Template {
            request,
            expected: Expected::Malformed,
            circuit: None,
            fidelity: None,
        }
    }

    /// An approximated job whose verification floor is calibrated strictly
    /// above the fidelity it actually reaches, so it deterministically
    /// fails verification (and only verification).
    fn below_threshold(dims: &Dims, target: Vec<Complex>) -> Self {
        let opts = PrepareOptions::approximated(0.9).without_zero_subtrees();
        let sequential = prepare(dims, &target, opts).expect("pipeline runs");
        assert!(
            sequential.report.pruned_mass > 0.0,
            "below-threshold template must actually lose mass"
        );
        let reached = Preparer::new()
            .verify_dense(&sequential.circuit, &target)
            .expect("replay runs")
            .fidelity;
        assert!(reached < 1.0 - 1e-9, "reached fidelity must be below 1");
        let floor = (reached + 1.0) / 2.0;
        Template {
            request: PrepareRequest::dense(dims.clone(), target, opts)
                .with_verification(VerificationPolicy::replay(floor)),
            expected: Expected::BelowThreshold,
            circuit: None,
            fidelity: Some(reached),
        }
    }
}

/// The mixed chaos workload: dense/sparse, exact/approximated, verified and
/// unverified good jobs, malformed jobs (wrong length, bad digits), and a
/// calibrated below-threshold job — with varied priorities so the
/// size-aware scheduler actually reorders.
fn templates() -> Vec<Template> {
    let d3 = dims(&[3, 6, 2]);
    let d2 = dims(&[4, 3]);
    let sparse_dims = dims(&[3, 4, 2, 5, 3, 2, 4, 3]);
    let mut rng = StdRng::seed_from_u64(0x5712E55);
    vec![
        Template::success(PrepareRequest::dense(
            d3.clone(),
            ghz(&d3),
            PrepareOptions::exact(),
        )),
        Template::success(
            PrepareRequest::dense(d3.clone(), w_state(&d3), PrepareOptions::approximated(0.98))
                .with_priority(Priority::High),
        ),
        Template::success(
            PrepareRequest::sparse(
                sparse_dims.clone(),
                mdq::states::sparse::ghz(&sparse_dims),
                PrepareOptions::exact(),
            )
            .with_priority(Priority::Low),
        ),
        // A verified good job: exact synthesis replays at fidelity ~1.
        Template::success(
            PrepareRequest::dense(
                d2.clone(),
                random_state(&d2, RandomKind::ReImUniform, &mut rng),
                PrepareOptions::exact().without_zero_subtrees(),
            )
            .with_verification(VerificationPolicy::replay(0.999)),
        ),
        // A verified sparse job.
        Template::success(
            PrepareRequest::sparse(
                sparse_dims.clone(),
                mdq::states::sparse::w_state(&sparse_dims),
                PrepareOptions::exact(),
            )
            .with_verification(VerificationPolicy::replay(0.999)),
        ),
        // Malformed: wrong amplitude-vector length.
        Template::malformed(PrepareRequest::dense(
            d2.clone(),
            vec![Complex::ONE],
            PrepareOptions::exact(),
        )),
        // Malformed: digit out of range for the register.
        Template::malformed(PrepareRequest::sparse(
            d2.clone(),
            vec![(vec![0, 9], Complex::ONE)],
            PrepareOptions::exact(),
        )),
        // Deterministically fails its (calibrated) verification floor.
        Template::below_threshold(&d3, random_state(&d3, RandomKind::ReImUniform, &mut rng)),
    ]
}

const SUBMITTERS: usize = 4;
const PER_SUBMITTER: usize = 18;
const QUEUE_DEPTH: usize = 4;

/// Floods a bounded service from `SUBMITTERS` threads (alternating the
/// blocking and the non-blocking submission paths), waits out every
/// accepted handle, and reconciles the outcome ledger with both the
/// templates' expectations and the service's own counters.
fn flood_and_reconcile(workers: usize, policy: SchedulingPolicy) {
    let templates = templates();
    let service = EngineService::new(
        EngineConfig::default()
            .with_workers(workers)
            .with_queue_depth(QUEUE_DEPTH)
            .with_scheduling(policy),
    );
    let rejected_total = AtomicU64::new(0);

    // Fan submissions out from SUBMITTERS threads; collect (template
    // index, handle) pairs for everything that was admitted.
    let accepted: Vec<(usize, JobHandle)> = thread::scope(|scope| {
        let submitter_handles: Vec<_> = (0..SUBMITTERS)
            .map(|submitter| {
                let templates = &templates;
                let service = &service;
                let rejected_total = &rejected_total;
                scope.spawn(move || {
                    let mut admitted = Vec::new();
                    for i in 0..PER_SUBMITTER {
                        let index = (submitter + i * SUBMITTERS) % templates.len();
                        let request = templates[index].request.clone();
                        if (submitter + i) % 2 == 0 {
                            // Non-blocking path: may be refused by
                            // admission control.
                            match service.try_submit(request) {
                                Ok(handle) => admitted.push((index, handle)),
                                Err(refused) => {
                                    assert!(
                                        matches!(
                                            refused.error,
                                            EngineError::QueueFull {
                                                limit: QUEUE_DEPTH,
                                                ..
                                            }
                                        ),
                                        "unexpected refusal: {:?}",
                                        refused.error
                                    );
                                    assert_eq!(
                                        refused.request, templates[index].request,
                                        "rejected request handed back intact"
                                    );
                                    rejected_total.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        } else {
                            // Blocking path: parks until space, never
                            // refused while the service is up.
                            admitted.push((index, service.submit(request)));
                        }
                    }
                    admitted
                })
            })
            .collect();
        submitter_handles
            .into_iter()
            .flat_map(|h| h.join().expect("submitter thread never panics"))
            .collect()
    });

    // Wait out every accepted handle and classify its outcome against the
    // template's expectation.
    let (mut completed, mut prepare_failed, mut verification_failed) = (0u64, 0u64, 0u64);
    for (index, handle) in accepted {
        let template = &templates[index];
        match handle.wait() {
            Ok(report) => {
                assert_eq!(
                    template.expected,
                    Expected::Success,
                    "template {index} must not succeed"
                );
                assert_eq!(
                    &report.circuit,
                    template.circuit.as_ref().unwrap(),
                    "template {index}: accepted result bit-identical to sequential \
                     ({workers} workers, {policy:?})"
                );
                if template.request.options.verification.is_enabled() {
                    assert!(
                        report.verification.is_some(),
                        "verified serving carries its report"
                    );
                }
                completed += 1;
            }
            Err(EngineError::Prepare(_)) => {
                assert_eq!(template.expected, Expected::Malformed);
                prepare_failed += 1;
            }
            Err(EngineError::VerificationFailed {
                fidelity,
                threshold,
            }) => {
                assert_eq!(template.expected, Expected::BelowThreshold);
                assert!(fidelity < threshold);
                let expected_fidelity = template.fidelity.unwrap();
                assert!(
                    (fidelity - expected_fidelity).abs() < 1e-12,
                    "measured fidelity {fidelity} deviates from the calibrated \
                     {expected_fidelity}"
                );
                verification_failed += 1;
            }
            Err(other) => panic!("unexpected outcome for template {index}: {other:?}"),
        }
    }

    // The ledger: every submission resolved exactly once.
    let rejected = rejected_total.load(Ordering::Relaxed);
    let submitted = (SUBMITTERS * PER_SUBMITTER) as u64;
    assert_eq!(
        completed + prepare_failed + verification_failed + rejected,
        submitted,
        "every submission accounted for exactly once ({workers} workers, {policy:?})"
    );

    // The service's own counters agree with the independent ledger.
    let stats = service.stats();
    assert_eq!(stats.jobs, completed, "jobs == completed");
    assert_eq!(stats.failures, prepare_failed, "failures == prepare errors");
    assert_eq!(
        stats.verification_failures, verification_failed,
        "verification_failures == below-threshold outcomes"
    );
    assert_eq!(stats.rejected, rejected, "rejected == admission refusals");
    assert!(
        stats.high_watermark <= QUEUE_DEPTH,
        "queue never exceeded its bound (saw {})",
        stats.high_watermark
    );
    if rejected > 0 {
        assert_eq!(
            stats.high_watermark, QUEUE_DEPTH,
            "a refusal implies the queue was full"
        );
    }
    assert!(
        stats.verified > 0,
        "verified good templates recurred, so passing verifications happened"
    );
    service.shutdown();
}

#[test]
fn stress_flood_reconciles_at_one_worker() {
    flood_and_reconcile(1, SchedulingPolicy::SizeAware);
    flood_and_reconcile(1, SchedulingPolicy::Fifo);
}

#[test]
fn stress_flood_reconciles_at_two_workers() {
    flood_and_reconcile(2, SchedulingPolicy::SizeAware);
    flood_and_reconcile(2, SchedulingPolicy::Fifo);
}

#[test]
fn stress_flood_reconciles_at_four_workers() {
    flood_and_reconcile(4, SchedulingPolicy::SizeAware);
    flood_and_reconcile(4, SchedulingPolicy::Fifo);
}

/// A saturated one-slot queue must actually exercise the rejection path:
/// with the single worker pinned on an expensive job and the queue slot
/// taken, a burst of try_submits cannot all be admitted.
#[test]
fn saturated_queue_rejects_and_recovers() {
    let big = dims(&[9, 5, 6, 3]);
    let small = dims(&[2, 2]);
    let service = EngineService::new(
        EngineConfig::default()
            .with_workers(1)
            .with_queue_depth(1)
            .without_cache(),
    );
    let mut rng = StdRng::seed_from_u64(7);
    let busy = service.submit(PrepareRequest::dense(
        big.clone(),
        random_state(&big, RandomKind::ReImUniform, &mut rng),
        PrepareOptions::exact(),
    ));
    let cheap = PrepareRequest::dense(small.clone(), ghz(&small), PrepareOptions::exact());
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for _ in 0..128 {
        match service.try_submit(cheap.clone()) {
            Ok(handle) => accepted.push(handle),
            Err(_) => rejected += 1,
        }
    }
    assert!(
        rejected > 0,
        "a one-slot queue under burst load must refuse"
    );
    // Recovery: after the flood the service still serves everything.
    busy.wait().expect("the big job completes");
    let expected = cheap.prepare_sequential().unwrap().circuit;
    for handle in accepted {
        assert_eq!(
            handle.wait().expect("admitted job resolves").circuit,
            expected
        );
    }
    let stats = service.stats();
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.high_watermark, 1);
    service.shutdown();
}

/// Satellite: `JobHandle::wait_timeout` with a zero duration never blocks
/// and never corrupts the handle — whatever it observes (pending or
/// already resolved, depending on how the race with the worker goes), the
/// real wait still yields the full result. The purely deterministic
/// pending/resolved/dead-channel semantics are unit-tested in
/// `crates/engine/src/service.rs` (`zero_duration_wait_timeout_is_a_pure_poll`).
#[test]
fn wait_timeout_zero_duration_is_a_nonblocking_poll() {
    let big = dims(&[9, 5, 6, 3]);
    let service = EngineService::new(EngineConfig::default().with_workers(1).without_cache());
    let mut rng = StdRng::seed_from_u64(11);
    let mut handle = service.submit(PrepareRequest::dense(
        big.clone(),
        random_state(&big, RandomKind::ReImUniform, &mut rng),
        PrepareOptions::exact(),
    ));
    // Zero-duration polls return instantly, resolved or not...
    let early = handle.wait_timeout(Duration::ZERO).is_some();
    let _ = handle.try_wait();
    // ...and never consume the outcome: the real wait still resolves Ok.
    assert!(handle.wait().is_ok());
    // (With one worker and an ~800-amplitude job, the poll almost always
    // fires while the job is still running; either way is valid.)
    let _ = early;
    service.shutdown();
}

/// Satellite: a timeout racing completion either returns `None` (timed
/// out) or the final result — never a partial state — and the result is
/// retained across repeated calls.
#[test]
fn wait_timeout_racing_completion_converges() {
    let d = dims(&[3, 3]);
    let service = EngineService::new(EngineConfig::default().with_workers(1));
    let mut handle = service.submit(PrepareRequest::dense(
        d.clone(),
        ghz(&d),
        PrepareOptions::exact(),
    ));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(outcome) = handle.wait_timeout(Duration::from_micros(50)) {
            assert!(outcome.is_ok());
            break;
        }
        assert!(Instant::now() < deadline, "job must resolve");
    }
    // Retained: polls after resolution keep returning the same outcome.
    assert!(handle.wait_timeout(Duration::ZERO).is_some());
    assert!(handle.try_wait().is_some());
    assert!(handle.wait().is_ok());
    service.shutdown();
}

/// Satellite: waits racing `shutdown_now` must resolve — to the real
/// result for in-flight jobs, to `Shutdown` for still-queued ones — and
/// never hang, even with a zero-duration timeout on a dead channel.
#[test]
fn wait_after_shutdown_now_resolves_and_never_hangs() {
    let d = dims(&[3, 6, 2]);
    let service = EngineService::new(EngineConfig::default().with_workers(1).without_cache());
    let handles: Vec<JobHandle> = (0..16)
        .map(|_| {
            service.submit(PrepareRequest::dense(
                d.clone(),
                w_state(&d),
                PrepareOptions::exact(),
            ))
        })
        .collect();
    service.shutdown_now();
    let mut shutdown = 0;
    for (i, mut handle) in handles.into_iter().enumerate() {
        if i % 2 == 0 {
            // Bounded wait on a resolved-or-dead channel: must return Some
            // well within the timeout, never hang.
            let outcome = handle
                .wait_timeout(Duration::from_secs(30))
                .expect("resolves within the timeout");
            if matches!(outcome, Err(EngineError::Shutdown)) {
                shutdown += 1;
            }
            // Even a zero-duration poll on the dead channel resolves.
            assert!(handle.wait_timeout(Duration::ZERO).is_some());
        } else {
            match handle.wait() {
                Ok(_) => {}
                Err(EngineError::Shutdown) => shutdown += 1,
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
    }
    assert!(shutdown > 0, "a 16-deep queue cannot drain before abort");
}

/// Satellite regression: dropping handles mid-flight under load — for
/// queued, running, and already-finished jobs alike — must not deadlock
/// the pool, leak replies, or corrupt the counters; the service keeps
/// serving and shuts down cleanly.
#[test]
fn dropping_handles_mid_flight_never_deadlocks() {
    let d = dims(&[3, 6, 2]);
    let service = EngineService::new(
        EngineConfig::default()
            .with_workers(2)
            .with_queue_depth(QUEUE_DEPTH)
            .without_cache(),
    );
    let mut kept = Vec::new();
    let mut dropped = 0u64;
    let mut rejected = 0u64;
    for i in 0..32 {
        let request = PrepareRequest::dense(d.clone(), w_state(&d), PrepareOptions::exact());
        // Alternate blocking and non-blocking admission under load.
        let admitted = if i % 2 == 0 {
            Some(service.submit(request))
        } else {
            match service.try_submit(request) {
                Ok(handle) => Some(handle),
                Err(_) => {
                    rejected += 1;
                    None
                }
            }
        };
        match admitted {
            // Drop every other admitted handle immediately — the job (and
            // its reply channel) must outlive the handle without issue.
            Some(handle) if i % 4 < 2 => drop(handle),
            Some(handle) => kept.push(handle),
            None => {}
        }
        if i % 4 < 2 && i % 2 == 0 {
            dropped += 1;
        }
    }
    for handle in kept {
        handle.wait().expect("kept handles resolve normally");
    }
    assert!(dropped > 0);
    // Abandoned jobs still ran: the ledger counts admissions, not handles.
    // Waiting on the kept handles only guarantees *those* finished — poll
    // (bounded) for the abandoned remainder before reconciling.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = service.stats();
        if stats.jobs + stats.failures + stats.verification_failures + rejected == 32 {
            break;
        }
        assert!(Instant::now() < deadline, "abandoned jobs must still run");
        thread::yield_now();
    }
    assert_eq!(service.stats().rejected, rejected);
    // Shutdown after the chaos is clean (would hang or panic on a leak).
    service.shutdown();
}

/// Size of the small-job flood in the starvation scenarios. Large enough
/// that the aged and the un-aged pop counts are separated by an order of
/// magnitude, small enough that draining it (the aging-off case must
/// complete every small before the probe) stays fast.
const FLOOD: u64 = 600;

/// The pop-count ceiling asserted for the probe with aging on. The
/// expected value is ~(blockers + 1); the generous slack absorbs smalls
/// that workers complete between the probe's handle resolving and the
/// observer thread waking to sample the `jobs` counter (each small runs
/// ~300 µs, so even a multi-millisecond scheduling hiccup costs only tens
/// of counts). Still 4× below `FLOOD`, so the aged and un-aged regimes
/// cannot be confused.
const AGED_POP_BOUND: u64 = 150;

/// The deterministic starvation scenario of this PR's tentpole: all
/// workers are pinned by expensive High-priority blockers, one large
/// `probe_priority` probe job is queued, then a `FLOOD`-deep small-job
/// flood is queued behind it. Returns `stats.jobs` at the instant the
/// probe's handle resolved — the number of jobs (blockers, smalls, probe)
/// that completed up to and including the probe.
///
/// With aging **off**, the probe's frozen sort key (cost 810 against the
/// smalls' 216) means every queued small pops first: the count is ≥
/// `FLOOD` — the starvation the caveat used to document. With aging
/// **on**, the probe's effective cost decays to zero while the blockers
/// pin the workers (≥ milliseconds, against a 250 µs epoch), so it pops
/// with the oldest jobs and the count stays ≤ `AGED_POP_BOUND`.
///
/// Determinism: the blockers are `2 × workers` dense random jobs on the
/// Table-1 register `[4,7,4,4,3,5]` (milliseconds each) at `High`
/// priority, so the pool stays pinned — first by the running blockers,
/// then by the queued ones, which outrank every Normal job under both
/// aging settings — for the entire (sub-millisecond) submission of the
/// probe and the flood. The probe is a *basis state* on `[9,5,6,3]`:
/// estimated cost 810 (it is the dense payload length that is scheduled),
/// but near-zero pipeline time, so the sampled counter is not inflated by
/// smalls completing while the probe itself runs. The smalls are dense
/// random jobs on `[6,6,6]` — cost 216, a few hundred µs each — rather
/// than microsecond toys: the `jobs` counter is sampled *after* the
/// probe's handle resolves, and the smalls must be slow enough that the
/// handful a worker completes before the observer thread wakes cannot
/// approach the bound.
fn starvation_probe_pops(workers: usize, aging: Aging, probe_priority: Priority) -> u64 {
    let blocker_dims = dims(&[4, 7, 4, 4, 3, 5]);
    let probe_dims = dims(&[9, 5, 6, 3]);
    let small_dims = dims(&[6, 6, 6]);
    let service = EngineService::new(
        EngineConfig::default()
            .with_workers(workers)
            .with_scheduling(SchedulingPolicy::SizeAware)
            .with_aging(aging)
            .without_cache(),
    );
    let mut rng = StdRng::seed_from_u64(0xA61);
    let blockers: Vec<JobHandle> = (0..2 * workers)
        .map(|_| {
            service.submit(
                PrepareRequest::dense(
                    blocker_dims.clone(),
                    random_state(&blocker_dims, RandomKind::ReImUniform, &mut rng),
                    PrepareOptions::exact(),
                )
                .with_priority(Priority::High),
            )
        })
        .collect();
    // A one-hot amplitude vector: scheduled at dense cost 810, served in
    // near-zero time.
    let mut basis = vec![Complex::ZERO; probe_dims.space_size()];
    basis[0] = Complex::ONE;
    let probe = service.submit(
        PrepareRequest::dense(probe_dims.clone(), basis, PrepareOptions::exact())
            .with_priority(probe_priority),
    );
    let small = PrepareRequest::dense(
        small_dims.clone(),
        random_state(&small_dims, RandomKind::ReImUniform, &mut rng),
        PrepareOptions::exact(),
    );
    // The flood handles are deliberately dropped: the scenario only cares
    // how many of these jobs pop before the probe, which the service's own
    // `jobs` counter reports.
    for _ in 0..FLOOD {
        drop(service.submit(small.clone()));
    }
    probe.wait().expect("the probe job completes");
    let jobs_at_probe = service.stats().jobs;
    for blocker in blockers {
        blocker.wait().expect("blocker jobs complete");
    }
    // Abort the un-popped remainder of the flood instead of draining it.
    service.shutdown_now();
    jobs_at_probe
}

/// Tentpole: with aging off a queued large job starves behind the
/// pre-queued small-job flood (every small pops first — the documented
/// pre-PR behaviour, kept as the measurable baseline), while wait-time
/// aging bounds the same probe's pops at 1, 2, and 4 workers.
#[test]
fn aging_bounds_the_starved_probe_at_every_worker_count() {
    for workers in [1usize, 2, 4] {
        let starved = starvation_probe_pops(workers, Aging::Off, Priority::Normal);
        assert!(
            starved >= FLOOD,
            "aging off at {workers} workers: the probe must starve behind \
             the whole flood (popped after only {starved} jobs)"
        );
        let aged = starvation_probe_pops(
            workers,
            Aging::HalveEvery(Duration::from_micros(250)),
            Priority::Normal,
        );
        assert!(
            aged <= AGED_POP_BOUND,
            "aging on at {workers} workers: the probe must pop within \
             {AGED_POP_BOUND} jobs, took {aged}"
        );
    }
}

/// Tentpole: aging also promotes across priority classes — a `Low` probe
/// under a `Normal` flood starves with aging off, but the promotion term
/// (one class per `Aging::PRIORITY_PROMOTION_EPOCHS` epochs of wait)
/// bounds it with aging on, exactly like the same-class case.
#[test]
fn aging_promotes_a_low_priority_probe_past_a_normal_flood() {
    let starved = starvation_probe_pops(1, Aging::Off, Priority::Low);
    assert!(
        starved >= FLOOD,
        "a Low probe under a Normal flood must starve without aging \
         (popped after only {starved} jobs)"
    );
    let aged = starvation_probe_pops(
        1,
        Aging::HalveEvery(Duration::from_micros(100)),
        Priority::Low,
    );
    assert!(
        aged <= AGED_POP_BOUND,
        "promotion must lift the Low probe past the Normal flood within \
         {AGED_POP_BOUND} jobs, took {aged}"
    );
}

/// Tentpole: FIFO-fair bounded admission end-to-end. With the single
/// worker pinned and the one queue slot taken, three blocking submitters
/// park one at a time (each observed via `EngineStats::parked` before the
/// next arrives, so their ticket order is pinned); a concurrent burst of
/// `try_submit`s is refused rather than allowed to steal the slots the
/// parked submitters are owed; and as the worker frees slots the parked
/// submitters admit strictly in ticket (arrival) order, each reporting its
/// park time as `PrepareReport::admission_wait`.
#[test]
fn parked_submitters_admit_in_ticket_order_with_observable_waits() {
    let blocker_dims = dims(&[4, 7, 4, 4, 3, 5]);
    let small_dims = dims(&[2, 2]);
    let service = EngineService::new(
        EngineConfig::default()
            .with_workers(1)
            .with_queue_depth(1)
            .with_scheduling(SchedulingPolicy::Fifo)
            .without_cache(),
    );
    let mut rng = StdRng::seed_from_u64(0xF41);
    // Pin the worker on an expensive job, then take the single queue slot.
    let blocker = service.submit(PrepareRequest::dense(
        blocker_dims.clone(),
        random_state(&blocker_dims, RandomKind::ReImUniform, &mut rng),
        PrepareOptions::exact(),
    ));
    let filler = service.submit(PrepareRequest::dense(
        small_dims.clone(),
        ghz(&small_dims),
        PrepareOptions::exact(),
    ));
    let small = PrepareRequest::dense(
        small_dims.clone(),
        ghz(&small_dims),
        PrepareOptions::exact(),
    );

    let admission_order = std::sync::Mutex::new(Vec::new());
    let refused = AtomicU64::new(0);
    let parked_seen = AtomicU64::new(0);
    let submitter_reports: Vec<JobHandle> = thread::scope(|scope| {
        let mut submitters = Vec::new();
        for id in 0..3usize {
            let service = &service;
            let small = &small;
            let admission_order = &admission_order;
            submitters.push(scope.spawn(move || {
                let handle = service.submit(small.clone());
                // `submit` returns only once the job is enqueued, and the
                // ticket queue admits in arrival order — so the order of
                // these records is the admission order.
                admission_order.lock().unwrap().push(id);
                handle
            }));
            // Park the submitters strictly one at a time: their tickets
            // (and so their arrival order) are pinned, not racy.
            let deadline = Instant::now() + Duration::from_secs(30);
            while service.stats().parked < id + 1 {
                assert!(Instant::now() < deadline, "submitter {id} must park");
                thread::yield_now();
            }
        }
        parked_seen.store(service.stats().parked as u64, Ordering::Relaxed);
        // With three ticket holders parked, non-blocking admission must be
        // refused throughout — whether the queue is momentarily full or a
        // freed slot is owed to a ticket, a probe can never steal it.
        for _ in 0..64 {
            match service.try_submit(small.clone()) {
                Ok(_) => panic!("try_submit must not steal a slot owed to a parked submitter"),
                Err(refusal) => {
                    assert!(
                        matches!(refusal.error, EngineError::QueueFull { limit: 1, .. }),
                        "unexpected refusal: {:?}",
                        refusal.error
                    );
                    refused.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        submitters
            .into_iter()
            .map(|s| s.join().expect("submitter thread never panics"))
            .collect()
    });

    assert_eq!(parked_seen.load(Ordering::Relaxed), 3, "all three parked");
    assert_eq!(
        *admission_order.lock().unwrap(),
        vec![0, 1, 2],
        "parked submitters admit strictly in ticket (arrival) order"
    );
    blocker.wait().expect("blocker completes");
    filler.wait().expect("filler completes");
    for handle in submitter_reports {
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
    let stats = service.stats();
    assert_eq!(stats.rejected, refused.load(Ordering::Relaxed));
    assert_eq!(stats.parked, 0, "no submitter left parked");
    assert_eq!(stats.jobs, 5, "blocker + filler + three parked submissions");
    service.shutdown();
}

/// Satellite regression: a malformed payload — here an empty-support
/// sparse request, whose estimated cost used to be 0 (sorting ahead of
/// every real job) — is rejected **at admission** with the same error the
/// pipeline would produce: the handle resolves immediately, nothing is
/// queued, and no worker ran it.
#[test]
fn empty_support_sparse_requests_fail_at_admission() {
    let d = dims(&[3, 3]);
    let service = EngineService::new(EngineConfig::default().with_workers(1).without_cache());
    let empty = PrepareRequest::sparse(d.clone(), vec![], PrepareOptions::exact());
    let want = empty
        .prepare_sequential()
        .expect_err("empty support must fail the sequential pipeline too");
    match service.submit(empty.clone()).wait() {
        Err(EngineError::Prepare(got)) => {
            assert_eq!(
                got.to_string(),
                want.to_string(),
                "admission rejects with the pipeline's own error"
            );
        }
        other => panic!("expected an admission-time Prepare error, got {other:?}"),
    }
    // try_submit validates too, and validation precedes admission control:
    // the outcome of a malformed request never depends on queue state.
    let handle = service
        .try_submit(empty)
        .expect("malformed requests are not admission refusals");
    assert!(matches!(handle.wait(), Err(EngineError::Prepare(_))));
    let stats = service.stats();
    assert_eq!(stats.failures, 2, "both rejections count as failures");
    assert_eq!(stats.jobs, 0);
    assert_eq!(stats.rejected, 0, "failed validation is not shed load");
    assert_eq!(
        stats.high_watermark, 0,
        "a malformed request never occupies a queue slot"
    );
    service.shutdown();
}

/// End-to-end warm-start lifecycle over the chaos workload: a first
/// service runs the mixed templates and snapshots its cache on graceful
/// shutdown; a second service warm-starts from that file and is then
/// flooded from several threads — every cacheable template must be served
/// **from the loaded snapshot**, bit-identical to the sequential
/// pipeline, with verified entries still verified and the
/// below-threshold template still failing fast at its calibrated
/// fidelity, all without a single cache miss. A truncated copy of the
/// snapshot is rejected with a typed error and that service starts cold.
#[test]
fn warm_start_snapshot_replays_the_chaos_workload() {
    let templates = templates();
    let path = std::env::temp_dir().join(format!(
        "mdq_stress_warmstart_{}.mdqsnap",
        std::process::id()
    ));
    let _ = fs::remove_file(&path);

    // Phase 1: a cold service runs every template once; `with_warm_start`
    // writes the snapshot when the graceful shutdown finishes draining.
    let first = EngineService::new(
        EngineConfig::default()
            .with_workers(2)
            .with_warm_start(&path),
    );
    assert!(
        first.warm_start_load().is_none(),
        "a missing snapshot file is a silent cold start"
    );
    let handles: Vec<_> = templates
        .iter()
        .map(|t| first.submit(t.request.clone()))
        .collect();
    for handle in handles {
        let _ = handle.wait();
    }
    let cacheable = templates
        .iter()
        .filter(|t| t.expected != Expected::Malformed)
        .count();
    assert_eq!(
        first.cache().stats().entries,
        cacheable,
        "every non-malformed template leaves exactly one cache entry"
    );
    first.shutdown();
    assert!(path.exists(), "graceful shutdown wrote the snapshot");

    // Phase 2: a fresh service warm-starts from the snapshot and is
    // flooded; nothing should ever reach the pipeline again.
    let second = EngineService::new(
        EngineConfig::default()
            .with_workers(2)
            .with_warm_start(&path),
    );
    match second.warm_start_load() {
        Some(Ok(load)) => {
            assert_eq!(load.loaded, cacheable, "every record round-trips");
            assert_eq!(load.skipped, 0, "nothing in a fresh snapshot is stale");
        }
        other => panic!("expected a successful warm start, got {other:?}"),
    }
    const ROUNDS: usize = 3;
    let handles: Vec<(usize, JobHandle)> = thread::scope(|scope| {
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|_| {
                let templates = &templates;
                let second = &second;
                scope.spawn(move || {
                    let mut admitted = Vec::new();
                    for _ in 0..ROUNDS {
                        for (index, template) in templates.iter().enumerate() {
                            admitted.push((index, second.submit(template.request.clone())));
                        }
                    }
                    admitted
                })
            })
            .collect();
        submitters
            .into_iter()
            .flat_map(|s| s.join().expect("submitter thread never panics"))
            .collect()
    });
    for (index, handle) in handles {
        let template = &templates[index];
        match (template.expected, handle.wait()) {
            (Expected::Success, Ok(report)) => {
                assert!(
                    report.from_cache,
                    "template {index} must be served from the snapshot"
                );
                assert_eq!(
                    &report.circuit,
                    template.circuit.as_ref().unwrap(),
                    "template {index}: snapshot-served circuit bit-identical to sequential"
                );
                if template.request.options.verification.is_enabled() {
                    assert!(
                        report.verification.is_some(),
                        "a verified entry stays verified across the snapshot"
                    );
                }
            }
            (Expected::Malformed, Err(EngineError::Prepare(_))) => {}
            (
                Expected::BelowThreshold,
                Err(EngineError::VerificationFailed {
                    fidelity,
                    threshold,
                }),
            ) => {
                assert!(fidelity < threshold);
                assert_eq!(
                    fidelity.to_bits(),
                    template.fidelity.unwrap().to_bits(),
                    "snapshot preserved the replay fidelity bit-exactly"
                );
            }
            (expected, outcome) => {
                panic!("template {index} ({expected:?}) resolved to {outcome:?}")
            }
        }
    }
    let cache = second.cache().stats();
    assert_eq!(cache.misses, 0, "the warm cache never missed");
    assert_eq!(
        cache.hits,
        (cacheable * SUBMITTERS * ROUNDS) as u64,
        "every cacheable submission was one cache hit (malformed ones fail at admission)"
    );

    // Phase 3: a truncated copy is rejected with a typed error, and the
    // service that tried to load it starts cold but still serves.
    let text = fs::read_to_string(&path).expect("snapshot is readable");
    let truncated_path = path.with_extension("truncated");
    let cut = text
        .trim_end()
        .strip_suffix("done")
        .expect("a well-formed snapshot ends in its done footer");
    fs::write(&truncated_path, cut).expect("truncated copy written");
    let cold = EngineService::new(
        EngineConfig::default()
            .with_workers(1)
            .with_warm_start(&truncated_path),
    );
    assert!(
        matches!(cold.warm_start_load(), Some(Err(SnapshotError::Truncated))),
        "a snapshot missing its footer is rejected as truncated, got {:?}",
        cold.warm_start_load()
    );
    assert_eq!(
        cold.cache().stats().entries,
        0,
        "nothing is loaded from a rejected file"
    );
    let report = cold
        .submit(templates[0].request.clone())
        .wait()
        .expect("a cold-started service still serves");
    assert!(
        !report.from_cache,
        "first serve after a rejected load is fresh"
    );
    assert_eq!(&report.circuit, templates[0].circuit.as_ref().unwrap());
    cold.shutdown_now();
    second.shutdown();
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&truncated_path);
}

/// Per-shard LRU eviction under multithreaded load: a tiny cache
/// (capacity 4, two shards) is flooded with eight distinct recurring
/// requests from four threads, so entries are evicted and recomputed
/// while other serves keep hitting. The chaos is in which serves hit or
/// evict; the invariants hold for every interleaving: results stay
/// bit-identical to the sequential pipeline, each serve is exactly one
/// hit or one miss, live plus evicted entries never exceed insertions,
/// and a cleared cache serves cleanly again.
#[test]
fn lru_eviction_under_flood_reconciles() {
    const DISTINCT: usize = 8;
    const ROUNDS: usize = 6;
    const CAPACITY: usize = 4;
    let d = dims(&[2, 3, 2]);
    let mut rng = StdRng::seed_from_u64(0xA6E0);
    let workload: Vec<(PrepareRequest, Circuit)> = (0..DISTINCT)
        .map(|_| {
            let request = PrepareRequest::dense(
                d.clone(),
                random_state(&d, RandomKind::ReImUniform, &mut rng),
                PrepareOptions::exact(),
            );
            let circuit = request
                .prepare_sequential()
                .expect("reference pipeline runs")
                .circuit;
            (request, circuit)
        })
        .collect();
    let service = EngineService::new(
        EngineConfig::default()
            .with_workers(2)
            .with_cache_shards(2)
            .with_cache_capacity(CAPACITY),
    );
    thread::scope(|scope| {
        for _ in 0..SUBMITTERS {
            let workload = &workload;
            let service = &service;
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    let handles: Vec<_> = (0..DISTINCT)
                        .map(|i| (i, service.submit(workload[i].0.clone())))
                        .collect();
                    for (i, handle) in handles {
                        let report = handle.wait().expect("distinct good jobs succeed");
                        assert_eq!(
                            report.circuit, workload[i].1,
                            "request {i} bit-identical no matter what was evicted"
                        );
                    }
                }
            });
        }
    });

    let total = (SUBMITTERS * ROUNDS * DISTINCT) as u64;
    let stats = service.stats();
    assert_eq!(stats.jobs, total, "every flooded job completed");
    let cache = service.cache().stats();
    assert_eq!(
        cache.hits + cache.misses,
        total,
        "each serve probes the cache exactly once"
    );
    assert!(
        cache.misses >= DISTINCT as u64,
        "every distinct request misses at least its first serve"
    );
    assert!(
        cache.entries <= CAPACITY,
        "the LRU bound holds under churn (saw {})",
        cache.entries
    );
    // Every miss attempts one insert; duplicates are dropped, so live
    // entries plus evictions never exceed the miss count…
    assert!(
        cache.entries as u64 + cache.evictions <= cache.misses,
        "live ({}) + evicted ({}) entries exceed insert attempts ({})",
        cache.entries,
        cache.evictions,
        cache.misses
    );
    // …and with 8 distinct keys squeezed into 4 slots, evictions must
    // actually have happened.
    assert!(
        cache.evictions >= (DISTINCT - CAPACITY) as u64,
        "8 keys in 4 slots force at least 4 evictions (saw {})",
        cache.evictions
    );

    // The service recovers from a cleared cache: the next serve is a
    // clean miss that repopulates it.
    service.cache().clear();
    assert_eq!(service.cache().stats().entries, 0);
    let report = service
        .submit(workload[0].0.clone())
        .wait()
        .expect("still serving after the clear");
    assert!(!report.from_cache, "the clear left nothing to serve from");
    assert_eq!(report.circuit, workload[0].1);
    assert_eq!(service.cache().stats().entries, 1);
    service.shutdown();
}

/// Satellite: the full chaos workload through the sharded router. Four
/// single-worker shards behind a [`Router`]; one tenant is quota-bounded
/// and flooded **without waiting**, so its refusal count is deterministic
/// (in-flight only decrements when a handle resolves); then `SUBMITTERS`
/// unlimited tenants flood the mixed templates from threads while a
/// control thread resizes the ring mid-flood (shard 4 joins, shard 1
/// leaves and drains gracefully). Invariants, for every interleaving:
///
/// * every routed success is bit-identical to the sequential pipeline,
///   malformed and below-threshold templates fail with exactly the same
///   typed errors as direct submission,
/// * the mid-flood resize loses no accepted job (the leaver drains; every
///   handle resolves to its template's expected outcome),
/// * the bounded tenant is refused with `TenantOverQuota` — the request
///   handed back by value and accepted on resubmission after draining —
///   while the flooding tenants see zero rejections,
/// * every per-tenant ledger reconciles exactly:
///   `completed + failed + rejected + dropped == submitted`.
#[test]
fn router_flood_reconciles_with_quotas_and_midflood_resize() {
    use mdq::router::{Router, RouterConfig, RouterError, TenantId, TenantQuota};
    use std::sync::Barrier;

    let templates = templates();
    let router = Router::new(
        RouterConfig::default().with_engine_config(EngineConfig::default().with_workers(1)),
    );
    for id in 0..4 {
        assert!(router.add_shard(id));
    }

    // Phase 1: deterministic quota refusal. The bounded tenant submits 8
    // copies of a good template up-front; with an in-flight limit of 3 and
    // nothing waited on, exactly 5 must come back as TenantOverQuota.
    const LIMIT: usize = 3;
    const BURST: usize = 8;
    let bounded = TenantId(100);
    router.set_quota(bounded, TenantQuota::unlimited().with_max_in_flight(LIMIT));
    let good = &templates[0];
    let mut held = Vec::new();
    let mut handed_back = Vec::new();
    for _ in 0..BURST {
        match router.submit(bounded, good.request.clone()) {
            Ok(handle) => held.push(handle),
            Err(RouterError::TenantOverQuota {
                tenant,
                request,
                in_flight,
                limit,
            }) => {
                assert_eq!(tenant, bounded);
                assert_eq!((in_flight, limit), (LIMIT, LIMIT));
                assert_eq!(request, good.request, "refused request handed back intact");
                handed_back.push(request);
            }
            Err(other) => panic!("unexpected refusal: {other}"),
        }
    }
    assert_eq!(held.len(), LIMIT, "exactly the quota is admitted");
    assert_eq!(handed_back.len(), BURST - LIMIT);
    // While the bounded tenant is saturated, an unrelated tenant is
    // entirely unaffected by its quota.
    let bystander = TenantId(101);
    let report = router
        .submit(bystander, good.request.clone())
        .expect("other tenants are unaffected by a full quota")
        .wait()
        .expect("bystander job completes");
    assert_eq!(&report.circuit, good.circuit.as_ref().unwrap());
    // Draining frees the slots; the handed-back requests are accepted on
    // resubmission, bit-identical as ever.
    for handle in held {
        let report = handle.wait().expect("admitted burst jobs complete");
        assert_eq!(&report.circuit, good.circuit.as_ref().unwrap());
    }
    for request in handed_back {
        let report = router
            .submit(bounded, request)
            .expect("freed slots admit the resubmission")
            .wait()
            .expect("resubmitted job completes");
        assert_eq!(&report.circuit, good.circuit.as_ref().unwrap());
    }

    // Phase 2: multithreaded tenant flood with a mid-flood ring resize.
    // Each submitter is its own unlimited tenant; the control thread
    // waits until every submitter has pushed half its load, then resizes
    // the ring while the second half is still being submitted.
    let barrier = Barrier::new(SUBMITTERS + 1);
    let accepted: Vec<(usize, TenantId, mdq::router::RouterHandle)> = thread::scope(|scope| {
        let control = scope.spawn({
            let router = &router;
            let barrier = &barrier;
            move || {
                barrier.wait();
                // Joining moves ~1/5 of the keys to shard 4; leaving
                // drains shard 1 gracefully — no accepted job is lost.
                assert!(router.add_shard(4));
                assert!(router.remove_shard(1));
            }
        });
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|submitter| {
                let templates = &templates;
                let router = &router;
                let barrier = &barrier;
                scope.spawn(move || {
                    let tenant = TenantId(submitter as u64);
                    let mut admitted = Vec::new();
                    for i in 0..PER_SUBMITTER {
                        if i == PER_SUBMITTER / 2 {
                            barrier.wait();
                        }
                        let index = (submitter + i * SUBMITTERS) % templates.len();
                        let request = templates[index].request.clone();
                        let handle = router
                            .submit(tenant, request)
                            .expect("unbounded shard queues admit everything");
                        admitted.push((index, tenant, handle));
                    }
                    admitted
                })
            })
            .collect();
        control.join().expect("control thread never panics");
        submitters
            .into_iter()
            .flat_map(|s| s.join().expect("submitter thread never panics"))
            .collect()
    });
    assert_eq!(
        router.shards(),
        vec![0, 2, 3, 4],
        "the resize left shard 4 in and shard 1 out"
    );

    // Every accepted job resolves to its template's expected outcome —
    // including the ones routed to shard 1 before it left the ring.
    let (mut completed, mut failed) = (0u64, 0u64);
    for (index, tenant, handle) in accepted {
        let template = &templates[index];
        match handle.wait() {
            Ok(report) => {
                assert_eq!(template.expected, Expected::Success);
                assert_eq!(
                    &report.circuit,
                    template.circuit.as_ref().unwrap(),
                    "template {index} via {tenant}: routed result bit-identical \
                     to sequential"
                );
                completed += 1;
            }
            Err(EngineError::Prepare(_)) => {
                assert_eq!(template.expected, Expected::Malformed);
                failed += 1;
            }
            Err(EngineError::VerificationFailed {
                fidelity,
                threshold,
            }) => {
                assert_eq!(template.expected, Expected::BelowThreshold);
                assert!(fidelity < threshold);
                assert!(
                    (fidelity - template.fidelity.unwrap()).abs() < 1e-12,
                    "routed verification fidelity matches the calibrated value"
                );
                failed += 1;
            }
            Err(other) => panic!("unexpected outcome for template {index}: {other:?}"),
        }
    }
    assert_eq!(
        completed + failed,
        (SUBMITTERS * PER_SUBMITTER) as u64,
        "the mid-flood resize lost no accepted job"
    );

    // The router's own ledgers agree with the harness, tenant by tenant.
    let stats = router.stats();
    for t in &stats.tenants {
        assert_eq!(
            t.completed + t.failed + t.rejected + t.dropped,
            t.submitted,
            "{} ledger reconciles",
            t.tenant
        );
        assert_eq!(t.in_flight, 0, "{} has nothing left in flight", t.tenant);
        if t.tenant == bounded {
            assert_eq!(t.rejected, (BURST - LIMIT) as u64);
            assert_eq!(t.submitted, (BURST + BURST - LIMIT) as u64);
        } else {
            assert_eq!(t.rejected, 0, "{} was never refused", t.tenant);
            assert_eq!(t.dropped, 0);
        }
    }
    assert_eq!(
        stats.completed + stats.failed,
        stats.submitted - stats.rejected,
        "global ledger reconciles (nothing dropped)"
    );
    assert_eq!(stats.shards.len(), 4);
    router.shutdown();
}

/// The transport chaos scenario: four client threads flood a two-shard
/// `WireServer` over a unix socket, every connection wrapped in a
/// deterministically seeded `FaultyStream` (dribbled writes, mid-frame
/// cuts, byte corruption, slow-loris stalls past the server's read
/// deadline). Mid-flood, one shard is killed and warm-restarted from its
/// snapshot; later the *whole server* is killed and rebound on the same
/// path while clients ride their retry budgets through the gap.
///
/// The oracle is the client-side ledger: every submission resolves
/// exactly once (a bit-identical report, or the typed refusal its
/// template predicts), the router's per-tenant ledgers reconcile with
/// nothing dropped, and the restarted shard observably loaded its warm
/// snapshot.
#[test]
#[cfg(unix)]
fn transport_chaos_flood_survives_faults_and_warm_restarts() {
    use mdq::engine::{canonical_key, ErrorFrame, RequestFrame};
    use mdq::router::{Router, RouterConfig, TenantId, TenantQuota};
    use mdq::transport::{
        Backend, ClientConfig, FaultPlan, ServerAddr, ServerConfig, ServerReply, WireClient,
        WireServer,
    };
    use std::sync::{Barrier, Mutex};

    const WIRE_SUBMITTERS: usize = 4;
    const WIRE_PER_SUBMITTER: usize = 12;
    /// Per-client ledger: (completed, refused, retries, connections).
    type WireLedger = (u64, u64, u64, u64);
    /// Per-call retry budget. Every third connection in the fault plan is
    /// clean, so a budget this deep always reaches a genuine outcome even
    /// when some clean attempts are burned by the server-restart gap.
    const RETRY_BUDGET: u32 = 12;

    let templates = templates();
    let scratch = std::env::temp_dir().join(format!("mdq_transport_chaos_{}", std::process::id()));
    let _ = fs::remove_dir_all(&scratch);
    let snapshot_dir = scratch.join("snapshots");
    fs::create_dir_all(&snapshot_dir).expect("snapshot dir");
    let socket = scratch.join("serve.sock");
    let addr = ServerAddr::unix(&socket);

    let router = Router::new(
        RouterConfig::default()
            .with_engine_config(EngineConfig::default().with_workers(1))
            .with_snapshot_dir(&snapshot_dir),
    );
    assert!(router.add_shard(0));
    assert!(router.add_shard(1));

    // The read deadline doubles as the slow-loris guard; the fault plan's
    // stall is deliberately longer, so stalled connections get *closed*,
    // not waited on.
    let server_config = ServerConfig::new()
        .with_handler_threads(WIRE_SUBMITTERS)
        .with_read_timeout(Duration::from_millis(150))
        .with_write_timeout(Duration::from_secs(5));
    let server = WireServer::bind(
        &addr,
        Backend::Router(Box::new(router)),
        server_config.clone(),
    )
    .expect("bind unix server");

    // Phase 1: quota refusal stays a typed, hand-back-by-value outcome
    // over the wire. A zero-quota tenant's request comes back as a
    // `tenant-over-quota` error frame; the client still holds the request,
    // and once the quota lifts the *same* frame completes.
    let blocked = TenantId(9);
    let live_router = server.backend().router().expect("router backend");
    live_router.set_quota(blocked, TenantQuota::unlimited().with_max_in_flight(0));
    let mut probe = WireClient::connect(addr.clone(), ClientConfig::new()).expect("probe connects");
    let good = &templates[0];
    let held_frame = RequestFrame {
        tenant: Some(blocked.0),
        request: good.request.clone(),
    };
    match probe.call(&held_frame).expect("clean transport") {
        ServerReply::Refused(ErrorFrame::TenantOverQuota {
            tenant,
            in_flight,
            limit,
        }) => {
            assert_eq!(tenant, blocked.0);
            assert_eq!((in_flight, limit), (0, 0));
        }
        other => panic!("expected a quota refusal frame, got {other:?}"),
    }
    live_router.set_quota(blocked, TenantQuota::unlimited());
    let report = probe
        .call(&held_frame)
        .expect("clean transport")
        .report()
        .expect("resubmitted frame completes once the quota lifts");
    assert_eq!(
        &report.report.circuit,
        good.circuit.as_ref().expect("success template"),
        "probe circuit bit-identical to prepare_sequential"
    );
    // The shard to kill mid-flood: whichever one serves `templates[0]`.
    // The probe just completed that very request, so the victim's cache
    // holds at least that circuit — its exit snapshot cannot be empty,
    // which is what makes the warm-restart observable below.
    let (good_fp, _) = canonical_key(&good.request).expect("success template fingerprints");
    let victim = live_router
        .route_fingerprint(good_fp)
        .expect("non-empty ring routes the probe's request");
    drop(probe);

    // Phase 2: the chaos flood. The server instance lives in a slot so the
    // control thread can kill and rebind it mid-flood; clients only ever
    // address the (stable) socket path.
    let server_slot = Mutex::new(Some(server));
    let shard_restart = Barrier::new(WIRE_SUBMITTERS + 1);
    let server_restart = Barrier::new(WIRE_SUBMITTERS + 1);
    let server_reborn = Barrier::new(WIRE_SUBMITTERS + 1);

    let (ledgers, restart_outcome): (Vec<WireLedger>, Result<usize, String>) =
        thread::scope(|scope| {
            // The control thread must not panic between barriers — a panic
            // there would strand the submitters on a barrier that can
            // never fill. It reports through a Result instead, asserted
            // once every thread is joined.
            let control = scope.spawn(|| -> Result<usize, String> {
                // Mid-flood event one: the victim shard leaves the ring
                // (draining its jobs and writing its cache snapshot on
                // the way out) and rejoins warm from that snapshot, while
                // submissions keep flowing through the surviving shard.
                shard_restart.wait();
                let outcome = {
                    let slot = server_slot.lock().expect("server slot healthy");
                    let router = slot
                        .as_ref()
                        .expect("server running")
                        .backend()
                        .router()
                        .expect("router backend");
                    if !router.remove_shard(victim) {
                        Err(format!("shard {victim} was not on the ring"))
                    } else if !router.add_shard(victim) {
                        Err(format!("shard {victim} failed to rejoin"))
                    } else {
                        let stats = router.stats();
                        stats
                            .shards
                            .iter()
                            .find(|s| s.shard == victim)
                            .ok_or_else(|| format!("no stats for rejoined shard {victim}"))
                            .and_then(|s| {
                                s.warm_loaded.ok_or_else(|| {
                                    format!("rejoined shard {victim} found no snapshot to load")
                                })
                            })
                    }
                };
                // Mid-flood event two: the whole server is killed
                // (draining in-flight connections — every admitted job
                // still gets its reply) and rebound on the same path with
                // the same backend. Clients see the gap as connection
                // errors and retry through.
                server_restart.wait();
                let running = server_slot.lock().expect("server slot healthy").take();
                let running = running.expect("server running");
                let backend = running.into_backend();
                let rebound = match WireServer::bind(&addr, backend, server_config.clone()) {
                    Ok(reborn) => {
                        *server_slot.lock().expect("server slot healthy") = Some(reborn);
                        Ok(())
                    }
                    Err(e) => Err(format!("rebinding the server failed: {e}")),
                };
                // The submitters' last calls wait for the rebind, so they
                // are served by the reborn server, not the old one.
                server_reborn.wait();
                rebound.and(outcome)
            });

            let submitters: Vec<_> = (0..WIRE_SUBMITTERS)
                .map(|submitter| {
                    let templates = &templates;
                    let addr = addr.clone();
                    let shard_restart = &shard_restart;
                    let server_restart = &server_restart;
                    let server_reborn = &server_reborn;
                    scope.spawn(move || {
                        let plan = FaultPlan::new(0xC4A0_5EED ^ ((submitter as u64) << 32))
                            .with_stall(Duration::from_millis(400))
                            .with_clean_period(3);
                        let config = ClientConfig::new()
                            .with_connect_attempts(10)
                            .with_backoff(Duration::from_millis(5), Duration::from_millis(160))
                            .with_faults(move |connection| plan.faults_for(connection));
                        let mut client =
                            WireClient::connect(addr, config).expect("flood client connects");
                        let tenant = submitter as u64;
                        let (mut completed, mut refused) = (0u64, 0u64);
                        for i in 0..WIRE_PER_SUBMITTER {
                            if i == WIRE_PER_SUBMITTER / 2 {
                                shard_restart.wait();
                            }
                            if i == WIRE_PER_SUBMITTER * 3 / 4 {
                                server_restart.wait();
                            }
                            if i == WIRE_PER_SUBMITTER * 3 / 4 + 1 {
                                server_reborn.wait();
                            }
                            let index = (submitter + i * WIRE_SUBMITTERS) % templates.len();
                            let template = &templates[index];
                            let frame = RequestFrame {
                                tenant: Some(tenant),
                                request: template.request.clone(),
                            };
                            let reply = client
                                .call_with_retry(&frame, RETRY_BUDGET)
                                .expect("every submission resolves within the retry budget");
                            match reply {
                                ServerReply::Report(report) => {
                                    assert_eq!(
                                        template.expected,
                                        Expected::Success,
                                        "only success templates complete (template {index})"
                                    );
                                    assert_eq!(
                                        &report.report.circuit,
                                        template.circuit.as_ref().expect("reference circuit"),
                                        "served circuit bit-identical to prepare_sequential \
                                     (template {index})"
                                    );
                                    completed += 1;
                                }
                                ServerReply::Refused(ErrorFrame::Prepare { .. }) => {
                                    assert_eq!(
                                    template.expected,
                                    Expected::Malformed,
                                    "only malformed templates fail the pipeline (template {index})"
                                );
                                    refused += 1;
                                }
                                ServerReply::Refused(ErrorFrame::VerificationFailed {
                                    fidelity,
                                    threshold,
                                }) => {
                                    assert_eq!(
                                        template.expected,
                                        Expected::BelowThreshold,
                                        "only below-threshold templates fail verification \
                                     (template {index})"
                                    );
                                    let measured = f64::from_bits(fidelity);
                                    assert!(measured < f64::from_bits(threshold));
                                    let calibrated =
                                        template.fidelity.expect("calibrated fidelity");
                                    assert!(
                                        (measured - calibrated).abs() < 1e-12,
                                        "replay fidelity crosses the wire intact: \
                                     {measured} vs calibrated {calibrated}"
                                    );
                                    refused += 1;
                                }
                                ServerReply::Refused(other) => {
                                    panic!("unexpected refusal for template {index}: {other:?}")
                                }
                            }
                        }
                        (completed, refused, client.retries(), client.connections())
                    })
                })
                .collect();

            let ledgers: Vec<_> = submitters
                .into_iter()
                .map(|s| s.join().expect("submitter thread"))
                .collect();
            let outcome = control.join().expect("control thread");
            (ledgers, outcome)
        });
    let warm_loaded = restart_outcome.expect("mid-flood shard and server restarts succeeded");

    // Client-side ledger: every submission resolved exactly once, and the
    // chaos actually bit (connections were retried and re-dialed).
    let mut resolved = 0u64;
    let mut total_retries = 0u64;
    let mut total_connections = 0u64;
    for (submitter, &(completed, refused, retries, connections)) in ledgers.iter().enumerate() {
        assert_eq!(
            completed + refused,
            WIRE_PER_SUBMITTER as u64,
            "client {submitter}: every submission resolves exactly once"
        );
        resolved += completed + refused;
        total_retries += retries;
        total_connections += connections;
    }
    assert_eq!(resolved, (WIRE_SUBMITTERS * WIRE_PER_SUBMITTER) as u64);
    assert!(
        total_retries > 0,
        "the fault schedule must actually force retries"
    );
    assert!(
        total_connections > WIRE_SUBMITTERS as u64,
        "faulted connections must force re-dials"
    );

    // Server-side ledger: the same router served the whole flood (the
    // server restart moved it, never replaced it), so per-tenant ledgers
    // span both server incarnations and must reconcile with nothing
    // dropped. Duplicated servings (a retry after a corrupted/cut reply)
    // legitimately inflate the server-side counts, so resolved counts are
    // lower bounds, not equalities.
    let server = server_slot
        .into_inner()
        .expect("slot mutex healthy")
        .expect("server still running");
    let reborn_stats = server.stats();
    assert!(reborn_stats.accepted > 0, "reborn server took connections");
    let stats = server.backend().router().expect("router backend").stats();
    for t in &stats.tenants {
        assert_eq!(
            t.completed + t.failed + t.rejected + t.dropped,
            t.submitted,
            "tenant {} ledger reconciles",
            t.tenant
        );
        assert_eq!(t.in_flight, 0, "tenant {} has nothing in flight", t.tenant);
        assert_eq!(
            t.dropped, 0,
            "tenant {}: no accepted job was lost",
            t.tenant
        );
        if t.tenant == blocked {
            assert_eq!((t.submitted, t.rejected), (2, 1), "probe tenant ledger");
        } else {
            assert_eq!(t.rejected, 0, "flood tenant {} was never refused", t.tenant);
            let client = &ledgers[t.tenant.0 as usize];
            assert!(
                t.completed >= client.0 && t.failed >= client.1,
                "tenant {} server ledger covers the client ledger",
                t.tenant
            );
        }
    }
    assert_eq!(
        stats.completed + stats.failed,
        stats.submitted - stats.rejected,
        "global ledger reconciles (nothing dropped)"
    );
    let mut shard_ids: Vec<usize> = stats.shards.iter().map(|s| s.shard).collect();
    shard_ids.sort_unstable();
    assert_eq!(shard_ids, vec![0, 1], "both shards back on the ring");
    assert!(
        warm_loaded > 0,
        "the restarted shard warm-loaded cached circuits from its snapshot"
    );

    server.shutdown();
    let _ = fs::remove_dir_all(&scratch);
}
