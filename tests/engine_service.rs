//! Properties of the persistent `EngineService`, driven through the `mdq`
//! facade: streamed and batched submissions with shuffled priorities must
//! resolve to circuits bit-identical to the one-shot sequential pipeline
//! at every worker count, and a warm resubmission must replay them from
//! the cache; shutdown under load must resolve every pending handle
//! (never hang); and workers — with their warmed arenas — must persist
//! across submission waves.

use mdq::core::PrepareOptions;
use mdq::engine::{
    EngineConfig, EngineService, JobHandle, PrepareReport, PrepareRequest, Priority,
};
use mdq::num::radix::Dims;
use mdq::num::Complex;
use mdq::states::{ghz, w_state};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Random mixed-radix registers of 1–3 qudits with local dimensions 2–4
/// (small enough that a proptest case runs dozens of pipelines quickly).
fn arb_dims() -> impl Strategy<Value = Dims> {
    proptest::collection::vec(2usize..5, 1..4).prop_map(|v| Dims::new(v).unwrap())
}

/// One request: a register plus a structured or random target, exact or
/// approximated options, and a randomized scheduling priority (which must
/// never influence the result).
fn arb_request() -> impl Strategy<Value = PrepareRequest> {
    arb_dims().prop_flat_map(|dims| {
        let n = dims.space_size();
        (
            Just(dims),
            0u8..4,
            0u8..2,
            0u8..3,
            proptest::collection::vec((-1.0..1.0f64, -1.0..1.0f64), n..=n),
        )
            .prop_filter_map(
                "state must have nonzero norm",
                |(dims, kind, approximate, priority, parts)| {
                    let options = if approximate == 1 {
                        PrepareOptions::approximated(0.98).without_zero_subtrees()
                    } else {
                        PrepareOptions::exact().without_zero_subtrees()
                    };
                    let priority = match priority {
                        0 => Priority::Low,
                        1 => Priority::Normal,
                        _ => Priority::High,
                    };
                    let request = match kind {
                        0 => PrepareRequest::dense(dims.clone(), ghz(&dims), options),
                        1 => PrepareRequest::dense(dims.clone(), w_state(&dims), options),
                        2 => PrepareRequest::sparse(
                            dims.clone(),
                            mdq::states::sparse::ghz(&dims),
                            options,
                        ),
                        _ => {
                            let v: Vec<Complex> = parts
                                .into_iter()
                                .map(|(re, im)| Complex::new(re, im))
                                .collect();
                            let norm = mdq::num::norm(&v);
                            if norm <= 1e-3 {
                                return None;
                            }
                            PrepareRequest::dense(
                                dims.clone(),
                                v.iter().map(|a| *a / norm).collect(),
                                options,
                            )
                        }
                    };
                    Some(request.with_priority(priority))
                },
            )
    })
}

/// A stream of requests, some duplicated (cache-hit replays), shuffled so
/// submission order differs from generation order.
fn arb_stream() -> impl Strategy<Value = Vec<PrepareRequest>> {
    (
        proptest::collection::vec(arb_request(), 2..6),
        proptest::collection::vec(0usize..1000, 2..6),
        0u64..u64::MAX,
    )
        .prop_map(|(mut requests, picks, seed)| {
            let base = requests.len();
            for pick in picks {
                requests.push(requests[pick % base].clone());
            }
            // Fisher–Yates with a tiny deterministic LCG keyed on `seed`.
            let mut state = seed | 1;
            for i in (1..requests.len()).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                requests.swap(i, j);
            }
            requests
        })
}

/// The sequential reference: every request through the one-shot pipeline.
fn sequential_circuits(stream: &[PrepareRequest]) -> Vec<mdq::circuit::Circuit> {
    stream
        .iter()
        .map(|request| request.prepare_sequential().expect("pipeline runs").circuit)
        .collect()
}

/// Submits `stream` to a fresh service at 1, 2, and 4 workers — one by one,
/// or as one batch — and checks every resolved circuit against the
/// sequential reference.
fn check_against_sequential(stream: &[PrepareRequest], batched: bool) -> Result<(), TestCaseError> {
    let expected = sequential_circuits(stream);
    for workers in [1usize, 2, 4] {
        let service = EngineService::new(EngineConfig::default().with_workers(workers));
        let handles: Vec<JobHandle> = if batched {
            service.submit_batch(stream.iter().cloned())
        } else {
            stream.iter().cloned().map(|r| service.submit(r)).collect()
        };
        prop_assert_eq!(handles.len(), expected.len());
        for (index, (handle, want)) in handles.into_iter().zip(&expected).enumerate() {
            let report = handle.wait().expect("job succeeds");
            prop_assert_eq!(
                &*report.circuit,
                want,
                "request {} at {} workers (batched: {})",
                index,
                workers,
                batched
            );
        }
        // Duplicated requests guarantee cache traffic on every run.
        let stats = service.stats();
        prop_assert!(stats.cache.hits + stats.cache.misses > 0);
        service.shutdown();
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Streamed submissions resolve bit-identical to the sequential
    /// one-shot pipeline at 1, 2, and 4 workers, regardless of the
    /// shuffled priorities, the size-aware scheduling, or cache replays.
    #[test]
    fn prop_streamed_submissions_match_sequential_prepare(stream in arb_stream()) {
        check_against_sequential(&stream, false)?;
    }

    /// The same stream submitted as one batch resolves bit-identical to the
    /// sequential one-shot pipeline at 1, 2, and 4 workers.
    #[test]
    fn prop_batch_is_bit_identical_to_sequential_prepare(stream in arb_stream()) {
        check_against_sequential(&stream, true)?;
    }

    /// Resubmitting a batch to a warm service is served from the cache and
    /// stays bit-identical to the cold run.
    #[test]
    fn prop_warm_resubmission_replays_identically(stream in arb_stream()) {
        let service = EngineService::new(EngineConfig::default().with_workers(2));
        let run = || -> Vec<PrepareReport> {
            service
                .submit_batch(stream.iter().cloned())
                .into_iter()
                .map(|handle| handle.wait().expect("job succeeds"))
                .collect()
        };
        let cold = run();
        let warm = run();
        let mut hits = 0u64;
        for (cold_report, warm_report) in cold.iter().zip(&warm) {
            prop_assert_eq!(&cold_report.circuit, &warm_report.circuit);
            hits += u64::from(warm_report.from_cache);
        }
        prop_assert!(hits > 0, "warm resubmission must hit the cache");
        prop_assert!(service.stats().cache.hits >= hits);
        service.shutdown();
    }
}

#[test]
fn shutdown_under_load_resolves_every_pending_handle() {
    let d = Dims::new(vec![3, 6, 2]).unwrap();
    // One worker, no cache: a deep queue is guaranteed to still be pending
    // when the service is torn down.
    let service = EngineService::new(EngineConfig::default().with_workers(1).without_cache());
    let handles: Vec<JobHandle> = (0..24)
        .map(|i| {
            let priority = match i % 3 {
                0 => Priority::Low,
                1 => Priority::Normal,
                _ => Priority::High,
            };
            service.submit(
                PrepareRequest::dense(d.clone(), w_state(&d), PrepareOptions::exact())
                    .with_priority(priority),
            )
        })
        .collect();
    service.shutdown_now();
    let mut served = 0usize;
    let mut shut_down = 0usize;
    for handle in handles {
        // Must never hang: every handle resolves to a result or Shutdown.
        match handle.wait() {
            Ok(report) => {
                assert!(!report.circuit.is_empty());
                served += 1;
            }
            Err(mdq::engine::EngineError::Shutdown) => shut_down += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(served + shut_down, 24);
    assert!(
        shut_down > 0,
        "a deep queue cannot fully drain before abort"
    );
}

#[test]
fn workers_persist_across_submission_waves() {
    let d = Dims::new(vec![3, 6, 2]).unwrap();
    // Cache off so every job runs the pipeline; canonical (zero-pruned)
    // builds make arena traffic visible in the weight-table counters.
    let service = EngineService::new(EngineConfig::default().with_workers(1).without_cache());
    let opts = PrepareOptions::exact().without_zero_subtrees();
    let submit_wave = |n: usize| -> Vec<JobHandle> {
        (0..n)
            .map(|_| service.submit(PrepareRequest::dense(d.clone(), w_state(&d), opts)))
            .collect()
    };

    for handle in submit_wave(4) {
        handle.wait().expect("wave-1 job succeeds");
    }
    let after_first = service.stats();
    assert_eq!(
        after_first.arena_reuses, 3,
        "within wave 1, jobs 2–4 run on the warmed arena"
    );
    assert!(after_first.weight_lookups > 0);

    for handle in submit_wave(4) {
        handle.wait().expect("wave-2 job succeeds");
    }
    let after_second = service.stats();
    // The first wave-2 job is also an arena reuse: the worker (and its
    // warmed arena) survived between the waves instead of being respawned.
    assert_eq!(after_second.arena_reuses, 7);
    assert!(after_second.weight_lookups > after_first.weight_lookups);
    service.shutdown();
}

#[test]
fn priorities_and_queue_waits_are_observable() {
    let d = Dims::new(vec![3, 6, 2]).unwrap();
    let service = EngineService::new(EngineConfig::default().with_workers(1).without_cache());
    let handles: Vec<JobHandle> = (0..6)
        .map(|_| {
            service.submit(
                PrepareRequest::dense(d.clone(), ghz(&d), PrepareOptions::exact())
                    .with_priority(Priority::High),
            )
        })
        .collect();
    let mut any_waited = false;
    for handle in handles {
        let report = handle.wait().expect("job succeeds");
        any_waited |= !report.queue_wait.is_zero();
    }
    assert!(
        any_waited,
        "with one worker, queued jobs must observe a nonzero queue wait"
    );
    service.shutdown();
}

/// A verification floor of exactly 1 accepts correct exact circuits whose
/// replay lands a rounding error below 1: serving holds the floor to
/// `1 − tolerance`. The job passes fresh and then from the cache, since
/// both paths share one threshold gate.
#[test]
fn unit_verification_floor_accepts_exact_replays_just_below_one() {
    use mdq::core::VerificationPolicy;
    use mdq::states::{random_state, RandomKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let dims = Dims::new(vec![3, 4, 3]).unwrap();
    let options = PrepareOptions::exact().with_verification(VerificationPolicy::replay(1.0));
    let service = EngineService::new(EngineConfig::default().with_workers(1));
    let mut below_one = 0;
    for seed in 0..16 {
        let mut rng = StdRng::seed_from_u64(seed);
        let state = random_state(&dims, RandomKind::ReImUniform, &mut rng);
        let request = PrepareRequest::dense(dims.clone(), state, options);
        let fresh = service
            .submit(request.clone())
            .wait()
            .expect("an exact circuit verifies at a floor of 1");
        assert!(!fresh.from_cache);
        let fidelity = fresh.verification.as_ref().unwrap().fidelity;
        assert!((fidelity - 1.0).abs() < 1e-9, "seed {seed}: {fidelity}");
        let cached = service
            .submit(request)
            .wait()
            .expect("the cached entry passes the same gate");
        assert!(cached.from_cache);
        below_one += usize::from(fidelity < 1.0);
    }
    assert!(
        below_one > 0,
        "no replay landed below 1, so nothing was tested"
    );
}

/// A cache hit is answered at admission, on the submitting thread. With
/// the only worker pinned by a large job and the single queue slot taken,
/// a miss is refused `QueueFull`, while the cached request resolves at
/// once through `try_submit` and the blocking `submit` alike — neither
/// parks, takes a slot, or waits for the worker — and every serving of
/// the entry shares one circuit allocation instead of copying it.
#[test]
fn cache_hits_need_no_queue_slot_no_worker_and_no_copy() {
    use mdq::engine::{EngineError, VerificationPolicy};
    use mdq::states::{random_state, RandomKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use std::time::Duration;

    let d = Dims::new(vec![3, 6, 2]).unwrap();
    let cached = PrepareRequest::dense(d.clone(), ghz(&d), PrepareOptions::exact());
    let expected = cached.prepare_sequential().unwrap().circuit;
    let service = EngineService::new(EngineConfig::default().with_workers(1).with_queue_depth(1));
    let first = service
        .submit(cached.clone())
        .wait()
        .expect("cold job runs");
    assert!(!first.from_cache);

    // Pin the worker with a large exact job (replay-verified, which about
    // doubles its time), then fill the single slot.
    let big = Dims::new(vec![4, 7, 4, 4, 3, 5]).unwrap();
    let state = random_state(&big, RandomKind::ReImUniform, &mut StdRng::seed_from_u64(7));
    let pin = service.submit(
        PrepareRequest::dense(big, state, PrepareOptions::exact())
            .with_verification(VerificationPolicy::replay(0.99)),
    );
    while service.stats().queued > 0 {
        std::thread::yield_now();
    }
    let filler = service.submit(PrepareRequest::dense(
        d.clone(),
        w_state(&d),
        PrepareOptions::exact(),
    ));
    let miss = PrepareRequest::dense(d.clone(), w_state(&d), PrepareOptions::approximated(0.98));
    let refused_full = || match service.try_submit(miss.clone()) {
        Err(refused) => matches!(refused.error, EngineError::QueueFull { limit: 1, .. }),
        Ok(_) => false,
    };
    assert!(refused_full(), "a miss finds the single slot taken");
    let before = service.stats();

    let mut hit = service
        .try_submit(cached.clone())
        .expect("a hit is never refused QueueFull");
    let mut blocking = service.submit(cached.clone());
    // Only misses take slots and only the worker frees one, so a second
    // refused miss shows the queue stayed full across both hits.
    assert!(refused_full(), "the queue stayed full across both hits");
    for handle in [&mut hit, &mut blocking] {
        let report = handle
            .try_wait()
            .expect("resolved at admission")
            .as_ref()
            .expect("the hit succeeds");
        assert!(report.from_cache);
        assert_eq!(report.queue_wait, Duration::ZERO);
        assert_eq!(report.admission_wait, Duration::ZERO);
        assert_eq!(*report.circuit, expected, "raw-bit equal to sequential");
    }
    let after = service.stats();
    assert_eq!(after.parked, 0, "the blocking hit never parked");
    assert_eq!(after.rejected, before.rejected + 1, "only misses refused");
    assert_eq!(after.high_watermark, before.high_watermark);
    assert_eq!(after.jobs, before.jobs + 2, "hits count as served jobs");
    assert_eq!(after.cache.hits, before.cache.hits + 2);

    let (hit, blocking) = (hit.wait().unwrap(), blocking.wait().unwrap());
    assert!(Arc::ptr_eq(&hit.circuit, &blocking.circuit), "hits share");
    assert!(
        Arc::ptr_eq(&first.circuit, &hit.circuit),
        "the miss shared its circuit with the entry it filled"
    );
    pin.wait().expect("the pinning job completes");
    filler.wait().expect("the queued miss completes");
    service.shutdown();
}
