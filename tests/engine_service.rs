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
                &report.circuit,
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
