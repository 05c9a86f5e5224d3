//! Throughput/latency benchmark for the `mdq-engine` preparation
//! service, emitting `BENCH_engine.json` so the engine has a perf trajectory
//! to compare against.
//!
//! Run with: `cargo run -p mdq-bench --release --bin engine_bench`
//!
//! A mixed workload (dense GHZ/W on Table-1 registers, sparse GHZ/W and
//! random-sparse states on a 14-qudit register, randomized dense states,
//! exact and 98 %-approximated options) is executed:
//!
//! * **cold**, once per worker count (fresh engine, empty cache) —
//!   `jobs_per_sec` and p50/p99 per-job latency vs. worker count;
//! * **sequentially** through the one-shot `prepare` functions — the
//!   no-engine baseline;
//! * **warm**, resubmitting the whole batch to an already-warm engine —
//!   cache hit counts, warm throughput, and a bit-identical comparison of
//!   every served circuit against the cold run.
//!
//! With `--streaming`, a fourth section runs the mixed small/large
//! workload through the persistent `EngineService` twice — once under the
//! FIFO baseline queue, once under the default size-aware scheduler — and
//! records per-class queue-wait p50/p99 and jobs/sec. Large jobs are
//! submitted ahead of small ones, so the FIFO run exhibits exactly the
//! head-of-line blocking the size-aware policy removes.
//!
//! With `--verify`, two further sections measure the serving-time guards
//! added by the admission-control PR: the whole mixed workload is run once
//! unverified and once under `VerificationPolicy::replay`, reporting the
//! replay-verification overhead (asserted ≤ 2× the unverified serving
//! time), and a one-slot-queue service is flooded through `try_submit` to
//! record the rejection rate and queue high-watermark.
//!
//! With `--warmstart`, a warm-start section measures what the persistent
//! cache snapshot buys a restarted process: a cold service runs the whole
//! mixed workload (paying the pipeline), snapshots its cache to disk, and
//! shuts down; a second service loads the snapshot at construction and
//! replays the same stream. The JSON records the snapshot's entry count
//! and file size, the load time, and cold vs. snapshot-loaded throughput;
//! every snapshot-served circuit is asserted bit-identical to the
//! sequential pipeline, and outside `--smoke` the run asserts the
//! snapshot-loaded service is at least 2× the cold throughput.
//!
//! With `--fairness`, a starvation section measures what wait-time aging
//! buys: two expensive jobs are submitted ahead of a small-job flood on a
//! single size-aware worker, once with aging off (the queued large job
//! pops dead last — the pre-aging starvation baseline) and once with the
//! aging default. Worst-case and p99.9 queue wait over *all* jobs, the
//! starved large class's worst wait, and the small-job p99 land in the
//! JSON; outside `--smoke` the run asserts that aging strictly lowers the
//! starved job's worst-case wait while keeping the small-job p99 within
//! 2× of the no-aging baseline.
//!
//! With `--router`, a sharded-serving section measures what the
//! consistent-hash `mdq-router` front-end costs and buys: the mixed
//! workload is served once by a single direct `EngineService` and once
//! through a router of N one-worker shards (every routed circuit asserted
//! bit-identical to the direct one), then resubmitted to the still-warm
//! router so duplicates land on the shard that already caches them —
//! warm throughput and per-shard hit rates land in the JSON. A synthetic
//! key population is routed before and after a shard joins and leaves,
//! recording the per-shard key spread (max/min) at each topology and the
//! moved-key fraction of each resize (≈ 1/N for a consistent ring, vs.
//! (N−1)/N for naive modulo hashing).
//!
//! Flags:
//! * `--smoke`     — tiny batch, worker counts {1, 2} (CI keep-alive mode);
//! * `--jobs N`    — batch size (default 48);
//! * `--streaming` — additionally run the EngineService queue-wait section;
//! * `--verify`    — additionally run the verification + admission section;
//! * `--warmstart` — additionally run the snapshot warm-start section;
//! * `--fairness`  — additionally run the aging/starvation section;
//! * `--router`    — additionally run the sharded-serving section;
//! * `--transport` — additionally run the network-serving section: the
//!   mixed workload round-trips through a `WireServer` over a local
//!   socket (unix-domain where available, loopback TCP otherwise) and is
//!   compared, cold and warm, against in-process `Router::submit` —
//!   per-call p50/p99 round-trip latency and the socket tax land in the
//!   JSON, with every served circuit asserted bit-identical;
//! * `--out PATH`  — output path (default `BENCH_engine.json`).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use mdq_bench::{dims3, dims4, flag_value};
use mdq_core::{PrepareOptions, VerificationPolicy};
use mdq_engine::{
    Aging, EngineConfig, EngineService, JobHandle, PrepareReport, PrepareRequest, SchedulingPolicy,
};
use mdq_num::radix::Dims;
use mdq_states::{ghz, random_state, w_state, RandomKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The per-worker-count cold-run measurements.
struct ColdRun {
    workers: usize,
    jobs_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
}

/// Queue-wait measurements of one streaming run under one policy.
struct StreamingRun {
    policy: &'static str,
    jobs_per_sec: f64,
    small_p50_us: f64,
    small_p99_us: f64,
    large_p99_us: f64,
}

/// Queue-wait measurements of one starvation run under one aging setting.
struct FairnessRun {
    aging: &'static str,
    /// Worst queue wait over *all* jobs. In a fully pre-queued batch the
    /// last-popped job always waits ≈ the makespan, so this is reported
    /// for context but stays ~constant across aging settings.
    worst_us: f64,
    p999_us: f64,
    /// Worst queue wait of the large (starvation-prone) class — the
    /// quantity aging actually bounds: with aging off it grows with the
    /// flood length; with aging on it is capped at the decay horizon.
    large_worst_us: f64,
    small_p99_us: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let streaming = args.iter().any(|a| a == "--streaming");
    let verify = args.iter().any(|a| a == "--verify");
    let warmstart = args.iter().any(|a| a == "--warmstart");
    let fairness = args.iter().any(|a| a == "--fairness");
    let router = args.iter().any(|a| a == "--router");
    let transport = args.iter().any(|a| a == "--transport");
    let jobs: usize = if smoke {
        8
    } else {
        flag_value(&args, "--jobs")
            .map(|v| v.parse().expect("--jobs takes an integer"))
            .unwrap_or(48)
    };
    let worker_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    let out_path = flag_value(&args, "--out").unwrap_or("BENCH_engine.json");

    let requests = mixed_workload(jobs);
    println!(
        "engine benchmark: {} jobs (mixed GHZ/W/random, dense+sparse)\n",
        requests.len()
    );

    // Sequential baseline: the one-shot pipeline, no engine, no cache.
    let t = Instant::now();
    for request in &requests {
        request.prepare_sequential().expect("pipeline runs");
    }
    let sequential_jobs_per_sec = requests.len() as f64 / t.elapsed().as_secs_f64();
    println!(
        "{:<28} {:>12.1} jobs/s",
        "sequential baseline", sequential_jobs_per_sec
    );

    let mut cold_runs = Vec::new();
    for &workers in worker_counts {
        let service = EngineService::new(EngineConfig::default().with_workers(workers));
        let t = Instant::now();
        let results = serve_batch(&service, &requests);
        let wall = t.elapsed();
        service.shutdown();
        let mut latencies: Vec<Duration> = results.iter().map(|r| r.elapsed).collect();
        latencies.sort_unstable();
        let run = ColdRun {
            workers,
            jobs_per_sec: requests.len() as f64 / wall.as_secs_f64(),
            p50_us: percentile_us(&latencies, 0.50),
            p99_us: percentile_us(&latencies, 0.99),
        };
        println!(
            "{:<28} {:>12.1} jobs/s   p50 {:>8.0} µs   p99 {:>8.0} µs",
            format!("cold, {workers} worker(s)"),
            run.jobs_per_sec,
            run.p50_us,
            run.p99_us
        );
        cold_runs.push(run);
    }

    // Warm resubmission: same service, same batch, twice — the second pass
    // is served entirely from the fingerprint cache and must be
    // bit-identical.
    let service =
        EngineService::new(EngineConfig::default().with_workers(*worker_counts.last().unwrap()));
    let cold = serve_batch(&service, &requests);
    let t = Instant::now();
    let warm = serve_batch(&service, &requests);
    let warm_wall = t.elapsed();
    let mut identical = true;
    let mut warm_hits = 0u64;
    for (c, w) in cold.iter().zip(&warm) {
        identical &= c.circuit == w.circuit;
        warm_hits += u64::from(w.from_cache);
    }
    let stats = service.stats();
    service.shutdown();
    let warm_jobs_per_sec = requests.len() as f64 / warm_wall.as_secs_f64();
    println!(
        "{:<28} {:>12.1} jobs/s   {} hits / {} jobs, bit-identical: {}",
        "warm (cache replay)",
        warm_jobs_per_sec,
        warm_hits,
        requests.len(),
        identical
    );
    assert!(warm_hits > 0, "warm resubmission must hit the cache");
    assert!(identical, "cache replays must be bit-identical");

    let speedup = cold_runs.last().unwrap().jobs_per_sec / cold_runs[0].jobs_per_sec;
    println!(
        "\nthroughput at {} workers vs 1: {:.2}x (hardware: {} core(s) visible)",
        cold_runs.last().unwrap().workers,
        speedup,
        std::thread::available_parallelism().map_or(1, usize::from)
    );

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"mdq-engine-bench-v1\",");
    let _ = writeln!(out, "  \"jobs\": {},", requests.len());
    let _ = writeln!(
        out,
        "  \"visible_cores\": {},",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let _ = writeln!(
        out,
        "  \"sequential_jobs_per_sec\": {sequential_jobs_per_sec:.1},"
    );
    out.push_str("  \"worker_counts\": [\n");
    for (i, run) in cold_runs.iter().enumerate() {
        let comma = if i + 1 == cold_runs.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"workers\": {}, \"jobs_per_sec\": {:.1}, \"p50_us\": {:.1}, \
             \"p99_us\": {:.1}}}{comma}",
            run.workers, run.jobs_per_sec, run.p50_us, run.p99_us
        );
    }
    out.push_str("  ],\n");
    let comma = if warmstart || streaming || verify || fairness || router || transport {
        ","
    } else {
        ""
    };
    let _ = writeln!(
        out,
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}, \"evictions\": {}, \
         \"warm_jobs_per_sec\": {warm_jobs_per_sec:.1}, \"bit_identical\": {identical}}}{comma}",
        stats.cache.hits, stats.cache.misses, stats.cache.entries, stats.cache.evictions
    );

    if warmstart {
        let workers = *worker_counts.last().unwrap();
        let snap_path = std::env::temp_dir().join(format!(
            "engine_bench_warmstart_{}.mdqsnap",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&snap_path);

        // Cold pass: a fresh service pays the pipeline for every distinct
        // request, then snapshots its filled cache to disk.
        let cold_service = EngineService::new(EngineConfig::default().with_workers(workers));
        let t = Instant::now();
        for handle in cold_service.submit_batch(requests.iter().cloned()) {
            handle.wait().expect("cold warm-start job succeeds");
        }
        let cold_wall = t.elapsed();
        let snap_stats = cold_service
            .snapshot_to(&snap_path)
            .expect("snapshot saves");
        cold_service.shutdown();

        // Snapshot pass: a restarted service loads the file at
        // construction and replays the identical stream from the cache.
        let warm_service = EngineService::new(
            EngineConfig::default()
                .with_workers(workers)
                .with_warm_start(&snap_path),
        );
        let load = match warm_service.warm_start_load() {
            Some(Ok(load)) => *load,
            other => panic!("warm start failed: {other:?}"),
        };
        assert_eq!(load.skipped, 0, "a fresh snapshot round-trips in full");
        let t = Instant::now();
        let reports: Vec<_> = warm_service
            .submit_batch(requests.iter().cloned())
            .into_iter()
            .map(|handle| handle.wait().expect("snapshot-served job succeeds"))
            .collect();
        let snap_wall = t.elapsed();
        warm_service.shutdown();
        let _ = std::fs::remove_file(&snap_path);

        let snap_hits = reports.iter().filter(|r| r.from_cache).count();
        assert_eq!(
            snap_hits,
            requests.len(),
            "the replayed stream must be served entirely from the snapshot"
        );
        let mut snap_identical = true;
        for (request, report) in requests.iter().zip(&reports) {
            snap_identical &= report.circuit
                == request
                    .prepare_sequential()
                    .expect("sequential reference runs")
                    .circuit;
        }
        assert!(
            snap_identical,
            "snapshot-served circuits must be bit-identical to the sequential pipeline"
        );
        let cold_jobs_per_sec = requests.len() as f64 / cold_wall.as_secs_f64();
        let snap_jobs_per_sec = requests.len() as f64 / snap_wall.as_secs_f64();
        let snap_speedup = snap_jobs_per_sec / cold_jobs_per_sec;
        println!(
            "\nwarm-start section: {} entries, {} bytes on disk, loaded in {:?}",
            snap_stats.entries, snap_stats.bytes, load.duration
        );
        println!(
            "{:<28} {:>12.1} jobs/s\n{:<28} {:>12.1} jobs/s   ({snap_speedup:.1}x cold, \
             {snap_hits}/{} from snapshot, bit-identical: {snap_identical})",
            format!("cold start, {workers} worker(s)"),
            cold_jobs_per_sec,
            "snapshot-loaded",
            snap_jobs_per_sec,
            requests.len()
        );
        if !smoke {
            assert!(
                snap_speedup >= 2.0,
                "a snapshot-loaded service must serve the replayed stream at \
                 least 2x the cold-start throughput (measured {snap_speedup:.2}x)"
            );
        }
        let comma = if streaming || verify || fairness || router || transport {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  \"warmstart\": {{\"entries\": {}, \"file_bytes\": {}, \
             \"load_ms\": {:.3}, \"loaded\": {}, \"skipped\": {}, \
             \"cold_jobs_per_sec\": {cold_jobs_per_sec:.1}, \
             \"snapshot_jobs_per_sec\": {snap_jobs_per_sec:.1}, \
             \"speedup\": {snap_speedup:.2}, \"bit_identical\": {snap_identical}}}{comma}",
            snap_stats.entries,
            snap_stats.bytes,
            load.duration.as_secs_f64() * 1e3,
            load.loaded,
            load.skipped
        );
    }

    if streaming {
        let (small_jobs, large_jobs) = if smoke { (8, 2) } else { (48, 6) };
        println!(
            "\nstreaming section: {large_jobs} large + {small_jobs} small jobs, \
             1 worker, large submitted first"
        );
        let runs = [
            run_streaming(SchedulingPolicy::Fifo, "fifo", small_jobs, large_jobs),
            run_streaming(
                SchedulingPolicy::SizeAware,
                "size_aware",
                small_jobs,
                large_jobs,
            ),
        ];
        for run in &runs {
            println!(
                "{:<28} {:>12.1} jobs/s   small queue-wait p50 {:>9.0} µs  p99 {:>9.0} µs   \
                 large p99 {:>9.0} µs",
                format!("streaming, {}", run.policy),
                run.jobs_per_sec,
                run.small_p50_us,
                run.small_p99_us,
                run.large_p99_us
            );
        }
        let improvement = runs[0].small_p99_us / runs[1].small_p99_us.max(1.0);
        println!(
            "small-job p99 queue wait: size-aware is {improvement:.1}x below the FIFO baseline"
        );
        if !smoke {
            assert!(
                runs[1].small_p99_us < runs[0].small_p99_us,
                "size-aware scheduling must beat the FIFO baseline on small-job p99 queue wait"
            );
        }
        out.push_str("  \"streaming\": {\n");
        let _ = writeln!(
            out,
            "    \"small_jobs\": {small_jobs}, \"large_jobs\": {large_jobs}, \"workers\": 1,"
        );
        for (i, run) in runs.iter().enumerate() {
            let comma = if i + 1 == runs.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    \"{}\": {{\"jobs_per_sec\": {:.1}, \"small_queue_wait_p50_us\": {:.1}, \
                 \"small_queue_wait_p99_us\": {:.1}, \"large_queue_wait_p99_us\": {:.1}}}{comma}",
                run.policy, run.jobs_per_sec, run.small_p50_us, run.small_p99_us, run.large_p99_us
            );
        }
        out.push_str("  }");
        out.push_str(if verify || fairness || router || transport {
            ",\n"
        } else {
            "\n"
        });
    }

    if verify {
        // Verification overhead: the same workload, unverified vs. under a
        // replay policy, on a cache-less single worker so every job pays
        // the pipeline (and, in the second pass, the replay). The 0.95
        // floor passes every job — including the 98 %-approximated ones,
        // which verify at their reached fidelity of ≈0.99.
        // Serving time is the sum of per-job worker times (excludes thread
        // spawning and queue overhead) over three repetitions of the
        // workload; passes are interleaved and the best of five is taken
        // on each side, keeping the ratio stable against noise on shared
        // CI hardware.
        let verified_requests: Vec<PrepareRequest> = requests
            .iter()
            .cloned()
            .map(|r| r.with_verification(VerificationPolicy::replay(0.95)))
            .collect();
        let run_once = |requests: &[PrepareRequest]| -> Duration {
            let service =
                EngineService::new(EngineConfig::default().with_workers(1).without_cache());
            let serving: Duration = (0..3)
                .flat_map(|_| serve_batch(&service, requests))
                .map(|report| report.elapsed)
                .sum();
            service.shutdown();
            serving
        };
        let (mut plain, mut verified) = (Duration::MAX, Duration::MAX);
        let mut overhead = f64::INFINITY;
        for _ in 0..5 {
            // Adjacent passes see the same machine load, so the per-pass
            // ratio is robust against common-mode noise; the best pair is
            // the measured overhead.
            let p = run_once(&requests);
            let v = run_once(&verified_requests);
            let ratio = v.as_secs_f64() / p.as_secs_f64().max(f64::MIN_POSITIVE);
            if ratio < overhead {
                overhead = ratio;
                plain = p;
                verified = v;
            }
        }
        println!(
            "\nverification: unverified {:?}, verified {:?} → overhead {overhead:.2}x",
            plain, verified
        );
        assert!(
            overhead <= 2.0,
            "replay verification must cost at most 2x the unverified serving \
             time (measured {overhead:.2}x)"
        );

        // Admission under flood: one worker pinned on an expensive job, a
        // one-slot queue, and a burst of non-blocking submissions — the
        // rejection rate and high watermark land in the JSON.
        let service = EngineService::new(
            EngineConfig::default()
                .with_workers(1)
                .with_queue_depth(1)
                .without_cache(),
        );
        let d_large = dims4();
        let mut rng = StdRng::seed_from_u64(0xAD_A115);
        let busy = service.submit(PrepareRequest::dense(
            d_large.clone(),
            random_state(&d_large, RandomKind::ReImUniform, &mut rng),
            PrepareOptions::exact(),
        ));
        // Let the worker pick the pinned job up, so the burst races a busy
        // worker (one admission, then rejections) rather than a full queue.
        while service.stats().queued > 0 {
            std::thread::yield_now();
        }
        let d_small = dims3();
        let cheap = PrepareRequest::dense(d_small.clone(), ghz(&d_small), PrepareOptions::exact());
        let burst = if smoke { 64 } else { 512 };
        let mut admitted = Vec::new();
        for _ in 0..burst {
            if let Ok(handle) = service.try_submit(cheap.clone()) {
                admitted.push(handle);
            }
        }
        busy.wait().expect("pinned job completes");
        for handle in admitted {
            handle.wait().expect("admitted burst job completes");
        }
        let stats = service.stats();
        let rejection_rate = stats.rejected as f64 / burst as f64;
        println!(
            "admission flood: {} submissions, {} rejected ({:.0}% shed), \
             high watermark {}",
            burst,
            stats.rejected,
            rejection_rate * 100.0,
            stats.high_watermark
        );
        service.shutdown();

        out.push_str("  \"verification\": {\n");
        let _ = writeln!(
            out,
            "    \"unverified_ms\": {:.3}, \"verified_ms\": {:.3}, \
             \"overhead_ratio\": {overhead:.3}",
            plain.as_secs_f64() * 1e3,
            verified.as_secs_f64() * 1e3
        );
        out.push_str("  },\n");
        let comma = if fairness || router || transport {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  \"admission\": {{\"queue_depth\": 1, \"burst\": {burst}, \
             \"rejected\": {}, \"rejection_rate\": {rejection_rate:.3}, \
             \"high_watermark\": {}}}{comma}",
            stats.rejected, stats.high_watermark
        );
    }

    if fairness {
        let (small_jobs, large_jobs) = if smoke { (16, 2) } else { (1000, 2) };
        // Interleaved repetitions with a per-metric median keep the
        // comparison stable against load spikes on shared CI hardware
        // (the same approach the verification section takes).
        let reps = if smoke { 1 } else { 3 };
        println!(
            "\nfairness section: {large_jobs} large ahead of {small_jobs} small jobs, \
             1 size-aware worker, aging off vs on (median of {reps})"
        );
        let epoch = Duration::from_micros(500);
        let (mut off_reps, mut on_reps) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            off_reps.push(run_fairness(
                Aging::Off,
                "aging_off",
                small_jobs,
                large_jobs,
            ));
            on_reps.push(run_fairness(
                Aging::HalveEvery(epoch),
                "aging_on",
                small_jobs,
                large_jobs,
            ));
        }
        let runs = [median_fairness(off_reps), median_fairness(on_reps)];
        for run in &runs {
            println!(
                "{:<28} worst queue-wait {:>9.0} µs   p99.9 {:>9.0} µs   \
                 starved-large worst {:>9.0} µs   small p99 {:>9.0} µs",
                format!("fairness, {}", run.aging),
                run.worst_us,
                run.p999_us,
                run.large_worst_us,
                run.small_p99_us
            );
        }
        println!(
            "starved-large worst queue wait: aging cuts it {:.1}x; \
             small-job p99 at {:.2}x the no-aging baseline",
            runs[0].large_worst_us / runs[1].large_worst_us.max(1.0),
            runs[1].small_p99_us / runs[0].small_p99_us.max(1.0)
        );
        if !smoke {
            assert!(
                runs[1].large_worst_us < runs[0].large_worst_us,
                "aging must lower the starved large job's worst queue wait below \
                 the no-aging baseline ({:.0} µs vs {:.0} µs)",
                runs[1].large_worst_us,
                runs[0].large_worst_us
            );
            assert!(
                runs[1].small_p99_us <= 2.0 * runs[0].small_p99_us,
                "aging must keep the small-job p99 queue wait within 2x the \
                 no-aging baseline ({:.0} µs vs {:.0} µs)",
                runs[1].small_p99_us,
                runs[0].small_p99_us
            );
        }
        out.push_str("  \"fairness\": {\n");
        let _ = writeln!(
            out,
            "    \"small_jobs\": {small_jobs}, \"large_jobs\": {large_jobs}, \
             \"workers\": 1, \"aging_epoch_us\": {}, \"repetitions\": {reps},",
            epoch.as_micros()
        );
        for (i, run) in runs.iter().enumerate() {
            let comma = if i + 1 == runs.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    \"{}\": {{\"worst_queue_wait_us\": {:.1}, \
                 \"queue_wait_p999_us\": {:.1}, \"large_worst_queue_wait_us\": {:.1}, \
                 \"small_queue_wait_p99_us\": {:.1}}}{comma}",
                run.aging, run.worst_us, run.p999_us, run.large_worst_us, run.small_p99_us
            );
        }
        out.push_str(if router || transport {
            "  },\n"
        } else {
            "  }\n"
        });
    }

    if router {
        out.push_str(&run_router(
            smoke,
            &requests,
            if transport { "," } else { "" },
        ));
    }

    if transport {
        out.push_str(&run_transport(smoke, &requests));
    }

    out.push_str("}\n");
    std::fs::write(out_path, out).expect("writing benchmark JSON");
    println!("JSON written to {out_path}");
}

/// The `--router` section: the mixed workload served directly vs. through
/// a consistent-hash router of one-worker shards (bit-identity asserted),
/// a warm resubmission measuring shard-cache hit rates, and a synthetic
/// key population routed across a shard join and a shard leave to record
/// the balance spread and moved-key fractions. The fragment is terminated
/// by `comma`.
fn run_router(smoke: bool, requests: &[PrepareRequest], comma: &str) -> String {
    use mdq_router::{Router, RouterConfig, TenantId};

    let shard_count = if smoke { 2 } else { 4 };
    println!(
        "\nrouter section: {} jobs, direct {shard_count}-worker service vs \
         {shard_count} shards x 1 worker",
        requests.len()
    );

    // Direct baseline: one service holding as many workers as the routed
    // tier has shards, so both sides spend the same worker budget.
    let direct = EngineService::new(EngineConfig::default().with_workers(shard_count));
    let t = Instant::now();
    let direct_reports: Vec<_> = direct
        .submit_batch(requests.to_vec())
        .into_iter()
        .map(|handle| handle.wait().expect("direct job succeeds"))
        .collect();
    let direct_wall = t.elapsed();
    direct.shutdown();
    let direct_jobs_per_sec = requests.len() as f64 / direct_wall.as_secs_f64();
    println!(
        "{:<28} {:>12.1} jobs/s",
        format!("direct, {shard_count} worker(s)"),
        direct_jobs_per_sec
    );

    // Routed cold pass: every circuit must come back raw-bit identical to
    // direct serving — routing is a placement decision, never a result one.
    let router = Router::new(
        RouterConfig::default().with_engine_config(EngineConfig::default().with_workers(1)),
    );
    for id in 0..shard_count {
        router.add_shard(id);
    }
    let tenant = TenantId(0);
    let t = Instant::now();
    let handles: Vec<_> = requests
        .iter()
        .map(|r| {
            router
                .submit(tenant, r.clone())
                .expect("unbounded router admits")
        })
        .collect();
    let routed_reports: Vec<_> = handles
        .into_iter()
        .map(|handle| handle.wait().expect("routed job succeeds"))
        .collect();
    let routed_wall = t.elapsed();
    let identical = direct_reports
        .iter()
        .zip(&routed_reports)
        .all(|(d, r)| d.circuit == r.circuit);
    assert!(
        identical,
        "routed circuits must be bit-identical to direct serving"
    );
    let routed_jobs_per_sec = requests.len() as f64 / routed_wall.as_secs_f64();
    let routed_vs_direct = routed_jobs_per_sec / direct_jobs_per_sec.max(f64::MIN_POSITIVE);
    println!(
        "{:<28} {:>12.1} jobs/s   ({routed_vs_direct:.2}x direct, bit-identical: {identical})",
        format!("routed, {shard_count} shard(s)"),
        routed_jobs_per_sec
    );

    // Warm resubmission: duplicates co-locate by fingerprint, so the
    // second pass is served from the shard caches filled by the first.
    let t = Instant::now();
    let warm: Vec<_> = requests
        .iter()
        .map(|r| {
            router
                .submit(tenant, r.clone())
                .expect("unbounded router admits")
        })
        .map(|handle| handle.wait().expect("warm routed job succeeds"))
        .collect();
    let warm_wall = t.elapsed();
    let warm_hits = warm.iter().filter(|r| r.from_cache).count();
    assert!(warm_hits > 0, "warm resubmission must hit the shard caches");
    let warm_jobs_per_sec = requests.len() as f64 / warm_wall.as_secs_f64();
    let warm_hit_rate = warm_hits as f64 / requests.len() as f64;
    let stats = router.stats();
    println!(
        "{:<28} {:>12.1} jobs/s   {warm_hits} hits / {} jobs",
        "routed warm (shard caches)",
        warm_jobs_per_sec,
        requests.len()
    );

    // Shard balance across resizes: a synthetic key population placed at
    // the starting topology, after a shard joins, and after a shard
    // leaves. A consistent ring moves ≈ 1/N of the keys per resize.
    let keys: usize = if smoke { 512 } else { 4096 };
    let fingerprints: Vec<u64> = (0..keys as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let place = |router: &Router| -> Vec<usize> {
        fingerprints
            .iter()
            .map(|&fp| router.route_fingerprint(fp).expect("ring has shards"))
            .collect()
    };
    let spread = |router: &Router, placement: &[usize]| -> (usize, usize) {
        let per_shard: Vec<usize> = router
            .shards()
            .into_iter()
            .map(|shard| placement.iter().filter(|&&p| p == shard).count())
            .collect();
        (
            per_shard.iter().copied().max().unwrap_or(0),
            per_shard.iter().copied().min().unwrap_or(0),
        )
    };
    let moved =
        |a: &[usize], b: &[usize]| -> usize { a.iter().zip(b).filter(|(x, y)| x != y).count() };

    let initial = place(&router);
    let (initial_max, initial_min) = spread(&router, &initial);
    router.add_shard(shard_count);
    let joined = place(&router);
    let (join_max, join_min) = spread(&router, &joined);
    let moved_join = moved(&initial, &joined);
    router.remove_shard(0);
    let left = place(&router);
    let (leave_max, leave_min) = spread(&router, &left);
    let moved_leave = moved(&joined, &left);
    router.shutdown();
    let join_fraction = moved_join as f64 / keys as f64;
    let leave_fraction = moved_leave as f64 / keys as f64;
    assert!(
        join_fraction < 0.6 && leave_fraction < 0.6,
        "a consistent ring must move ~1/N of the keys per resize, not \
         rehash everything (join {join_fraction:.2}, leave {leave_fraction:.2})"
    );
    println!(
        "shard balance: {keys} keys → max/min {initial_max}/{initial_min}; \
         join moves {moved_join} ({:.1}%), leave moves {moved_leave} ({:.1}%)",
        join_fraction * 100.0,
        leave_fraction * 100.0
    );

    let mut out = String::from("  \"router\": {\n");
    let _ = writeln!(
        out,
        "    \"shards\": {shard_count}, \"jobs\": {},",
        requests.len()
    );
    let _ = writeln!(
        out,
        "    \"direct_jobs_per_sec\": {direct_jobs_per_sec:.1}, \
         \"routed_jobs_per_sec\": {routed_jobs_per_sec:.1}, \
         \"routed_vs_direct\": {routed_vs_direct:.2}, \"bit_identical\": {identical},"
    );
    let _ = writeln!(
        out,
        "    \"warm_jobs_per_sec\": {warm_jobs_per_sec:.1}, \"warm_hits\": {warm_hits}, \
         \"warm_hit_rate\": {warm_hit_rate:.3},"
    );
    out.push_str("    \"shard_hit_rates\": [\n");
    for (i, shard) in stats.shards.iter().enumerate() {
        let comma = if i + 1 == stats.shards.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "      {{\"shard\": {}, \"jobs\": {}, \"hit_rate\": {:.3}}}{comma}",
            shard.shard, shard.engine.jobs, shard.hit_rate
        );
    }
    out.push_str("    ],\n");
    out.push_str("    \"balance\": {\n");
    let _ = writeln!(out, "      \"keys\": {keys},");
    let _ = writeln!(
        out,
        "      \"initial\": {{\"shards\": {shard_count}, \"max_keys\": {initial_max}, \
         \"min_keys\": {initial_min}}},"
    );
    let _ = writeln!(
        out,
        "      \"after_join\": {{\"shards\": {}, \"max_keys\": {join_max}, \
         \"min_keys\": {join_min}, \"moved\": {moved_join}, \
         \"moved_fraction\": {join_fraction:.3}}},",
        shard_count + 1
    );
    let _ = writeln!(
        out,
        "      \"after_leave\": {{\"shards\": {shard_count}, \"max_keys\": {leave_max}, \
         \"min_keys\": {leave_min}, \"moved\": {moved_leave}, \
         \"moved_fraction\": {leave_fraction:.3}}}"
    );
    out.push_str("    }\n");
    let _ = writeln!(out, "  }}{comma}");
    out
}

/// The `--transport` section: the mixed workload served once through an
/// in-process two-shard router (one blocking `submit` + `wait` per call,
/// exactly the client's cadence) and once over a local socket through the
/// `mdq-transport` tier — unix-domain where available, loopback TCP
/// otherwise — each side measured cold and then warm (second pass rides
/// the shard caches, isolating protocol overhead from pipeline time).
/// Per-call round-trip p50/p99 and the socket tax (in-process throughput
/// over socket throughput) land in the JSON; every circuit served over
/// the socket is asserted raw-bit identical to its in-process twin.
/// Always the last section, so the fragment carries no trailing comma.
fn run_transport(smoke: bool, requests: &[PrepareRequest]) -> String {
    use mdq_circuit::Circuit;
    use mdq_engine::RequestFrame;
    use mdq_router::{Router, RouterConfig, TenantId};
    use mdq_transport::{
        Backend, ClientConfig, ServerAddr, ServerConfig, ServerReply, WireClient, WireServer,
    };

    let shard_count = 2;
    let make_router = || {
        let router = Router::new(
            RouterConfig::default().with_engine_config(EngineConfig::default().with_workers(1)),
        );
        for id in 0..shard_count {
            router.add_shard(id);
        }
        router
    };
    #[cfg(unix)]
    let (addr, socket_kind, socket_path) = {
        let path =
            std::env::temp_dir().join(format!("mdq_bench_transport_{}.sock", std::process::id()));
        (ServerAddr::unix(&path), "unix", Some(path))
    };
    #[cfg(not(unix))]
    let (addr, socket_kind, socket_path): (ServerAddr, &str, Option<std::path::PathBuf>) =
        (ServerAddr::loopback(), "tcp", None);
    println!(
        "\ntransport section: {} jobs, in-process Router::submit vs mdqwire over {socket_kind}",
        requests.len()
    );

    // In-process baseline: one submit+wait round trip per job — the same
    // cadence the blocking wire client has, so the comparison isolates
    // the envelope/serialize/socket cost rather than pipelining effects.
    let router = make_router();
    let tenant = TenantId(0);
    let run_inproc = || -> (Vec<Circuit>, f64, f64, f64) {
        let mut circuits = Vec::with_capacity(requests.len());
        let mut latencies = Vec::with_capacity(requests.len());
        let t = Instant::now();
        for request in requests {
            let call = Instant::now();
            let report = router
                .submit(tenant, request.clone())
                .expect("unbounded router admits")
                .wait()
                .expect("in-process job succeeds");
            latencies.push(call.elapsed());
            circuits.push(report.circuit);
        }
        let jobs_per_sec = requests.len() as f64 / t.elapsed().as_secs_f64();
        latencies.sort_unstable();
        (
            circuits,
            jobs_per_sec,
            percentile_us(&latencies, 0.50),
            percentile_us(&latencies, 0.99),
        )
    };
    let (inproc_cold, inproc_cold_jps, inproc_cold_p50, inproc_cold_p99) = run_inproc();
    let (_, inproc_warm_jps, inproc_warm_p50, inproc_warm_p99) = run_inproc();
    router.shutdown();
    println!(
        "{:<28} {:>12.1} jobs/s   p50 {:>8.0} µs   p99 {:>8.0} µs",
        "in-process cold", inproc_cold_jps, inproc_cold_p50, inproc_cold_p99
    );
    println!(
        "{:<28} {:>12.1} jobs/s   p50 {:>8.0} µs   p99 {:>8.0} µs",
        "in-process warm", inproc_warm_jps, inproc_warm_p50, inproc_warm_p99
    );

    // Socket tier: the same workload, round-tripped through the real
    // server and blocking client over a local socket.
    let server = WireServer::bind(
        &addr,
        Backend::Router(Box::new(make_router())),
        ServerConfig::new(),
    )
    .expect("local socket binds");
    let mut client = WireClient::connect(server.local_addr().clone(), ClientConfig::new())
        .expect("local client connects");
    let mut run_socket = || -> (Vec<Circuit>, f64, f64, f64) {
        let mut circuits = Vec::with_capacity(requests.len());
        let mut latencies = Vec::with_capacity(requests.len());
        let t = Instant::now();
        for request in requests {
            let frame = RequestFrame {
                tenant: Some(tenant.0),
                request: request.clone(),
            };
            let call = Instant::now();
            let reply = client.call(&frame).expect("local socket stays healthy");
            latencies.push(call.elapsed());
            match reply {
                ServerReply::Report(report) => circuits.push(report.report.circuit),
                ServerReply::Refused(refusal) => panic!("benchmark job refused: {refusal:?}"),
            }
        }
        let jobs_per_sec = requests.len() as f64 / t.elapsed().as_secs_f64();
        latencies.sort_unstable();
        (
            circuits,
            jobs_per_sec,
            percentile_us(&latencies, 0.50),
            percentile_us(&latencies, 0.99),
        )
    };
    let (socket_cold, socket_cold_jps, socket_cold_p50, socket_cold_p99) = run_socket();
    let (socket_warm, socket_warm_jps, socket_warm_p50, socket_warm_p99) = run_socket();
    drop(client);
    server.shutdown();
    if let Some(path) = socket_path {
        let _ = std::fs::remove_file(path);
    }

    let identical = inproc_cold == socket_cold && inproc_cold == socket_warm;
    assert!(
        identical,
        "every circuit served over the socket must be raw-bit identical to \
         in-process serving"
    );
    let tax_cold = inproc_cold_jps / socket_cold_jps.max(f64::MIN_POSITIVE);
    let tax_warm = inproc_warm_jps / socket_warm_jps.max(f64::MIN_POSITIVE);
    println!(
        "{:<28} {:>12.1} jobs/s   p50 {:>8.0} µs   p99 {:>8.0} µs   ({tax_cold:.2}x tax)",
        format!("{socket_kind} socket cold"),
        socket_cold_jps,
        socket_cold_p50,
        socket_cold_p99
    );
    println!(
        "{:<28} {:>12.1} jobs/s   p50 {:>8.0} µs   p99 {:>8.0} µs   ({tax_warm:.2}x tax, bit-identical: {identical})",
        format!("{socket_kind} socket warm"),
        socket_warm_jps,
        socket_warm_p50,
        socket_warm_p99
    );
    if !smoke {
        // The warm pass serves from shard caches on both sides, so the
        // socket tax there is pure protocol overhead — it must stay a
        // constant factor, not an order of magnitude.
        assert!(
            tax_warm < 50.0,
            "warm socket serving must stay within 50x of in-process \
             (measured {tax_warm:.1}x)"
        );
    }

    let mut out = String::from("  \"transport\": {\n");
    let _ = writeln!(
        out,
        "    \"jobs\": {}, \"shards\": {shard_count}, \"socket\": \"{socket_kind}\",",
        requests.len()
    );
    let _ = writeln!(
        out,
        "    \"inprocess\": {{\"cold_jobs_per_sec\": {inproc_cold_jps:.1}, \
         \"cold_p50_us\": {inproc_cold_p50:.1}, \"cold_p99_us\": {inproc_cold_p99:.1}, \
         \"warm_jobs_per_sec\": {inproc_warm_jps:.1}, \
         \"warm_p50_us\": {inproc_warm_p50:.1}, \"warm_p99_us\": {inproc_warm_p99:.1}}},"
    );
    let _ = writeln!(
        out,
        "    \"socket_tier\": {{\"cold_jobs_per_sec\": {socket_cold_jps:.1}, \
         \"cold_p50_us\": {socket_cold_p50:.1}, \"cold_p99_us\": {socket_cold_p99:.1}, \
         \"warm_jobs_per_sec\": {socket_warm_jps:.1}, \
         \"warm_p50_us\": {socket_warm_p50:.1}, \"warm_p99_us\": {socket_warm_p99:.1}}},"
    );
    let _ = writeln!(
        out,
        "    \"socket_tax_cold\": {tax_cold:.2}, \"socket_tax_warm\": {tax_warm:.2}, \
         \"bit_identical\": {identical}"
    );
    out.push_str("  }\n");
    out
}

/// Streams the mixed workload through a persistent `EngineService` under
/// the given policy: the expensive jobs are submitted *first*, so a FIFO
/// queue head-of-line-blocks every small job behind them while the
/// size-aware scheduler lets the small ones leapfrog the still-queued
/// large ones. One worker keeps the comparison deterministic; the cache is
/// off so every job really runs the pipeline.
fn run_streaming(
    policy: SchedulingPolicy,
    name: &'static str,
    small_jobs: usize,
    large_jobs: usize,
) -> StreamingRun {
    let d_large = dims4();
    let d_small = dims3();
    let opts = PrepareOptions::exact().without_zero_subtrees();
    let large: Vec<PrepareRequest> = (0..large_jobs)
        .map(|job| {
            let mut rng = StdRng::seed_from_u64(0x57_4e_a1 + job as u64);
            PrepareRequest::dense(
                d_large.clone(),
                random_state(&d_large, RandomKind::ReImUniform, &mut rng),
                opts,
            )
        })
        .collect();
    let small: Vec<PrepareRequest> =
        vec![PrepareRequest::dense(d_small.clone(), ghz(&d_small), opts); small_jobs];

    let service = EngineService::new(
        EngineConfig::default()
            .with_workers(1)
            .without_cache()
            .with_scheduling(policy),
    );
    let t = Instant::now();
    let large_handles = service.submit_batch(large);
    let small_handles = service.submit_batch(small);
    let small_waits = harvest_queue_waits(small_handles);
    let large_waits = harvest_queue_waits(large_handles);
    let wall = t.elapsed();
    service.shutdown();

    StreamingRun {
        policy: name,
        jobs_per_sec: (small_jobs + large_jobs) as f64 / wall.as_secs_f64(),
        small_p50_us: percentile_us(&small_waits, 0.50),
        small_p99_us: percentile_us(&small_waits, 0.99),
        large_p99_us: percentile_us(&large_waits, 0.99),
    }
}

/// Runs the starvation workload under one aging setting: two dense random
/// jobs on the 4-qudit Table-1 register (~milliseconds each, estimated
/// cost 810) are submitted *first*, then a flood of GHZ jobs on the
/// 3-qudit register (tens of µs each, cost 36). On one size-aware worker
/// the first large job pins the pool, so with aging off the second large
/// job's frozen key keeps it behind the entire flood — its queue wait
/// grows with the flood length. With aging on, its effective cost decays
/// below the smalls' within ~5 epochs and it pops mid-flood, bounding its
/// wait at the decay horizon. The large jobs are kept much cheaper than
/// the flood's total drain time so the promotion delays only a sliver of
/// the small class — that proportion, not luck, is what keeps the
/// small-job p99 within the asserted 2× of the no-aging baseline.
fn run_fairness(
    aging: Aging,
    name: &'static str,
    small_jobs: usize,
    large_jobs: usize,
) -> FairnessRun {
    let d_large = dims4();
    let d_small = dims3();
    let opts = PrepareOptions::exact().without_zero_subtrees();
    let large: Vec<PrepareRequest> = (0..large_jobs)
        .map(|job| {
            let mut rng = StdRng::seed_from_u64(0xFA_12 + job as u64);
            PrepareRequest::dense(
                d_large.clone(),
                random_state(&d_large, RandomKind::ReImUniform, &mut rng),
                opts,
            )
        })
        .collect();
    let small: Vec<PrepareRequest> =
        vec![PrepareRequest::dense(d_small.clone(), ghz(&d_small), opts); small_jobs];

    let service = EngineService::new(
        EngineConfig::default()
            .with_workers(1)
            .without_cache()
            .with_scheduling(SchedulingPolicy::SizeAware)
            .with_aging(aging),
    );
    let large_handles = service.submit_batch(large);
    let small_handles = service.submit_batch(small);
    let small_waits = harvest_queue_waits(small_handles);
    let large_waits = harvest_queue_waits(large_handles);
    service.shutdown();

    let mut all_waits = small_waits.clone();
    all_waits.extend_from_slice(&large_waits);
    all_waits.sort_unstable();
    FairnessRun {
        aging: name,
        worst_us: percentile_us(&all_waits, 1.0),
        p999_us: percentile_us(&all_waits, 0.999),
        large_worst_us: percentile_us(&large_waits, 1.0),
        small_p99_us: percentile_us(&small_waits, 0.99),
    }
}

/// Collapses repeated fairness runs of one aging setting into a single
/// row by taking the per-metric median.
fn median_fairness(reps: Vec<FairnessRun>) -> FairnessRun {
    let median = |pick: fn(&FairnessRun) -> f64| -> f64 {
        let mut values: Vec<f64> = reps.iter().map(pick).collect();
        values.sort_unstable_by(f64::total_cmp);
        values[values.len() / 2]
    };
    FairnessRun {
        aging: reps[0].aging,
        worst_us: median(|r| r.worst_us),
        p999_us: median(|r| r.p999_us),
        large_worst_us: median(|r| r.large_worst_us),
        small_p99_us: median(|r| r.small_p99_us),
    }
}

/// Waits for every handle and returns the sorted queue waits.
fn harvest_queue_waits(handles: Vec<JobHandle>) -> Vec<Duration> {
    let mut waits: Vec<Duration> = handles
        .into_iter()
        .map(|handle| handle.wait().expect("streaming job succeeds").queue_wait)
        .collect();
    waits.sort_unstable();
    waits
}

/// `jobs` requests cycling through a mixed template list; randomized
/// templates draw a fresh seed per instance so the cold cache mostly
/// misses, while every 8th job duplicates the first (exercising in-batch
/// hits the way a real request stream repeats popular states).
fn mixed_workload(jobs: usize) -> Vec<PrepareRequest> {
    let d3 = dims3();
    let d4 = dims4();
    let sparse_dims = Dims::new((0..14).map(|i| 2 + (i % 4)).collect()).expect("valid register");
    let exact = PrepareOptions::exact().without_zero_subtrees();
    let approx = PrepareOptions::approximated(0.98).without_zero_subtrees();

    let mut requests = Vec::with_capacity(jobs);
    for job in 0..jobs {
        let mut rng = StdRng::seed_from_u64(0xE1_61_4E + job as u64);
        let request = match job % 8 {
            0 => PrepareRequest::dense(d3.clone(), ghz(&d3), exact),
            1 => PrepareRequest::dense(d3.clone(), w_state(&d3), approx),
            2 => PrepareRequest::sparse(
                sparse_dims.clone(),
                mdq_states::sparse::ghz(&sparse_dims),
                exact,
            ),
            3 => PrepareRequest::dense(
                d3.clone(),
                random_state(&d3, RandomKind::ReImUniform, &mut rng),
                exact,
            ),
            4 => PrepareRequest::sparse(
                sparse_dims.clone(),
                mdq_states::sparse::random_sparse(&sparse_dims, 24, &mut rng),
                exact,
            ),
            5 => PrepareRequest::dense(d4.clone(), w_state(&d4), approx),
            6 => PrepareRequest::sparse(
                sparse_dims.clone(),
                mdq_states::sparse::w_state(&sparse_dims),
                exact,
            ),
            // The repeated popular request of the stream.
            _ => PrepareRequest::dense(d3.clone(), ghz(&d3), exact),
        };
        requests.push(request);
    }
    requests
}

/// Submits the batch and waits on every handle, returning the reports in
/// request order.
fn serve_batch(service: &EngineService, requests: &[PrepareRequest]) -> Vec<PrepareReport> {
    service
        .submit_batch(requests.iter().cloned())
        .into_iter()
        .map(|handle| handle.wait().expect("benchmark job succeeds"))
        .collect()
}

fn percentile_us(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e6
}
