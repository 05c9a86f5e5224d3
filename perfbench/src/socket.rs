//! The two socket workloads: `WireClient` connections over a unix socket
//! (loopback TCP where unix sockets do not exist) to a `WireServer`
//! fronting a two-shard `Router`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mdq_engine::{
    EngineConfig, ErrorFrame, Frame, PrepareRequest, ReportFrame, RequestFrame, StatePayload,
};
use mdq_router::{Router, RouterConfig, RouterStats, TenantId};
use mdq_transport::{
    Backend, ClientConfig, ServerAddr, ServerConfig, ServerReply, ServerStats, WireClient,
    WireServer,
};

use crate::out::{circuit_digest, peak_rss_kb, Job, Ledger, Obj};
use crate::probe::{self, Codec, Probes};
use crate::workload::{self, with_replay, MixedSlot, FIDELITY_FLOOR};
use crate::{load_threads, nproc, Args, Clock, Phase, Report};

const SHARDS: usize = 2;
const TENANT: u64 = 0;
/// Tenant of the traced run's direct `Router::submit` probes, so they stay
/// out of the workload's ledger.
const PROBE_TENANT: u64 = 1;
/// Tries per call: a realistic client resends on retryable transport
/// failures; `transport.retries` counts the resends.
const ATTEMPTS: u32 = 3;
/// Set-up runs per invocation; `run.py` reports their median.
const WARM_SETUPS: usize = 5;
const MIXED_SETUPS: usize = 9;
/// Bounded cache of each `mixed-socket` shard, one LRU. Between two visits
/// of the rarest hot entry both clients send at most about 40 fresh
/// requests, so even with every one of them on one shard the LRU evicts
/// only fresh entries: hot requests always hit and fresh ones always miss,
/// whatever shards the ring puts them on.
const MIXED_CACHE_CAPACITY: usize = 64;

fn engine_config() -> EngineConfig {
    EngineConfig::default().with_workers(1)
}

fn server_addr(workdir: &Path) -> ServerAddr {
    #[cfg(unix)]
    {
        ServerAddr::unix(workdir.join("perfbench.sock"))
    }
    #[cfg(not(unix))]
    {
        let _ = workdir;
        ServerAddr::loopback()
    }
}

fn start(addr: &ServerAddr, engine: EngineConfig, snapshot_dir: Option<&Path>) -> WireServer {
    let mut config = RouterConfig::default().with_engine_config(engine);
    if let Some(dir) = snapshot_dir {
        config = config.with_snapshot_dir(dir);
    }
    let router = Router::new(config);
    for id in 0..SHARDS {
        router.add_shard(id);
    }
    // Connections sit idle while set-up and probes run; the default 5 s
    // read deadline would close them.
    let config = ServerConfig::new().with_read_timeout(Duration::from_secs(120));
    WireServer::bind(addr, Backend::Router(Box::new(router)), config)
        .expect("benchmark socket binds")
}

fn connect(server: &WireServer) -> WireClient {
    WireClient::connect(server.local_addr().clone(), ClientConfig::new())
        .expect("benchmark client connects")
}

fn router(server: &WireServer) -> &Router {
    server
        .backend()
        .router()
        .expect("the server fronts a router")
}

/// One catalog request as the wire frames the workload sends:
/// `[unverified, replay-verified]`.
fn frames(catalog: &[PrepareRequest]) -> Vec<[RequestFrame; 2]> {
    catalog
        .iter()
        .map(|request| {
            let frame = |request: PrepareRequest| RequestFrame {
                tenant: Some(TENANT),
                request,
            };
            [frame(request.clone()), frame(with_replay(request.clone()))]
        })
        .collect()
}

/// A call that must succeed (set-up and probes).
fn must_call(client: &mut WireClient, frame: &RequestFrame) -> ReportFrame {
    match client.call_with_retry(frame, ATTEMPTS) {
        Ok(ServerReply::Report(report)) => *report,
        Ok(ServerReply::Refused(refusal)) => panic!("set-up call refused: {refusal:?}"),
        Err(e) => panic!("set-up call failed: {e}"),
    }
}

fn is_refusal(error: &ErrorFrame) -> bool {
    matches!(
        error,
        ErrorFrame::QueueFull { .. }
            | ErrorFrame::QueueClosed
            | ErrorFrame::TenantOverQuota { .. }
            | ErrorFrame::NoShards
    )
}

/// Job `k` of one connection: its `entry` (a catalog index, or a packed
/// fresh-request id), whether it demands replay verification, and, for a
/// request outside the catalog, its frame.
type Pick = (u64, bool, Option<RequestFrame>);

/// Picks job `k` of one connection; frames are built before the call's
/// timer starts.
type Next = Box<dyn FnMut(u64) -> Pick + Send>;

/// The closed loop of one connection.
fn drive(
    client: &mut WireClient,
    frames: &[[RequestFrame; 2]],
    clock: &Clock,
    mut next: Next,
) -> (Ledger, Vec<Job>) {
    let mut ledger = Ledger::default();
    let mut jobs = Vec::new();
    let mut k = 0;
    while clock.keep_going() {
        let (entry, verify, fresh) = next(k);
        k += 1;
        let frame = fresh
            .as_ref()
            .unwrap_or_else(|| &frames[entry as usize][usize::from(verify)]);
        ledger.submitted += 1;
        let t = Instant::now();
        let reply = client.call_with_retry(frame, ATTEMPTS);
        let latency = t.elapsed();
        match reply {
            Ok(ServerReply::Report(frame)) => {
                ledger.completed += 1;
                let mut job = Job::from_report(entry, latency, verify, &frame.report);
                job.end_ns = clock.completed();
                jobs.push(job);
            }
            Ok(ServerReply::Refused(error)) if is_refusal(&error) => ledger.rejected += 1,
            Ok(ServerReply::Refused(_)) | Err(_) => ledger.failed += 1,
        }
    }
    (ledger, jobs)
}

/// The service's own counters over a phase: deltas of the router's,
/// the shard engines' and the server's ledgers.
fn stats_json(before: &(RouterStats, ServerStats), after: &(RouterStats, ServerStats)) -> String {
    let (r0, s0) = before;
    let (r1, s1) = after;
    let mut router = Obj::new();
    router.int("submitted", r1.submitted - r0.submitted);
    router.int("completed", r1.completed - r0.completed);
    router.int("failed", r1.failed - r0.failed);
    router.int("rejected", r1.rejected - r0.rejected);
    router.int("dropped", r1.dropped - r0.dropped);

    let shard_delta = |f: &dyn Fn(&mdq_engine::EngineStats) -> u64| -> Vec<u64> {
        r1.shards
            .iter()
            .map(|after| {
                let before = r0
                    .shards
                    .iter()
                    .find(|b| b.shard == after.shard)
                    .map_or(0, |b| f(&b.engine));
                f(&after.engine) - before
            })
            .collect()
    };
    let total =
        |f: &dyn Fn(&mdq_engine::EngineStats) -> u64| -> u64 { shard_delta(f).iter().sum() };
    let mut engine = Obj::new();
    engine.int("jobs", total(&|e| e.jobs));
    engine.int("failures", total(&|e| e.failures));
    engine.int("rejected", total(&|e| e.rejected));
    engine.int("verification_failures", total(&|e| e.verification_failures));
    engine.int("cache_hits", total(&|e| e.cache.hits));
    engine.int("cache_misses", total(&|e| e.cache.misses));
    engine.int("cache_evictions", total(&|e| e.cache.evictions));
    engine.int(
        "high_watermark",
        r1.shards
            .iter()
            .map(|s| s.engine.high_watermark as u64)
            .max()
            .unwrap_or(0),
    );
    engine.ints("shard_jobs", shard_delta(&|e| e.jobs));

    let mut server = Obj::new();
    server.int("reports", s1.reports - s0.reports);
    server.int("error_replies", s1.error_replies - s0.error_replies);
    server.int("bad_frames", s1.bad_frames - s0.bad_frames);
    server.int("timeouts", s1.timeouts - s0.timeouts);

    let mut o = Obj::new();
    o.raw("router", &router.finish());
    o.raw("engine", &engine.finish());
    o.raw("server", &server.finish());
    o.finish()
}

fn counters(server: &WireServer) -> (RouterStats, ServerStats) {
    (router(server).stats(), server.stats())
}

/// One timed phase over `clients`, each with its own entry sequence.
fn phase<F>(
    name: &'static str,
    server: &WireServer,
    clients: &mut [WireClient],
    frames: &[[RequestFrame; 2]],
    seconds: f64,
    next: F,
) -> Phase
where
    F: Fn(usize) -> Next + Sync,
{
    let before = counters(server);
    let retries_before: u64 = clients.iter().map(WireClient::retries).sum();
    let clock = Clock::start(seconds);
    let results: Vec<(Ledger, Vec<Job>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let clock = &clock;
                let next = next(c);
                scope.spawn(move || drive(client, frames, clock, next))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let wall = clock.elapsed();
    let peak_rss_kb = peak_rss_kb();
    let after = counters(server);
    let mut ledger = Ledger::default();
    let mut jobs = Vec::new();
    for (l, j) in results {
        ledger.add(&l);
        jobs.extend(j);
    }
    Phase {
        name,
        wall,
        ledger,
        jobs,
        stats: stats_json(&before, &after),
        wrong: 0,
        retries: clients.iter().map(WireClient::retries).sum::<u64>() - retries_before,
        peak_rss_kb,
    }
}

/// Entries of a request's payload: a sparse request's support.
fn payload_len(request: &PrepareRequest) -> usize {
    match &request.payload {
        StatePayload::Dense(amplitudes) => amplitudes.len(),
        StatePayload::Sparse(entries) => entries.len(),
    }
}

fn reference_digest(request: &PrepareRequest) -> u64 {
    circuit_digest(
        &request
            .prepare_sequential()
            .expect("reference pipeline runs")
            .circuit,
    )
}

/// Counts served circuits that differ from `prepare_sequential` of their
/// request, and verified jobs missing or failing the floor. Catalog
/// entries get one reference each; a request outside the catalog
/// (`fresh(entry)` is `Some`) is regenerated and computed per job, on as
/// many threads as there are cores.
fn check(
    catalog: &[PrepareRequest],
    fresh: &(impl Fn(u64) -> Option<PrepareRequest> + Sync),
    phases: &mut [Phase],
) {
    let references: Vec<u64> = catalog.iter().map(reference_digest).collect();
    for phase in phases {
        let chunk = phase.jobs.len().div_ceil(nproc()).max(1);
        phase.wrong = std::thread::scope(|scope| {
            let handles: Vec<_> = phase
                .jobs
                .chunks(chunk)
                .map(|jobs| {
                    let references = &references;
                    scope.spawn(move || {
                        jobs.iter()
                            .filter(|j| {
                                let reference = fresh(j.entry).map_or_else(
                                    || references[j.entry as usize],
                                    |r| reference_digest(&r),
                                );
                                j.digest != reference
                                    || (j.verify_demanded
                                        && !j.fidelity.is_some_and(|f| f >= FIDELITY_FLOOR))
                            })
                            .count() as u64
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("check thread"))
                .sum()
        });
    }
}

/// Fresh requests of one support whose codec a traced run measures; the
/// phase's other fresh requests of that support take these figures in
/// turn.
const FRESH_CODECS: usize = 8;

/// The traced run's layer probes on a still-running server.
fn probe_layers(
    server: &WireServer,
    client: &mut WireClient,
    catalog: &[PrepareRequest],
    fresh: &impl Fn(u64) -> Option<PrepareRequest>,
    traced: &mut Phase,
    probes: &mut Probes,
) {
    let request_of = |job: &Job| {
        let request = fresh(job.entry).unwrap_or_else(|| catalog[job.entry as usize].clone());
        if job.verify_demanded {
            with_replay(request)
        } else {
            request
        }
    };
    let mut codec_of = |request: PrepareRequest| {
        let frame = RequestFrame {
            tenant: Some(TENANT),
            request,
        };
        let report = must_call(client, &frame);
        Codec::measure(&Frame::Request(frame), &Frame::Report(report))
    };
    // Per-entry codec and fingerprint costs, on the frames this workload
    // sends and the reports the server returns for them. Fresh requests
    // are measured on a sample per support (`FRESH_CODECS`).
    let codecs: Vec<Codec> = catalog.iter().map(|r| codec_of(r.clone())).collect();
    let mut fresh_codecs: BTreeMap<usize, Vec<Codec>> = BTreeMap::new();
    let mut fresh_seen: BTreeMap<usize, usize> = BTreeMap::new();
    for job in &traced.jobs {
        let Some(request) = fresh(job.entry) else {
            continue;
        };
        let support = payload_len(&request);
        let sampled = fresh_codecs.entry(support).or_default();
        if sampled.len() < FRESH_CODECS {
            sampled.push(codec_of(request));
        }
    }
    for job in &traced.jobs {
        let codec = match fresh(job.entry) {
            Some(request) => {
                probes.push("engine.cache.key_us", probe::key_us(&request));
                let support = payload_len(&request);
                let seen = fresh_seen.entry(support).or_default();
                let sampled = &fresh_codecs[&support];
                *seen += 1;
                &sampled[(*seen - 1) % sampled.len()]
            }
            None => {
                probes.push(
                    "engine.cache.key_us",
                    probe::key_us(&catalog[job.entry as usize]),
                );
                &codecs[job.entry as usize]
            }
        };
        codec.push_job(probes);
        probes.push("trace.codec_path_us", codec.path_us());
    }

    // `Router::submit` on the live router, for a sample of the phase's
    // jobs, on a tenant of its own.
    let router = router(server);
    for job in probe::sample(&traced.jobs, 512) {
        let request = request_of(job);
        let t = Instant::now();
        let handle = router.submit(TenantId(PROBE_TENANT), request);
        let submit = t.elapsed();
        handle
            .expect("probe submission admitted")
            .wait()
            .expect("probe job succeeds");
        probes.push("router.submit_us", probe::us(submit));
    }

    traced.wrong += probe::fresh_pipelines(probes, &traced.jobs, 128, request_of);
}

fn finish(server: WireServer, clients: Vec<WireClient>) {
    // Clients close first, so no handler waits on an idle connection.
    drop(clients);
    server.shutdown();
}

fn remove_snapshots(dir: &Path) {
    for shard in 0..SHARDS {
        let _ = std::fs::remove_file(dir.join(format!("shard-{shard}.mdqsnap")));
    }
}

/// `warm-socket`: two connections repeating 16 popular requests, all of
/// them cache hits.
pub fn run_warm(args: &Args) -> Report {
    let catalog = workload::warm_catalog(args.seed);
    let frames = frames(&catalog);
    let order = workload::warm_cycle(args.seed, &catalog);
    // Two connections, not one: a single closed loop leaves both vCPUs idle
    // at every hand-off (client → handler → worker and back), and on a
    // shared host the wake-up latency of an idle vCPU swings by
    // milliseconds from minute to minute. Runs caught in such a spell read
    // up to 3.5× the median call time; a second connection keeps a vCPU
    // busy across the other's hand-offs.
    let threads = load_threads(2);
    let addr = server_addr(&args.workdir);
    let snapshot_dir: PathBuf = args.workdir.join("snapshots");
    std::fs::create_dir_all(&snapshot_dir).expect("snapshot directory is writable");

    // Each set-up starts clean: a cold pass fills the shard caches, a
    // graceful shutdown writes the snapshots, a warm rebind loads them.
    let mut setup = Vec::new();
    let mut live: Option<(WireServer, Vec<WireClient>)> = None;
    for _ in 0..WARM_SETUPS {
        if let Some((server, clients)) = live.take() {
            finish(server, clients);
        }
        remove_snapshots(&snapshot_dir);
        let t = Instant::now();
        let server = start(&addr, engine_config(), Some(&snapshot_dir));
        let mut client = connect(&server);
        for pair in &frames {
            must_call(&mut client, &pair[0]);
        }
        drop(client);
        server.shutdown();
        let server = start(&addr, engine_config(), Some(&snapshot_dir));
        let clients: Vec<WireClient> = (0..threads).map(|_| connect(&server)).collect();
        setup.push(t.elapsed());
        let loaded: usize = router(&server)
            .stats()
            .shards
            .iter()
            .filter_map(|s| s.warm_loaded)
            .sum();
        assert_eq!(
            loaded,
            catalog.len(),
            "warm rebind loads every cached entry"
        );
        live = Some((server, clients));
    }
    let (server, mut clients) = live.expect("at least one set-up ran");

    // The connections walk the same cycle half a cycle apart.
    let cycle = |c: usize| -> Next {
        let order = order.clone();
        let offset = c * order.len() / 2;
        Box::new(move |k| {
            (
                order[(k as usize + offset) % order.len()] as u64,
                false,
                None,
            )
        })
    };
    let mut phases = vec![phase(
        "untraced",
        &server,
        &mut clients,
        &frames,
        args.seconds,
        cycle,
    )];
    let mut probes = Probes::default();
    if args.trace {
        let mut traced = phase(
            "traced",
            &server,
            &mut clients,
            &frames,
            args.seconds,
            cycle,
        );
        probe_layers(
            &server,
            &mut clients[0],
            &catalog,
            &|_| None,
            &mut traced,
            &mut probes,
        );
        probe::snapshots(&mut probes, &snapshot_dir, SHARDS);
        phases.push(traced);
    }
    finish(server, clients);
    check(&catalog, &|_| None, &mut phases);
    Report {
        load_threads: threads,
        setup,
        phases,
        probes,
    }
}

/// `mixed-socket`: two connections walking a seeded cycle of sparse
/// requests: a hot set served from the bounded shard caches, interleaved
/// with fresh requests that miss, insert and evict. Every other job
/// demands replay verification.
pub fn run_mixed(args: &Args) -> Report {
    let catalog = workload::mixed_hot(args.seed);
    let frames = frames(&catalog);
    let order = workload::mixed_cycle(args.seed);
    let fresh = |entry: u64| workload::mixed_fresh(args.seed, entry);
    let threads = load_threads(2);
    let addr = server_addr(&args.workdir);
    let engine = engine_config()
        .with_cache_shards(1)
        .with_cache_capacity(MIXED_CACHE_CAPACITY);

    // Each set-up starts clean and caches the hot set, verified.
    let mut setup = Vec::new();
    let mut live: Option<(WireServer, Vec<WireClient>)> = None;
    for _ in 0..MIXED_SETUPS {
        if let Some((server, clients)) = live.take() {
            finish(server, clients);
        }
        let t = Instant::now();
        let server = start(&addr, engine.clone(), None);
        let mut clients: Vec<WireClient> = (0..threads).map(|_| connect(&server)).collect();
        for pair in &frames {
            must_call(&mut clients[0], &pair[1]);
        }
        setup.push(t.elapsed());
        live = Some((server, clients));
    }
    let (server, mut clients) = live.expect("at least one set-up ran");

    // The connections walk the same cycle half a cycle apart; each phase
    // and connection draws fresh requests from a stream of its own.
    let cycle = |phase: u64| {
        let order = &order;
        move |c: usize| -> Next {
            let order = order.clone();
            let offset = c * order.len() / 2;
            let stream = phase * 2 + c as u64;
            let seed = args.seed;
            Box::new(move |k| {
                let slot = order[(k as usize + offset) % order.len()];
                let verify = workload::mixed_verifies(c, k, slot);
                match slot {
                    MixedSlot::Hot(entry) => (entry as u64, verify, None),
                    MixedSlot::Fresh(support) => {
                        let entry = workload::mixed_fresh_entry(stream, k, support);
                        let request = workload::mixed_fresh(seed, entry).expect("a fresh entry");
                        let request = if verify {
                            with_replay(request)
                        } else {
                            request
                        };
                        let frame = RequestFrame {
                            tenant: Some(TENANT),
                            request,
                        };
                        (entry, verify, Some(frame))
                    }
                }
            })
        }
    };
    let mut phases = vec![phase(
        "untraced",
        &server,
        &mut clients,
        &frames,
        args.seconds,
        cycle(0),
    )];
    let mut probes = Probes::default();
    if args.trace {
        let mut traced = phase(
            "traced",
            &server,
            &mut clients,
            &frames,
            args.seconds,
            cycle(1),
        );
        probe_layers(
            &server,
            &mut clients[0],
            &catalog,
            &fresh,
            &mut traced,
            &mut probes,
        );
        phases.push(traced);
    }
    finish(server, clients);
    check(&catalog, &fresh, &mut phases);
    Report {
        load_threads: threads,
        setup,
        phases,
        probes,
    }
}
