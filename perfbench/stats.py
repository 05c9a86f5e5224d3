"""Statistics of the serving-stack benchmark.

Everything the benchmark concludes from raw samples lives here: the
percentile rule, medians and quartiles, the ledger reconciliation, the
end-to-end and per-layer metrics of one run, and the verdicts of compare
mode. `tests/test_stats.py` covers it.
"""

import math
import statistics

# A tail percentile is reported only with at least this many samples
# beyond it.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    """(Q1, median, Q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return (v, v, v)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def relative_spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else (0.0 if q3 == q1 else math.inf)


def nearest_rank(sorted_values, q):
    """The nearest-rank q-quantile of an ascending list."""
    if not sorted_values:
        raise InsufficientSamples("no samples")
    rank = min(max(math.ceil(q * len(sorted_values)), 1), len(sorted_values))
    return sorted_values[rank - 1]


def tail_percentile(values, q):
    """The nearest-rank q-quantile, refused unless at least `MIN_BEYOND`
    samples lie beyond it."""
    n = len(values)
    beyond = n - min(max(math.ceil(q * n), 1), n)
    if beyond < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q * 100:g} needs {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}"
        )
    return nearest_rank(sorted(values), q)


# ---------------------------------------------------------------- ledger


def reconcile(phase):
    """Checks the caller's ledger against the service's own counters over
    one phase. Returns `(check, caller_side, service_side)` for every
    check that disagrees; an empty list means everything reconciles."""
    client = phase["ledger"]
    stats = phase["stats"]
    engine = stats["engine"]
    checks = [
        (
            "client: completed + failed + rejected == submitted",
            client["completed"] + client["failed"] + client["rejected"],
            client["submitted"],
        ),
    ]
    router = stats.get("router")
    if router is None:
        checks += [
            ("engine jobs == client completed", client["completed"], engine["jobs"]),
            (
                "engine failures == client failed",
                client["failed"],
                engine["failures"] + engine["verification_failures"],
            ),
            ("engine rejected == client rejected", client["rejected"], engine["rejected"]),
        ]
    else:
        server = stats["server"]
        checks += [
            ("router submitted == client submitted", client["submitted"], router["submitted"]),
            ("router completed == client completed", client["completed"], router["completed"]),
            ("router failed == client failed", client["failed"], router["failed"]),
            ("router rejected == client rejected", client["rejected"], router["rejected"]),
            ("router dropped == 0", 0, router["dropped"]),
            ("engine jobs == router completed", router["completed"], engine["jobs"]),
            (
                "engine failures == router failed",
                router["failed"],
                engine["failures"] + engine["verification_failures"],
            ),
            ("server reports == client completed", client["completed"], server["reports"]),
            (
                "server error replies == client failed + rejected",
                client["failed"] + client["rejected"],
                server["error_replies"],
            ),
            ("server bad frames == 0", 0, server["bad_frames"]),
        ]
    return [c for c in checks if c[1] != c[2]]


def failures(phase):
    """Jobs that count against the run: failed, refused, wrong output, and
    every unit by which the ledgers disagree."""
    client = phase["ledger"]
    mismatch = sum(abs(a - b) for _, a, b in reconcile(phase))
    return client["failed"] + client["rejected"] + phase["wrong"] + mismatch


# ---------------------------------------------------------------- metrics


def _us(ns_values):
    return [v / 1e3 for v in ns_values]


def window_rate(end_ns, wall_s):
    """Completion rate, as the median over about one-second blocks of
    consecutive completions of each block's jobs per second. Medians over
    blocks keep a few seconds of host noise from moving a whole run; equal
    job counts per block keep the rate a continuous figure rather than a
    per-second count."""
    ends = sorted(end_ns)
    blocks = int(wall_s)
    if blocks < 2 or len(ends) < 2 * blocks:
        return len(ends) / wall_s
    per_block = len(ends) // blocks
    rates = []
    start = 0
    for b in range(blocks):
        stop = ends[(b + 1) * per_block - 1]
        rates.append(per_block * 1e9 / max(stop - start, 1))
        start = stop
    return median(rates)


def window_median(end_ns, wall_s, values):
    """Median over the phase's whole one-second windows (by completion
    time) of each window's median value; the trailing partial window is
    dropped."""
    buckets = [[] for _ in range(int(wall_s))]
    for t, v in zip(end_ns, values):
        k = int(t // 1e9)
        if k < len(buckets):
            buckets[k].append(v)
    per_window = [median(b) for b in buckets if b]
    return median(per_window) if per_window else median(values)


def latencies_us(phase):
    """Caller-observed latencies; a failed or refused job misses every
    latency limit, so it enters as infinity."""
    client = phase["ledger"]
    missing = client["failed"] + client["rejected"]
    return _us(phase["jobs"]["latency_ns"]) + [math.inf] * missing


def end_to_end(raw):
    """The end-to-end metrics of one run, from its untraced phase."""
    phase = raw["phases"][0]
    jobs = phase["jobs"]
    completed = len(jobs["latency_ns"])
    attempted = phase["ledger"]["submitted"]
    latencies = latencies_us(phase)
    return {
        "setup_s": median(raw["setup_s"]),
        "jobs_per_s": window_rate(jobs["end_ns"], phase["wall_s"]),
        "latency_p50_us": window_median(jobs["end_ns"], phase["wall_s"], _us(jobs["latency_ns"])),
        "latency_p99_us": tail_percentile(latencies, 0.99),
        "ok_frac": 1.0 - failures(phase) / attempted,
        "peak_rss_mb": phase["peak_rss_kb"] / 1024.0,
        "ops_per_job": sum(jobs["ops"]) / completed,
    }


def _fresh(jobs):
    """Indices of jobs the service computed rather than served from cache."""
    return [i for i, hit in enumerate(jobs["from_cache"]) if not hit]


def per_layer(raw):
    """The per-layer metrics of a traced run: its traced phase, the probes
    the binary ran after it, and the untraced phase for the tracing
    overhead."""
    untraced, traced = raw["phases"][0], raw["phases"][1]
    jobs = traced["jobs"]
    stats = traced["stats"]
    engine = stats["engine"]
    probes = raw["probes"]
    socket = "router" in stats

    def probe(name):
        return median(probes.get(name, []))

    latency = _us(jobs["latency_ns"])
    queue = _us(jobs["queue_wait_ns"])
    elapsed = _us(jobs["elapsed_ns"])
    fresh = _fresh(jobs)
    verified = [i for i in fresh if jobs["verify_ns"][i] >= 0]
    prepare = [jobs["prepare_ns"][i] / 1e3 for i in fresh]
    verify = [jobs["verify_ns"][i] / 1e3 for i in verified]
    service = [q + e for q, e in zip(queue, elapsed)]
    worker_self = [
        elapsed[i] - (0 if hit else jobs["prepare_ns"][i] / 1e3 + max(jobs["verify_ns"][i], 0) / 1e3)
        for i, hit in enumerate(jobs["from_cache"])
    ]
    if socket:
        router_submit = probe("router.submit_us")
        codec = probes.get("trace.codec_path_us", [0.0] * len(latency))
        residual = [l - c - router_submit - s for l, c, s in zip(latency, codec, service)]
        shard_jobs = engine["shard_jobs"]
        shard_share = max(shard_jobs) / sum(shard_jobs) if sum(shard_jobs) else 0.0
    else:
        residual = [l - s for l, s in zip(latency, service)]
        shard_share = 0.0
    probes_total = engine["cache_hits"] + engine["cache_misses"]
    lookups = sum(probes.get("num.weight_lookups", []))
    verified_prepare = sum(jobs["prepare_ns"][i] for i in verified)
    untraced_rate = len(untraced["jobs"]["latency_ns"]) / untraced["wall_s"]
    traced_rate = len(latency) / traced["wall_s"]
    return {
        "transport.call_us": median(latency) if socket else 0.0,
        "transport.self_us": median([l - s for l, s in zip(latency, service)]) if socket else 0.0,
        "transport.bytes_per_job": probe("transport.bytes_per_job"),
        "transport.retries": traced["retries"],
        "wire.request_encode_us": probe("wire.request_encode_us"),
        "wire.request_decode_us": probe("wire.request_decode_us"),
        "wire.report_encode_us": probe("wire.report_encode_us"),
        "wire.report_decode_us": probe("wire.report_decode_us"),
        "wire.request_bytes": probe("wire.request_bytes"),
        "wire.report_bytes": probe("wire.report_bytes"),
        "router.submit_us": probe("router.submit_us"),
        "router.shard_share_max": shard_share,
        "engine.queue_wait_p50_us": median(queue),
        "engine.queue_wait_p99_us": tail_percentile(queue, 0.99),
        "engine.admission_wait_us": median(_us(jobs["admission_wait_ns"])),
        "engine.worker_us": median(elapsed),
        "engine.worker_self_us": median(worker_self),
        "engine.high_watermark": engine["high_watermark"],
        "engine.cache.key_us": probe("engine.cache.key_us"),
        "engine.cache.hit_rate": engine["cache_hits"] / probes_total if probes_total else 0.0,
        "engine.cache.evictions": engine["cache_evictions"],
        "engine.snapshot.save_ms": probe("engine.snapshot.save_ms"),
        "engine.snapshot.load_ms": probe("engine.snapshot.load_ms"),
        "engine.snapshot.bytes": probe("engine.snapshot.bytes"),
        "core.prepare_us": median(prepare),
        "core.synth_us": median([jobs["synth_ns"][i] / 1e3 for i in fresh]),
        "core.synth_direct_us": probe("core.synth_direct_us"),
        "core.verify_us": median(verify),
        "core.verify_share": (
            sum(jobs["verify_ns"][i] for i in verified) / verified_prepare if verified_prepare else 0.0
        ),
        "dd.build_us": probe("dd.build_us"),
        "dd.approx_us": probe("dd.approx_us"),
        "dd.nodes": probe("dd.nodes"),
        "dd.replay_nodes": median([jobs["replay_nodes"][i] for i in verified]),
        "num.weight_lookups": probe("num.weight_lookups"),
        "num.exact_hit_rate": sum(probes.get("num.exact_hits", [])) / lookups if lookups else 0.0,
        "failed_frac": failures(traced) / traced["ledger"]["submitted"],
        "trace.residual_us": median(residual),
        "trace.overhead_frac": 1.0 - traced_rate / untraced_rate,
    }


# ---------------------------------------------------------------- compare


def verdict(parent, change, bound, better):
    """Verdict on one end-to-end metric of one workload, from the values
    of several runs on each side.

    `worse`/`better`: the change's median moved by more than `bound` (a
    share of the parent's median). `unresolved`: the run-to-run spread of
    either side is wider than the bound, so no such move can be told from
    noise — unless every change run reads better than every parent run.
    `unchanged` otherwise."""
    sign = 1.0 if better == "higher" else -1.0
    if all(sign * c > sign * p for c in change for p in parent):
        return "better"
    if max(relative_spread(parent), relative_spread(change)) > bound:
        return "unresolved"
    p, c = median(parent), median(change)
    gain = sign * (c - p) / abs(p) if p else 0.0
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "unchanged"


def pair_wins(pairs, better):
    """How many (parent, change) pairs the change wins; ties count for
    neither side."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(1 for p, c in pairs if sign * c > sign * p)


def claim_met(pairs, better):
    """A claimed gain holds when the change wins at least nine tenths of
    all pairs and the medians differ by more than the distance between the
    parent's own quartiles."""
    if not pairs:
        return False
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    q1, _, q3 = quartiles(parent)
    sign = 1.0 if better == "higher" else -1.0
    moved = sign * (median(change) - median(parent))
    return pair_wins(pairs, better) * 10 >= 9 * len(pairs) and moved > q3 - q1
