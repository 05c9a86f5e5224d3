//! Per-layer probes of a traced run. Each probe times one call into a
//! layer's public API from the benchmark's own code, on the inputs the
//! traced phase actually served; nothing inside the program is
//! instrumented.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use mdq_core::{synthesize, Preparer};
use mdq_dd::{BuildOptions, StateDd};
use mdq_engine::{canonical_key, snapshot, CircuitCache, Frame, PrepareRequest, StatePayload};

use crate::out::{circuit_digest, Job, Obj};

/// Named sample lists, one value per probed call (or per job, where a
/// per-entry measurement is weighted by how often the phase served that
/// entry).
#[derive(Default)]
pub struct Probes {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Probes {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn json(&self) -> String {
        let mut o = Obj::new();
        for (name, values) in &self.samples {
            o.nums(name, values.iter().copied());
        }
        o.finish()
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median of `reps` timings of `f`.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut times: Vec<Duration> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Every `stride`-th element, so at most `limit` are probed.
pub fn sample<T>(items: &[T], limit: usize) -> impl Iterator<Item = &T> {
    let stride = items.len().div_ceil(limit.max(1)).max(1);
    items.iter().step_by(stride)
}

/// Codec cost of one catalog entry: `Frame::to_text` and `Frame::parse`
/// on the request frame the workload sent and the report frame it got.
pub struct Codec {
    pub request_encode_us: f64,
    pub request_decode_us: f64,
    pub report_encode_us: f64,
    pub report_decode_us: f64,
    pub request_bytes: usize,
    pub report_bytes: usize,
}

impl Codec {
    pub fn measure(request: &Frame, report: &Frame) -> Codec {
        const REPS: usize = 3;
        let request_text = request.to_text().expect("request frame serializes");
        let report_text = report.to_text().expect("report frame serializes");
        Codec {
            request_encode_us: us(timed(REPS, || request.to_text())),
            request_decode_us: us(timed(REPS, || Frame::parse(&request_text))),
            report_encode_us: us(timed(REPS, || report.to_text())),
            report_decode_us: us(timed(REPS, || Frame::parse(&report_text))),
            request_bytes: request_text.len(),
            report_bytes: report_text.len(),
        }
    }

    /// Records this entry's figures once for a job that served it.
    pub fn push_job(&self, probes: &mut Probes) {
        probes.push("wire.request_encode_us", self.request_encode_us);
        probes.push("wire.request_decode_us", self.request_decode_us);
        probes.push("wire.report_encode_us", self.report_encode_us);
        probes.push("wire.report_decode_us", self.report_decode_us);
        probes.push("wire.request_bytes", self.request_bytes as f64);
        probes.push("wire.report_bytes", self.report_bytes as f64);
        let envelopes = envelope_bytes(self.request_bytes) + envelope_bytes(self.report_bytes);
        probes.push(
            "transport.bytes_per_job",
            (self.request_bytes + self.report_bytes + envelopes) as f64,
        );
    }

    /// The four codec calls on the blocking path of one socket job.
    pub fn path_us(&self) -> f64 {
        self.request_encode_us
            + self.request_decode_us
            + self.report_encode_us
            + self.report_decode_us
    }
}

/// Bytes of the `mdqtx <len> <fnv-hex16>\n` envelope line around a
/// payload of `payload` bytes.
fn envelope_bytes(payload: usize) -> usize {
    "mdqtx ".len() + payload.to_string().len() + 1 + 16 + 1
}

/// `canonical_key` time for one request (median of three calls).
pub fn key_us(request: &PrepareRequest) -> f64 {
    us(timed(3, || canonical_key(request)))
}

/// The pipeline's layers called directly on one request the service
/// computed fresh: DD build, approximation, synthesis, and a `Preparer`
/// run for the weight-table counters. Returns whether the directly
/// synthesized circuit is raw-bit identical to the one the service
/// served (`served_digest`).
pub fn pipeline(
    probes: &mut Probes,
    preparer: &mut Preparer,
    request: &PrepareRequest,
    served_digest: u64,
) -> bool {
    let opts = request.options;
    let build = BuildOptions::default().tolerance(opts.tolerance);
    let t = Instant::now();
    let dd = match &request.payload {
        StatePayload::Dense(amplitudes) => StateDd::from_amplitudes(
            &request.dims,
            amplitudes,
            build.keep_zero_subtrees(opts.keep_zero_subtrees),
        ),
        StatePayload::Sparse(entries) => StateDd::from_sparse(&request.dims, entries, build),
    }
    .expect("benchmark inputs build");
    probes.push("dd.build_us", us(t.elapsed()));
    probes.push("dd.nodes", dd.node_count() as f64);
    let dd = match opts.fidelity_threshold {
        Some(threshold) => {
            let t = Instant::now();
            let approx = dd
                .approximate(1.0 - threshold)
                .expect("benchmark inputs approximate");
            probes.push("dd.approx_us", us(t.elapsed()));
            approx.dd
        }
        None => dd,
    };
    let dd = if opts.reduce && !dd.is_canonical() {
        dd.reduce()
    } else {
        dd
    };
    let t = Instant::now();
    let circuit = synthesize(&dd, opts.synthesis);
    probes.push("core.synth_direct_us", us(t.elapsed()));

    let before = preparer.weight_stats().unwrap_or_default();
    let result = match &request.payload {
        StatePayload::Dense(amplitudes) => {
            preparer.prepare_recycled(&request.dims, amplitudes, opts)
        }
        StatePayload::Sparse(entries) => {
            preparer.prepare_sparse_recycled(&request.dims, entries, opts)
        }
    };
    std::hint::black_box(result.expect("benchmark inputs prepare"));
    let after = preparer.weight_stats().unwrap_or_default();
    // A pipeline path may hand the preparer a fresh arena whose counters
    // restart at zero; the counters are then this job's alone.
    let (lookups, exact_hits) =
        if after.lookups >= before.lookups && after.exact_hits >= before.exact_hits {
            (
                after.lookups - before.lookups,
                after.exact_hits - before.exact_hits,
            )
        } else {
            (after.lookups, after.exact_hits)
        };
    probes.push("num.weight_lookups", lookups as f64);
    probes.push("num.exact_hits", exact_hits as f64);

    circuit_digest(&circuit) == served_digest
}

/// Runs the pipeline probe on a stride sample of the fresh (non-cache)
/// jobs, resolving each job's request with `request_of`. Returns the
/// number of jobs whose direct circuit differs from the served one.
pub fn fresh_pipelines(
    probes: &mut Probes,
    jobs: &[Job],
    limit: usize,
    request_of: impl Fn(&Job) -> PrepareRequest,
) -> u64 {
    let fresh: Vec<&Job> = jobs.iter().filter(|j| !j.from_cache).collect();
    let mut preparer = Preparer::new();
    let mut mismatches = 0;
    for job in sample(&fresh, limit) {
        if !pipeline(probes, &mut preparer, &request_of(job), job.digest) {
            mismatches += 1;
        }
    }
    mismatches
}

/// Loads every shard snapshot under `dir` into a fresh cache and saves it
/// back, timing `snapshot::load_into` and `snapshot::save` directly.
/// Totals over the shards are pushed once per repetition.
pub fn snapshots(probes: &mut Probes, dir: &Path, shards: usize) {
    for _ in 0..3 {
        let (mut load, mut save, mut bytes) = (Duration::ZERO, Duration::ZERO, 0u64);
        for shard in 0..shards {
            let path = dir.join(format!("shard-{shard}.mdqsnap"));
            let cache = CircuitCache::new(16);
            let t = Instant::now();
            snapshot::load_into(&cache, &path).expect("shard snapshot loads");
            load += t.elapsed();
            let copy = dir.join(format!("probe-{shard}.mdqsnap"));
            let t = Instant::now();
            let stats = snapshot::save(&cache, &copy).expect("snapshot saves");
            save += t.elapsed();
            bytes += stats.bytes;
            let _ = std::fs::remove_file(copy);
        }
        probes.push("engine.snapshot.load_ms", load.as_secs_f64() * 1e3);
        probes.push("engine.snapshot.save_ms", save.as_secs_f64() * 1e3);
        probes.push("engine.snapshot.bytes", bytes as f64);
    }
}
