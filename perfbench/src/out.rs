//! Raw-result plumbing: per-job records, the client-side ledger, a
//! minimal JSON writer, the circuit digest used by the correctness gate,
//! and the process's peak resident memory.

use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::time::Duration;

use mdq_circuit::{Circuit, Gate};
use mdq_engine::PrepareReport;

/// One completed job as the caller saw it, plus the timing fields the
/// service itself reported on it.
pub struct Job {
    /// Catalog index (socket workloads) or packed `(stream, index)` of the
    /// generated request (cold-batch).
    pub entry: u64,
    /// Caller-observed latency: submit (or `WireClient::call`) to result.
    pub latency_ns: u64,
    /// Completion time, in nanoseconds since the phase started.
    pub end_ns: u64,
    pub queue_wait_ns: u64,
    pub admission_wait_ns: u64,
    pub elapsed_ns: u64,
    pub from_cache: bool,
    /// `SynthesisReport::total_time` (build + approximation + synthesis).
    pub prepare_ns: u64,
    /// `SynthesisReport::time` (approximation + synthesis).
    pub synth_ns: u64,
    pub verify_ns: Option<u64>,
    pub replay_nodes: Option<u64>,
    pub fidelity: Option<f64>,
    pub verify_demanded: bool,
    pub ops: u64,
    pub digest: u64,
}

impl Job {
    /// Reads every field the benchmark needs off a served report. All
    /// knowledge of the report's timing fields lives here.
    pub fn from_report(
        entry: u64,
        latency: Duration,
        verify_demanded: bool,
        report: &PrepareReport,
    ) -> Self {
        let verification = report.verification.as_ref();
        Job {
            entry,
            latency_ns: nanos(latency),
            end_ns: 0,
            queue_wait_ns: nanos(report.queue_wait),
            admission_wait_ns: nanos(report.admission_wait),
            elapsed_ns: nanos(report.elapsed),
            from_cache: report.from_cache,
            prepare_ns: nanos(report.report.total_time),
            synth_ns: nanos(report.report.time),
            verify_ns: verification.map(|v| nanos(v.duration)),
            replay_nodes: verification.map(|v| v.replay_nodes as u64),
            fidelity: verification.map(|v| v.fidelity),
            verify_demanded,
            ops: report.report.operations as u64,
            digest: circuit_digest(&report.circuit),
        }
    }
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// What the load generator itself counted in one timed phase.
#[derive(Default)]
pub struct Ledger {
    pub submitted: u64,
    pub completed: u64,
    /// Jobs that ran and failed, plus transport failures.
    pub failed: u64,
    /// Admission or quota refusals.
    pub rejected: u64,
}

impl Ledger {
    pub fn add(&mut self, other: &Ledger) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.rejected += other.rejected;
    }

    pub fn json(&self) -> String {
        let mut o = Obj::new();
        o.int("submitted", self.submitted);
        o.int("completed", self.completed);
        o.int("failed", self.failed);
        o.int("rejected", self.rejected);
        o.finish()
    }
}

/// A 64-bit digest over the raw bits of every instruction, so a served
/// circuit can be checked against its reference without keeping either.
pub fn circuit_digest(circuit: &Circuit) -> u64 {
    let mut h = DefaultHasher::new();
    circuit.dims().as_slice().hash(&mut h);
    for ins in circuit.instructions() {
        ins.qudit.hash(&mut h);
        ins.controls.hash(&mut h);
        match &ins.gate {
            Gate::Givens { lo, hi, theta, phi } => {
                (0u8, lo, hi, theta.to_bits(), phi.to_bits()).hash(&mut h);
            }
            Gate::PhaseLevel { level, angle } => (1u8, level, angle.to_bits()).hash(&mut h),
            Gate::ZRotation { lo, hi, theta } => (2u8, lo, hi, theta.to_bits()).hash(&mut h),
            Gate::Shift { amount } => (3u8, amount).hash(&mut h),
            Gate::Fourier { inverse } => (4u8, inverse).hash(&mut h),
            Gate::Unitary(m) => (5u8, format!("{m:?}")).hash(&mut h),
        }
    }
    h.finish()
}

/// Peak resident set of this process in KiB (`VmHWM`), 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// A JSON object under construction. Keys are written as given; callers
/// pass plain identifiers.
pub struct Obj {
    out: String,
}

impl Obj {
    pub fn new() -> Self {
        Obj {
            out: String::from("{"),
        }
    }

    fn key(&mut self, key: &str) {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        let _ = write!(self.out, "\"{key}\":");
    }

    pub fn int(&mut self, key: &str, value: u64) {
        self.key(key);
        let _ = write!(self.out, "{value}");
    }

    pub fn num(&mut self, key: &str, value: f64) {
        self.key(key);
        push_f64(&mut self.out, value);
    }

    pub fn boolean(&mut self, key: &str, value: bool) {
        self.key(key);
        let _ = write!(self.out, "{value}");
    }

    pub fn text(&mut self, key: &str, value: &str) {
        self.key(key);
        let _ = write!(
            self.out,
            "\"{}\"",
            value.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }

    pub fn ints(&mut self, key: &str, values: impl IntoIterator<Item = u64>) {
        self.key(key);
        self.out.push('[');
        for (i, v) in values.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            let _ = write!(self.out, "{v}");
        }
        self.out.push(']');
    }

    pub fn nums(&mut self, key: &str, values: impl IntoIterator<Item = f64>) {
        self.key(key);
        self.out.push('[');
        for (i, v) in values.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            push_f64(&mut self.out, v);
        }
        self.out.push(']');
    }

    /// An already-serialized JSON value.
    pub fn raw(&mut self, key: &str, json: &str) {
        self.key(key);
        self.out.push_str(json);
    }

    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

fn push_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value:?}");
    } else {
        out.push_str("null");
    }
}

/// Serializes per-job records column by column. Optional fields are
/// written as `-1` (integers) or `null` (fidelity) where absent.
pub fn jobs_json(jobs: &[Job]) -> String {
    let opt = |v: Option<u64>| v.map_or(-1.0, |x| x as f64);
    let mut o = Obj::new();
    o.ints("entry", jobs.iter().map(|j| j.entry));
    o.ints("latency_ns", jobs.iter().map(|j| j.latency_ns));
    o.ints("end_ns", jobs.iter().map(|j| j.end_ns));
    o.ints("queue_wait_ns", jobs.iter().map(|j| j.queue_wait_ns));
    o.ints(
        "admission_wait_ns",
        jobs.iter().map(|j| j.admission_wait_ns),
    );
    o.ints("elapsed_ns", jobs.iter().map(|j| j.elapsed_ns));
    o.ints("from_cache", jobs.iter().map(|j| u64::from(j.from_cache)));
    o.ints("prepare_ns", jobs.iter().map(|j| j.prepare_ns));
    o.ints("synth_ns", jobs.iter().map(|j| j.synth_ns));
    o.nums("verify_ns", jobs.iter().map(|j| opt(j.verify_ns)));
    o.nums("replay_nodes", jobs.iter().map(|j| opt(j.replay_nodes)));
    o.ints("ops", jobs.iter().map(|j| j.ops));
    o.finish()
}
