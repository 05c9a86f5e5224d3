//! Load generator of the serving-stack benchmark.
//!
//! `perfbench/run.py` builds and drives this binary:
//!
//! ```text
//! perfbench --workload <warm-socket|cold-batch|mixed-socket> --seed N
//!           --seconds S --trace <0|1> --workdir DIR --out FILE
//! ```
//!
//! It sets the stack up, runs a closed-loop timed phase, checks every
//! served circuit against `PrepareRequest::prepare_sequential`, and writes
//! raw samples and service counters to `--out` as JSON. All statistics
//! (medians, percentiles, ledger reconciliation) are computed by
//! `run.py`. With `--trace 1` a second, traced phase follows the untraced
//! one on continuing inputs, and the per-layer probes run afterwards.

mod batch;
mod out;
mod probe;
mod socket;
mod workload;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use out::{jobs_json, Job, Ledger, Obj};

/// Completed jobs a phase needs so that its p99 has at least ten samples
/// beyond it (nearest-rank: `n − ⌈0.99·n⌉ ≥ 10`).
const MIN_JOBS: u64 = 1000;

/// A phase that has not reached `MIN_JOBS` by this multiple of
/// `--seconds` stops anyway; `run.py` then refuses the run.
const MAX_STRETCH: f64 = 4.0;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub workdir: PathBuf,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<f64, String> {
        value(flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: value("--workload")?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: number("--seconds")?,
        trace: value("--trace")? == "1",
        workdir: PathBuf::from(value("--workdir")?),
        out: PathBuf::from(value("--out")?),
    })
}

/// Cores visible to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The load threads (or connections) a workload may use: what it asks
/// for, never more than `nproc`.
pub fn load_threads(wanted: usize) -> usize {
    wanted.min(nproc()).max(1)
}

/// Decides when a closed-loop phase stops: after `--seconds`, once at
/// least `MIN_JOBS` jobs have completed.
pub struct Clock {
    start: Instant,
    seconds: f64,
    done: AtomicU64,
}

impl Clock {
    pub fn start(seconds: f64) -> Self {
        Clock {
            start: Instant::now(),
            seconds,
            done: AtomicU64::new(0),
        }
    }

    pub fn keep_going(&self) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        if elapsed >= self.seconds * MAX_STRETCH {
            return false;
        }
        elapsed < self.seconds || self.done.load(Ordering::Relaxed) < MIN_JOBS
    }

    /// Counts one completed job and returns its completion time, in
    /// nanoseconds since the phase started.
    pub fn completed(&self) -> u64 {
        self.done.fetch_add(1, Ordering::Relaxed);
        out::nanos(self.start.elapsed())
    }

    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// One timed phase: what the caller counted and saw, and the service's
/// own counters over the same interval.
pub struct Phase {
    pub name: &'static str,
    pub wall: Duration,
    pub ledger: Ledger,
    pub jobs: Vec<Job>,
    /// Service counters over the phase, already serialized.
    pub stats: String,
    /// Served circuits that differ from their reference, or verified jobs
    /// below the fidelity floor.
    pub wrong: u64,
    pub retries: u64,
    pub peak_rss_kb: u64,
}

impl Phase {
    fn json(&self) -> String {
        let mut o = Obj::new();
        o.text("name", self.name);
        o.num("wall_s", self.wall.as_secs_f64());
        o.raw("ledger", &self.ledger.json());
        o.raw("stats", &self.stats);
        o.int("wrong", self.wrong);
        o.int("retries", self.retries);
        o.int("peak_rss_kb", self.peak_rss_kb);
        o.raw("jobs", &jobs_json(&self.jobs));
        o.finish()
    }
}

/// Everything one invocation measured.
pub struct Report {
    pub load_threads: usize,
    pub setup: Vec<Duration>,
    pub phases: Vec<Phase>,
    pub probes: probe::Probes,
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&args.workdir).expect("work directory is writable");
    let report = match args.workload.as_str() {
        "warm-socket" => socket::run_warm(&args),
        "mixed-socket" => socket::run_mixed(&args),
        "cold-batch" => batch::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let mut o = Obj::new();
    o.text("workload", &args.workload);
    o.int("seed", args.seed);
    o.boolean("traced", args.trace);
    o.int("nproc", nproc() as u64);
    o.int("load_threads", report.load_threads as u64);
    o.nums("setup_s", report.setup.iter().map(Duration::as_secs_f64));
    let phases: Vec<String> = report.phases.iter().map(Phase::json).collect();
    o.raw("phases", &format!("[{}]", phases.join(",")));
    o.raw("probes", &report.probes.json());
    std::fs::write(&args.out, o.finish()).expect("result file is writable");
}
