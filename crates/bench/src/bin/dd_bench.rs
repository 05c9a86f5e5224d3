//! Build/apply wall-time and peak-node benchmark for the hash-consed DD
//! arena, emitting a `table1`-style JSON file (`BENCH_dd.json`) so future
//! changes have a perf trajectory to compare against.
//!
//! Run with: `cargo run -p mdq-bench --release --bin dd_bench`
//!
//! Per workload (GHZ, W, random-sparse on a 20-qudit register, plus the
//! Table-1 `[9,5,6,3]` register) the emitter records:
//!
//! * `build_ns` — mean wall time of `StateDd::from_sparse`;
//! * `apply_ns` — mean wall time of replaying the synthesized preparation
//!   circuit on `|0…0⟩` through one shared arena (`apply_circuit`);
//! * `peak_nodes` — the maximum arena size while applying instruction by
//!   instruction without compaction (the true transient footprint);
//! * `final_nodes` / `operations` — diagram and circuit sizes;
//! * `distinct_weights` / `weight_lookups` / `weight_insertions` — the
//!   weight-table pressure of one build (`ComplexTable` statistics).
//!
//! Flags:
//! * `--smoke`    — one iteration per workload (CI keep-alive mode);
//! * `--runs N`   — iterations per workload (default 20);
//! * `--out PATH` — output path (default `BENCH_dd.json`).

use std::fmt::Write as _;
use std::time::Instant;

use mdq_bench::{dims4, flag_value, sparse_bench_dims, sparse_workloads, Mean};
use mdq_core::{prepare_sparse, PrepareOptions};
use mdq_dd::{BuildOptions, StateDd};
use mdq_num::radix::Dims;

struct WorkloadResult {
    name: String,
    dims: String,
    support: usize,
    build_ns: f64,
    apply_ns: f64,
    peak_nodes: usize,
    final_nodes: usize,
    operations: usize,
    /// Weight-table pressure of one build: distinct canonical weights,
    /// total lookups, and insertions (see `ComplexTableStats`).
    distinct_weights: usize,
    weight_lookups: u64,
    weight_insertions: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let runs: u64 = if smoke {
        1
    } else {
        flag_value(&args, "--runs")
            .map(|v| v.parse().expect("--runs takes an integer"))
            .unwrap_or(20)
    };
    let out_path = flag_value(&args, "--out").unwrap_or("BENCH_dd.json");

    println!("DD build/apply benchmark ({runs} runs per workload)\n");
    println!(
        "{:<22} {:>8} {:>12} {:>12} {:>10} {:>11} {:>6} {:>8} {:>10}",
        "workload",
        "support",
        "build[ns]",
        "apply[ns]",
        "peak",
        "final",
        "ops",
        "weights",
        "wlookups"
    );

    let mut results = Vec::new();
    for dims in [sparse_bench_dims(), dims4()] {
        for (name, entries) in sparse_workloads(&dims) {
            let r = run_workload(name, &dims, &entries, runs);
            println!(
                "{:<22} {:>8} {:>12.0} {:>12.0} {:>10} {:>11} {:>6} {:>8} {:>10}",
                format!("{}/{}", r.name, dims.len()),
                r.support,
                r.build_ns,
                r.apply_ns,
                r.peak_nodes,
                r.final_nodes,
                r.operations,
                r.distinct_weights,
                r.weight_lookups
            );
            results.push(r);
        }
    }

    let json = emit_json(runs, &results);
    std::fs::write(out_path, json).expect("writing benchmark JSON");
    println!("\nJSON written to {out_path}");
}

fn run_workload(
    name: &str,
    dims: &Dims,
    entries: &[(Vec<usize>, mdq_num::Complex)],
    runs: u64,
) -> WorkloadResult {
    let mut build_ns = Mean::default();
    let mut apply_ns = Mean::default();

    // Reference build + synthesized circuit (outside the timed loops).
    let dd = StateDd::from_sparse(dims, entries, BuildOptions::default()).expect("diagram builds");
    let result = prepare_sparse(dims, entries, PrepareOptions::exact()).expect("pipeline runs");
    let circuit = result.circuit;

    for _ in 0..runs {
        let t = Instant::now();
        let built =
            StateDd::from_sparse(dims, entries, BuildOptions::default()).expect("diagram builds");
        build_ns.add(t.elapsed().as_nanos() as f64);
        std::hint::black_box(built);

        let ground = StateDd::ground(dims);
        let t = Instant::now();
        let applied = ground.apply_circuit(&circuit).expect("circuit applies");
        apply_ns.add(t.elapsed().as_nanos() as f64);
        std::hint::black_box(applied);
    }

    // Peak transient footprint: apply without compaction, watching the
    // arena grow instruction by instruction.
    let mut state = StateDd::ground(dims);
    let mut peak = state.arena().len();
    for instr in circuit.iter() {
        state.apply_mut(instr).expect("instruction applies");
        peak = peak.max(state.arena().len());
    }

    let weights = dd.arena().weight_stats();
    WorkloadResult {
        name: name.to_owned(),
        dims: dims.to_string(),
        support: entries.len(),
        build_ns: build_ns.value(),
        apply_ns: apply_ns.value(),
        peak_nodes: peak,
        final_nodes: dd.node_count(),
        operations: circuit.len(),
        distinct_weights: weights.len,
        weight_lookups: weights.lookups,
        weight_insertions: weights.insertions,
    }
}

fn emit_json(runs: u64, results: &[WorkloadResult]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"mdq-dd-bench-v1\",");
    let _ = writeln!(out, "  \"runs\": {runs},");
    out.push_str("  \"workloads\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"dims\": \"{}\", \"support\": {}, \
             \"build_ns\": {:.0}, \"apply_ns\": {:.0}, \"peak_nodes\": {}, \
             \"final_nodes\": {}, \"operations\": {}, \"distinct_weights\": {}, \
             \"weight_lookups\": {}, \"weight_insertions\": {}}}{comma}",
            r.name,
            r.dims,
            r.support,
            r.build_ns,
            r.apply_ns,
            r.peak_nodes,
            r.final_nodes,
            r.operations,
            r.distinct_weights,
            r.weight_lookups,
            r.weight_insertions
        );
    }
    out.push_str("  ]\n}\n");
    out
}
