//! Warm-starting the `EngineService` from a cache snapshot.
//!
//! A first service "process" serves a small workload cold (every request
//! pays the synthesis pipeline), then snapshots its prepared-circuit cache
//! to disk on graceful shutdown. A "restarted" service loads the snapshot
//! at construction and serves the identical workload entirely from the
//! cache — same circuits, bit for bit, without running the pipeline
//! again.
//!
//! Run with: `cargo run --release --example warm_restart`

use mdq::core::PrepareOptions;
use mdq::engine::{EngineConfig, EngineService, PrepareRequest};
use mdq::num::radix::Dims;
use mdq::states::{ghz, w_state};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::temp_dir().join("mdq_warm_restart_example.mdqsnap");
    let _ = std::fs::remove_file(&path);

    let d1 = Dims::new(vec![3, 6, 2])?;
    let d2 = Dims::new(vec![4, 3, 5])?;
    let workload = [
        PrepareRequest::dense(d1.clone(), ghz(&d1), PrepareOptions::exact()),
        PrepareRequest::dense(d1.clone(), w_state(&d1), PrepareOptions::approximated(0.98)),
        PrepareRequest::dense(d2.clone(), ghz(&d2), PrepareOptions::exact()),
        PrepareRequest::dense(d2.clone(), w_state(&d2), PrepareOptions::exact()),
    ];

    // ── Process 1: cold serving, snapshot on graceful shutdown ─────────
    let first = EngineService::new(
        EngineConfig::default()
            .with_workers(2)
            .with_warm_start(&path), // missing file ⇒ silent cold start
    );
    let cold: Vec<_> = first
        .submit_batch(workload.iter().cloned())
        .into_iter()
        .map(|handle| handle.wait())
        .collect::<Result<_, _>>()?;
    let stats = first.cache().stats();
    println!(
        "process 1 (cold): {} jobs served, cache {} hits / {} misses, {} entries",
        cold.len(),
        stats.hits,
        stats.misses,
        stats.entries
    );
    first.shutdown(); // drains, joins, and writes the snapshot
    println!(
        "snapshot written: {} ({} bytes)\n",
        path.display(),
        std::fs::metadata(&path)?.len()
    );

    // ── Process 2: restart from the snapshot ───────────────────────────
    let second = EngineService::new(
        EngineConfig::default()
            .with_workers(2)
            .with_warm_start(&path),
    );
    if let Some(Ok(load)) = second.warm_start_load() {
        println!(
            "process 2: loaded {} entr{} in {:?} ({} skipped)",
            load.loaded,
            if load.loaded == 1 { "y" } else { "ies" },
            load.duration,
            load.skipped
        );
    }
    let warm: Vec<_> = second
        .submit_batch(workload.iter().cloned())
        .into_iter()
        .map(|handle| handle.wait())
        .collect::<Result<_, _>>()?;
    let stats = second.cache().stats();
    println!(
        "process 2 (warm): cache {} hits / {} misses — hit rate {:.0}%",
        stats.hits,
        stats.misses,
        100.0 * stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64
    );
    let identical = cold
        .iter()
        .zip(&warm)
        .all(|(c, w)| c.circuit == w.circuit && w.from_cache);
    println!("snapshot-served circuits bit-identical to the cold run: {identical}");
    assert!(identical);
    second.shutdown();
    std::fs::remove_file(&path)?;
    Ok(())
}
