//! Batch preparation through the `mdq-engine` worker pool.
//!
//! Submits a mixed batch of dense and sparse preparation requests with
//! `EngineService::submit_batch`, waits on the handles in request order,
//! shows that the parallel results are bit-identical to the one-shot
//! pipeline, and resubmits the batch to demonstrate the fingerprint-keyed
//! circuit cache.
//!
//! Run with: `cargo run --release --example batch_prepare`

use mdq::core::{prepare, PrepareOptions};
use mdq::engine::{EngineConfig, EngineService, PrepareReport, PrepareRequest};
use mdq::num::radix::Dims;
use mdq::sim::StateVector;
use mdq::states::{ghz, w_state};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let d3 = Dims::new(vec![3, 6, 2])?;
    let d4 = Dims::new(vec![9, 5, 6, 3])?;
    let large = Dims::new(vec![3, 4, 2, 5, 3, 2, 4, 3, 2, 3, 4, 2])?;

    // A batch mixing dense targets, a sparse target on a register far
    // beyond dense reach, and a duplicate of the first request.
    let batch = vec![
        PrepareRequest::dense(d3.clone(), ghz(&d3), PrepareOptions::exact()),
        PrepareRequest::dense(d3.clone(), w_state(&d3), PrepareOptions::approximated(0.98)),
        PrepareRequest::dense(d4.clone(), w_state(&d4), PrepareOptions::approximated(0.98)),
        PrepareRequest::sparse(
            large.clone(),
            mdq::states::sparse::ghz(&large),
            PrepareOptions::exact(),
        ),
        PrepareRequest::dense(d3.clone(), ghz(&d3), PrepareOptions::exact()),
    ];

    let service = EngineService::new(EngineConfig::default().with_workers(2));
    println!(
        "running {} requests on {} worker(s)…\n",
        batch.len(),
        service.config().workers.min(batch.len())
    );
    // Waiting on the handles in order yields the results in request order.
    let run = |batch: &[PrepareRequest]| -> Result<Vec<PrepareReport>, _> {
        service
            .submit_batch(batch.iter().cloned())
            .into_iter()
            .map(|handle| handle.wait())
            .collect()
    };
    let reports = run(&batch)?;

    for (index, report) in reports.iter().enumerate() {
        println!(
            "request {index}: {:>4} operations, {:>4} final edges, cached: {:<5} ({:?})",
            report.report.operations, report.report.nodes_final, report.from_cache, report.elapsed
        );
    }

    // The duplicate request produced a bit-identical circuit. (The cache
    // is probed at submission, and the duplicate is submitted right behind
    // its twin, usually before the twin's circuit is cached — so it
    // usually computes too. The warm resubmission below always hits.)
    let (first, duplicate) = (&reports[0], &reports[4]);
    assert_eq!(first.circuit, duplicate.circuit);

    // Batch results are bit-identical to the one-shot pipeline…
    let one_shot = prepare(&d3, &ghz(&d3), PrepareOptions::exact())?;
    assert_eq!(*first.circuit, one_shot.circuit);

    // …and the circuits really prepare their targets.
    let mut state = StateVector::ground(d3.clone());
    state.apply_circuit(&first.circuit);
    let fidelity = state.fidelity_with_amplitudes(&ghz(&d3));
    println!("\nGHZ circuit fidelity on the dense simulator: {fidelity:.12}");
    assert!(fidelity > 1.0 - 1e-9);

    // Resubmitting the whole batch is answered from the cache.
    let warm = run(&batch)?;
    assert!(warm.iter().all(|r| r.from_cache));

    let stats = service.stats();
    println!(
        "engine stats: {} jobs, {} cache hits / {} misses, {} circuits stored,",
        stats.jobs, stats.cache.hits, stats.cache.misses, stats.cache.entries
    );
    println!(
        "              {} weight-table lookups, {} insertions across worker arenas",
        stats.weight_lookups, stats.weight_insertions
    );
    service.shutdown();
    Ok(())
}
