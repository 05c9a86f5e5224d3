//! State-preparation synthesis for mixed-dimensional qudit systems from
//! edge-weighted decision diagrams.
//!
//! This crate implements the primary contribution of *"Mixed-Dimensional
//! Qudit State Preparation Using Edge-Weighted Decision Diagrams"* (Mato,
//! Hillmich, Wille — DAC 2024):
//!
//! * [`synthesize`] — the DD-traversal synthesis of §4.2. Every node of the
//!   diagram yields `d − 1` multi-controlled Givens rotations (pairs of
//!   adjacent successor edges, processed from the back) plus one two-level
//!   phase rotation, controlled on the `(qudit, level)` pairs along the path
//!   from the root. The algorithm is linear in the number of diagram nodes.
//! * [`prepare`] — the full three-step pipeline of the paper's Figure 2:
//!   state vector → decision diagram → (optional) approximation →
//!   synthesized circuit, with a [`SynthesisReport`] carrying exactly the
//!   metrics of Table 1 (Nodes, DistinctC, Operations, #Controls, Time).
//! * [`Preparer`] — the reusable pipeline object behind the engine service:
//!   it owns per-worker scratch (a resettable arena and compute cache)
//!   recycled across jobs, with [`prepare`] and friends as thin one-shot
//!   wrappers producing bit-identical circuits.
//! * [`baseline`] — a dense recursive disentangler that never builds a
//!   diagram, used to quantify what the DD representation buys.
//! * [`verify`] — synthesize-then-simulate helpers returning the reached
//!   fidelity.
//!
//! # Examples
//!
//! ```
//! use mdq_core::{prepare, PrepareOptions};
//! use mdq_num::radix::Dims;
//! use mdq_sim::StateVector;
//! use mdq_states::ghz;
//!
//! // The two-qutrit GHZ state of the paper's Figure 1.
//! let dims = Dims::new(vec![3, 3])?;
//! let target = ghz(&dims);
//! let result = prepare(&dims, &target, PrepareOptions::exact())?;
//!
//! let mut state = StateVector::ground(dims);
//! state.apply_circuit(&result.circuit);
//! assert!(state.fidelity_with_amplitudes(&target) > 1.0 - 1e-9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
mod pipeline;
mod synth;
pub mod verify;

pub use pipeline::{
    prepare, prepare_from_dd, prepare_sparse, PreparationResult, PrepareError, PrepareOptions,
    Preparer, SynthesisReport, VerificationPolicy, VerificationReport,
};
pub use synth::{synthesize, Direction, ProductRule, SynthesisOptions};

// Compile-time Send/Sync audit: preparers, options and results cross worker
// threads in the batch-preparation engine (`mdq-engine`).
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<Preparer>();
    assert_send_sync::<PrepareOptions>();
    assert_send_sync::<PreparationResult>();
    assert_send_sync::<SynthesisReport>();
    assert_send_sync::<PrepareError>();
    assert_send_sync::<VerificationPolicy>();
    assert_send_sync::<VerificationReport>();
};
