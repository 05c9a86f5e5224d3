//! Property tests of the `mdqwire` protocol: random requests and reports
//! — raw-bit random amplitudes (NaN payloads, infinities, subnormals,
//! signed zeros), every option combination including the verification
//! policy — must round-trip bit-exactly through the text form, and
//! damaged frames (truncated at any boundary, bytes flipped anywhere)
//! must yield typed [`WireError`]s, never panics.

use std::sync::Arc;
use std::time::Duration;

use mdq::core::{PrepareOptions, VerificationPolicy, VerificationReport};
use mdq::engine::{
    ErrorFrame, Frame, PrepareReport, PrepareRequest, Priority, ReportFrame, RequestFrame,
    StatePayload, WireError,
};
use mdq::num::radix::Dims;
use mdq::num::Complex;
use proptest::prelude::*;

/// Arbitrary `f64` bit patterns: uniform `u64`s reinterpreted, so NaN
/// payloads, ±inf, subnormals and signed zeros all occur.
fn raw_f64() -> impl Strategy<Value = f64> {
    (0u64..u64::MAX).prop_map(f64::from_bits)
}

fn arb_dims() -> impl Strategy<Value = Dims> {
    proptest::collection::vec(2usize..5, 1..4).prop_map(|v| Dims::new(v).unwrap())
}

/// Every option field randomized. The tolerance stays within its type's
/// finite-and-non-negative invariant (including `-0.0`, via `0.0` whose
/// sign flips below); thresholds and verification floors are raw bits —
/// the wire carries requests as given, valid or not.
fn arb_options() -> impl Strategy<Value = PrepareOptions> {
    (
        (0u8..2, raw_f64()),      // fidelity threshold: none / raw bits
        (0.0..1.0f64, 0u8..2),    // tolerance magnitude, negate-zero flag
        (0u8..3, 0u8..2, 0u8..2), // product rule, skip identities, direction
        (0u8..2, 0u8..2),         // reduce, keep_zero_subtrees
        (0u8..2, raw_f64()),      // verification: off / replay at raw bits
    )
        .prop_map(
            |((has_fth, fth), (tol, neg_zero), (pr, skip, dir), (red, kzs), (has_ver, ver))| {
                let mut options = PrepareOptions::exact();
                options.fidelity_threshold = (has_fth == 1).then_some(fth);
                let tol = if neg_zero == 1 && tol == 0.0 {
                    -0.0
                } else {
                    tol
                };
                options.tolerance = mdq::num::Tolerance::new(tol);
                options.synthesis.product_rule = match pr {
                    0 => mdq::core::ProductRule::Off,
                    1 => mdq::core::ProductRule::SharedChild,
                    _ => mdq::core::ProductRule::SharedChildOrSingle,
                };
                options.synthesis.skip_identities = skip == 1;
                options.synthesis.direction = match dir {
                    0 => mdq::core::Direction::Prepare,
                    _ => mdq::core::Direction::Disentangle,
                };
                options.reduce = red == 1;
                options.keep_zero_subtrees = kzs == 1;
                options.verification = if has_ver == 1 {
                    VerificationPolicy::Replay { min_fidelity: ver }
                } else {
                    VerificationPolicy::Off
                };
                options
            },
        )
}

fn arb_payload() -> impl Strategy<Value = StatePayload> {
    let dense = proptest::collection::vec((raw_f64(), raw_f64()), 0..9).prop_map(|amps| {
        StatePayload::Dense(
            amps.into_iter()
                .map(|(re, im)| Complex::new(re, im))
                .collect(),
        )
    });
    let sparse = proptest::collection::vec(
        (
            proptest::collection::vec(0usize..6, 0..4),
            raw_f64(),
            raw_f64(),
        ),
        0..6,
    )
    .prop_map(|entries| {
        StatePayload::Sparse(
            entries
                .into_iter()
                .map(|(digits, re, im)| (digits, Complex::new(re, im)))
                .collect(),
        )
    });
    (0u8..2, dense, sparse).prop_map(|(pick, dense, sparse)| match pick {
        0 => dense,
        _ => sparse,
    })
}

fn arb_request_frame() -> impl Strategy<Value = RequestFrame> {
    (
        arb_dims(),
        arb_payload(),
        arb_options(),
        0u8..3,
        (0u8..2, 0u64..u64::MAX),
    )
        .prop_map(
            |(dims, payload, options, priority, (has_tenant, tenant))| RequestFrame {
                tenant: (has_tenant == 1).then_some(tenant),
                request: PrepareRequest {
                    dims,
                    payload,
                    options,
                    priority: match priority {
                        0 => Priority::Low,
                        1 => Priority::Normal,
                        _ => Priority::High,
                    },
                },
            },
        )
}

fn assert_amp_bits(a: &Complex, b: &Complex) {
    assert_eq!(a.re.to_bits(), b.re.to_bits());
    assert_eq!(a.im.to_bits(), b.im.to_bits());
}

/// Bit-exact request equality — plain `==` would treat `-0.0 == 0.0` and
/// `NaN != NaN`, neither of which is the wire contract.
fn assert_request_bits(a: &PrepareRequest, b: &PrepareRequest) {
    assert_eq!(a.dims, b.dims);
    assert_eq!(a.priority, b.priority);
    assert_eq!(
        a.options.fidelity_threshold.map(f64::to_bits),
        b.options.fidelity_threshold.map(f64::to_bits)
    );
    assert_eq!(
        a.options.tolerance.value().to_bits(),
        b.options.tolerance.value().to_bits()
    );
    assert_eq!(a.options.synthesis, b.options.synthesis);
    assert_eq!(a.options.reduce, b.options.reduce);
    assert_eq!(a.options.keep_zero_subtrees, b.options.keep_zero_subtrees);
    match (a.options.verification, b.options.verification) {
        (VerificationPolicy::Off, VerificationPolicy::Off) => {}
        (
            VerificationPolicy::Replay { min_fidelity: x },
            VerificationPolicy::Replay { min_fidelity: y },
        ) => assert_eq!(x.to_bits(), y.to_bits()),
        (x, y) => panic!("verification policies differ: {x:?} vs {y:?}"),
    }
    match (&a.payload, &b.payload) {
        (StatePayload::Dense(x), StatePayload::Dense(y)) => {
            assert_eq!(x.len(), y.len());
            for (p, q) in x.iter().zip(y) {
                assert_amp_bits(p, q);
            }
        }
        (StatePayload::Sparse(x), StatePayload::Sparse(y)) => {
            assert_eq!(x.len(), y.len());
            for ((dx, p), (dy, q)) in x.iter().zip(y) {
                assert_eq!(dx, dy);
                assert_amp_bits(p, q);
            }
        }
        (x, y) => panic!("payload kinds differ: {x:?} vs {y:?}"),
    }
}

/// A small *valid* request whose preparation succeeds, for report frames.
fn arb_valid_state() -> impl Strategy<Value = (Dims, Vec<Complex>)> {
    proptest::collection::vec(2usize..4, 1..3).prop_flat_map(|dims| {
        let dims = Dims::new(dims).unwrap();
        let n = dims.space_size();
        (
            Just(dims),
            proptest::collection::vec((-1.0..1.0f64, -1.0..1.0f64), n..=n),
        )
            .prop_filter_map("state must have nonzero norm", |(dims, parts)| {
                let v: Vec<Complex> = parts
                    .into_iter()
                    .map(|(re, im)| Complex::new(re, im))
                    .collect();
                let norm = mdq::num::norm(&v);
                (norm > 1e-3).then(|| (dims, v.iter().map(|a| *a / norm).collect::<Vec<Complex>>()))
            })
    })
}

fn arb_duration() -> impl Strategy<Value = Duration> {
    (0u64..1000, 0u32..1_000_000_000).prop_map(|(secs, nanos)| Duration::new(secs, nanos))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// text → Frame → text is the identity on bytes, and the parsed
    /// request is bit-identical to the one serialized — for random
    /// registers, payloads (raw-bit amplitudes), every option
    /// combination, and any tenant tag.
    #[test]
    fn prop_request_frames_round_trip_bit_exactly(frame in arb_request_frame()) {
        let text = Frame::Request(frame.clone()).to_text().unwrap();
        let parsed = Frame::parse(&text).expect("serialized frame must parse");
        prop_assert_eq!(parsed.to_text().unwrap(), text.clone());
        let Frame::Request(back) = parsed else {
            panic!("frame kind must survive");
        };
        prop_assert_eq!(back.tenant, frame.tenant);
        assert_request_bits(&back.request, &frame.request);
    }

    /// Truncating a request frame at any line boundary, or anywhere
    /// inside a line, yields a typed error — never a panic, never a
    /// silent partial parse.
    #[test]
    fn prop_truncated_frames_fail_typed(frame in arb_request_frame(), cut in 0.0..1.0f64) {
        let text = Frame::Request(frame).to_text().unwrap();
        // Every whole-line prefix.
        let lines: Vec<&str> = text.lines().collect();
        for keep in 0..lines.len() {
            let prefix = lines[..keep].join("\n");
            prop_assert!(Frame::parse(&prefix).is_err());
        }
        // An arbitrary mid-byte cut (frames are pure ASCII).
        let at = ((text.len() - 1) as f64 * cut) as usize;
        prop_assert!(Frame::parse(&text[..at]).is_err());
    }

    /// Strict framing, property form: for any frame, the only byte
    /// sequence that parses is the exact serializer output — CRLF
    /// re-encodings, a stripped terminator newline, and any trailing
    /// garbage after `end\n` (including a second glued-on frame) are
    /// typed errors. This is what lets a stream reader cut frames at
    /// `end\n` and trust the parser to agree with the cut.
    #[test]
    fn prop_noncanonical_encodings_fail_typed(
        frame in arb_request_frame(),
        garbage in proptest::collection::vec(0u8..95, 1..20),
    ) {
        let text = Frame::Request(frame).to_text().unwrap();
        prop_assert_eq!(
            Frame::parse(&text).expect("canonical bytes parse").to_text().unwrap(),
            text.clone()
        );
        let garbage: String = garbage.into_iter().map(|c| (b' ' + c) as char).collect();
        let crlf = Frame::parse(&text.replace('\n', "\r\n"));
        prop_assert!(crlf.is_err(), "CRLF encoding must fail: {crlf:?}");
        let unterminated = Frame::parse(text.trim_end());
        prop_assert!(unterminated.is_err(), "missing newline must fail");
        let glued = format!("{text}{garbage}");
        prop_assert!(Frame::parse(&glued).is_err(), "trailing garbage must fail");
        let glued_line = format!("{text}{garbage}\n");
        prop_assert!(Frame::parse(&glued_line).is_err(), "garbage line must fail");
        let doubled = format!("{text}{text}");
        prop_assert!(Frame::parse(&doubled).is_err(), "second frame must fail");
    }

    /// Flipping any single byte never panics the parser: it either
    /// reports a typed error or parses some frame (e.g. a changed hex
    /// digit is a different, equally well-formed amplitude).
    #[test]
    fn prop_corrupted_frames_never_panic(
        frame in arb_request_frame(),
        at in 0.0..1.0f64,
        replacement in 0u8..96,
    ) {
        let text = Frame::Request(frame).to_text().unwrap();
        let at = ((text.len() - 1) as f64 * at) as usize;
        let mut bytes = text.into_bytes();
        bytes[at] = b' ' + replacement; // any printable ASCII
        let mutated = String::from_utf8(bytes).unwrap();
        match Frame::parse(&mutated) {
            Err(_) => {}
            Ok(parsed) => {
                // A still-valid mutation parses to a frame that can be
                // re-serialized (hex case aside, usually to the same
                // bytes); what matters here is: no panic either way.
                let _ = parsed.to_text();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Report frames round-trip bit-exactly: the synthesized circuit,
    /// every synthesis gauge (with raw-bit random floats forced in),
    /// verification report, cache flag, and all three timings.
    #[test]
    fn prop_report_frames_round_trip_bit_exactly(
        (dims, state) in arb_valid_state(),
        (cmed, cmean, pmass, fbound) in (raw_f64(), raw_f64(), 0.0..1.0f64, raw_f64()),
        (elapsed, queue, admission, verify_t) in
            (arb_duration(), arb_duration(), arb_duration(), arb_duration()),
        (has_verify, fidelity, from_cache) in (0u8..2, raw_f64(), 0u8..2),
    ) {
        let request = PrepareRequest::dense(dims.clone(), state, PrepareOptions::exact());
        let prepared = request.prepare_sequential().unwrap();
        // Force raw-bit floats into the gauges: the wire must carry any
        // bit pattern, not just ones the pipeline happens to produce.
        let mut synth = prepared.report;
        synth.controls_median = cmed;
        synth.controls_mean = cmean;
        synth.pruned_mass = pmass;
        synth.fidelity_bound = fbound;
        let report = PrepareReport {
            circuit: Arc::new(prepared.circuit),
            report: synth,
            verification: (has_verify == 1).then_some(VerificationReport {
                fidelity,
                replay_nodes: 17,
                duration: verify_t,
            }),
            from_cache: from_cache == 1,
            elapsed,
            queue_wait: queue,
            admission_wait: admission,
        };

        let frame = Frame::Report(ReportFrame { dims: dims.clone(), report: report.clone() });
        let text = frame.to_text().unwrap();
        let parsed = Frame::parse(&text).expect("serialized report must parse");
        prop_assert_eq!(parsed.to_text().unwrap(), text);
        let Frame::Report(back) = parsed else { panic!("frame kind must survive") };
        prop_assert_eq!(back.dims, dims);
        prop_assert_eq!(&back.report.circuit, &report.circuit);
        prop_assert_eq!(back.report.from_cache, report.from_cache);
        prop_assert_eq!(back.report.elapsed, report.elapsed);
        prop_assert_eq!(back.report.queue_wait, report.queue_wait);
        prop_assert_eq!(back.report.admission_wait, report.admission_wait);
        prop_assert_eq!(
            back.report.report.controls_median.to_bits(), cmed.to_bits());
        prop_assert_eq!(back.report.report.controls_mean.to_bits(), cmean.to_bits());
        prop_assert_eq!(back.report.report.fidelity_bound.to_bits(), fbound.to_bits());
        prop_assert_eq!(back.report.report.nodes_initial, report.report.nodes_initial);
        prop_assert_eq!(back.report.report.operations, report.report.operations);
        prop_assert_eq!(back.report.report.time, report.report.time);
        match (&back.report.verification, &report.verification) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.fidelity.to_bits(), b.fidelity.to_bits());
                prop_assert_eq!(a.replay_nodes, b.replay_nodes);
                prop_assert_eq!(a.duration, b.duration);
            }
            (a, b) => panic!("verification reports differ: {a:?} vs {b:?}"),
        }
    }

    /// Error frames round-trip exactly, with raw-bit fidelities.
    #[test]
    fn prop_error_frames_round_trip(
        (kind, a, b) in (0u8..8, 0u64..u64::MAX, 0u64..u64::MAX),
        message in proptest::collection::vec(0u8..95, 0..40),
    ) {
        let message: String = message.into_iter().map(|c| (b' ' + c) as char).collect();
        let frame = match kind {
            0 => ErrorFrame::Prepare { message },
            1 => ErrorFrame::Shutdown,
            2 => ErrorFrame::QueueClosed,
            3 => ErrorFrame::QueueFull { depth: a as usize % 1000, limit: b as usize % 1000 },
            4 => ErrorFrame::VerificationFailed { fidelity: a, threshold: b },
            5 => ErrorFrame::NoShards,
            6 => ErrorFrame::BadFrame { message },
            _ => ErrorFrame::TenantOverQuota {
                tenant: a,
                in_flight: b as usize % 1000,
                limit: b as usize % 1000 + 1,
            },
        };
        let text = Frame::Error(frame.clone()).to_text().unwrap();
        let Frame::Error(back) = Frame::parse(&text).expect("error frame must parse") else {
            panic!("frame kind must survive");
        };
        prop_assert_eq!(back, frame);
    }
}

/// A request for `[2,3,4,5]×10` — 120¹⁰ > 2⁶⁴ amplitudes, so flat indices
/// would wrap — fails to parse with a typed error instead of reaching the
/// index arithmetic. Apart from its register the frame is well-formed: it
/// is a valid 40-qubit frame with the dims line swapped.
#[test]
fn register_beyond_the_index_space_fails_typed() {
    let qubits = Dims::uniform(40, 2).unwrap();
    let request = PrepareRequest::sparse(
        qubits,
        vec![(vec![0; 40], Complex::ONE)],
        PrepareOptions::exact(),
    );
    let text = Frame::Request(RequestFrame {
        tenant: None,
        request,
    })
    .to_text()
    .unwrap();
    let qubit_line = format!("dims{}\n", " 2".repeat(40));
    let huge: String = (0..40).map(|i| format!(" {}", 2 + i % 4)).collect();
    assert!(text.contains(&qubit_line));
    let text = text.replacen(&qubit_line, &format!("dims{huge}\n"), 1);
    match Frame::parse(&text) {
        Err(WireError::Corrupt { message, .. }) => {
            assert!(message.contains("SpaceTooLarge"), "message: {message}");
        }
        other => panic!("oversized register must fail typed, got {other:?}"),
    }
}
