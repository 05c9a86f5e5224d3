//! Golden bytes of the `mdqwire 1` format. Every frame is built from
//! literal values (no pipeline run, so no libm result can move a byte):
//! the encoder must write exactly the committed file, and decoding the
//! file must give back the literal values bit for bit. A round-trip test
//! alone would also pass an encoding that changed consistently on both
//! sides; these pin the bytes themselves.

use std::sync::Arc;
use std::time::Duration;

use mdq::circuit::{Circuit, Control, Gate, Instruction};
use mdq::core::{
    Direction, PrepareOptions, ProductRule, SynthesisReport, VerificationPolicy, VerificationReport,
};
use mdq::engine::{
    ErrorFrame, Frame, PrepareReport, PrepareRequest, Priority, ReportFrame, RequestFrame,
    StatePayload,
};
use mdq::num::radix::Dims;
use mdq::num::{Complex, Tolerance};

const DENSE_REQUEST: &str = include_str!("golden/wire_request_dense.txt");
const SPARSE_REQUEST: &str = include_str!("golden/wire_request_sparse.txt");
const REPORT: &str = include_str!("golden/wire_report.txt");
const ERRORS: &str = include_str!("golden/wire_errors.txt");

/// Amplitude bit patterns no pipeline produces but the wire must carry.
const NAN_PAYLOAD: u64 = 0x7ff8_0000_dead_beef;
const SUBNORMAL: u64 = 0x0000_0000_0000_0001;

fn dense_request() -> RequestFrame {
    let mut options = PrepareOptions::exact();
    options.fidelity_threshold = Some(0.98);
    options.tolerance = Tolerance::new(-0.0);
    options.synthesis.product_rule = ProductRule::SharedChildOrSingle;
    options.synthesis.skip_identities = true;
    options.synthesis.direction = Direction::Disentangle;
    options.reduce = true;
    options.keep_zero_subtrees = false;
    options.verification = VerificationPolicy::Replay {
        min_fidelity: f64::from_bits(NAN_PAYLOAD),
    };
    let amplitudes = vec![
        Complex::new(-0.0, 0.5),
        Complex::new(f64::from_bits(NAN_PAYLOAD), f64::from_bits(SUBNORMAL)),
        Complex::new(f64::INFINITY, f64::NEG_INFINITY),
        Complex::new(0.25, -0.75),
        Complex::new(f64::MIN_POSITIVE, f64::MAX),
        Complex::ZERO,
    ];
    RequestFrame {
        tenant: Some(u64::MAX),
        request: PrepareRequest::dense(Dims::new(vec![2, 3]).unwrap(), amplitudes, options)
            .with_priority(Priority::High),
    }
}

fn sparse_request() -> RequestFrame {
    let entries = vec![
        (vec![0, 0, 10], Complex::new(0.5, -0.0)),
        (vec![1, 11, 3], Complex::new(f64::from_bits(SUBNORMAL), 0.5)),
        // Degenerate entries the wire carries as given: no digits at all,
        // and digits beyond the register.
        (vec![], Complex::ONE),
        (vec![123, 4567, 89], Complex::new(f64::NEG_INFINITY, 1e300)),
    ];
    RequestFrame {
        tenant: None,
        request: PrepareRequest::sparse(
            Dims::new(vec![2, 12, 11]).unwrap(),
            entries,
            PrepareOptions::exact(),
        )
        .with_priority(Priority::Low),
    }
}

/// Every serializable gate kind, a negative shift, multi-digit qudits and
/// levels, and the angles −0.0, 5e-324, 1e300 and π.
fn golden_circuit() -> Circuit {
    let dims = Dims::new(vec![2, 3, 12, 2, 2, 2, 2, 2, 2, 2, 2, 16]).unwrap();
    let mut circuit = Circuit::new(dims);
    let instructions = [
        Instruction::local(2, Gate::fourier()),
        Instruction::controlled(
            11,
            Gate::Givens {
                lo: 10,
                hi: 13,
                theta: std::f64::consts::PI,
                phi: -0.0,
            },
            vec![Control::new(10, 1), Control::new(2, 11)],
        ),
        Instruction::controlled(
            2,
            Gate::ZRotation {
                lo: 0,
                hi: 11,
                theta: 5e-324,
            },
            vec![Control::new(11, 15)],
        ),
        Instruction::local(
            11,
            Gate::PhaseLevel {
                level: 12,
                angle: 1e300,
            },
        ),
        Instruction::controlled(1, Gate::shift(-2), vec![Control::new(0, 1)]),
        Instruction::local(10, Gate::shift(13)),
        Instruction::controlled(11, Gate::fourier_inverse(), vec![Control::new(1, 2)]),
        Instruction::local(
            0,
            Gate::Givens {
                lo: 0,
                hi: 1,
                theta: -std::f64::consts::PI,
                phi: 0.1,
            },
        ),
    ];
    for instruction in instructions {
        circuit.push(instruction).unwrap();
    }
    circuit
}

fn report() -> ReportFrame {
    let circuit = golden_circuit();
    ReportFrame {
        dims: circuit.dims().clone(),
        report: PrepareReport {
            circuit: Arc::new(circuit),
            report: SynthesisReport {
                nodes_initial: 58,
                nodes_final: 41,
                distinct_c_initial: 12,
                distinct_c_final: 9,
                operations: 8,
                controls_median: 1.0,
                controls_mean: -0.0,
                controls_max: 2,
                removed_nodes: 17,
                pruned_mass: f64::from_bits(SUBNORMAL),
                fidelity_bound: f64::from_bits(NAN_PAYLOAD),
                time: Duration::new(3, 141_592_653),
                total_time: Duration::new(0, 999_999_999),
            },
            verification: Some(VerificationReport {
                fidelity: 1.0 - f64::EPSILON,
                replay_nodes: 1937,
                duration: Duration::new(0, 1),
            }),
            from_cache: true,
            elapsed: Duration::new(12, 0),
            queue_wait: Duration::new(0, 250_000),
            admission_wait: Duration::ZERO,
        },
    }
}

fn error_frames() -> Vec<ErrorFrame> {
    vec![
        ErrorFrame::Prepare {
            message: "dimension mismatch: got 3, expected 6".to_owned(),
        },
        ErrorFrame::Shutdown,
        ErrorFrame::QueueClosed,
        ErrorFrame::QueueFull {
            depth: 64,
            limit: 1024,
        },
        ErrorFrame::VerificationFailed {
            fidelity: (-0.0f64).to_bits(),
            threshold: NAN_PAYLOAD,
        },
        ErrorFrame::TenantOverQuota {
            tenant: u64::MAX,
            in_flight: 8,
            limit: 10,
        },
        ErrorFrame::NoShards,
        ErrorFrame::BadFrame {
            message: "corrupt wire frame at line 3: bad amplitude".to_owned(),
        },
    ]
}

fn assert_amp_bits(a: &Complex, b: &Complex) {
    assert_eq!(a.re.to_bits(), b.re.to_bits());
    assert_eq!(a.im.to_bits(), b.im.to_bits());
}

fn assert_request_bits(a: &RequestFrame, b: &RequestFrame) {
    assert_eq!(a.tenant, b.tenant);
    let (a, b) = (&a.request, &b.request);
    assert_eq!(a.dims, b.dims);
    assert_eq!(a.priority, b.priority);
    let (oa, ob) = (&a.options, &b.options);
    assert_eq!(
        oa.fidelity_threshold.map(f64::to_bits),
        ob.fidelity_threshold.map(f64::to_bits)
    );
    assert_eq!(
        oa.tolerance.value().to_bits(),
        ob.tolerance.value().to_bits()
    );
    assert_eq!(oa.synthesis, ob.synthesis);
    assert_eq!(oa.reduce, ob.reduce);
    assert_eq!(oa.keep_zero_subtrees, ob.keep_zero_subtrees);
    assert_eq!(
        oa.verification.min_fidelity().map(f64::to_bits),
        ob.verification.min_fidelity().map(f64::to_bits)
    );
    match (&a.payload, &b.payload) {
        (StatePayload::Dense(x), StatePayload::Dense(y)) => {
            assert_eq!(x.len(), y.len());
            x.iter().zip(y).for_each(|(p, q)| assert_amp_bits(p, q));
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

/// Gate equality on raw bits: `==` would equate `0.0` with `-0.0`.
fn assert_circuit_bits(a: &Circuit, b: &Circuit) {
    assert_eq!(a.dims(), b.dims());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!((x.qudit, &x.controls), (y.qudit, &y.controls));
        let bits = |g: &Gate| match *g {
            Gate::Givens { lo, hi, theta, phi } => (0, lo, hi, theta.to_bits(), phi.to_bits(), 0),
            Gate::ZRotation { lo, hi, theta } => (1, lo, hi, theta.to_bits(), 0, 0),
            Gate::PhaseLevel { level, angle } => (2, level, 0, angle.to_bits(), 0, 0),
            Gate::Shift { amount } => (3, 0, 0, 0, 0, amount),
            Gate::Fourier { inverse } => (4, usize::from(inverse), 0, 0, 0, 0),
            Gate::Unitary(_) => panic!("golden circuits hold no explicit unitary"),
        };
        assert_eq!(bits(&x.gate), bits(&y.gate));
    }
}

#[test]
fn dense_request_frame_matches_its_golden_bytes() {
    let frame = dense_request();
    assert_eq!(
        Frame::Request(frame.clone()).to_text().unwrap(),
        DENSE_REQUEST
    );
    let Frame::Request(back) = Frame::parse(DENSE_REQUEST).unwrap() else {
        panic!("golden request parses as a request");
    };
    assert_request_bits(&back, &frame);
}

#[test]
fn sparse_request_frame_matches_its_golden_bytes() {
    let frame = sparse_request();
    assert_eq!(
        Frame::Request(frame.clone()).to_text().unwrap(),
        SPARSE_REQUEST
    );
    let Frame::Request(back) = Frame::parse(SPARSE_REQUEST).unwrap() else {
        panic!("golden request parses as a request");
    };
    assert_request_bits(&back, &frame);
}

#[test]
fn report_frame_matches_its_golden_bytes() {
    let frame = report();
    assert_eq!(Frame::Report(frame.clone()).to_text().unwrap(), REPORT);
    let Frame::Report(back) = Frame::parse(REPORT).unwrap() else {
        panic!("golden report parses as a report");
    };
    assert_eq!(back.dims, frame.dims);
    let (a, b) = (&back.report, &frame.report);
    assert_circuit_bits(&a.circuit, &b.circuit);
    let (sa, sb) = (&a.report, &b.report);
    assert_eq!(
        (
            sa.nodes_initial,
            sa.nodes_final,
            sa.distinct_c_initial,
            sa.distinct_c_final,
            sa.operations,
            sa.controls_max,
            sa.removed_nodes,
            sa.time,
            sa.total_time,
        ),
        (
            sb.nodes_initial,
            sb.nodes_final,
            sb.distinct_c_initial,
            sb.distinct_c_final,
            sb.operations,
            sb.controls_max,
            sb.removed_nodes,
            sb.time,
            sb.total_time,
        )
    );
    for (x, y) in [
        (sa.controls_median, sb.controls_median),
        (sa.controls_mean, sb.controls_mean),
        (sa.pruned_mass, sb.pruned_mass),
        (sa.fidelity_bound, sb.fidelity_bound),
    ] {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    let (va, vb) = (
        a.verification.as_ref().unwrap(),
        b.verification.as_ref().unwrap(),
    );
    assert_eq!(va.fidelity.to_bits(), vb.fidelity.to_bits());
    assert_eq!(
        (va.replay_nodes, va.duration),
        (vb.replay_nodes, vb.duration)
    );
    assert_eq!(
        (a.from_cache, a.elapsed, a.queue_wait, a.admission_wait),
        (b.from_cache, b.elapsed, b.queue_wait, b.admission_wait)
    );
}

#[test]
fn every_error_frame_matches_its_golden_bytes() {
    let frames = error_frames();
    let text: String = frames
        .iter()
        .map(|f| Frame::Error(f.clone()).to_text().unwrap())
        .collect();
    assert_eq!(text, ERRORS);
    let golden: Vec<&str> = ERRORS.split_inclusive("end\n").collect();
    assert_eq!(golden.len(), frames.len());
    for (bytes, frame) in golden.into_iter().zip(frames) {
        let Frame::Error(back) = Frame::parse(bytes).unwrap() else {
            panic!("golden error parses as an error");
        };
        assert_eq!(back, frame);
    }
}
