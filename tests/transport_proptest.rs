//! Property tests of the transport framing layer: random valid frames
//! streamed over a *real* unix socketpair — in one piece or dribbled
//! through partial writes — must round-trip bit-exactly (NaN payloads,
//! signed zeros and subnormal amplitudes included), while every
//! mid-byte truncation and every single-byte corruption of the
//! enveloped bytes must surface as a typed [`TransportError`] /
//! [`WireError`] — never a panic, never a hang, never a silently
//! different frame.

use std::io::{Cursor, Write};
use std::time::Duration;

use mdq::engine::{ErrorFrame, Frame, PrepareRequest, Priority, RequestFrame, StatePayload};
use mdq::num::radix::Dims;
use mdq::num::Complex;
use mdq::transport::{
    checksum, write_frame, Fault, FaultyStream, FrameReader, TransportError, WireStream,
};
use proptest::prelude::*;

/// Arbitrary `f64` bit patterns: uniform `u64`s reinterpreted, so NaN
/// payloads, ±inf, subnormals and signed zeros all occur.
fn raw_f64() -> impl Strategy<Value = f64> {
    (0u64..u64::MAX).prop_map(f64::from_bits)
}

fn arb_dims() -> impl Strategy<Value = Dims> {
    proptest::collection::vec(2usize..5, 1..4).prop_map(|v| Dims::new(v).unwrap())
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
    (arb_dims(), arb_payload(), 0u8..3, (0u8..2, 0u64..u64::MAX)).prop_map(
        |(dims, payload, priority, (has_tenant, tenant))| RequestFrame {
            tenant: (has_tenant == 1).then_some(tenant),
            request: PrepareRequest {
                dims,
                payload,
                options: mdq::core::PrepareOptions::exact(),
                priority: match priority {
                    0 => Priority::Low,
                    1 => Priority::Normal,
                    _ => Priority::High,
                },
            },
        },
    )
}

fn arb_error_frame() -> impl Strategy<Value = ErrorFrame> {
    (
        0u8..8,
        0u64..u64::MAX,
        0u64..u64::MAX,
        proptest::collection::vec(0u8..95, 0..30),
    )
        .prop_map(|(kind, a, b, message)| {
            let message: String = message.into_iter().map(|c| (b' ' + c) as char).collect();
            match kind {
                0 => ErrorFrame::Prepare { message },
                1 => ErrorFrame::Shutdown,
                2 => ErrorFrame::QueueClosed,
                3 => ErrorFrame::QueueFull {
                    depth: a as usize % 1000,
                    limit: b as usize % 1000,
                },
                4 => ErrorFrame::VerificationFailed {
                    fidelity: a,
                    threshold: b,
                },
                5 => ErrorFrame::NoShards,
                6 => ErrorFrame::BadFrame { message },
                _ => ErrorFrame::TenantOverQuota {
                    tenant: a,
                    in_flight: b as usize % 1000,
                    limit: b as usize % 1000 + 1,
                },
            }
        })
}

/// The frame's enveloped wire bytes.
fn enveloped(frame: &Frame) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, frame).expect("request frames always serialize");
    bytes
}

/// A socketpair with deadlines on both ends, so no assertion failure
/// can ever turn into a hung test.
fn bounded_pair() -> (WireStream, WireStream) {
    let (a, b) = WireStream::pair().expect("socketpair");
    let deadline = Some(Duration::from_secs(5));
    a.set_timeouts(deadline, deadline).expect("timeouts");
    b.set_timeouts(deadline, deadline).expect("timeouts");
    (a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A batch of random frames written to one end of a real socketpair
    /// — whole, then again dribbled through 1–7-byte partial writes —
    /// arrives as the byte-identical frame texts, which parse back to
    /// the byte-identical serialization. Raw-bit amplitudes ride along,
    /// so NaN/−0.0/subnormal round-tripping is part of the property.
    #[test]
    fn prop_frames_round_trip_bit_exactly_over_socketpair(
        request in arb_request_frame(),
        error in arb_error_frame(),
        chunk in 1usize..8,
    ) {
        let frames = [Frame::Request(request), Frame::Error(error)];
        let texts: Vec<String> = frames.iter().map(|f| f.to_text().unwrap()).collect();

        // One piece.
        let (mut writer, mut socket_reader) = bounded_pair();
        for frame in &frames {
            write_frame(&mut writer, frame).expect("write side is healthy");
        }
        drop(writer);
        let mut reader = FrameReader::new(1 << 20);
        for expected in &texts {
            let got = reader
                .read_frame(&mut socket_reader)
                .expect("healthy stream")
                .expect("frame arrives");
            prop_assert_eq!(&got, expected);
            let reparsed = Frame::parse(&got).expect("delivered frames parse");
            prop_assert_eq!(reparsed.to_text().unwrap(), got);
        }
        let eof = reader.read_frame(&mut socket_reader).expect("clean EOF");
        prop_assert!(eof.is_none(), "stream must end cleanly");

        // Dribbled: same bytes, worst-case fragmentation. The reader
        // runs concurrently — a unix socket charges each tiny write a
        // whole skb of send-buffer accounting, so hundreds of 1-byte
        // writes into an undrained socket would fill it.
        let (writer, mut socket_reader) = bounded_pair();
        let writer = FaultyStream::new(writer, vec![Fault::ChunkWrites { max: chunk }]);
        let thread_frames = frames.clone();
        let handle = std::thread::spawn(move || {
            let mut writer = writer;
            for frame in &thread_frames {
                write_frame(&mut writer, frame).expect("chunked write side is healthy");
            }
        });
        let mut reader = FrameReader::new(1 << 20);
        for expected in &texts {
            let got = reader
                .read_frame(&mut socket_reader)
                .expect("healthy stream")
                .expect("frame arrives");
            prop_assert_eq!(&got, expected);
        }
        handle.join().expect("writer thread");
    }

    /// Every mid-byte truncation of an enveloped frame is a typed
    /// error. Exhaustive over all cut points via an EOF-at-cut stream,
    /// plus one cut through a real socketpair (the writer's connection
    /// dies mid-frame) to pin the live-socket path.
    #[test]
    fn prop_every_truncation_fails_typed(
        request in arb_request_frame(),
        cut_fraction in 0.0..1.0f64,
    ) {
        let frame = Frame::Request(request);
        let bytes = enveloped(&frame);

        for cut in 0..bytes.len() {
            let mut reader = FrameReader::new(1 << 20);
            let mut cursor = Cursor::new(bytes[..cut].to_vec());
            let outcome = reader.read_frame(&mut cursor);
            let typed = matches!(
                outcome,
                Err(TransportError::ConnectionClosed | TransportError::BadEnvelope { .. })
            );
            let clean_empty = cut == 0 && matches!(outcome, Ok(None));
            prop_assert!(typed || clean_empty, "cut must fail typed");
        }

        // The same contract over a real socket: cut the writer mid-frame.
        let cut = 1 + ((bytes.len() - 2) as f64 * cut_fraction) as u64;
        let (writer, mut socket_reader) = bounded_pair();
        let mut writer = FaultyStream::new(writer, vec![Fault::CutWriteAfter { bytes: cut }]);
        let write_outcome = write_frame(&mut writer, &frame);
        prop_assert!(write_outcome.is_err(), "the cut writer must see its pipe break");
        let mut reader = FrameReader::new(1 << 20);
        let read_outcome = reader.read_frame(&mut socket_reader);
        let ok = matches!(
            read_outcome,
            Err(TransportError::ConnectionClosed) | Ok(None)
        );
        prop_assert!(ok, "the reader must see a typed mid-frame EOF");
    }

    /// Flipping any single byte of the enveloped bytes — header or
    /// payload, any mask — yields a typed error, never a panic and
    /// never a silently different frame: the payload is checksummed,
    /// and the envelope grammar is canonical (lowercase hex, no leading
    /// zeros), so even value-preserving re-encodings of the header are
    /// refused.
    #[test]
    fn prop_every_single_byte_corruption_fails_typed(
        request in arb_request_frame(),
        at_fraction in 0.0..1.0f64,
        xor in 0u8..255,
    ) {
        let xor = xor + 1; // 1..=255: a zero mask would be a no-op
        let bytes = enveloped(&Frame::Request(request));
        let at = ((bytes.len() - 1) as f64 * at_fraction) as usize;
        let mut corrupt = bytes.clone();
        corrupt[at] ^= xor;
        let mut reader = FrameReader::new(1 << 20);
        let mut cursor = Cursor::new(corrupt);
        let outcome = reader.read_frame(&mut cursor);
        let typed = matches!(
            outcome,
            Err(TransportError::ChecksumMismatch { .. }
                | TransportError::BadEnvelope { .. }
                | TransportError::FrameTooLarge { .. }
                | TransportError::ConnectionClosed)
        );
        prop_assert!(typed, "corruption must fail typed, not parse");

        // Same flip pushed through a real socketpair via the fault
        // injector — the live-socket read path agrees with the cursor.
        let (writer, mut socket_reader) = bounded_pair();
        let mut writer = FaultyStream::new(
            writer,
            vec![Fault::CorruptWrite { at: at as u64, xor }],
        );
        writer.write_all(&bytes).expect("socket write");
        drop(writer);
        let mut reader = FrameReader::new(1 << 20);
        let socket_outcome = reader.read_frame(&mut socket_reader);
        let socket_typed = matches!(
            socket_outcome,
            Err(TransportError::ChecksumMismatch { .. }
                | TransportError::BadEnvelope { .. }
                | TransportError::FrameTooLarge { .. }
                | TransportError::ConnectionClosed)
        );
        prop_assert!(socket_typed, "socket corruption must fail typed");
    }
}

/// A peer that dribbles a frame slower than the read deadline is cut
/// off with [`TransportError::Timeout`] — the slow-loris guard — not
/// waited on forever.
#[test]
fn slow_loris_hits_the_read_deadline_typed() {
    let (mut writer, mut socket_reader) = WireStream::pair().expect("socketpair");
    socket_reader
        .set_timeouts(
            Some(Duration::from_millis(80)),
            Some(Duration::from_secs(5)),
        )
        .expect("timeouts");
    // Half an envelope, then silence.
    writer.write_all(b"mdqt2 29 0123").expect("partial header");
    writer.flush().expect("flush");
    let mut reader = FrameReader::new(1 << 20);
    let outcome = reader.read_frame(&mut socket_reader);
    assert!(
        matches!(outcome, Err(TransportError::Timeout)),
        "a stalled peer must resolve to Timeout, got {outcome:?}"
    );
}

/// An envelope declaring a payload beyond the guard is refused before
/// any payload is buffered, over a real socket.
#[test]
fn oversized_declaration_is_refused_over_socket() {
    let (mut writer, mut socket_reader) = bounded_pair();
    let declared = 1 << 30;
    let header = format!(
        "mdqt2 {declared} {}\n",
        mdq::circuit::serialize::bits_to_hex(0)
    );
    writer.write_all(header.as_bytes()).expect("header");
    writer.flush().expect("flush");
    let mut reader = FrameReader::new(1 << 20);
    let outcome = reader.read_frame(&mut socket_reader);
    assert!(
        matches!(
            outcome,
            Err(TransportError::FrameTooLarge { declared: d, limit }) if d == declared && limit == 1 << 20
        ),
        "oversized declaration must be typed, got {outcome:?}"
    );
}

/// The checksum in the envelope is the exported [`checksum`]: pin the
/// reference value so the wire format cannot drift silently.
#[test]
fn envelope_checksum_is_pinned() {
    // Short inputs are all tail words; 100 bytes run three 32-byte
    // stripes through the four lanes before a 4-byte tail.
    assert_eq!(checksum(b""), 0x19d7_01ce_7e01_2818);
    assert_eq!(checksum(b"a"), 0xe998_95fc_eb2f_3976);
    assert_eq!(checksum(b"foobar"), 0x6895_a90b_e259_5072);
    let counting: Vec<u8> = (0..100).collect();
    assert_eq!(checksum(&counting), 0x38cf_6e3c_ee17_f453);
    // And one enveloped frame carries exactly that hash of its payload.
    let frame = Frame::Error(ErrorFrame::Shutdown);
    let text = frame.to_text().expect("serialize");
    let bytes = enveloped(&frame);
    let header_end = bytes.iter().position(|&b| b == b'\n').expect("header");
    let header = std::str::from_utf8(&bytes[..header_end]).expect("ascii");
    let expected = format!(
        "mdqt2 {} {}",
        text.len(),
        mdq::circuit::serialize::bits_to_hex(checksum(text.as_bytes()))
    );
    assert_eq!(header, expected);
    assert_eq!(&bytes[header_end + 1..], text.as_bytes());
}

/// A reader fed a frame one byte at a time (worst-case arrival) still
/// produces the identical text — and a stalling read fault on the
/// *reply* path resolves typed instead of wedging the reader.
#[test]
fn byte_at_a_time_arrival_reassembles_exactly() {
    let frame = Frame::Error(ErrorFrame::QueueFull { depth: 3, limit: 2 });
    let bytes = enveloped(&frame);
    let (writer, socket_reader) = bounded_pair();
    let writer = FaultyStream::new(writer, vec![Fault::ChunkWrites { max: 1 }]);
    let handle = std::thread::spawn(move || {
        let mut w = writer;
        w.write_all(&bytes).expect("dribble");
        w.flush().expect("flush");
    });
    let mut socket_reader =
        FaultyStream::new(socket_reader, vec![Fault::CutReadAfter { bytes: 1 << 20 }]);
    let mut reader = FrameReader::new(1 << 20);
    let text = reader
        .read_frame(&mut socket_reader)
        .expect("healthy")
        .expect("frame");
    assert_eq!(text, frame.to_text().expect("serialize"));
    handle.join().expect("writer thread");
}
