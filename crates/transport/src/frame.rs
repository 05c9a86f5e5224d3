//! The network envelope around `mdqwire` frames.
//!
//! `mdqwire` text is self-delimiting (a frame ends at its `end` line),
//! but a socket is not a trustworthy narrator: bytes arrive in arbitrary
//! chunks, may be cut mid-frame, and may be corrupted in flight. The
//! transport therefore wraps each frame in a one-line envelope —
//! length-delimited *and* newline-terminated:
//!
//! ```text
//! mdqt2 <payload-bytes> <checksum-hex16>\n
//! <payload: exactly payload-bytes bytes of one mdqwire frame>
//! ```
//!
//! The declared length lets the reader enforce the max-frame-size guard
//! *before* buffering a hostile payload, and the [`checksum`] turns
//! in-flight corruption into a typed
//! [`ChecksumMismatch`](TransportError::ChecksumMismatch) instead of —
//! worst case — a silently different but still-parseable request. Two
//! payloads of one length that differ in exactly one byte never share a
//! checksum: single-byte corruption is caught deterministically, not
//! probabilistically.
//!
//! The tag names the checksum: the envelope carries no version field, so
//! a new checksum takes a new tag. A peer still framing under `mdqtx`,
//! the byte-wise FNV-1a tag, is refused with a
//! [`BadEnvelope`](TransportError::BadEnvelope), which no retry fixes.

use std::io::{self, Read, Write};

use mdq_circuit::serialize::{self, Cursor};
use mdq_engine::wire::Frame;

use crate::error::TransportError;

/// Envelope header prefix: the tag and its space.
const HEADER_PREFIX: &str = "mdqt2 ";

/// Longest legal header line: prefix + 20-digit length + space + 16 hex
/// digits + newline, rounded up. A stream that produces no newline
/// within this many bytes is not speaking the protocol.
const HEADER_MAX: usize = 64;

/// How many bytes one socket read asks for.
const READ_CHUNK: usize = 16 * 1024;

/// The envelope checksum of `bytes`: [`mdq_num::hash::checksum`], the
/// workspace's hash for bytes in flight.
///
/// The sender runs it over every payload and the receiver runs it again,
/// at about 0.2 ns per byte (40 µs for a 196 kB report on a 2-vCPU Xeon).
/// Two equal-length payloads that differ in one byte never share it.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    mdq_num::hash::checksum(bytes)
}

/// Serializes `frame` and writes it to `stream` under one envelope, as a
/// single vectored-into-one buffer write followed by a flush.
///
/// # Errors
///
/// [`TransportError::Wire`] when the frame itself cannot serialize
/// (non-serializable gate), [`TransportError::Timeout`] when the socket's
/// write deadline passes, [`TransportError::Io`] for everything else the
/// socket reports.
pub fn write_frame<S: Write + ?Sized>(stream: &mut S, frame: &Frame) -> Result<(), TransportError> {
    let text = frame.to_text()?;
    let payload = text.as_bytes();
    let header = format!(
        "{HEADER_PREFIX}{} {}\n",
        payload.len(),
        serialize::bits_to_hex(checksum(payload))
    );
    let mut envelope = Vec::with_capacity(header.len() + payload.len());
    envelope.extend_from_slice(header.as_bytes());
    envelope.extend_from_slice(payload);
    stream.write_all(&envelope)?;
    stream.flush()?;
    Ok(())
}

/// A buffered envelope reader for one connection.
///
/// Owns the read buffer so partially-arrived frames survive across
/// calls; [`read_frame`](Self::read_frame) returns one verified frame
/// text at a time. The reader never trusts the peer: header length is
/// bounded, declared payload size is checked against the guard before
/// buffering, and the checksum is verified before the text is handed to
/// [`Frame::parse`].
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    limit: usize,
}

/// What the header of a buffered envelope said, if it has fully arrived.
enum Header {
    /// Header complete: payload starts at `payload_at` and runs
    /// `length` bytes, promising `sum`.
    Complete {
        payload_at: usize,
        length: usize,
        sum: u64,
    },
    /// Not enough bytes yet to finish the header line.
    Partial,
}

impl FrameReader {
    /// A reader enforcing `max_frame_bytes` on declared payload sizes.
    #[must_use]
    pub fn new(max_frame_bytes: usize) -> Self {
        FrameReader {
            buf: Vec::new(),
            limit: max_frame_bytes,
        }
    }

    /// Drops any buffered bytes — required after a reconnect, where
    /// leftovers from the dead connection would desynchronize framing.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Bytes buffered but not yet returned as a frame.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Reads until one whole envelope has arrived and returns its
    /// verified payload text; `Ok(None)` is a clean EOF *between*
    /// frames.
    ///
    /// # Errors
    ///
    /// - [`TransportError::ConnectionClosed`] — EOF mid-envelope.
    /// - [`TransportError::Timeout`] — the socket's read deadline passed
    ///   (the server's slow-loris guard).
    /// - [`TransportError::FrameTooLarge`] — declared payload exceeds
    ///   the guard.
    /// - [`TransportError::BadEnvelope`] — header unparseable, or
    ///   payload not UTF-8.
    /// - [`TransportError::ChecksumMismatch`] — payload bytes differ
    ///   from what the sender framed.
    /// - [`TransportError::Io`] — anything else the socket reports.
    pub fn read_frame<S: Read + ?Sized>(
        &mut self,
        stream: &mut S,
    ) -> Result<Option<String>, TransportError> {
        loop {
            if let Header::Complete {
                payload_at,
                length,
                sum,
            } = self.parse_header()?
            {
                if self.buf.len() >= payload_at + length {
                    return self.take_payload(payload_at, length, sum).map(Some);
                }
            }
            let mut chunk = [0u8; READ_CHUNK];
            match stream.read(&mut chunk) {
                Ok(0) => {
                    if self.buf.is_empty() {
                        return Ok(None);
                    }
                    return Err(TransportError::ConnectionClosed);
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::from_io(e)),
            }
        }
    }

    /// Parses the envelope header at the front of the buffer, if its
    /// newline has arrived.
    fn parse_header(&self) -> Result<Header, TransportError> {
        let Some(newline) = self.buf.iter().take(HEADER_MAX).position(|&b| b == b'\n') else {
            if self.buf.len() >= HEADER_MAX {
                return Err(TransportError::BadEnvelope {
                    message: format!("no newline within the first {HEADER_MAX} header bytes"),
                });
            }
            return Ok(Header::Partial);
        };
        let line = &self.buf[..newline];
        let Some(rest) = line.strip_prefix(HEADER_PREFIX.as_bytes()) else {
            return Err(TransportError::BadEnvelope {
                message: format!("header line does not start with `{HEADER_PREFIX}`"),
            });
        };
        // Header is ASCII by construction; any non-UTF-8 byte also fails
        // the prefix or field checks below.
        let rest = std::str::from_utf8(rest).map_err(|_| TransportError::BadEnvelope {
            message: "header line is not valid UTF-8".to_owned(),
        })?;
        let mut fields = rest.split(' ');
        let (Some(len_token), Some(sum_token), None) =
            (fields.next(), fields.next(), fields.next())
        else {
            return Err(TransportError::BadEnvelope {
                message: format!("header needs exactly `{HEADER_PREFIX}<len> <checksum>`"),
            });
        };
        let length = parse_length(len_token).ok_or_else(|| TransportError::BadEnvelope {
            message: format!("bad payload length {len_token:?}"),
        })?;
        if length > self.limit {
            return Err(TransportError::FrameTooLarge {
                declared: length,
                limit: self.limit,
            });
        }
        let sum = parse_checksum(sum_token).ok_or_else(|| TransportError::BadEnvelope {
            message: format!("bad checksum token {sum_token:?}"),
        })?;
        Ok(Header::Complete {
            payload_at: newline + 1,
            length,
            sum,
        })
    }

    /// Verifies and removes one complete envelope from the buffer.
    fn take_payload(
        &mut self,
        payload_at: usize,
        length: usize,
        sum: u64,
    ) -> Result<String, TransportError> {
        let payload = &self.buf[payload_at..payload_at + length];
        let found = checksum(payload);
        if found != sum {
            return Err(TransportError::ChecksumMismatch {
                expected: sum,
                found,
            });
        }
        let text = std::str::from_utf8(payload)
            .map_err(|_| TransportError::BadEnvelope {
                message: "payload is not valid UTF-8".to_owned(),
            })?
            .to_owned();
        self.buf.drain(..payload_at + length);
        Ok(text)
    }
}

/// Canonical decimal length, read by the shared text [`Cursor`]: digits
/// only, no leading zero (except `0` itself, which no real envelope
/// carries — the smallest frame is longer).
fn parse_length(token: &str) -> Option<usize> {
    let mut cursor = Cursor::new(token);
    cursor.uint("length").ok().filter(|_| cursor.is_at_end())
}

/// Exactly 16 *lowercase* hex digits, the same raw-bit form `mdqwire`
/// uses for amplitudes. Lowercase is enforced here (not just by
/// [`serialize::bits_from_hex`], which tolerates case) so that even a
/// value-preserving case flip — `a` → `A` under a `0x20` bit flip — is a
/// typed envelope error rather than a silently accepted frame.
fn parse_checksum(token: &str) -> Option<u64> {
    if token.len() != 16
        || !token
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    serialize::bits_from_hex(token)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdq_core::PrepareOptions;
    use mdq_engine::wire::{ErrorFrame, RequestFrame};
    use mdq_engine::PrepareRequest;
    use mdq_num::radix::Dims;
    use mdq_states::ghz;
    use std::io::Cursor;

    fn error_frame() -> Frame {
        Frame::Error(ErrorFrame::QueueFull { depth: 7, limit: 4 })
    }

    /// A dense `[2,3]` GHZ request: a 343-byte payload, ten 32-byte
    /// checksum stripes deep, where the error frame spans at most one.
    fn request_frame() -> Frame {
        let dims = Dims::new(vec![2, 3]).expect("valid register");
        let request = PrepareRequest::dense(dims.clone(), ghz(&dims), PrepareOptions::exact());
        Frame::Request(RequestFrame {
            tenant: None,
            request,
        })
    }

    fn enveloped(frame: &Frame) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, frame).expect("serialize");
        bytes
    }

    #[test]
    fn round_trips_one_frame_over_a_buffer() {
        let bytes = enveloped(&error_frame());
        let mut reader = FrameReader::new(1 << 20);
        let mut cursor = Cursor::new(bytes);
        let text = reader
            .read_frame(&mut cursor)
            .expect("read")
            .expect("one frame");
        assert!(matches!(
            Frame::parse(&text),
            Ok(Frame::Error(ErrorFrame::QueueFull { depth: 7, limit: 4 }))
        ));
        assert_eq!(reader.read_frame(&mut cursor).expect("clean EOF"), None);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn back_to_back_frames_split_cleanly() {
        let mut bytes = enveloped(&error_frame());
        bytes.extend_from_slice(&enveloped(&Frame::Error(ErrorFrame::Shutdown)));
        let mut reader = FrameReader::new(1 << 20);
        let mut cursor = Cursor::new(bytes);
        let first = reader.read_frame(&mut cursor).expect("read").expect("one");
        let second = reader.read_frame(&mut cursor).expect("read").expect("two");
        assert!(matches!(
            Frame::parse(&first),
            Ok(Frame::Error(ErrorFrame::QueueFull { .. }))
        ));
        assert!(matches!(
            Frame::parse(&second),
            Ok(Frame::Error(ErrorFrame::Shutdown))
        ));
    }

    #[test]
    fn every_single_byte_corruption_is_typed() {
        for frame in [error_frame(), request_frame()] {
            let bytes = enveloped(&frame);
            for at in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[at] ^= 0x20;
                let mut reader = FrameReader::new(1 << 20);
                let mut cursor = Cursor::new(bad);
                let outcome = reader.read_frame(&mut cursor);
                match outcome {
                    Err(
                        TransportError::ChecksumMismatch { .. }
                        | TransportError::BadEnvelope { .. }
                        | TransportError::FrameTooLarge { .. }
                        | TransportError::ConnectionClosed,
                    ) => {}
                    other => panic!("corruption at byte {at} gave {other:?}"),
                }
            }
        }
    }

    #[test]
    fn every_truncation_is_typed() {
        for frame in [error_frame(), request_frame()] {
            let bytes = enveloped(&frame);
            for cut in 0..bytes.len() {
                let mut reader = FrameReader::new(1 << 20);
                let mut cursor = Cursor::new(bytes[..cut].to_vec());
                match reader.read_frame(&mut cursor) {
                    Ok(None) if cut == 0 => {}
                    Err(TransportError::ConnectionClosed) if cut > 0 => {}
                    other => panic!("truncation at byte {cut} gave {other:?}"),
                }
            }
        }
    }

    #[test]
    fn oversized_declaration_is_refused_before_buffering() {
        let bytes = enveloped(&error_frame());
        let mut reader = FrameReader::new(4);
        let mut cursor = Cursor::new(bytes);
        assert!(matches!(
            reader.read_frame(&mut cursor),
            Err(TransportError::FrameTooLarge {
                declared: _,
                limit: 4
            })
        ));
    }

    #[test]
    fn endless_headerless_garbage_is_refused() {
        let mut reader = FrameReader::new(1 << 20);
        let mut cursor = Cursor::new(vec![b'x'; 1000]);
        assert!(matches!(
            reader.read_frame(&mut cursor),
            Err(TransportError::BadEnvelope { .. })
        ));
    }

    #[test]
    fn noncanonical_header_tokens_are_refused() {
        let payload = b"mdqwire 1\nerror\nshutdown\nend\n";
        let sum = serialize::bits_to_hex(checksum(payload));
        let cases: Vec<String> = vec![
            format!("mdqt2 029 {sum}\n"),         // leading-zero length
            format!("mdqt2 +29 {sum}\n"),         // signed length
            format!("mdqt2 29 {}\n", &sum[..15]), // short checksum
            format!("mdqt2 29 {sum} extra\n"),    // trailing field
            format!("mdqt229 {sum}\n"),           // missing space
            format!("MDQT2 29 {sum}\n"),          // wrong case
        ];
        for header in cases {
            let mut bytes = header.clone().into_bytes();
            bytes.extend_from_slice(payload);
            let mut reader = FrameReader::new(1 << 20);
            let mut cursor = Cursor::new(bytes);
            assert!(
                matches!(
                    reader.read_frame(&mut cursor),
                    Err(TransportError::BadEnvelope { .. })
                ),
                "header {header:?} was not refused as a bad envelope"
            );
        }
    }

    #[test]
    fn old_fnv1a_envelope_is_refused_for_good() {
        // A peer framing under the retired `mdqtx` tag with an FNV-1a
        // checksum speaks another protocol: resending cannot help.
        let payload = b"mdqwire 1\nerror\nshutdown\nend\n";
        let mut bytes = format!(
            "mdqtx {} {}\n",
            payload.len(),
            serialize::bits_to_hex(mdq_num::hash::fnv1a(payload))
        )
        .into_bytes();
        bytes.extend_from_slice(payload);
        let mut reader = FrameReader::new(1 << 20);
        let outcome = reader.read_frame(&mut Cursor::new(bytes));
        let Err(error @ TransportError::BadEnvelope { .. }) = outcome else {
            panic!("an `mdqtx` envelope gave {outcome:?}");
        };
        assert!(!error.is_retryable());
    }

    #[test]
    fn single_byte_difference_always_changes_the_checksum() {
        // The checksum's steps are bijections of its state and injective
        // in each word, so this exhaustive check passes by construction;
        // pin it so the checksum can never regress into a weaker fold.
        let base = b"mdqwire 1\nerror\nshutdown\nend\n".to_vec();
        let reference = checksum(&base);
        for at in 0..base.len() {
            for xor in 1u8..=255 {
                let mut bad = base.clone();
                bad[at] ^= xor;
                assert_ne!(checksum(&bad), reference);
            }
        }
    }
}
