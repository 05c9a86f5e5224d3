//! The transport tier's typed failure: everything that can go wrong
//! between a caller and a remote engine, short of the engine itself
//! refusing or failing the job (those travel back as
//! [`ErrorFrame`](mdq_engine::wire::ErrorFrame)s inside a perfectly
//! healthy connection).

use std::fmt;
use std::io;

use mdq_engine::wire::WireError;

/// A typed transport failure.
///
/// The contract mirrors [`WireError`]: a hostile or faulty peer can make
/// any of these happen, and none of them may ever surface as a panic or
/// an unbounded hang. Timeouts come from the socket's own
/// `set_read_timeout`/`set_write_timeout`, so even a slow-loris peer
/// resolves to [`TransportError::Timeout`] in bounded time.
#[derive(Debug)]
pub enum TransportError {
    /// The socket failed outside the cases given their own variant.
    Io(io::Error),
    /// A read or write missed its configured deadline.
    Timeout,
    /// The peer closed the connection mid-frame (or before replying).
    ConnectionClosed,
    /// The envelope declared a payload larger than the configured guard.
    FrameTooLarge {
        /// The payload size the envelope declared.
        declared: usize,
        /// The configured maximum.
        limit: usize,
    },
    /// The envelope header did not parse (or the payload was not UTF-8).
    BadEnvelope {
        /// What was wrong with it.
        message: String,
    },
    /// The payload's checksum did not match the envelope's.
    ///
    /// Every step of the [`checksum`](crate::checksum) is injective in the
    /// word it folds and a bijection of its state, so any single corrupted
    /// payload byte is *guaranteed* to trip this — there is no unlucky
    /// seed.
    ChecksumMismatch {
        /// The checksum the envelope promised.
        expected: u64,
        /// The checksum of the bytes that arrived.
        found: u64,
    },
    /// The payload failed `mdqwire` parsing.
    Wire(WireError),
    /// The peer sent a well-formed frame of the wrong kind (e.g. a
    /// request where a report was due).
    UnexpectedFrame {
        /// The kind(s) that would have been legal here.
        expected: &'static str,
        /// The kind that actually arrived.
        found: &'static str,
    },
    /// Every connection attempt failed.
    ConnectFailed {
        /// How many attempts were made.
        attempts: u32,
        /// The last attempt's failure.
        last: io::Error,
    },
}

impl TransportError {
    /// Whether retrying the same call can plausibly succeed.
    ///
    /// True for connection-level weather — timeouts, resets, corrupt
    /// bytes on the wire, exhausted connect attempts. False for protocol
    /// violations ([`Wire`](Self::Wire), [`BadEnvelope`](Self::BadEnvelope),
    /// [`UnexpectedFrame`](Self::UnexpectedFrame)) and for
    /// [`FrameTooLarge`](Self::FrameTooLarge), which a retry would only
    /// repeat.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            TransportError::Io(_)
                | TransportError::Timeout
                | TransportError::ConnectionClosed
                | TransportError::ChecksumMismatch { .. }
                | TransportError::ConnectFailed { .. }
        )
    }

    /// Maps an [`io::Error`] onto the transport vocabulary: timeout kinds
    /// become [`Timeout`](Self::Timeout), an unexpected EOF becomes
    /// [`ConnectionClosed`](Self::ConnectionClosed), the rest stay
    /// [`Io`](Self::Io).
    #[must_use]
    pub fn from_io(error: io::Error) -> Self {
        match error.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => TransportError::Timeout,
            io::ErrorKind::UnexpectedEof => TransportError::ConnectionClosed,
            _ => TransportError::Io(error),
        }
    }
}

impl From<io::Error> for TransportError {
    fn from(error: io::Error) -> Self {
        TransportError::from_io(error)
    }
}

impl From<WireError> for TransportError {
    fn from(error: WireError) -> Self {
        TransportError::Wire(error)
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "socket error: {e}"),
            TransportError::Timeout => write!(f, "read or write missed its deadline"),
            TransportError::ConnectionClosed => write!(f, "peer closed the connection mid-frame"),
            TransportError::FrameTooLarge { declared, limit } => write!(
                f,
                "frame of {declared} bytes exceeds the {limit}-byte guard"
            ),
            TransportError::BadEnvelope { message } => write!(f, "bad envelope: {message}"),
            TransportError::ChecksumMismatch { expected, found } => write!(
                f,
                "payload checksum {found:016x} does not match envelope checksum {expected:016x}"
            ),
            TransportError::Wire(e) => write!(f, "wire protocol error: {e}"),
            TransportError::UnexpectedFrame { expected, found } => {
                write!(f, "expected {expected} frame, got {found} frame")
            }
            TransportError::ConnectFailed { attempts, last } => {
                write!(f, "all {attempts} connection attempts failed; last: {last}")
            }
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            TransportError::Wire(e) => Some(e),
            TransportError::ConnectFailed { last, .. } => Some(last),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_kinds_map_to_typed_variants() {
        let timeout = TransportError::from_io(io::Error::new(io::ErrorKind::TimedOut, "t"));
        assert!(matches!(timeout, TransportError::Timeout));
        let would_block = TransportError::from_io(io::Error::new(io::ErrorKind::WouldBlock, "w"));
        assert!(matches!(would_block, TransportError::Timeout));
        let eof = TransportError::from_io(io::Error::new(io::ErrorKind::UnexpectedEof, "e"));
        assert!(matches!(eof, TransportError::ConnectionClosed));
        let other = TransportError::from_io(io::Error::new(io::ErrorKind::BrokenPipe, "b"));
        assert!(matches!(other, TransportError::Io(_)));
    }

    #[test]
    fn retryability_splits_weather_from_protocol_violations() {
        assert!(TransportError::Timeout.is_retryable());
        assert!(TransportError::ConnectionClosed.is_retryable());
        assert!(TransportError::ChecksumMismatch {
            expected: 1,
            found: 2
        }
        .is_retryable());
        assert!(!TransportError::FrameTooLarge {
            declared: 10,
            limit: 5
        }
        .is_retryable());
        assert!(!TransportError::BadEnvelope {
            message: "x".into()
        }
        .is_retryable());
        assert!(!TransportError::Wire(WireError::Truncated).is_retryable());
    }
}
