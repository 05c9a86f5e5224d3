//! Socket plumbing shared by client and server: the address vocabulary
//! ([`ServerAddr`]), the byte-stream abstraction the framing layer works
//! against ([`Transport`]), and the concrete TCP/unix-socket stream
//! ([`WireStream`]).

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::path::PathBuf;
use std::time::Duration;

/// Where a [`WireServer`](crate::WireServer) listens, or where a
/// [`WireClient`](crate::WireClient) connects.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ServerAddr {
    /// A TCP socket address. Port `0` asks the kernel for a free port;
    /// the server's `local_addr` reports the resolved one.
    Tcp(SocketAddr),
    /// A unix-domain socket path. Binding unlinks any stale socket file
    /// left by a killed process, which is what makes kill-and-restart on
    /// the same path work without a `TIME_WAIT`-style dance.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl ServerAddr {
    /// Loopback TCP on a kernel-assigned port — the default for tests.
    #[must_use]
    pub fn loopback() -> Self {
        ServerAddr::Tcp(SocketAddr::from(([127, 0, 0, 1], 0)))
    }

    /// A unix-domain socket at `path`.
    #[cfg(unix)]
    pub fn unix(path: impl Into<PathBuf>) -> Self {
        ServerAddr::Unix(path.into())
    }
}

impl fmt::Display for ServerAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerAddr::Tcp(addr) => write!(f, "tcp://{addr}"),
            #[cfg(unix)]
            ServerAddr::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// A bidirectional byte stream the framing layer can serve over.
///
/// The one capability beyond `Read + Write` is [`shutdown`](Self::shutdown),
/// which the fault injector uses to make the peer observe a genuine
/// mid-frame disconnect (EOF, not a timeout) and the server uses to close
/// connections deterministically.
pub trait Transport: Read + Write + Send {
    /// Closes both directions so the peer observes EOF.
    ///
    /// # Errors
    ///
    /// Propagates the socket's shutdown failure; already-closed sockets
    /// commonly report `NotConnected`, which callers may ignore.
    fn shutdown(&self) -> io::Result<()>;
}

/// A connected TCP or unix-domain socket.
#[derive(Debug)]
pub enum WireStream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl WireStream {
    /// Connects to `addr`, bounding the TCP handshake by `timeout`.
    ///
    /// Unix-domain connects are local rendezvous and carry no timeout in
    /// std; they fail fast (`ENOENT`/`ECONNREFUSED`) when no listener is
    /// home, which is what the client's retry loop wants.
    ///
    /// # Errors
    ///
    /// Any socket-level connect failure, untranslated — the caller
    /// ([`WireClient`](crate::WireClient)) folds it into its retry loop.
    pub fn connect(addr: &ServerAddr, timeout: Duration) -> io::Result<Self> {
        match addr {
            ServerAddr::Tcp(sa) => TcpStream::connect_timeout(sa, timeout).map(WireStream::Tcp),
            #[cfg(unix)]
            ServerAddr::Unix(path) => UnixStream::connect(path).map(WireStream::Unix),
        }
    }

    /// A connected unix socketpair — two ends of one in-process pipe,
    /// indistinguishable from a real connection to the framing layer.
    /// This is what the transport proptests stream frames over.
    ///
    /// # Errors
    ///
    /// Propagates `socketpair(2)` failure.
    #[cfg(unix)]
    pub fn pair() -> io::Result<(WireStream, WireStream)> {
        let (a, b) = UnixStream::pair()?;
        Ok((WireStream::Unix(a), WireStream::Unix(b)))
    }

    /// A second handle on the same connection (`dup(2)`).
    pub(crate) fn try_clone(&self) -> io::Result<WireStream> {
        match self {
            WireStream::Tcp(s) => s.try_clone().map(WireStream::Tcp),
            #[cfg(unix)]
            WireStream::Unix(s) => s.try_clone().map(WireStream::Unix),
        }
    }

    /// Shuts down one or both halves of the connection. After
    /// `Shutdown::Read`, a read blocked on any handle returns the bytes
    /// already queued and then end of stream; writes still go out.
    pub(crate) fn shutdown_half(&self, how: Shutdown) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.shutdown(how),
            #[cfg(unix)]
            WireStream::Unix(s) => s.shutdown(how),
        }
    }

    /// Arms per-connection read/write deadlines. `None` means block
    /// forever (never used by the server, whose read timeout doubles as
    /// its slow-loris guard).
    ///
    /// # Errors
    ///
    /// Propagates `setsockopt` failure.
    pub fn set_timeouts(&self, read: Option<Duration>, write: Option<Duration>) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => {
                s.set_read_timeout(read)?;
                s.set_write_timeout(write)
            }
            #[cfg(unix)]
            WireStream::Unix(s) => {
                s.set_read_timeout(read)?;
                s.set_write_timeout(write)
            }
        }
    }
}

impl Read for WireStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            WireStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for WireStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            WireStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            WireStream::Unix(s) => s.flush(),
        }
    }
}

impl Transport for WireStream {
    fn shutdown(&self) -> io::Result<()> {
        self.shutdown_half(Shutdown::Both)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_display_with_scheme_prefixes() {
        let tcp = ServerAddr::Tcp(SocketAddr::from(([127, 0, 0, 1], 4455)));
        assert_eq!(tcp.to_string(), "tcp://127.0.0.1:4455");
        #[cfg(unix)]
        {
            let unix = ServerAddr::unix("/tmp/mdq.sock");
            assert_eq!(unix.to_string(), "unix:///tmp/mdq.sock");
        }
    }

    #[cfg(unix)]
    #[test]
    fn socketpair_carries_bytes_both_ways() {
        let (mut a, mut b) = WireStream::pair().expect("socketpair");
        a.write_all(b"ping").expect("write");
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").expect("write back");
        a.read_exact(&mut buf).expect("read back");
        assert_eq!(&buf, b"pong");
    }
}
