//! The blocking client side of the transport: connect with retry and
//! exponential backoff, send one request frame, read back one report or
//! error frame. No async runtime — one [`WireClient`] per submitting
//! thread, mirroring how the in-process engine hands one
//! [`JobHandle`](mdq_engine::JobHandle) to one waiter.

use std::fmt;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mdq_engine::wire::{ErrorFrame, Frame, ReportFrame, RequestFrame};

use crate::error::TransportError;
use crate::fault::{Fault, FaultyStream};
use crate::frame::{write_frame, FrameReader};
use crate::stream::{ServerAddr, Transport, WireStream};

/// A per-connection fault schedule: maps the client's 0-based connection
/// counter to the faults that connection should suffer. Tests install
/// one via [`ClientConfig::with_faults`]; production clients have none.
pub type FaultSchedule = Arc<dyn Fn(u64) -> Vec<Fault> + Send + Sync>;

/// Tuning for a [`WireClient`].
#[derive(Clone)]
pub struct ClientConfig {
    connect_attempts: u32,
    connect_timeout: Duration,
    initial_backoff: Duration,
    max_backoff: Duration,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    max_frame_bytes: usize,
    faults: Option<FaultSchedule>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_attempts: 5,
            connect_timeout: Duration::from_secs(2),
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_frame_bytes: 16 << 20,
            faults: None,
        }
    }
}

impl ClientConfig {
    /// The defaults: 5 connect attempts, 10 ms → 500 ms backoff, 30 s
    /// read/write deadlines, 16 MiB frame guard, no faults.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// How many times one reconnect loop tries before giving up with
    /// [`TransportError::ConnectFailed`] (minimum 1).
    #[must_use]
    pub fn with_connect_attempts(mut self, attempts: u32) -> Self {
        self.connect_attempts = attempts.max(1);
        self
    }

    /// Deadline for a single TCP connect.
    #[must_use]
    pub fn with_connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = timeout;
        self
    }

    /// Backoff between attempts: starts at `initial`, doubles, caps at
    /// `max`. Applies to both reconnects and call retries.
    #[must_use]
    pub fn with_backoff(mut self, initial: Duration, max: Duration) -> Self {
        self.initial_backoff = initial;
        self.max_backoff = max;
        self
    }

    /// Read deadline per reply: it bounds the wait for a reply's first
    /// byte, and the reply from its first byte to its last (a reply that
    /// trickles in is cut off within twice the deadline). `None` blocks
    /// forever (not recommended against a server that can restart).
    #[must_use]
    pub fn with_read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Write deadline per request.
    #[must_use]
    pub fn with_write_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.write_timeout = timeout;
        self
    }

    /// Largest reply payload the client will buffer.
    #[must_use]
    pub fn with_max_frame_bytes(mut self, limit: usize) -> Self {
        self.max_frame_bytes = limit;
        self
    }

    /// Installs a fault schedule: every new connection is wrapped in a
    /// [`FaultyStream`] carrying `schedule(connection_index)`. This is
    /// how the chaos tests push faults through the *real* client path.
    #[must_use]
    pub fn with_faults(
        mut self,
        schedule: impl Fn(u64) -> Vec<Fault> + Send + Sync + 'static,
    ) -> Self {
        self.faults = Some(Arc::new(schedule));
        self
    }
}

impl fmt::Debug for ClientConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClientConfig")
            .field("connect_attempts", &self.connect_attempts)
            .field("connect_timeout", &self.connect_timeout)
            .field("initial_backoff", &self.initial_backoff)
            .field("max_backoff", &self.max_backoff)
            .field("read_timeout", &self.read_timeout)
            .field("write_timeout", &self.write_timeout)
            .field("max_frame_bytes", &self.max_frame_bytes)
            .field("faults", &self.faults.as_ref().map(|_| "<schedule>"))
            .finish()
    }
}

/// What a healthy round-trip brought back: the server accepted the
/// connection, parsed the request, and answered with exactly one frame.
#[derive(Debug)]
pub enum ServerReply {
    /// The job ran; the report is bit-exact.
    Report(Box<ReportFrame>),
    /// The service refused or failed the job — a typed outcome, not a
    /// transport failure. Quota refusals and full queues land here.
    Refused(ErrorFrame),
}

impl ServerReply {
    /// The report, if the job completed.
    #[must_use]
    pub fn report(self) -> Option<ReportFrame> {
        match self {
            ServerReply::Report(report) => Some(*report),
            ServerReply::Refused(_) => None,
        }
    }

    /// The refusal, if the service turned the job away.
    #[must_use]
    pub fn refusal(&self) -> Option<&ErrorFrame> {
        match self {
            ServerReply::Report(_) => None,
            ServerReply::Refused(e) => Some(e),
        }
    }
}

/// A blocking `mdqwire` client over TCP or a unix socket.
///
/// Reconnects lazily: a transport failure drops the connection and the
/// next call dials again (with backoff). The connection counter feeds
/// the fault schedule, so chaos tests can address "connection 7" exactly.
pub struct WireClient {
    addr: ServerAddr,
    config: ClientConfig,
    conn: Option<Box<dyn Transport>>,
    reader: FrameReader,
    connections: u64,
    retries: u64,
}

impl fmt::Debug for WireClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WireClient")
            .field("addr", &self.addr)
            .field("connected", &self.conn.is_some())
            .field("connections", &self.connections)
            .field("retries", &self.retries)
            .finish()
    }
}

impl WireClient {
    /// Connects eagerly (with the config's retry/backoff), so an
    /// unreachable server fails here rather than on the first call.
    ///
    /// # Errors
    ///
    /// [`TransportError::ConnectFailed`] after every attempt fails.
    pub fn connect(addr: ServerAddr, config: ClientConfig) -> Result<Self, TransportError> {
        let reader =
            FrameReader::new(config.max_frame_bytes).with_frame_deadline(config.read_timeout);
        let mut client = WireClient {
            addr,
            config,
            conn: None,
            reader,
            connections: 0,
            retries: 0,
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// Where this client dials.
    #[must_use]
    pub fn addr(&self) -> &ServerAddr {
        &self.addr
    }

    /// How many connections this client has opened (reconnects
    /// included).
    #[must_use]
    pub fn connections(&self) -> u64 {
        self.connections
    }

    /// How many call retries [`call_with_retry`](Self::call_with_retry)
    /// has burned.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Drops the current connection; the next call redials.
    pub fn disconnect(&mut self) {
        if let Some(conn) = self.conn.take() {
            let _ = conn.shutdown();
        }
        self.reader.clear();
    }

    /// One request → one reply. Any transport failure drops the
    /// connection before returning, so the next call starts clean.
    ///
    /// A [`ServerReply::Refused`] is an `Ok`: the transport did its job;
    /// the *service* said no.
    ///
    /// # Errors
    ///
    /// Any [`TransportError`]; see [`TransportError::is_retryable`] for
    /// which ones a resend can fix.
    pub fn call(&mut self, request: &RequestFrame) -> Result<ServerReply, TransportError> {
        self.ensure_connected()?;
        let result = self.exchange(request);
        if result.is_err() {
            self.disconnect();
        }
        result
    }

    /// [`call`](Self::call), resubmitting on retryable weather, up to
    /// `attempts` total tries with the config's backoff between them.
    ///
    /// A [`ErrorFrame::BadFrame`] reply is also retried: it means the
    /// request bytes were mangled in flight (the server never admitted
    /// the job), so resending the intact bytes is safe and loses
    /// nothing. All other refusals are genuine outcomes and returned.
    ///
    /// # Errors
    ///
    /// The last failure, when every attempt burned.
    pub fn call_with_retry(
        &mut self,
        request: &RequestFrame,
        attempts: u32,
    ) -> Result<ServerReply, TransportError> {
        let attempts = attempts.max(1);
        let mut backoff = self.config.initial_backoff;
        let mut attempt = 0;
        loop {
            let outcome = self.call(request);
            attempt += 1;
            let last = attempt >= attempts;
            match outcome {
                Ok(ServerReply::Refused(ErrorFrame::BadFrame { .. })) if !last => {
                    // The server saw garbage where our request should
                    // be: it closed the connection without admitting
                    // anything, so resubmit over a fresh one.
                    self.disconnect();
                }
                Ok(reply) => return Ok(reply),
                Err(e) if e.is_retryable() && !last => {}
                Err(e) => return Err(e),
            }
            self.retries += 1;
            thread::sleep(backoff);
            backoff = (backoff * 2).min(self.config.max_backoff);
        }
    }

    /// The unguarded write→read on the live connection.
    fn exchange(&mut self, request: &RequestFrame) -> Result<ServerReply, TransportError> {
        let conn = self.conn.as_mut().expect("ensure_connected ran");
        write_frame(conn, &Frame::Request(request.clone()))?;
        let text = self
            .reader
            .read_frame(conn)?
            .ok_or(TransportError::ConnectionClosed)?;
        match Frame::parse(&text)? {
            Frame::Report(report) => Ok(ServerReply::Report(Box::new(report))),
            Frame::Error(error) => Ok(ServerReply::Refused(error)),
            Frame::Request(_) => Err(TransportError::UnexpectedFrame {
                expected: "report or error",
                found: "request",
            }),
        }
    }

    /// Dials until connected or attempts run out, wrapping the new
    /// stream in the fault schedule when one is installed.
    fn ensure_connected(&mut self) -> Result<(), TransportError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut backoff = self.config.initial_backoff;
        let mut last: Option<std::io::Error> = None;
        for attempt in 0..self.config.connect_attempts {
            if attempt > 0 {
                thread::sleep(backoff);
                backoff = (backoff * 2).min(self.config.max_backoff);
            }
            match WireStream::connect(&self.addr, self.config.connect_timeout) {
                Ok(stream) => {
                    stream.set_timeouts(self.config.read_timeout, self.config.write_timeout)?;
                    let index = self.connections;
                    self.connections += 1;
                    self.reader.clear();
                    self.conn = Some(match &self.config.faults {
                        Some(schedule) => Box::new(FaultyStream::new(stream, schedule(index))),
                        None => Box::new(stream),
                    });
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
        }
        Err(TransportError::ConnectFailed {
            attempts: self.config.connect_attempts,
            last: last.unwrap_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::NotConnected, "no attempt ran")
            }),
        })
    }
}

// The client moves whole to whichever thread owns it; the boxed stream
// keeps it `Send` but deliberately not `Sync` — one caller at a time.
const fn assert_send<T: Send>() {}
const _: () = {
    assert_send::<WireClient>();
    assert_send::<ClientConfig>();
    assert_send::<ServerReply>();
};
