//! The serving side: a [`WireServer`] that listens on TCP or a unix
//! socket, reads enveloped `mdqwire` request frames on a bounded pool of
//! handler threads, drives them through a [`Backend`], and writes back
//! exactly one report or error frame per request.
//!
//! Everything is std: a nonblocking accept loop polled against a stop
//! flag, a bounded `sync_channel` handing accepted connections to the
//! pool (so a connection flood backpressures into the kernel's listen
//! queue instead of spawning unbounded threads), per-connection socket
//! deadlines doing double duty as the slow-loris guard, and one slot per
//! handler holding a second handle on its connection, through which a
//! shutdown wakes a handler blocked on an idle client.

use std::fs;
use std::io;
use std::net::{Shutdown, TcpListener};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use mdq_engine::wire::{ErrorFrame, Frame, ReportFrame, RequestFrame};
use mdq_engine::{AdmissionError, EngineService};
use mdq_router::{Router, RouterError, TenantId};

use crate::error::TransportError;
use crate::frame::{write_frame, FrameReader};
use crate::stream::{ServerAddr, Transport, WireStream};

/// What a [`WireServer`] serves: one engine, or a sharded router.
///
/// The request→reply mapping is the hand-back-by-value refusal idiom
/// made remote: `QueueFull`, `TenantOverQuota`, `NoShards` come back as
/// typed error frames, and the *client* still holds the original request
/// bytes to resubmit — nothing about a refusal is lost in transit.
#[derive(Debug)]
pub enum Backend {
    /// A single engine — one shard, no tenancy.
    Service(EngineService),
    /// A sharded router; the request frame's tenant id (0 when absent)
    /// selects the quota ledger. Boxed: a `Router` is an order of
    /// magnitude larger than an `EngineService` handle.
    Router(Box<Router>),
}

impl Backend {
    /// The router, when this backend is one.
    #[must_use]
    pub fn router(&self) -> Option<&Router> {
        match self {
            Backend::Router(router) => Some(router.as_ref()),
            Backend::Service(_) => None,
        }
    }

    /// The engine, when this backend is one.
    #[must_use]
    pub fn service(&self) -> Option<&EngineService> {
        match self {
            Backend::Service(service) => Some(service),
            Backend::Router(_) => None,
        }
    }

    /// Runs one request to its terminal frame: a report, or a typed
    /// error. Blocks for the job's duration — the caller is a handler
    /// thread whose whole purpose is to wait here.
    #[must_use]
    pub fn serve(&self, frame: RequestFrame) -> Frame {
        let dims = frame.request.dims.clone();
        match self {
            Backend::Service(service) => match service.try_submit(frame.request) {
                Ok(handle) => match handle.wait() {
                    Ok(report) => Frame::Report(ReportFrame { dims, report }),
                    Err(e) => Frame::Error(ErrorFrame::from_engine(&e)),
                },
                Err(AdmissionError { error, .. }) => Frame::Error(ErrorFrame::from_engine(&error)),
            },
            Backend::Router(router) => {
                let tenant = TenantId(frame.tenant.unwrap_or(0));
                match router.submit(tenant, frame.request) {
                    Ok(handle) => match handle.wait() {
                        Ok(report) => Frame::Report(ReportFrame { dims, report }),
                        Err(e) => Frame::Error(ErrorFrame::from_engine(&e)),
                    },
                    Err(RouterError::TenantOverQuota {
                        tenant,
                        in_flight,
                        limit,
                        ..
                    }) => Frame::Error(ErrorFrame::TenantOverQuota {
                        tenant: tenant.0,
                        in_flight,
                        limit,
                    }),
                    Err(RouterError::NoShards { .. }) => Frame::Error(ErrorFrame::NoShards),
                    Err(RouterError::ShardRefused { error, .. }) => {
                        Frame::Error(ErrorFrame::from_engine(&error))
                    }
                }
            }
        }
    }

    /// Shuts the backend down gracefully — the engine path drains its
    /// queue; the router path also writes per-shard warm snapshots when
    /// configured, which is what makes a killed-and-restarted remote
    /// shard start warm.
    pub fn shutdown(self) {
        match self {
            Backend::Service(service) => service.shutdown(),
            Backend::Router(router) => router.shutdown(),
        }
    }
}

/// Tuning for a [`WireServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    handler_threads: usize,
    pending_connections: usize,
    read_timeout: Duration,
    write_timeout: Duration,
    max_frame_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            handler_threads: 4,
            pending_connections: 16,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_frame_bytes: 16 << 20,
        }
    }
}

impl ServerConfig {
    /// The defaults: 4 handler threads, 16 pending connections, 5 s
    /// read/write deadlines, 16 MiB frame guard.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Size of the handler pool (minimum 1). Each in-flight connection
    /// occupies one handler for the duration of its current request.
    #[must_use]
    pub fn with_handler_threads(mut self, threads: usize) -> Self {
        self.handler_threads = threads.max(1);
        self
    }

    /// How many accepted-but-unclaimed connections may queue between
    /// the accept loop and the pool (minimum 1) before accepting stalls.
    #[must_use]
    pub fn with_pending_connections(mut self, depth: usize) -> Self {
        self.pending_connections = depth.max(1);
        self
    }

    /// Per-connection read deadline — also the slow-loris guard: a peer
    /// that dribbles a frame slower than this gets closed, not waited
    /// on.
    #[must_use]
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Per-connection write deadline.
    #[must_use]
    pub fn with_write_timeout(mut self, timeout: Duration) -> Self {
        self.write_timeout = timeout;
        self
    }

    /// Largest request payload the server will buffer; bigger
    /// declarations are refused before allocation with a `bad-frame`
    /// error reply.
    #[must_use]
    pub fn with_max_frame_bytes(mut self, limit: usize) -> Self {
        self.max_frame_bytes = limit;
        self
    }
}

/// Counters a running server exposes; cheap relaxed atomics, snapshot
/// via [`WireServer::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Report frames served.
    pub reports: u64,
    /// Error frames served (service refusals and failures).
    pub error_replies: u64,
    /// Connections dropped for unparseable bytes (bad envelope,
    /// checksum mismatch, non-request frame, wire parse failure).
    pub bad_frames: u64,
    /// Connections closed by the read deadline (slow-loris, idle).
    pub timeouts: u64,
    /// Connections refused for declaring an over-limit frame.
    pub oversized: u64,
}

#[derive(Debug, Default)]
struct StatsInner {
    accepted: AtomicU64,
    reports: AtomicU64,
    error_replies: AtomicU64,
    bad_frames: AtomicU64,
    timeouts: AtomicU64,
    oversized: AtomicU64,
}

impl StatsInner {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            reports: self.reports.load(Ordering::Relaxed),
            error_replies: self.error_replies.load(Ordering::Relaxed),
            bad_frames: self.bad_frames.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            oversized: self.oversized.load(Ordering::Relaxed),
        }
    }
}

/// The listening half, unified over TCP and unix sockets.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<WireStream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| WireStream::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| WireStream::Unix(s)),
        }
    }
}

/// A second handle on the connection one handler thread is serving, if
/// any; a drain closes its read half.
type ConnectionSlot = Mutex<Option<WireStream>>;

/// Locks a slot. Every write stores a whole `Option`, so a slot is
/// consistent even after a panic elsewhere poisoned it.
fn lock(slot: &ConnectionSlot) -> MutexGuard<'_, Option<WireStream>> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A serving `mdqwire` endpoint over TCP or a unix socket.
///
/// Owns its [`Backend`]: [`shutdown`](Self::shutdown) stops accepting,
/// drains in-flight connections (every request already being served gets
/// its reply), joins the pool, and then shuts the backend down — which
/// snapshots router shards so a restart on the same address starts warm.
pub struct WireServer {
    backend: Option<Arc<Backend>>,
    addr: ServerAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
    serving: Arc<[ConnectionSlot]>,
    stats: Arc<StatsInner>,
    unix_path: Option<PathBuf>,
}

impl std::fmt::Debug for WireServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireServer")
            .field("addr", &self.addr)
            .field("handlers", &self.handlers.len())
            .finish()
    }
}

impl WireServer {
    /// Binds and starts serving immediately.
    ///
    /// TCP port 0 resolves to a kernel-assigned port (see
    /// [`local_addr`](Self::local_addr)); a unix path unlinks any stale
    /// socket file first, so kill-and-rebind on the same path works.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] when the bind itself fails (address in
    /// use, permission, bad path).
    pub fn bind(
        addr: &ServerAddr,
        backend: Backend,
        config: ServerConfig,
    ) -> Result<Self, TransportError> {
        let mut unix_path = None;
        let (listener, bound) = match addr {
            ServerAddr::Tcp(sa) => {
                let listener = TcpListener::bind(sa).map_err(TransportError::Io)?;
                listener.set_nonblocking(true).map_err(TransportError::Io)?;
                let local = listener.local_addr().map_err(TransportError::Io)?;
                (Listener::Tcp(listener), ServerAddr::Tcp(local))
            }
            #[cfg(unix)]
            ServerAddr::Unix(path) => {
                match fs::remove_file(path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(TransportError::Io(e)),
                }
                let listener = UnixListener::bind(path).map_err(TransportError::Io)?;
                listener.set_nonblocking(true).map_err(TransportError::Io)?;
                unix_path = Some(path.clone());
                (Listener::Unix(listener), ServerAddr::Unix(path.clone()))
            }
        };

        let backend = Arc::new(backend);
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsInner::default());
        let (tx, rx) = sync_channel::<WireStream>(config.pending_connections);
        let rx = Arc::new(Mutex::new(rx));

        let accept = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            thread::spawn(move || accept_loop(&listener, &tx, &stop, &stats))
        };
        let serving: Arc<[ConnectionSlot]> = (0..config.handler_threads)
            .map(|_| Mutex::new(None))
            .collect();
        let handlers = (0..config.handler_threads)
            .map(|index| {
                let rx = Arc::clone(&rx);
                let serving = Arc::clone(&serving);
                let backend = Arc::clone(&backend);
                let config = config.clone();
                let stop = Arc::clone(&stop);
                let stats = Arc::clone(&stats);
                thread::spawn(move || {
                    handler_loop(&rx, &serving[index], &backend, &config, &stop, &stats);
                })
            })
            .collect();

        Ok(WireServer {
            backend: Some(backend),
            addr: bound,
            stop,
            accept: Some(accept),
            handlers,
            serving,
            stats,
            unix_path,
        })
    }

    /// The bound address — with the kernel-assigned port resolved, when
    /// TCP port 0 was requested.
    #[must_use]
    pub fn local_addr(&self) -> &ServerAddr {
        &self.addr
    }

    /// The live backend, for quota edits and stats mid-serve.
    #[must_use]
    pub fn backend(&self) -> &Backend {
        self.backend.as_ref().expect("backend lives until shutdown")
    }

    /// A snapshot of the serving counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.stats.snapshot()
    }

    /// Stops accepting, drains in-flight connections, joins the pool,
    /// and shuts the backend down gracefully (router shards write their
    /// warm snapshots here).
    ///
    /// The drain does not wait out read deadlines: it shuts down the read
    /// half of every connection a handler is serving. A handler waiting
    /// on an idle client then sees end of stream and closes the
    /// connection at once. A request already being served still gets its
    /// reply, since the write half stays open. A frame only partly
    /// received when the read half closes is dropped without a reply: the
    /// handler reads the bytes already queued, sees end of stream, and
    /// closes the connection, and the client's call fails with a
    /// retryable transport error.
    pub fn shutdown(self) {
        if let Some(backend) = self.drain_and_take() {
            backend.shutdown();
        }
    }

    /// Like [`shutdown`](Self::shutdown), but hands the still-running
    /// backend back instead of stopping it — for handing the same
    /// router to a fresh listener.
    #[must_use]
    pub fn into_backend(self) -> Backend {
        self.drain_and_take().expect("backend lives until shutdown")
    }

    /// Stops threads and recovers sole ownership of the backend.
    fn drain_and_take(mut self) -> Option<Backend> {
        self.drain();
        let backend = self.backend.take()?;
        drop(self);
        // All handler threads are joined, so theirs were the only other
        // clones.
        Some(Arc::try_unwrap(backend).unwrap_or_else(|_| panic!("backend Arc leaked")))
    }

    /// Stops the accept loop, wakes handlers blocked on idle clients,
    /// and joins every thread. Idempotent.
    fn drain(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Handlers check the stop flag only between frames; one blocked
        // reading from an idle client would sleep out its read deadline.
        for slot in self.serving.iter() {
            if let Some(stream) = lock(slot).as_ref() {
                let _ = stream.shutdown_half(Shutdown::Read);
            }
        }
        for handle in self.handlers.drain(..) {
            let _ = handle.join();
        }
        if let Some(path) = self.unix_path.take() {
            let _ = fs::remove_file(path);
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Polls the nonblocking listener against the stop flag; hands accepted
/// streams to the bounded pool channel (blocking when the pool is
/// saturated — backpressure, not unbounded memory).
fn accept_loop(
    listener: &Listener,
    tx: &SyncSender<WireStream>,
    stop: &AtomicBool,
    stats: &StatsInner,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(stream) => {
                stats.accepted.fetch_add(1, Ordering::Relaxed);
                if tx.send(stream).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(1));
            }
            Err(_) => thread::sleep(Duration::from_millis(1)),
        }
    }
    // Dropping `tx` closes the channel; handlers drain what's queued
    // and exit.
}

/// One pool thread: claim a connection, serve it to completion, repeat
/// until the channel closes.
fn handler_loop(
    rx: &Mutex<Receiver<WireStream>>,
    slot: &ConnectionSlot,
    backend: &Backend,
    config: &ServerConfig,
    stop: &AtomicBool,
    stats: &StatsInner,
) {
    loop {
        let next = {
            let guard = rx.lock().expect("connection queue poisoned");
            guard.recv()
        };
        let Ok(stream) = next else { break };
        // Filled before `handle_connection` first reads the stop flag, so
        // a drain either finds this handle or has already raised the flag.
        // A failed `dup` leaves only the read deadline to end an idle wait.
        *lock(slot) = stream.try_clone().ok();
        handle_connection(stream, backend, config, stop, stats);
        *lock(slot) = None;
    }
}

/// Serves one connection: frames in, replies out, until EOF, a
/// deadline, unparseable bytes, or shutdown.
fn handle_connection(
    mut stream: WireStream,
    backend: &Backend,
    config: &ServerConfig,
    stop: &AtomicBool,
    stats: &StatsInner,
) {
    if stream
        .set_timeouts(Some(config.read_timeout), Some(config.write_timeout))
        .is_err()
    {
        return;
    }
    let mut reader = FrameReader::new(config.max_frame_bytes);
    loop {
        // Between frames is the drain point: a request already being
        // served always gets its reply; the *next* frame does not start
        // once shutdown is underway.
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match reader.read_frame(&mut stream) {
            Ok(Some(text)) => match Frame::parse(&text) {
                Ok(Frame::Request(request)) => {
                    let reply = backend.serve(request);
                    match &reply {
                        Frame::Report(_) => stats.reports.fetch_add(1, Ordering::Relaxed),
                        _ => stats.error_replies.fetch_add(1, Ordering::Relaxed),
                    };
                    if write_frame(&mut stream, &reply).is_err() {
                        break;
                    }
                }
                Ok(_) => {
                    stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                    reply_bad_frame(&mut stream, "expected a request frame");
                    break;
                }
                Err(e) => {
                    stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                    reply_bad_frame(&mut stream, &e.to_string());
                    break;
                }
            },
            Ok(None) => break,
            Err(TransportError::Timeout) => {
                stats.timeouts.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Err(TransportError::FrameTooLarge { declared, limit }) => {
                stats.oversized.fetch_add(1, Ordering::Relaxed);
                reply_bad_frame(
                    &mut stream,
                    &format!("frame of {declared} bytes exceeds the {limit}-byte guard"),
                );
                break;
            }
            Err(
                e @ (TransportError::BadEnvelope { .. } | TransportError::ChecksumMismatch { .. }),
            ) => {
                stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                reply_bad_frame(&mut stream, &e.to_string());
                break;
            }
            Err(_) => break,
        }
    }
    let _ = stream.shutdown();
}

/// Best-effort `bad-frame` reply; the connection closes right after, so
/// a failed write loses nothing the peer could have used.
fn reply_bad_frame(stream: &mut WireStream, message: &str) {
    let frame = Frame::Error(ErrorFrame::BadFrame {
        message: message.to_owned(),
    });
    let _ = write_frame(stream, &frame);
}

// The server is shared by reference (stats, backend access) while its
// threads run; everything it hands across threads is audited here.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<WireServer>();
    assert_send_sync::<ServerConfig>();
    assert_send_sync::<ServerStats>();
    assert_send_sync::<Backend>();
};

#[cfg(test)]
mod tests {
    use std::io::Read;
    use std::time::Instant;

    use mdq_core::PrepareOptions;
    use mdq_engine::{EngineConfig, PrepareRequest};
    use mdq_num::radix::Dims;
    use mdq_states::ghz;

    use super::*;
    use crate::{ClientConfig, WireClient};

    fn serve(read_timeout: Duration) -> WireServer {
        let backend = Backend::Service(EngineService::new(EngineConfig::default().with_workers(1)));
        let config = ServerConfig::new().with_read_timeout(read_timeout);
        WireServer::bind(&ServerAddr::loopback(), backend, config).expect("bind loopback")
    }

    fn ghz_frame() -> RequestFrame {
        let dims = Dims::new(vec![2, 3]).expect("valid register");
        let request = PrepareRequest::dense(dims.clone(), ghz(&dims), PrepareOptions::exact());
        RequestFrame {
            tenant: None,
            request,
        }
    }

    #[test]
    fn shutdown_closes_an_idle_connection_without_waiting_out_its_deadline() {
        let server = serve(Duration::from_secs(5));
        let mut client =
            WireClient::connect(server.local_addr().clone(), ClientConfig::new()).expect("connect");
        let frame = ghz_frame();
        let reply = client.call(&frame).expect("round trip");
        assert!(reply.report().is_some(), "the served call completes");

        // The client stays connected and silent: its handler is blocked
        // reading the next frame.
        let started = Instant::now();
        server.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "shutdown took {took:?}");

        let outcome = client.call(&frame);
        assert!(
            matches!(&outcome, Err(e) if e.is_retryable()),
            "a call on the closed connection resolves typed, got {outcome:?}"
        );
    }

    #[test]
    fn a_silent_peer_is_still_closed_by_the_read_deadline() {
        let server = serve(Duration::from_millis(100));
        let mut silent =
            WireStream::connect(server.local_addr(), Duration::from_secs(2)).expect("connect");
        silent
            .set_timeouts(Some(Duration::from_secs(5)), None)
            .expect("client deadline");
        let mut byte = [0u8; 1];
        assert_eq!(
            silent
                .read(&mut byte)
                .expect("the server closes, not resets"),
            0,
            "the server closes a silent connection at its read deadline"
        );
        assert_eq!(server.stats().timeouts, 1);
        server.shutdown();
    }
}
