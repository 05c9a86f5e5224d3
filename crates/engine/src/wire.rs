//! The `mdqwire` text protocol — full request/report/error frames.
//!
//! The sharded front-end (`mdq-router`) and any out-of-process client talk
//! to an engine in a versioned, line-oriented text form that extends the
//! raw-f64-bit conventions of [`mdq_circuit::serialize`] (circuits,
//! shortest-round-trip angles) and the engine's [`snapshot`](crate::snapshot)
//! format (16-hex-digit `f64` bit patterns, `secs:nanos` durations) to
//! whole [`PrepareRequest`]s, [`PrepareReport`]s, and typed service errors.
//!
//! Two properties carry the engine's serving contract across the wire:
//!
//! - **Bit-exact round trip.** Every amplitude, tolerance, threshold and
//!   fidelity travels as its raw bit pattern, and every circuit angle
//!   through shortest-round-trip float text — so a request routed through
//!   a front-end reaches the shard bit-identical to direct submission,
//!   and the report it gets back is bit-identical to the one the shard
//!   produced. Routing can therefore never weaken the engine's
//!   "bit-identical to [`prepare_sequential`]" guarantee.
//! - **Typed failures, never panics.** A truncated or corrupt frame parses
//!   to a [`WireError`] naming the offending line; nothing in this module
//!   panics on untrusted input (pinned by the `wire_proptest` proptests).
//!
//! Frames are written with the workspace's one text
//! [`Writer`], into one buffer sized up front (a
//! report's circuit is written in place), and read with its one byte
//! [`Cursor`] in a single pass — the same pair the
//! snapshot records and the `mdqc` circuit forms use. This module keeps
//! only the frame grammar; it has no line, field, hex or decimal parser
//! of its own.
//!
//! ## Format
//!
//! Every frame starts with a `mdqwire 1` header and closes with `end`:
//!
//! ```text
//! mdqwire 1
//! request tenant=<none|u64> priority=<low|normal|high>
//! dims <d0> <d1> …
//! opts fth=<none|hex16> tol=<hex16> pr=<0|1|2> skip=<0|1> dir=<0|1> red=<0|1> kzs=<0|1> ver=<none|hex16>
//! dense <re-hex16>:<im-hex16> …        (or: sparse <d0.d1…>:<re-hex16>:<im-hex16> …)
//! end
//! ```
//!
//! ```text
//! mdqwire 1
//! report from=<fresh|cache>
//! dims <d0> <d1> …
//! circuit <single-line mdqc instruction list>
//! synth ni=… nf=… dci=… dcf=… ops=… cmed=<hex16> cmean=<hex16> cmax=… rm=… pm=<hex16> fb=<hex16> t=<secs>:<nanos> tt=<secs>:<nanos>
//! verify none            (or: verify fid=<hex16> nodes=… t=<secs>:<nanos>)
//! timing elapsed=<secs>:<nanos> queue=<secs>:<nanos> admission=<secs>:<nanos>
//! end
//! ```
//!
//! ```text
//! mdqwire 1
//! error queue-full depth=64 limit=64
//! end
//! ```
//!
//! [`prepare_sequential`]: PrepareRequest::prepare_sequential

use std::fmt;
use std::sync::Arc;

use mdq_circuit::serialize::{self, Cursor, TextError, Writer};
use mdq_core::{Direction, PrepareOptions, ProductRule, VerificationPolicy};
use mdq_num::radix::Dims;
use mdq_num::{Complex, Tolerance};

use crate::request::{PrepareReport, PrepareRequest, StatePayload};
use crate::scheduler::Priority;
use crate::service::EngineError;
use crate::snapshot::{read_report_body, read_verification, write_report_body, write_verification};

/// The wire format version this build writes and accepts.
pub const VERSION: u32 = 1;

/// Why a frame could not be serialized or parsed.
#[derive(Debug)]
pub enum WireError {
    /// The text does not start with a `mdqwire` header — it is not a wire
    /// frame at all.
    NotAFrame,
    /// The frame declares an unsupported format version.
    Version {
        /// Version found in the frame header.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The text ends before the frame's `end` line.
    Truncated,
    /// A line could not be parsed.
    Corrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The frame could not be serialized: its circuit contains a gate
    /// without a textual form (an explicit unitary — the synthesis
    /// pipeline never emits those).
    Unserializable(serialize::SerializeError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::NotAFrame => write!(f, "not a wire frame"),
            WireError::Version { found, supported } => write!(
                f,
                "unsupported wire version {found} (this build supports {supported})"
            ),
            WireError::Truncated => write!(f, "wire frame is truncated"),
            WireError::Corrupt { line, message } => {
                write!(f, "corrupt wire frame at line {line}: {message}")
            }
            WireError::Unserializable(e) => write!(f, "frame cannot be serialized: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Unserializable(e) => Some(e),
            _ => None,
        }
    }
}

impl From<serialize::SerializeError> for WireError {
    fn from(e: serialize::SerializeError) -> Self {
        WireError::Unserializable(e)
    }
}

/// A preparation request in flight, tagged with the submitting tenant.
///
/// The tenant travels as a plain `u64` — the router's `TenantId` newtype
/// lives a crate above this one, and the engine itself is tenant-agnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Submitting tenant, when the front-end tracks one.
    pub tenant: Option<u64>,
    /// The request itself, bit-exact.
    pub request: PrepareRequest,
}

/// A completed preparation on its way back to the submitter.
///
/// Carries the register alongside the report because the single-line
/// circuit form ([`serialize::to_line`]) stores no `dims` of its own.
#[derive(Debug, Clone)]
pub struct ReportFrame {
    /// The register the circuit acts on.
    pub dims: Dims,
    /// The report, bit-exact (including queue/admission wait timings).
    pub report: PrepareReport,
}

/// A typed service failure crossing the wire; the textual twin of
/// [`EngineError`] plus the router's quota refusal.
///
/// [`EngineError::Prepare`] travels as its display message: pipeline
/// errors are rich structured values that the submitter only ever
/// inspects as text, so the wire does not attempt to reconstruct the
/// typed [`PrepareError`](mdq_core::PrepareError).
#[derive(Debug, Clone, PartialEq)]
pub enum ErrorFrame {
    /// The preparation pipeline rejected or failed the job.
    Prepare {
        /// Display form of the pipeline error.
        message: String,
    },
    /// The service shut down before the job ran.
    Shutdown,
    /// The service's queue is closed to new submissions.
    QueueClosed,
    /// Bounded admission refused the job.
    QueueFull {
        /// Queue depth observed at refusal.
        depth: usize,
        /// The configured bound.
        limit: usize,
    },
    /// The job ran but its replay fidelity missed the demanded floor.
    VerificationFailed {
        /// Raw bits of the measured fidelity.
        fidelity: u64,
        /// Raw bits of the demanded floor.
        threshold: u64,
    },
    /// The router refused the job because the tenant is at its quota.
    TenantOverQuota {
        /// The refused tenant.
        tenant: u64,
        /// The tenant's in-flight jobs at refusal.
        in_flight: usize,
        /// The tenant's in-flight limit.
        limit: usize,
    },
    /// The router has no shards on its ring — nothing can serve the job.
    NoShards,
    /// The peer sent bytes that do not parse as a request frame. The
    /// message is the parse failure's display form; the connection is
    /// expected to close after this reply, since a stream that produced
    /// garbage cannot be trusted to be at a frame boundary any more.
    BadFrame {
        /// Display form of the framing/parse failure.
        message: String,
    },
}

impl ErrorFrame {
    /// The wire form of an engine failure. Fidelity values keep their raw
    /// bits; the pipeline error keeps only its display message.
    #[must_use]
    pub fn from_engine(error: &EngineError) -> Self {
        match error {
            EngineError::Prepare(e) => ErrorFrame::Prepare {
                message: e.to_string(),
            },
            EngineError::Shutdown => ErrorFrame::Shutdown,
            EngineError::QueueClosed => ErrorFrame::QueueClosed,
            EngineError::QueueFull { depth, limit } => ErrorFrame::QueueFull {
                depth: *depth,
                limit: *limit,
            },
            EngineError::VerificationFailed {
                fidelity,
                threshold,
            } => ErrorFrame::VerificationFailed {
                fidelity: fidelity.to_bits(),
                threshold: threshold.to_bits(),
            },
        }
    }
}

/// One frame of the `mdqwire` protocol.
#[derive(Debug, Clone)]
pub enum Frame {
    /// A request on its way to a shard.
    Request(RequestFrame),
    /// A report on its way back.
    Report(ReportFrame),
    /// A typed failure on its way back.
    Error(ErrorFrame),
}

impl Frame {
    /// Serializes the frame to its `mdqwire` text (newline-terminated),
    /// in one buffer sized up front by the shared [`Writer`].
    ///
    /// Newlines inside a pipeline error message are replaced by spaces so
    /// a message can never break the line framing; every other field is
    /// written bit-exactly.
    ///
    /// # Errors
    ///
    /// [`WireError::Unserializable`] when a report's circuit holds an
    /// explicit-unitary gate (no textual form).
    pub fn to_text(&self) -> Result<String, WireError> {
        let mut w = Writer::with_capacity(self.text_capacity());
        w.str("mdqwire ").u64(VERSION.into()).str("\n");
        match self {
            Frame::Request(frame) => write_request(&mut w, frame),
            Frame::Report(frame) => write_report(&mut w, frame)?,
            Frame::Error(frame) => write_error(&mut w, frame),
        }
        w.str("end\n");
        Ok(w.into_string())
    }

    /// A size estimate of the frame's text, so that it is written into one
    /// allocation.
    fn text_capacity(&self) -> usize {
        256 + match self {
            Frame::Request(frame) => {
                let request = &frame.request;
                21 * request.dims.len()
                    + match &request.payload {
                        StatePayload::Dense(amplitudes) => 34 * amplitudes.len(),
                        StatePayload::Sparse(entries) => entries
                            .iter()
                            .map(|(digits, _)| 35 + 3 * digits.len())
                            .sum(),
                    }
            }
            Frame::Report(frame) => {
                21 * frame.dims.len() + serialize::line_capacity(&frame.report.circuit)
            }
            Frame::Error(ErrorFrame::Prepare { message } | ErrorFrame::BadFrame { message }) => {
                message.len()
            }
            Frame::Error(_) => 0,
        }
    }

    /// Parses one frame with the shared [`Cursor`], in one pass over the
    /// bytes. Trusts nothing: structural damage yields
    /// [`WireError::Truncated`] / [`WireError::Corrupt`] (with the 1-based
    /// offending line), never a panic — including tolerance bits that
    /// would violate [`Tolerance`]'s finite-and-non-negative invariant.
    ///
    /// The framing is **strict**: the text must be exactly the bytes
    /// [`Frame::to_text`] writes — `\n`-terminated ASCII lines ending at
    /// the frame's `end` line, nothing before, after, or in between.
    /// Carriage returns (CRLF encodings), a missing terminator newline,
    /// bytes after `end\n`, and non-canonical version tokens (`01`, `+1`)
    /// are all typed errors. Anything looser would let two peers disagree
    /// about where a frame stops on a byte stream, and would break the
    /// canonicality contract (`parse` then `to_text` reproduces the input
    /// byte for byte).
    ///
    /// # Errors
    ///
    /// See [`WireError`].
    pub fn parse(text: &str) -> Result<Self, WireError> {
        if text.is_empty() {
            return Err(WireError::NotAFrame);
        }
        if let Some(at) = text.find('\r') {
            return Err(WireError::Corrupt {
                line: text[..at].matches('\n').count() + 1,
                message: "carriage return: CRLF line endings are not part of the wire format"
                    .to_owned(),
            });
        }
        // The final `end` line must carry its newline: a frame that stops
        // at `…end` could still be a prefix of a longer, different stream.
        if !text.ends_with('\n') {
            return Err(WireError::Truncated);
        }
        let mut c = Cursor::new(text);
        let found = c
            .expect("mdqwire ")
            .and_then(|c| c.uint("version"))
            .ok()
            .filter(|_| c.eat("\n"))
            .ok_or(WireError::NotAFrame)?;
        if found != VERSION {
            return Err(WireError::Version {
                found,
                supported: VERSION,
            });
        }
        let frame = if c.starts_with("request") {
            Frame::Request(read_request(&mut c)?)
        } else if c.starts_with("report") {
            Frame::Report(read_report(&mut c)?)
        } else if c.starts_with("error") {
            Frame::Error(read_error(&mut c)?)
        } else if c.is_at_end() {
            return Err(WireError::Truncated);
        } else {
            return Err(c
                .corrupt("expected `request`, `report` or `error` line")
                .into());
        };
        c.line("end")?.end_line()?;
        if !c.is_at_end() {
            return Err(c.corrupt("unexpected content after `end`").into());
        }
        Ok(frame)
    }
}

impl From<TextError> for WireError {
    fn from(e: TextError) -> Self {
        match e {
            TextError::Truncated => WireError::Truncated,
            TextError::Corrupt { line, message } => WireError::Corrupt { line, message },
        }
    }
}

fn write_request(w: &mut Writer, frame: &RequestFrame) {
    let request = &frame.request;
    w.str("request tenant=");
    match frame.tenant {
        Some(id) => w.u64(id),
        None => w.str("none"),
    };
    w.str(match request.priority {
        Priority::Low => " priority=low",
        Priority::Normal => " priority=normal",
        Priority::High => " priority=high",
    });
    w.str("\ndims")
        .usizes(request.dims.as_slice())
        .str("\nopts");
    write_options(w, &request.options);
    match &request.payload {
        StatePayload::Dense(amplitudes) => {
            w.str("\ndense");
            for a in amplitudes {
                w.str(" ").hex(a.re.to_bits()).str(":").hex(a.im.to_bits());
            }
        }
        StatePayload::Sparse(entries) => {
            w.str("\nsparse");
            for (digits, a) in entries {
                w.str(" ");
                for (i, &digit) in digits.iter().enumerate() {
                    if i > 0 {
                        w.str(".");
                    }
                    w.usize(digit);
                }
                w.str(":").hex(a.re.to_bits()).str(":").hex(a.im.to_bits());
            }
        }
    }
    w.str("\n");
}

fn read_request(c: &mut Cursor) -> Result<RequestFrame, TextError> {
    let tenant = if c.line("request")?.expect(" tenant=")?.eat("none") {
        None
    } else {
        Some(c.uint("tenant")?)
    };
    let priority = match c.expect(" priority=")?.word() {
        "low" => Priority::Low,
        "normal" => Priority::Normal,
        "high" => Priority::High,
        other => return Err(c.corrupt(format!("bad priority: `{other}`"))),
    };
    c.end_line()?;
    let dims = read_dims(c)?;
    let options = read_options(c)?;
    if c.is_at_end() {
        return Err(TextError::Truncated);
    }
    let payload = match c.word() {
        "dense" => {
            let mut amplitudes = Vec::new();
            while c.eat(" ") {
                amplitudes.push(read_amplitude(c)?);
            }
            StatePayload::Dense(amplitudes)
        }
        "sparse" => {
            let mut entries = Vec::new();
            while c.eat(" ") {
                let mut digits = Vec::new();
                if !c.starts_with(":") {
                    digits.push(c.uint("sparse digit")?);
                    while c.eat(".") {
                        digits.push(c.uint("sparse digit")?);
                    }
                }
                c.expect(":")?;
                entries.push((digits, read_amplitude(c)?));
            }
            StatePayload::Sparse(entries)
        }
        _ => return Err(c.corrupt("expected `dense` or `sparse` line")),
    };
    c.end_line()?;
    Ok(RequestFrame {
        tenant,
        request: PrepareRequest {
            dims,
            payload,
            options,
            priority,
        },
    })
}

/// `<re-hex16>:<im-hex16>`.
fn read_amplitude(c: &mut Cursor) -> Result<Complex, TextError> {
    let re = c.hex("re bits")?;
    let im = c.expect(":")?.hex("im bits")?;
    Ok(Complex::new(f64::from_bits(re), f64::from_bits(im)))
}

/// The `dims` line, validated into a register.
fn read_dims(c: &mut Cursor) -> Result<Dims, TextError> {
    let dims = c.line("dims")?.uints("dimension")?;
    let dims = Dims::new(dims).map_err(|e| c.corrupt(format!("bad register: {e:?}")))?;
    c.end_line()?;
    Ok(dims)
}

/// The request-frame `opts` body: every [`PrepareOptions`] field, raw-bit.
/// Unlike the snapshot's `OptionsKey` (which stores the *effective*
/// `keep_zero_subtrees`), this is the request **as given** — the wire must
/// reproduce the submitted request exactly, and the receiving engine
/// re-derives every effective value itself.
fn write_options(w: &mut Writer, options: &PrepareOptions) {
    w.str(" fth=");
    match options.fidelity_threshold {
        Some(f) => w.hex(f.to_bits()),
        None => w.str("none"),
    };
    let synthesis = &options.synthesis;
    w.str(" tol=").hex(options.tolerance.value().to_bits());
    w.str(match synthesis.product_rule {
        ProductRule::Off => " pr=0",
        ProductRule::SharedChild => " pr=1",
        ProductRule::SharedChildOrSingle => " pr=2",
    });
    w.str(" skip=").u64(synthesis.skip_identities.into());
    w.str(match synthesis.direction {
        Direction::Prepare => " dir=0",
        Direction::Disentangle => " dir=1",
    });
    w.str(" red=").u64(options.reduce.into());
    w.str(" kzs=").u64(options.keep_zero_subtrees.into());
    w.str(" ver=");
    match options.verification {
        VerificationPolicy::Off => w.str("none"),
        VerificationPolicy::Replay { min_fidelity } => w.hex(min_fidelity.to_bits()),
    };
}

fn read_options(c: &mut Cursor) -> Result<PrepareOptions, TextError> {
    let mut options = PrepareOptions::exact();
    options.fidelity_threshold = if c.line("opts")?.expect(" fth=")?.eat("none") {
        None
    } else {
        Some(f64::from_bits(c.hex("fidelity threshold")?))
    };
    // `Tolerance::new` panics outside its invariant; a frame carrying such
    // bits is corrupt, not a crash.
    let tol = f64::from_bits(c.expect(" tol=")?.hex("tolerance")?);
    if !(tol.is_finite() && tol >= 0.0) {
        return Err(c.corrupt(format!(
            "tolerance must be finite and non-negative, got bits of {tol}"
        )));
    }
    options.tolerance = Tolerance::new(tol);
    options.synthesis.product_rule = match c.expect(" pr=")?.word() {
        "0" => ProductRule::Off,
        "1" => ProductRule::SharedChild,
        "2" => ProductRule::SharedChildOrSingle,
        other => return Err(c.corrupt(format!("bad product rule: `{other}`"))),
    };
    options.synthesis.skip_identities = c.expect(" skip=")?.flag("skip")?;
    options.synthesis.direction = if c.expect(" dir=")?.flag("direction")? {
        Direction::Disentangle
    } else {
        Direction::Prepare
    };
    options.reduce = c.expect(" red=")?.flag("red")?;
    options.keep_zero_subtrees = c.expect(" kzs=")?.flag("kzs")?;
    options.verification = if c.expect(" ver=")?.eat("none") {
        VerificationPolicy::Off
    } else {
        VerificationPolicy::Replay {
            min_fidelity: f64::from_bits(c.hex("verification floor")?),
        }
    };
    c.end_line()?;
    Ok(options)
}

/// The report frame, its circuit written in place.
fn write_report(w: &mut Writer, frame: &ReportFrame) -> Result<(), WireError> {
    let report = &frame.report;
    w.str(if report.from_cache {
        "report from=cache"
    } else {
        "report from=fresh"
    });
    w.str("\ndims")
        .usizes(frame.dims.as_slice())
        .str("\ncircuit ");
    w.circuit_line(&report.circuit)?.str("\nsynth");
    write_report_body(w, &report.report);
    w.str("\nverify");
    write_verification(w, report.verification.as_ref());
    w.str("\ntiming elapsed=").duration(report.elapsed);
    w.str(" queue=").duration(report.queue_wait);
    w.str(" admission=")
        .duration(report.admission_wait)
        .str("\n");
    Ok(())
}

fn read_report(c: &mut Cursor) -> Result<ReportFrame, TextError> {
    let from_cache = match c.line("report")?.expect(" from=")?.word() {
        "fresh" => false,
        "cache" => true,
        other => return Err(c.corrupt(format!("bad report origin: `{other}`"))),
    };
    c.end_line()?;
    let dims = read_dims(c)?;
    c.line("circuit")?.eat(" ");
    let circuit = c
        .circuit_line(dims.clone())
        .map_err(|e| c.corrupt(format!("bad circuit: {e}")))?;
    c.end_line()?;
    let report = read_report_body(c.line("synth")?)?;
    let verification = read_verification(c.line("verify")?)?;
    let elapsed = c.line("timing")?.expect(" elapsed=")?.duration("elapsed")?;
    let queue_wait = c.expect(" queue=")?.duration("queue")?;
    let admission_wait = c.expect(" admission=")?.duration("admission")?;
    c.end_line()?;
    Ok(ReportFrame {
        dims,
        report: PrepareReport {
            circuit: Arc::new(circuit),
            report,
            verification,
            from_cache,
            elapsed,
            queue_wait,
            admission_wait,
        },
    })
}

fn write_error(w: &mut Writer, frame: &ErrorFrame) {
    match frame {
        ErrorFrame::Prepare { message } => write_message(w.str("error prepare "), message),
        ErrorFrame::Shutdown => w.str("error shutdown"),
        ErrorFrame::QueueClosed => w.str("error queue-closed"),
        ErrorFrame::QueueFull { depth, limit } => w
            .str("error queue-full depth=")
            .usize(*depth)
            .str(" limit=")
            .usize(*limit),
        ErrorFrame::VerificationFailed {
            fidelity,
            threshold,
        } => w
            .str("error verification-failed fid=")
            .hex(*fidelity)
            .str(" min=")
            .hex(*threshold),
        ErrorFrame::TenantOverQuota {
            tenant,
            in_flight,
            limit,
        } => w
            .str("error tenant-over-quota tenant=")
            .u64(*tenant)
            .str(" in-flight=")
            .usize(*in_flight)
            .str(" limit=")
            .usize(*limit),
        ErrorFrame::NoShards => w.str("error no-shards"),
        ErrorFrame::BadFrame { message } => write_message(w.str("error bad-frame "), message),
    };
    w.str("\n");
}

/// A free-text message with every `\n` and `\r` written as a space.
fn write_message<'w>(w: &'w mut Writer, message: &str) -> &'w mut Writer {
    for (i, part) in message.split(['\n', '\r']).enumerate() {
        if i > 0 {
            w.str(" ");
        }
        w.str(part);
    }
    w
}

fn read_error(c: &mut Cursor) -> Result<ErrorFrame, TextError> {
    let kind = if c.line("error")?.eat(" ") {
        c.word()
    } else {
        ""
    };
    let frame = match kind {
        "prepare" | "bad-frame" => {
            let message = if c.eat(" ") { c.rest_of_line() } else { "" }.to_owned();
            if kind == "prepare" {
                ErrorFrame::Prepare { message }
            } else {
                ErrorFrame::BadFrame { message }
            }
        }
        "shutdown" => ErrorFrame::Shutdown,
        "queue-closed" => ErrorFrame::QueueClosed,
        "queue-full" => ErrorFrame::QueueFull {
            depth: c.expect(" depth=")?.uint("depth")?,
            limit: c.expect(" limit=")?.uint("limit")?,
        },
        "verification-failed" => ErrorFrame::VerificationFailed {
            fidelity: c.expect(" fid=")?.hex("fidelity")?,
            threshold: c.expect(" min=")?.hex("floor")?,
        },
        "tenant-over-quota" => ErrorFrame::TenantOverQuota {
            tenant: c.expect(" tenant=")?.uint("tenant")?,
            in_flight: c.expect(" in-flight=")?.uint("in-flight count")?,
            limit: c.expect(" limit=")?.uint("limit")?,
        },
        "no-shards" => ErrorFrame::NoShards,
        other => return Err(c.corrupt(format!("unknown error kind: `{other}`"))),
    };
    c.end_line()?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdq_core::PrepareError;

    fn dims(v: &[usize]) -> Dims {
        Dims::new(v.to_vec()).unwrap()
    }

    /// Bit-exact request equality (plain `==` treats `-0.0 == 0.0` and
    /// `NaN != NaN`; the wire contract is about bits).
    fn assert_bit_identical(a: &PrepareRequest, b: &PrepareRequest) {
        assert_eq!(a.dims, b.dims);
        assert_eq!(a.priority, b.priority);
        let oa = &a.options;
        let ob = &b.options;
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
        match (oa.verification, ob.verification) {
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
                    assert_eq!(p.re.to_bits(), q.re.to_bits());
                    assert_eq!(p.im.to_bits(), q.im.to_bits());
                }
            }
            (StatePayload::Sparse(x), StatePayload::Sparse(y)) => {
                assert_eq!(x.len(), y.len());
                for ((dx, p), (dy, q)) in x.iter().zip(y) {
                    assert_eq!(dx, dy);
                    assert_eq!(p.re.to_bits(), q.re.to_bits());
                    assert_eq!(p.im.to_bits(), q.im.to_bits());
                }
            }
            (x, y) => panic!("payload kinds differ: {x:?} vs {y:?}"),
        }
    }

    fn round_trip(frame: &Frame) -> Frame {
        let text = frame.to_text().unwrap();
        let back = Frame::parse(&text).expect("frame parses");
        // The text form itself is canonical: re-serializing the parse
        // reproduces it byte for byte.
        assert_eq!(back.to_text().unwrap(), text);
        back
    }

    #[test]
    fn dense_request_round_trips_bit_exactly() {
        let mut options = PrepareOptions::approximated(0.93)
            .with_verification(VerificationPolicy::Replay { min_fidelity: 0.9 });
        options.keep_zero_subtrees = true;
        let amps = vec![
            Complex::new(0.5, -0.0),
            Complex::new(-0.5, 1e-312),
            Complex::new(f64::NAN, 0.5),
            Complex::new(0.0, f64::NEG_INFINITY),
        ];
        let request =
            PrepareRequest::dense(dims(&[2, 2]), amps, options).with_priority(Priority::High);
        let frame = Frame::Request(RequestFrame {
            tenant: Some(7),
            request: request.clone(),
        });
        let Frame::Request(back) = round_trip(&frame) else {
            panic!("kind preserved");
        };
        assert_eq!(back.tenant, Some(7));
        assert_bit_identical(&back.request, &request);
    }

    #[test]
    fn sparse_request_round_trips_including_degenerate_entries() {
        let entries = vec![
            (vec![0, 0], Complex::new(0.5, 0.5)),
            (vec![1, 2], Complex::new(-0.0, -0.5)),
            // Degenerate entries a malformed submission could carry: the
            // wire reproduces the request as given, it does not validate.
            (vec![], Complex::new(1.0, 0.0)),
            (vec![9, 9, 9], Complex::ZERO),
        ];
        let request = PrepareRequest::sparse(dims(&[2, 3]), entries, PrepareOptions::exact())
            .with_priority(Priority::Low);
        let frame = Frame::Request(RequestFrame {
            tenant: None,
            request: request.clone(),
        });
        let Frame::Request(back) = round_trip(&frame) else {
            panic!("kind preserved");
        };
        assert_eq!(back.tenant, None);
        assert_bit_identical(&back.request, &request);
    }

    #[test]
    fn empty_payloads_round_trip() {
        for payload in [
            StatePayload::Dense(Vec::new()),
            StatePayload::Sparse(Vec::new()),
        ] {
            let request = PrepareRequest {
                dims: dims(&[2]),
                payload,
                options: PrepareOptions::exact(),
                priority: Priority::Normal,
            };
            let frame = Frame::Request(RequestFrame {
                tenant: None,
                request: request.clone(),
            });
            let Frame::Request(back) = round_trip(&frame) else {
                panic!("kind preserved");
            };
            assert_bit_identical(&back.request, &request);
        }
    }

    #[test]
    fn report_round_trips_bit_exactly() {
        let d = dims(&[2, 3]);
        let mut amps = vec![Complex::ZERO; 6];
        amps[0] = Complex::real(0.6);
        amps[5] = Complex::new(0.0, 0.8);
        let prepared = mdq_core::prepare(&d, &amps, PrepareOptions::exact()).unwrap();
        let report = PrepareReport {
            circuit: Arc::new(prepared.circuit),
            report: prepared.report,
            verification: Some(mdq_core::VerificationReport {
                fidelity: 1.0 - 1e-14,
                replay_nodes: 11,
                duration: std::time::Duration::new(0, 987),
            }),
            from_cache: true,
            elapsed: std::time::Duration::new(1, 999_999_999),
            queue_wait: std::time::Duration::new(0, 1),
            admission_wait: std::time::Duration::ZERO,
        };
        let frame = Frame::Report(ReportFrame {
            dims: d.clone(),
            report: report.clone(),
        });
        let Frame::Report(back) = round_trip(&frame) else {
            panic!("kind preserved");
        };
        assert_eq!(back.dims, d);
        assert_eq!(back.report.circuit, report.circuit);
        assert_eq!(back.report.from_cache, report.from_cache);
        assert_eq!(back.report.elapsed, report.elapsed);
        assert_eq!(back.report.queue_wait, report.queue_wait);
        assert_eq!(back.report.admission_wait, report.admission_wait);
        let (a, b) = (
            back.report.verification.as_ref().unwrap(),
            report.verification.as_ref().unwrap(),
        );
        assert_eq!(a.fidelity.to_bits(), b.fidelity.to_bits());
        assert_eq!(a.replay_nodes, b.replay_nodes);
        assert_eq!(a.duration, b.duration);
        assert_eq!(
            back.report.report.controls_mean.to_bits(),
            report.report.controls_mean.to_bits()
        );
    }

    #[test]
    fn every_error_variant_round_trips() {
        let variants = [
            ErrorFrame::Prepare {
                message: "dimension mismatch: got 3, expected 6".to_owned(),
            },
            ErrorFrame::Prepare {
                message: String::new(),
            },
            ErrorFrame::Shutdown,
            ErrorFrame::QueueClosed,
            ErrorFrame::QueueFull {
                depth: 64,
                limit: 64,
            },
            ErrorFrame::VerificationFailed {
                fidelity: 0.25_f64.to_bits(),
                threshold: f64::NAN.to_bits(),
            },
            ErrorFrame::TenantOverQuota {
                tenant: u64::MAX,
                in_flight: 8,
                limit: 8,
            },
            ErrorFrame::NoShards,
            ErrorFrame::BadFrame {
                message: "corrupt wire frame at line 3: bad amplitude".to_owned(),
            },
            ErrorFrame::BadFrame {
                message: String::new(),
            },
        ];
        for variant in variants {
            let Frame::Error(back) = round_trip(&Frame::Error(variant.clone())) else {
                panic!("kind preserved");
            };
            assert_eq!(back, variant);
        }
    }

    #[test]
    fn error_frame_mirrors_engine_error() {
        let cases = [
            (
                EngineError::Prepare(PrepareError::InvalidThreshold(1.5)),
                ErrorFrame::Prepare {
                    message: PrepareError::InvalidThreshold(1.5).to_string(),
                },
            ),
            (EngineError::Shutdown, ErrorFrame::Shutdown),
            (EngineError::QueueClosed, ErrorFrame::QueueClosed),
            (
                EngineError::QueueFull { depth: 3, limit: 2 },
                ErrorFrame::QueueFull { depth: 3, limit: 2 },
            ),
            (
                EngineError::VerificationFailed {
                    fidelity: 0.5,
                    threshold: 0.9,
                },
                ErrorFrame::VerificationFailed {
                    fidelity: 0.5_f64.to_bits(),
                    threshold: 0.9_f64.to_bits(),
                },
            ),
        ];
        for (engine, wire) in cases {
            assert_eq!(ErrorFrame::from_engine(&engine), wire);
        }
    }

    #[test]
    fn newlines_in_error_messages_cannot_break_framing() {
        let frame = Frame::Error(ErrorFrame::Prepare {
            message: "line one\nline two\r\nline three".to_owned(),
        });
        let text = frame.to_text().unwrap();
        let Frame::Error(ErrorFrame::Prepare { message }) = Frame::parse(&text).unwrap() else {
            panic!("still one error frame");
        };
        assert_eq!(message, "line one line two  line three");
    }

    #[test]
    fn bad_headers_and_versions_are_typed() {
        assert!(matches!(Frame::parse(""), Err(WireError::NotAFrame)));
        assert!(matches!(
            Frame::parse("mdqsnap 1\n"),
            Err(WireError::NotAFrame)
        ));
        match Frame::parse("mdqwire 99\nerror shutdown\nend\n") {
            Err(WireError::Version { found, supported }) => {
                assert_eq!((found, supported), (99, 1));
            }
            other => panic!("expected Version error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_and_trailing_garbage_are_typed() {
        let frame = Frame::Request(RequestFrame {
            tenant: Some(1),
            request: PrepareRequest::dense(
                dims(&[2]),
                vec![Complex::ONE, Complex::ZERO],
                PrepareOptions::exact(),
            ),
        });
        let text = frame.to_text().unwrap();
        // Every prefix that cuts a whole line off is truncated (or, when
        // the cut exposes a malformed tail, corrupt) — never a panic.
        let lines: Vec<&str> = text.lines().collect();
        for keep in 0..lines.len() {
            let cut = lines[..keep].join("\n");
            assert!(
                Frame::parse(&cut).is_err(),
                "prefix of {keep} lines must not parse"
            );
        }
        let trailing = format!("{text}extra\n");
        assert!(matches!(
            Frame::parse(&trailing),
            Err(WireError::Corrupt { .. })
        ));
    }

    /// The latent framing gap, pinned: `parse` must accept exactly the
    /// bytes `to_text` writes and nothing else. Before this regression
    /// suite, CRLF-encoded frames, frames missing the terminator newline,
    /// and `+1`/`01` version tokens all parsed — encodings the serializer
    /// never produces, so `parse ∘ to_text` was not injective on bytes
    /// and a stream reader could disagree with the parser about where a
    /// frame ends.
    #[test]
    fn noncanonical_encodings_are_rejected_typed() {
        let frames = [
            Frame::Error(ErrorFrame::Shutdown),
            Frame::Request(RequestFrame {
                tenant: Some(3),
                request: PrepareRequest::dense(
                    dims(&[2, 3]),
                    vec![Complex::ONE, Complex::ZERO],
                    PrepareOptions::exact(),
                ),
            }),
        ];
        for frame in frames {
            let text = frame.to_text().unwrap();
            // The canonical bytes parse, and re-serialize identically.
            assert_eq!(
                Frame::parse(&text).unwrap().to_text().unwrap(),
                text,
                "canonical re-serialization stays byte-identical"
            );
            // CRLF line endings: a `\r` is garbage next to the terminator
            // (and every other line), not an alternate encoding.
            assert!(matches!(
                Frame::parse(&text.replace('\n', "\r\n")),
                Err(WireError::Corrupt { line: 1, .. })
            ));
            // A lone carriage return after the terminator.
            assert!(matches!(
                Frame::parse(&format!("{text}\r")),
                Err(WireError::Corrupt { .. })
            ));
            // The terminator line must carry its newline.
            assert!(matches!(
                Frame::parse(text.trim_end()),
                Err(WireError::Truncated)
            ));
            // Garbage after `end\n`, with and without its own newline.
            assert!(matches!(
                Frame::parse(&format!("{text}garbage\n")),
                Err(WireError::Corrupt { .. })
            ));
            assert!(matches!(
                Frame::parse(&format!("{text}garbage")),
                Err(WireError::Truncated)
            ));
            // A whole second frame glued on is trailing garbage too.
            assert!(matches!(
                Frame::parse(&format!("{text}{text}")),
                Err(WireError::Corrupt { .. })
            ));
            // An extra blank line after the terminator.
            assert!(matches!(
                Frame::parse(&format!("{text}\n")),
                Err(WireError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn noncanonical_version_tokens_are_rejected() {
        for header in ["mdqwire +1", "mdqwire 01", "mdqwire 1 ", "mdqwire 1x"] {
            let text = format!("{header}\nerror shutdown\nend\n");
            assert!(
                matches!(Frame::parse(&text), Err(WireError::NotAFrame)),
                "`{header}` must not parse as a version-1 frame"
            );
        }
        // Overflowing and future versions are still typed distinctly.
        assert!(matches!(
            Frame::parse("mdqwire 99999999999999999999\nend\n"),
            Err(WireError::NotAFrame)
        ));
        assert!(matches!(
            Frame::parse("mdqwire 2\nerror shutdown\nend\n"),
            Err(WireError::Version {
                found: 2,
                supported: 1
            })
        ));
    }

    #[test]
    fn hostile_tolerance_bits_are_corrupt_not_a_panic() {
        let frame = Frame::Request(RequestFrame {
            tenant: None,
            request: PrepareRequest::dense(
                dims(&[2]),
                vec![Complex::ONE, Complex::ZERO],
                PrepareOptions::exact(),
            ),
        });
        let text = frame.to_text().unwrap();
        let tol_hex = serialize::bits_to_hex(Tolerance::DEFAULT.value().to_bits());
        for hostile in [
            f64::NAN.to_bits(),
            (-1.0_f64).to_bits(),
            f64::INFINITY.to_bits(),
        ] {
            let tampered = text.replace(
                &format!("tol={tol_hex}"),
                &format!("tol={}", serialize::bits_to_hex(hostile)),
            );
            assert_ne!(tampered, text, "fixture replaced the tolerance");
            assert!(matches!(
                Frame::parse(&tampered),
                Err(WireError::Corrupt { .. })
            ));
        }
    }

    /// A rotation whose `lo` exceeds its qudit's dimension fails
    /// validation while the frame is parsed, so no later `Gate::matrix`
    /// can index out of range.
    #[test]
    fn reversed_rotation_levels_are_corrupt() {
        use mdq_circuit::{Circuit, Gate, Instruction};
        let d = dims(&[3]);
        let mut circuit = Circuit::new(d.clone());
        circuit
            .push(Instruction::local(0, Gate::givens(0, 1, 1.0, 0.0)))
            .unwrap();
        let prepared = mdq_core::prepare(
            &d,
            &[Complex::ONE, Complex::ZERO, Complex::ZERO],
            PrepareOptions::exact(),
        )
        .unwrap();
        let frame = Frame::Report(ReportFrame {
            dims: d,
            report: PrepareReport {
                circuit: Arc::new(circuit),
                report: prepared.report,
                verification: None,
                from_cache: false,
                elapsed: std::time::Duration::ZERO,
                queue_wait: std::time::Duration::ZERO,
                admission_wait: std::time::Duration::ZERO,
            },
        });
        let text = frame.to_text().unwrap();
        let tampered = text.replacen("givens q0 lo0 hi1", "givens q0 lo5 hi1", 1);
        assert_ne!(tampered, text);
        assert!(matches!(
            Frame::parse(&tampered),
            Err(WireError::Corrupt { line: 4, .. })
        ));
    }

    #[test]
    fn unitary_circuits_are_unserializable() {
        use mdq_circuit::{Circuit, Gate, Instruction};
        let d = dims(&[2]);
        let prepared =
            mdq_core::prepare(&d, &[Complex::ONE, Complex::ZERO], PrepareOptions::exact()).unwrap();
        let mut circuit = Circuit::new(d.clone());
        circuit
            .push(Instruction::local(
                0,
                Gate::Unitary(mdq_num::matrix::CMatrix::identity(2)),
            ))
            .unwrap();
        let frame = Frame::Report(ReportFrame {
            dims: d,
            report: PrepareReport {
                circuit: Arc::new(circuit),
                report: prepared.report,
                verification: None,
                from_cache: false,
                elapsed: std::time::Duration::ZERO,
                queue_wait: std::time::Duration::ZERO,
                admission_wait: std::time::Duration::ZERO,
            },
        });
        assert!(matches!(frame.to_text(), Err(WireError::Unserializable(_))));
    }
}
