//! A plain-text serialization of mixed-dimensional circuits.
//!
//! The format is line-oriented and human-editable, in the spirit of
//! OpenQASM but with mixed-radix registers and `(qudit, level)` controls:
//!
//! ```text
//! mdqc 1
//! dims 3 6 2
//! givens q1 lo0 hi1 theta1.5707963 phi-0.5 ctrl 0@1 2@0
//! zrot q0 lo0 hi1 theta0.25
//! phase q2 level1 angle0.75
//! shift q2 amount-1
//! fourier q1
//! fourier- q1
//! ```
//!
//! Explicit `Unitary` gates are not serializable (they have no compact
//! textual form) and produce [`SerializeError::UnsupportedGate`].
//!
//! This module also holds the one [`Writer`] and the one [`Cursor`] that
//! every text codec of the workspace shares: the circuit forms here, and
//! the engine's `mdqwire` frames and `mdqsnap` snapshot records. Encoders
//! append to one buffer sized up front; decoders walk the bytes once and
//! push every decoded instruction through [`Circuit::push`].

use std::fmt;
use std::time::Duration;

use mdq_num::radix::Dims;

use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::instruction::{Control, Instruction};

/// Errors produced by [`to_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerializeError {
    /// The circuit contains a gate without a textual form.
    UnsupportedGate {
        /// Index of the offending instruction.
        index: usize,
    },
}

impl fmt::Display for SerializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerializeError::UnsupportedGate { index } => {
                write!(
                    f,
                    "instruction {index} has no textual form (explicit unitary)"
                )
            }
        }
    }
}

impl std::error::Error for SerializeError {}

/// Errors produced by [`from_text`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// The header line was missing or malformed.
    BadHeader,
    /// The `dims` line was missing or malformed.
    BadDims,
    /// A gate line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// The parsed instruction failed circuit validation.
    Invalid {
        /// 1-based line number.
        line: usize,
        /// The underlying circuit error, as text.
        reason: String,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadHeader => write!(f, "missing or malformed 'mdqc 1' header"),
            ParseError::BadDims => write!(f, "missing or malformed 'dims …' line"),
            ParseError::BadLine { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            ParseError::Invalid { line, reason } => {
                write!(f, "line {line}: invalid instruction: {reason}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Serializes a circuit to the `mdqc` text format.
///
/// # Errors
///
/// Returns [`SerializeError::UnsupportedGate`] for explicit-unitary gates.
///
/// # Examples
///
/// ```
/// use mdq_circuit::{serialize, Circuit, Gate, Instruction};
/// use mdq_num::radix::Dims;
///
/// let mut c = Circuit::new(Dims::new(vec![3])?);
/// c.push(Instruction::local(0, Gate::fourier()))?;
/// let text = serialize::to_text(&c)?;
/// let back = serialize::from_text(&text)?;
/// assert_eq!(c, back);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn to_text(circuit: &Circuit) -> Result<String, SerializeError> {
    let dims = circuit.dims().as_slice();
    let mut w = Writer::with_capacity(16 + 21 * dims.len() + line_capacity(circuit));
    w.str("mdqc 1\ndims").usizes(dims).str("\n");
    for (index, instruction) in circuit.iter().enumerate() {
        w.instruction(instruction, index)?.str("\n");
    }
    Ok(w.into_string())
}

/// Serializes a circuit **body** to a single line: the instructions of
/// [`to_text`]'s format joined by `" ; "`, without the header and `dims`
/// lines (the register travels separately). The empty circuit serializes to
/// the empty string. This is the embedded form used by records that must
/// hold a whole circuit in one field, such as the engine's cache snapshots.
///
/// # Errors
///
/// Returns [`SerializeError::UnsupportedGate`] for explicit-unitary gates.
///
/// # Examples
///
/// ```
/// use mdq_circuit::{serialize, Circuit, Gate, Instruction};
/// use mdq_num::radix::Dims;
///
/// let dims = Dims::new(vec![3, 2])?;
/// let mut c = Circuit::new(dims.clone());
/// c.push(Instruction::local(0, Gate::fourier()))?;
/// c.push(Instruction::local(1, Gate::shift(1)))?;
/// let line = serialize::to_line(&c)?;
/// assert_eq!(line, "fourier q0 ; shift q1 amount1");
/// assert_eq!(serialize::from_line(dims, &line)?, c);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn to_line(circuit: &Circuit) -> Result<String, SerializeError> {
    let mut w = Writer::with_capacity(line_capacity(circuit));
    w.circuit_line(circuit)?;
    Ok(w.into_string())
}

/// Parses a single-line circuit body produced by [`to_line`] against the
/// given register. Whitespace-only input yields the empty circuit.
///
/// # Errors
///
/// Returns [`ParseError::BadLine`]/[`ParseError::Invalid`] with `line` set
/// to the **1-based instruction position** within the line.
pub fn from_line(dims: Dims, text: &str) -> Result<Circuit, ParseError> {
    if text.trim().is_empty() {
        return Ok(Circuit::new(dims));
    }
    let mut cursor = Cursor::new(text);
    let circuit = cursor.circuit_line(dims)?;
    if !cursor.is_at_end() {
        return Err(ParseError::BadLine {
            line: circuit.len().max(1),
            reason: "expected ` ; ` or the end of the line".to_owned(),
        });
    }
    Ok(circuit)
}

/// Parses a circuit from the `mdqc` text format. Lines are trimmed, and
/// blank lines and `#` comments are skipped; every other line is read with
/// the [`Cursor`], so fields are single-space separated in their written
/// order.
///
/// # Errors
///
/// Returns [`ParseError`] describing the first malformed line, including
/// instructions that fail validation against the declared register.
pub fn from_text(text: &str) -> Result<Circuit, ParseError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

    let (_, header) = lines.next().ok_or(ParseError::BadHeader)?;
    if header != "mdqc 1" {
        return Err(ParseError::BadHeader);
    }
    let (_, dims_line) = lines.next().ok_or(ParseError::BadDims)?;
    let mut cursor = Cursor::new(dims_line);
    let dims = cursor
        .line("dims")
        .and_then(|c| c.uints("dimension"))
        .ok()
        .filter(|_| cursor.is_at_end())
        .and_then(|dims| Dims::new(dims).ok())
        .ok_or(ParseError::BadDims)?;

    let mut circuit = Circuit::new(dims);
    let mut controls = 0;
    for (line, content) in lines {
        let mut cursor = Cursor::new(content);
        let instruction = cursor
            .instruction(controls)
            .and_then(|instruction| {
                if cursor.is_at_end() {
                    Ok(instruction)
                } else {
                    Err(cursor.corrupt("expected the end of the line"))
                }
            })
            .map_err(|e| ParseError::BadLine {
                line,
                reason: e.into_message(),
            })?;
        controls = instruction.controls.len();
        circuit.push(instruction).map_err(|e| ParseError::Invalid {
            line,
            reason: e.to_string(),
        })?;
    }
    Ok(circuit)
}

/// Formats a raw 64-bit pattern as exactly 16 lowercase hex digits — the
/// *raw-f64-bit* text form shared by the engine's snapshot (`mdqsnap`) and
/// wire (`mdqwire`) formats for values that must round-trip **bit-exactly**
/// where shortest-float formatting cannot (amplitudes, fidelities,
/// tolerances: `-0.0`, subnormals, non-finite values, NaN payloads).
/// [`Writer::hex`] writes the same digits in place.
///
/// # Examples
///
/// ```
/// use mdq_circuit::serialize::{bits_from_hex, bits_to_hex};
///
/// let bits = (-0.0f64).to_bits();
/// let text = bits_to_hex(bits);
/// assert_eq!(text, "8000000000000000");
/// assert_eq!(bits_from_hex(&text), Some(bits));
/// ```
#[must_use]
pub fn bits_to_hex(bits: u64) -> String {
    let mut w = Writer::with_capacity(16);
    w.hex(bits);
    w.into_string()
}

/// Parses the 16-hex-digit raw bit pattern written by [`bits_to_hex`].
/// Returns `None` unless the input is exactly 16 hex digits (case is
/// accepted; canonical output is lowercase) — length is enforced so a
/// truncated value is a parse error, never a silently shortened bit
/// pattern.
#[must_use]
pub fn bits_from_hex(text: &str) -> Option<u64> {
    let mut cursor = Cursor::new(text);
    cursor.hex("bits").ok().filter(|_| cursor.is_at_end())
}

/// A size estimate of `circuit`'s [`to_line`] form, so that an encoder can
/// size its buffer once: a rotation with two shortest-round-trip angles
/// takes about 70 bytes and each control about 6.
#[must_use]
pub fn line_capacity(circuit: &Circuit) -> usize {
    circuit
        .iter()
        .map(|instruction| 80 + 6 * instruction.controls.len())
        .sum()
}

/// The one text writer behind every codec of the workspace: the `mdqc`
/// circuit forms here, and the engine's `mdqwire` frames and `mdqsnap`
/// snapshot records. Everything is appended to one `String`.
///
/// Integers and 16-digit raw-bit hex are written digit by digit; no value
/// gets a `String` of its own. Circuit angles go through Rust's shortest
/// round-trip float formatting, which parses back to the
/// **bit-identical** `f64` for every finite value (including `-0.0` and
/// subnormals).
///
/// # Examples
///
/// ```
/// use mdq_circuit::serialize::Writer;
///
/// let mut w = Writer::default();
/// w.str("x=").usize(42).str(" h=").hex(255);
/// assert_eq!(w.as_str(), "x=42 h=00000000000000ff");
/// ```
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
}

impl Writer {
    /// An empty writer whose buffer holds `bytes` before it grows.
    #[must_use]
    pub fn with_capacity(bytes: usize) -> Self {
        Writer {
            out: String::with_capacity(bytes),
        }
    }

    /// Appends `text` as is.
    #[inline]
    pub fn str(&mut self, text: &str) -> &mut Self {
        self.out.push_str(text);
        self
    }

    fn ascii(&mut self, bytes: &[u8]) -> &mut Self {
        self.out.extend(bytes.iter().map(|&b| char::from(b)));
        self
    }

    /// Appends `value` in decimal.
    #[inline]
    pub fn u64(&mut self, mut value: u64) -> &mut Self {
        if value < 10 {
            // Most qudits, levels and flags: one digit.
            self.out.push(char::from(b'0' + value as u8));
            return self;
        }
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            // `value % 10` is a single decimal digit.
            digits[at] = b'0' + (value % 10) as u8;
            value /= 10;
            if value == 0 {
                break;
            }
        }
        self.ascii(&digits[at..])
    }

    /// Appends `value` in decimal.
    #[inline]
    pub fn usize(&mut self, value: usize) -> &mut Self {
        // Lossless: `usize` is at most 64 bits wide on every target.
        self.u64(value as u64)
    }

    /// Appends `value` in decimal, with a `-` when negative.
    fn i64(&mut self, value: i64) -> &mut Self {
        if value < 0 {
            self.out.push('-');
        }
        self.u64(value.unsigned_abs())
    }

    /// Appends ` v` for every value: the tail of a `dims` line.
    pub fn usizes(&mut self, values: &[usize]) -> &mut Self {
        for &value in values {
            self.str(" ").usize(value);
        }
        self
    }

    /// Appends `bits` as exactly 16 lowercase hex digits.
    pub fn hex(&mut self, bits: u64) -> &mut Self {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut text = [0u8; 16];
        for (i, digit) in text.iter_mut().enumerate() {
            *digit = DIGITS[((bits >> (60 - 4 * i)) & 0xf) as usize];
        }
        self.ascii(&text)
    }

    /// Appends `value` in Rust's shortest round-trip form (`Display`).
    fn f64(&mut self, value: f64) -> &mut Self {
        use std::fmt::Write as _;
        // Writing into a `String` cannot fail.
        let _ = write!(self.out, "{value}");
        self
    }

    /// Appends `d` as `secs:nanos`.
    pub fn duration(&mut self, d: Duration) -> &mut Self {
        self.u64(d.as_secs())
            .str(":")
            .u64(u64::from(d.subsec_nanos()))
    }

    /// Appends one instruction in the `mdqc` form (gate body, then the
    /// control tail), with no line break, or fails for an explicit unitary
    /// (named by `index`) with part of the instruction written.
    fn instruction(
        &mut self,
        instruction: &Instruction,
        index: usize,
    ) -> Result<&mut Self, SerializeError> {
        let q = instruction.qudit;
        match instruction.gate {
            Gate::Givens { lo, hi, theta, phi } => {
                self.str("givens q").usize(q).str(" lo").usize(lo);
                self.str(" hi").usize(hi).str(" theta").f64(theta);
                self.str(" phi").f64(phi)
            }
            Gate::ZRotation { lo, hi, theta } => {
                self.str("zrot q").usize(q).str(" lo").usize(lo);
                self.str(" hi").usize(hi).str(" theta").f64(theta)
            }
            Gate::PhaseLevel { level, angle } => {
                self.str("phase q").usize(q).str(" level").usize(level);
                self.str(" angle").f64(angle)
            }
            Gate::Shift { amount } => self.str("shift q").usize(q).str(" amount").i64(amount),
            Gate::Fourier { inverse: false } => self.str("fourier q").usize(q),
            Gate::Fourier { inverse: true } => self.str("fourier- q").usize(q),
            Gate::Unitary(_) => return Err(SerializeError::UnsupportedGate { index }),
        };
        if !instruction.controls.is_empty() {
            self.str(" ctrl");
            for c in &instruction.controls {
                self.str(" ").usize(c.qudit).str("@").usize(c.level);
            }
        }
        Ok(self)
    }

    /// Appends the [`to_line`] form of `circuit`: its instructions joined
    /// by `" ; "`.
    ///
    /// # Errors
    ///
    /// [`SerializeError::UnsupportedGate`] for an explicit unitary.
    pub fn circuit_line(&mut self, circuit: &Circuit) -> Result<&mut Self, SerializeError> {
        for (index, instruction) in circuit.iter().enumerate() {
            if index > 0 {
                self.str(" ; ");
            }
            self.instruction(instruction, index)?;
        }
        Ok(self)
    }

    /// The text written so far.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Drops everything after the first `len` bytes, e.g. a record whose
    /// circuit turned out unserializable. `len` must be the length of an
    /// earlier [`Writer::as_str`].
    pub fn truncate(&mut self, len: usize) {
        self.out.truncate(len);
    }

    /// Drops everything written, keeping the buffer.
    pub fn clear(&mut self) {
        self.out.clear();
    }

    /// The written text.
    #[must_use]
    pub fn into_string(self) -> String {
        self.out
    }
}

/// Why a [`Cursor`] refused its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TextError {
    /// The text ended where another line was due.
    Truncated,
    /// A line does not parse.
    Corrupt {
        /// 1-based number of the offending line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
}

impl TextError {
    fn into_message(self) -> String {
        match self {
            TextError::Truncated => "truncated".to_owned(),
            TextError::Corrupt { message, .. } => message,
        }
    }
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TextError::Truncated => write!(f, "text is truncated"),
            TextError::Corrupt { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for TextError {}

/// Marks a byte of [`HEX_VALUES`] that is no hex digit.
const NOT_HEX: u8 = 0x10;

/// The value of each byte as a hex digit of either case, or [`NOT_HEX`].
const HEX_VALUES: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        let value = i as u8;
        if i < 10 {
            table[b'0' as usize + i] = value;
        } else {
            table[b'a' as usize + i - 10] = value;
            table[b'A' as usize + i - 10] = value;
        }
        i += 1;
    }
    table
};

/// The one byte cursor behind every decoder of the workspace: the `mdqc`
/// circuit forms here, and the engine's `mdqwire` frames and `mdqsnap`
/// snapshot records. It walks the text once, left to right, and reads
/// exactly what the [`Writer`] writes: fields single-space separated in
/// their written order, integers as plain decimal digits (no sign, no
/// leading zero), raw bits as 16 hex digits of either case.
///
/// Every reader consumes what it reads. On a mismatch it returns
/// [`TextError::Corrupt`] with the current line and, for values, the
/// `what` it was given; [`Cursor::line`] returns [`TextError::Truncated`]
/// at the end of the text. Integers are read with checked arithmetic, so
/// an overlong number is a typed error in every build profile. Line
/// numbers are counted only when an error is built.
///
/// # Examples
///
/// ```
/// use mdq_circuit::serialize::{Cursor, TextError};
///
/// let mut c = Cursor::new("pair 7:00000000000000FF\n");
/// let n: usize = c.line("pair")?.expect(" ")?.uint("count")?;
/// assert_eq!((n, c.expect(":")?.hex("bits")?), (7, 255));
/// c.end_line()?;
/// assert!(c.is_at_end());
/// # Ok::<(), TextError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Cursor { text, pos: 0 }
    }

    /// Byte offset of the next unread byte.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been read.
    #[must_use]
    pub fn is_at_end(&self) -> bool {
        self.pos == self.text.len()
    }

    #[inline]
    fn rest(&self) -> &'a [u8] {
        &self.text.as_bytes()[self.pos..]
    }

    /// Whether the unread text starts with `prefix`.
    #[must_use]
    #[inline]
    pub fn starts_with(&self, prefix: &str) -> bool {
        self.rest().starts_with(prefix.as_bytes())
    }

    /// Consumes `literal` if the unread text starts with it.
    #[inline]
    pub fn eat(&mut self, literal: &str) -> bool {
        let found = self.starts_with(literal);
        if found {
            self.pos += literal.len();
        }
        found
    }

    /// Consumes `literal`, which must come next.
    #[inline]
    pub fn expect(&mut self, literal: &str) -> Result<&mut Self, TextError> {
        if self.eat(literal) {
            Ok(self)
        } else {
            Err(self.missing(literal))
        }
    }

    /// A [`TextError::Corrupt`] on the current line.
    #[cold]
    #[must_use]
    pub fn corrupt(&self, message: impl Into<String>) -> TextError {
        let line = self.text.as_bytes()[..self.pos]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        TextError::Corrupt {
            line: line + 1,
            message: message.into(),
        }
    }

    #[cold]
    #[inline(never)]
    fn bad(&self, what: &str) -> TextError {
        self.corrupt(format!("bad {what}"))
    }

    #[cold]
    #[inline(never)]
    fn missing(&self, literal: &str) -> TextError {
        self.corrupt(format!("expected `{literal}`"))
    }

    /// Opens the next line, which must start with `tag` followed by a
    /// space or the line's end; consumes the tag.
    pub fn line(&mut self, tag: &str) -> Result<&mut Self, TextError> {
        if self.is_at_end() {
            return Err(TextError::Truncated);
        }
        let after = self.rest().get(tag.len()).copied();
        if self.starts_with(tag) && matches!(after, None | Some(b' ' | b'\n')) {
            self.pos += tag.len();
            Ok(self)
        } else {
            Err(self.corrupt(format!("expected `{tag}` line")))
        }
    }

    /// Closes the current line: consumes its `\n`, which must come next.
    /// The end of the text also ends a line.
    pub fn end_line(&mut self) -> Result<(), TextError> {
        if self.eat("\n") || self.is_at_end() {
            Ok(())
        } else {
            Err(self.corrupt("unexpected content at the end of the line"))
        }
    }

    /// Consumes and returns the bytes up to the next space, `;`, line
    /// break or the end of the text: a keyword or an angle.
    #[inline]
    pub fn word(&mut self) -> &'a str {
        let len = self
            .rest()
            .iter()
            .position(|b| matches!(b, b' ' | b';' | b'\n'))
            .unwrap_or(self.rest().len());
        self.take(len)
    }

    /// Consumes and returns the rest of the current line, without its
    /// `\n`.
    pub fn rest_of_line(&mut self) -> &'a str {
        let len = self
            .rest()
            .iter()
            .position(|&b| b == b'\n')
            .unwrap_or(self.rest().len());
        self.take(len)
    }

    fn take(&mut self, len: usize) -> &'a str {
        // Every boundary sits next to an ASCII byte, or at the end of the
        // text, so it is a char boundary.
        let taken = &self.text[self.pos..self.pos + len];
        self.pos += len;
        taken
    }

    /// Reads a canonical unsigned decimal: one or more digits, no sign,
    /// no leading zero, within `T`.
    #[inline]
    pub fn uint<T: TryFrom<u64>>(&mut self, what: &str) -> Result<T, TextError> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut value: u64 = 0;
        while let Some(&b) = bytes.get(self.pos) {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            value = match value.checked_mul(10) {
                Some(v) => match v.checked_add(u64::from(digit)) {
                    Some(v) => v,
                    None => return Err(self.bad(what)),
                },
                None => return Err(self.bad(what)),
            };
            self.pos += 1;
        }
        let digits = self.pos - start;
        if digits == 0 || (digits > 1 && bytes[start] == b'0') {
            return Err(self.bad(what));
        }
        T::try_from(value).map_err(|_| self.bad(what))
    }

    fn int(&mut self, what: &str) -> Result<i64, TextError> {
        if self.eat("-") {
            let magnitude: u64 = self.uint(what)?;
            0i64.checked_sub_unsigned(magnitude)
                .ok_or_else(|| self.bad(what))
        } else {
            self.uint(what)
        }
    }

    /// Reads ` v` repeatedly: the tail of a `dims` line.
    pub fn uints(&mut self, what: &str) -> Result<Vec<usize>, TextError> {
        let mut values = Vec::new();
        while self.eat(" ") {
            values.push(self.uint(what)?);
        }
        Ok(values)
    }

    /// Reads exactly 16 hex digits of either case as raw bits.
    #[inline]
    pub fn hex(&mut self, what: &str) -> Result<u64, TextError> {
        let Some(digits) = self.rest().get(..16) else {
            return Err(self.bad(what));
        };
        // A table lookup per digit: random hex digits defeat the branch
        // predictor of a `match` on digit ranges.
        let mut bits: u64 = 0;
        let mut seen: u8 = 0;
        for &b in digits {
            let nibble = HEX_VALUES[usize::from(b)];
            seen |= nibble;
            bits = (bits << 4) | u64::from(nibble & 0xf);
        }
        if seen & NOT_HEX != 0 {
            return Err(self.bad(what));
        }
        self.pos += 16;
        Ok(bits)
    }

    /// Reads one [`Cursor::word`] as an `f64`, in any spelling Rust's
    /// float parser accepts.
    fn f64(&mut self, what: &str) -> Result<f64, TextError> {
        let word = self.word();
        word.parse().map_err(|_| self.bad(what))
    }

    /// Reads a `0`/`1` flag.
    pub fn flag(&mut self, what: &str) -> Result<bool, TextError> {
        match self.word() {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(self.bad(what)),
        }
    }

    /// Reads a `secs:nanos` duration, nanoseconds below one second.
    pub fn duration(&mut self, what: &str) -> Result<Duration, TextError> {
        let secs = self.uint(what)?;
        let nanos: u32 = self.expect(":")?.uint(what)?;
        if nanos >= 1_000_000_000 {
            return Err(self.bad(what));
        }
        Ok(Duration::new(secs, nanos))
    }

    /// Reads one instruction as `Writer::instruction` writes it.
    /// `controls` sizes the control list; synthesized circuits come in DFS
    /// order, so a neighbour's count is a close guess.
    fn instruction(&mut self, controls: usize) -> Result<Instruction, TextError> {
        let kind = self.word();
        let qudit = self.expect(" q")?.uint("qudit")?;
        let gate = match kind {
            "givens" => {
                let (lo, hi, theta) = self.rotation()?;
                let phi = self.expect(" phi")?.f64("phi")?;
                Gate::Givens { lo, hi, theta, phi }
            }
            "zrot" => {
                let (lo, hi, theta) = self.rotation()?;
                Gate::ZRotation { lo, hi, theta }
            }
            "phase" => Gate::PhaseLevel {
                level: self.expect(" level")?.uint("level")?,
                angle: self.expect(" angle")?.f64("angle")?,
            },
            "shift" => Gate::Shift {
                amount: self.expect(" amount")?.int("amount")?,
            },
            "fourier" => Gate::Fourier { inverse: false },
            "fourier-" => Gate::Fourier { inverse: true },
            other => return Err(self.corrupt(format!("unknown gate `{other}`"))),
        };
        let mut list = Vec::new();
        if self.eat(" ctrl") {
            list.reserve(controls.max(1));
            loop {
                let qudit = self.expect(" ")?.uint("control qudit")?;
                list.push(Control::new(
                    qudit,
                    self.expect("@")?.uint("control level")?,
                ));
                if !matches!(self.rest(), [b' ', b'0'..=b'9', ..]) {
                    break;
                }
            }
        }
        Ok(Instruction::controlled(qudit, gate, list))
    }

    /// The ` lo… hi… theta…` fields shared by Givens and Z rotations.
    fn rotation(&mut self) -> Result<(usize, usize, f64), TextError> {
        Ok((
            self.expect(" lo")?.uint("lo")?,
            self.expect(" hi")?.uint("hi")?,
            self.expect(" theta")?.f64("theta")?,
        ))
    }

    /// Reads a [`to_line`] circuit body up to the end of the current line
    /// (not consumed), pushing every instruction through
    /// [`Circuit::push`]. A line that ends at once is the empty circuit.
    ///
    /// # Errors
    ///
    /// [`ParseError::BadLine`]/[`ParseError::Invalid`] with the 1-based
    /// instruction position.
    pub fn circuit_line(&mut self, dims: Dims) -> Result<Circuit, ParseError> {
        let mut circuit = Circuit::new(dims);
        if matches!(self.rest(), [] | [b'\n', ..]) {
            return Ok(circuit);
        }
        let mut controls = 0;
        loop {
            let line = circuit.len() + 1;
            let instruction = self
                .instruction(controls)
                .map_err(|e| ParseError::BadLine {
                    line,
                    reason: e.into_message(),
                })?;
            controls = instruction.controls.len();
            circuit.push(instruction).map_err(|e| ParseError::Invalid {
                line,
                reason: e.to_string(),
            })?;
            if !self.eat(" ; ") {
                return Ok(circuit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdq_num::matrix::CMatrix;
    use proptest::prelude::*;

    fn sample() -> Circuit {
        let mut c = Circuit::new(Dims::new(vec![3, 6, 2]).unwrap());
        c.push(Instruction::local(0, Gate::fourier())).unwrap();
        c.push(Instruction::controlled(
            1,
            Gate::givens(2, 4, 1.25, -0.75),
            vec![Control::new(0, 2)],
        ))
        .unwrap();
        c.push(Instruction::controlled(
            2,
            Gate::z_rotation(0, 1, 0.5),
            vec![Control::new(0, 1), Control::new(1, 3)],
        ))
        .unwrap();
        c.push(Instruction::local(2, Gate::phase(1, -2.5))).unwrap();
        c.push(Instruction::local(1, Gate::shift(-2))).unwrap();
        c.push(Instruction::local(0, Gate::fourier_inverse()))
            .unwrap();
        c
    }

    #[test]
    fn round_trip_preserves_circuit() {
        let c = sample();
        let text = to_text(&c).unwrap();
        let back = from_text(&text).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "mdqc 1\n\n# a comment\ndims 2 2\n\nshift q0 amount1\n# end\n";
        let c = from_text(text).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn unitary_gates_are_rejected() {
        let mut c = Circuit::new(Dims::new(vec![2]).unwrap());
        c.push(Instruction::local(0, Gate::Unitary(CMatrix::identity(2))))
            .unwrap();
        assert_eq!(
            to_text(&c).unwrap_err(),
            SerializeError::UnsupportedGate { index: 0 }
        );
    }

    #[test]
    fn bad_header_is_rejected() {
        assert_eq!(
            from_text("qasm 2\ndims 2\n").unwrap_err(),
            ParseError::BadHeader
        );
        assert_eq!(from_text("").unwrap_err(), ParseError::BadHeader);
    }

    #[test]
    fn bad_dims_are_rejected() {
        assert_eq!(
            from_text("mdqc 1\ndims\n").unwrap_err(),
            ParseError::BadDims
        );
        assert_eq!(
            from_text("mdqc 1\ndims 2 x\n").unwrap_err(),
            ParseError::BadDims
        );
        assert_eq!(
            from_text("mdqc 1\ndims 1 2\n").unwrap_err(),
            ParseError::BadDims
        );
    }

    #[test]
    fn bad_gate_lines_carry_line_numbers() {
        let err = from_text("mdqc 1\ndims 2 2\nwarp q0\n").unwrap_err();
        assert!(matches!(err, ParseError::BadLine { line: 3, .. }), "{err}");
        let err = from_text("mdqc 1\ndims 2 2\ngivens q0 lo0 hi1 theta0.5\n").unwrap_err();
        assert!(matches!(err, ParseError::BadLine { line: 3, .. }), "{err}");
    }

    #[test]
    fn invalid_instructions_fail_validation() {
        // Level 5 does not exist on a qubit.
        let err = from_text("mdqc 1\ndims 2 2\ngivens q0 lo0 hi5 theta0.5 phi0\n").unwrap_err();
        assert!(matches!(err, ParseError::Invalid { line: 3, .. }), "{err}");
    }

    #[test]
    fn malformed_controls_are_reported() {
        let err = from_text("mdqc 1\ndims 2 2\nshift q0 amount1 ctrl 1-0\n").unwrap_err();
        assert!(matches!(err, ParseError::BadLine { .. }), "{err}");
    }

    #[test]
    fn line_round_trip_preserves_circuit() {
        let c = sample();
        let line = to_line(&c).unwrap();
        assert!(!line.contains('\n'), "single line form");
        let back = from_line(c.dims().clone(), &line).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn empty_circuit_round_trips_through_the_line_form() {
        let dims = Dims::new(vec![2, 3]).unwrap();
        let c = Circuit::new(dims.clone());
        let line = to_line(&c).unwrap();
        assert!(line.is_empty());
        assert_eq!(from_line(dims.clone(), &line).unwrap(), c);
        assert_eq!(from_line(dims, "   ").unwrap(), c);
    }

    #[test]
    fn line_errors_carry_the_instruction_position() {
        let dims = Dims::new(vec![2, 2]).unwrap();
        let err = from_line(dims.clone(), "shift q0 amount1 ; warp q1").unwrap_err();
        assert!(matches!(err, ParseError::BadLine { line: 2, .. }), "{err}");
        // Validation failures too: level 5 does not exist on a qubit.
        let err = from_line(dims.clone(), "phase q0 level5 angle0.5").unwrap_err();
        assert!(matches!(err, ParseError::Invalid { line: 1, .. }), "{err}");
        // An empty segment between separators is malformed, not skipped.
        let err = from_line(dims, "shift q0 amount1 ; ; shift q1 amount1").unwrap_err();
        assert!(matches!(err, ParseError::BadLine { line: 2, .. }), "{err}");
    }

    #[test]
    fn line_form_rejects_unitary_gates() {
        let mut c = Circuit::new(Dims::new(vec![2]).unwrap());
        c.push(Instruction::local(0, Gate::Unitary(CMatrix::identity(2))))
            .unwrap();
        assert_eq!(
            to_line(&c).unwrap_err(),
            SerializeError::UnsupportedGate { index: 0 }
        );
    }

    #[test]
    fn bit_hex_round_trips_every_f64_class() {
        for value in [
            0.0,
            -0.0,
            1.0,
            -1.5e-308, // subnormal
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN with payload
            f64::MIN_POSITIVE,
            f64::MAX,
        ] {
            let text = bits_to_hex(value.to_bits());
            assert_eq!(text.len(), 16);
            assert_eq!(bits_from_hex(&text), Some(value.to_bits()));
        }
        assert_eq!(
            bits_from_hex("00000000000000FF"),
            Some(0xff),
            "case-insensitive"
        );
        assert_eq!(bits_from_hex("0"), None, "short input rejected");
        assert_eq!(
            bits_from_hex("00000000000000000"),
            None,
            "long input rejected"
        );
        assert_eq!(bits_from_hex("000000000000000g"), None, "non-hex rejected");
        assert_eq!(bits_from_hex("+000000000000001"), None, "sign rejected");
    }

    #[test]
    fn parsed_gates_act_identically() {
        // The textual round trip must preserve semantics bit-for-bit; check
        // the matrices of the round-tripped gates.
        let c = sample();
        let back = from_text(&to_text(&c).unwrap()).unwrap();
        for (a, b) in c.iter().zip(back.iter()) {
            let d = c.dims().dim(a.qudit);
            assert!(a.gate.matrix(d).approx_eq(&b.gate.matrix(d), 0.0));
        }
    }

    #[test]
    fn reversed_rotation_levels_are_invalid_not_a_panic() {
        let dims = Dims::new(vec![3]).unwrap();
        for line in ["givens q0 lo5 hi1 theta1 phi0", "zrot q0 lo5 hi1 theta1"] {
            let err = from_line(dims.clone(), line).unwrap_err();
            assert!(matches!(err, ParseError::Invalid { line: 1, .. }), "{err}");
            let text = format!("mdqc 1\ndims 3\n{line}\n");
            let err = from_text(&text).unwrap_err();
            assert!(matches!(err, ParseError::Invalid { line: 3, .. }), "{err}");
        }
    }

    /// Spellings the writer never produces, which the cursor refuses even
    /// where the line-splitting parser it replaced tolerated them.
    #[test]
    fn non_canonical_spellings_are_refused() {
        let dims = Dims::new(vec![3, 3]).unwrap();
        for line in [
            "shift q0  amount1",                   // a run of spaces
            "shift q0 amount1 ",                   // a trailing space
            "shift\tq0 amount1",                   // a tab
            "givens q0 hi1 lo0 theta1 phi0",       // fields out of order
            "shift q0 amount+1",                   // a plus sign
            "shift q00 amount1",                   // a leading zero
            "fourier q0 lo5",                      // an extra field
            "fourier q0 ctrl",                     // an empty control list
            "fourier q0 ctrl 1@1  2@0",            // a run of spaces in controls
            "fourier q0 ; ; fourier q1",           // an empty instruction
            "fourier q0;fourier q1",               // a bare separator
            "fourier q0\nfourier q1",              // a line break
            "shift q0 amount99999999999999999999", // overflow
        ] {
            assert!(
                matches!(
                    from_line(dims.clone(), line),
                    Err(ParseError::BadLine { .. })
                ),
                "`{line}` must be refused"
            );
        }
    }

    #[test]
    fn cursor_integers_are_canonical_and_checked() {
        let read = |text: &str| {
            let mut c = Cursor::new(text);
            c.uint::<u64>("n").ok().filter(|_| c.is_at_end())
        };
        assert_eq!(read("0"), Some(0));
        assert_eq!(read("18446744073709551615"), Some(u64::MAX));
        for bad in [
            "",
            "00",
            "01",
            "+1",
            "-1",
            "18446744073709551616",
            "99999999999999999999999",
        ] {
            assert_eq!(read(bad), None, "`{bad}`");
        }
        let mut c = Cursor::new("256");
        assert!(c.uint::<u8>("n").is_err(), "out of the target type's range");
        let mut c = Cursor::new("-9223372036854775808 -0 -9223372036854775809");
        assert_eq!(c.int("n"), Ok(i64::MIN));
        c.expect(" ").unwrap();
        assert_eq!(c.int("n"), Ok(0));
        c.expect(" ").unwrap();
        assert!(c.int("n").is_err());
    }

    #[test]
    fn cursor_errors_carry_line_numbers() {
        let mut c = Cursor::new("a 1\nb x\n");
        c.line("a").unwrap();
        c.expect(" ").unwrap();
        assert_eq!(c.uint::<usize>("n"), Ok(1));
        c.end_line().unwrap();
        c.line("b").unwrap();
        c.expect(" ").unwrap();
        assert!(matches!(
            c.uint::<usize>("n"),
            Err(TextError::Corrupt { line: 2, .. })
        ));
        let mut c = Cursor::new("a\n");
        assert!(matches!(
            c.line("b"),
            Err(TextError::Corrupt { line: 1, .. })
        ));
        assert!(matches!(
            c.line("ab"),
            Err(TextError::Corrupt { line: 1, .. })
        ));
        c.line("a").unwrap();
        c.end_line().unwrap();
        assert!(matches!(c.line("a"), Err(TextError::Truncated)));
    }

    /// The instruction parser the cursor replaced, kept as the reference
    /// for the differential tests below: whitespace-split tokens, fields
    /// found by prefix in any order, extra tokens ignored.
    fn reference_instruction(line: &str) -> Result<Instruction, String> {
        let mut tokens = line.split_whitespace();
        let kind = tokens.next().ok_or("empty line")?;
        let mut rest: Vec<&str> = tokens.collect();
        let mut controls = Vec::new();
        if let Some(pos) = rest.iter().position(|&t| t == "ctrl") {
            for spec in rest.split_off(pos).into_iter().skip(1) {
                let (q, l) = spec.split_once('@').ok_or("bad control")?;
                controls.push(Control::new(
                    q.parse().map_err(|_| "bad control qudit")?,
                    l.parse().map_err(|_| "bad control level")?,
                ));
            }
        }
        let field = |prefix: &str| -> Result<&str, String> {
            rest.iter()
                .find_map(|t| t.strip_prefix(prefix))
                .ok_or_else(|| format!("missing field '{prefix}'"))
        };
        let usize_field = |prefix: &str| -> Result<usize, String> {
            field(prefix)?
                .parse()
                .map_err(|_| format!("bad '{prefix}'"))
        };
        let f64_field = |prefix: &str| -> Result<f64, String> {
            field(prefix)?
                .parse()
                .map_err(|_| format!("bad '{prefix}'"))
        };
        let qudit = usize_field("q")?;
        let gate = match kind {
            "givens" => Gate::Givens {
                lo: usize_field("lo")?,
                hi: usize_field("hi")?,
                theta: f64_field("theta")?,
                phi: f64_field("phi")?,
            },
            "zrot" => Gate::ZRotation {
                lo: usize_field("lo")?,
                hi: usize_field("hi")?,
                theta: f64_field("theta")?,
            },
            "phase" => Gate::PhaseLevel {
                level: usize_field("level")?,
                angle: f64_field("angle")?,
            },
            "shift" => Gate::Shift {
                amount: field("amount")?.parse().map_err(|_| "bad 'amount'")?,
            },
            "fourier" => Gate::Fourier { inverse: false },
            "fourier-" => Gate::Fourier { inverse: true },
            other => return Err(format!("unknown gate '{other}'")),
        };
        Ok(Instruction::controlled(qudit, gate, controls))
    }

    /// The `from_line` the cursor replaced: split at `;`, trim, parse.
    fn reference_from_line(dims: Dims, text: &str) -> Result<Circuit, String> {
        let mut circuit = Circuit::new(dims);
        if text.trim().is_empty() {
            return Ok(circuit);
        }
        for segment in text.split(';') {
            let instruction = reference_instruction(segment.trim())?;
            circuit.push(instruction).map_err(|e| e.to_string())?;
        }
        Ok(circuit)
    }

    /// An instruction's fields as raw bits, so that `-0.0` and NaN payloads
    /// compare exactly.
    fn bits(instruction: &Instruction) -> (usize, Vec<Control>, [u64; 5]) {
        let gate = match instruction.gate {
            Gate::Givens { lo, hi, theta, phi } => {
                [0, lo as u64, hi as u64, theta.to_bits(), phi.to_bits()]
            }
            Gate::ZRotation { lo, hi, theta } => [1, lo as u64, hi as u64, theta.to_bits(), 0],
            Gate::PhaseLevel { level, angle } => [2, level as u64, 0, angle.to_bits(), 0],
            Gate::Shift { amount } => [3, amount as u64, 0, 0, 0],
            Gate::Fourier { inverse } => [4, u64::from(inverse), 0, 0, 0],
            Gate::Unitary(_) => unreachable!("never drawn"),
        };
        (instruction.qudit, instruction.controls.clone(), gate)
    }

    /// Raw draws for one instruction: kind, qudit, two levels, the amount,
    /// two raw angle patterns (NaN payloads and infinities included), and
    /// up to four controls.
    type RawInstruction = (
        u8,
        (usize, usize, usize),
        u64,
        (u64, u64),
        Vec<(usize, usize)>,
    );

    fn raw_instruction(span: usize) -> impl Strategy<Value = RawInstruction> {
        (
            0u8..6,
            (0..span, 0..span, 0..span),
            0u64..u64::MAX,
            (0u64..u64::MAX, 0u64..u64::MAX),
            proptest::collection::vec((0..span, 0..span), 0..5),
        )
    }

    fn build(raw: &RawInstruction) -> Instruction {
        let (kind, (qudit, lo, hi), amount, (theta, phi), ref controls) = *raw;
        let (theta, phi) = (f64::from_bits(theta), f64::from_bits(phi));
        let gate = match kind {
            0 => Gate::Givens { lo, hi, theta, phi },
            1 => Gate::ZRotation { lo, hi, theta },
            2 => Gate::PhaseLevel {
                level: lo,
                angle: theta,
            },
            3 => Gate::Shift {
                amount: amount as i64,
            },
            4 => Gate::Fourier { inverse: false },
            _ => Gate::Fourier { inverse: true },
        };
        let controls = controls.iter().map(|&(q, l)| Control::new(q, l)).collect();
        Instruction::controlled(qudit, gate, controls)
    }

    /// Bytes an edit draws from: the format's own alphabet plus the
    /// whitespace and signs the old parser tolerated.
    const EDIT_BYTES: &[u8] = b"0123456789 ;@-+.eEqloithapngmuctrlvszfNI\t\n";

    /// Applies `(kind, where, byte)` edits: replace, insert, delete, or
    /// cut the line short.
    fn mutate(line: &str, edits: &[(u8, f64, usize)]) -> String {
        let mut bytes = line.as_bytes().to_vec();
        for &(kind, at, byte) in edits {
            let at = ((bytes.len() as f64) * at) as usize;
            let byte = EDIT_BYTES[byte % EDIT_BYTES.len()];
            match kind {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at.min(bytes.len()), byte),
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                3 => bytes.truncate(at),
                _ => {}
            }
        }
        String::from_utf8(bytes).expect("edits insert ASCII only")
    }

    fn cursor_instruction(line: &str) -> Option<Instruction> {
        let mut c = Cursor::new(line);
        c.instruction(0).ok().filter(|_| c.is_at_end())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The cursor reads every written instruction back bit for bit,
        /// and accepts no edit of it that the reference parser refuses;
        /// where both accept, they agree bit for bit.
        #[test]
        fn prop_instruction_decoder_agrees_with_the_reference(
            raw in raw_instruction(40),
            edits in proptest::collection::vec((0u8..4, 0.0..1.0f64, 0usize..64), 1..4),
        ) {
            let instruction = build(&raw);
            let mut w = Writer::default();
            w.instruction(&instruction, 0).unwrap();
            let line = w.into_string();
            let decoded = cursor_instruction(&line);
            prop_assert!(decoded.is_some(), "canonical `{}` refused", line);
            prop_assert_eq!(bits(&decoded.unwrap()), bits(&instruction));

            let edited = mutate(&line, &edits);
            if let Some(ours) = cursor_instruction(&edited) {
                let theirs = reference_instruction(&edited);
                prop_assert!(theirs.is_ok(), "`{}` accepted, reference refused", edited);
                prop_assert_eq!(bits(&ours), bits(&theirs.unwrap()));
            }
        }

        /// The same at the level of a whole `to_line` body, against the
        /// `from_line` the cursor replaced (validation included).
        #[test]
        fn prop_line_decoder_agrees_with_the_reference(
            raws in proptest::collection::vec(raw_instruction(4), 1..5),
            edits in proptest::collection::vec((0u8..4, 0.0..1.0f64, 0usize..64), 0..4),
        ) {
            let dims = Dims::new(vec![4, 4, 4, 4]).unwrap();
            let instructions: Vec<Instruction> = raws.iter().map(build).collect();
            let mut w = Writer::default();
            for (index, instruction) in instructions.iter().enumerate() {
                if index > 0 {
                    w.str(" ; ");
                }
                w.instruction(instruction, index).unwrap();
            }
            let line = mutate(w.as_str(), &edits);
            let ours = from_line(dims.clone(), &line);
            let theirs = reference_from_line(dims, &line);
            if edits.is_empty() {
                prop_assert_eq!(ours.is_ok(), theirs.is_ok(), "`{}`", line);
            }
            if let Ok(ours) = ours {
                prop_assert!(theirs.is_ok(), "`{}` accepted, reference refused", line);
                let theirs = theirs.unwrap();
                prop_assert_eq!(ours.len(), theirs.len());
                for (a, b) in ours.iter().zip(theirs.iter()) {
                    prop_assert_eq!(bits(a), bits(b));
                }
            }
        }
    }
}
