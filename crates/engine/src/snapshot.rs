//! Persistent circuit-cache snapshots — the warm-start layer.
//!
//! A snapshot is a versioned, line-oriented text file holding one record
//! per cached preparation: the exact canonical key (register dims,
//! amplitude support as raw `f64` bits, option fields), the synthesized
//! circuit in the single-line `mdqc` form
//! ([`mdq_circuit::serialize::to_line`]), the [`SynthesisReport`], and the
//! replay-verification outcome. Every `f64` is stored as its 16-digit hex
//! bit pattern, so a load reconstructs each value **bit-exactly**.
//!
//! Loads trust nothing in the file beyond its structure:
//!
//! - fingerprints are **re-derived** from the parsed key — they are not
//!   even stored;
//! - each parsed record is re-serialized and compared against the bytes it
//!   was read from; any record that does not round-trip bit-exactly is
//!   **skipped** (counted in [`SnapshotLoad::skipped`]), never inserted;
//! - structural damage — a bad header, a truncated file, an unparsable
//!   line — rejects the whole file with a typed [`SnapshotError`].
//!
//! A snapshot can therefore never make the cache serve a wrong answer: a
//! loaded entry is only reachable by a request whose canonical key matches
//! bit for bit, exactly as if the entry had been computed in-process, and
//! replay verification remains the oracle for verified serving.
//!
//! ## Format
//!
//! ```text
//! mdqsnap 1
//! entries <N>
//! entry
//! dims <d0> <d1> …
//! opts fth=<hex16|none> tol=<hex16> pr=<u8> skip=<0|1> dir=<u8> red=<0|1> kzs=<0|1>
//! sup <idx>:<re-hex16>:<im-hex16> …
//! circuit <single-line mdqc instruction list>
//! report ni=… nf=… dci=… dcf=… ops=… cmed=<hex16> cmean=<hex16> cmax=… rm=… pm=<hex16> fb=<hex16> t=<secs>:<nanos> tt=<secs>:<nanos>
//! verify none            (or: verify fid=<hex16> nodes=… t=<secs>:<nanos>)
//! end
//! done
//! ```
//!
//! Records are sorted by their serialized text, so the same cache contents
//! always produce byte-identical snapshot files.

use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mdq_circuit::serialize;
use mdq_core::{SynthesisReport, VerificationReport};
use mdq_num::radix::Dims;

use crate::cache::{
    fingerprint_of, CacheEntries, CachedPreparation, CanonicalKey, CircuitCache, OptionsKey,
};

/// The snapshot format version this build writes and accepts.
const VERSION: u32 = 1;

/// Why a snapshot file was rejected.
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the file failed.
    Io(io::Error),
    /// The file does not start with a `mdqsnap` header — it is not a
    /// snapshot at all.
    NotASnapshot,
    /// The file is a snapshot of an unsupported format version.
    Version {
        /// Version found in the file header.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The file ends before its declared contents do (mid-record, missing
    /// records, or missing `done` footer).
    Truncated,
    /// A line could not be parsed.
    Corrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::NotASnapshot => write!(f, "not a cache snapshot file"),
            SnapshotError::Version { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build supports {supported})"
            ),
            SnapshotError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotError::Corrupt { line, message } => {
                write!(f, "corrupt snapshot at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// What a successful [`save`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Records written (cache entries whose circuit is serializable —
    /// every circuit the pipeline itself synthesizes is).
    pub entries: usize,
    /// Size of the snapshot file in bytes.
    pub bytes: u64,
}

/// What a successful load did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotLoad {
    /// Records parsed, round-trip-checked, and inserted.
    pub loaded: usize,
    /// Records that parsed but did not re-serialize bit-exactly and were
    /// therefore not inserted.
    pub skipped: usize,
    /// Wall-clock time of the whole load (read + parse + insert).
    pub duration: Duration,
}

/// Local alias for the workspace-wide raw-bit hex form
/// ([`serialize::bits_to_hex`]), shared with the wire protocol.
fn hex(bits: u64) -> String {
    serialize::bits_to_hex(bits)
}

/// `secs:nanos` — the duration text form shared by `mdqsnap` and
/// `mdqwire` records.
pub(crate) fn duration_text(d: Duration) -> String {
    format!("{}:{}", d.as_secs(), d.subsec_nanos())
}

/// Parses [`duration_text`]'s `secs:nanos` form; `None` when either part
/// is malformed or the nanosecond part is not a valid sub-second count.
pub(crate) fn parse_duration_opt(s: &str) -> Option<Duration> {
    let (secs, nanos) = s.split_once(':')?;
    let secs: u64 = secs.parse().ok()?;
    let nanos: u32 = nanos.parse().ok().filter(|&n| n < 1_000_000_000)?;
    Some(Duration::new(secs, nanos))
}

/// Strips a `key=` prefix off one field token; the error-agnostic core of
/// the record grammar, shared with the wire protocol.
pub(crate) fn field_opt<'a>(token: &'a str, key: &str) -> Option<&'a str> {
    token.strip_prefix(key)?.strip_prefix('=')
}

/// The 13-field [`SynthesisReport`] body (everything after the line tag),
/// shared between `mdqsnap` `report` lines and `mdqwire` `synth` lines.
pub(crate) fn report_body(r: &SynthesisReport) -> String {
    format!(
        "ni={} nf={} dci={} dcf={} ops={} cmed={} cmean={} cmax={} rm={} pm={} fb={} t={} tt={}",
        r.nodes_initial,
        r.nodes_final,
        r.distinct_c_initial,
        r.distinct_c_final,
        r.operations,
        hex(r.controls_median.to_bits()),
        hex(r.controls_mean.to_bits()),
        r.controls_max,
        r.removed_nodes,
        hex(r.pruned_mass.to_bits()),
        hex(r.fidelity_bound.to_bits()),
        duration_text(r.time),
        duration_text(r.total_time),
    )
}

/// Parses [`report_body`], reporting the first offence as a message.
pub(crate) fn parse_report_body(body: &str) -> Result<SynthesisReport, String> {
    let tokens: Vec<&str> = body.split_ascii_whitespace().collect();
    if tokens.len() != 13 {
        return Err("expected 13 report fields".to_owned());
    }
    let raw = |i: usize, key: &str| -> Result<&str, String> {
        field_opt(tokens[i], key)
            .ok_or_else(|| format!("expected `{key}=` field, found `{}`", tokens[i]))
    };
    let ru = |i: usize, key: &str| -> Result<usize, String> {
        let s = raw(i, key)?;
        s.parse().map_err(|_| format!("bad {key}: `{s}`"))
    };
    let rf = |i: usize, key: &str| -> Result<f64, String> {
        let s = raw(i, key)?;
        serialize::bits_from_hex(s)
            .map(f64::from_bits)
            .ok_or_else(|| format!("bad {key}: `{s}`"))
    };
    let rd = |i: usize, key: &str| -> Result<Duration, String> {
        let s = raw(i, key)?;
        parse_duration_opt(s).ok_or_else(|| format!("bad {key}: `{s}`"))
    };
    Ok(SynthesisReport {
        nodes_initial: ru(0, "ni")?,
        nodes_final: ru(1, "nf")?,
        distinct_c_initial: ru(2, "dci")?,
        distinct_c_final: ru(3, "dcf")?,
        operations: ru(4, "ops")?,
        controls_median: rf(5, "cmed")?,
        controls_mean: rf(6, "cmean")?,
        controls_max: ru(7, "cmax")?,
        removed_nodes: ru(8, "rm")?,
        pruned_mass: rf(9, "pm")?,
        fidelity_bound: rf(10, "fb")?,
        time: rd(11, "t")?,
        total_time: rd(12, "tt")?,
    })
}

/// The `verify` line body — `none` or `fid=… nodes=… t=…` — shared
/// between `mdqsnap` and `mdqwire` records.
pub(crate) fn verification_body(v: Option<&VerificationReport>) -> String {
    match v {
        None => "none".to_owned(),
        Some(v) => format!(
            "fid={} nodes={} t={}",
            hex(v.fidelity.to_bits()),
            v.replay_nodes,
            duration_text(v.duration),
        ),
    }
}

/// Parses [`verification_body`].
pub(crate) fn parse_verification_body(body: &str) -> Result<Option<VerificationReport>, String> {
    if body == "none" {
        return Ok(None);
    }
    let tokens: Vec<&str> = body.split_ascii_whitespace().collect();
    if tokens.len() != 3 {
        return Err("expected 3 verification fields".to_owned());
    }
    let raw = |i: usize, key: &str| -> Result<&str, String> {
        field_opt(tokens[i], key)
            .ok_or_else(|| format!("expected `{key}=` field, found `{}`", tokens[i]))
    };
    let fid = raw(0, "fid")?;
    let nodes = raw(1, "nodes")?;
    let t = raw(2, "t")?;
    Ok(Some(VerificationReport {
        fidelity: serialize::bits_from_hex(fid)
            .map(f64::from_bits)
            .ok_or_else(|| format!("bad fid: `{fid}`"))?,
        replay_nodes: nodes.parse().map_err(|_| format!("bad nodes: `{nodes}`"))?,
        duration: parse_duration_opt(t).ok_or_else(|| format!("bad t: `{t}`"))?,
    }))
}

/// Serializes one cache entry into its record text (the `entry` … `end`
/// block, every line newline-terminated). Fails only for circuits holding
/// raw [`mdq_circuit::Gate::Unitary`] gates, which the text format cannot
/// express — the synthesis pipeline never emits those.
fn record_text(
    key: &CanonicalKey,
    value: &CachedPreparation,
) -> Result<String, serialize::SerializeError> {
    use std::fmt::Write as _;
    let circuit_line = serialize::to_line(&value.circuit)?;
    let mut out = String::new();
    out.push_str("entry\n");
    out.push_str("dims");
    for d in &key.dims {
        let _ = write!(out, " {d}");
    }
    out.push('\n');
    let o = &key.options;
    let fth = match o.fidelity_threshold {
        Some(bits) => hex(bits),
        None => "none".to_owned(),
    };
    let _ = writeln!(
        out,
        "opts fth={fth} tol={} pr={} skip={} dir={} red={} kzs={}",
        hex(o.tolerance),
        o.product_rule,
        u8::from(o.skip_identities),
        o.direction,
        u8::from(o.reduce),
        u8::from(o.keep_zero_subtrees),
    );
    out.push_str("sup");
    for &(idx, re, im) in &key.support {
        let _ = write!(out, " {idx}:{}:{}", hex(re), hex(im));
    }
    out.push('\n');
    let _ = writeln!(out, "circuit {circuit_line}");
    let _ = writeln!(out, "report {}", report_body(&value.report));
    let _ = writeln!(
        out,
        "verify {}",
        verification_body(value.verification.as_ref())
    );
    out.push_str("end\n");
    Ok(out)
}

/// Renders the full snapshot text for a set of cache entries,
/// deterministically ordered.
fn snapshot_text(entries: &[(u64, CanonicalKey, Arc<CachedPreparation>)]) -> (String, usize) {
    let mut records: Vec<String> = entries
        .iter()
        .filter_map(|(_, key, value)| record_text(key, value).ok())
        .collect();
    records.sort_unstable();
    let mut text = format!("mdqsnap {VERSION}\nentries {}\n", records.len());
    for record in &records {
        text.push_str(record);
    }
    text.push_str("done\n");
    let count = records.len();
    (text, count)
}

/// Writes the cache's current contents to `path`, atomically (the file is
/// staged at `path` + `.tmp` and renamed into place, so a crash mid-write
/// never leaves a half-written snapshot behind).
pub fn save(cache: &CircuitCache, path: &Path) -> Result<SnapshotStats, SnapshotError> {
    let (text, entries) = snapshot_text(&cache.export());
    let bytes = text.len() as u64;
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &text)?;
    std::fs::rename(&tmp, path)?;
    Ok(SnapshotStats { entries, bytes })
}

fn corrupt(line: usize, message: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt {
        line: line + 1,
        message: message.into(),
    }
}

/// Strips `"<tag> "` (or exactly `tag`) off a record line.
fn tagged<'a>(lines: &[&'a str], index: usize, tag: &str) -> Result<&'a str, SnapshotError> {
    let line = *lines.get(index).ok_or(SnapshotError::Truncated)?;
    if line == tag {
        Ok("")
    } else {
        line.strip_prefix(tag)
            .and_then(|rest| rest.strip_prefix(' '))
            .ok_or_else(|| corrupt(index, format!("expected `{tag}` line")))
    }
}

/// Strips a `key=` prefix off one field token.
fn field<'a>(token: &'a str, key: &str, line: usize) -> Result<&'a str, SnapshotError> {
    token
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| corrupt(line, format!("expected `{key}=` field, found `{token}`")))
}

fn parse_usize(s: &str, line: usize, what: &str) -> Result<usize, SnapshotError> {
    s.parse()
        .map_err(|_| corrupt(line, format!("bad {what}: `{s}`")))
}

fn parse_hex(s: &str, line: usize, what: &str) -> Result<u64, SnapshotError> {
    serialize::bits_from_hex(s).ok_or_else(|| corrupt(line, format!("bad {what}: `{s}`")))
}

/// Parses one record starting at `lines[start]` (the `entry` line).
fn parse_record(
    lines: &[&str],
    start: usize,
) -> Result<(CanonicalKey, CachedPreparation), SnapshotError> {
    if *lines.get(start).ok_or(SnapshotError::Truncated)? != "entry" {
        return Err(corrupt(start, "expected `entry` line"));
    }

    let dims_line = tagged(lines, start + 1, "dims")?;
    let dims: Vec<usize> = dims_line
        .split_ascii_whitespace()
        .map(|t| parse_usize(t, start + 1, "dimension"))
        .collect::<Result<_, _>>()?;

    let opts_line = start + 2;
    let tokens: Vec<&str> = tagged(lines, opts_line, "opts")?
        .split_ascii_whitespace()
        .collect();
    if tokens.len() != 7 {
        return Err(corrupt(opts_line, "expected 7 option fields"));
    }
    let fth = field(tokens[0], "fth", opts_line)?;
    let bool_field = |raw: &str| match raw {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(corrupt(opts_line, format!("bad flag: `{other}`"))),
    };
    let options = OptionsKey {
        fidelity_threshold: if fth == "none" {
            None
        } else {
            Some(parse_hex(fth, opts_line, "fidelity threshold")?)
        },
        tolerance: parse_hex(field(tokens[1], "tol", opts_line)?, opts_line, "tolerance")?,
        product_rule: parse_usize(
            field(tokens[2], "pr", opts_line)?,
            opts_line,
            "product rule",
        )? as u8,
        skip_identities: bool_field(field(tokens[3], "skip", opts_line)?)?,
        direction: parse_usize(field(tokens[4], "dir", opts_line)?, opts_line, "direction")? as u8,
        reduce: bool_field(field(tokens[5], "red", opts_line)?)?,
        keep_zero_subtrees: bool_field(field(tokens[6], "kzs", opts_line)?)?,
    };

    let sup_line = start + 3;
    let support: Vec<(u64, u64, u64)> = tagged(lines, sup_line, "sup")?
        .split_ascii_whitespace()
        .map(|token| {
            let mut parts = token.split(':');
            let idx = parts.next().unwrap_or_default();
            let re = parts.next().unwrap_or_default();
            let im = parts.next().unwrap_or_default();
            if parts.next().is_some() {
                return Err(corrupt(sup_line, format!("bad support entry: `{token}`")));
            }
            Ok((
                parse_usize(idx, sup_line, "support index")? as u64,
                parse_hex(re, sup_line, "support re bits")?,
                parse_hex(im, sup_line, "support im bits")?,
            ))
        })
        .collect::<Result<_, _>>()?;

    let circuit_line = start + 4;
    let register =
        Dims::new(dims.clone()).map_err(|e| corrupt(start + 1, format!("bad register: {e:?}")))?;
    let circuit = serialize::from_line(register, tagged(lines, circuit_line, "circuit")?)
        .map_err(|e| corrupt(circuit_line, format!("bad circuit: {e}")))?;

    let report_line = start + 5;
    let report = parse_report_body(tagged(lines, report_line, "report")?)
        .map_err(|message| corrupt(report_line, message))?;

    let verify_line = start + 6;
    let verification = parse_verification_body(tagged(lines, verify_line, "verify")?)
        .map_err(|message| corrupt(verify_line, message))?;

    if *lines.get(start + 7).ok_or(SnapshotError::Truncated)? != "end" {
        return Err(corrupt(start + 7, "expected `end` line"));
    }

    Ok((
        CanonicalKey {
            dims,
            support,
            options,
        },
        CachedPreparation {
            circuit,
            report,
            verification,
        },
    ))
}

/// Lines per record (`entry` through `end`).
const RECORD_LINES: usize = 8;

/// Parses a whole snapshot, returning the loadable entries (fingerprint
/// re-derived from each parsed key) and how many records were dropped by
/// the round-trip guard.
fn parse_snapshot(text: &str) -> Result<(CacheEntries, usize), SnapshotError> {
    let lines: Vec<&str> = text.lines().collect();
    let header = *lines.first().ok_or(SnapshotError::NotASnapshot)?;
    let Some(version) = header.strip_prefix("mdqsnap ") else {
        return Err(SnapshotError::NotASnapshot);
    };
    let found: u32 = version.parse().map_err(|_| SnapshotError::NotASnapshot)?;
    if found != VERSION {
        return Err(SnapshotError::Version {
            found,
            supported: VERSION,
        });
    }
    let declared = parse_usize(tagged(&lines, 1, "entries")?, 1, "entry count")?;

    let mut entries = Vec::with_capacity(declared);
    let mut skipped = 0;
    let mut cursor = 2;
    for _ in 0..declared {
        let (key, value) = parse_record(&lines, cursor)?;
        // Round-trip guard: a record only loads if re-serializing the
        // parsed entry reproduces the file's bytes exactly. Anything that
        // drifted — an old encoding, a normalization difference — is
        // dropped here rather than trusted.
        let original = lines[cursor..cursor + RECORD_LINES].join("\n");
        match record_text(&key, &value) {
            Ok(text) if text.trim_end_matches('\n') == original => {
                entries.push((fingerprint_of(&key), key, Arc::new(value)));
            }
            _ => skipped += 1,
        }
        cursor += RECORD_LINES;
    }
    match lines.get(cursor) {
        Some(&"done") => Ok((entries, skipped)),
        Some(_) => Err(corrupt(cursor, "expected `done` footer")),
        None => Err(SnapshotError::Truncated),
    }
}

/// Loads a snapshot into a live cache. Each record's fingerprint is
/// re-derived from its parsed key; records that fail the bit-exact
/// round-trip guard are skipped. Entries are inserted through the normal
/// [`CircuitCache`] path, so shard capacity (LRU) applies.
pub fn load_into(cache: &CircuitCache, path: &Path) -> Result<SnapshotLoad, SnapshotError> {
    let started = Instant::now();
    let text = std::fs::read_to_string(path)?;
    let (entries, skipped) = parse_snapshot(&text)?;
    let loaded = entries.len();
    for (fingerprint, key, value) in entries {
        cache.insert(fingerprint, key, value);
    }
    Ok(SnapshotLoad {
        loaded,
        skipped,
        duration: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::canonical_key;
    use crate::request::PrepareRequest;
    use mdq_core::PrepareOptions;
    use mdq_num::Complex;

    /// A small cache with `n` real prepared entries, every third verified.
    fn populated_cache(n: usize) -> CircuitCache {
        let cache = CircuitCache::new(2);
        for i in 0..n {
            let dims = Dims::new(vec![2, 3]).unwrap();
            let theta = 0.2 + 0.6 * i as f64 / n.max(1) as f64;
            let mut amps = vec![Complex::ZERO; 6];
            amps[0] = Complex::real(theta.cos());
            amps[4] = Complex::new(0.0, theta.sin());
            let request =
                PrepareRequest::dense(dims.clone(), amps.clone(), PrepareOptions::exact());
            let (fp, key) = canonical_key(&request).unwrap();
            let prepared = mdq_core::prepare(&dims, &amps, PrepareOptions::exact()).unwrap();
            let verification = (i % 3 == 0).then(|| VerificationReport {
                fidelity: 1.0 - 1e-12,
                replay_nodes: 3 + i,
                duration: Duration::new(0, 1234 + i as u32),
            });
            cache.insert(
                fp,
                key,
                Arc::new(CachedPreparation {
                    circuit: prepared.circuit,
                    report: prepared.report,
                    verification,
                }),
            );
        }
        cache
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mdqsnap-test-{}-{tag}.snap", std::process::id()))
    }

    #[test]
    fn snapshot_text_is_deterministic_and_versioned() {
        let cache = populated_cache(4);
        let (text, count) = snapshot_text(&cache.export());
        assert_eq!(count, 4);
        assert!(text.starts_with("mdqsnap 1\nentries 4\n"));
        assert!(text.ends_with("done\n"));
        // Same contents → byte-identical snapshot, regardless of the
        // hash-map iteration order behind `export`.
        let (again, _) = snapshot_text(&cache.export());
        assert_eq!(text, again);
    }

    #[test]
    fn save_load_round_trips_every_entry_with_rederived_fingerprints() {
        let cache = populated_cache(5);
        let path = temp_path("roundtrip");
        let stats = save(&cache, &path).unwrap();
        assert_eq!(stats.entries, 5);
        assert!(stats.bytes > 0);

        let restored = CircuitCache::new(4);
        let load = load_into(&restored, &path).unwrap();
        assert_eq!((load.loaded, load.skipped), (5, 0));
        assert_eq!(restored.len(), 5);
        // Every original entry is served from the restored cache under its
        // *re-derived* fingerprint, bit-identical, verification retained.
        for (fp, key, value) in cache.export() {
            assert_eq!(fingerprint_of(&key), fp);
            let served = restored.get(fp, &key, false).expect("entry restored");
            assert_eq!(served.circuit, value.circuit);
            assert_eq!(
                served.verification.is_some(),
                value.verification.is_some(),
                "verified entries stay verified"
            );
            if let (Some(a), Some(b)) = (&served.verification, &value.verification) {
                assert_eq!(a.fidelity.to_bits(), b.fidelity.to_bits());
                assert_eq!(a.replay_nodes, b.replay_nodes);
                assert_eq!(a.duration, b.duration);
            }
            assert_eq!(
                served.report.controls_median.to_bits(),
                value.report.controls_median.to_bits()
            );
            assert_eq!(served.report.time, value.report.time);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load_into(&CircuitCache::new(1), Path::new("/nonexistent/x.snap"))
            .expect_err("missing file");
        assert!(matches!(err, SnapshotError::Io(_)));
        assert!(err.to_string().contains("I/O"));
    }

    #[test]
    fn non_snapshot_and_version_mismatch_are_typed_errors() {
        assert!(matches!(
            parse_snapshot("not a snapshot\n"),
            Err(SnapshotError::NotASnapshot)
        ));
        assert!(matches!(
            parse_snapshot(""),
            Err(SnapshotError::NotASnapshot)
        ));
        let err = parse_snapshot("mdqsnap 99\nentries 0\ndone\n").expect_err("future version");
        match err {
            SnapshotError::Version { found, supported } => {
                assert_eq!((found, supported), (99, 1));
            }
            other => panic!("expected Version error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let cache = populated_cache(2);
        let (text, _) = snapshot_text(&cache.export());
        // Cut mid-record: parsing runs out of lines before `done`.
        let cut = &text[..text.len() / 2];
        assert!(matches!(
            parse_snapshot(cut),
            Err(SnapshotError::Truncated | SnapshotError::Corrupt { .. })
        ));
        // Remove just the footer: still truncated.
        let no_footer = text.strip_suffix("done\n").unwrap();
        assert!(matches!(
            parse_snapshot(no_footer),
            Err(SnapshotError::Truncated)
        ));
    }

    #[test]
    fn corrupt_lines_are_rejected_with_position() {
        let cache = populated_cache(1);
        let (text, _) = snapshot_text(&cache.export());
        let tampered = text.replace("report ni=", "report nx=");
        match parse_snapshot(&tampered) {
            Err(SnapshotError::Corrupt { line, message }) => {
                assert!(line > 2, "points inside the record, got line {line}");
                assert!(message.contains("ni"), "names the field: {message}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let bad_circuit = text.replace("circuit ", "circuit z99 ");
        assert!(matches!(
            parse_snapshot(&bad_circuit),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn non_canonical_records_are_skipped_not_loaded() {
        let cache = populated_cache(2);
        let (text, _) = snapshot_text(&cache.export());
        // Uppercase one tolerance hex digit set: the record still parses to
        // the same value, but re-serialization lowercases it — the
        // round-trip guard must drop the record rather than trust it.
        let drifted = text.replacen("tol=3e", "tol=3E", 1);
        assert_ne!(text, drifted, "fixture assumes the tolerance contains 0x3e");
        let (entries, skipped) = parse_snapshot(&drifted).unwrap();
        assert_eq!(skipped, 1, "drifted record dropped");
        assert_eq!(entries.len(), 1, "intact record still loads");
    }

    #[test]
    fn loaded_entries_respect_lru_capacity() {
        let cache = populated_cache(6);
        let path = temp_path("capacity");
        save(&cache, &path).unwrap();
        let bounded = CircuitCache::with_capacity(1, Some(2));
        let load = load_into(&bounded, &path).unwrap();
        assert_eq!(load.loaded, 6, "all records parsed and inserted");
        assert_eq!(bounded.len(), 2, "LRU bound applies during load");
        assert_eq!(bounded.stats().evictions, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_cache_snapshots_and_reloads() {
        let path = temp_path("empty");
        let stats = save(&CircuitCache::new(1), &path).unwrap();
        assert_eq!(stats.entries, 0);
        let load = load_into(&CircuitCache::new(1), &path).unwrap();
        assert_eq!((load.loaded, load.skipped), (0, 0));
        std::fs::remove_file(&path).ok();
    }
}
