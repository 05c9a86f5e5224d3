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
//! replay verification remains the oracle for verified serving. Nothing is
//! sized from the file's declared entry count, so a hostile count is a
//! typed error, not an allocation failure.
//!
//! Records are written with the workspace's one text
//! [`Writer`] and read with its one byte
//! [`Cursor`], the pair the `mdqwire` frames and the
//! `mdqc` circuit forms share; the `report` and `verify` bodies are the
//! same functions on both formats.
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

use mdq_circuit::serialize::{self, Cursor, TextError, Writer};
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

impl From<TextError> for SnapshotError {
    fn from(e: TextError) -> Self {
        match e {
            TextError::Truncated => SnapshotError::Truncated,
            TextError::Corrupt { line, message } => SnapshotError::Corrupt { line, message },
        }
    }
}

/// Writes the 13 [`SynthesisReport`] fields that follow the line tag,
/// shared between `mdqsnap` `report` lines and `mdqwire` `synth` lines.
pub(crate) fn write_report_body(w: &mut Writer, r: &SynthesisReport) {
    w.str(" ni=").usize(r.nodes_initial);
    w.str(" nf=").usize(r.nodes_final);
    w.str(" dci=").usize(r.distinct_c_initial);
    w.str(" dcf=").usize(r.distinct_c_final);
    w.str(" ops=").usize(r.operations);
    w.str(" cmed=").hex(r.controls_median.to_bits());
    w.str(" cmean=").hex(r.controls_mean.to_bits());
    w.str(" cmax=").usize(r.controls_max);
    w.str(" rm=").usize(r.removed_nodes);
    w.str(" pm=").hex(r.pruned_mass.to_bits());
    w.str(" fb=").hex(r.fidelity_bound.to_bits());
    w.str(" t=").duration(r.time);
    w.str(" tt=").duration(r.total_time);
}

/// Reads [`write_report_body`]'s fields through the end of the line.
pub(crate) fn read_report_body(c: &mut Cursor) -> Result<SynthesisReport, TextError> {
    let report = SynthesisReport {
        nodes_initial: c.expect(" ni=")?.uint("ni")?,
        nodes_final: c.expect(" nf=")?.uint("nf")?,
        distinct_c_initial: c.expect(" dci=")?.uint("dci")?,
        distinct_c_final: c.expect(" dcf=")?.uint("dcf")?,
        operations: c.expect(" ops=")?.uint("ops")?,
        controls_median: f64::from_bits(c.expect(" cmed=")?.hex("cmed")?),
        controls_mean: f64::from_bits(c.expect(" cmean=")?.hex("cmean")?),
        controls_max: c.expect(" cmax=")?.uint("cmax")?,
        removed_nodes: c.expect(" rm=")?.uint("rm")?,
        pruned_mass: f64::from_bits(c.expect(" pm=")?.hex("pm")?),
        fidelity_bound: f64::from_bits(c.expect(" fb=")?.hex("fb")?),
        time: c.expect(" t=")?.duration("t")?,
        total_time: c.expect(" tt=")?.duration("tt")?,
    };
    c.end_line()?;
    Ok(report)
}

/// Writes the `verify` line body — ` none` or ` fid=… nodes=… t=…` —
/// shared between `mdqsnap` and `mdqwire` records.
pub(crate) fn write_verification(w: &mut Writer, v: Option<&VerificationReport>) {
    match v {
        None => w.str(" none"),
        Some(v) => w
            .str(" fid=")
            .hex(v.fidelity.to_bits())
            .str(" nodes=")
            .usize(v.replay_nodes)
            .str(" t=")
            .duration(v.duration),
    };
}

/// Reads [`write_verification`]'s body through the end of the line.
pub(crate) fn read_verification(c: &mut Cursor) -> Result<Option<VerificationReport>, TextError> {
    let verification = if c.eat(" none") {
        None
    } else {
        Some(VerificationReport {
            fidelity: f64::from_bits(c.expect(" fid=")?.hex("fid")?),
            replay_nodes: c.expect(" nodes=")?.uint("nodes")?,
            duration: c.expect(" t=")?.duration("t")?,
        })
    };
    c.end_line()?;
    Ok(verification)
}

/// Writes one cache entry's record (the `entry` … `end` block, every line
/// newline-terminated). Fails only for circuits holding raw
/// [`mdq_circuit::Gate::Unitary`] gates, which the text format cannot
/// express — the synthesis pipeline never emits those.
fn write_record(
    w: &mut Writer,
    key: &CanonicalKey,
    value: &CachedPreparation,
) -> Result<(), serialize::SerializeError> {
    let o = &key.options;
    w.str("entry\ndims").usizes(&key.dims).str("\nopts fth=");
    match o.fidelity_threshold {
        Some(bits) => w.hex(bits),
        None => w.str("none"),
    };
    w.str(" tol=").hex(o.tolerance);
    w.str(" pr=").u64(o.product_rule.into());
    w.str(" skip=").u64(o.skip_identities.into());
    w.str(" dir=").u64(o.direction.into());
    w.str(" red=").u64(o.reduce.into());
    w.str(" kzs=").u64(o.keep_zero_subtrees.into());
    w.str("\nsup");
    for &(idx, re, im) in &key.support {
        w.str(" ").u64(idx).str(":").hex(re).str(":").hex(im);
    }
    w.str("\ncircuit ")
        .circuit_line(&value.circuit)?
        .str("\nreport");
    write_report_body(w, &value.report);
    w.str("\nverify");
    write_verification(w, value.verification.as_ref());
    w.str("\nend\n");
    Ok(())
}

/// A size estimate of one record, so that a snapshot is written into one
/// allocation.
fn record_capacity(key: &CanonicalKey, value: &CachedPreparation) -> usize {
    512 + 21 * key.dims.len() + 55 * key.support.len() + serialize::line_capacity(&value.circuit)
}

/// Renders the full snapshot text for a set of cache entries,
/// deterministically ordered: records are written into one buffer, then
/// copied out sorted by their text.
fn snapshot_text(entries: &[(u64, CanonicalKey, Arc<CachedPreparation>)]) -> (String, usize) {
    let capacity = entries
        .iter()
        .map(|(_, key, value)| record_capacity(key, value))
        .sum();
    let mut records = Writer::with_capacity(capacity);
    let mut spans = Vec::with_capacity(entries.len());
    for (_, key, value) in entries {
        let start = records.as_str().len();
        match write_record(&mut records, key, value) {
            Ok(()) => spans.push(start..records.as_str().len()),
            Err(_) => records.truncate(start),
        }
    }
    let records = records.into_string();
    spans.sort_unstable_by(|a, b| records[a.clone()].cmp(&records[b.clone()]));
    let mut w = Writer::with_capacity(records.len() + 64);
    w.str("mdqsnap ").u64(VERSION.into());
    w.str("\nentries ").usize(spans.len()).str("\n");
    for span in &spans {
        w.str(&records[span.clone()]);
    }
    w.str("done\n");
    (w.into_string(), spans.len())
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

/// Reads one record, starting at its `entry` line.
fn read_record(c: &mut Cursor) -> Result<(CanonicalKey, CachedPreparation), TextError> {
    c.line("entry")?.end_line()?;
    let dims = c.line("dims")?.uints("dimension")?;
    let register =
        Dims::new(dims.clone()).map_err(|e| c.corrupt(format!("bad register: {e:?}")))?;
    c.end_line()?;

    let fidelity_threshold = if c.line("opts")?.expect(" fth=")?.eat("none") {
        None
    } else {
        Some(c.hex("fidelity threshold")?)
    };
    let options = OptionsKey {
        fidelity_threshold,
        tolerance: c.expect(" tol=")?.hex("tolerance")?,
        product_rule: c.expect(" pr=")?.uint("product rule")?,
        skip_identities: c.expect(" skip=")?.flag("skip")?,
        direction: c.expect(" dir=")?.uint("direction")?,
        reduce: c.expect(" red=")?.flag("red")?,
        keep_zero_subtrees: c.expect(" kzs=")?.flag("kzs")?,
    };
    c.end_line()?;

    c.line("sup")?;
    let mut support = Vec::new();
    while c.eat(" ") {
        let index = c.uint("support index")?;
        let re = c.expect(":")?.hex("support re bits")?;
        let im = c.expect(":")?.hex("support im bits")?;
        support.push((index, re, im));
    }
    c.end_line()?;

    c.line("circuit")?.eat(" ");
    let circuit = c
        .circuit_line(register)
        .map_err(|e| c.corrupt(format!("bad circuit: {e}")))?;
    c.end_line()?;
    let report = read_report_body(c.line("report")?)?;
    let verification = read_verification(c.line("verify")?)?;
    c.line("end")?.end_line()?;

    Ok((
        CanonicalKey {
            dims,
            support,
            options,
        },
        CachedPreparation {
            circuit: Arc::new(circuit),
            report,
            verification,
        },
    ))
}

/// Parses a whole snapshot with the shared [`Cursor`], returning the
/// loadable entries (fingerprint re-derived from each parsed key) and how
/// many records were dropped by the round-trip guard.
fn parse_snapshot(text: &str) -> Result<(CacheEntries, usize), SnapshotError> {
    let mut c = Cursor::new(text);
    let found = c
        .expect("mdqsnap ")
        .and_then(|c| c.uint("version"))
        .ok()
        .filter(|_| c.end_line().is_ok())
        .ok_or(SnapshotError::NotASnapshot)?;
    if found != VERSION {
        return Err(SnapshotError::Version {
            found,
            supported: VERSION,
        });
    }
    let declared: usize = c.line("entries")?.expect(" ")?.uint("entry count")?;
    c.end_line()?;

    // Nothing is sized from the declared count: a hostile count runs out
    // of records, not of memory.
    let mut entries = Vec::new();
    let mut skipped = 0;
    let mut rewritten = Writer::default();
    for _ in 0..declared {
        let start = c.offset();
        let (key, value) = read_record(&mut c)?;
        // Round-trip guard: a record only loads if re-serializing the
        // parsed entry reproduces the file's bytes exactly. Anything that
        // drifted — an old encoding, a normalization difference — is
        // dropped here rather than trusted.
        rewritten.clear();
        let exact = write_record(&mut rewritten, &key, &value).is_ok()
            && rewritten.as_str() == &text[start..c.offset()];
        if exact {
            entries.push((fingerprint_of(&key), key, Arc::new(value)));
        } else {
            skipped += 1;
        }
    }
    c.line("done")?.end_line()?;
    Ok((entries, skipped))
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
                    circuit: Arc::new(prepared.circuit),
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

    /// Two records built from literal values: raw-bit support entries
    /// (−0.0, a NaN payload, a subnormal, ±inf), a hand-written circuit
    /// with multi-digit qudits and levels and the angles −0.0, 5e-324,
    /// 1e300 and π, an empty circuit, and fixed durations.
    fn golden_entries() -> Vec<(u64, CanonicalKey, Arc<CachedPreparation>)> {
        use mdq_circuit::{Circuit, Control, Gate, Instruction};
        let register = Dims::new(vec![3, 12]).unwrap();
        let mut circuit = Circuit::new(register);
        for instruction in [
            Instruction::local(
                1,
                Gate::Givens {
                    lo: 10,
                    hi: 11,
                    theta: std::f64::consts::PI,
                    phi: -0.0,
                },
            ),
            Instruction::controlled(
                0,
                Gate::ZRotation {
                    lo: 1,
                    hi: 2,
                    theta: 5e-324,
                },
                vec![Control::new(1, 11)],
            ),
            Instruction::controlled(
                1,
                Gate::PhaseLevel {
                    level: 10,
                    angle: 1e300,
                },
                vec![Control::new(0, 2)],
            ),
            Instruction::local(1, Gate::shift(-11)),
            Instruction::local(0, Gate::fourier_inverse()),
        ] {
            circuit.push(instruction).unwrap();
        }
        let report = |ops: usize, nanos: u32| SynthesisReport {
            nodes_initial: 40 + ops,
            nodes_final: 12,
            distinct_c_initial: 7,
            distinct_c_final: 5,
            operations: ops,
            controls_median: 0.5,
            controls_mean: -0.0,
            controls_max: 1,
            removed_nodes: 0,
            pruned_mass: f64::from_bits(1),
            fidelity_bound: 1.0,
            time: Duration::new(0, nanos),
            total_time: Duration::new(1, nanos),
        };
        let first = (
            CanonicalKey {
                dims: vec![3, 12],
                support: vec![
                    (0, (-0.0f64).to_bits(), 0x7ff8_0000_dead_beef),
                    (35, 1, f64::INFINITY.to_bits()),
                ],
                options: OptionsKey {
                    fidelity_threshold: Some(0.98f64.to_bits()),
                    tolerance: 1e-9f64.to_bits(),
                    product_rule: 2,
                    skip_identities: true,
                    direction: 1,
                    reduce: true,
                    keep_zero_subtrees: false,
                },
            },
            CachedPreparation {
                circuit: Arc::new(circuit),
                report: report(5, 123_456),
                verification: Some(VerificationReport {
                    fidelity: 1.0 - f64::EPSILON,
                    replay_nodes: 14,
                    duration: Duration::new(0, 999_999_999),
                }),
            },
        );
        let second = (
            CanonicalKey {
                dims: vec![2],
                support: vec![(1, f64::NEG_INFINITY.to_bits(), 0)],
                options: OptionsKey {
                    fidelity_threshold: None,
                    tolerance: 0,
                    product_rule: 0,
                    skip_identities: false,
                    direction: 0,
                    reduce: false,
                    keep_zero_subtrees: true,
                },
            },
            CachedPreparation {
                circuit: Arc::new(Circuit::new(Dims::new(vec![2]).unwrap())),
                report: report(0, 7),
                verification: None,
            },
        );
        [first, second]
            .into_iter()
            .map(|(key, value)| (fingerprint_of(&key), key, Arc::new(value)))
            .collect()
    }

    #[test]
    fn two_record_snapshot_matches_its_golden_bytes() {
        const GOLDEN: &str = include_str!("../../../tests/golden/snapshot_two_records.txt");
        let entries = golden_entries();
        let (text, count) = snapshot_text(&entries);
        assert_eq!(count, 2);
        assert_eq!(text, GOLDEN);

        let (parsed, skipped) = parse_snapshot(GOLDEN).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(parsed.len(), 2);
        // Records load in file order, which sorts by record text.
        for (fingerprint, key, value) in &parsed {
            let (want_fp, want_key, want) = entries
                .iter()
                .find(|(_, k, _)| k == key)
                .expect("every golden key comes back bit for bit");
            assert_eq!(fingerprint, want_fp);
            assert_eq!(key, want_key);
            assert_eq!(value.circuit.len(), want.circuit.len());
            for (a, b) in value.circuit.iter().zip(want.circuit.iter()) {
                assert_eq!((a.qudit, &a.controls), (b.qudit, &b.controls));
                assert_eq!(format!("{:?}", a.gate), format!("{:?}", b.gate));
                let angles = |g: &mdq_circuit::Gate| match *g {
                    mdq_circuit::Gate::Givens { theta, phi, .. } => {
                        [theta.to_bits(), phi.to_bits()]
                    }
                    mdq_circuit::Gate::ZRotation { theta, .. } => [theta.to_bits(), 0],
                    mdq_circuit::Gate::PhaseLevel { angle, .. } => [angle.to_bits(), 0],
                    _ => [0, 0],
                };
                assert_eq!(angles(&a.gate), angles(&b.gate));
            }
            let (r, w) = (&value.report, &want.report);
            assert_eq!(format!("{r:?}"), format!("{w:?}"));
            for (x, y) in [
                (r.controls_median, w.controls_median),
                (r.controls_mean, w.controls_mean),
                (r.pruned_mass, w.pruned_mass),
                (r.fidelity_bound, w.fidelity_bound),
            ] {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            match (&value.verification, &want.verification) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.fidelity.to_bits(), b.fidelity.to_bits());
                    assert_eq!((a.replay_nodes, a.duration), (b.replay_nodes, b.duration));
                }
                (a, b) => panic!("verification differs: {a:?} vs {b:?}"),
            }
        }
    }

    /// A declared entry count sizes nothing: a huge count runs out of
    /// records and is refused typed, never an allocation failure.
    #[test]
    fn hostile_entry_counts_are_refused_typed() {
        for count in ["99999999999999", "18446744073709551615"] {
            let path = temp_path(&format!("hostile-{count}"));
            std::fs::write(&path, format!("mdqsnap 1\nentries {count}\ndone\n")).unwrap();
            let err = load_into(&CircuitCache::new(1), &path).expect_err("hostile count");
            assert!(
                matches!(err, SnapshotError::Corrupt { line: 3, .. }),
                "{count}: {err:?}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    /// A rotation whose `lo` exceeds the register fails validation at
    /// load, before any code could build its matrix.
    #[test]
    fn reversed_rotation_levels_are_corrupt() {
        const GOLDEN: &str = include_str!("../../../tests/golden/snapshot_two_records.txt");
        let tampered = GOLDEN.replacen("givens q1 lo10 hi11", "givens q1 lo13 hi11", 1);
        assert_ne!(tampered, GOLDEN);
        match parse_snapshot(&tampered) {
            Err(SnapshotError::Corrupt { line, message }) => {
                assert_eq!(line, 15, "the second record's circuit line");
                assert!(message.contains("level 13"), "{message}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
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
