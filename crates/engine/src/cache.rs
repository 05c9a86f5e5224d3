//! The fingerprint-keyed prepared-circuit cache.
//!
//! Every valid [`PrepareRequest`] is reduced to a *canonical key*: the
//! register dimensions, the deduplicated nonzero support of the target state
//! (exact amplitude bits), and every option that influences the synthesized
//! circuit or its report. The key is *fingerprinted* by hashing a
//! **tolerance-quantized** view of the amplitudes (each component snapped to
//! a grid of cell size `tolerance`), so numerically-adjacent requests land
//! in the same bucket; a stored entry is only *served*, however, when the
//! exact canonical keys match bit for bit. That split keeps the two promises
//! of the engine simultaneously: repeated requests are answered from cache,
//! and every answer is bit-identical to what a sequential [`prepare`] run
//! would have produced for that exact request.
//!
//! The store is sharded: each shard is an independently locked hash map, so
//! submitters probing and workers filling different fingerprints never
//! contend on one lock.
//!
//! [`prepare`]: mdq_core::prepare

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use mdq_circuit::Circuit;
use mdq_core::{Direction, ProductRule, SynthesisReport, VerificationReport};
use mdq_num::hash::Fnv1a;
use mdq_num::Complex;

use crate::request::{PrepareRequest, StatePayload};

/// Hit/miss/occupancy counters of a [`CircuitCache`].
///
/// All counters except `entries` are **cumulative** over the cache's
/// lifetime: they keep counting across [`CircuitCache::clear`]. `entries`
/// is **current** occupancy, maintained under the owning shard's lock on
/// every insert, eviction and clear.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (cumulative).
    pub hits: u64,
    /// Lookups that fell through to a full pipeline run (cumulative).
    pub misses: u64,
    /// Prepared circuits currently stored (current).
    pub entries: usize,
    /// Entries discarded by the per-shard LRU bound (cumulative; 0 on an
    /// unbounded cache).
    pub evictions: u64,
}

/// A cached preparation: the synthesized circuit, its metrics, and — when
/// the entry was produced by a verified job — the replay-verification
/// outcome. The circuit is one allocation shared between the store, the
/// report of the job that computed it, and every report served from it.
#[derive(Debug)]
pub(crate) struct CachedPreparation {
    pub(crate) circuit: Arc<Circuit>,
    pub(crate) report: SynthesisReport,
    /// `Some` iff the entry's circuit was replay-verified when it was
    /// computed. Requests that demand verification are only ever served
    /// entries where this is `Some` (see [`CircuitCache::get`]).
    pub(crate) verification: Option<VerificationReport>,
}

/// The canonical identity of a preparation request; see the
/// [module documentation](self).
///
/// Built (together with its fingerprint) by [`canonical_key`]; two requests
/// with equal keys are guaranteed to receive bit-identical circuits and
/// reports, so a key comparison is the engine's serve-from-cache test. The
/// fields are intentionally private: a key can only be obtained from a
/// request, which keeps the "equal key ⇒ identical result" invariant
/// unforgeable from outside the crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalKey {
    pub(crate) dims: Vec<usize>,
    /// Sorted, duplicate-summed, exact-zero-free support:
    /// `(flat index, re bits, im bits)`.
    pub(crate) support: Vec<(u64, u64, u64)>,
    pub(crate) options: OptionsKey,
}

/// The option fields that influence the synthesized circuit or its report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct OptionsKey {
    pub(crate) fidelity_threshold: Option<u64>,
    pub(crate) tolerance: u64,
    pub(crate) product_rule: u8,
    pub(crate) skip_identities: bool,
    pub(crate) direction: u8,
    pub(crate) reduce: bool,
    pub(crate) keep_zero_subtrees: bool,
}

/// Snaps one amplitude component onto the tolerance grid. Saturating casts
/// keep the result deterministic for extreme magnitudes, and negative zero
/// folds onto zero so `0.0` and `-0.0` share a cell.
fn quantize(component: f64, cell: f64) -> i64 {
    let q = (component / cell).round();
    if q == 0.0 {
        0
    } else {
        q as i64
    }
}

/// Builds the canonical key and its quantized fingerprint for a request, or
/// `None` when the request is malformed (wrong length, digits out of range,
/// non-finite amplitudes, empty support) — such requests bypass the cache
/// and surface their error through the pipeline itself.
///
/// This is the single fingerprinting implementation shared by the cache,
/// the snapshot loader (which re-derives every stored record's fingerprint
/// instead of trusting the file), and the `mdq-router` consistent-hash
/// ring — so "the shard a request routes to" and "the bucket its circuit
/// is cached under" can never drift apart.
///
/// **Stability:** the fingerprint is the workspace's 64-bit FNV-1a
/// ([`mdq_num::hash`]) over the tolerance-quantized amplitude grid and the
/// option fields — not `DefaultHasher`, whose algorithm is explicitly
/// unspecified — so the value is stable across Rust releases, platforms,
/// and process restarts. It may only change with a deliberate
/// format-version bump.
pub fn canonical_key(request: &PrepareRequest) -> Option<(u64, CanonicalKey)> {
    let dims = request.dims.as_slice().to_vec();
    let mut support: Vec<(u64, Complex)> = match &request.payload {
        StatePayload::Dense(amplitudes) => {
            if amplitudes.len() != request.dims.space_size() {
                return None;
            }
            amplitudes
                .iter()
                .enumerate()
                .filter(|(_, a)| !(a.re == 0.0 && a.im == 0.0))
                .map(|(i, a)| (i as u64, *a))
                .collect()
        }
        // The sparse form keys on the exact support the builder would build
        // from — one flattening implementation, shared with `from_sparse`.
        StatePayload::Sparse(entries) => mdq_dd::StateDd::canonical_sparse_support(
            &request.dims,
            entries,
            request.options.tolerance,
        )
        .ok()?
        .into_iter()
        .map(|(idx, amp)| (idx as u64, amp))
        .collect(),
    };
    if support.is_empty() || support.iter().any(|(_, a)| !a.is_finite()) {
        return None;
    }
    support.sort_by_key(|&(idx, _)| idx);

    let opts = &request.options;
    let options = OptionsKey {
        fidelity_threshold: opts.fidelity_threshold.map(f64::to_bits),
        tolerance: opts.tolerance.value().to_bits(),
        product_rule: match opts.synthesis.product_rule {
            ProductRule::Off => 0,
            ProductRule::SharedChild => 1,
            ProductRule::SharedChildOrSingle => 2,
        },
        skip_identities: opts.synthesis.skip_identities,
        direction: match opts.synthesis.direction {
            Direction::Prepare => 0,
            Direction::Disentangle => 1,
        },
        reduce: opts.reduce,
        // The *effective* flag: the sparse pipeline ignores
        // `keep_zero_subtrees` (the unreduced tree is exponential), so a
        // sparse request keys like `false`. With the flag off, dense and
        // sparse forms of one state produce identical diagrams, circuits
        // and reports and may share an entry; with it on, a dense request's
        // report has tree metrics and must not alias the sparse form.
        keep_zero_subtrees: opts.keep_zero_subtrees
            && matches!(request.payload, StatePayload::Dense(_)),
    };

    let key = CanonicalKey {
        dims,
        support: support
            .into_iter()
            .map(|(idx, a)| (idx, a.re.to_bits(), a.im.to_bits()))
            .collect(),
        options,
    };
    Some((fingerprint_of(&key), key))
}

/// Computes the tolerance-quantized fingerprint of a canonical key — the
/// exact value [`canonical_key`] pairs with that key. Snapshot loads call
/// this to **re-derive** each record's fingerprint from its parsed key
/// instead of trusting a value stored in the file, and the router hashes
/// it onto the shard ring.
///
/// Same stability guarantee as [`canonical_key`]: FNV-1a over quantized
/// bits, stable across Rust releases.
pub fn fingerprint_of(key: &CanonicalKey) -> u64 {
    let cell = f64::from_bits(key.options.tolerance).max(f64::MIN_POSITIVE);
    let mut fnv = Fnv1a::new();
    fnv.write_u64(key.dims.len() as u64);
    for &d in &key.dims {
        fnv.write_u64(d as u64);
    }
    for &(idx, re, im) in &key.support {
        fnv.write_u64(idx);
        fnv.write_u64(quantize(f64::from_bits(re), cell) as u64);
        fnv.write_u64(quantize(f64::from_bits(im), cell) as u64);
    }
    let options = &key.options;
    fnv.write_u64(options.fidelity_threshold.unwrap_or(u64::MAX ^ 1));
    fnv.write_u64(options.tolerance);
    fnv.write_u64(u64::from(options.product_rule));
    fnv.write_u64(u64::from(options.skip_identities));
    fnv.write_u64(u64::from(options.direction));
    fnv.write_u64(u64::from(options.reduce));
    fnv.write_u64(u64::from(options.keep_zero_subtrees));
    fnv.finish()
}

/// One stored preparation with its exact key and LRU stamp.
#[derive(Debug)]
struct Entry {
    key: CanonicalKey,
    value: Arc<CachedPreparation>,
    /// Shard tick of the last `get`/`insert` touching this entry — the
    /// LRU victim is the entry with the smallest stamp.
    last_used: u64,
}

/// One independently locked shard: fingerprint → entries sharing that
/// fingerprint, plus the shard-local LRU clock.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u64, Vec<Entry>>,
    /// Monotonic use counter stamping entries for LRU ordering.
    tick: u64,
    /// Entries stored in this shard (maintained, not recounted).
    len: usize,
}

impl Shard {
    /// Removes the least-recently-used entry of the whole shard. Linear in
    /// the shard size, which the entry bound keeps small by definition.
    fn evict_lru(&mut self) {
        let victim = self
            .map
            .iter()
            .flat_map(|(fp, bucket)| {
                bucket
                    .iter()
                    .enumerate()
                    .map(move |(i, e)| (e.last_used, *fp, i))
            })
            .min();
        if let Some((_, fingerprint, index)) = victim {
            let bucket = self.map.get_mut(&fingerprint).expect("victim bucket");
            bucket.remove(index);
            if bucket.is_empty() {
                self.map.remove(&fingerprint);
            }
            self.len -= 1;
        }
    }
}

/// The sharded, fingerprint-keyed prepared-circuit store; see the
/// [module documentation](self).
#[derive(Debug)]
pub struct CircuitCache {
    shards: Vec<Mutex<Shard>>,
    /// Power-of-two mask selecting a shard from a fingerprint.
    mask: u64,
    /// Per-shard entry bound; `None` is unbounded.
    shard_capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Maintained mirror of the summed per-shard `len`s, updated under the
    /// owning shard's lock on every insert/evict/clear — lets
    /// [`CircuitCache::stats`] report occupancy without walking (and
    /// locking) every shard.
    entries: AtomicUsize,
}

impl CircuitCache {
    /// Creates an **unbounded** cache with (at least) `shards`
    /// independently locked shards; the count is rounded up to a power of
    /// two, minimum 1.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self::with_capacity(shards, None)
    }

    /// Creates a cache bounded to *about* `capacity` entries (`None` is
    /// unbounded). The bound is enforced per shard — `capacity` split
    /// evenly across shards, rounded up, minimum 1 entry per shard — so
    /// the effective total bound is `shards × ceil(capacity / shards)`,
    /// which can exceed `capacity` by up to one entry per shard. When a
    /// shard is full, its least-recently-used entry is evicted to admit
    /// the new one.
    #[must_use]
    pub fn with_capacity(shards: usize, capacity: Option<usize>) -> Self {
        let count = shards.max(1).next_power_of_two();
        let shard_capacity = capacity.map(|c| c.max(1).div_ceil(count).max(1));
        CircuitCache {
            shards: (0..count).map(|_| Mutex::new(Shard::default())).collect(),
            mask: (count - 1) as u64,
            shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            entries: AtomicUsize::new(0),
        }
    }

    fn shard(&self, fingerprint: u64) -> &Mutex<Shard> {
        // Fold the high bits in so the shard index is not just the low bits
        // already used as the hash-map key.
        &self.shards[((fingerprint >> 32 ^ fingerprint) & self.mask) as usize]
    }

    /// Looks up an exact key under its fingerprint, counting a hit or miss
    /// and refreshing the entry's LRU stamp on a hit.
    ///
    /// With `require_verified`, an entry without a verification report is
    /// *not* served (counted as a miss): a request that demands
    /// verification must never silently reuse an unverified entry — the
    /// caller re-runs the pipeline with verification and
    /// [`CircuitCache::insert`] upgrades the entry in place.
    pub(crate) fn get(
        &self,
        fingerprint: u64,
        key: &CanonicalKey,
        require_verified: bool,
    ) -> Option<Arc<CachedPreparation>> {
        let mut shard = self
            .shard(fingerprint)
            .lock()
            .expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        let found = shard.map.get_mut(&fingerprint).and_then(|bucket| {
            let entry = bucket
                .iter_mut()
                .find(|e| e.key == *key && !(require_verified && e.value.verification.is_none()))?;
            entry.last_used = tick;
            Some(Arc::clone(&entry.value))
        });
        drop(shard);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Stores a preparation under its key, evicting the shard's
    /// least-recently-used entry first when the shard is at its bound. If
    /// another worker raced the same key in first, the existing entry wins
    /// (both are bit-identical by construction) — unless the new value is
    /// verified and the stored one is not, in which case the verified
    /// value replaces it so the verification outcome is retained.
    pub(crate) fn insert(
        &self,
        fingerprint: u64,
        key: CanonicalKey,
        value: Arc<CachedPreparation>,
    ) {
        let mut shard = self
            .shard(fingerprint)
            .lock()
            .expect("cache shard poisoned");
        if let Some(existing) = shard
            .map
            .get_mut(&fingerprint)
            .and_then(|bucket| bucket.iter_mut().find(|e| e.key == key))
        {
            if existing.value.verification.is_none() && value.verification.is_some() {
                existing.value = value;
            }
            return;
        }
        if let Some(capacity) = self.shard_capacity {
            if shard.len >= capacity {
                shard.evict_lru();
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.entries.fetch_sub(1, Ordering::Relaxed);
            }
        }
        shard.tick += 1;
        let last_used = shard.tick;
        shard.map.entry(fingerprint).or_default().push(Entry {
            key,
            value,
            last_used,
        });
        shard.len += 1;
        self.entries.fetch_add(1, Ordering::Relaxed);
    }

    /// Cache counters; see [`CacheStats`] for which are cumulative
    /// (`hits`, `misses`, `evictions`) and which are current (`entries`).
    ///
    /// Lock-free: every field is read from a maintained atomic, so an
    /// aggregator polling many caches never contends with serving workers.
    /// The fields are loaded one by one, so counters mutated concurrently
    /// may be mutually inconsistent by a few operations; quiesced, they
    /// are exact.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of prepared circuits currently stored (lock-free; see
    /// [`CircuitCache::stats`]).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Whether the cache holds no circuits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every stored circuit; the cumulative counters keep counting.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            shard.map.clear();
            self.entries.fetch_sub(shard.len, Ordering::Relaxed);
            shard.len = 0;
        }
    }

    /// Clones out every stored entry with its fingerprint — the feed for
    /// snapshot saves. Shards are drained one lock at a time, so
    /// concurrent inserts may or may not be included.
    pub(crate) fn export(&self) -> CacheEntries {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            for (fp, bucket) in &shard.map {
                for entry in bucket {
                    out.push((*fp, entry.key.clone(), Arc::clone(&entry.value)));
                }
            }
        }
        out
    }
}

/// `(fingerprint, key, value)` triples exchanged between the cache and
/// snapshot load/save.
pub(crate) type CacheEntries = Vec<(u64, CanonicalKey, Arc<CachedPreparation>)>;

#[cfg(test)]
mod tests {
    use super::*;
    use mdq_core::PrepareOptions;
    use mdq_num::radix::Dims;

    fn dims(v: &[usize]) -> Dims {
        Dims::new(v.to_vec()).unwrap()
    }

    fn dense_request(amps: &[Complex]) -> PrepareRequest {
        PrepareRequest::dense(dims(&[2, 2]), amps.to_vec(), PrepareOptions::exact())
    }

    #[test]
    fn identical_requests_share_a_key() {
        let a = Complex::real(0.5);
        let r1 = dense_request(&[a, a, a, a]);
        let r2 = dense_request(&[a, a, a, a]);
        assert_eq!(canonical_key(&r1), canonical_key(&r2));
    }

    #[test]
    fn different_states_get_different_fingerprints() {
        let a = Complex::real(0.5);
        let r1 = dense_request(&[a, a, a, a]);
        let r2 = dense_request(&[a, a, a, -a]);
        let (f1, k1) = canonical_key(&r1).unwrap();
        let (f2, k2) = canonical_key(&r2).unwrap();
        assert_ne!(k1, k2);
        assert_ne!(f1, f2);
    }

    #[test]
    fn options_are_part_of_the_key() {
        let a = Complex::real(0.5);
        let exact = dense_request(&[a, a, a, a]);
        let approx = PrepareRequest::dense(
            dims(&[2, 2]),
            vec![a, a, a, a],
            PrepareOptions::approximated(0.98),
        );
        assert_ne!(
            canonical_key(&exact).unwrap().1,
            canonical_key(&approx).unwrap().1
        );
    }

    #[test]
    fn dense_and_sparse_forms_of_a_state_share_a_key() {
        // With zero subtrees off, dense and sparse pipelines produce
        // identical diagrams, circuits and reports — sharing is safe.
        let d = dims(&[2, 2]);
        let a = Complex::real(0.5f64.sqrt());
        let mut amps = vec![Complex::ZERO; 4];
        amps[d.index_of(&[0, 0])] = a;
        amps[d.index_of(&[1, 1])] = a;
        let opts = PrepareOptions::exact().without_zero_subtrees();
        let dense = PrepareRequest::dense(d.clone(), amps, opts);
        let sparse = PrepareRequest::sparse(d, vec![(vec![0, 0], a), (vec![1, 1], a)], opts);
        assert_eq!(canonical_key(&dense), canonical_key(&sparse));
    }

    #[test]
    fn keep_zero_subtrees_separates_dense_from_sparse_keys() {
        // `prepare` honors keep_zero_subtrees (tree metrics in the report),
        // `prepare_sparse` ignores it — the same state must therefore key
        // differently, or the served report would depend on which form was
        // computed first.
        let d = dims(&[2, 2]);
        let a = Complex::real(0.5f64.sqrt());
        let mut amps = vec![Complex::ZERO; 4];
        amps[d.index_of(&[0, 0])] = a;
        amps[d.index_of(&[1, 1])] = a;
        let dense = PrepareRequest::dense(d.clone(), amps, PrepareOptions::exact());
        let sparse = PrepareRequest::sparse(
            d.clone(),
            vec![(vec![0, 0], a), (vec![1, 1], a)],
            PrepareOptions::exact(),
        );
        assert_ne!(
            canonical_key(&dense).unwrap().1,
            canonical_key(&sparse).unwrap().1
        );
        // A sparse request keys identically whether or not the (ignored)
        // flag is set.
        let sparse_flagless = PrepareRequest::sparse(
            d,
            vec![(vec![0, 0], a), (vec![1, 1], a)],
            PrepareOptions::exact().without_zero_subtrees(),
        );
        assert_eq!(canonical_key(&sparse), canonical_key(&sparse_flagless));
    }

    #[test]
    fn sparse_duplicates_are_summed_before_keying() {
        let d = dims(&[2, 2]);
        let h = Complex::real(0.5);
        let split = PrepareRequest::sparse(
            d.clone(),
            vec![(vec![0, 0], h), (vec![0, 0], h), (vec![1, 1], Complex::ONE)],
            PrepareOptions::exact(),
        );
        let summed = PrepareRequest::sparse(
            d,
            vec![(vec![0, 0], Complex::ONE), (vec![1, 1], Complex::ONE)],
            PrepareOptions::exact(),
        );
        assert_eq!(canonical_key(&split), canonical_key(&summed));
    }

    #[test]
    fn malformed_requests_bypass_the_cache() {
        let short =
            PrepareRequest::dense(dims(&[2, 2]), vec![Complex::ONE], PrepareOptions::exact());
        assert!(canonical_key(&short).is_none());
        let bad_digit = PrepareRequest::sparse(
            dims(&[2, 2]),
            vec![(vec![0, 5], Complex::ONE)],
            PrepareOptions::exact(),
        );
        assert!(canonical_key(&bad_digit).is_none());
        let nan = PrepareRequest::dense(
            dims(&[2]),
            vec![Complex::new(f64::NAN, 0.0), Complex::ONE],
            PrepareOptions::exact(),
        );
        assert!(canonical_key(&nan).is_none());
        let empty = PrepareRequest::sparse(dims(&[2, 2]), vec![], PrepareOptions::exact());
        assert!(canonical_key(&empty).is_none());
    }

    #[test]
    fn near_identical_requests_share_a_fingerprint_but_not_a_key() {
        // Within one tolerance cell: same bucket, different exact key — the
        // cache will *not* serve one request the other's circuit.
        let a = Complex::real(0.5);
        let b = Complex::new(0.5 + 1e-13, 0.0);
        let r1 = dense_request(&[a, a, a, a]);
        let r2 = dense_request(&[b, a, a, a]);
        let (f1, k1) = canonical_key(&r1).unwrap();
        let (f2, k2) = canonical_key(&r2).unwrap();
        assert_eq!(f1, f2, "same tolerance cell fingerprints equal");
        assert_ne!(k1, k2, "exact keys still differ");
    }

    #[test]
    fn cache_round_trip_counts_hits_and_misses() {
        let cache = CircuitCache::new(4);
        let a = Complex::real(0.5);
        let req = dense_request(&[a, a, a, a]);
        let (fp, key) = canonical_key(&req).unwrap();
        assert!(cache.get(fp, &key, false).is_none());
        let prepared =
            mdq_core::prepare(&dims(&[2, 2]), &[a, a, a, a], PrepareOptions::exact()).unwrap();
        cache.insert(
            fp,
            key.clone(),
            Arc::new(CachedPreparation {
                circuit: Arc::new(prepared.circuit.clone()),
                report: prepared.report.clone(),
                verification: None,
            }),
        );
        let served = cache.get(fp, &key, false).expect("entry stored");
        assert_eq!(*served.circuit, prepared.circuit);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        assert_eq!(CircuitCache::new(0).shards.len(), 1);
        assert_eq!(CircuitCache::new(3).shards.len(), 4);
        assert_eq!(CircuitCache::new(16).shards.len(), 16);
    }

    /// A distinct single-qudit request per index, with a stable entry
    /// (shared with the `lru_model` proptest module).
    pub(super) fn keyed_entry(i: usize) -> (u64, CanonicalKey, Arc<CachedPreparation>) {
        let d = dims(&[2]);
        let theta = 0.1 + 0.7 * i as f64 / 10.0;
        let amps = vec![Complex::real(theta.cos()), Complex::real(theta.sin())];
        let request = PrepareRequest::dense(d.clone(), amps.clone(), PrepareOptions::exact());
        let (fp, key) = canonical_key(&request).unwrap();
        let prepared = mdq_core::prepare(&d, &amps, PrepareOptions::exact()).unwrap();
        (
            fp,
            key,
            Arc::new(CachedPreparation {
                circuit: Arc::new(prepared.circuit.clone()),
                report: prepared.report.clone(),
                verification: None,
            }),
        )
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        // One shard, two entries: inserting a third must evict the LRU.
        let cache = CircuitCache::with_capacity(1, Some(2));
        let (fp0, k0, v0) = keyed_entry(0);
        let (fp1, k1, v1) = keyed_entry(1);
        let (fp2, k2, v2) = keyed_entry(2);
        cache.insert(fp0, k0.clone(), v0);
        cache.insert(fp1, k1.clone(), v1);
        // Touch entry 0 so entry 1 becomes the LRU victim.
        assert!(cache.get(fp0, &k0, false).is_some());
        cache.insert(fp2, k2.clone(), v2);
        let stats = cache.stats();
        assert_eq!(stats.entries, 2, "bound holds");
        assert_eq!(stats.evictions, 1, "one eviction counted");
        assert!(
            cache.get(fp0, &k0, false).is_some(),
            "recently used survives"
        );
        assert!(cache.get(fp2, &k2, false).is_some(), "new entry admitted");
        assert!(cache.get(fp1, &k1, false).is_none(), "LRU entry evicted");
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = CircuitCache::new(1);
        for i in 0..8 {
            let (fp, key, value) = keyed_entry(i);
            cache.insert(fp, key, value);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 8);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn capacity_splits_across_shards_with_minimum_one() {
        let cache = CircuitCache::with_capacity(4, Some(2));
        assert_eq!(cache.shard_capacity, Some(1), "ceil(2/4) floored at 1");
        let unbounded = CircuitCache::with_capacity(4, None);
        assert_eq!(unbounded.shard_capacity, None);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let cache = CircuitCache::with_capacity(1, Some(1));
        let (fp, key, value) = keyed_entry(0);
        cache.insert(fp, key.clone(), Arc::clone(&value));
        cache.insert(fp, key.clone(), value);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 0, "duplicate insert is a no-op");
    }

    /// A `keyed_entry` with a verification report attached.
    fn verified_entry(i: usize) -> (u64, CanonicalKey, Arc<CachedPreparation>) {
        let (fp, key, value) = keyed_entry(i);
        (
            fp,
            key,
            Arc::new(CachedPreparation {
                circuit: value.circuit.clone(),
                report: value.report.clone(),
                verification: Some(VerificationReport {
                    fidelity: 1.0,
                    replay_nodes: 2,
                    duration: std::time::Duration::default(),
                }),
            }),
        )
    }

    #[test]
    fn verified_lookups_skip_unverified_entries() {
        let cache = CircuitCache::new(1);
        let (fp, key, unverified) = keyed_entry(0);
        cache.insert(fp, key.clone(), unverified);
        // An unverified serving sees the entry; a verified request must not.
        assert!(cache.get(fp, &key, false).is_some());
        assert!(cache.get(fp, &key, true).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "skip counts as miss");
    }

    #[test]
    fn fingerprint_of_matches_canonical_key() {
        let a = Complex::real(0.5);
        let request = dense_request(&[a, a, a, a]);
        let (fingerprint, key) = canonical_key(&request).unwrap();
        assert_eq!(fingerprint_of(&key), fingerprint);
    }

    #[test]
    fn maintained_entry_count_matches_the_stored_entries() {
        // `stats().entries` and `len()` read a counter maintained under
        // the shard locks; after every occupancy mutation — insert,
        // duplicate insert, verified upgrade, LRU eviction, snapshot load,
        // clear — it must equal the entries actually stored.
        fn agrees(cache: &CircuitCache) {
            let stored = cache.export().len();
            assert_eq!(cache.stats().entries, stored);
            assert_eq!(cache.len(), stored);
        }
        let cache = CircuitCache::with_capacity(1, Some(3));
        agrees(&cache);
        let (fp, key, value) = keyed_entry(0);
        cache.insert(fp, key.clone(), Arc::clone(&value));
        agrees(&cache);
        cache.insert(fp, key.clone(), value);
        agrees(&cache);
        let (_, _, verified) = verified_entry(0);
        cache.insert(fp, key.clone(), verified);
        agrees(&cache);
        assert!(cache.get(fp, &key, true).is_some(), "upgraded in place");
        for i in 1..5 {
            let (fp, key, value) = keyed_entry(i);
            cache.insert(fp, key, value);
            agrees(&cache);
        }
        assert_eq!(cache.stats().evictions, 2, "LRU evictions ran");

        let path =
            std::env::temp_dir().join(format!("mdq-cache-entry-count-{}.snap", std::process::id()));
        crate::snapshot::save(&cache, &path).unwrap();
        let restored = CircuitCache::with_capacity(1, Some(2));
        let load = crate::snapshot::load_into(&restored, &path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(load.loaded, 3);
        agrees(&restored);
        assert_eq!(restored.stats().evictions, 1, "the load evicted too");

        cache.clear();
        agrees(&cache);
        assert!(cache.is_empty());
    }

    #[test]
    fn verified_insert_upgrades_an_unverified_entry_in_place() {
        let cache = CircuitCache::new(1);
        let (fp, key, unverified) = keyed_entry(0);
        cache.insert(fp, key.clone(), unverified);
        let (_, _, verified) = verified_entry(0);
        cache.insert(fp, key.clone(), verified);
        assert_eq!(cache.len(), 1, "upgrade replaces, never duplicates");
        let served = cache.get(fp, &key, true).expect("entry now verified");
        assert!(served.verification.is_some());
        // The reverse never downgrades: an unverified insert over a
        // verified entry keeps the verification.
        let (_, _, plain) = keyed_entry(0);
        cache.insert(fp, key.clone(), plain);
        assert!(cache.get(fp, &key, true).is_some());
    }
}

/// Model-based property test of the per-shard LRU (satellite of the
/// admission-control PR): arbitrary insert/get sequences run against a
/// reference implementation tracking membership, stamps, hit/miss counts
/// and evictions — then every evicted key is reinserted and must replay
/// bit-identical.
#[cfg(test)]
mod lru_model {
    use super::tests::keyed_entry;
    use super::*;
    use proptest::prelude::*;

    /// Reference LRU over key indices — a `BTreeMap` from key index to
    /// last-used stamp — mirroring the cache's exact semantics: `get`
    /// restamps on hit; `insert` of a present key is a no-op; `insert` of
    /// a fresh key evicts the least-recently-stamped entry when at
    /// capacity.
    struct Model {
        capacity: usize,
        /// Key index → last-used stamp.
        entries: std::collections::BTreeMap<usize, u64>,
        clock: u64,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl Model {
        fn new(capacity: usize) -> Self {
            Model {
                capacity,
                entries: std::collections::BTreeMap::new(),
                clock: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }
        }

        fn get(&mut self, key: usize) -> bool {
            self.clock += 1;
            let clock = self.clock;
            if let Some(stamp) = self.entries.get_mut(&key) {
                *stamp = clock;
                self.hits += 1;
                true
            } else {
                self.misses += 1;
                false
            }
        }

        fn insert(&mut self, key: usize) {
            if self.entries.contains_key(&key) {
                return;
            }
            if self.entries.len() >= self.capacity {
                let victim = self
                    .entries
                    .iter()
                    .min_by_key(|(_, &stamp)| stamp)
                    .map(|(&k, _)| k)
                    .expect("capacity > 0");
                self.entries.remove(&victim);
                self.evictions += 1;
            }
            self.clock += 1;
            self.entries.insert(key, self.clock);
        }

        fn contains(&self, key: usize) -> bool {
            self.entries.contains_key(&key)
        }
    }

    const KEYS: usize = 6;
    const CAPACITY: usize = 3;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The cache's LRU agrees with the reference model on membership,
        /// hit/miss/eviction counts and the capacity bound after every
        /// operation, and evicted-then-reinserted entries still replay the
        /// bit-identical circuit.
        #[test]
        fn prop_lru_matches_reference_model(
            ops in proptest::collection::vec((0u8..2, 0usize..KEYS), 1..40)
        ) {
            // One shard so the model's global LRU is the cache's LRU.
            let cache = CircuitCache::with_capacity(1, Some(CAPACITY));
            let mut model = Model::new(CAPACITY);
            let entries: Vec<_> = (0..KEYS).map(keyed_entry).collect();
            for &(op, key_index) in &ops {
                let (fp, key, value) = &entries[key_index];
                if op == 0 {
                    let served = cache.get(*fp, key, false);
                    let expected = model.get(key_index);
                    prop_assert_eq!(served.is_some(), expected);
                    if let Some(served) = served {
                        prop_assert_eq!(&served.circuit, &value.circuit);
                    }
                } else {
                    cache.insert(*fp, key.clone(), Arc::clone(value));
                    model.insert(key_index);
                }
                let stats = cache.stats();
                prop_assert!(stats.entries <= CAPACITY, "capacity never exceeded");
                prop_assert_eq!(stats.entries, model.entries.len());
                prop_assert_eq!(stats.evictions, model.evictions);
                prop_assert_eq!(stats.hits, model.hits);
                prop_assert_eq!(stats.misses, model.misses);
            }
            // Every evicted key, reinserted, must replay bit-identical to
            // the circuit originally prepared for it.
            for (key_index, (fp, key, value)) in entries.iter().enumerate() {
                if !model.contains(key_index) {
                    cache.insert(*fp, key.clone(), Arc::clone(value));
                    let served = cache
                        .get(*fp, key, false)
                        .expect("reinserted entry is served");
                    prop_assert_eq!(&served.circuit, &value.circuit);
                }
            }
        }
    }
}
