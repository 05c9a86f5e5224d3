//! A tolerance-bucketed canonical store for complex numbers.
//!
//! Values live in one `Vec`; two [`FxHashMap`]s index them. The exact map
//! keys on raw bit patterns. The bucket map keys on grid cells and holds
//! each cell's *oldest* entry; the rest of the cell is an intrusive chain
//! through a parallel `next` array, in insertion order. A probe therefore
//! allocates nothing, and a new value costs one `u32` instead of a
//! per-cell `Vec`.

use std::collections::hash_map::Entry;

use crate::hash::FxHashMap;
use crate::{Complex, Tolerance};

/// End-of-chain marker in [`ComplexTable`]'s bucket chains.
const NIL: u32 = u32::MAX;

/// Identifier of a canonical complex value inside a [`ComplexTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalId(u32);

impl CanonicalId {
    /// The raw index of the canonical entry.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Usage counters of a [`ComplexTable`] — the "weight-table pressure" a
/// hash-consing workload puts on the canonical store.
///
/// Counters are cumulative over the table's lifetime and survive
/// [`ComplexTable::clear`]/[`ComplexTable::reset`], so a worker that recycles
/// one table across many jobs reports its total traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComplexTableStats {
    /// Number of distinct canonical values currently stored (the "DistinctC"
    /// metric for the live diagram).
    pub len: usize,
    /// Total [`ComplexTable::insert`] calls served.
    pub lookups: u64,
    /// Lookups that allocated a new canonical entry (the rest were served
    /// from an existing representative).
    pub insertions: u64,
    /// Lookups answered by the exact-bit-pattern fast path without probing
    /// the tolerance buckets.
    pub exact_hits: u64,
}

/// A canonical store of complex values with tolerance-based lookup.
///
/// Quantum decision diagrams keep every edge weight in a unique table so that
/// numerically equal weights share one representative; the number of distinct
/// entries is the paper's "DistinctC" column. Lookup buckets each value onto a
/// grid of cell size `tolerance` and probes the 3×3 neighbourhood, so two
/// values within `tolerance` of each other (in each component) map to the
/// same canonical entry regardless of insertion order. When several stored
/// values lie within `tolerance` of a query, the first one met wins: cells
/// are probed row by row from `(cx − 1, cy − 1)` to `(cx + 1, cy + 1)`, and
/// each cell's entries in insertion order.
///
/// # Examples
///
/// ```
/// use mdq_num::{Complex, ComplexTable, Tolerance};
///
/// let mut table = ComplexTable::new(Tolerance::new(1e-9));
/// let a = table.insert(Complex::new(0.5, 0.0));
/// let b = table.insert(Complex::new(0.5 + 1e-12, 0.0));
/// assert_eq!(a, b);
/// assert_eq!(table.len(), 1);
/// assert_eq!(table.stats().lookups, 2);
/// assert_eq!(table.stats().insertions, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ComplexTable {
    tolerance: Tolerance,
    values: Vec<Complex>,
    /// Grid cell → its first-inserted entry.
    heads: FxHashMap<(i64, i64), u32>,
    /// Per entry, the next entry of the same cell ([`NIL`] at the end).
    next: Vec<u32>,
    /// Exact-bit-pattern fast path: hash-consing workloads insert the same
    /// handful of weights (0, 1, 1/√d, …) millions of times, and an exact
    /// hit skips the 3×3 bucket probe entirely.
    exact: FxHashMap<(u64, u64), u32>,
    lookups: u64,
    insertions: u64,
    exact_hits: u64,
}

impl ComplexTable {
    /// Creates an empty table with the given tolerance.
    #[must_use]
    pub fn new(tolerance: Tolerance) -> Self {
        Self {
            tolerance,
            values: Vec::new(),
            heads: FxHashMap::default(),
            next: Vec::new(),
            exact: FxHashMap::default(),
            lookups: 0,
            insertions: 0,
            exact_hits: 0,
        }
    }

    /// Removes every canonical value while retaining the allocated capacity
    /// of the indices — the cheap way to recycle a table across jobs.
    ///
    /// The cumulative [`ComplexTableStats`] counters are *not* reset.
    pub fn clear(&mut self) {
        self.values.clear();
        self.heads.clear();
        self.next.clear();
        self.exact.clear();
    }

    /// [`ComplexTable::clear`] plus a tolerance change, for recycling a
    /// table into a job with different numerical settings.
    pub fn reset(&mut self, tolerance: Tolerance) {
        self.clear();
        self.tolerance = tolerance;
    }

    /// A snapshot of the table's usage counters.
    #[must_use]
    pub fn stats(&self) -> ComplexTableStats {
        ComplexTableStats {
            len: self.values.len(),
            lookups: self.lookups,
            insertions: self.insertions,
            exact_hits: self.exact_hits,
        }
    }

    /// The tolerance used for canonicalization.
    #[must_use]
    pub fn tolerance(&self) -> Tolerance {
        self.tolerance
    }

    /// Number of distinct canonical values — the "DistinctC" metric.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table holds no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn cell(&self, v: Complex) -> (i64, i64) {
        let t = self.tolerance.value().max(f64::MIN_POSITIVE);
        // Cells twice the tolerance wide keep the probe neighbourhood small.
        let w = 2.0 * t;
        ((v.re / w).floor() as i64, (v.im / w).floor() as i64)
    }

    /// Inserts a value, returning the canonical id of an existing entry
    /// within tolerance if one exists.
    pub fn insert(&mut self, v: Complex) -> CanonicalId {
        self.lookups += 1;
        let bits = (v.re.to_bits(), v.im.to_bits());
        if let Some(&id) = self.exact.get(&bits) {
            self.exact_hits += 1;
            return CanonicalId(id);
        }
        let id = match self.lookup(v) {
            Some(id) => id,
            None => {
                let id = u32::try_from(self.values.len())
                    .ok()
                    .filter(|&id| id != NIL)
                    .expect("complex table overflow");
                self.values.push(v);
                self.next.push(NIL);
                match self.heads.entry(self.cell(v)) {
                    Entry::Vacant(cell) => {
                        cell.insert(id);
                    }
                    Entry::Occupied(cell) => {
                        let mut last = *cell.get();
                        while self.next[last as usize] != NIL {
                            last = self.next[last as usize];
                        }
                        self.next[last as usize] = id;
                    }
                }
                self.insertions += 1;
                CanonicalId(id)
            }
        };
        // The cache is bounded proportionally to the canonical store:
        // long-running users (a circuit threading one table through many
        // instructions) see a stream of one-off bit patterns that all
        // canonicalize to a few representatives, and without the cap the
        // cache would grow with every pattern ever seen.
        if self.exact.len() >= 4 * self.values.len() + 1024 {
            self.exact.clear();
        }
        self.exact.insert(bits, id.0);
        id
    }

    /// Finds the canonical id for a value already in the table, if any.
    #[must_use]
    pub fn lookup(&self, v: Complex) -> Option<CanonicalId> {
        let (cx, cy) = self.cell(v);
        let tol = self.tolerance.value();
        for dx in -1..=1 {
            for dy in -1..=1 {
                let mut id = self.heads.get(&(cx + dx, cy + dy)).copied().unwrap_or(NIL);
                while id != NIL {
                    let w = self.values[id as usize];
                    if (w.re - v.re).abs() <= tol && (w.im - v.im).abs() <= tol {
                        return Some(CanonicalId(id));
                    }
                    id = self.next[id as usize];
                }
            }
        }
        None
    }

    /// The canonical representative for an id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this table.
    #[must_use]
    pub fn value(&self, id: CanonicalId) -> Complex {
        self.values[id.index()]
    }

    /// Canonicalizes a value: the representative that `insert` would return.
    pub fn canonicalize(&mut self, v: Complex) -> Complex {
        let id = self.insert(v);
        self.values[id.index()]
    }

    /// Iterates over the canonical values.
    pub fn iter(&self) -> impl Iterator<Item = Complex> + '_ {
        self.values.iter().copied()
    }
}

impl Default for ComplexTable {
    fn default() -> Self {
        Self::new(Tolerance::default())
    }
}

/// Counts the number of distinct complex values in `values` under the given
/// tolerance — a convenience wrapper matching the paper's "DistinctC" column.
///
/// # Examples
///
/// ```
/// use mdq_num::{distinct_complex_count, Complex, Tolerance};
///
/// let w = [Complex::ONE, Complex::ZERO, Complex::new(1.0 + 1e-12, 0.0)];
/// assert_eq!(distinct_complex_count(w.iter().copied(), Tolerance::default()), 2);
/// ```
#[must_use]
pub fn distinct_complex_count(
    values: impl IntoIterator<Item = Complex>,
    tolerance: Tolerance,
) -> usize {
    let mut table = ComplexTable::new(tolerance);
    for v in values {
        table.insert(v);
    }
    table.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table() {
        let table = ComplexTable::default();
        assert!(table.is_empty());
        assert_eq!(table.len(), 0);
        assert_eq!(table.lookup(Complex::ONE), None);
    }

    #[test]
    fn insert_deduplicates_within_tolerance() {
        let mut t = ComplexTable::new(Tolerance::new(1e-6));
        let a = t.insert(Complex::new(1.0, 1.0));
        let b = t.insert(Complex::new(1.0 + 5e-7, 1.0 - 5e-7));
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn insert_distinguishes_beyond_tolerance() {
        let mut t = ComplexTable::new(Tolerance::new(1e-9));
        let a = t.insert(Complex::new(1.0, 0.0));
        let b = t.insert(Complex::new(1.0 + 1e-3, 0.0));
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn canonicalize_returns_first_representative() {
        let mut t = ComplexTable::new(Tolerance::new(1e-6));
        let first = Complex::new(0.25, -0.5);
        t.insert(first);
        let canon = t.canonicalize(Complex::new(0.25 + 1e-8, -0.5));
        assert_eq!(canon, first);
    }

    #[test]
    fn values_straddling_cell_boundaries_still_merge() {
        // Pick values just either side of a grid boundary.
        let tol = 1e-6;
        let mut t = ComplexTable::new(Tolerance::new(tol));
        let a = t.insert(Complex::new(2.0 * tol - 1e-9, 0.0));
        let b = t.insert(Complex::new(2.0 * tol + 1e-9, 0.0));
        assert_eq!(a, b);
    }

    #[test]
    fn negative_values_bucket_correctly() {
        let mut t = ComplexTable::new(Tolerance::new(1e-9));
        let a = t.insert(Complex::new(-0.5, -0.5));
        let b = t.insert(Complex::new(-0.5, -0.5));
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_count_helper() {
        let vs = [
            Complex::ZERO,
            Complex::ONE,
            Complex::new(1.0 / 2.0_f64.sqrt(), 0.0),
            Complex::ZERO,
        ];
        assert_eq!(
            distinct_complex_count(vs.iter().copied(), Tolerance::default()),
            3
        );
    }

    #[test]
    fn value_round_trips() {
        let mut t = ComplexTable::default();
        let v = Complex::new(0.1, 0.9);
        let id = t.insert(v);
        assert_eq!(t.value(id), v);
    }

    #[test]
    fn many_inserts_stay_consistent() {
        let mut t = ComplexTable::new(Tolerance::new(1e-9));
        for i in 0..1000 {
            t.insert(Complex::new(f64::from(i) * 0.001, 0.0));
        }
        assert_eq!(t.len(), 1000);
        // Re-inserting everything changes nothing.
        for i in 0..1000 {
            t.insert(Complex::new(f64::from(i) * 0.001, 0.0));
        }
        assert_eq!(t.len(), 1000);
    }

    #[test]
    fn stats_track_lookups_insertions_and_exact_hits() {
        let mut t = ComplexTable::new(Tolerance::new(1e-9));
        t.insert(Complex::ONE); // new entry
        t.insert(Complex::ONE); // exact-bit hit
        t.insert(Complex::new(1.0 + 1e-12, 0.0)); // bucket hit, then cached
        let s = t.stats();
        assert_eq!(s.len, 1);
        assert_eq!(s.lookups, 3);
        assert_eq!(s.insertions, 1);
        assert_eq!(s.exact_hits, 1);
    }

    #[test]
    fn clear_empties_values_but_keeps_counters() {
        let mut t = ComplexTable::default();
        t.insert(Complex::ONE);
        t.insert(Complex::I);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.lookup(Complex::ONE), None);
        let s = t.stats();
        assert_eq!(s.len, 0);
        assert_eq!(s.lookups, 2);
        assert_eq!(s.insertions, 2);
        // Ids restart from zero after a clear.
        let id = t.insert(Complex::I);
        assert_eq!(id.index(), 0);
    }

    #[test]
    fn reset_changes_tolerance() {
        let mut t = ComplexTable::new(Tolerance::new(1e-9));
        let a = t.insert(Complex::new(1.0, 0.0));
        let b = t.insert(Complex::new(1.0 + 1e-6, 0.0));
        assert_ne!(a, b);
        t.reset(Tolerance::new(1e-3));
        assert_eq!(t.tolerance().value(), 1e-3);
        let a = t.insert(Complex::new(1.0, 0.0));
        let b = t.insert(Complex::new(1.0 + 1e-6, 0.0));
        assert_eq!(a, b);
    }

    /// Four values sharing grid cell (5, 5) at tolerance 1e-3, pairwise
    /// more than the tolerance apart (so all four are stored), and a query
    /// within tolerance of every one of them.
    const CORNERS: [Complex; 4] = [
        Complex::new(0.0102, 0.0102),
        Complex::new(0.0118, 0.0102),
        Complex::new(0.0102, 0.0118),
        Complex::new(0.0118, 0.0118),
    ];
    const CENTRE: Complex = Complex::new(0.011, 0.011);

    fn corner_table(order: &[usize]) -> ComplexTable {
        let mut t = ComplexTable::new(Tolerance::new(1e-3));
        for (k, &i) in order.iter().enumerate() {
            assert_eq!(t.insert(CORNERS[i]).index(), k);
        }
        t
    }

    #[test]
    fn a_shared_cell_answers_its_first_inserted_match() {
        for order in [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2]] {
            let mut t = corner_table(&order);
            assert_eq!(t.lookup(CENTRE).map(CanonicalId::index), Some(0));
            assert_eq!(t.insert(CENTRE).index(), 0);
            assert_eq!(t.canonicalize(CENTRE), CORNERS[order[0]]);
            assert_eq!(t.len(), 4);
        }
    }

    #[test]
    fn neighbouring_cells_answer_in_probe_order() {
        // 0.0095 sits in cell 4, 0.011 and the query 0.0102 in cell 5; the
        // query is within tolerance of both. The lower cell is probed first,
        // so it wins even though its value was inserted second.
        let mut t = ComplexTable::new(Tolerance::new(1e-3));
        let high = t.insert(Complex::real(0.011));
        let low = t.insert(Complex::real(0.0095));
        assert_ne!(high, low);
        assert_eq!(t.lookup(Complex::real(0.0102)), Some(low));
        assert_eq!(t.insert(Complex::real(0.0102)), low);
    }

    #[test]
    fn clear_and_reset_leave_no_stale_chain() {
        let mut t = corner_table(&[0, 1, 2, 3]);
        t.clear();
        assert_eq!(t.lookup(CENTRE), None);
        for &i in &[3, 2] {
            t.insert(CORNERS[i]);
        }
        // Ids restart at 0, and the cell's chain holds only the new values.
        assert_eq!(t.lookup(CENTRE).map(CanonicalId::index), Some(0));
        assert_eq!(t.value(CanonicalId(0)), CORNERS[3]);
        assert_eq!(t.lookup(CORNERS[0]), None);
        assert_eq!(t.insert(CORNERS[0]).index(), 2);
        assert_eq!(t.len(), 3);

        t.reset(Tolerance::new(1e-3));
        assert_eq!(t.lookup(CENTRE), None);
        assert_eq!(t.insert(CORNERS[1]).index(), 0);
        assert_eq!(t.insert(CENTRE).index(), 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn iter_yields_all_canonical_values() {
        let mut t = ComplexTable::default();
        t.insert(Complex::ONE);
        t.insert(Complex::I);
        let collected: Vec<_> = t.iter().collect();
        assert_eq!(collected, vec![Complex::ONE, Complex::I]);
    }
}
