//! Construction of decision diagrams from dense amplitude vectors and
//! sparse support lists.
//!
//! The recursive splitting procedure of the paper's §4.1: the vector is cut
//! into `d` equal parts at the most significant qudit, each part becomes a
//! successor, and normalization factors propagate from the terminal edges
//! upwards so that every node's out-edge weights have squared magnitudes
//! summing to one.
//!
//! Both builders intern every completed subtree through the shared
//! [`DdArena`], so identical subtrees (up to the tolerance) are shared the
//! moment they are built — the resulting diagrams are canonical and
//! [`StateDd::reduce`] is a structural no-op on them. The unreduced Table-1
//! tree (every position a distinct node, zero subtrees materialized) stays
//! available behind [`BuildOptions::keep_zero_subtrees`], which bypasses
//! the unique table.

use std::fmt;

use mdq_num::radix::Dims;
use mdq_num::{Complex, Tolerance};

use crate::arena::{ArenaOverflow, DdArena};
use crate::node::{Edge, NodeRef};
use crate::StateDd;

/// Errors produced by [`StateDd::from_amplitudes`] and
/// [`StateDd::from_sparse`].
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The amplitude vector length does not match the register size.
    WrongLength {
        /// Expected `dims.space_size()`.
        expected: usize,
        /// Actual length supplied.
        got: usize,
    },
    /// The amplitude vector has (numerically) zero norm.
    ZeroNorm,
    /// Every amplitude is finite, but their squared norm `Σ|a|²` (for a
    /// sparse list, after duplicate indices are summed) overflows `f64`,
    /// so the state cannot be normalized.
    NormOverflow,
    /// An amplitude was not finite.
    NotFinite {
        /// Index of the offending amplitude.
        index: usize,
    },
    /// A sparse entry had the wrong number of digits.
    WrongDigitCount {
        /// Expected `dims.len()`.
        expected: usize,
        /// Actual digit count supplied.
        got: usize,
    },
    /// A sparse entry had a digit exceeding its qudit's dimension.
    DigitOutOfRange {
        /// Qudit position of the offending digit.
        position: usize,
        /// The digit value.
        digit: usize,
        /// The qudit's dimension.
        dim: usize,
    },
    /// The node arena reached its capacity (the configured
    /// [`BuildOptions::node_limit`] or the `u32` index space).
    ArenaOverflow {
        /// The node limit that was hit.
        limit: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::WrongLength { expected, got } => {
                write!(f, "amplitude vector has length {got}, expected {expected}")
            }
            BuildError::ZeroNorm => write!(f, "amplitude vector has zero norm"),
            BuildError::NormOverflow => write!(f, "amplitude vector's squared norm overflows"),
            BuildError::NotFinite { index } => {
                write!(f, "amplitude at index {index} is not finite")
            }
            BuildError::WrongDigitCount { expected, got } => {
                write!(f, "sparse entry has {got} digits, expected {expected}")
            }
            BuildError::DigitOutOfRange {
                position,
                digit,
                dim,
            } => write!(
                f,
                "sparse entry digit {digit} at position {position} exceeds dimension {dim}"
            ),
            BuildError::ArenaOverflow { limit } => {
                write!(f, "decision-diagram arena is full ({limit} nodes)")
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ArenaOverflow> for BuildError {
    fn from(e: ArenaOverflow) -> Self {
        BuildError::ArenaOverflow { limit: e.limit }
    }
}

/// Options controlling diagram construction.
///
/// # Examples
///
/// ```
/// use mdq_dd::BuildOptions;
/// let opts = BuildOptions::default().keep_zero_subtrees(true);
/// assert!(opts.keeps_zero_subtrees());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    keep_zero_subtrees: bool,
    tolerance: Tolerance,
    node_limit: Option<usize>,
}

impl BuildOptions {
    /// Default options: zero subtrees pruned, default tolerance, no node
    /// cap beyond the `u32` index space.
    #[must_use]
    pub fn new() -> Self {
        Self {
            keep_zero_subtrees: false,
            tolerance: Tolerance::default(),
            node_limit: None,
        }
    }

    /// Whether all-zero branches materialize full subtrees of zero-weight
    /// edges instead of a single zero edge to the terminal.
    ///
    /// Keeping them reproduces the paper's unreduced tree, whose edge count
    /// is the "Nodes" column for exact synthesis in Table 1 (e.g. 58 for the
    /// `[3,6,2]` register regardless of the state). The tree path allocates
    /// every node unshared — hash-consing is reserved for the default path.
    #[must_use]
    pub fn keep_zero_subtrees(mut self, keep: bool) -> Self {
        self.keep_zero_subtrees = keep;
        self
    }

    /// Returns whether zero subtrees are kept.
    #[must_use]
    pub fn keeps_zero_subtrees(&self) -> bool {
        self.keep_zero_subtrees
    }

    /// Sets the tolerance used for zero tests during construction.
    #[must_use]
    pub fn tolerance(mut self, tolerance: Tolerance) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Returns the configured tolerance.
    #[must_use]
    pub fn tolerance_value(&self) -> Tolerance {
        self.tolerance
    }

    /// Caps the arena at `limit` nodes; builds exceeding it fail with
    /// [`BuildError::ArenaOverflow`] instead of exhausting memory, and the
    /// limit is inherited by every diagram derived from the built one.
    #[must_use]
    pub fn node_limit(mut self, limit: usize) -> Self {
        self.node_limit = Some(limit);
        self
    }

    /// Returns the configured node cap, if any.
    #[must_use]
    pub fn node_limit_value(&self) -> Option<usize> {
        self.node_limit
    }

    /// A fresh arena honouring the tolerance and node limit.
    fn arena(&self) -> DdArena {
        DdArena::with_node_limit(self.tolerance, self.node_limit.unwrap_or(u32::MAX as usize))
    }
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self::new()
    }
}

struct Builder<'a> {
    dims: &'a Dims,
    opts: BuildOptions,
    arena: DdArena,
}

impl<'a> Builder<'a> {
    /// Normalizes and stores a node from raw successor edges, returning the
    /// upward edge (norm and pulled-up phase on the weight). The default
    /// path interns through the unique table; the `keep_zero_subtrees` tree
    /// path allocates every node unshared, materializing zero subtrees.
    fn finish_node(&mut self, level: usize, mut edges: Vec<Edge>) -> Result<Edge, ArenaOverflow> {
        if !self.opts.keep_zero_subtrees {
            return self.arena.intern_normalized(level, edges);
        }
        let tol = self.opts.tolerance.value();
        let norm_sqr: f64 = edges.iter().map(|e| e.weight.norm_sqr()).sum();
        let norm = norm_sqr.sqrt();
        if norm <= tol {
            // All-zero subvector: materialize the zero node (below the last
            // level its recursively built zero children are in `edges`).
            let zeroed = edges
                .into_iter()
                .map(|e| Edge::new(Complex::ZERO, e.target))
                .collect();
            let target = self.arena.alloc_unshared(level, zeroed)?;
            return Ok(Edge::new(Complex::ZERO, target));
        }
        for e in &mut edges {
            e.weight = e.weight / norm;
        }
        let phase = edges
            .iter()
            .find(|e| !e.is_zero(tol))
            .map_or(0.0, |e| e.weight.arg());
        let unphase = Complex::cis(-phase);
        for e in &mut edges {
            e.weight *= unphase;
            if e.is_zero(tol) {
                e.weight = Complex::ZERO;
            }
        }
        let target = self.arena.alloc_unshared(level, edges)?;
        Ok(Edge::new(Complex::from_polar(norm, phase), target))
    }

    /// Builds the subtree for `slice` rooted at `level`, returning the
    /// upward edge (normalization weight and target).
    fn build(&mut self, level: usize, slice: &[Complex]) -> Result<Edge, ArenaOverflow> {
        let d = self.dims.dim(level);
        let chunk = slice.len() / d;
        let last_level = level + 1 == self.dims.len();

        let mut edges = Vec::with_capacity(d);
        for k in 0..d {
            let part = &slice[k * chunk..(k + 1) * chunk];
            let edge = if last_level {
                Edge::new(part[0], NodeRef::Terminal)
            } else {
                self.build(level + 1, part)?
            };
            edges.push(edge);
        }
        self.finish_node(level, edges)
    }

    /// Builds the subtree for a sorted, deduplicated slice of
    /// `(flat index, amplitude)` entries, all inside the sub-space starting
    /// at `offset` with the given `strides`. Branches without entries become
    /// zero edges, which is what makes the construction linear in the
    /// support size instead of the space size.
    fn build_sparse(
        &mut self,
        level: usize,
        offset: usize,
        entries: &[(usize, Complex)],
        strides: &[usize],
    ) -> Result<Edge, ArenaOverflow> {
        let d = self.dims.dim(level);
        let stride = strides[level];
        let last_level = level + 1 == self.dims.len();

        let mut edges = Vec::with_capacity(d);
        let mut rest = entries;
        for k in 0..d {
            let upper = offset + (k + 1) * stride;
            let split = rest.partition_point(|&(idx, _)| idx < upper);
            let (part, tail) = rest.split_at(split);
            rest = tail;
            let edge = if part.is_empty() {
                Edge::ZERO
            } else if last_level {
                Edge::new(part[0].1, NodeRef::Terminal)
            } else {
                self.build_sparse(level + 1, offset + k * stride, part, strides)?
            };
            edges.push(edge);
        }
        self.finish_node(level, edges)
    }
}

/// The shared front half of the sparse builders: validates every entry
/// (digit count, digit range, finiteness, in entry order), flattens to
/// sorted `(flat index, amplitude)` pairs with duplicates summed and
/// tolerance-zero amplitudes dropped, and rejects an all-zero total norm —
/// exactly the checks [`StateDd::from_sparse`] reports as [`BuildError`]s.
fn flatten_sparse(
    dims: &Dims,
    entries: &[(Vec<usize>, Complex)],
    tol: f64,
) -> Result<Vec<(usize, Complex)>, BuildError> {
    let mut flat: Vec<(usize, Complex)> = Vec::with_capacity(entries.len());
    for (i, (digits, amp)) in entries.iter().enumerate() {
        if digits.len() != dims.len() {
            return Err(BuildError::WrongDigitCount {
                expected: dims.len(),
                got: digits.len(),
            });
        }
        for (position, (&digit, &dim)) in digits.iter().zip(dims.as_slice()).enumerate() {
            if digit >= dim {
                return Err(BuildError::DigitOutOfRange {
                    position,
                    digit,
                    dim,
                });
            }
        }
        if !amp.is_finite() {
            return Err(BuildError::NotFinite { index: i });
        }
        flat.push((dims.index_of(digits), *amp));
    }
    flat.sort_by_key(|&(idx, _)| idx);
    // Sum duplicates, drop zeros.
    let mut dedup: Vec<(usize, Complex)> = Vec::with_capacity(flat.len());
    for (idx, amp) in flat {
        match dedup.last_mut() {
            Some((last, acc)) if *last == idx => *acc += amp,
            _ => dedup.push((idx, amp)),
        }
    }
    dedup.retain(|(_, a)| !a.is_zero(tol));
    let norm_sqr: f64 = dedup.iter().map(|(_, a)| a.norm_sqr()).sum();
    if !norm_sqr.is_finite() {
        return Err(BuildError::NormOverflow);
    }
    if norm_sqr.sqrt() <= tol {
        return Err(BuildError::ZeroNorm);
    }
    Ok(dedup)
}

impl StateDd {
    /// Checks a dense amplitude vector against `dims` exactly as
    /// [`StateDd::from_amplitudes`] would, without building anything: the
    /// first failing check wins, in the same order (length, finiteness,
    /// norm overflow, zero norm).
    ///
    /// Per-worker recycling loops call this *before* handing their scratch
    /// arena to [`StateDd::from_amplitudes_in`], so a malformed request
    /// cannot cost them a warmed arena.
    ///
    /// # Errors
    ///
    /// Returns the [`BuildError`] the corresponding build would surface.
    pub fn validate_amplitudes(
        dims: &Dims,
        amplitudes: &[Complex],
        opts: BuildOptions,
    ) -> Result<(), BuildError> {
        if amplitudes.len() != dims.space_size() {
            return Err(BuildError::WrongLength {
                expected: dims.space_size(),
                got: amplitudes.len(),
            });
        }
        if let Some(index) = amplitudes.iter().position(|a| !a.is_finite()) {
            return Err(BuildError::NotFinite { index });
        }
        let norm = mdq_num::norm(amplitudes);
        if !norm.is_finite() {
            return Err(BuildError::NormOverflow);
        }
        if norm <= opts.tolerance.value() {
            return Err(BuildError::ZeroNorm);
        }
        Ok(())
    }

    /// Checks a sparse entry list exactly as [`StateDd::from_sparse`] would
    /// (digit counts, digit ranges, finiteness, then norm overflow and zero
    /// total norm after duplicate summing), without building anything —
    /// the sparse counterpart of [`StateDd::validate_amplitudes`].
    ///
    /// # Errors
    ///
    /// Returns the [`BuildError`] the corresponding build would surface.
    pub fn validate_sparse(
        dims: &Dims,
        entries: &[(Vec<usize>, Complex)],
        opts: BuildOptions,
    ) -> Result<(), BuildError> {
        flatten_sparse(dims, entries, opts.tolerance.value()).map(|_| ())
    }

    /// The canonical `(flat index, amplitude)` support [`StateDd::from_sparse`]
    /// actually builds from: validated, sorted by index, duplicates summed,
    /// tolerance-zero amplitudes dropped. Exposed so content-addressing
    /// layers (the engine's request cache) derive their identity from the
    /// *same* flattening the builder uses — any future change to the
    /// builder's dedup rules automatically carries over.
    ///
    /// # Errors
    ///
    /// Returns the [`BuildError`] the corresponding build would surface.
    pub fn canonical_sparse_support(
        dims: &Dims,
        entries: &[(Vec<usize>, Complex)],
        tolerance: Tolerance,
    ) -> Result<Vec<(usize, Complex)>, BuildError> {
        flatten_sparse(dims, entries, tolerance.value())
    }

    /// Builds a decision diagram from a dense amplitude vector.
    ///
    /// The vector is indexed in mixed-radix order with the *first* dimension
    /// of `dims` most significant (see [`Dims::index_of`]). The input does
    /// not have to be normalized; the resulting diagram always represents
    /// the normalized state (the overall scale is discarded, the global
    /// phase is kept on the root edge). Unless
    /// [`keep_zero_subtrees`](BuildOptions::keep_zero_subtrees) is set, the
    /// result is canonical: identical subtrees are shared at build time and
    /// [`StateDd::reduce`] is a structural no-op.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the length does not match
    /// `dims.space_size()`, an amplitude is not finite, the norm is zero,
    /// or the configured node limit is exceeded.
    ///
    /// # Examples
    ///
    /// ```
    /// use mdq_dd::{BuildOptions, StateDd};
    /// use mdq_num::{radix::Dims, Complex};
    ///
    /// let dims = Dims::new(vec![2, 2])?;
    /// let h = Complex::real(0.5);
    /// let dd = StateDd::from_amplitudes(&dims, &[h, h, h, h], BuildOptions::default())?;
    /// assert!(dd.amplitude(&[1, 0]).approx_eq(h, 1e-12));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn from_amplitudes(
        dims: &Dims,
        amplitudes: &[Complex],
        opts: BuildOptions,
    ) -> Result<Self, BuildError> {
        Self::from_amplitudes_in(dims, amplitudes, opts, opts.arena())
    }

    /// [`StateDd::from_amplitudes`] building into a caller-provided arena —
    /// the recycling entry point of the batch-preparation engine, where one
    /// worker reuses a single arena (and its grown hash-map capacity) across
    /// many jobs.
    ///
    /// The arena is cleared on entry (capacity retained) and reconfigured to
    /// the options' tolerance; the options' node limit, when set, replaces
    /// the arena's. The built diagram takes ownership of the arena — reclaim
    /// it from the result via [`StateDd::into_arena`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] as [`StateDd::from_amplitudes`] does; on error
    /// the arena is dropped. Callers that must not lose a warmed arena to a
    /// malformed input (the per-worker recycling loop) can screen with
    /// [`StateDd::validate_amplitudes`] *before* handing the arena over —
    /// after that only arena exhaustion can fail.
    pub fn from_amplitudes_in(
        dims: &Dims,
        amplitudes: &[Complex],
        opts: BuildOptions,
        mut arena: DdArena,
    ) -> Result<Self, BuildError> {
        Self::validate_amplitudes(dims, amplitudes, opts)?;

        arena.reset_for(
            opts.tolerance,
            opts.node_limit.unwrap_or_else(|| arena.node_limit()),
        );
        let mut builder = Builder { dims, opts, arena };
        let root_edge = builder.build(0, amplitudes)?;
        debug_assert!(!root_edge.is_zero(opts.tolerance.value()));
        // The up-weight magnitude is the input norm; keep only the phase so
        // the diagram represents the normalized state.
        let root_weight = Complex::cis(root_edge.weight.arg());
        Ok(StateDd::from_parts(
            dims.clone(),
            builder.arena,
            root_edge.target,
            root_weight,
            !opts.keep_zero_subtrees,
        ))
    }

    /// Builds a decision diagram from a *sparse* list of
    /// `(digits, amplitude)` entries, in time and memory linear in the
    /// support size — independent of the Hilbert-space size.
    ///
    /// This makes structured states practical far beyond what a dense
    /// vector permits: a GHZ state over 20 qudits (a space of billions of
    /// amplitudes) builds in microseconds because its diagram has one node
    /// per level. The peak node count — the arena never holds anything but
    /// the interned diagram — is polynomial in the number of nonzero
    /// entries. Amplitudes of repeated basis states are summed; entries
    /// that cancel to zero are dropped. The state is normalized as in
    /// [`StateDd::from_amplitudes`]. Zero branches are always pruned
    /// (`keep_zero_subtrees` is ignored — the unreduced tree is
    /// exponentially large by definition), so sparse-built diagrams are
    /// always canonical.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if an entry has the wrong digit count, a digit
    /// out of range, a non-finite amplitude, the total norm is zero, or the
    /// configured node limit is exceeded.
    ///
    /// # Examples
    ///
    /// ```
    /// use mdq_dd::{BuildOptions, StateDd};
    /// use mdq_num::{radix::Dims, Complex};
    ///
    /// // GHZ over ten qutrits: 59049 amplitudes, but only 3 entries.
    /// let dims = Dims::uniform(10, 3)?;
    /// let a = Complex::real(1.0 / 3.0_f64.sqrt());
    /// let entries: Vec<(Vec<usize>, Complex)> =
    ///     (0..3).map(|l| (vec![l; 10], a)).collect();
    /// let dd = StateDd::from_sparse(&dims, &entries, BuildOptions::default())?;
    /// assert_eq!(dd.node_count(), 10 + 2 * 9); // 3 branches sharing nothing below the root
    /// assert!(dd.amplitude(&vec![2; 10]).approx_eq(a, 1e-12));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn from_sparse(
        dims: &Dims,
        entries: &[(Vec<usize>, Complex)],
        opts: BuildOptions,
    ) -> Result<Self, BuildError> {
        Self::from_sparse_in(dims, entries, opts, opts.arena())
    }

    /// [`StateDd::from_sparse`] building into a caller-provided arena; see
    /// [`StateDd::from_amplitudes_in`] for the recycling contract.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] as [`StateDd::from_sparse`] does; on error the
    /// arena is dropped (screen with [`StateDd::validate_sparse`] first to
    /// keep a warmed arena out of malformed jobs).
    pub fn from_sparse_in(
        dims: &Dims,
        entries: &[(Vec<usize>, Complex)],
        opts: BuildOptions,
        mut arena: DdArena,
    ) -> Result<Self, BuildError> {
        let dedup = flatten_sparse(dims, entries, opts.tolerance.value())?;

        let opts = opts.keep_zero_subtrees(false);
        arena.reset_for(
            opts.tolerance,
            opts.node_limit.unwrap_or_else(|| arena.node_limit()),
        );
        let mut builder = Builder { dims, opts, arena };
        let strides = dims.strides();
        let root_edge = builder.build_sparse(0, 0, &dedup, &strides)?;
        let root_weight = Complex::cis(root_edge.weight.arg());
        Ok(StateDd::from_parts(
            dims.clone(),
            builder.arena,
            root_edge.target,
            root_weight,
            true,
        ))
    }

    /// Rebuilds the diagram with all-zero branches collapsed to single zero
    /// edges pointing at the terminal, interning every surviving node — the
    /// result is canonical.
    ///
    /// Since the arena refactor, interning subsumes zero-branch pruning, so
    /// this is exactly [`StateDd::reduce`]: on a diagram built with
    /// [`keep_zero_subtrees`](BuildOptions::keep_zero_subtrees) it realizes
    /// the transition from the paper's structural tree to the shared diagram
    /// the synthesizer actually traverses; on an arena-built diagram it is
    /// equivalent to a clone.
    #[must_use]
    pub fn prune_zero_subtrees(&self) -> StateDd {
        self.reduce()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims(v: &[usize]) -> Dims {
        Dims::new(v.to_vec()).unwrap()
    }

    fn ghz_362() -> (Dims, Vec<Complex>) {
        // (|000⟩ + |111⟩)/√2 on dims [3,6,2] (min dim 2 ⇒ two components).
        let d = dims(&[3, 6, 2]);
        let mut amps = vec![Complex::ZERO; d.space_size()];
        let a = Complex::real(1.0 / 2.0_f64.sqrt());
        amps[d.index_of(&[0, 0, 0])] = a;
        amps[d.index_of(&[1, 1, 1])] = a;
        (d, amps)
    }

    #[test]
    fn rejects_wrong_length() {
        let d = dims(&[2, 2]);
        let err = StateDd::from_amplitudes(&d, &[Complex::ONE], BuildOptions::default());
        assert_eq!(
            err.unwrap_err(),
            BuildError::WrongLength {
                expected: 4,
                got: 1
            }
        );
    }

    #[test]
    fn rejects_zero_norm() {
        let d = dims(&[2]);
        let err = StateDd::from_amplitudes(&d, &[Complex::ZERO; 2], BuildOptions::default());
        assert_eq!(err.unwrap_err(), BuildError::ZeroNorm);
    }

    #[test]
    fn rejects_non_finite() {
        let d = dims(&[2]);
        let amps = [Complex::new(f64::NAN, 0.0), Complex::ONE];
        let err = StateDd::from_amplitudes(&d, &amps, BuildOptions::default());
        assert_eq!(err.unwrap_err(), BuildError::NotFinite { index: 0 });
    }

    #[test]
    fn node_limit_surfaces_as_build_error() {
        let d = dims(&[2, 2, 2]);
        let amps: Vec<Complex> = (0..8).map(|i| Complex::real(1.0 + i as f64)).collect();
        let err = StateDd::from_amplitudes(&d, &amps, BuildOptions::default().node_limit(2));
        assert_eq!(err.unwrap_err(), BuildError::ArenaOverflow { limit: 2 });
        let entries: Vec<(Vec<usize>, Complex)> = (0..8)
            .map(|i| (d.digits_of(i), Complex::real(1.0 + i as f64)))
            .collect();
        let err = StateDd::from_sparse(&d, &entries, BuildOptions::default().node_limit(2));
        assert_eq!(err.unwrap_err(), BuildError::ArenaOverflow { limit: 2 });
    }

    #[test]
    fn node_limit_is_inherited_by_the_built_diagram() {
        let d = dims(&[2]);
        let dd = StateDd::from_amplitudes(
            &d,
            &[Complex::ONE, Complex::ZERO],
            BuildOptions::default().node_limit(17),
        )
        .unwrap();
        assert_eq!(dd.arena().node_limit(), 17);
    }

    #[test]
    fn unnormalized_input_is_normalized() {
        let d = dims(&[2]);
        let amps = [Complex::real(3.0), Complex::real(4.0)];
        let dd = StateDd::from_amplitudes(&d, &amps, BuildOptions::default()).unwrap();
        assert!(dd.amplitude(&[0]).approx_eq(Complex::real(0.6), 1e-12));
        assert!(dd.amplitude(&[1]).approx_eq(Complex::real(0.8), 1e-12));
    }

    #[test]
    fn keep_zero_subtrees_builds_full_tree() {
        let (d, amps) = ghz_362();
        let opts = BuildOptions::default().keep_zero_subtrees(true);
        let dd = StateDd::from_amplitudes(&d, &amps, opts).unwrap();
        // Table 1: the unreduced tree for [3,6,2] has 58 edges.
        assert_eq!(dd.edge_count(), 58);
        assert_eq!(dd.node_count(), d.full_tree_node_count());
        assert!(!dd.is_canonical());
    }

    #[test]
    fn pruned_build_skips_zero_branches() {
        let (d, amps) = ghz_362();
        let dd = StateDd::from_amplitudes(&d, &amps, BuildOptions::default()).unwrap();
        // Table 1: the approximated GHZ diagram for [3,6,2] has 20 edges.
        assert_eq!(dd.edge_count(), 20);
        // root + two level-1 nodes + two level-2 nodes
        assert_eq!(dd.node_count(), 5);
        assert!(dd.is_canonical());
    }

    #[test]
    fn prune_zero_subtrees_matches_direct_pruned_build() {
        let (d, amps) = ghz_362();
        let full =
            StateDd::from_amplitudes(&d, &amps, BuildOptions::default().keep_zero_subtrees(true))
                .unwrap();
        let pruned = full.prune_zero_subtrees();
        assert_eq!(pruned.edge_count(), 20);
        assert_eq!(pruned.node_count(), 5);
        assert!(pruned.is_canonical());
        for (a, b) in full.to_amplitudes().iter().zip(pruned.to_amplitudes()) {
            assert!(a.approx_eq(b, 1e-12));
        }
    }

    #[test]
    fn node_weights_are_normalized() {
        let (d, amps) = ghz_362();
        let dd = StateDd::from_amplitudes(&d, &amps, BuildOptions::default()).unwrap();
        for node in dd.nodes() {
            let s: f64 = node.edges().iter().map(|e| e.weight.norm_sqr()).sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn phase_canonicalization_shares_children_at_build_time() {
        // (|0⟩ ⊗ |+⟩ + |1⟩ ⊗ e^{iφ}|+⟩)/√2: both children equal up to phase.
        let d = dims(&[2, 2]);
        let phi = 1.234;
        let p = Complex::cis(phi);
        let h = Complex::real(0.5);
        let amps = [h, h, h * p, h * p];
        let dd = StateDd::from_amplitudes(&d, &amps, BuildOptions::default()).unwrap();
        // After phase pulling the two level-1 subtrees are identical, so the
        // hash-consing build interns them as one shared node.
        assert_eq!(dd.node_count(), 2);
        let root = dd.node(dd.root().1.id().unwrap());
        assert_eq!(root.edges()[0].target, root.edges()[1].target);
        // Reduction has nothing left to do.
        assert_eq!(dd.reduce().node_count(), 2);
    }

    #[test]
    fn global_phase_is_kept_on_root_edge() {
        let d = dims(&[2]);
        let g = Complex::cis(0.7);
        let inv = 1.0 / 2.0_f64.sqrt();
        let amps = [g * Complex::real(inv), g * Complex::real(inv)];
        let dd = StateDd::from_amplitudes(&d, &amps, BuildOptions::default()).unwrap();
        assert!(dd.root().0.approx_eq(g, 1e-12));
        for (a, b) in amps.iter().zip(dd.to_amplitudes()) {
            assert!(a.approx_eq(b, 1e-12));
        }
    }

    #[test]
    fn sparse_build_matches_dense_build() {
        let d = dims(&[3, 6, 2]);
        // W-like sparse state with mixed phases.
        let entries: Vec<(Vec<usize>, Complex)> = vec![
            (vec![0, 0, 1], Complex::real(0.5)),
            (vec![0, 3, 0], Complex::new(0.0, -0.5)),
            (vec![2, 0, 0], Complex::from_polar(0.5, 1.0)),
            (vec![1, 5, 1], Complex::real(-0.5)),
        ];
        let sparse = StateDd::from_sparse(&d, &entries, BuildOptions::default()).unwrap();
        let mut dense = vec![Complex::ZERO; d.space_size()];
        for (digits, amp) in &entries {
            dense[d.index_of(digits)] = *amp;
        }
        let dense = StateDd::from_amplitudes(&d, &dense, BuildOptions::default()).unwrap();
        assert_eq!(sparse.node_count(), dense.node_count());
        assert_eq!(sparse.edge_count(), dense.edge_count());
        assert!((sparse.fidelity(&dense) - 1.0).abs() < 1e-12);
        for (a, b) in sparse.to_amplitudes().iter().zip(dense.to_amplitudes()) {
            assert!(a.approx_eq(b, 1e-12));
        }
    }

    #[test]
    fn sparse_build_sums_duplicates_and_drops_cancellations() {
        let d = dims(&[2, 2]);
        let entries = vec![
            (vec![0, 0], Complex::real(0.5)),
            (vec![0, 0], Complex::real(0.5)),
            (vec![1, 1], Complex::real(0.7)),
            (vec![1, 1], Complex::real(-0.7)),
            (vec![0, 1], Complex::real(1.0)),
        ];
        let dd = StateDd::from_sparse(&d, &entries, BuildOptions::default()).unwrap();
        // |00⟩ amplitude 1.0, |01⟩ amplitude 1.0, |11⟩ cancelled.
        assert!(dd.amplitude(&[1, 1]).is_zero(1e-12));
        let a = dd.amplitude(&[0, 0]);
        let b = dd.amplitude(&[0, 1]);
        assert!(a.approx_eq(b, 1e-12));
        assert!((a.norm_sqr() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sparse_build_validates_entries() {
        let d = dims(&[2, 2]);
        assert_eq!(
            StateDd::from_sparse(&d, &[(vec![0], Complex::ONE)], BuildOptions::default())
                .unwrap_err(),
            BuildError::WrongDigitCount {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            StateDd::from_sparse(&d, &[(vec![0, 2], Complex::ONE)], BuildOptions::default())
                .unwrap_err(),
            BuildError::DigitOutOfRange {
                position: 1,
                digit: 2,
                dim: 2
            }
        );
        assert_eq!(
            StateDd::from_sparse(&d, &[], BuildOptions::default()).unwrap_err(),
            BuildError::ZeroNorm
        );
        assert_eq!(
            StateDd::from_sparse(
                &d,
                &[(vec![0, 0], Complex::new(f64::INFINITY, 0.0))],
                BuildOptions::default()
            )
            .unwrap_err(),
            BuildError::NotFinite { index: 0 }
        );
    }

    #[test]
    fn sparse_build_scales_past_dense_limits() {
        // 20 mixed-dimensional qudits: the space has ~3.6e9 amplitudes, far
        // beyond a dense vector, but the GHZ diagram has 2 nodes per level
        // beyond the root.
        let pattern = [
            3usize, 4, 2, 5, 3, 2, 4, 3, 2, 3, 4, 2, 5, 3, 2, 3, 4, 2, 3, 5,
        ];
        let d = dims(&pattern);
        let a = Complex::real(1.0 / 2.0_f64.sqrt());
        let entries = vec![(vec![0; 20], a), (vec![1; 20], a)];
        let dd = StateDd::from_sparse(&d, &entries, BuildOptions::default()).unwrap();
        assert_eq!(dd.node_count(), 1 + 2 * 19);
        // Peak memory equals the final diagram: the arena never held any
        // other node, so the build is linear in the support size.
        assert_eq!(dd.arena().len(), 1 + 2 * 19);
        assert!(dd.amplitude(&[1; 20]).approx_eq(a, 1e-12));
        assert!(dd
            .amplitude(&{
                let mut v = vec![0; 20];
                v[7] = 1;
                v
            })
            .is_zero(1e-12));
    }

    #[test]
    fn build_in_recycled_arena_matches_fresh_build() {
        let (d, amps) = ghz_362();
        let fresh = StateDd::from_amplitudes(&d, &amps, BuildOptions::default()).unwrap();

        // First job grows the arena, then the worker reclaims and reuses it.
        let first = StateDd::from_amplitudes(&d, &amps, BuildOptions::default()).unwrap();
        let arena = first.into_arena();
        let again = StateDd::from_amplitudes_in(&d, &amps, BuildOptions::default(), arena).unwrap();
        assert_eq!(again.node_count(), fresh.node_count());
        assert_eq!(again.edge_count(), fresh.edge_count());
        for (a, b) in again.to_amplitudes().iter().zip(fresh.to_amplitudes()) {
            assert!(a.approx_eq(b, 1e-12));
        }

        // Sparse path through the same recycled arena.
        let entries = vec![
            (vec![0, 0, 0], Complex::real(1.0)),
            (vec![1, 1, 1], Complex::real(1.0)),
        ];
        let sparse_fresh = StateDd::from_sparse(&d, &entries, BuildOptions::default()).unwrap();
        let sparse_again =
            StateDd::from_sparse_in(&d, &entries, BuildOptions::default(), again.into_arena())
                .unwrap();
        assert_eq!(sparse_again.node_count(), sparse_fresh.node_count());
        assert!((sparse_again.fidelity(&sparse_fresh) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn build_in_respects_options_node_limit_over_arena_limit() {
        let d = dims(&[2, 2, 2]);
        let amps: Vec<Complex> = (0..8).map(|i| Complex::real(1.0 + i as f64)).collect();
        let arena = DdArena::with_node_limit(Tolerance::default(), 1_000);
        let err =
            StateDd::from_amplitudes_in(&d, &amps, BuildOptions::default().node_limit(2), arena);
        assert_eq!(err.unwrap_err(), BuildError::ArenaOverflow { limit: 2 });
        // Without an options limit the arena's own cap is kept.
        let arena = DdArena::with_node_limit(Tolerance::default(), 2);
        let err = StateDd::from_amplitudes_in(&d, &amps, BuildOptions::default(), arena);
        assert_eq!(err.unwrap_err(), BuildError::ArenaOverflow { limit: 2 });
    }

    #[test]
    fn single_qudit_diagram() {
        let d = dims(&[5]);
        let mut amps = vec![Complex::ZERO; 5];
        amps[3] = Complex::ONE;
        let dd = StateDd::from_amplitudes(&d, &amps, BuildOptions::default()).unwrap();
        assert_eq!(dd.node_count(), 1);
        assert_eq!(dd.edge_count(), 6);
        assert!(dd.amplitude(&[3]).approx_eq(Complex::ONE, 1e-12));
        assert!(dd.amplitude(&[0]).is_zero(1e-12));
    }
}
