//! Mixed-radix index arithmetic for mixed-dimensional Hilbert spaces.
//!
//! A register of `n` qudits with local dimensions `d_{n−1}, …, d_0`
//! (most-significant first, matching the paper's variable order
//! `q_{n−1}, …, q_0`) spans a Hilbert space of size `Π d_i`. Basis states
//! are mixed-radix digit strings; this module converts between flat indices
//! and digit vectors and provides the structural counts used by the
//! evaluation metrics.

use std::fmt;

/// Error produced when constructing [`Dims`] from invalid dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DimsError {
    /// The register had no qudits.
    Empty,
    /// A qudit dimension was smaller than 2.
    DimensionTooSmall {
        /// Position of the offending qudit (0 = most significant).
        position: usize,
        /// The dimension found.
        dim: usize,
    },
    /// The Hilbert-space size `Π d_i`, or the unreduced tree's edge count
    /// ([`Dims::full_tree_edge_count`]), does not fit in `usize`, so flat
    /// indices would wrap.
    SpaceTooLarge,
}

impl fmt::Display for DimsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimsError::Empty => write!(f, "qudit register must not be empty"),
            DimsError::DimensionTooSmall { position, dim } => write!(
                f,
                "qudit at position {position} has dimension {dim}, but at least 2 is required"
            ),
            DimsError::SpaceTooLarge => write!(
                f,
                "register's Hilbert space (or its unreduced tree) exceeds the usize index space"
            ),
        }
    }
}

impl std::error::Error for DimsError {}

/// The local dimensions of a mixed-dimensional qudit register.
///
/// Position 0 is the *most significant* qudit (the decision diagram's root
/// level, `q_{n−1}` in the paper); the last position is the least
/// significant (`q_0`).
///
/// # Examples
///
/// ```
/// use mdq_num::radix::Dims;
///
/// let dims = Dims::new(vec![3, 2]).unwrap(); // a qutrit–qubit system
/// assert_eq!(dims.space_size(), 6);
/// assert_eq!(dims.digits_of(4), vec![2, 0]); // |20⟩
/// assert_eq!(dims.index_of(&[2, 0]), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Dims {
    dims: Vec<usize>,
}

impl Dims {
    /// Creates a register description from most-significant-first dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`DimsError`] if the vector is empty, any dimension is < 2,
    /// or the unreduced tree's edge count `1 + Σ_k Π_{i≤k} d_i` — which
    /// bounds the space size and every index, stride and count derived
    /// from it — does not fit in `usize`.
    pub fn new(dims: Vec<usize>) -> Result<Self, DimsError> {
        if dims.is_empty() {
            return Err(DimsError::Empty);
        }
        let mut edges: usize = 1;
        let mut prefix: usize = 1;
        for (position, &dim) in dims.iter().enumerate() {
            if dim < 2 {
                return Err(DimsError::DimensionTooSmall { position, dim });
            }
            prefix = prefix.checked_mul(dim).ok_or(DimsError::SpaceTooLarge)?;
            edges = edges.checked_add(prefix).ok_or(DimsError::SpaceTooLarge)?;
        }
        Ok(Self { dims })
    }

    /// Convenience constructor for a uniform register of `n` qudits of
    /// dimension `d` (e.g. `Dims::uniform(2, 3)` is two qutrits).
    ///
    /// # Errors
    ///
    /// Returns [`DimsError`] if `n == 0`, `d < 2`, or the register is too
    /// large to index (see [`Dims::new`]).
    pub fn uniform(n: usize, d: usize) -> Result<Self, DimsError> {
        Self::new(vec![d; n])
    }

    /// Number of qudits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.dims.len()
    }

    /// Whether the register is empty (never true for a constructed value).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// The dimension of the qudit at `position` (0 = most significant).
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of bounds.
    #[must_use]
    pub fn dim(&self, position: usize) -> usize {
        self.dims[position]
    }

    /// The dimensions as a slice, most significant first.
    #[must_use]
    pub fn as_slice(&self) -> &[usize] {
        &self.dims
    }

    /// Total Hilbert-space size `Π d_i`.
    #[must_use]
    pub fn space_size(&self) -> usize {
        self.dims.iter().product()
    }

    /// The stride of each position: `stride[i] = Π_{j>i} d_j`, so that
    /// `index = Σ digit[i]·stride[i]`.
    #[must_use]
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a flat index into mixed-radix digits (most significant first).
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ space_size()`.
    #[must_use]
    pub fn digits_of(&self, index: usize) -> Vec<usize> {
        assert!(
            index < self.space_size(),
            "index {index} out of range for space of size {}",
            self.space_size()
        );
        let mut digits = vec![0; self.dims.len()];
        let mut rem = index;
        for (i, &d) in self.dims.iter().enumerate().rev() {
            digits[i] = rem % d;
            rem /= d;
        }
        digits
    }

    /// Converts mixed-radix digits (most significant first) into a flat index.
    ///
    /// # Panics
    ///
    /// Panics if the digit count differs from the register length or a digit
    /// exceeds its local dimension.
    #[must_use]
    pub fn index_of(&self, digits: &[usize]) -> usize {
        assert_eq!(
            digits.len(),
            self.dims.len(),
            "digit count {} does not match register length {}",
            digits.len(),
            self.dims.len()
        );
        let mut index = 0;
        for (i, (&digit, &dim)) in digits.iter().zip(self.dims.iter()).enumerate() {
            assert!(
                digit < dim,
                "digit {digit} at position {i} exceeds local dimension {dim}"
            );
            index = index * dim + digit;
        }
        index
    }

    /// Iterates over all basis states as digit vectors, in index order.
    pub fn iter_basis(&self) -> BasisIter<'_> {
        BasisIter {
            dims: self,
            next: Some(vec![0; self.dims.len()]),
        }
    }

    /// Edge count of the *unreduced* decision-diagram tree for this register,
    /// including the incoming root edge and zero-weight branches:
    /// `1 + Σ_{k=1..n} Π_{i=1..k} d_i`.
    ///
    /// This is exactly the paper's "Nodes" column for exact synthesis
    /// (58 for `[3,6,2]`, 1135 for `[9,5,6,3]`, …).
    ///
    /// # Examples
    ///
    /// ```
    /// use mdq_num::radix::Dims;
    /// let dims = Dims::new(vec![3, 6, 2]).unwrap();
    /// assert_eq!(dims.full_tree_edge_count(), 58);
    /// ```
    #[must_use]
    pub fn full_tree_edge_count(&self) -> usize {
        let mut total = 1; // incoming root edge
        let mut prefix = 1;
        for &d in &self.dims {
            prefix *= d;
            total += prefix;
        }
        total
    }

    /// Number of internal nodes of the unreduced tree:
    /// `Σ_{k=0..n−1} Π_{i<k} d_i` (one node per prefix).
    #[must_use]
    pub fn full_tree_node_count(&self) -> usize {
        let mut total = 0;
        let mut prefix = 1;
        for &d in &self.dims {
            total += prefix;
            prefix *= d;
        }
        total
    }
}

impl fmt::Display for Dims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl AsRef<[usize]> for Dims {
    fn as_ref(&self) -> &[usize] {
        &self.dims
    }
}

/// Iterator over all basis states of a register; see [`Dims::iter_basis`].
#[derive(Debug)]
pub struct BasisIter<'a> {
    dims: &'a Dims,
    next: Option<Vec<usize>>,
}

impl Iterator for BasisIter<'_> {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.next.take()?;
        let mut succ = current.clone();
        let mut pos = self.dims.len();
        loop {
            if pos == 0 {
                self.next = None;
                break;
            }
            pos -= 1;
            succ[pos] += 1;
            if succ[pos] < self.dims.dim(pos) {
                self.next = Some(succ);
                break;
            }
            succ[pos] = 0;
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_empty_register() {
        assert_eq!(Dims::new(vec![]), Err(DimsError::Empty));
    }

    #[test]
    fn rejects_dimension_below_two() {
        assert_eq!(
            Dims::new(vec![3, 1]),
            Err(DimsError::DimensionTooSmall {
                position: 1,
                dim: 1
            })
        );
    }

    #[test]
    fn uniform_builds_repeated_dims() {
        let dims = Dims::uniform(3, 4).unwrap();
        assert_eq!(dims.as_slice(), &[4, 4, 4]);
    }

    #[test]
    fn space_size_is_product() {
        let dims = Dims::new(vec![3, 6, 2]).unwrap();
        assert_eq!(dims.space_size(), 36);
    }

    #[test]
    fn strides_follow_least_significant_last() {
        let dims = Dims::new(vec![3, 6, 2]).unwrap();
        assert_eq!(dims.strides(), vec![12, 2, 1]);
    }

    #[test]
    fn digit_round_trip_qutrit_qubit() {
        let dims = Dims::new(vec![3, 2]).unwrap();
        let expected = [
            vec![0, 0],
            vec![0, 1],
            vec![1, 0],
            vec![1, 1],
            vec![2, 0],
            vec![2, 1],
        ];
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(&dims.digits_of(i), want);
            assert_eq!(dims.index_of(want), i);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn digits_of_out_of_range_panics() {
        let dims = Dims::new(vec![2, 2]).unwrap();
        let _ = dims.digits_of(4);
    }

    #[test]
    #[should_panic(expected = "exceeds local dimension")]
    fn index_of_invalid_digit_panics() {
        let dims = Dims::new(vec![2, 2]).unwrap();
        let _ = dims.index_of(&[0, 2]);
    }

    #[test]
    fn basis_iteration_matches_index_order() {
        let dims = Dims::new(vec![2, 3]).unwrap();
        let all: Vec<_> = dims.iter_basis().collect();
        assert_eq!(all.len(), 6);
        for (i, digits) in all.iter().enumerate() {
            assert_eq!(dims.index_of(digits), i);
        }
    }

    #[test]
    fn full_tree_edge_counts_match_table_one() {
        // The five mixed-dimensional architectures of the paper's Table 1,
        // with the qudit orderings recovered from the "Nodes" column.
        let cases: [(&[usize], usize); 5] = [
            (&[3, 6, 2], 58),
            (&[9, 5, 6, 3], 1135),
            (&[4, 7, 4, 4, 3, 5], 8657),
            (&[6, 6, 5, 3, 3], 2383),
            (&[5, 4, 2, 5, 5, 2], 3266),
        ];
        for (dims, expected) in cases {
            let dims = Dims::new(dims.to_vec()).unwrap();
            assert_eq!(dims.full_tree_edge_count(), expected, "dims {dims}");
        }
    }

    #[test]
    fn full_tree_node_count_small() {
        // [3,2]: 1 root + 3 level-1 nodes = 4 internal nodes.
        let dims = Dims::new(vec![3, 2]).unwrap();
        assert_eq!(dims.full_tree_node_count(), 4);
    }

    #[test]
    fn display_formats_like_a_list() {
        let dims = Dims::new(vec![3, 6, 2]).unwrap();
        assert_eq!(dims.to_string(), "[3,6,2]");
    }

    fn arb_dims() -> impl Strategy<Value = Dims> {
        proptest::collection::vec(2usize..6, 1..5).prop_map(|v| Dims::new(v).unwrap())
    }

    proptest! {
        #[test]
        fn prop_index_digit_round_trip(dims in arb_dims(), seed in 0usize..10_000) {
            let idx = seed % dims.space_size();
            let digits = dims.digits_of(idx);
            prop_assert_eq!(dims.index_of(&digits), idx);
        }

        #[test]
        fn prop_basis_iter_covers_space(dims in arb_dims()) {
            prop_assert_eq!(dims.iter_basis().count(), dims.space_size());
        }

        #[test]
        fn prop_edge_count_exceeds_node_count(dims in arb_dims()) {
            // Every internal node has ≥2 out-edges plus the root in-edge.
            prop_assert!(dims.full_tree_edge_count() > dims.full_tree_node_count());
        }
    }
}
