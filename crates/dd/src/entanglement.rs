//! Entanglement structure read off the decision diagram.
//!
//! The paper motivates state preparation partly as a vehicle for "gaining
//! insights into the behavior of specific states … including aspects like
//! entanglement" (§1). The diagram makes one such insight almost free: for
//! the bipartition between levels `0..ℓ` and `ℓ..n`, the state's Schmidt
//! rank equals the rank of the unfolding matrix, and the number of distinct
//! nodes at level `ℓ` of the *reduced* diagram is exactly the number of
//! distinct (up to scale) column blocks of that unfolding — an upper bound
//! on the rank that is tight for states whose distinct subtrees are linearly
//! independent (all the benchmark families).

use mdq_num::hash::FxHashSet;

use crate::node::NodeRef;
use crate::StateDd;

impl StateDd {
    /// For every cut position `ℓ = 1..n`, the number of *distinct reachable
    /// subtrees* rooted at level `ℓ` (counting the distinct nonzero
    /// `(weight-class, target)` continuations), in the diagram as stored.
    ///
    /// On a shared diagram — which arena-built
    /// ([canonical](StateDd::is_canonical)) diagrams are by construction;
    /// Table-1 trees need [`StateDd::reduce`] first — this is the
    /// decision-diagram bound on the Schmidt rank across the cut
    /// `q_{top}…|…q_{bottom}`:
    /// 1 for product cuts, `k` for a GHZ state with `k` components, and at
    /// most `min(dim of either side)` in general.
    ///
    /// # Examples
    ///
    /// ```
    /// use mdq_dd::{BuildOptions, StateDd};
    /// use mdq_num::{radix::Dims, Complex};
    ///
    /// // GHZ on two qutrits: Schmidt rank 3 across the middle cut.
    /// let dims = Dims::new(vec![3, 3])?;
    /// let a = Complex::real(1.0 / 3.0_f64.sqrt());
    /// let mut amps = vec![Complex::ZERO; 9];
    /// for k in 0..3 { amps[k * 3 + k] = a; }
    /// let dd = StateDd::from_amplitudes(&dims, &amps, BuildOptions::default())?.reduce();
    /// assert_eq!(dd.cut_ranks(), vec![3]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn cut_ranks(&self) -> Vec<usize> {
        let n = self.dims().len();
        let tol = self.tolerance().value();
        // Reachable nodes per level.
        let mut reachable: Vec<FxHashSet<usize>> = vec![FxHashSet::default(); n];
        let mut stack: Vec<usize> = Vec::new();
        if let (_, NodeRef::Node(root)) = self.root() {
            stack.push(root.index());
            reachable[self.node(root).level()].insert(root.index());
        }
        let mut seen: FxHashSet<usize> = stack.iter().copied().collect();
        while let Some(idx) = stack.pop() {
            for edge in self.nodes()[idx].edges() {
                if edge.is_zero(tol) {
                    continue;
                }
                if let NodeRef::Node(child) = edge.target {
                    let c = child.index();
                    reachable[self.node(child).level()].insert(c);
                    if seen.insert(c) {
                        stack.push(c);
                    }
                }
            }
        }
        // Rank bound across the cut above level ℓ = number of distinct
        // reachable subtrees at level ℓ (ℓ = 1..n−1), plus the bottom cut
        // rank 1 is omitted (it is not a bipartition of two non-empty
        // parts unless n ≥ 2).
        (1..n).map(|l| reachable[l].len().max(1)).collect()
    }

    /// Whether every cut of the (reduced) diagram has rank bound 1 — a
    /// sufficient condition for the state being a full product state.
    #[must_use]
    pub fn is_product_bound(&self) -> bool {
        self.cut_ranks().iter().all(|&r| r == 1)
    }
}

#[cfg(test)]
mod tests {
    use crate::{BuildOptions, StateDd};
    use mdq_num::radix::Dims;
    use mdq_num::Complex;

    fn dims(v: &[usize]) -> Dims {
        Dims::new(v.to_vec()).unwrap()
    }

    fn reduced(d: &Dims, amps: &[Complex]) -> StateDd {
        StateDd::from_amplitudes(d, amps, BuildOptions::default())
            .unwrap()
            .reduce()
    }

    #[test]
    fn product_state_has_rank_one_everywhere() {
        let d = dims(&[3, 4, 2]);
        let n = d.space_size();
        let amps = vec![Complex::real(1.0 / (n as f64).sqrt()); n];
        let dd = reduced(&d, &amps);
        assert_eq!(dd.cut_ranks(), vec![1, 1]);
        assert!(dd.is_product_bound());
    }

    #[test]
    fn ghz_rank_equals_component_count() {
        // Mixed GHZ on [3,6,2] has min-dim = 2 components: rank 2 cuts.
        let d = dims(&[3, 6, 2]);
        let a = Complex::real(1.0 / 2.0_f64.sqrt());
        let mut amps = vec![Complex::ZERO; d.space_size()];
        amps[d.index_of(&[0, 0, 0])] = a;
        amps[d.index_of(&[1, 1, 1])] = a;
        let dd = reduced(&d, &amps);
        assert_eq!(dd.cut_ranks(), vec![2, 2]);
        assert!(!dd.is_product_bound());
    }

    #[test]
    fn w_state_has_rank_two_cuts() {
        // Every cut of a W state separates "excitation above" from
        // "excitation below": Schmidt rank 2.
        let d = dims(&[2, 2, 2, 2]);
        let a = Complex::real(0.5);
        let mut amps = vec![Complex::ZERO; 16];
        for q in 0..4 {
            amps[1 << (3 - q)] = a;
        }
        let dd = reduced(&d, &amps);
        assert_eq!(dd.cut_ranks(), vec![2, 2, 2]);
    }

    #[test]
    fn basis_state_is_product() {
        let d = dims(&[5, 3, 2]);
        let mut amps = vec![Complex::ZERO; d.space_size()];
        amps[d.index_of(&[4, 2, 1])] = Complex::ONE;
        let dd = reduced(&d, &amps);
        assert!(dd.is_product_bound());
    }

    #[test]
    fn partially_entangled_register() {
        // (|00⟩ + |11⟩)/√2 ⊗ |+⟩: entangled across the first cut, product
        // across the second.
        let d = dims(&[2, 2, 2]);
        let h = Complex::real(0.5);
        let mut amps = vec![Complex::ZERO; 8];
        amps[d.index_of(&[0, 0, 0])] = h;
        amps[d.index_of(&[0, 0, 1])] = h;
        amps[d.index_of(&[1, 1, 0])] = h;
        amps[d.index_of(&[1, 1, 1])] = h;
        let dd = reduced(&d, &amps);
        assert_eq!(dd.cut_ranks(), vec![2, 1]);
    }

    #[test]
    fn single_qudit_has_no_cuts() {
        let d = dims(&[4]);
        let amps = vec![Complex::real(0.5); 4];
        let dd = reduced(&d, &amps);
        assert!(dd.cut_ranks().is_empty());
    }
}
