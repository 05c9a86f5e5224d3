//! Amplitude queries, dense reconstruction, inner products, contributions,
//! and sampling.

use mdq_num::hash::FxHashMap;
use mdq_num::Complex;

use crate::node::NodeRef;
use crate::StateDd;

impl StateDd {
    /// The amplitude of the basis state given by mixed-radix `digits`
    /// (most significant first).
    ///
    /// # Panics
    ///
    /// Panics if the digit count or any digit is out of range for the
    /// register.
    ///
    /// # Examples
    ///
    /// ```
    /// use mdq_dd::{BuildOptions, StateDd};
    /// use mdq_num::{radix::Dims, Complex};
    ///
    /// let dims = Dims::new(vec![2, 2])?;
    /// let a = Complex::real(1.0 / 2.0_f64.sqrt());
    /// let dd = StateDd::from_amplitudes(
    ///     &dims,
    ///     &[a, Complex::ZERO, Complex::ZERO, a],
    ///     BuildOptions::default(),
    /// )?;
    /// assert!(dd.amplitude(&[1, 1]).approx_eq(a, 1e-12));
    /// assert!(dd.amplitude(&[0, 1]).is_zero(1e-12));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn amplitude(&self, digits: &[usize]) -> Complex {
        assert_eq!(
            digits.len(),
            self.dims.len(),
            "digit count {} does not match register length {}",
            digits.len(),
            self.dims.len()
        );
        let mut weight = self.root_weight;
        let mut at = self.root;
        for (level, &digit) in digits.iter().enumerate() {
            assert!(
                digit < self.dims.dim(level),
                "digit {digit} exceeds dimension {} at level {level}",
                self.dims.dim(level)
            );
            match at {
                NodeRef::Terminal => return Complex::ZERO,
                NodeRef::Node(id) => {
                    let edge = &self.node(id).edges()[digit];
                    weight *= edge.weight;
                    at = edge.target;
                }
            }
        }
        weight
    }

    /// Reconstructs the dense amplitude vector in mixed-radix index order.
    #[must_use]
    pub fn to_amplitudes(&self) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; self.dims.space_size()];
        self.fill(self.root, self.root_weight, 0, 0, &mut out);
        out
    }

    fn fill(&self, at: NodeRef, weight: Complex, level: usize, offset: usize, out: &mut [Complex]) {
        let tol = self.tolerance().value();
        if weight.is_zero(tol) {
            return;
        }
        match at {
            NodeRef::Terminal => {
                debug_assert_eq!(level, self.dims.len());
                out[offset] = weight;
            }
            NodeRef::Node(id) => {
                let stride: usize = (level + 1..self.dims.len())
                    .map(|l| self.dims.dim(l))
                    .product();
                for (k, edge) in self.node(id).edges().iter().enumerate() {
                    if !edge.is_zero(tol) {
                        self.fill(
                            edge.target,
                            weight * edge.weight,
                            level + 1,
                            offset + k * stride,
                            out,
                        );
                    }
                }
            }
        }
    }

    /// The inner product `⟨self|other⟩`, computed recursively with
    /// memoization on node pairs (linear in the product of diagram sizes in
    /// the worst case, but typically far cheaper on shared diagrams).
    ///
    /// # Panics
    ///
    /// Panics if the two diagrams are defined over different registers.
    #[must_use]
    pub fn inner_product(&self, other: &StateDd) -> Complex {
        assert_eq!(
            self.dims, other.dims,
            "inner product of states over different registers"
        );
        let mut memo: FxHashMap<(NodeRef, NodeRef), Complex> = FxHashMap::default();
        let ip = self.ip(self.root, other, other.root, &mut memo);
        self.root_weight.conj() * other.root_weight * ip
    }

    fn ip(
        &self,
        a: NodeRef,
        other: &StateDd,
        b: NodeRef,
        memo: &mut FxHashMap<(NodeRef, NodeRef), Complex>,
    ) -> Complex {
        match (a, b) {
            (NodeRef::Terminal, NodeRef::Terminal) => Complex::ONE,
            // A terminal against an internal node can only happen when one
            // side pruned a zero branch the other kept; the weight into this
            // recursion is zero in that case.
            (NodeRef::Terminal, _) | (_, NodeRef::Terminal) => Complex::ZERO,
            (NodeRef::Node(na), NodeRef::Node(nb)) => {
                if let Some(&v) = memo.get(&(a, b)) {
                    return v;
                }
                let tol = self.tolerance().value();
                let mut acc = Complex::ZERO;
                let ea = self.node(na).edges();
                let eb = other.node(nb).edges();
                debug_assert_eq!(ea.len(), eb.len());
                for (x, y) in ea.iter().zip(eb.iter()) {
                    if x.is_zero(tol) || y.is_zero(tol) {
                        continue;
                    }
                    let sub = self.ip(x.target, other, y.target, memo);
                    acc += x.weight.conj() * y.weight * sub;
                }
                memo.insert((a, b), acc);
                acc
            }
        }
    }

    /// Fidelity `|⟨self|other⟩|²` between the two represented states.
    ///
    /// # Panics
    ///
    /// Panics if the registers differ.
    #[must_use]
    pub fn fidelity(&self, other: &StateDd) -> f64 {
        self.inner_product(other).norm_sqr()
    }

    /// Per-node fidelity contributions, indexed like [`StateDd::nodes`].
    ///
    /// The contribution of a node is the total squared-magnitude of all
    /// amplitudes whose root-to-terminal path crosses the node (paper §4.3).
    /// With normalized nodes this equals the sum over incoming paths of the
    /// squared product of edge weights, accumulated top-down.
    #[must_use]
    pub fn contributions(&self) -> Vec<f64> {
        let mut contrib = vec![0.0; self.node_count()];
        if let NodeRef::Node(root) = self.root {
            contrib[root.index()] = self.root_weight.norm_sqr();
        }
        // Reverse creation order is top-down topological.
        for idx in (0..self.node_count()).rev() {
            let c = contrib[idx];
            if c == 0.0 {
                continue;
            }
            for edge in self.nodes()[idx].edges() {
                if let NodeRef::Node(child) = edge.target {
                    contrib[child.index()] += c * edge.weight.norm_sqr();
                }
            }
        }
        contrib
    }

    /// Samples a basis state (as digits) from the measurement distribution
    /// of the represented state.
    ///
    /// Walks the diagram once, choosing a successor at every node with
    /// probability equal to the squared magnitude of its weight. The caller
    /// supplies uniform random numbers in `[0, 1)` (e.g. a closure around
    /// `rand::Rng::gen`), keeping this crate free of an RNG dependency.
    pub fn sample(&self, mut uniform: impl FnMut() -> f64) -> Vec<usize> {
        let mut digits = Vec::with_capacity(self.dims.len());
        let mut at = self.root;
        while digits.len() < self.dims.len() {
            match at {
                NodeRef::Terminal => {
                    // Zero branch (possible only in malformed diagrams);
                    // default deterministically to level 0.
                    digits.push(0);
                }
                NodeRef::Node(id) => {
                    let node = self.node(id);
                    let mut x = uniform();
                    let mut chosen = node.dimension() - 1;
                    for (k, edge) in node.edges().iter().enumerate() {
                        let p = edge.weight.norm_sqr();
                        if x < p {
                            chosen = k;
                            break;
                        }
                        x -= p;
                    }
                    digits.push(chosen);
                    at = node.edges()[chosen].target;
                }
            }
        }
        digits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BuildOptions;
    use mdq_num::radix::Dims;

    fn dims(v: &[usize]) -> Dims {
        Dims::new(v.to_vec()).unwrap()
    }

    fn build(dims: &Dims, amps: &[Complex]) -> StateDd {
        StateDd::from_amplitudes(dims, amps, BuildOptions::default()).unwrap()
    }

    fn fig3_state() -> (Dims, Vec<Complex>) {
        // (|00⟩ − |11⟩ + |21⟩)/√3 on a qutrit-qubit register (paper Fig. 3).
        let d = dims(&[3, 2]);
        let a = 1.0 / 3.0_f64.sqrt();
        let mut amps = vec![Complex::ZERO; 6];
        amps[d.index_of(&[0, 0])] = Complex::real(a);
        amps[d.index_of(&[1, 1])] = Complex::real(-a);
        amps[d.index_of(&[2, 1])] = Complex::real(a);
        (d, amps)
    }

    #[test]
    fn amplitude_matches_input() {
        let (d, amps) = fig3_state();
        let dd = build(&d, &amps);
        for (i, want) in amps.iter().enumerate() {
            let got = dd.amplitude(&d.digits_of(i));
            assert!(got.approx_eq(*want, 1e-12), "index {i}: {got} vs {want}");
        }
    }

    #[test]
    fn to_amplitudes_round_trips() {
        let (d, amps) = fig3_state();
        let dd = build(&d, &amps);
        for (a, b) in amps.iter().zip(dd.to_amplitudes()) {
            assert!(a.approx_eq(b, 1e-12));
        }
    }

    #[test]
    fn self_fidelity_is_one() {
        let (d, amps) = fig3_state();
        let dd = build(&d, &amps);
        assert!((dd.fidelity(&dd) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fidelity_of_orthogonal_states_is_zero() {
        let d = dims(&[2]);
        let a = build(&d, &[Complex::ONE, Complex::ZERO]);
        let b = build(&d, &[Complex::ZERO, Complex::ONE]);
        assert!(a.fidelity(&b) < 1e-15);
    }

    #[test]
    fn inner_product_matches_dense_computation() {
        let (d, amps1) = fig3_state();
        let inv6 = 1.0 / 6.0_f64.sqrt();
        let amps2: Vec<Complex> = (0..6).map(|_| Complex::real(inv6)).collect();
        let dd1 = build(&d, &amps1);
        let dd2 = build(&d, &amps2);
        let dense = mdq_num::inner_product(&amps1, &amps2);
        assert!(dd1.inner_product(&dd2).approx_eq(dense, 1e-12));
    }

    #[test]
    fn inner_product_works_across_pruned_and_full_trees() {
        let (d, amps) = fig3_state();
        let pruned = build(&d, &amps);
        let full =
            StateDd::from_amplitudes(&d, &amps, BuildOptions::default().keep_zero_subtrees(true))
                .unwrap();
        assert!((pruned.fidelity(&full) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different registers")]
    fn inner_product_panics_on_register_mismatch() {
        let a = build(&dims(&[2]), &[Complex::ONE, Complex::ZERO]);
        let b = build(&dims(&[3]), &[Complex::ONE, Complex::ZERO, Complex::ZERO]);
        let _ = a.inner_product(&b);
    }

    #[test]
    fn root_contribution_is_one() {
        let (d, amps) = fig3_state();
        let dd = build(&d, &amps);
        let contrib = dd.contributions();
        let root = dd.root().1.id().unwrap();
        assert!((contrib[root.index()] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contributions_match_subtree_mass() {
        let (d, amps) = fig3_state();
        let dd = build(&d, &amps);
        let contrib = dd.contributions();
        let root = dd.node(dd.root().1.id().unwrap());
        // Level-1 children carry 1/3 and 2/3 of the mass: |00⟩ under edge 0;
        // |11⟩,|21⟩ under edges 1 and 2, which the hash-consing build merges
        // into one shared node accumulating the full 2/3.
        let c0 = root.edges()[0].target.id().unwrap();
        assert!((contrib[c0.index()] - 1.0 / 3.0).abs() < 1e-12);
        let c1 = root.edges()[1].target.id().unwrap();
        let c2 = root.edges()[2].target.id().unwrap();
        assert_eq!(c1, c2, "identical subtrees are shared at build time");
        assert!((contrib[c1.index()] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn contributions_accumulate_on_shared_nodes() {
        let (d, amps) = fig3_state();
        let reduced = build(&d, &amps).reduce();
        let contrib = reduced.contributions();
        // In the reduced diagram the |1⟩-successor node is shared by the
        // level-0 edges 1 and 2; its contribution is the full 2/3.
        let per_level_mass: f64 = reduced
            .nodes()
            .iter()
            .zip(contrib.iter())
            .filter(|(n, _)| n.level() == 1)
            .map(|(_, c)| c)
            .sum();
        assert!((per_level_mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_follows_distribution() {
        let (d, amps) = fig3_state();
        let dd = build(&d, &amps);
        // First random value 0.1 < 1/3 picks level 0 at the root, then 0.0
        // picks edge 0 at the child: |00⟩.
        let mut seq = [0.1, 0.0].into_iter();
        assert_eq!(dd.sample(|| seq.next().unwrap()), vec![0, 0]);
        // 0.9 > 2/3 at the root picks level 2, whose child is |1⟩.
        let mut seq = [0.9, 0.5].into_iter();
        assert_eq!(dd.sample(|| seq.next().unwrap()), vec![2, 1]);
    }

    #[test]
    fn sampling_statistics_match_probabilities() {
        let (d, amps) = fig3_state();
        let dd = build(&d, &amps);
        // A simple LCG keeps the test deterministic without a rand dep.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut uniform = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut counts = [0usize; 6];
        let trials = 30_000;
        for _ in 0..trials {
            let digits = dd.sample(&mut uniform);
            counts[d.index_of(&digits)] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            let p = amps[i].norm_sqr();
            let freq = count as f64 / trials as f64;
            assert!(
                (freq - p).abs() < 0.02,
                "index {i}: frequency {freq} vs probability {p}"
            );
        }
    }
}
