//! Applying circuit instructions directly to decision diagrams.
//!
//! This is the decision-diagram *simulation* substrate the paper's authors
//! use for verification (Mato, Hillmich, Wille, *"Mixed-dimensional quantum
//! circuit simulation with decision diagrams"*, QCE 2023 — reference \[12\]
//! of the paper): instead of a dense state vector, the evolving state stays
//! a diagram, so structured circuits can be verified on registers whose
//! Hilbert space could never be allocated.
//!
//! Application works *in the diagram's own arena*: untouched subtrees are
//! shared with the input by reference (no copy pass), transformed nodes are
//! interned through the same unique table, and the recursive transform and
//! weighted-sum steps memoize through a [`ComputeCache`].
//! [`StateDd::apply_circuit`] threads one arena and one cache through every
//! instruction of a circuit and compacts the arena once at the end, so a
//! whole simulation run allocates a single node store. Whole-circuit
//! application additionally **fuses** runs of instructions sharing one
//! target and control set into a single matrix (skipping exact identities),
//! and edits full control paths through a frame stack ([`PathEditor`]) so
//! consecutive instructions sharing path prefixes — the synthesizer's DFS
//! emission order — re-intern each path node once per context switch
//! instead of once per instruction. This is what makes replay
//! *verification* of synthesized circuits cost the same order as the
//! preparation pipeline itself.
//!
//! The supported instruction shape matches what the synthesizer emits:
//! every control qudit must be *more significant* than the target (controls
//! are the diagram path from the root). Arbitrary control layouts are
//! covered by the dense simulator in `mdq-sim`.

use std::fmt;

use mdq_num::matrix::CMatrix;
use mdq_num::radix::Dims;
use mdq_num::{Complex, Tolerance};

use crate::arena::{ArenaOverflow, ComputeCache, DdArena};
use crate::node::{Edge, NodeId, NodeRef};
use crate::StateDd;

/// Errors produced by [`StateDd::apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// The target qudit index is out of range.
    TargetOutOfRange {
        /// The offending target index.
        qudit: usize,
    },
    /// A control qudit is not above (more significant than) the target.
    ///
    /// Diagram application processes levels root-down, so a control below
    /// the target would require operator diagrams; the synthesizer never
    /// emits such instructions (controls are the root path), and the dense
    /// simulator handles the general case.
    ControlNotAboveTarget {
        /// The offending control qudit.
        control: usize,
        /// The target qudit.
        target: usize,
    },
    /// A control level exceeds its qudit's dimension.
    ControlLevelOutOfRange {
        /// The offending control level.
        level: usize,
        /// The control qudit's dimension.
        dim: usize,
    },
    /// The node arena reached its capacity while interning result nodes
    /// (the limit configured at build time, or the `u32` index space). The
    /// diagram is left unchanged semantically — the root still points at
    /// the pre-instruction state.
    ArenaOverflow {
        /// The node limit that was hit.
        limit: usize,
    },
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::TargetOutOfRange { qudit } => {
                write!(f, "target qudit {qudit} out of range")
            }
            ApplyError::ControlNotAboveTarget { control, target } => write!(
                f,
                "control qudit {control} is not above target {target} (only root-side controls are supported on diagrams)"
            ),
            ApplyError::ControlLevelOutOfRange { level, dim } => {
                write!(f, "control level {level} out of range for dimension {dim}")
            }
            ApplyError::ArenaOverflow { limit } => {
                write!(f, "decision-diagram arena is full ({limit} nodes)")
            }
        }
    }
}

impl std::error::Error for ApplyError {}

impl From<ArenaOverflow> for ApplyError {
    fn from(e: ArenaOverflow) -> Self {
        ApplyError::ArenaOverflow { limit: e.limit }
    }
}

/// Whether `matrix` is the *exact* identity (bit-level `1.0` diagonal,
/// `±0.0` elsewhere). Zero-angle rotations — which paper-faithful synthesis
/// emits in large numbers — hit this exactly (`cos(±0) == 1.0`,
/// `sin(±0) == ±0.0`), and skipping them is bit-equivalent to applying
/// them, so the check deliberately uses no tolerance.
fn is_identity(matrix: &CMatrix) -> bool {
    let n = matrix.dim();
    for j in 0..n {
        for k in 0..n {
            let c = matrix.get(j, k);
            let want_re = if j == k { 1.0 } else { 0.0 };
            if c.re != want_re || c.im != 0.0 {
                return false;
            }
        }
    }
    true
}

/// Checks whether `controls` form the *full* path above `target` — one
/// control on every qudit `0..target` — and returns the per-level control
/// levels in qudit order if so. Synthesized circuits always have this
/// shape; reduced-diagram circuits (elided controls) do not.
///
/// # Errors
///
/// Rejects out-of-range control levels and below-target controls, exactly
/// as the generic application path does.
fn full_control_path(
    dims: &Dims,
    target: usize,
    controls: &[mdq_circuit::Control],
) -> Result<Option<Vec<usize>>, ApplyError> {
    for c in controls {
        if c.qudit >= target {
            return Err(ApplyError::ControlNotAboveTarget {
                control: c.qudit,
                target,
            });
        }
        let dim = dims.dim(c.qudit);
        if c.level >= dim {
            return Err(ApplyError::ControlLevelOutOfRange {
                level: c.level,
                dim,
            });
        }
    }
    if controls.len() != target {
        return Ok(None);
    }
    let mut path = vec![usize::MAX; target];
    for c in controls {
        if path[c.qudit] != usize::MAX {
            return Ok(None); // duplicate control on one qudit
        }
        path[c.qudit] = c.level;
    }
    Ok(Some(path))
}

/// One open node of the [`PathEditor`]: a working copy of the node's edge
/// list, the child index the open path descends through, and the weight of
/// the edge that led here (re-multiplied on close).
struct Frame {
    branch: usize,
    edges: Vec<Edge>,
    up: Complex,
}

/// The control-path editor behind [`StateDd::apply_circuit_with`].
///
/// Full-path-controlled instructions touch exactly one root path plus the
/// subtree at their target; consecutive instructions (synthesis order is a
/// DFS over contexts) share long path prefixes. The editor keeps the
/// current path *open* — one [`Frame`] per level, edges editable in place
/// — and only interns a path node when the next instruction leaves it
/// (or the circuit ends). Total path interning drops from
/// `O(instructions × depth)` to `O(context switches)`, which is what makes
/// replay verification affordable next to the pipeline itself.
#[derive(Default)]
struct PathEditor {
    stack: Vec<Frame>,
}

impl PathEditor {
    /// Closes the deepest open frame, interning its edited edges and
    /// patching the parent frame (or the diagram root).
    fn close_one(&mut self, state: &mut StateDd) -> Result<(), ArenaOverflow> {
        let frame = self.stack.pop().expect("close_one on an open frame");
        let level = self.stack.len();
        let interned = state.arena.intern_normalized(level, frame.edges)?;
        let tol = state.tolerance().value();
        let combined = Edge::new(frame.up * interned.weight, interned.target);
        let combined = if combined.is_zero(tol) {
            Edge::ZERO
        } else {
            combined
        };
        if let Some(parent) = self.stack.last_mut() {
            parent.edges[parent.branch] = combined;
        } else if combined.is_zero(tol) {
            state.root = NodeRef::Terminal;
            state.root_weight = Complex::ZERO;
        } else {
            state.root = combined.target;
            // Unitary circuits preserve the norm; keep only the phase,
            // exactly as the generic per-instruction path does.
            let total = state.root_weight * combined.weight;
            state.root_weight = Complex::cis(total.arg());
        }
        Ok(())
    }

    /// Closes every open frame (e.g. before compaction or a generic-path
    /// instruction).
    fn close_all(&mut self, state: &mut StateDd) -> Result<(), ArenaOverflow> {
        while !self.stack.is_empty() {
            self.close_one(state)?;
        }
        Ok(())
    }

    /// Applies `matrix` on `target` under the full control `path`
    /// (`path[q]` = required level of qudit `q`, for all `q < target`).
    fn apply(
        &mut self,
        state: &mut StateDd,
        cache: &mut ComputeCache,
        path: &[usize],
        target: usize,
        matrix: &CMatrix,
    ) -> Result<(), ArenaOverflow> {
        let tol = state.tolerance().value();
        // Keep the shared prefix open, close what diverges.
        let mut common = 0;
        while common < self.stack.len()
            && common < target
            && self.stack[common].branch == path[common]
        {
            common += 1;
        }
        while self.stack.len() > common {
            self.close_one(state)?;
        }
        // Open the remaining levels of this instruction's path.
        while self.stack.len() < target {
            let level = self.stack.len();
            let into = match self.stack.last() {
                Some(parent) => parent.edges[parent.branch],
                None => match state.root {
                    // A zero diagram: controlled gates act on nothing.
                    NodeRef::Terminal => return Ok(()),
                    NodeRef::Node(_) => Edge::new(Complex::ONE, state.root),
                },
            };
            if into.is_zero(tol) {
                // The controlled branch carries no amplitude — the whole
                // instruction is a no-op. Frames opened so far stay open
                // (they are on the instruction's valid prefix).
                return Ok(());
            }
            let id = into
                .target
                .id()
                .expect("diagram levels are dense above the terminal");
            let edges = state.arena.node(id).edges().to_vec();
            self.stack.push(Frame {
                branch: path[level],
                edges,
                up: into.weight,
            });
        }
        // With the path open, transform the target subtree in place.
        let sub = match self.stack.last() {
            Some(frame) => frame.edges[frame.branch],
            None => match state.root {
                // Uncontrolled instruction on a zero diagram.
                NodeRef::Terminal => return Ok(()),
                NodeRef::Node(_) => Edge::new(Complex::ONE, state.root),
            },
        };
        if sub.is_zero(tol) {
            return Ok(());
        }
        let id = sub
            .target
            .id()
            .expect("diagram levels are dense above the terminal");
        cache.begin_instruction();
        let transformed = {
            let mut ctx = ApplyCtx {
                arena: &mut state.arena,
                cache,
                tol,
                controls: &[],
                target,
                matrix,
            };
            ctx.rec(id, 0)?
        };
        let replaced = if transformed.is_zero(tol) {
            Edge::ZERO
        } else {
            Edge::new(sub.weight * transformed.weight, transformed.target)
        };
        match self.stack.last_mut() {
            Some(frame) => frame.edges[frame.branch] = replaced,
            None => {
                // target == 0: the transform rewrote the root node itself.
                if replaced.is_zero(tol) {
                    state.root = NodeRef::Terminal;
                    state.root_weight = Complex::ZERO;
                } else {
                    state.root = replaced.target;
                    let total = state.root_weight * replaced.weight;
                    state.root_weight = Complex::cis(total.arg());
                }
            }
        }
        Ok(())
    }
}

/// The recursive transform of one instruction, operating inside the
/// diagram's own arena.
struct ApplyCtx<'a> {
    arena: &'a mut DdArena,
    cache: &'a mut ComputeCache,
    tol: f64,
    /// Controls sorted by qudit (all above the target level).
    controls: &'a [(usize, usize)],
    target: usize,
    matrix: &'a CMatrix,
}

impl ApplyCtx<'_> {
    /// Weighted sum of subtree edges, all rooted at the same level,
    /// producing a normalized interned edge. Summing n-ary (instead of
    /// folding binary additions) never allocates intermediate partial-sum
    /// nodes, so the arena only ever holds nodes of the final diagram.
    fn sum_edges(&mut self, terms: Vec<Edge>) -> Result<Edge, ArenaOverflow> {
        let tol = self.tol;
        let mut terms: Vec<Edge> = terms.into_iter().filter(|e| !e.is_zero(tol)).collect();
        match terms.len() {
            0 => return Ok(Edge::ZERO),
            1 => return Ok(terms[0]),
            _ => {}
        }
        if terms[0].target.is_terminal() {
            // Below the last level only terminal targets occur.
            debug_assert!(terms.iter().all(|e| e.target.is_terminal()));
            let w = terms.iter().fold(Complex::ZERO, |acc, e| acc + e.weight);
            return Ok(if w.is_zero(tol) {
                Edge::ZERO
            } else {
                Edge::new(w, NodeRef::Terminal)
            });
        }
        // Memoize on the exact sorted term list (addition is commutative),
        // probing with the reused key buffer; the recursion below reuses it
        // too, so a miss keeps its own copy for the final insert.
        terms.sort_by_key(|e| (e.target, e.weight.re.to_bits(), e.weight.im.to_bits()));
        let key = &mut self.cache.sum_key;
        key.clear();
        key.extend(
            terms
                .iter()
                .map(|e| (e.weight.re.to_bits(), e.weight.im.to_bits(), e.target)),
        );
        if let Some(&done) = self.cache.sum.get(key.as_slice()) {
            return Ok(done);
        }
        let key = key.clone();
        let first = terms[0].target.id().expect("internal summands");
        let (level, d) = {
            let node = self.arena.node(first);
            (node.level(), node.dimension())
        };
        let mut edges = Vec::with_capacity(d);
        for k in 0..d {
            let mut sub = Vec::with_capacity(terms.len());
            for t in &terms {
                let id = t.target.id().expect("summands share the level");
                let e = self.arena.node(id).edges()[k];
                if !e.is_zero(tol) {
                    sub.push(Edge::new(t.weight * e.weight, e.target));
                }
            }
            edges.push(self.sum_edges(sub)?);
        }
        let out = self.arena.intern_normalized(level, edges)?;
        self.cache.sum.insert(key, out);
        Ok(out)
    }

    /// Transforms the subtree of `id` by the instruction, with `ctrl_idx`
    /// controls (sorted by qudit) still pending. Returns the normalized
    /// upward edge of the transformed subtree; untouched children are
    /// shared with the source by reference.
    fn rec(&mut self, id: NodeId, ctrl_idx: usize) -> Result<Edge, ArenaOverflow> {
        if let Some(&done) = self.cache.rec.get(&(id, ctrl_idx)) {
            return Ok(done);
        }
        let (level, src_edges) = {
            let node = self.arena.node(id);
            (node.level(), node.edges().to_vec())
        };

        let new = if level == self.target {
            // All controls consumed (they sit above the target).
            let d = src_edges.len();
            let mut edges = Vec::with_capacity(d);
            for j in 0..d {
                let mut terms = Vec::with_capacity(d);
                for (k, e) in src_edges.iter().enumerate() {
                    let coeff = self.matrix.get(j, k);
                    if coeff.is_zero(self.tol) || e.is_zero(self.tol) {
                        continue;
                    }
                    terms.push(Edge::new(coeff * e.weight, e.target));
                }
                edges.push(self.sum_edges(terms)?);
            }
            self.arena.intern_normalized(level, edges)?
        } else {
            let pending = self.controls.get(ctrl_idx).copied();
            let mut edges = Vec::with_capacity(src_edges.len());
            for (k, e) in src_edges.iter().enumerate() {
                if e.is_zero(self.tol) {
                    edges.push(Edge::ZERO);
                    continue;
                }
                let edge = match e.target {
                    // Cannot occur above the target level in a well-formed
                    // diagram; kept as an identity for robustness.
                    NodeRef::Terminal => *e,
                    NodeRef::Node(cid) => match pending {
                        Some((cq, cl)) if cq == level && k != cl => {
                            // Control not satisfied: the whole subtree is
                            // untouched and shared as-is.
                            *e
                        }
                        Some((cq, _)) if cq == level => {
                            let child = self.rec(cid, ctrl_idx + 1)?;
                            Edge::new(e.weight * child.weight, child.target)
                        }
                        _ => {
                            let child = self.rec(cid, ctrl_idx)?;
                            Edge::new(e.weight * child.weight, child.target)
                        }
                    },
                };
                edges.push(edge);
            }
            self.arena.intern_normalized(level, edges)?
        };
        self.cache.rec.insert((id, ctrl_idx), new);
        Ok(new)
    }
}

impl StateDd {
    /// The product ground state `|0…0⟩` as a diagram (one node per level).
    ///
    /// # Examples
    ///
    /// ```
    /// use mdq_dd::StateDd;
    /// use mdq_num::radix::Dims;
    ///
    /// let dims = Dims::new(vec![3, 6, 2])?;
    /// let dd = StateDd::ground(&dims);
    /// assert_eq!(dd.node_count(), 3);
    /// assert!((dd.amplitude(&[0, 0, 0]).abs() - 1.0).abs() < 1e-12);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn ground(dims: &Dims) -> StateDd {
        Self::ground_in(dims, DdArena::new(Tolerance::default()))
    }

    /// [`StateDd::ground`] built into a caller-provided (reset) arena, so
    /// repeated replays — e.g. verification jobs on a long-lived worker —
    /// reuse one grown node store instead of allocating per replay.
    #[must_use]
    pub fn ground_in(dims: &Dims, mut arena: DdArena) -> StateDd {
        let mut below = NodeRef::Terminal;
        for level in (0..dims.len()).rev() {
            let mut edges = vec![Edge::ZERO; dims.dim(level)];
            edges[0] = Edge::new(Complex::ONE, below);
            below = arena
                .intern(level, edges)
                .expect("ground diagram has one node per level");
        }
        StateDd::from_parts(dims.clone(), arena, below, Complex::ONE, true)
    }

    /// Applies one circuit instruction to the diagram, returning the new
    /// diagram (decision-diagram simulation, cf. reference \[12\]).
    ///
    /// All control qudits must be more significant than the target (which
    /// holds for every instruction the synthesizer emits); see
    /// [`ApplyError::ControlNotAboveTarget`]. The result shares every
    /// untouched subtree with `self` structurally and is canonical.
    ///
    /// # Errors
    ///
    /// Returns [`ApplyError`] for out-of-range targets, below-target
    /// controls, out-of-range control levels, or arena exhaustion.
    pub fn apply(&self, instruction: &mdq_circuit::Instruction) -> Result<StateDd, ApplyError> {
        let mut out = self.clone();
        let mut cache = ComputeCache::new();
        out.apply_mut_with(instruction, &mut cache)?;
        Ok(out.compacted())
    }

    /// Applies one instruction in place, interning the transformed nodes
    /// into the diagram's own arena.
    ///
    /// Repeated in-place applications accumulate superseded nodes in the
    /// arena (they are dropped by the next compaction); prefer
    /// [`StateDd::apply_circuit`] for whole circuits, which compacts
    /// automatically.
    ///
    /// # Errors
    ///
    /// Returns [`ApplyError`] as [`StateDd::apply`] does; on error the
    /// represented state is unchanged.
    pub fn apply_mut(&mut self, instruction: &mdq_circuit::Instruction) -> Result<(), ApplyError> {
        let mut cache = ComputeCache::new();
        self.apply_mut_with(instruction, &mut cache)
    }

    /// [`StateDd::apply_mut`] with a caller-provided [`ComputeCache`], so a
    /// sequence of in-place applications can reuse one set of memo tables —
    /// the cache is cleared (capacity retained) at the start of every call.
    ///
    /// # Errors
    ///
    /// Returns [`ApplyError`] as [`StateDd::apply`] does; on error the
    /// represented state is unchanged.
    pub fn apply_mut_with(
        &mut self,
        instruction: &mdq_circuit::Instruction,
        cache: &mut ComputeCache,
    ) -> Result<(), ApplyError> {
        let target = instruction.qudit;
        if target >= self.dims.len() {
            return Err(ApplyError::TargetOutOfRange { qudit: target });
        }
        let matrix = instruction.gate.matrix(self.dims.dim(target));
        self.apply_matrix_mut_with(target, &instruction.controls, &matrix, cache, false)
    }

    /// Applies an arbitrary `d×d` unitary on `target` under `controls`, in
    /// place — the shared engine behind [`StateDd::apply_mut_with`] and the
    /// gate-fused [`StateDd::apply_circuit_with`] replay path.
    fn apply_matrix_mut_with(
        &mut self,
        target: usize,
        instruction_controls: &[mdq_circuit::Control],
        matrix: &CMatrix,
        cache: &mut ComputeCache,
        keep_sums: bool,
    ) -> Result<(), ApplyError> {
        if target >= self.dims.len() {
            return Err(ApplyError::TargetOutOfRange { qudit: target });
        }
        let mut controls: Vec<(usize, usize)> = Vec::with_capacity(instruction_controls.len());
        for c in instruction_controls {
            if c.qudit >= target {
                return Err(ApplyError::ControlNotAboveTarget {
                    control: c.qudit,
                    target,
                });
            }
            let dim = self.dims.dim(c.qudit);
            if c.level >= dim {
                return Err(ApplyError::ControlLevelOutOfRange {
                    level: c.level,
                    dim,
                });
            }
            controls.push((c.qudit, c.level));
        }
        controls.sort_unstable();
        let tol = self.tolerance().value();

        // Identity fast path: paper-faithful synthesis keeps zero-angle
        // rotations (they carry Table-1 operation counts), and structured
        // states make them the majority of a circuit. Applying an exact
        // identity is a structural no-op on a canonical diagram, so skip
        // the whole recursion — this is what keeps replay verification
        // within the same order as the pipeline itself.
        if is_identity(matrix) {
            return Ok(());
        }

        if keep_sums {
            cache.begin_instruction();
        } else {
            cache.begin_op();
        }
        let root_edge = match self.root {
            NodeRef::Terminal => Edge::ZERO,
            NodeRef::Node(id) => {
                let mut ctx = ApplyCtx {
                    arena: &mut self.arena,
                    cache,
                    tol,
                    controls: &controls,
                    target,
                    matrix,
                };
                ctx.rec(id, 0)?
            }
        };
        if root_edge.is_zero(tol) {
            self.root = NodeRef::Terminal;
            self.root_weight = Complex::ZERO;
        } else {
            self.root = root_edge.target;
            // Unitary gates preserve the norm; keep only the phase.
            let total = self.root_weight * root_edge.weight;
            self.root_weight = Complex::cis(total.arg());
        }
        // The canonicity flag is preserved, not promoted: on a tree input
        // the control-unsatisfied branches share the tree's unshared
        // duplicate subtrees by reference, so the result only becomes
        // canonical once `compacted()` re-interns everything (which both
        // `apply` and `apply_circuit` do).
        Ok(())
    }

    /// Applies a whole circuit to the diagram (see [`StateDd::apply`]),
    /// threading one arena and one compute cache through every instruction
    /// and compacting the node store when it grows past twice the live
    /// size — one pipeline run, one arena.
    ///
    /// # Errors
    ///
    /// Returns the first [`ApplyError`]; the circuit's register must match
    /// the diagram's.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is defined over a different register.
    pub fn apply_circuit(&self, circuit: &mdq_circuit::Circuit) -> Result<StateDd, ApplyError> {
        let mut cache = ComputeCache::new();
        self.apply_circuit_with(circuit, &mut cache)
    }

    /// [`StateDd::apply_circuit`] with a caller-provided [`ComputeCache`],
    /// so a worker replaying many circuits (e.g. verification jobs in the
    /// engine service) reuses one set of memo tables across all of them.
    ///
    /// # Errors
    ///
    /// Returns the first [`ApplyError`]; the circuit's register must match
    /// the diagram's.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is defined over a different register.
    pub fn apply_circuit_with(
        &self,
        circuit: &mdq_circuit::Circuit,
        cache: &mut ComputeCache,
    ) -> Result<StateDd, ApplyError> {
        Ok(self
            .clone()
            .apply_circuit_consuming(circuit, cache)?
            .compacted())
    }

    /// The zero-copy core of [`StateDd::apply_circuit_with`]: consumes the
    /// diagram (no arena clone) and skips the final compaction, so the
    /// result's arena may still hold superseded nodes — queries
    /// ([`StateDd::amplitude`], [`StateDd::to_amplitudes`],
    /// [`StateDd::live_node_count`]) are unaffected, but
    /// [`StateDd::node_count`] counts the garbage too. This is the replay
    /// path of verification workers, which evaluate the result once and
    /// then recycle the arena.
    ///
    /// # Errors
    ///
    /// Returns the first [`ApplyError`]; the circuit's register must match
    /// the diagram's.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is defined over a different register.
    pub fn apply_circuit_consuming(
        self,
        circuit: &mdq_circuit::Circuit,
        cache: &mut ComputeCache,
    ) -> Result<StateDd, ApplyError> {
        assert_eq!(
            circuit.dims(),
            &self.dims,
            "circuit register differs from diagram register"
        );
        let mut state = self;
        let mut live = state.arena.len().max(64);
        // The synthesizer emits *runs* of instructions sharing one target
        // and one control set (each diagram node contributes d−1 Givens
        // plus a phase rotation under the same path context). Fuse each
        // run into a single d×d product matrix and apply it once: one
        // diagram traversal instead of d, and zero-angle rotations vanish
        // into the (skipped) identity. Mathematically exact — products of
        // equally-controlled unitaries are the controlled product.
        let instructions: Vec<&mdq_circuit::Instruction> = circuit.iter().collect();
        // One arena for the whole run: the weighted-sum memo stays valid
        // across instructions (see `ComputeCache::begin_instruction`) and
        // is flushed only when compaction replaces the arena.
        cache.begin_op();
        // Consecutive contexts additionally share control-path *prefixes*
        // (synthesis emits them in DFS order), so the path from the root
        // to each target is kept "open" in a frame stack and every path
        // node is re-interned once per context *switch* instead of once
        // per instruction — see `PathEditor`.
        let mut editor = PathEditor::default();
        let mut i = 0;
        while i < instructions.len() {
            let head = instructions[i];
            let target = head.qudit;
            if target >= state.dims.len() {
                return Err(ApplyError::TargetOutOfRange { qudit: target });
            }
            let d = state.dims.dim(target);
            let mut matrix = head.gate.matrix(d);
            let mut j = i + 1;
            while j < instructions.len()
                && instructions[j].qudit == target
                && instructions[j].controls == head.controls
            {
                // Later gates act after earlier ones: U = U_j · … · U_i.
                matrix = &instructions[j].gate.matrix(d) * &matrix;
                j += 1;
            }
            i = j;
            // Control validation must precede the identity skip, so a
            // malformed instruction fails here exactly as it would on the
            // per-instruction path, zero-angle or not.
            let path = full_control_path(&state.dims, target, &head.controls)?;
            if is_identity(&matrix) {
                continue;
            }
            if let Some(path) = path {
                editor.apply(&mut state, cache, &path, target, &matrix)?;
            } else {
                // Sparse control sets (e.g. circuits from reduced diagrams
                // with elided controls) fall back to the generic per-op
                // application, which requires a closed diagram.
                editor.close_all(&mut state)?;
                state.apply_matrix_mut_with(target, &head.controls, &matrix, cache, true)?;
            }
            if state.arena.len() > 2 * live + 1024 {
                // Compaction rebuilds the arena: close the editor (its
                // frames hold node ids) and flush the sum memo.
                editor.close_all(&mut state)?;
                state = state.compacted();
                live = state.arena.len().max(64);
                cache.begin_op();
            }
        }
        editor.close_all(&mut state)?;
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BuildOptions;
    use mdq_circuit::{Circuit, Control, Gate, Instruction};

    fn dims(v: &[usize]) -> Dims {
        Dims::new(v.to_vec()).unwrap()
    }

    #[test]
    fn ground_state_diagram() {
        let d = dims(&[3, 2]);
        let dd = StateDd::ground(&d);
        assert!((dd.amplitude(&[0, 0]).abs() - 1.0).abs() < 1e-12);
        assert!(dd.amplitude(&[2, 1]).is_zero(1e-12));
        assert_eq!(dd.node_count(), 2);
        assert!(dd.is_canonical());
    }

    #[test]
    fn fourier_on_ground_gives_uniform_qudit() {
        let d = dims(&[3]);
        let dd = StateDd::ground(&d)
            .apply(&Instruction::local(0, Gate::fourier()))
            .unwrap();
        let a = 1.0 / 3.0_f64.sqrt();
        for k in 0..3 {
            assert!((dd.amplitude(&[k]).abs() - a).abs() < 1e-12);
        }
    }

    #[test]
    fn ghz_circuit_on_diagram_matches_dense_simulation() {
        let d = dims(&[3, 3]);
        let mut c = Circuit::new(d.clone());
        c.push(Instruction::local(0, Gate::fourier())).unwrap();
        c.push(Instruction::controlled(
            1,
            Gate::shift(1),
            vec![Control::new(0, 1)],
        ))
        .unwrap();
        c.push(Instruction::controlled(
            1,
            Gate::shift(2),
            vec![Control::new(0, 2)],
        ))
        .unwrap();
        let dd = StateDd::ground(&d).apply_circuit(&c).unwrap();
        for k in 0..3 {
            assert!(
                (dd.amplitude(&[k, k]).norm_sqr() - 1.0 / 3.0).abs() < 1e-12,
                "component {k}"
            );
        }
        assert!(dd.amplitude(&[0, 1]).is_zero(1e-12));
    }

    #[test]
    fn apply_matches_dense_vector_on_random_states() {
        let d = dims(&[3, 2, 4]);
        let n = d.space_size();
        let amps: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.7).sin() + 0.3, (i as f64 * 0.4).cos()))
            .collect();
        let norm = mdq_num::norm(&amps);
        let amps: Vec<Complex> = amps.into_iter().map(|a| a / norm).collect();
        let dd = StateDd::from_amplitudes(&d, &amps, BuildOptions::default()).unwrap();

        let instructions = [
            Instruction::local(1, Gate::givens(0, 1, 1.1, -0.4)),
            Instruction::controlled(2, Gate::givens(1, 3, 0.6, 0.2), vec![Control::new(0, 1)]),
            Instruction::controlled(
                2,
                Gate::z_rotation(0, 2, 0.9),
                vec![Control::new(0, 2), Control::new(1, 1)],
            ),
            Instruction::local(0, Gate::fourier()),
            Instruction::local(2, Gate::shift(3)),
        ];
        let mut expect = amps;
        let mut state = dd;
        for instr in &instructions {
            state = state.apply(instr).unwrap();
            // Dense reference: apply the full matrix manually.
            expect = dense_apply(&d, &expect, instr);
            let got = state.to_amplitudes();
            let f = mdq_num::fidelity(&got, &expect);
            assert!((f - 1.0).abs() < 1e-9, "fidelity {f} after {instr}");
        }
    }

    /// Minimal dense reference implementation for the test above.
    fn dense_apply(d: &Dims, amps: &[Complex], instr: &Instruction) -> Vec<Complex> {
        let target = instr.qudit;
        let dt = d.dim(target);
        let strides = d.strides();
        let m = instr.gate.matrix(dt);
        let mut out = amps.to_vec();
        for base in 0..amps.len() {
            if !(base / strides[target]).is_multiple_of(dt) {
                continue;
            }
            if !instr
                .controls
                .iter()
                .all(|c| (base / strides[c.qudit]) % d.dim(c.qudit) == c.level)
            {
                continue;
            }
            let fiber: Vec<Complex> = (0..dt).map(|k| amps[base + k * strides[target]]).collect();
            let new = m.mul_vec(&fiber);
            for (k, v) in new.into_iter().enumerate() {
                out[base + k * strides[target]] = v;
            }
        }
        out
    }

    #[test]
    fn apply_mut_matches_apply() {
        let d = dims(&[3, 3]);
        let mut state = StateDd::ground(&d);
        let fresh = state
            .apply(&Instruction::local(0, Gate::fourier()))
            .unwrap();
        state
            .apply_mut(&Instruction::local(0, Gate::fourier()))
            .unwrap();
        assert!((state.fidelity(&fresh) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn apply_shares_untouched_subtrees_in_one_arena() {
        // A local gate on the most significant qudit must not rebuild the
        // lower levels: the result reuses them in the same arena, so the
        // compacted node count stays minimal.
        let d = dims(&[3, 3, 3]);
        let mut c = Circuit::new(d.clone());
        c.push(Instruction::local(0, Gate::fourier())).unwrap();
        let state = StateDd::ground(&d).apply_circuit(&c).unwrap();
        // Uniform ⊗ |0⟩ ⊗ |0⟩: three nodes, one per level.
        assert_eq!(state.node_count(), 3);
        assert!(state.is_canonical());
        assert!(state.check_canonical());
    }

    #[test]
    fn apply_mut_on_tree_does_not_claim_canonicity() {
        // A control-unsatisfied branch shares the tree's unshared duplicate
        // subtrees by reference, so the in-place result must keep the
        // non-canonical flag (reduce() then performs a real merge); the
        // compacting apply() re-interns everything and is canonical.
        let d = dims(&[3, 2]);
        let a = Complex::real(1.0 / 6.0_f64.sqrt());
        let tree = StateDd::from_amplitudes(
            &d,
            &[a; 6],
            BuildOptions::default().keep_zero_subtrees(true),
        )
        .unwrap();
        let instr = Instruction::controlled(1, Gate::fourier(), vec![Control::new(0, 2)]);
        let mut in_place = tree.clone();
        in_place.apply_mut(&instr).unwrap();
        assert!(!in_place.is_canonical());
        let reduced = in_place.reduce();
        assert!(reduced.is_canonical());
        let compacting = tree.apply(&instr).unwrap();
        assert!(compacting.is_canonical());
        assert!(compacting.check_canonical());
        assert!((in_place.fidelity(&compacting) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn apply_rejects_below_target_controls() {
        let d = dims(&[2, 2]);
        let dd = StateDd::ground(&d);
        let err = dd
            .apply(&Instruction::controlled(
                0,
                Gate::shift(1),
                vec![Control::new(1, 1)],
            ))
            .unwrap_err();
        assert_eq!(
            err,
            ApplyError::ControlNotAboveTarget {
                control: 1,
                target: 0
            }
        );
    }

    #[test]
    fn apply_rejects_bad_target_and_levels() {
        let d = dims(&[2, 3]);
        let dd = StateDd::ground(&d);
        assert_eq!(
            dd.apply(&Instruction::local(5, Gate::shift(1)))
                .unwrap_err(),
            ApplyError::TargetOutOfRange { qudit: 5 }
        );
        assert_eq!(
            dd.apply(&Instruction::controlled(
                1,
                Gate::shift(1),
                vec![Control::new(0, 2)]
            ))
            .unwrap_err(),
            ApplyError::ControlLevelOutOfRange { level: 2, dim: 2 }
        );
    }

    #[test]
    fn apply_surfaces_arena_overflow() {
        let d = dims(&[2, 2]);
        let a = Complex::real(0.5);
        // 3 nodes fit exactly; applying a Fourier gate needs to intern new
        // nodes beyond the cap.
        let dd =
            StateDd::from_amplitudes(&d, &[a, a, a, -a], BuildOptions::default().node_limit(3))
                .unwrap();
        assert_eq!(dd.node_count(), 3);
        let err = dd
            .apply(&Instruction::local(1, Gate::fourier()))
            .unwrap_err();
        assert!(matches!(err, ApplyError::ArenaOverflow { limit: 3 }));
    }

    #[test]
    fn applied_diagrams_stay_normalized() {
        let d = dims(&[4, 3]);
        let mut state = StateDd::ground(&d);
        for instr in [
            Instruction::local(0, Gate::fourier()),
            Instruction::controlled(1, Gate::givens(0, 2, 0.7, 0.1), vec![Control::new(0, 3)]),
            Instruction::local(1, Gate::shift(2)),
        ] {
            state = state.apply(&instr).unwrap();
            for node in state.nodes() {
                let s: f64 = node.edges().iter().map(|e| e.weight.norm_sqr()).sum();
                assert!((s - 1.0).abs() < 1e-9, "node norm {s} after {instr}");
            }
            assert!((state.root().0.abs() - 1.0).abs() < 1e-9);
        }
    }

    /// A synthesized-shape circuit: full control paths, DFS context order,
    /// zero-angle (identity) rotations mixed in — the shape the fused
    /// path editor of `apply_circuit_with` is built for.
    fn synthesized_shape_circuit(d: &Dims) -> Circuit {
        let mut c = Circuit::new(d.clone());
        c.push(Instruction::local(0, Gate::givens(0, 1, 0.7, 0.3)))
            .unwrap();
        c.push(Instruction::local(0, Gate::z_rotation(0, 1, 0.4)))
            .unwrap();
        for l0 in 0..d.dim(0) {
            // A zero-angle rotation (identity) in every context.
            c.push(Instruction::controlled(
                1,
                Gate::givens(0, 1, 0.0, -std::f64::consts::FRAC_PI_2),
                vec![Control::new(0, l0)],
            ))
            .unwrap();
            c.push(Instruction::controlled(
                1,
                Gate::givens(1, 2, 0.5 + 0.2 * l0 as f64, 0.1),
                vec![Control::new(0, l0)],
            ))
            .unwrap();
            for l1 in 0..2 {
                c.push(Instruction::controlled(
                    2,
                    Gate::givens(0, 1, 0.3 * (1 + l1) as f64, -0.2),
                    vec![Control::new(0, l0), Control::new(1, l1)],
                ))
                .unwrap();
            }
        }
        c
    }

    #[test]
    fn fused_circuit_application_matches_per_instruction() {
        let d = dims(&[3, 3, 2]);
        let c = synthesized_shape_circuit(&d);
        // Reference: strictly per-instruction application.
        let mut reference = StateDd::ground(&d);
        for instr in c.iter() {
            reference = reference.apply(instr).unwrap();
        }
        // Fused + path-edited whole-circuit application.
        let fused = StateDd::ground(&d).apply_circuit(&c).unwrap();
        assert!(
            (fused.fidelity(&reference) - 1.0).abs() < 1e-9,
            "fidelity {}",
            fused.fidelity(&reference)
        );
        assert!(fused.is_canonical());
        assert!(fused.check_canonical());
    }

    #[test]
    fn mixed_full_and_sparse_control_paths_agree() {
        // Interleave full-path ops (path-editor fast path) with ops whose
        // control set skips a level (generic fallback): the editor must
        // close cleanly between them.
        let d = dims(&[3, 2, 3]);
        let mut c = Circuit::new(d.clone());
        c.push(Instruction::local(0, Gate::fourier())).unwrap();
        c.push(Instruction::controlled(
            1,
            Gate::givens(0, 1, 0.8, 0.0),
            vec![Control::new(0, 1)],
        ))
        .unwrap();
        // Sparse controls: qudit 1 is skipped.
        c.push(Instruction::controlled(
            2,
            Gate::shift(1),
            vec![Control::new(0, 1)],
        ))
        .unwrap();
        c.push(Instruction::controlled(
            2,
            Gate::givens(1, 2, 0.4, 0.2),
            vec![Control::new(0, 2), Control::new(1, 1)],
        ))
        .unwrap();
        let mut reference = StateDd::ground(&d);
        for instr in c.iter() {
            reference = reference.apply(instr).unwrap();
        }
        let fused = StateDd::ground(&d).apply_circuit(&c).unwrap();
        assert!((fused.fidelity(&reference) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn consuming_application_matches_compacted_result() {
        let d = dims(&[3, 3, 2]);
        let c = synthesized_shape_circuit(&d);
        let compacted = StateDd::ground(&d).apply_circuit(&c).unwrap();
        let mut cache = ComputeCache::new();
        let raw = StateDd::ground(&d)
            .apply_circuit_consuming(&c, &mut cache)
            .unwrap();
        // Same state, and the live node count agrees with the compacted
        // diagram even though the raw arena may hold superseded nodes.
        assert!((raw.fidelity(&compacted) - 1.0).abs() < 1e-12);
        assert_eq!(raw.live_node_count(), compacted.node_count());
        assert!(raw.node_count() >= raw.live_node_count());
    }

    #[test]
    fn identity_instructions_still_validate_their_controls() {
        // The identity fast path must not skip validation: a zero-angle
        // gate with a below-target control fails whole-circuit application
        // exactly as it fails the per-instruction path.
        let d = dims(&[2, 2]);
        let bad =
            Instruction::controlled(0, Gate::givens(0, 1, 0.0, 0.0), vec![Control::new(1, 1)]);
        let mut c = Circuit::new(d.clone());
        c.push(bad.clone()).unwrap();
        let per_instruction = StateDd::ground(&d).apply(&bad).unwrap_err();
        let whole_circuit = StateDd::ground(&d).apply_circuit(&c).unwrap_err();
        assert_eq!(per_instruction, whole_circuit);
        assert!(matches!(
            whole_circuit,
            ApplyError::ControlNotAboveTarget {
                control: 1,
                target: 0
            }
        ));
    }

    #[test]
    fn identity_only_circuits_leave_the_state_untouched() {
        let d = dims(&[3, 2]);
        let mut c = Circuit::new(d.clone());
        c.push(Instruction::local(0, Gate::givens(0, 1, 0.0, 0.0)))
            .unwrap();
        c.push(Instruction::controlled(
            1,
            Gate::z_rotation(0, 1, 0.0),
            vec![Control::new(0, 1)],
        ))
        .unwrap();
        let a = Complex::real(1.0 / 6.0_f64.sqrt());
        let dd = StateDd::from_amplitudes(&d, &[a; 6], BuildOptions::default()).unwrap();
        let out = dd.apply_circuit(&c).unwrap();
        assert_eq!(out.node_count(), dd.node_count());
        assert!((out.fidelity(&dd) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn diagram_simulation_scales_to_large_ghz() {
        // 16 qutrits: 43 million amplitudes; the diagram never exceeds a few
        // dozen nodes while the GHZ-style circuit runs.
        let n = 16;
        let d = Dims::uniform(n, 3).unwrap();
        let mut c = Circuit::new(d.clone());
        c.push(Instruction::local(0, Gate::fourier())).unwrap();
        for q in 1..n {
            // Chain the correlation down the register.
            c.push(Instruction::controlled(
                q,
                Gate::shift(1),
                vec![Control::new(q - 1, 1)],
            ))
            .unwrap();
            c.push(Instruction::controlled(
                q,
                Gate::shift(2),
                vec![Control::new(q - 1, 2)],
            ))
            .unwrap();
        }
        let state = StateDd::ground(&d).apply_circuit(&c).unwrap();
        assert!(state.node_count() <= 3 * n);
        let a = 1.0 / 3.0_f64.sqrt();
        for k in 0..3 {
            let digits = vec![k; n];
            assert!((state.amplitude(&digits).abs() - a).abs() < 1e-9);
        }
    }
}
