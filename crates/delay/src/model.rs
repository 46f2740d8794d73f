//! The delay-model abstraction and the linear (Elmore-family) model.
//!
//! The paper requires each vertex delay to be a *simple monotonic
//! functional* of the sizes (Definition 1). The workhorse realization is
//! [`LinearDelayModel`]:
//!
//! ```text
//! delay(i) = p_i + (b_i + Σ_j a_ij · x_j) / x_i          (Eq. 4 rearranged)
//! ```
//!
//! with all coefficients non-negative. `p_i` collects size-independent
//! intrinsic terms (e.g. the `3·A·B` constant of Eq. (3)); `b_i` collects
//! fixed wire and output loads; `a_ij` couples vertex `i` to the sizes of
//! its electrical neighbourhood `S(V(G))` (same-stack junctions and fanout
//! gate capacitance). In matrix form `((D − P) − A)·X = B`, the (block)
//! upper-triangular system of §2.3.

use crate::error::DelayError;
use mft_circuit::VertexId;

/// Reusable epoch-stamped scratch for [`DelayModel::delays_diff`].
///
/// Marks vertices without clearing between calls: each call bumps an
/// epoch and a vertex is "marked" iff its stamp equals the current
/// epoch. Hot loops keep one of these alive across every diff so the
/// batch entry point stays allocation-free after warmup.
#[derive(Debug, Clone, Default)]
pub struct DiffScratch {
    stamp: Vec<u32>,
    epoch: u32,
}

impl DiffScratch {
    /// Creates an empty scratch; it grows lazily to the model size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new marking epoch over `n` vertices.
    pub(crate) fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // One clear every 2^32 epochs keeps stale stamps impossible.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    /// Marks vertex `i`; returns `true` the first time this epoch.
    pub(crate) fn mark(&mut self, i: usize) -> bool {
        if self.stamp[i] == self.epoch {
            false
        } else {
            self.stamp[i] = self.epoch;
            true
        }
    }
}

/// Debug-only contract check: `affected` must be sorted ascending with
/// no duplicates — both timing backends rely on it silently.
#[inline]
fn debug_assert_sorted_dedup(affected: &[VertexId]) {
    debug_assert!(
        affected.windows(2).all(|w| w[0].index() < w[1].index()),
        "affected set must be sorted and deduplicated"
    );
}

/// A sizing-dependent vertex delay model.
///
/// Implementations must guarantee that each vertex delay is monotone
/// *decreasing* in the vertex's own size and monotone *increasing* in every
/// other size it depends on (the simple monotonic functional property), and
/// strictly positive for positive sizes.
pub trait DelayModel {
    /// Number of sizing variables / DAG vertices.
    fn num_vertices(&self) -> usize;

    /// Global size bounds `(min_size, max_size)`.
    fn size_bounds(&self) -> (f64, f64);

    /// The size-independent intrinsic delay `p_i`.
    fn intrinsic(&self, v: VertexId) -> f64;

    /// Vertices whose sizes appear in `v`'s delay — the paper's `S(V(G))`.
    fn load_deps(&self, v: VertexId) -> &[VertexId];

    /// Vertices whose delay depends on `v`'s size (transpose of
    /// [`DelayModel::load_deps`]).
    fn dependents(&self, v: VertexId) -> &[VertexId];

    /// Delay of vertex `v` under the given sizes.
    fn delay(&self, v: VertexId, sizes: &[f64]) -> f64;

    /// Delays of all vertices.
    fn delays(&self, sizes: &[f64]) -> Vec<f64> {
        (0..self.num_vertices())
            .map(|i| self.delay(VertexId::new(i), sizes))
            .collect()
    }

    /// Scoped update after the sizes in `changed` moved: recomputes into
    /// `delays` exactly the vertex delays that can depend on any of them
    /// — the changed vertices plus their [`DelayModel::dependents`] —
    /// and records that union in `affected` (cleared first), the
    /// initial worklist for an incremental timing engine
    /// ([`mft_sta::IncrementalTiming`](https://docs.rs/mft-sta)), which
    /// relies on it coming back sorted ascending and deduplicated. A
    /// TILOS bump is the one-vertex case. Models whose delay functionals
    /// have wider coupling than [`DelayModel::dependents`] must override
    /// this to match.
    ///
    /// Each affected delay is recomputed with the *same expression* as
    /// [`DelayModel::delay`], so the result is bitwise identical to a
    /// full [`DelayModel::delays`] pass whenever `delays` was on entry
    /// (entries outside the affected set cannot depend on the changed
    /// sizes and are left untouched).
    ///
    /// `scratch` provides the dedup marks; callers keep one
    /// [`DiffScratch`] alive across calls so the whole diff is
    /// allocation-free after warmup. `changed` may be unsorted and may
    /// contain duplicates.
    fn delays_diff(
        &self,
        changed: &[VertexId],
        sizes: &[f64],
        delays: &mut [f64],
        affected: &mut Vec<VertexId>,
        scratch: &mut DiffScratch,
    ) {
        affected.clear();
        scratch.begin(self.num_vertices());
        for &v in changed {
            if scratch.mark(v.index()) {
                affected.push(v);
            }
            for &u in self.dependents(v) {
                if scratch.mark(u.index()) {
                    affected.push(u);
                }
            }
        }
        affected.sort_unstable_by_key(|u| u.index());
        for &u in affected.iter() {
            delays[u.index()] = self.delay(u, sizes);
        }
        debug_assert_sorted_dedup(affected);
    }

    /// The smallest size of `v` that achieves `delay(v) ≤ budget` with the
    /// other sizes fixed. Returns `f64::INFINITY` when no finite size
    /// suffices (budget at or below the intrinsic delay).
    fn required_size(&self, v: VertexId, budget: f64, sizes: &[f64]) -> f64;

    /// Area weight of vertex `v` (e.g. transistor count of the owning gate
    /// in gate-sizing mode); total area is `Σ weight_i · x_i`.
    fn area_weight(&self, v: VertexId) -> f64;

    /// Total device area of a sizing.
    fn area(&self, sizes: &[f64]) -> f64 {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &x)| self.area_weight(VertexId::new(i)) * x)
            .sum()
    }

    /// First-order area sensitivities `C_i > 0` such that a delay-budget
    /// perturbation `ΔD` changes total area by `−Σ_i C_i · ΔD_i`
    /// (the objective coefficients of the paper's D-phase, §2.3.1).
    fn area_sensitivities(&self, sizes: &[f64]) -> Vec<f64>;
}

/// The linear simple-monotonic delay model (Elmore family).
///
/// Stored as a compressed-sparse-row coefficient table plus its transpose,
/// and a block ordering used to solve the transposed sensitivity system
/// `(D' − A)ᵀ u = w` exactly: for gate sizing the system is upper
/// triangular (singleton blocks in topological order); for transistor
/// sizing it is *block* upper triangular with one small dense block per
/// gate, as stated (without proof) in the paper.
#[derive(Debug, Clone)]
pub struct LinearDelayModel {
    pub(crate) intrinsic: Vec<f64>,
    pub(crate) fixed: Vec<f64>,
    // Forward CSR: coefficients a_ij of vertex i's delay.
    pub(crate) term_off: Vec<u32>,
    pub(crate) term_vertex: Vec<VertexId>,
    pub(crate) term_coeff: Vec<f64>,
    // Transposed CSR: for vertex i, pairs (j, a_ji) over dependents j.
    pub(crate) dep_off: Vec<u32>,
    pub(crate) dep_vertex: Vec<VertexId>,
    pub(crate) dep_coeff: Vec<f64>,
    pub(crate) area_weights: Vec<f64>,
    pub(crate) min_size: f64,
    pub(crate) max_size: f64,
    /// Blocks of mutually coupled vertices in dependency-topological order.
    pub(crate) blocks: Vec<Vec<u32>>,
}

/// Raw per-vertex coefficients used by [`LinearDelayModel::from_parts`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VertexCoefficients {
    /// Intrinsic delay `p_i ≥ 0`.
    pub intrinsic: f64,
    /// Fixed load term `b_i ≥ 0`.
    pub fixed: f64,
    /// Coupling terms `(j, a_ij)` with `a_ij ≥ 0`.
    pub terms: Vec<(VertexId, f64)>,
    /// Area weight of the vertex (must be positive).
    pub area_weight: f64,
}

impl LinearDelayModel {
    /// Builds a model from raw per-vertex coefficients.
    ///
    /// `blocks` lists groups of mutually coupled vertices in an order such
    /// that every coefficient `a_ji` with `j` outside vertex `i`'s block
    /// refers to a block processed *before* `i`'s (pass singletons in
    /// topological order for DAG-structured couplings). Every vertex must
    /// appear in exactly one block.
    ///
    /// # Errors
    ///
    /// Returns [`DelayError::NegativeCoefficient`] for negative
    /// coefficients and [`DelayError::ShapeMismatch`] for malformed blocks.
    pub fn from_parts(
        coefficients: Vec<VertexCoefficients>,
        blocks: Vec<Vec<u32>>,
        min_size: f64,
        max_size: f64,
    ) -> Result<Self, DelayError> {
        let n = coefficients.len();
        let mut seen = vec![false; n];
        for block in &blocks {
            for &v in block {
                let v = v as usize;
                if v >= n || seen[v] {
                    return Err(DelayError::ShapeMismatch {
                        what: "blocks must partition the vertex set",
                    });
                }
                seen[v] = true;
            }
        }
        if seen.iter().any(|s| !s) {
            return Err(DelayError::ShapeMismatch {
                what: "blocks must cover every vertex",
            });
        }
        let mut intrinsic = Vec::with_capacity(n);
        let mut fixed = Vec::with_capacity(n);
        let mut area_weights = Vec::with_capacity(n);
        let mut term_off = vec![0u32; n + 1];
        let mut term_vertex = Vec::new();
        let mut term_coeff = Vec::new();
        for (i, c) in coefficients.iter().enumerate() {
            if c.intrinsic < 0.0 {
                return Err(DelayError::NegativeCoefficient {
                    what: "intrinsic delay",
                    value: c.intrinsic,
                });
            }
            if c.fixed < 0.0 {
                return Err(DelayError::NegativeCoefficient {
                    what: "fixed load",
                    value: c.fixed,
                });
            }
            if c.area_weight <= 0.0 {
                return Err(DelayError::NegativeCoefficient {
                    what: "area weight",
                    value: c.area_weight,
                });
            }
            intrinsic.push(c.intrinsic);
            fixed.push(c.fixed);
            area_weights.push(c.area_weight);
            for &(j, a) in &c.terms {
                if a < 0.0 {
                    return Err(DelayError::NegativeCoefficient {
                        what: "coupling term",
                        value: a,
                    });
                }
                if j.index() >= n {
                    return Err(DelayError::ShapeMismatch {
                        what: "coupling term references unknown vertex",
                    });
                }
                term_vertex.push(j);
                term_coeff.push(a);
            }
            term_off[i + 1] = term_vertex.len() as u32;
        }
        // Transpose.
        let mut dep_count = vec![0u32; n];
        for &j in &term_vertex {
            dep_count[j.index()] += 1;
        }
        let mut dep_off = vec![0u32; n + 1];
        for i in 0..n {
            dep_off[i + 1] = dep_off[i] + dep_count[i];
        }
        let mut dep_vertex = vec![VertexId::new(0); term_vertex.len()];
        let mut dep_coeff = vec![0.0f64; term_vertex.len()];
        let mut cursor = dep_off.clone();
        for i in 0..n {
            for t in term_off[i] as usize..term_off[i + 1] as usize {
                let j = term_vertex[t].index();
                let slot = cursor[j] as usize;
                dep_vertex[slot] = VertexId::new(i);
                dep_coeff[slot] = term_coeff[t];
                cursor[j] += 1;
            }
        }
        Ok(LinearDelayModel {
            intrinsic,
            fixed,
            term_off,
            term_vertex,
            term_coeff,
            dep_off,
            dep_vertex,
            dep_coeff,
            area_weights,
            min_size,
            max_size,
            blocks,
        })
    }

    /// The coupling terms `(j, a_ij)` of vertex `i`.
    pub fn terms(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        let lo = self.term_off[v.index()] as usize;
        let hi = self.term_off[v.index() + 1] as usize;
        self.term_vertex[lo..hi]
            .iter()
            .copied()
            .zip(self.term_coeff[lo..hi].iter().copied())
    }

    /// The transposed terms `(j, a_ji)` of vertex `i` (its dependents).
    pub fn dependent_terms(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        let lo = self.dep_off[v.index()] as usize;
        let hi = self.dep_off[v.index() + 1] as usize;
        self.dep_vertex[lo..hi]
            .iter()
            .copied()
            .zip(self.dep_coeff[lo..hi].iter().copied())
    }

    /// The fixed load `b_i`.
    pub fn fixed_load(&self, v: VertexId) -> f64 {
        self.fixed[v.index()]
    }

    /// The size-dependent load `b_i + Σ_j a_ij·x_j` seen by vertex `v`.
    pub fn load(&self, v: VertexId, sizes: &[f64]) -> f64 {
        let mut load = self.fixed[v.index()];
        for (j, a) in self.terms(v) {
            load += a * sizes[j.index()];
        }
        load
    }

    /// Solves the transposed linear system `(D' − A)ᵀ u = w` where `D'` is
    /// the diagonal of *excess* delays `delay(i) − p_i` under `sizes`.
    ///
    /// Exposed for reuse by wrapper models; most callers want
    /// [`DelayModel::area_sensitivities`].
    ///
    /// # Panics
    ///
    /// Panics if `sizes` or `w` have the wrong length, or if any excess
    /// delay is non-positive (impossible for positive sizes and loads).
    pub fn solve_transposed(&self, sizes: &[f64], w: &[f64]) -> Vec<f64> {
        assert_eq!(sizes.len(), self.num_vertices());
        assert_eq!(w.len(), self.num_vertices());
        let diag: Vec<f64> = (0..self.num_vertices())
            .map(|i| {
                let v = VertexId::new(i);
                let d = self.load(v, sizes) / sizes[i];
                assert!(d > 0.0, "excess delay must be positive at {v}");
                d
            })
            .collect();
        self.solve_transposed_with(&diag, |_, a| a, w)
    }

    /// Block-triangular solve of `Mᵀ u = w` where `M` has diagonal `diag`
    /// and off-diagonal entries `−coeff(j, a_ji)` (a caller-supplied
    /// transform of the stored coefficients; `j` is the dependent vertex).
    pub(crate) fn solve_transposed_with(
        &self,
        diag: &[f64],
        coeff: impl Fn(VertexId, f64) -> f64,
        w: &[f64],
    ) -> Vec<f64> {
        let n = self.num_vertices();
        let mut u = vec![0.0f64; n];
        let mut scratch_index = vec![usize::MAX; n];
        for block in &self.blocks {
            if block.len() == 1 {
                let i = block[0] as usize;
                let v = VertexId::new(i);
                let mut rhs = w[i];
                for (j, a) in self.dependent_terms(v) {
                    rhs += coeff(j, a) * u[j.index()];
                }
                u[i] = rhs / diag[i];
            } else {
                let m = block.len();
                for (r, &bi) in block.iter().enumerate() {
                    scratch_index[bi as usize] = r;
                }
                let mut mat = vec![0.0f64; m * m];
                let mut rhs = vec![0.0f64; m];
                for (r, &bi) in block.iter().enumerate() {
                    let i = bi as usize;
                    mat[r * m + r] = diag[i];
                    rhs[r] = w[i];
                    for (j, a) in self.dependent_terms(VertexId::new(i)) {
                        let c = coeff(j, a);
                        let rj = scratch_index[j.index()];
                        if rj != usize::MAX {
                            mat[r * m + rj] -= c;
                        } else {
                            rhs[r] += c * u[j.index()];
                        }
                    }
                }
                solve_dense(&mut mat, &mut rhs, m);
                for (r, &bi) in block.iter().enumerate() {
                    u[bi as usize] = rhs[r];
                }
                for &bi in block {
                    scratch_index[bi as usize] = usize::MAX;
                }
            }
        }
        u
    }
}

/// In-place Gaussian elimination with partial pivoting for the small dense
/// per-gate blocks (at most eight devices).
///
/// # Panics
///
/// Panics if the matrix is numerically singular.
pub(crate) fn solve_dense(a: &mut [f64], b: &mut [f64], n: usize) {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n);
    for col in 0..n {
        let mut pivot = col;
        let mut best = a[col * n + col].abs();
        for row in col + 1..n {
            let mag = a[row * n + col].abs();
            if mag > best {
                best = mag;
                pivot = row;
            }
        }
        assert!(best > 1e-300, "singular block in delay model");
        if pivot != col {
            for k in 0..n {
                a.swap(col * n + k, pivot * n + k);
            }
            b.swap(col, pivot);
        }
        let inv = 1.0 / a[col * n + col];
        for row in col + 1..n {
            let factor = a[row * n + col] * inv;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            b[row] -= factor * b[col];
        }
    }
    for col in (0..n).rev() {
        let mut sum = b[col];
        for k in col + 1..n {
            sum -= a[col * n + k] * b[k];
        }
        b[col] = sum / a[col * n + col];
    }
}

impl DelayModel for LinearDelayModel {
    fn num_vertices(&self) -> usize {
        self.intrinsic.len()
    }

    fn size_bounds(&self) -> (f64, f64) {
        (self.min_size, self.max_size)
    }

    fn intrinsic(&self, v: VertexId) -> f64 {
        self.intrinsic[v.index()]
    }

    fn load_deps(&self, v: VertexId) -> &[VertexId] {
        let lo = self.term_off[v.index()] as usize;
        let hi = self.term_off[v.index() + 1] as usize;
        &self.term_vertex[lo..hi]
    }

    fn dependents(&self, v: VertexId) -> &[VertexId] {
        let lo = self.dep_off[v.index()] as usize;
        let hi = self.dep_off[v.index() + 1] as usize;
        &self.dep_vertex[lo..hi]
    }

    fn delay(&self, v: VertexId, sizes: &[f64]) -> f64 {
        self.intrinsic[v.index()] + self.load(v, sizes) / sizes[v.index()]
    }

    fn required_size(&self, v: VertexId, budget: f64, sizes: &[f64]) -> f64 {
        let excess = budget - self.intrinsic[v.index()];
        if excess <= 0.0 {
            return f64::INFINITY;
        }
        self.load(v, sizes) / excess
    }

    fn area_weight(&self, v: VertexId) -> f64 {
        self.area_weights[v.index()]
    }

    fn area_sensitivities(&self, sizes: &[f64]) -> Vec<f64> {
        let u = self.solve_transposed(sizes, &self.area_weights);
        u.iter()
            .zip(sizes.iter())
            .map(|(&ui, &xi)| ui * xi)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two vertices in series: delay(0) depends on x1 (fanout load).
    fn chain_model() -> LinearDelayModel {
        let coeffs = vec![
            VertexCoefficients {
                intrinsic: 0.5,
                fixed: 1.0,
                terms: vec![(VertexId::new(1), 2.0)],
                area_weight: 1.0,
            },
            VertexCoefficients {
                intrinsic: 0.25,
                fixed: 4.0,
                terms: vec![],
                area_weight: 1.0,
            },
        ];
        LinearDelayModel::from_parts(coeffs, vec![vec![0], vec![1]], 1.0, 64.0).unwrap()
    }

    #[test]
    fn delay_evaluation() {
        let m = chain_model();
        let sizes = [2.0, 3.0];
        // delay(0) = 0.5 + (1 + 2*3)/2 = 4.0
        assert!((m.delay(VertexId::new(0), &sizes) - 4.0).abs() < 1e-12);
        // delay(1) = 0.25 + 4/3
        assert!((m.delay(VertexId::new(1), &sizes) - (0.25 + 4.0 / 3.0)).abs() < 1e-12);
        let all = m.delays(&sizes);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn required_size_inverts_delay() {
        let m = chain_model();
        let sizes = [2.0, 3.0];
        let v = VertexId::new(0);
        let budget = 3.0;
        let x = m.required_size(v, budget, &sizes);
        let mut new_sizes = sizes;
        new_sizes[0] = x;
        assert!((m.delay(v, &new_sizes) - budget).abs() < 1e-12);
        // Budget at the intrinsic floor is infeasible.
        assert_eq!(m.required_size(v, 0.5, &sizes), f64::INFINITY);
    }

    /// The trait's scoped update is the only one: every model —
    /// linear and generalized (α ≠ 1) — must match its
    /// own full pass bitwise. (The power-weighted wrapper in `mft-tech`
    /// is checked the same way in its own tests.)
    #[test]
    fn delays_diff_matches_full_recomputation() {
        check_delays_diff(&chain_model());
        check_delays_diff(&crate::GeneralizedDelayModel::new(chain_model(), 0.7));
    }

    fn check_delays_diff(m: &impl DelayModel) {
        let bitwise_full = |delays: &[f64], sizes: &[f64]| {
            let full = m.delays(sizes);
            for (a, b) in delays.iter().zip(full.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        };
        let mut sizes = vec![2.0, 3.0];
        let mut delays = m.delays(&sizes);
        let mut affected = Vec::new();
        let mut scratch = DiffScratch::new();
        // Batch change to both vertices: both delays move, and the
        // affected set is the sorted dedup of {0,1} ∪ dependents.
        sizes[0] = 3.0;
        sizes[1] = 4.5;
        m.delays_diff(
            &[VertexId::new(1), VertexId::new(0), VertexId::new(1)],
            &sizes,
            &mut delays,
            &mut affected,
            &mut scratch,
        );
        bitwise_full(&delays, &sizes);
        assert_eq!(affected, vec![VertexId::new(0), VertexId::new(1)]);
        // Empty change set: nothing touched.
        m.delays_diff(&[], &sizes, &mut delays, &mut affected, &mut scratch);
        assert!(affected.is_empty());
        // One-vertex changes (a TILOS bump): vertex 1 moves its own
        // delay and its dependent's (vertex 0); nothing depends on
        // vertex 0, so it moves only itself.
        sizes[1] = 5.25;
        m.delays_diff(
            &[VertexId::new(1)],
            &sizes,
            &mut delays,
            &mut affected,
            &mut scratch,
        );
        assert_eq!(affected, vec![VertexId::new(0), VertexId::new(1)]);
        bitwise_full(&delays, &sizes);
        sizes[0] = 4.0;
        m.delays_diff(
            &[VertexId::new(0)],
            &sizes,
            &mut delays,
            &mut affected,
            &mut scratch,
        );
        assert_eq!(affected, vec![VertexId::new(0)]);
        bitwise_full(&delays, &sizes);
    }

    #[test]
    fn monotonicity() {
        let m = chain_model();
        let v = VertexId::new(0);
        let base = m.delay(v, &[2.0, 3.0]);
        assert!(m.delay(v, &[4.0, 3.0]) < base); // own size up → faster
        assert!(m.delay(v, &[2.0, 6.0]) > base); // fanout size up → slower
    }

    #[test]
    fn sensitivities_match_finite_differences() {
        let m = chain_model();
        let sizes = vec![2.0, 3.0];
        let c = m.area_sensitivities(&sizes);
        assert!(c.iter().all(|&ci| ci > 0.0));
        // Finite-difference check: perturb delay budget of vertex k by h,
        // resolve sizes so delays match, compare area change to −C_k·h.
        let delays = m.delays(&sizes);
        let h = 1e-6;
        for k in 0..2 {
            let mut target = delays.clone();
            target[k] += h;
            // Solve (D'−A) X = B for new sizes by fixed point from current.
            let mut x = sizes.clone();
            for _ in 0..200 {
                for i in (0..2).rev() {
                    let v = VertexId::new(i);
                    x[i] = m.load(v, &x) / (target[i] - m.intrinsic(v));
                }
            }
            let darea = m.area(&x) - m.area(&sizes);
            let predicted = -c[k] * h;
            assert!(
                (darea - predicted).abs() < 1e-8,
                "vertex {k}: fd {darea} vs predicted {predicted}"
            );
        }
    }

    #[test]
    fn dense_block_solve() {
        // Coupled pair (like two parallel NOR transistors): each depends on
        // the other.
        let coeffs = vec![
            VertexCoefficients {
                intrinsic: 0.1,
                fixed: 2.0,
                terms: vec![(VertexId::new(1), 0.5)],
                area_weight: 1.0,
            },
            VertexCoefficients {
                intrinsic: 0.1,
                fixed: 3.0,
                terms: vec![(VertexId::new(0), 0.7)],
                area_weight: 1.0,
            },
        ];
        let m = LinearDelayModel::from_parts(coeffs, vec![vec![0, 1]], 1.0, 64.0).unwrap();
        let sizes = vec![2.0, 2.0];
        let w = vec![1.0, 1.0];
        let u = m.solve_transposed(&sizes, &w);
        // Verify (D'−A)ᵀ u = w by substitution.
        let d0 = m.load(VertexId::new(0), &sizes) / sizes[0];
        let d1 = m.load(VertexId::new(1), &sizes) / sizes[1];
        assert!((d0 * u[0] - 0.7 * u[1] - 1.0).abs() < 1e-12);
        assert!((d1 * u[1] - 0.5 * u[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_negative_coefficients() {
        let coeffs = vec![VertexCoefficients {
            intrinsic: -0.1,
            fixed: 0.0,
            terms: vec![],
            area_weight: 1.0,
        }];
        assert!(matches!(
            LinearDelayModel::from_parts(coeffs, vec![vec![0]], 1.0, 2.0),
            Err(DelayError::NegativeCoefficient { .. })
        ));
    }

    #[test]
    fn rejects_bad_blocks() {
        let coeffs = vec![
            VertexCoefficients {
                area_weight: 1.0,
                ..Default::default()
            },
            VertexCoefficients {
                area_weight: 1.0,
                ..Default::default()
            },
        ];
        assert!(matches!(
            LinearDelayModel::from_parts(coeffs.clone(), vec![vec![0]], 1.0, 2.0),
            Err(DelayError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            LinearDelayModel::from_parts(coeffs, vec![vec![0], vec![0, 1]], 1.0, 2.0),
            Err(DelayError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn solve_dense_small_systems() {
        // 3x3 system with known solution.
        let mut a = vec![4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0];
        let x_true = [1.0, -2.0, 3.0];
        let mut b = vec![
            4.0 * 1.0 + 1.0 * -2.0,
            1.0 * 1.0 + 3.0 * -2.0 + 1.0 * 3.0,
            1.0 * -2.0 + 2.0 * 3.0,
        ];
        solve_dense(&mut a, &mut b, 3);
        for (got, want) in b.iter().zip(x_true.iter()) {
            assert!((got - want).abs() < 1e-12);
        }
    }
}
