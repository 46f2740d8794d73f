//! The incremental static timing engine: re-evaluates arrival times only
//! in the fanout cone of changed vertices and tracks the critical path
//! with a bucketed max that invalidates instead of rescanning. It keeps
//! no required times: slack comes from a cold [`crate::TimingReport`].
//!
//! # Why
//!
//! One-vertex-at-a-time sizers (TILOS bumps, the optimizer's convergence
//! checks) historically paid two full `O(V+E)` timing passes per step
//! ([`crate::extract_critical_path`] + [`crate::critical_path`]) although
//! a bump perturbs only a handful of delays. [`IncrementalTiming`] keeps
//! the arrival-time state of the *previous* step and charges each update
//! only for the **affected cone**: the vertices downstream of a changed
//! delay whose arrival time actually moves.
//!
//! # Machinery
//!
//! * **One topological sweep** — every vertex has a position in
//!   [`SizingDag::topo_order`] (vertex ids need not be topological: a
//!   `.bench` may list gates in any order), and dirty vertices are one
//!   bit per position, 64 positions to a `u64` word. A wave drains the
//!   marks in ascending position (clean words skipped, set bits found
//!   with `trailing_zeros`), so each predecessor's arrival time is final
//!   before a vertex is re-evaluated and no vertex is evaluated twice
//!   per wave. The engine keeps its own flat predecessor/successor CSR
//!   (built once from the DAG; successors stored as positions) so the
//!   hot loop runs on two array reads per edge.
//! * **Early cutoff** — a re-evaluated arrival time that is bitwise
//!   unchanged does not mark its successors: the wave dies at the
//!   cone's true edge.
//! * **Dense tail** — once most of the positions a wave has swept needed
//!   evaluation (`IncrementalTiming::sweep_goes_dense`), the wave
//!   stops marking and re-folds every later vertex in topological order.
//!   A vertex outside the cone re-folds from final predecessors to its
//!   bitwise-same arrival, so the state is the cold pass's either way; a
//!   full pass is the same tail run from position 0.
//! * **Critical-path tracker** — `CP(G) = max_i (AT(i) + delay(i))` is
//!   maintained as a *bucketed max*: vertices are grouped into `≈√V`
//!   contiguous index buckets, each recording its maximum completion
//!   time and the smallest vertex index attaining it. A completion
//!   change updates its bucket in `O(1)` when the recorded maximum
//!   stays valid (new maximum, tie at a smaller index, unrelated entry)
//!   and otherwise just marks the bucket **invalid**; a query rescans
//!   only the invalidated buckets (`O(√V)` each) and folds the bucket
//!   maxima. Ties between vertices with equal completion times resolve
//!   to the smallest vertex index — exactly the vertex the full-scan
//!   [`crate::extract_critical_path`] selects — so path extraction is
//!   reproducible against the cold functions.
//!
//! # Invariants
//!
//! Every stored arrival time is **bit identical** to a cold
//! [`crate::arrival_times`] recomputation under the current delays
//! (`max` over non-negative floats is fold-order independent, and the
//! engine folds each vertex's fanin in the same edge order as the cold
//! pass), and [`IncrementalTiming::critical_path`] is bit-identical to
//! the cold [`crate::critical_path`].

use crate::error::StaError;
use crate::timing::tail_tie_eps;
use mft_circuit::{SizingDag, VertexId};

/// Read by nothing: the engine always cuts off bitwise and takes the
/// one churn rule of [`IncrementalTiming::prefers_full_pass`]. The type
/// stays only because the end-to-end benchmark's replay (`e2ebench/`)
/// still builds one for [`IncrementalTiming::with_config`]; the next
/// change to that benchmark deletes both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrementalConfig {
    /// Read by nothing (the cutoff is bitwise).
    pub tol: f64,
    /// Read by nothing (see [`IncrementalTiming::prefers_full_pass`]).
    pub full_pass_churn: f64,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig {
            tol: 0.0,
            full_pass_churn: 0.5,
        }
    }
}

crate::counter_group! {
    /// Work counters of an [`IncrementalTiming`] engine (or of the cold
    /// reference path, when a caller mirrors them by hand).
    ///
    /// `vertices_touched` counts arrival-time evaluations: a full pass
    /// touches every vertex once, an incremental wave only the affected
    /// cone, plus every later vertex once it goes dense — the ratio of
    /// the two is the engine's whole point.
    pub struct TimingStats {
        /// Full forward passes (construction, rebase fallbacks, cold calls).
        pub full_passes: usize,
        /// Incremental propagation waves (each covering one batch of delay
        /// changes).
        pub incremental_passes: usize,
        /// Total arrival-time evaluations across all passes and waves.
        pub vertices_touched: usize,
        /// Rebase calls resolved through the sparse per-vertex marks (churn
        /// at or below half the vertices, see
        /// [`IncrementalTiming::prefers_full_pass`]).
        pub rebase_sparse: usize,
        /// Rebase calls that fell back to one full pass (churn above half
        /// the vertices). No-op rebases count as neither.
        pub rebase_full: usize,
    }
}

impl core::fmt::Display for TimingStats {
    /// The one-line human rendering shared by reports and the CLI.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} full + {} incremental passes, {} arrival evaluations, \
             {} sparse / {} full rebases",
            self.full_passes,
            self.incremental_passes,
            self.vertices_touched,
            self.rebase_sparse,
            self.rebase_full
        )
    }
}

/// The incremental static timing engine (see the module docs).
///
/// The engine stores no reference to its [`SizingDag`]; every structural
/// method takes the DAG again, and the caller must always pass the DAG
/// the engine was built for (checked only by vertex count).
#[derive(Debug, Clone)]
pub struct IncrementalTiming {
    at: Vec<f64>,
    /// Fused completion times `done[i] = at[i] + delays[i]`, the value
    /// both the forward fold and the tracker consume — one cache line
    /// instead of two in the hottest loop.
    done: Vec<f64>,
    delays: Vec<f64>,
    // Flat adjacency (built once from the DAG, preserving its edge
    // order so incremental folds replay the cold pass exactly).
    // Predecessors are vertex ids; successors are topological
    // positions, the index the dirty marks take.
    pred_off: Vec<u32>,
    pred: Vec<u32>,
    succ_off: Vec<u32>,
    succ: Vec<u32>,
    /// The vertex at each topological position (`dag.topo_order()`).
    order: Vec<u32>,
    /// Dirty marks awaiting re-evaluation, one bit per position.
    dirty: Vec<u64>,
    /// Number of set bits in `dirty`.
    pending: usize,
    // Bucketed completion-time maxima (`cp_shift` index bits per
    // bucket): per-bucket max, smallest argmax index, and an
    // invalidation flag cleared by rescans.
    cp_shift: u32,
    cp_max: Vec<f64>,
    cp_arg: Vec<u32>,
    cp_stale: Vec<bool>,
    stats: TimingStats,
    /// Waves that ended sparse / went dense (tests prove both run).
    #[cfg(test)]
    waves: [usize; 2],
}

impl IncrementalTiming {
    /// Builds the engine and runs one full forward pass over `delays`.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::ShapeMismatch`] if `delays` has the wrong
    /// length.
    pub fn new(dag: &SizingDag, delays: &[f64]) -> Result<Self, StaError> {
        let n = dag.num_vertices();
        if delays.len() != n {
            return Err(StaError::ShapeMismatch {
                expected: n,
                found: delays.len(),
            });
        }
        let order: Vec<u32> = dag.topo_order().iter().map(|v| v.index() as u32).collect();
        let mut pos = vec![0u32; n];
        for (p, &v) in order.iter().enumerate() {
            pos[v as usize] = p as u32;
        }
        let mut pred_off = Vec::with_capacity(n + 1);
        let mut pred = Vec::with_capacity(dag.num_edges());
        let mut succ_off = Vec::with_capacity(n + 1);
        let mut succ = Vec::with_capacity(dag.num_edges());
        pred_off.push(0);
        succ_off.push(0);
        for v in dag.vertex_ids() {
            for &e in dag.in_edges(v) {
                pred.push(dag.edge(e).0.index() as u32);
            }
            pred_off.push(pred.len() as u32);
            for &e in dag.out_edges(v) {
                succ.push(pos[dag.edge(e).1.index()]);
            }
            succ_off.push(succ.len() as u32);
        }
        // Bucket width 2^cp_shift ≈ √n keeps both the O(1)-update and
        // the rescan/fold sides of the tracker balanced.
        let mut cp_shift = 0u32;
        while (1usize << (2 * cp_shift)) < n.max(1) {
            cp_shift += 1;
        }
        let num_buckets = (n >> cp_shift) + usize::from(n & ((1 << cp_shift) - 1) != 0);
        let mut engine = IncrementalTiming {
            at: vec![0.0; n],
            done: vec![0.0; n],
            delays: delays.to_vec(),
            pred_off,
            pred,
            succ_off,
            succ,
            order,
            dirty: vec![0; n.div_ceil(64)],
            pending: 0,
            cp_shift,
            cp_max: vec![f64::NEG_INFINITY; num_buckets],
            cp_arg: vec![0; num_buckets],
            cp_stale: vec![true; num_buckets],
            stats: TimingStats::default(),
            #[cfg(test)]
            waves: [0; 2],
        };
        engine.full_pass();
        Ok(engine)
    }

    /// Exactly [`IncrementalTiming::new`]: `config` is read by nothing.
    /// The name stays only for the end-to-end benchmark's replay
    /// (`e2ebench/`), like [`IncrementalConfig`].
    ///
    /// # Errors
    ///
    /// As [`IncrementalTiming::new`].
    pub fn with_config(
        dag: &SizingDag,
        delays: &[f64],
        _config: IncrementalConfig,
    ) -> Result<Self, StaError> {
        Self::new(dag, delays)
    }

    /// The one churn rule: re-timing `changed` of `n` delays takes one
    /// full pass when more than half of them changed (`2·changed > n`),
    /// and per-vertex updates otherwise. Both routes leave bit-identical
    /// state; the rule only picks the cheaper one (the `sizing_ladder`
    /// bench's churn replay times both).
    pub fn prefers_full_pass(changed: usize, n: usize) -> bool {
        2 * changed > n
    }

    /// The one dense rule: at a word boundary, a wave that has evaluated
    /// more than half of the `swept` positions since its first dirty
    /// word stops marking and re-folds every later vertex (the dense
    /// tail). Like the churn rule it only picks the cheaper route: a
    /// re-fold costs what a marked evaluation costs, minus the marks.
    fn sweep_goes_dense(evaluated: usize, swept: usize) -> bool {
        2 * evaluated > swept
    }

    /// Work counters since construction.
    pub fn stats(&self) -> TimingStats {
        self.stats
    }

    /// The current delay vector the engine's state reflects.
    pub fn delays(&self) -> &[f64] {
        &self.delays
    }

    /// The current arrival times. Only final after
    /// [`IncrementalTiming::propagate`] has drained pending updates.
    pub fn arrival_times(&self) -> &[f64] {
        debug_assert_eq!(self.pending, 0, "propagate() before reading arrivals");
        &self.at
    }

    /// Records a new delay for `v` and marks its fanout dirty. No
    /// propagation happens until [`IncrementalTiming::propagate`] —
    /// batch all of a step's changes first. (`dag` is only used for the
    /// vertex-count sanity check in debug builds; the engine walks its
    /// own adjacency.)
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the engine's DAG.
    pub fn set_delay(&mut self, dag: &SizingDag, v: VertexId, delay: f64) {
        debug_assert_eq!(dag.num_vertices(), self.at.len(), "wrong DAG");
        let i = v.index();
        if self.delays[i].to_bits() == delay.to_bits() {
            return;
        }
        self.delays[i] = delay;
        self.done[i] = self.at[i] + delay;
        // v's own arrival is unaffected, but its completion and every
        // successor's arrival are.
        self.update_completion(i);
        self.mark_successors(i);
    }

    /// Re-bases the engine onto a whole new delay vector, propagating
    /// only from the vertices whose delay actually changed. When
    /// [`IncrementalTiming::prefers_full_pass`] it falls back to one
    /// full pass — cheaper than mark bookkeeping, and identical in
    /// outcome. The decision taken is counted in
    /// [`TimingStats::rebase_sparse`] / [`TimingStats::rebase_full`].
    ///
    /// # Errors
    ///
    /// Returns [`StaError::ShapeMismatch`] if `delays` has the wrong
    /// length.
    pub fn rebase(&mut self, dag: &SizingDag, delays: &[f64]) -> Result<(), StaError> {
        let n = self.at.len();
        if delays.len() != n {
            return Err(StaError::ShapeMismatch {
                expected: n,
                found: delays.len(),
            });
        }
        let changed = delays
            .iter()
            .zip(self.delays.iter())
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        if changed == 0 {
            return Ok(());
        }
        if Self::prefers_full_pass(changed, n) {
            self.stats.rebase_full += 1;
            self.delays.copy_from_slice(delays);
            self.full_pass();
            return Ok(());
        }
        self.stats.rebase_sparse += 1;
        for (i, &d) in delays.iter().enumerate() {
            if self.delays[i].to_bits() != d.to_bits() {
                self.set_delay(dag, VertexId::new(i), d);
            }
        }
        self.propagate(dag);
        Ok(())
    }

    /// [`IncrementalTiming::rebase`] with the changed set already known:
    /// every vertex whose delay may differ from the engine's current
    /// vector is listed in `scope` (extra vertices are harmless — a
    /// bitwise-equal delay is skipped). Skips the full O(n) delay scan,
    /// so a caller that produced `delays` through
    /// `mft_delay::DelayModel::delays_diff` pays only for the affected
    /// cone end to end. Outcome is bit-identical to the unscoped rebase.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::ShapeMismatch`] if `delays` has the wrong
    /// length.
    ///
    /// # Panics
    ///
    /// Panics if a scope vertex is out of range.
    pub fn rebase_scoped(
        &mut self,
        dag: &SizingDag,
        delays: &[f64],
        scope: &[VertexId],
    ) -> Result<(), StaError> {
        let n = self.at.len();
        if delays.len() != n {
            return Err(StaError::ShapeMismatch {
                expected: n,
                found: delays.len(),
            });
        }
        if scope.is_empty() {
            return Ok(());
        }
        // Same churn rule as the unscoped path, with the scope length
        // standing in for the exact changed count (an upper bound).
        if Self::prefers_full_pass(scope.len(), n) {
            let changed = delays
                .iter()
                .zip(self.delays.iter())
                .any(|(a, b)| a.to_bits() != b.to_bits());
            if !changed {
                return Ok(());
            }
            self.stats.rebase_full += 1;
            self.delays.copy_from_slice(delays);
            self.full_pass();
            return Ok(());
        }
        let mut touched = false;
        for &v in scope {
            let i = v.index();
            let d = delays[i];
            if self.delays[i].to_bits() != d.to_bits() {
                touched = true;
                self.set_delay(dag, v, d);
            }
        }
        if touched {
            self.stats.rebase_sparse += 1;
            self.propagate(dag);
        }
        Ok(())
    }

    /// Drains the dirty marks in one topological sweep, cutting each
    /// wave off where an arrival time comes back unchanged, and re-folds
    /// the rest of the order once the wave goes dense
    /// (`IncrementalTiming::sweep_goes_dense`).
    pub fn propagate(&mut self, dag: &SizingDag) {
        debug_assert_eq!(dag.num_vertices(), self.at.len(), "wrong DAG");
        if self.pending == 0 {
            return;
        }
        self.stats.incremental_passes += 1;
        let first = self.dirty.iter().position(|&w| w != 0).unwrap_or(0);
        let mut evaluated = 0usize;
        let mut tail = None;
        let mut w = first;
        while self.pending > 0 {
            let mut bits = self.dirty[w];
            if bits == 0 {
                w += 1;
                continue;
            }
            // Successors sit at later positions, so the lowest set bit
            // of the word is always the next vertex due.
            while bits != 0 {
                self.dirty[w] = bits & (bits - 1);
                self.pending -= 1;
                evaluated += 1;
                let i = self.order[(w << 6) | bits.trailing_zeros() as usize] as usize;
                let a = self.fold(i);
                if a.to_bits() != self.at[i].to_bits() {
                    self.at[i] = a;
                    self.done[i] = a + self.delays[i];
                    self.update_completion(i);
                    self.mark_successors(i);
                }
                bits = self.dirty[w];
            }
            w += 1;
            if self.pending > 0 && Self::sweep_goes_dense(evaluated, (w - first) << 6) {
                self.dirty[w..].fill(0);
                self.pending = 0;
                tail = Some(w << 6);
            }
        }
        self.stats.vertices_touched += evaluated;
        #[cfg(test)]
        {
            self.waves[usize::from(tail.is_some())] += 1;
        }
        if let Some(start) = tail {
            self.refold_from(start);
        }
    }

    /// The critical path delay `CP(G) = max_i (AT(i) + delay(i))` —
    /// bit-identical to the cold [`crate::critical_path`]. Requires a
    /// drained sweep ([`IncrementalTiming::propagate`]).
    pub fn critical_path(&mut self) -> f64 {
        self.repair_tracker().0.max(0.0)
    }

    /// The vertex completing at `CP(G)` (smallest index on ties, like
    /// the cold full scan).
    pub fn critical_tail(&mut self) -> VertexId {
        VertexId::new(self.repair_tracker().1 as usize)
    }

    /// Extracts one critical path, bit-identical to the cold
    /// [`crate::extract_critical_path`] under the current delays: same
    /// tail vertex, same tight-predecessor walk.
    pub fn extract_critical_path(&mut self, dag: &SizingDag) -> Vec<VertexId> {
        debug_assert_eq!(dag.num_vertices(), self.at.len(), "wrong DAG");
        debug_assert_eq!(self.pending, 0, "propagate() before extracting the path");
        let tail = self.critical_tail();
        let mut path = vec![tail];
        let mut cur = tail.index();
        while self.pred_off[cur] != self.pred_off[cur + 1] {
            let mut next = None;
            for k in self.pred_off[cur]..self.pred_off[cur + 1] {
                let u = self.pred[k as usize] as usize;
                if (self.done[u] - self.at[cur]).abs() <= tail_tie_eps(self.at[cur]) {
                    next = Some(u);
                    break;
                }
            }
            match next {
                Some(u) => {
                    path.push(VertexId::new(u));
                    cur = u;
                }
                None => break,
            }
        }
        path.reverse();
        path
    }

    /// One forward pass over the whole order, dropping any marks.
    fn full_pass(&mut self) {
        self.stats.full_passes += 1;
        self.dirty.fill(0);
        self.pending = 0;
        self.refold_from(0);
    }

    /// Re-folds every vertex from topological position `start` on,
    /// marked or not: the dense tail of a wave, and the full pass.
    fn refold_from(&mut self, start: usize) {
        self.stats.vertices_touched += self.order.len() - start;
        for p in start..self.order.len() {
            let i = self.order[p] as usize;
            let a = self.fold(i);
            self.at[i] = a;
            let d = a + self.delays[i];
            if d.to_bits() != self.done[i].to_bits() {
                self.done[i] = d;
                self.update_completion(i);
            }
        }
    }

    /// Vertex `i`'s arrival time from its predecessors' completions, in
    /// the cold pass's edge order.
    fn fold(&self, i: usize) -> f64 {
        let mut a = 0.0f64;
        for k in self.pred_off[i]..self.pred_off[i + 1] {
            a = a.max(self.done[self.pred[k as usize] as usize]);
        }
        a
    }

    fn mark_successors(&mut self, i: usize) {
        for k in self.succ_off[i]..self.succ_off[i + 1] {
            let p = self.succ[k as usize] as usize;
            let bit = 1u64 << (p & 63);
            let word = &mut self.dirty[p >> 6];
            if *word & bit == 0 {
                *word |= bit;
                self.pending += 1;
            }
        }
    }

    /// Folds vertex `i`'s new completion time into its tracker bucket:
    /// `O(1)` when the recorded maximum stays valid, otherwise the
    /// bucket is invalidated for the next query's rescan.
    fn update_completion(&mut self, i: usize) {
        let b = i >> self.cp_shift;
        if self.cp_stale[b] {
            return;
        }
        let c = self.done[i];
        if self.cp_arg[b] as usize == i {
            // The recorded argmax moved: a raise keeps it the (unique)
            // maximum, a drop invalidates the bucket.
            if c > self.cp_max[b] {
                self.cp_max[b] = c;
            } else if c.to_bits() != self.cp_max[b].to_bits() {
                self.cp_stale[b] = true;
            }
        } else if c > self.cp_max[b] {
            self.cp_max[b] = c;
            self.cp_arg[b] = i as u32;
        } else if c.to_bits() == self.cp_max[b].to_bits() && (i as u32) < self.cp_arg[b] {
            // A tie at a smaller index becomes the argmax, matching the
            // full scan's first-maximum choice.
            self.cp_arg[b] = i as u32;
        }
    }

    /// Rescans invalidated buckets and returns the global
    /// `(max completion, smallest argmax index)`.
    fn repair_tracker(&mut self) -> (f64, u32) {
        debug_assert_eq!(self.pending, 0, "propagate() before querying the tracker");
        let n = self.at.len();
        let width = 1usize << self.cp_shift;
        let mut best = f64::NEG_INFINITY;
        let mut arg = 0u32;
        for b in 0..self.cp_max.len() {
            if self.cp_stale[b] {
                let lo = b << self.cp_shift;
                let hi = (lo + width).min(n);
                let mut m = f64::NEG_INFINITY;
                let mut a = lo as u32;
                for (i, &c) in self.done[lo..hi].iter().enumerate() {
                    if c > m {
                        m = c;
                        a = (lo + i) as u32;
                    }
                }
                self.cp_max[b] = m;
                self.cp_arg[b] = a;
                self.cp_stale[b] = false;
            }
            if self.cp_max[b] > best {
                best = self.cp_max[b];
                arg = self.cp_arg[b];
            }
        }
        (best, arg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{arrival_times, critical_path, extract_critical_path};
    use mft_circuit::{parse_bench, GateKind, Netlist, NetlistBuilder, SizingDag, C17_BENCH};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A 4-gate diamond: g0 feeds g1 and g2, which feed g3.
    fn diamond() -> SizingDag {
        let mut b = NetlistBuilder::new("diamond");
        let a = b.input("a");
        let c = b.input("b");
        let g0 = b.nand2(a, c).unwrap();
        let g1 = b.inv(g0).unwrap();
        let g2 = b.nand2(g0, c).unwrap();
        let g3 = b.nand2(g1, g2).unwrap();
        b.output(g3, "y");
        SizingDag::gate_mode(&b.finish().unwrap()).unwrap()
    }

    /// A wider random-ish circuit for differential testing.
    fn lattice() -> SizingDag {
        lattice_of(6)
    }

    /// A triangle of NAND2 rows over `inputs` inputs: `1 + 2 + … +
    /// (inputs − 1)` gates (15 for 6 inputs, 10 for 5).
    fn lattice_of(inputs: usize) -> SizingDag {
        let mut b = NetlistBuilder::new("lattice");
        let inputs: Vec<_> = (0..inputs).map(|i| b.input(format!("i{i}"))).collect();
        let mut layer = inputs;
        for _ in 0..5 {
            let mut next = Vec::new();
            for w in layer.windows(2) {
                next.push(b.gate(GateKind::Nand(2), &[w[0], w[1]]).unwrap());
            }
            if next.len() < 2 {
                break;
            }
            layer = next;
        }
        for (k, &g) in layer.iter().enumerate() {
            b.output(g, format!("o{k}"));
        }
        let n: Netlist = b.finish().unwrap();
        SizingDag::gate_mode(&n).unwrap()
    }

    fn assert_matches_cold(engine: &mut IncrementalTiming, dag: &SizingDag, what: &str) {
        let delays = engine.delays().to_vec();
        let cold_at = arrival_times(dag, &delays);
        for (i, (a, b)) in engine
            .arrival_times()
            .iter()
            .zip(cold_at.iter())
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: AT[{i}]");
        }
        let cold_cp = critical_path(dag, &delays).unwrap();
        assert_eq!(
            engine.critical_path().to_bits(),
            cold_cp.to_bits(),
            "{what}: CP"
        );
        let cold_path = extract_critical_path(dag, &delays).unwrap();
        assert_eq!(
            engine.critical_tail(),
            cold_path[cold_path.len() - 1],
            "{what}: tail"
        );
        assert_eq!(engine.extract_critical_path(dag), cold_path, "{what}: path");
    }

    #[test]
    fn initial_state_matches_cold() {
        let dag = diamond();
        let delays = vec![2.0, 3.0, 1.0, 4.0];
        let mut engine = IncrementalTiming::new(&dag, &delays).unwrap();
        assert_matches_cold(&mut engine, &dag, "initial");
        assert_eq!(engine.stats().full_passes, 1);
        assert_eq!(engine.stats().incremental_passes, 0);
    }

    #[test]
    fn single_update_touches_only_the_cone() {
        let dag = diamond();
        let delays = vec![2.0, 3.0, 1.0, 4.0];
        let mut engine = IncrementalTiming::new(&dag, &delays).unwrap();
        let before = engine.stats();
        // Speed up the off-path g2: only g3 is downstream.
        engine.set_delay(&dag, VertexId::new(2), 0.5);
        engine.propagate(&dag);
        let wave = engine.stats().since(&before);
        assert_eq!(wave.incremental_passes, 1);
        assert_eq!(wave.vertices_touched, 1, "only g3 re-evaluated");
        assert_matches_cold(&mut engine, &dag, "g2 update");
    }

    #[test]
    fn cutoff_stops_unchanged_waves() {
        let dag = diamond();
        let delays = vec![2.0, 3.0, 1.0, 4.0];
        let mut engine = IncrementalTiming::new(&dag, &delays).unwrap();
        let before = engine.stats();
        // g2 (AT 2, slack 2) slowed within its slack: g3's AT is
        // re-evaluated once, comes back unchanged, wave dies.
        engine.set_delay(&dag, VertexId::new(2), 2.0);
        engine.propagate(&dag);
        let wave = engine.stats().since(&before);
        assert_eq!(wave.vertices_touched, 1);
        assert_matches_cold(&mut engine, &dag, "slack-absorbing update");
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let dag = diamond();
        assert!(matches!(
            IncrementalTiming::new(&dag, &[1.0]),
            Err(StaError::ShapeMismatch { .. })
        ));
        let mut engine = IncrementalTiming::new(&dag, &[1.0; 4]).unwrap();
        assert!(matches!(
            engine.rebase(&dag, &[1.0; 3]),
            Err(StaError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn rebase_full_and_sparse_paths_agree() {
        let dag = lattice();
        let n = dag.num_vertices();
        let mut rng = StdRng::seed_from_u64(7);
        let delays: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..4.0)).collect();
        let mut engine = IncrementalTiming::new(&dag, &delays).unwrap();
        // Sparse rebase (few changes) then dense rebase (all change).
        let mut sparse = delays.clone();
        sparse[0] *= 1.7;
        sparse[n / 2] *= 0.3;
        engine.rebase(&dag, &sparse).unwrap();
        assert_matches_cold(&mut engine, &dag, "sparse rebase");
        let dense: Vec<f64> = sparse.iter().map(|d| d * 1.1).collect();
        let before = engine.stats();
        engine.rebase(&dag, &dense).unwrap();
        assert_eq!(engine.stats().since(&before).full_passes, 1, "dense → full");
        assert_matches_cold(&mut engine, &dag, "dense rebase");
        // No-op rebase does nothing.
        let before = engine.stats();
        engine.rebase(&dag, &dense).unwrap();
        assert_eq!(engine.stats().since(&before), TimingStats::default());
    }

    /// The churn rule flips exactly between ⌊n/2⌋ and ⌊n/2⌋+1 changed
    /// delays, on an odd-n and an even-n DAG, through both rebase
    /// routes, and either side leaves the state bit-identical to the
    /// cold functions.
    #[test]
    fn churn_rule_flips_at_half_the_vertices() {
        let dags = [lattice_of(5), lattice_of(6)];
        assert_eq!(dags.each_ref().map(|d| d.num_vertices()), [10, 15]);
        for dag in dags {
            let n = dag.num_vertices();
            let mut rng = StdRng::seed_from_u64(11);
            let base: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..4.0)).collect();
            for (k, full) in [(n / 2, false), (n / 2 + 1, true)] {
                assert_eq!(
                    IncrementalTiming::prefers_full_pass(k, n),
                    full,
                    "n {n} k {k}"
                );
                let mut delays = base.clone();
                for d in delays.iter_mut().take(k) {
                    *d += 1.0;
                }
                let scope: Vec<VertexId> = (0..k).map(VertexId::new).collect();
                for scoped in [false, true] {
                    let what = format!("n {n} k {k} scoped {scoped}");
                    let mut engine = IncrementalTiming::new(&dag, &base).unwrap();
                    let before = engine.stats();
                    if scoped {
                        engine.rebase_scoped(&dag, &delays, &scope).unwrap();
                    } else {
                        engine.rebase(&dag, &delays).unwrap();
                    }
                    let step = engine.stats().since(&before);
                    assert_eq!(step.rebase_full, usize::from(full), "{what}");
                    assert_eq!(step.rebase_sparse, usize::from(!full), "{what}");
                    assert_matches_cold(&mut engine, &dag, &what);
                }
            }
        }
    }

    #[test]
    fn rebase_scoped_matches_unscoped_bitwise() {
        let dag = lattice();
        let n = dag.num_vertices();
        let mut rng = StdRng::seed_from_u64(23);
        let base: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..4.0)).collect();
        let mut scoped = IncrementalTiming::new(&dag, &base).unwrap();
        let mut unscoped = IncrementalTiming::new(&dag, &base).unwrap();
        let mut delays = base.clone();
        for step in 0..60 {
            let k = rng.gen_range(1..5usize);
            let mut scope: Vec<VertexId> =
                (0..k).map(|_| VertexId::new(rng.gen_range(0..n))).collect();
            for &v in &scope {
                delays[v.index()] = rng.gen_range(0.25..5.0);
            }
            // Scope may legally over-approximate the changed set.
            scope.push(VertexId::new(rng.gen_range(0..n)));
            scoped.rebase_scoped(&dag, &delays, &scope).unwrap();
            unscoped.rebase(&dag, &delays).unwrap();
            assert_eq!(
                scoped.critical_path().to_bits(),
                unscoped.critical_path().to_bits(),
                "step {step}"
            );
            if step % 17 == 0 {
                assert_matches_cold(&mut scoped, &dag, &format!("scoped step {step}"));
            }
        }
        // Empty scope is a no-op.
        let before = scoped.stats();
        scoped.rebase_scoped(&dag, &delays, &[]).unwrap();
        assert_eq!(scoped.stats().since(&before), TimingStats::default());
    }

    #[test]
    fn random_update_storm_stays_bit_identical() {
        let dag = lattice();
        let n = dag.num_vertices();
        let mut rng = StdRng::seed_from_u64(42);
        let mut delays: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..4.0)).collect();
        let mut engine = IncrementalTiming::new(&dag, &delays).unwrap();
        for step in 0..300 {
            let k = rng.gen_range(1..4usize);
            for _ in 0..k {
                let v = rng.gen_range(0..n);
                delays[v] = rng.gen_range(0.25..5.0);
                engine.set_delay(&dag, VertexId::new(v), delays[v]);
            }
            engine.propagate(&dag);
            if step % 37 == 0 {
                assert_matches_cold(&mut engine, &dag, &format!("storm step {step}"));
            } else {
                let cold = critical_path(&dag, &delays).unwrap();
                assert_eq!(engine.critical_path().to_bits(), cold.to_bits(), "{step}");
            }
        }
    }

    #[test]
    fn tie_break_matches_cold_extraction() {
        // Two parallel equal-delay branches: the cold scan picks the
        // smallest-index maximum; the tracker must too.
        let mut b = NetlistBuilder::new("tie");
        let a = b.input("a");
        let g0 = b.inv(a).unwrap();
        let g1 = b.inv(g0).unwrap();
        let g2 = b.inv(g0).unwrap();
        b.output(g1, "x");
        b.output(g2, "y");
        let dag = SizingDag::gate_mode(&b.finish().unwrap()).unwrap();
        let delays = vec![1.0, 2.0, 2.0];
        let mut engine = IncrementalTiming::new(&dag, &delays).unwrap();
        let cold = extract_critical_path(&dag, &delays).unwrap();
        assert_eq!(engine.extract_critical_path(&dag), cold);
        assert_eq!(engine.critical_tail(), VertexId::new(1));
    }

    /// The tracker's tie/argmax bookkeeping survives a targeted
    /// adversarial sequence: raise a tie at a smaller index, then drop
    /// the recorded argmax, then restore it.
    #[test]
    fn tracker_survives_tie_and_drop_sequences() {
        let dag = lattice();
        let n = dag.num_vertices();
        let mut delays: Vec<f64> = vec![1.0; n];
        let mut engine = IncrementalTiming::new(&dag, &delays).unwrap();
        let cp0 = engine.critical_path();
        // Find the tail and make an earlier-indexed vertex tie it, then
        // beat it, then fall back below.
        let tail = engine.critical_tail().index();
        for (step, factor) in [(0usize, 1.0f64), (1, 2.0), (2, 0.5)] {
            let v = if tail > 0 { tail - 1 } else { tail };
            delays[v] *= factor;
            engine.set_delay(&dag, VertexId::new(v), delays[v]);
            engine.propagate(&dag);
            let cold = critical_path(&dag, &delays).unwrap();
            assert_eq!(engine.critical_path().to_bits(), cold.to_bits(), "{step}");
            let cold_path = extract_critical_path(&dag, &delays).unwrap();
            assert_eq!(engine.extract_critical_path(&dag), cold_path, "{step}");
        }
        let _ = cp0;
    }

    /// A random reconvergent netlist of `gates` NOT/NAND2/NOR2/NAND3
    /// gates as `.bench` text with its gate lines shuffled: most
    /// arguments come from the last few dozen signals (deep cones), some
    /// from anywhere (wide ones), and every gate without a load is an
    /// output.
    fn random_bench(rng: &mut StdRng, inputs: usize, gates: usize) -> String {
        let mut text = String::new();
        let mut signals: Vec<String> = (0..inputs).map(|i| format!("i{i}")).collect();
        for s in &signals {
            text.push_str(&format!("INPUT({s})\n"));
        }
        let mut loaded = vec![false; inputs + gates];
        let mut lines = Vec::new();
        for g in 0..gates {
            let (cell, arity) =
                [("NOT", 1), ("NAND", 2), ("NOR", 2), ("NAND", 3)][rng.gen_range(0..4usize)];
            let n = signals.len();
            let mut args: Vec<usize> = Vec::new();
            while args.len() < arity {
                let k = if rng.gen_bool(0.8) {
                    n - 1 - rng.gen_range(0..n.min(40))
                } else {
                    rng.gen_range(0..n)
                };
                if !args.contains(&k) {
                    args.push(k);
                }
            }
            let names: Vec<&str> = args.iter().map(|&k| signals[k].as_str()).collect();
            lines.push(format!("g{g} = {cell}({})", names.join(", ")));
            for k in args {
                loaded[k] = true;
            }
            signals.push(format!("g{g}"));
        }
        for (k, s) in signals.iter().enumerate().skip(inputs) {
            if !loaded[k] {
                text.push_str(&format!("OUTPUT({s})\n"));
            }
        }
        for i in (1..lines.len()).rev() {
            lines.swap(i, rng.gen_range(0..i + 1));
        }
        text + &lines.join("\n") + "\n"
    }

    /// Whether some edge runs from a larger vertex id to a smaller one.
    fn ids_not_topological(dag: &SizingDag) -> bool {
        dag.edge_ids().any(|e| {
            let (u, v) = dag.edge(e);
            u.index() > v.index()
        })
    }

    /// The engine against the cold functions, bit for bit after every
    /// step, on DAGs whose vertex ids are not a topological order: a
    /// c17 listed backwards and two random reconvergent netlists listed
    /// in shuffled order (both read by `parse_bench`, which relabels the
    /// gates), each in gate, gate+wire and transistor mode. The steps
    /// mix narrow `set_delay` waves, wide waves from the first eighth
    /// of the order (reconvergent cones that go dense), and sparse and
    /// full `rebase`/`rebase_scoped` calls. Each DAG with more than one
    /// word of positions must run both sparse waves and dense tails.
    #[test]
    fn sweep_matches_cold_on_non_topological_ids() {
        let mut rng = StdRng::seed_from_u64(37);
        let c17_backwards = {
            let (gates, head): (Vec<&str>, Vec<&str>) =
                C17_BENCH.lines().partition(|l| l.contains('='));
            let mut text = head.join("\n") + "\n";
            for line in gates.iter().rev() {
                text.push_str(line);
                text.push('\n');
            }
            text
        };
        let benches = [
            c17_backwards,
            random_bench(&mut rng, 12, 300),
            random_bench(&mut rng, 40, 500),
        ];
        for (b, text) in benches.iter().enumerate() {
            let netlist = parse_bench("shuffled", text).unwrap();
            let dags = [
                ("gate", SizingDag::gate_mode(&netlist).unwrap()),
                ("wire", SizingDag::gate_mode_with_wires(&netlist).unwrap()),
                ("transistor", SizingDag::transistor_mode(&netlist).unwrap()),
            ];
            for (mode, dag) in dags {
                let what = format!("bench {b} {mode}");
                let n = dag.num_vertices();
                // Wire vertices are numbered after every gate they feed;
                // past c17, the engine's positions are not the ids either.
                assert_eq!(ids_not_topological(&dag), mode == "wire", "{what}");
                assert!(
                    n <= 64
                        || dag
                            .topo_order()
                            .iter()
                            .enumerate()
                            .any(|(p, v)| v.index() != p),
                    "{what}: positions are ids"
                );
                let mut delays: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..4.0)).collect();
                let mut engine = IncrementalTiming::new(&dag, &delays).unwrap();
                assert_matches_cold(&mut engine, &dag, &what);
                let early: Vec<VertexId> = dag.topo_order()[..n.div_ceil(8)].to_vec();
                for step in 0..48 {
                    let what = format!("{what} step {step}");
                    match step % 4 {
                        0 => {
                            for _ in 0..rng.gen_range(1..4usize) {
                                let v = rng.gen_range(0..n);
                                delays[v] = rng.gen_range(0.25..5.0);
                                engine.set_delay(&dag, VertexId::new(v), delays[v]);
                            }
                            engine.propagate(&dag);
                        }
                        1 => {
                            for &v in &early {
                                delays[v.index()] *= rng.gen_range(0.5..2.0);
                                engine.set_delay(&dag, v, delays[v.index()]);
                            }
                            engine.propagate(&dag);
                        }
                        _ => {
                            let k = [1, 3, n / 4, n * 3 / 4][rng.gen_range(0..4usize)].max(1);
                            let scope: Vec<VertexId> =
                                (0..k).map(|_| VertexId::new(rng.gen_range(0..n))).collect();
                            for &v in &scope {
                                delays[v.index()] = rng.gen_range(0.25..5.0);
                            }
                            if step % 4 == 2 {
                                engine.rebase(&dag, &delays).unwrap();
                            } else {
                                engine.rebase_scoped(&dag, &delays, &scope).unwrap();
                            }
                        }
                    }
                    assert_matches_cold(&mut engine, &dag, &what);
                }
                if n > 64 {
                    let [sparse, dense] = engine.waves;
                    assert!(
                        sparse > 0 && dense > 0,
                        "{what}: {sparse} sparse, {dense} dense"
                    );
                }
            }
        }
    }
}
