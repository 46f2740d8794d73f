//! Persistent min-cost-flow solver backends behind the [`McfSolver`]
//! trait.
//!
//! A persistent solver owns a frozen [`NetworkTopology`] plus a mutable
//! [`CostLayer`], and keeps its internal scratch (residual capacities,
//! distance labels, node potentials, spanning trees) alive across
//! solves. Callers mutate costs/bounds/supplies through the layer and
//! re-solve without any reallocation; with warm starts enabled a solver
//! additionally seeds each re-solve from the previous solve's dual state
//! (SSP: node potentials; network simplex: the spanning tree), which is
//! the classic amortization for the D-phase's "solve a few tens of
//! nearly identical instances" pattern.
//!
//! Warm-started solves return *an* optimum — always certified by
//! [`FlowSolution::verify`] — but may select a different optimal vertex
//! than a cold solve when the optimum is degenerate. Cold solves are
//! bit-reproducible with the one-shot [`FlowNetwork`] entry points.

use crate::error::FlowError;
use crate::network::{FlowNetwork, FlowSolution};
use crate::topology::{CostLayer, NetworkTopology};
use crate::ArcId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc as Shared;

const COST_INF: i64 = i64::MAX / 4;

/// A cooperative cancellation check a caller can install into a
/// persistent solver ([`McfSolver::set_cancel_probe`]).
///
/// Solvers poll the probe at iteration boundaries inside their solve
/// loops (SSP: per augmentation round; simplex backends: periodically
/// during pivoting) and abort with [`FlowError::Cancelled`] when it
/// answers `true`. Probes must be cheap — an atomic load and maybe an
/// `Instant` comparison — because they sit on the hot path.
pub trait CancelProbe: Send + Sync {
    /// Whether the computation should stop now.
    fn is_cancelled(&self) -> bool;
}

/// A cloneable handle around a shared [`CancelProbe`], shaped so
/// solvers that derive `Debug`/`Clone` can store one.
#[derive(Clone)]
pub struct ProbeHandle(Shared<dyn CancelProbe>);

impl ProbeHandle {
    /// Wraps a shared probe.
    pub fn new(probe: Shared<dyn CancelProbe>) -> Self {
        ProbeHandle(probe)
    }

    /// Polls the underlying probe.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.0.is_cancelled()
    }
}

impl std::fmt::Debug for ProbeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProbeHandle(..)")
    }
}

/// Read-only view of a flow instance, for certificate checking.
///
/// Implemented by [`FlowNetwork`] and by every persistent solver, so
/// [`FlowSolution::verify`] can check a solution against either.
pub trait McfInstance {
    /// Number of nodes.
    fn num_nodes(&self) -> usize;
    /// Number of public arcs.
    fn num_arcs(&self) -> usize;
    /// Supply of node `v`.
    fn supply(&self, v: usize) -> f64;
    /// `(from, to, capacity, cost)` of public arc `k`.
    fn arc_info(&self, k: ArcId) -> (usize, usize, f64, i64);
}

/// Cold/warm solve counters of a persistent solver.
///
/// `cold_solves`/`warm_solves` count solves that ran to **completion**;
/// failed attempts (infeasible, negative cycle, pivot cap) are not
/// counted. The fallback/repair fields count events at occurrence
/// during warm-start attempts, whether or not the solve then succeeds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Completed solves started from scratch.
    pub cold_solves: usize,
    /// Completed solves seeded from previous dual state.
    pub warm_solves: usize,
    /// Warm attempts whose retained state was unusable (a
    /// primal-infeasible simplex basis beyond repair, or a retained SSP
    /// flow made suboptimal by cost changes / not cheaply repairable).
    /// The simplex falls back to a **cold** start; the SSP falls back
    /// one level, to its potentials-only warm start, so an SSP solve
    /// can count under both `warm_fallbacks` and `warm_solves`.
    pub warm_fallbacks: usize,
    /// Warm solves that repaired a primal-infeasible basis in place
    /// (network simplex only: infeasible tree arcs pinned at a bound and
    /// swapped for artificial arcs).
    pub warm_repairs: usize,
    /// Warm SSP solves that retained the previous optimal flow and
    /// shipped only the supply delta (a subset of `warm_solves`).
    pub flow_reuses: usize,
    /// Simplex pivots performed across completed solves (primal and
    /// dual pivots both count; the SSP/reference backends leave this 0).
    pub pivots: usize,
    /// Arcs covered by entering-arc selections across completed solves
    /// (simplex backends only): the arcs a scanning rule priced, and
    /// for block-cached Dantzig every arc per selection, whether its
    /// block was re-priced or served from the cache. It counts the
    /// selections' reach, not the per-pivot pricing work.
    pub arcs_scanned: usize,
}

impl SolverStats {
    /// Total solves performed.
    pub fn total(&self) -> usize {
        self.cold_solves + self.warm_solves
    }

    /// The counter increments since `baseline` (a snapshot taken
    /// earlier from the same solver), for per-run attribution when one
    /// persistent solver is shared across runs.
    pub fn since(&self, baseline: &SolverStats) -> SolverStats {
        SolverStats {
            cold_solves: self.cold_solves - baseline.cold_solves,
            warm_solves: self.warm_solves - baseline.warm_solves,
            warm_fallbacks: self.warm_fallbacks - baseline.warm_fallbacks,
            warm_repairs: self.warm_repairs - baseline.warm_repairs,
            flow_reuses: self.flow_reuses - baseline.flow_reuses,
            pivots: self.pivots - baseline.pivots,
            arcs_scanned: self.arcs_scanned - baseline.arcs_scanned,
        }
    }

    /// The element-wise sum of two counter sets, for accumulating
    /// per-run increments into a service-lifetime total.
    pub fn merged(&self, other: &SolverStats) -> SolverStats {
        SolverStats {
            cold_solves: self.cold_solves + other.cold_solves,
            warm_solves: self.warm_solves + other.warm_solves,
            warm_fallbacks: self.warm_fallbacks + other.warm_fallbacks,
            warm_repairs: self.warm_repairs + other.warm_repairs,
            flow_reuses: self.flow_reuses + other.flow_reuses,
            pivots: self.pivots + other.pivots,
            arcs_scanned: self.arcs_scanned + other.arcs_scanned,
        }
    }
}

/// A persistent min-cost-flow solver over a frozen topology.
///
/// Every solver is also an [`McfInstance`], so solutions can be
/// certificate-checked directly against the solver that produced them.
pub trait McfSolver: McfInstance + std::fmt::Debug + Send {
    /// Identifies the backend (for reports and benches).
    fn name(&self) -> &'static str;
    /// The frozen arc structure.
    fn topology(&self) -> &NetworkTopology;
    /// The mutable cost/bound layer.
    fn layer(&self) -> &CostLayer;
    /// Mutable access to costs, capacities and supplies.
    fn layer_mut(&mut self) -> &mut CostLayer;
    /// Enables or disables warm starts for subsequent solves.
    fn set_warm_start(&mut self, enabled: bool);
    /// Whether warm starts are enabled.
    fn warm_start(&self) -> bool;
    /// Drops any retained warm state; the next solve runs cold.
    fn invalidate(&mut self);
    /// Installs (or clears, with `None`) a cooperative cancellation
    /// probe polled at iteration boundaries inside the solve loop; a
    /// positive poll aborts the solve with [`FlowError::Cancelled`].
    /// Backends without cancellation support ignore it (default no-op).
    fn set_cancel_probe(&mut self, _probe: Option<ProbeHandle>) {}
    /// Solves the current instance.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FlowNetwork::solve`]: unbalanced supplies,
    /// negative cycles, or infeasibility.
    fn solve(&mut self) -> Result<FlowSolution, FlowError>;
    /// Cold/warm counters since construction.
    fn stats(&self) -> SolverStats;
}

macro_rules! impl_instance_for_solver {
    ($ty:ty) => {
        impl McfInstance for $ty {
            fn num_nodes(&self) -> usize {
                self.topo.num_nodes()
            }
            fn num_arcs(&self) -> usize {
                self.topo.num_arcs()
            }
            fn supply(&self, v: usize) -> f64 {
                self.layer.supply(v)
            }
            fn arc_info(&self, k: ArcId) -> (usize, usize, f64, i64) {
                let (from, to) = self.topo.arc_endpoints(k);
                (from, to, self.layer.capacity(k), self.layer.cost(k))
            }
        }
    };
}
pub(crate) use impl_instance_for_solver;

/// Successive-shortest-path-forests backend with persistent potentials
/// and optional *flow reuse*.
///
/// Cold solves reproduce [`FlowNetwork::solve`] exactly. Warm solves
/// keep two levels of state from the previous solve:
///
/// 1. **Node potentials** — instead of the from-zero Bellman–Ford
///    bootstrap, a relaxation *repair* sweep starts at the retained
///    potentials and converges in one or two passes when costs moved
///    only slightly.
/// 2. **The optimal flow itself** — the retained flow is kept in place
///    and only the *supply delta* is shipped through the residual
///    network (the classic sensitivity-analysis warm start). Flow
///    decomposition guarantees the delta instance is feasible iff the
///    new instance is; optimality follows because the potential repair
///    certifies the retained flow is still optimal *for its own
///    supplies* under the new costs. When it is not (the repair finds a
///    negative residual cycle) or a capacity dropped below the retained
///    flow, the solve falls back to a cold start and counts a
///    [`SolverStats::warm_fallbacks`] event.
#[derive(Debug, Clone)]
pub struct SspSolver {
    topo: Shared<NetworkTopology>,
    layer: CostLayer,
    warm_enabled: bool,
    /// Potentials from the previous successful solve are retained.
    has_state: bool,
    /// Whether `residual` still encodes the previous solve's optimal
    /// flow (for `prev_supply`), enabling delta shipping.
    has_flow: bool,
    pi: Vec<i64>,
    /// Supplies the retained flow was solved for.
    prev_supply: Vec<f64>,
    // Per-solve scratch, allocated once.
    residual: Vec<f64>,
    dist: Vec<i64>,
    parent: Vec<Option<u32>>,
    finalized: Vec<bool>,
    pending_sink: Vec<bool>,
    heap: BinaryHeap<Reverse<(i64, u32)>>,
    stats: SolverStats,
    probe: Option<ProbeHandle>,
}

impl_instance_for_solver!(SspSolver);

impl SspSolver {
    /// Builds a persistent solver from a one-shot network description.
    pub fn new(net: &FlowNetwork) -> Self {
        let (topo, layer) = net.freeze();
        Self::from_parts(Shared::new(topo), layer)
    }

    /// Builds a persistent solver from pre-split parts.
    ///
    /// # Panics
    ///
    /// Panics if the layer's shape does not match the topology.
    pub fn from_parts(topo: Shared<NetworkTopology>, layer: CostLayer) -> Self {
        assert_eq!(layer.costs.len(), topo.num_arcs(), "one cost per arc");
        assert_eq!(layer.supply.len(), topo.num_nodes(), "one supply per node");
        let nodes = topo.internal_nodes();
        let arcs = topo.internal_arcs();
        SspSolver {
            warm_enabled: false,
            has_state: false,
            has_flow: false,
            pi: vec![0; nodes],
            prev_supply: vec![0.0; layer.supply.len()],
            layer,
            residual: vec![0.0; arcs],
            dist: vec![COST_INF; nodes],
            parent: vec![None; nodes],
            finalized: vec![false; nodes],
            pending_sink: vec![false; nodes],
            heap: BinaryHeap::new(),
            stats: SolverStats::default(),
            probe: None,
            topo,
        }
    }

    /// Cost of internal arc `i` (backward arcs negate; super arcs free).
    #[inline]
    fn arc_cost(&self, i: usize) -> i64 {
        let m2 = 2 * self.topo.num_arcs();
        if i < m2 {
            let c = self.layer.costs[i >> 1];
            if i & 1 == 0 {
                c
            } else {
                -c
            }
        } else {
            0
        }
    }

    /// Loads initial residual capacities for the current layer state.
    fn load_residuals(&mut self) {
        let m = self.topo.num_arcs();
        for k in 0..m {
            self.residual[2 * k] = self.layer.caps[k];
            self.residual[2 * k + 1] = 0.0;
        }
        for v in 0..self.topo.num_nodes() {
            let s = self.layer.supply[v];
            let sa = self.topo.source_arc(v);
            let ta = self.topo.sink_arc(v);
            self.residual[sa] = s.max(0.0);
            self.residual[sa + 1] = 0.0;
            self.residual[ta] = (-s).max(0.0);
            self.residual[ta + 1] = 0.0;
        }
    }

    /// Relaxation sweeps establishing `cost + π(u) − π(v) ≥ 0` on every
    /// arc with positive residual, starting from the current `pi`, with
    /// at most `max_rounds` sweeps.
    ///
    /// From all-zero this is the classic Bellman–Ford bootstrap (pass
    /// `internal_nodes() + 1` so non-convergence certifies a negative
    /// cycle); from retained potentials it is the warm-start repair,
    /// where a small `max_rounds` turns "this state is not cheaply
    /// repairable" into a fast bail-out instead of a full
    /// negative-cycle proof.
    fn repair_potentials(&mut self, max_rounds: usize) -> Result<(), FlowError> {
        let n = self.topo.internal_nodes();
        let mut changed = true;
        let mut rounds = 0usize;
        while changed {
            changed = false;
            rounds += 1;
            if rounds > max_rounds {
                return Err(FlowError::NegativeCycle);
            }
            for u in 0..n {
                for &ai in self.topo.adjacent(u) {
                    let ai = ai as usize;
                    if self.residual[ai] <= 0.0 {
                        continue;
                    }
                    let v = self.topo.arc_to[ai] as usize;
                    let nd = self.pi[u] + self.arc_cost(ai);
                    if nd < self.pi[v] {
                        self.pi[v] = nd;
                        changed = true;
                    }
                }
            }
        }
        Ok(())
    }

    /// Attempts to reuse the retained optimal flow: keeps the public-arc
    /// residuals in place, loads super-arc residuals with the *supply
    /// delta* against [`SspSolver::prev_supply`], and repairs the
    /// potentials over the loaded residual graph. Returns the amount of
    /// delta supply to ship, or `None` when the retained flow is
    /// unusable (a capacity dropped below it, or cost changes left it
    /// suboptimal — a negative residual cycle during repair).
    fn try_load_delta(&mut self) -> Option<f64> {
        let m = self.topo.num_arcs();
        for k in 0..m {
            if self.layer.caps[k] < self.residual[2 * k + 1] {
                return None; // capacity dropped below the retained flow
            }
        }
        for k in 0..m {
            self.residual[2 * k] = self.layer.caps[k] - self.residual[2 * k + 1];
        }
        let mut delta_pos = 0.0f64;
        for v in 0..self.topo.num_nodes() {
            let d = self.layer.supply[v] - self.prev_supply[v];
            let sa = self.topo.source_arc(v);
            let ta = self.topo.sink_arc(v);
            self.residual[sa] = d.max(0.0);
            self.residual[sa + 1] = 0.0;
            self.residual[ta] = (-d).max(0.0);
            self.residual[ta + 1] = 0.0;
            delta_pos += d.max(0.0);
        }
        // The residual graph now contains backward arcs of loaded public
        // arcs (cost −c). On small networks run the full repair (its
        // non-convergence then certifies a negative residual cycle, i.e.
        // a genuinely stale flow); on large ones cap the sweeps so "not
        // cheaply repairable" bails out to the cold path instead of
        // paying a full O(V·E) negative-cycle proof just to learn the
        // state is stale.
        let cap = (self.topo.internal_nodes() + 1).min(16);
        self.repair_potentials(cap).ok()?;
        Some(delta_pos)
    }

    fn solve_inner(&mut self) -> Result<FlowSolution, FlowError> {
        let (total_pos, scale) = self.layer.check_balance()?;
        let topo = Shared::clone(&self.topo);
        let n = topo.internal_nodes();
        let s = topo.source();
        let t = topo.sink();

        let warm = self.warm_enabled && self.has_state;
        // Flow reuse: ship only the supply delta against the retained
        // optimal flow. Falls back to the potentials-only warm start
        // (fresh residuals) when the retained flow is unusable.
        let mut reused_flow = false;
        let mut to_ship = total_pos;
        if warm && self.has_flow {
            match self.try_load_delta() {
                Some(delta_pos) => {
                    reused_flow = true;
                    to_ship = delta_pos;
                }
                None => self.stats.warm_fallbacks += 1,
            }
        }
        if !reused_flow {
            self.load_residuals();
            if warm {
                // Retained potentials may violate reduced-cost
                // feasibility after cost updates; repair them in place.
                self.repair_potentials(n + 1)?;
            } else {
                self.pi.iter_mut().for_each(|p| *p = 0);
                // Bellman–Ford bootstrap only when negative costs exist —
                // identical to the one-shot solver.
                let m = topo.num_arcs();
                if (0..m).any(|k| self.layer.caps[k] > 0.0 && self.layer.costs[k] < 0) {
                    self.repair_potentials(n + 1)?;
                }
            }
        }
        // Only a completed solve leaves warm state.
        self.has_state = false;
        self.has_flow = false;

        // Successive shortest-path forests (see FlowNetwork::solve docs).
        let eps_term = 1e-14 * scale;
        let mut remaining = to_ship;
        let mut shipped = if reused_flow {
            total_pos - to_ship
        } else {
            0.0
        };
        while remaining > eps_term {
            // Warm state was invalidated above, so bailing out here
            // leaves the solver clean: the next solve runs cold.
            if self.probe.as_ref().is_some_and(ProbeHandle::is_cancelled) {
                return Err(FlowError::Cancelled);
            }
            self.dist.iter_mut().for_each(|d| *d = COST_INF);
            self.parent.iter_mut().for_each(|p| *p = None);
            self.finalized.iter_mut().for_each(|f| *f = false);
            self.pending_sink.iter_mut().for_each(|p| *p = false);
            let mut pending = 0usize;
            for v in 0..topo.num_nodes() {
                if self.residual[topo.sink_arc(v)] > 0.0 && !self.pending_sink[v] {
                    self.pending_sink[v] = true;
                    pending += 1;
                }
            }
            self.heap.clear();
            self.dist[s] = 0;
            self.heap.push(Reverse((0, s as u32)));
            while let Some(Reverse((d, u))) = self.heap.pop() {
                let u = u as usize;
                if self.finalized[u] {
                    continue;
                }
                self.finalized[u] = true;
                if self.pending_sink[u] {
                    self.pending_sink[u] = false;
                    pending -= 1;
                    if pending == 0 {
                        break;
                    }
                }
                for &ai in topo.adjacent(u) {
                    let ai = ai as usize;
                    if self.residual[ai] <= 0.0 || topo.arc_to[ai] as usize == t {
                        continue;
                    }
                    let v = topo.arc_to[ai] as usize;
                    let rc = self.arc_cost(ai) + self.pi[u] - self.pi[v];
                    debug_assert!(rc >= 0, "reduced cost must stay non-negative");
                    let nd = d + rc;
                    if nd < self.dist[v] {
                        self.dist[v] = nd;
                        self.parent[v] = Some(ai as u32);
                        self.heap.push(Reverse((nd, v as u32)));
                    }
                }
            }
            // Sinks with remaining demand reachable this round, nearest
            // first (ties broken by node order, as in the one-shot path).
            let mut candidates: Vec<(i64, u32)> = (0..topo.num_nodes())
                .filter_map(|v| {
                    let ai = topo.sink_arc(v);
                    (self.residual[ai] > 0.0 && self.finalized[v])
                        .then_some((self.dist[v], ai as u32))
                })
                .collect();
            if candidates.is_empty() {
                if remaining <= 1e-6 * scale {
                    break;
                }
                return Err(FlowError::Infeasible {
                    unshipped: remaining,
                });
            }
            candidates.sort_unstable();
            let mut d_max = 0i64;
            for (dv, sink_arc) in candidates {
                let sink_arc = sink_arc as usize;
                let v0 = topo.arc_from(sink_arc);
                let mut delta = self.residual[sink_arc];
                let mut v = v0;
                while let Some(ai) = self.parent[v] {
                    delta = delta.min(self.residual[ai as usize]);
                    v = topo.arc_from(ai as usize);
                }
                if delta <= 0.0 || delta.is_nan() {
                    continue; // an earlier path saturated a shared arc
                }
                self.residual[sink_arc] -= delta;
                self.residual[sink_arc ^ 1] += delta;
                let mut v = v0;
                while let Some(ai) = self.parent[v] {
                    let ai = ai as usize;
                    self.residual[ai] -= delta;
                    self.residual[ai ^ 1] += delta;
                    v = topo.arc_from(ai);
                }
                remaining -= delta;
                shipped += delta;
                d_max = d_max.max(dv);
            }
            for v in 0..n {
                self.pi[v] += self.dist[v].min(d_max);
            }
        }

        let m = topo.num_arcs();
        let mut flows = vec![0.0; m];
        let mut total_cost = 0.0;
        for (k, flow) in flows.iter_mut().enumerate() {
            let f = self.residual[2 * k + 1];
            *flow = f;
            total_cost += f * self.layer.costs[k] as f64;
        }
        self.has_state = true;
        self.has_flow = true;
        self.prev_supply.copy_from_slice(&self.layer.supply);
        // Counters track *completed* solves; failed attempts are not
        // counted (the warm-fallback/repair events are, at occurrence).
        if warm {
            self.stats.warm_solves += 1;
            if reused_flow {
                self.stats.flow_reuses += 1;
            }
        } else {
            self.stats.cold_solves += 1;
        }
        Ok(FlowSolution {
            flows,
            potentials: self.pi[..topo.num_nodes()].to_vec(),
            total_cost,
            shipped,
        })
    }
}

impl McfSolver for SspSolver {
    fn name(&self) -> &'static str {
        "ssp"
    }
    fn topology(&self) -> &NetworkTopology {
        &self.topo
    }
    fn layer(&self) -> &CostLayer {
        &self.layer
    }
    fn layer_mut(&mut self) -> &mut CostLayer {
        &mut self.layer
    }
    fn set_warm_start(&mut self, enabled: bool) {
        self.warm_enabled = enabled;
    }
    fn warm_start(&self) -> bool {
        self.warm_enabled
    }
    fn invalidate(&mut self) {
        self.has_state = false;
        self.has_flow = false;
    }
    fn set_cancel_probe(&mut self, probe: Option<ProbeHandle>) {
        self.probe = probe;
    }
    fn solve(&mut self) -> Result<FlowSolution, FlowError> {
        self.solve_inner()
    }
    fn stats(&self) -> SolverStats {
        self.stats
    }
}

/// Label-correcting reference backend: Bellman–Ford per augmentation.
///
/// Always solves cold (`O(V·E)` per augmenting path) — it exists to
/// cross-check the fast backends, so it deliberately shares none of
/// their machinery. It still implements [`McfSolver`] so the three
/// backends are interchangeable in tests and cross-validation, and it
/// emits certified potentials (recomputed from the optimal flow).
#[derive(Debug, Clone)]
pub struct ReferenceSolver {
    topo: Shared<NetworkTopology>,
    layer: CostLayer,
    residual: Vec<f64>,
    stats: SolverStats,
}

impl_instance_for_solver!(ReferenceSolver);

impl ReferenceSolver {
    /// Builds a reference solver from a one-shot network description.
    pub fn new(net: &FlowNetwork) -> Self {
        let (topo, layer) = net.freeze();
        Self::from_parts(Shared::new(topo), layer)
    }

    /// Builds a reference solver from pre-split parts.
    ///
    /// # Panics
    ///
    /// Panics if the layer's shape does not match the topology.
    pub fn from_parts(topo: Shared<NetworkTopology>, layer: CostLayer) -> Self {
        assert_eq!(layer.costs.len(), topo.num_arcs(), "one cost per arc");
        assert_eq!(layer.supply.len(), topo.num_nodes(), "one supply per node");
        let arcs = topo.internal_arcs();
        ReferenceSolver {
            layer,
            residual: vec![0.0; arcs],
            stats: SolverStats::default(),
            topo,
        }
    }

    fn arc_cost(&self, i: usize) -> i64 {
        let m2 = 2 * self.topo.num_arcs();
        if i < m2 {
            let c = self.layer.costs[i >> 1];
            if i & 1 == 0 {
                c
            } else {
                -c
            }
        } else {
            0
        }
    }

    fn solve_inner(&mut self) -> Result<FlowSolution, FlowError> {
        let (total_pos, scale) = self.layer.check_balance()?;
        let topo = Shared::clone(&self.topo);
        let n = topo.internal_nodes();
        let s = topo.source();
        let t = topo.sink();
        let m = topo.num_arcs();
        for k in 0..m {
            self.residual[2 * k] = self.layer.caps[k];
            self.residual[2 * k + 1] = 0.0;
        }
        for v in 0..topo.num_nodes() {
            let sv = self.layer.supply[v];
            let sa = topo.source_arc(v);
            let ta = topo.sink_arc(v);
            self.residual[sa] = sv.max(0.0);
            self.residual[sa + 1] = 0.0;
            self.residual[ta] = (-sv).max(0.0);
            self.residual[ta + 1] = 0.0;
        }
        let eps_term = 1e-14 * scale;
        let mut remaining = total_pos;
        let mut shipped = 0.0;
        while remaining > eps_term {
            let mut dist = vec![COST_INF; n];
            let mut parent: Vec<Option<u32>> = vec![None; n];
            dist[s] = 0;
            let mut changed = true;
            let mut rounds = 0usize;
            while changed {
                changed = false;
                rounds += 1;
                if rounds > n + 1 {
                    return Err(FlowError::NegativeCycle);
                }
                for u in 0..n {
                    if dist[u] >= COST_INF {
                        continue;
                    }
                    for &ai in topo.adjacent(u) {
                        let ai = ai as usize;
                        if self.residual[ai] <= 0.0 {
                            continue;
                        }
                        let v = topo.arc_to[ai] as usize;
                        let nd = dist[u] + self.arc_cost(ai);
                        if nd < dist[v] {
                            dist[v] = nd;
                            parent[v] = Some(ai as u32);
                            changed = true;
                        }
                    }
                }
            }
            if dist[t] >= COST_INF {
                if remaining <= 1e-6 * scale {
                    break;
                }
                return Err(FlowError::Infeasible {
                    unshipped: remaining,
                });
            }
            let mut delta = f64::INFINITY;
            let mut v = t;
            while let Some(ai) = parent[v] {
                delta = delta.min(self.residual[ai as usize]);
                v = topo.arc_from(ai as usize);
            }
            let mut v = t;
            while let Some(ai) = parent[v] {
                let ai = ai as usize;
                self.residual[ai] -= delta;
                self.residual[ai ^ 1] += delta;
                v = topo.arc_from(ai);
            }
            remaining -= delta;
            shipped += delta;
        }
        let mut flows = vec![0.0; m];
        let mut total_cost = 0.0;
        for (k, flow) in flows.iter_mut().enumerate() {
            *flow = self.residual[2 * k + 1];
            total_cost += *flow * self.layer.costs[k] as f64;
        }
        // Certified potentials from the optimal flow: shortest walks over
        // the residual graph of real arcs (all-zero init; the optimal
        // residual graph has no negative cycle).
        let nn = topo.num_nodes();
        let dust = 1e-12 * scale;
        let mut pi = vec![0i64; nn];
        let mut changed = true;
        let mut rounds = 0usize;
        while changed {
            changed = false;
            rounds += 1;
            if rounds > nn + 1 {
                return Err(FlowError::BadInput {
                    message: "residual graph of the optimal flow has a negative cycle".to_owned(),
                });
            }
            for (k, &flow_k) in flows.iter().enumerate() {
                let (u, v) = topo.arc_endpoints(k);
                let c = self.layer.costs[k];
                // Dust-tolerant on both bounds: an arc saturated to
                // within an ulp of its capacity must not contribute a
                // forward residual arc, or a spurious "negative cycle"
                // of ~1e-16 capacity derails the relaxation.
                if self.layer.caps[k] - flow_k > dust && pi[u] + c < pi[v] {
                    pi[v] = pi[u] + c;
                    changed = true;
                }
                if flow_k > dust && pi[v] - c < pi[u] {
                    pi[u] = pi[v] - c;
                    changed = true;
                }
            }
        }
        self.stats.cold_solves += 1;
        Ok(FlowSolution {
            flows,
            potentials: pi,
            total_cost,
            shipped,
        })
    }
}

impl McfSolver for ReferenceSolver {
    fn name(&self) -> &'static str {
        "reference"
    }
    fn topology(&self) -> &NetworkTopology {
        &self.topo
    }
    fn layer(&self) -> &CostLayer {
        &self.layer
    }
    fn layer_mut(&mut self) -> &mut CostLayer {
        &mut self.layer
    }
    fn set_warm_start(&mut self, _enabled: bool) {
        // The reference backend has no warm state by design.
    }
    fn warm_start(&self) -> bool {
        false
    }
    fn invalidate(&mut self) {}
    fn solve(&mut self) -> Result<FlowSolution, FlowError> {
        self.solve_inner()
    }
    fn stats(&self) -> SolverStats {
        self.stats
    }
}
