//! The persistent min-cost-flow solver interface ([`McfSolver`]) and
//! the label-correcting [`ReferenceSolver`] that tests check the
//! network simplex against.
//!
//! A persistent solver owns a frozen [`NetworkTopology`] plus a mutable
//! [`CostLayer`], and keeps its internal scratch alive across solves.
//! Callers mutate costs/bounds/supplies through the layer and re-solve
//! without any reallocation; with warm starts enabled the
//! [`SimplexSolver`](crate::SimplexSolver) additionally seeds each
//! re-solve from the previous solve's spanning tree, which is the
//! classic amortization for the D-phase's "solve a few tens of nearly
//! identical instances" pattern.
//!
//! Warm-started solves return *an* optimum — always certified by
//! [`FlowSolution::verify`] — but may select a different optimal vertex
//! than a cold solve when the optimum is degenerate. Cold solves are
//! bit-reproducible with the one-shot [`FlowNetwork`] entry points.

use crate::error::FlowError;
use crate::network::{FlowNetwork, FlowSolution};
use crate::topology::{CostLayer, NetworkTopology};
use crate::ArcId;
use std::sync::Arc as Shared;

const COST_INF: i64 = i64::MAX / 4;

/// A cooperative cancellation check a caller can install into a
/// persistent solver ([`McfSolver::set_cancel_probe`]).
///
/// The network simplex polls the probe periodically during pivoting
/// and aborts with [`FlowError::Cancelled`] when it
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
    /// Warm attempts whose retained spanning tree was unusable (a
    /// non-basic flow above a shrunk capacity, or a tree that no longer
    /// spans); the solve falls back to a **cold** start.
    pub warm_fallbacks: usize,
    /// Warm solves that repaired a primal-infeasible basis in place
    /// (infeasible tree arcs pinned at a bound and swapped for
    /// artificial arcs).
    pub warm_repairs: usize,
    /// Simplex pivots performed across completed solves (the reference
    /// backend leaves this 0).
    pub pivots: usize,
    /// Arcs covered by Dantzig entering-arc selections across completed
    /// solves: every arc per selection, whether its block was re-priced
    /// or served from the cache. It counts the selections' reach, not
    /// the per-pivot pricing work.
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

/// Label-correcting reference backend: Bellman–Ford per augmentation.
///
/// Always solves cold (`O(V·E)` per augmenting path) — it exists to
/// cross-check the network simplex, so it deliberately shares none of
/// its machinery. It still implements [`McfSolver`] so tests can
/// substitute it for the simplex, and it emits certified potentials
/// (recomputed from the optimal flow).
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
