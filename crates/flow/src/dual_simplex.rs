//! A dual network simplex backend tuned for the D-phase rewrite
//! pattern.
//!
//! The D-phase re-solves an almost-identical min-cost-flow instance
//! every sizing iteration: arc *costs* (LP bounds) and node *supplies*
//! (LP objective weights) drift a little, the topology never changes.
//! The primal [`SimplexSolver`] warm-starts by **repairing** the basis
//! back to primal feasibility — every out-of-bound tree arc is pinned
//! and swapped for a big-`M` artificial arc that later pivots must
//! drain. The dual simplex takes the complementary route:
//!
//! * the previous spanning tree is kept as-is and its potentials are
//!   recomputed for the new costs (the basis stays *dual* feasible up
//!   to bound flips of non-basic arcs);
//! * tree-arc flows are recomputed leaf-to-root for the new supplies
//!   **without** repair — out-of-bound tree flows are allowed;
//! * dual pivots then drive out the primal infeasibility directly: the
//!   most violated tree arc leaves at its bound, and the minimum
//!   reduced-cost-ratio arc across the induced cut enters (with
//!   bound *flips* of cheaper cut arcs when the entering arc alone
//!   cannot absorb the violation).
//!
//! No artificial flow is ever (re-)introduced on the warm path, which
//! is exactly why it wins on the bounds-only rewrite pattern: the
//! primal repair's big-`M` detour is the dominant cost there.
//!
//! A short primal clean-up pass (shared [`SimplexSolver::run_pivots`])
//! runs after the dual loop to clear any *dual* infeasibility the flip
//! step could not remove — uncapacitated arcs whose reduced cost went
//! negative have no upper bound to flip to. On the supply-drift
//! pattern this pass typically finds the basis already optimal.
//!
//! Cold solves (first solve, warm starts disabled, or a dual loop that
//! hits its safety cap) delegate to the primal cold path and are
//! bit-identical to [`SimplexSolver`] with
//! [`PivotRule::Dantzig`](crate::PivotRule::Dantzig) pricing.

use crate::error::FlowError;
use crate::network::{FlowNetwork, FlowSolution};
use crate::solver::{McfInstance, McfSolver, SolverStats};
use crate::topology::{CostLayer, NetworkTopology};
use crate::ArcId;
use crate::SimplexSolver;
use std::sync::Arc as Shared;

/// Persistent dual network simplex backend.
///
/// Wraps the primal solver's tree machinery ([`SimplexSolver`]) and
/// replaces its warm-start path with dual pivots; see the module docs
/// for the algorithm.
#[derive(Debug, Clone)]
pub struct DualSimplexSolver {
    core: SimplexSolver,
    /// Scratch: cut membership (subtree side) per node, root included.
    in_subtree: Vec<bool>,
    /// Scratch: BFS queue for subtree marking.
    mark_queue: Vec<usize>,
    /// Scratch: entering candidates of one dual pivot
    /// `(ratio, arc, forward, residual)`.
    candidates: Vec<(i128, usize, bool, f64)>,
}

impl McfInstance for DualSimplexSolver {
    fn num_nodes(&self) -> usize {
        self.core.num_nodes()
    }
    fn num_arcs(&self) -> usize {
        self.core.num_arcs()
    }
    fn supply(&self, v: usize) -> f64 {
        self.core.supply(v)
    }
    fn arc_info(&self, k: ArcId) -> (usize, usize, f64, i64) {
        self.core.arc_info(k)
    }
}

impl DualSimplexSolver {
    /// Builds a persistent dual solver from a one-shot network
    /// description.
    pub fn new(net: &FlowNetwork) -> Self {
        let (topo, layer) = net.freeze();
        Self::from_parts(Shared::new(topo), layer)
    }

    /// Builds a persistent dual solver from pre-split parts.
    ///
    /// # Panics
    ///
    /// Panics if the layer's shape does not match the topology.
    pub fn from_parts(topo: Shared<NetworkTopology>, layer: CostLayer) -> Self {
        let num_nodes = topo.num_nodes() + 1;
        DualSimplexSolver {
            core: SimplexSolver::from_parts(topo, layer),
            in_subtree: vec![false; num_nodes],
            mark_queue: Vec::with_capacity(num_nodes),
            candidates: Vec::new(),
        }
    }

    /// Re-seats the retained spanning tree as a *dual-feasible* basis
    /// for the current costs/supplies. Non-basic arcs are flipped to
    /// whichever bound their new reduced-cost sign demands (capacitated
    /// arcs only — an uncapacitated dual violation is left for the
    /// primal clean-up); tree flows are then recomputed without repair.
    /// Returns `false` when the retained tree no longer spans (a broken
    /// invariant): the caller cold-starts.
    fn prepare_dual_basis(&mut self, big_m: i64) -> bool {
        let core = &mut self.core;
        let n = core.topo.num_nodes();
        let m = core.topo.num_arcs();
        core.rebuild_tree(big_m);
        if core.bfs_order.len() != n + 1 {
            return false;
        }
        for k in 0..m {
            if core.in_tree[k] {
                continue;
            }
            let (from, to) = core.topo.arc_endpoints(k);
            let rc = core.layer.costs[k] as i128 + core.pi[from] - core.pi[to];
            let cap = core.layer.caps[k];
            if rc > 0 {
                // Must sit at its lower bound to be dual feasible.
                core.flow[k] = 0.0;
            } else if rc < 0 && cap.is_finite() {
                // Must sit at its upper bound.
                core.flow[k] = cap;
            } else {
                // Degenerate (rc == 0) — any in-range value is dual
                // feasible — or uncapacitated with rc < 0, which has no
                // bound to flip to (primal clean-up handles it).
                core.flow[k] = core.flow[k].clamp(0.0, cap);
            }
        }
        // Non-basic artificial arcs stay at zero flow; orientation is
        // irrelevant until one enters (and is set then).
        for v in 0..n {
            if !core.in_tree[m + v] {
                core.flow[m + v] = 0.0;
            }
        }
        core.recompute_tree_flows();
        true
    }

    /// Marks the cut: `in_subtree[u]` for every node on the child side
    /// of tree arc `leave` (the side not containing the root), by BFS
    /// over the tree adjacency from child node `w` excluding `leave`.
    fn mark_subtree(&mut self, w: usize, leave: usize) {
        let core = &self.core;
        self.in_subtree.iter_mut().for_each(|b| *b = false);
        self.mark_queue.clear();
        self.in_subtree[w] = true;
        self.mark_queue.push(w);
        let mut head = 0;
        while head < self.mark_queue.len() {
            let u = self.mark_queue[head];
            head += 1;
            for &k in &core.tree_adj[u] {
                let k = k as usize;
                if k == leave {
                    continue;
                }
                let (from, to) = core.endpoints(k);
                let other = if from == u { to } else { from };
                if !self.in_subtree[other] {
                    self.in_subtree[other] = true;
                    self.mark_queue.push(other);
                }
            }
        }
    }

    /// Runs dual pivots until the basis is primal feasible. Returns
    /// `(pivots, arcs_scanned)`; bound-flip iterations count as pivots.
    ///
    /// # Errors
    ///
    /// [`FlowError::IterationLimit`] past the safety cap, and
    /// [`FlowError::Infeasible`] when a violated cut has no crossing
    /// arc able to carry the required flow (no entering candidate).
    /// Both send the caller to the cold path.
    fn dual_pivots(&mut self, big_m: i64, eps: f64) -> Result<(usize, usize), FlowError> {
        let n = self.core.topo.num_nodes();
        let m = self.core.topo.num_arcs();
        let root = n;
        let num_arcs = self.core.flow.len();
        let max_pivots = 200 * num_arcs + 10_000;
        let backward_eps = eps.min(1e-12);
        let mut pivots = 0usize;
        let mut scanned = 0usize;
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            if attempts > max_pivots {
                return Err(FlowError::IterationLimit { pivots: max_pivots });
            }
            // Cooperative cancellation, polled off the hot path; the
            // caller invalidates warm state on this error so the basis
            // left mid-repair is never reused.
            if attempts.is_multiple_of(64)
                && self
                    .core
                    .probe
                    .as_ref()
                    .is_some_and(crate::solver::ProbeHandle::is_cancelled)
            {
                return Err(FlowError::Cancelled);
            }
            // Leaving arc: the most primal-infeasible tree arc. Every
            // non-root node owns exactly one tree arc (to its parent).
            let mut worst: Option<(f64, usize)> = None;
            for v in 0..root {
                let k = self.core.parent_arc[v];
                let f = self.core.flow[k];
                let cap = self.core.arc_cap(k);
                let viol = if f < -eps {
                    -f
                } else if f > cap + eps {
                    f - cap
                } else {
                    continue;
                };
                if worst.is_none_or(|(b, _)| viol > b) {
                    worst = Some((viol, v));
                }
            }
            let Some((_, w)) = worst else {
                break; // primal feasible
            };
            pivots += 1;
            let leave = self.core.parent_arc[w];
            let (lfrom, lto) = self.core.endpoints(leave);
            let f = self.core.flow[leave];
            let cap = self.core.arc_cap(leave);
            let above = f > cap;
            let mut delta_needed = if above { f - cap } else { -f };
            self.mark_subtree(w, leave);
            // The correcting cycle passes `leave` backward when its flow
            // is above cap (forward when below zero); crossing the cut
            // the *other* way, the entering arc must then carry flow out
            // of the subtree iff the leaving arc's cut-facing endpoint
            // sits inside it.
            let out_of_s = if above {
                self.in_subtree[lfrom]
            } else {
                self.in_subtree[lto]
            };
            // Entering candidates: non-basic arcs crossing the cut with
            // residual in the needed direction, ranked by how much the
            // objective degrades per unit (their |reduced cost|).
            self.candidates.clear();
            for k in 0..num_arcs {
                scanned += 1;
                if self.core.in_tree[k] {
                    continue;
                }
                if k >= m {
                    // Artificial arc of node v: zero flow, infinite
                    // residual, orientation free. A last-resort entering
                    // candidate at big-M ratio whenever v is on the
                    // subtree side.
                    let v = k - m;
                    if !self.in_subtree[v] {
                        continue;
                    }
                    let ratio = if out_of_s {
                        big_m as i128 + self.core.pi[v] - self.core.pi[root]
                    } else {
                        big_m as i128 + self.core.pi[root] - self.core.pi[v]
                    };
                    self.candidates.push((ratio, k, true, f64::INFINITY));
                    continue;
                }
                let (a, b) = self.core.topo.arc_endpoints(k);
                let (ina, inb) = (self.in_subtree[a], self.in_subtree[b]);
                if ina == inb {
                    continue;
                }
                let rc = self.core.layer.costs[k] as i128 + self.core.pi[a] - self.core.pi[b];
                if ina == out_of_s {
                    // The arc's own direction (a → b) is the needed one.
                    let residual = self.core.layer.caps[k] - self.core.flow[k];
                    if residual > 0.0 {
                        self.candidates.push((rc, k, true, residual));
                    }
                } else {
                    // Needed direction is b → a: back existing flow off.
                    let residual = self.core.flow[k];
                    if residual > backward_eps {
                        self.candidates.push((-rc, k, false, residual));
                    }
                }
            }
            // Min-ratio walk: flip candidates too small to absorb the
            // violation (they jump to their far bound; the potential
            // shift of the eventual entering arc crosses their reduced
            // cost, so the flip is dual-legal), then enter the one that
            // covers the rest.
            let mut entering: Option<(usize, bool)> = None;
            while let Some(best) = self
                .candidates
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| (a.0, a.1).cmp(&(b.0, b.1)))
                .map(|(i, _)| i)
            {
                let (_, k, forward, residual) = self.candidates.swap_remove(best);
                if residual >= delta_needed || self.candidates.is_empty() {
                    entering = Some((k, forward));
                    break;
                }
                // Bound flip: the arc stays non-basic at its far bound.
                self.core.flow[k] = if forward {
                    self.core.layer.caps[k]
                } else {
                    0.0
                };
                delta_needed -= residual;
            }
            let Some((entering, forward)) = entering else {
                // No arc crosses the violated cut in the needed
                // direction at all — should be unreachable while the
                // artificial arcs are around, but fail safe.
                return Err(FlowError::Infeasible {
                    unshipped: delta_needed,
                });
            };
            // Basis exchange: pin the leaving arc at its violated bound,
            // admit the entering arc, and recompute the tree flows from
            // scratch (the entering arc's flow falls out of the
            // leaf-to-root elimination).
            self.core.flow[leave] = if above { cap } else { 0.0 };
            self.core.in_tree[leave] = false;
            if entering >= m {
                self.core.art_to_root[entering - m] = out_of_s;
            }
            let _ = forward;
            self.core.in_tree[entering] = true;
            self.core.rebuild_tree(big_m);
            self.core.recompute_tree_flows();
        }
        Ok((pivots, scanned))
    }

    fn solve_inner(&mut self) -> Result<FlowSolution, FlowError> {
        let (total_pos, scale) = self.core.layer.check_balance()?;
        let eps = 1e-9 * scale;
        let big_m = self.core.big_m()?;

        let mut warm = false;
        let mut dual_pivots = 0usize;
        let mut dual_scanned = 0usize;
        if self.core.warm_enabled && self.core.has_state {
            if self.prepare_dual_basis(big_m) {
                match self.dual_pivots(big_m, eps) {
                    Ok((p, s)) => {
                        dual_pivots = p;
                        dual_scanned = s;
                        warm = true;
                    }
                    // A cancel must propagate, not demote to a cold
                    // solve (which would ignore the caller's deadline).
                    // The half-repaired basis is dropped.
                    Err(FlowError::Cancelled) => {
                        self.core.has_state = false;
                        return Err(FlowError::Cancelled);
                    }
                    Err(_) => self.core.stats.warm_fallbacks += 1,
                }
            } else {
                self.core.stats.warm_fallbacks += 1;
            }
        }
        if !warm {
            self.core.cold_basis();
            self.core.rebuild_tree(big_m);
        }
        self.core.has_state = false;

        // Primal clean-up: clears dual infeasibility the flip step could
        // not remove (uncapacitated arcs whose reduced cost went
        // negative). On a warm solve of the supply-drift pattern this
        // usually confirms optimality without pivoting.
        let (p, s) = self.core.run_pivots(big_m, eps)?;
        self.core.finish(
            warm,
            dual_pivots + p,
            dual_scanned + s,
            total_pos,
            scale,
            eps,
        )
    }
}

impl McfSolver for DualSimplexSolver {
    fn name(&self) -> &'static str {
        "dual-simplex"
    }
    fn topology(&self) -> &NetworkTopology {
        self.core.topology()
    }
    fn layer(&self) -> &CostLayer {
        self.core.layer()
    }
    fn layer_mut(&mut self) -> &mut CostLayer {
        self.core.layer_mut()
    }
    fn set_warm_start(&mut self, enabled: bool) {
        self.core.set_warm_start(enabled);
    }
    fn warm_start(&self) -> bool {
        self.core.warm_start()
    }
    fn invalidate(&mut self) {
        self.core.invalidate();
    }
    fn set_cancel_probe(&mut self, probe: Option<crate::solver::ProbeHandle>) {
        self.core.set_cancel_probe(probe);
    }
    fn solve(&mut self) -> Result<FlowSolution, FlowError> {
        self.solve_inner()
    }
    fn stats(&self) -> SolverStats {
        self.core.stats()
    }
}

impl FlowNetwork {
    /// Solves the min-cost flow problem with the dual network simplex
    /// backend (one-shot: equivalent to the primal cold solve; the dual
    /// machinery only engages on warm re-solves of a persistent
    /// [`DualSimplexSolver`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`FlowNetwork::solve_simplex`].
    pub fn solve_dual_simplex(&self) -> Result<FlowSolution, FlowError> {
        DualSimplexSolver::new(self).solve()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_net(rng: &mut StdRng, capacitated: bool) -> FlowNetwork {
        let n = rng.gen_range(3..12);
        let mut net = FlowNetwork::new(n);
        let mut total = 0.0;
        for v in 0..n - 1 {
            let s = rng.gen_range(-3.0..3.0);
            net.set_supply(v, s);
            total += s;
        }
        net.set_supply(n - 1, -total);
        for _ in 0..n * 3 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u == v {
                continue;
            }
            let cap = if capacitated && rng.gen_bool(0.3) {
                rng.gen_range(0.5..4.0)
            } else {
                f64::INFINITY
            };
            net.add_arc(u, v, cap, rng.gen_range(0..25)).unwrap();
        }
        net
    }

    #[test]
    fn cold_solve_matches_primal_simplex_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let net = random_net(&mut rng, true);
            match (net.solve_simplex(), net.solve_dual_simplex()) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.total_cost, b.total_cost);
                    assert_eq!(a.flows, b.flows);
                }
                (Err(FlowError::Infeasible { .. }), Err(FlowError::Infeasible { .. })) => {}
                (a, b) => panic!("disagreement {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn warm_resolves_track_cost_and_supply_drift() {
        let mut rng = StdRng::seed_from_u64(23);
        for case in 0..25 {
            let net = random_net(&mut rng, false);
            if net.solve().is_err() {
                continue; // disconnected instance; drift keeps it so
            }
            let mut dual = DualSimplexSolver::new(&net);
            dual.set_warm_start(true);
            dual.solve().unwrap();
            for round in 0..6 {
                // Cost drift (the D-phase bound rewrite) ...
                for k in 0..net.num_arcs() {
                    let (_, _, _, c) = dual.arc_info(k);
                    dual.layer_mut()
                        .set_cost(k, (c + rng.gen_range(-2i64..=2)).max(0))
                        .unwrap();
                }
                // ... and a little supply drift (objective rescale).
                if round % 2 == 1 {
                    let n = dual.num_nodes();
                    let mut shift = 0.0;
                    for v in 0..n - 1 {
                        let d = rng.gen_range(-0.5..0.5);
                        let s = dual.supply(v);
                        dual.layer_mut().set_supply(v, s + d);
                        shift += d;
                    }
                    let last = dual.supply(n - 1);
                    dual.layer_mut().set_supply(n - 1, last - shift);
                }
                let mut check = FlowNetwork::new(dual.num_nodes());
                for v in 0..dual.num_nodes() {
                    check.set_supply(v, dual.supply(v));
                }
                for k in 0..dual.num_arcs() {
                    let (u, v, cap, c) = dual.arc_info(k);
                    check.add_arc(u, v, cap, c).unwrap();
                }
                let want = check.solve().unwrap();
                let got = dual.solve().unwrap();
                got.verify(&check).unwrap();
                assert!(
                    (got.total_cost - want.total_cost).abs() < 1e-6 * (1.0 + want.total_cost.abs()),
                    "case {case} round {round}: dual {} vs ssp {}",
                    got.total_cost,
                    want.total_cost
                );
            }
            let stats = dual.stats();
            assert_eq!(stats.total(), 7, "case {case}: {stats:?}");
            assert!(stats.warm_solves >= 1, "case {case}: {stats:?}");
            assert_eq!(stats.warm_repairs, 0, "dual path never primal-repairs");
        }
    }

    #[test]
    fn invalidate_forces_cold() {
        let mut net = FlowNetwork::new(3);
        net.set_supply(0, 2.0);
        net.set_supply(2, -2.0);
        net.add_arc(0, 1, f64::INFINITY, 1).unwrap();
        net.add_arc(1, 2, f64::INFINITY, 1).unwrap();
        let mut dual = DualSimplexSolver::new(&net);
        dual.set_warm_start(true);
        dual.solve().unwrap();
        dual.invalidate();
        dual.solve().unwrap();
        let stats = dual.stats();
        assert_eq!(stats.cold_solves, 2);
        assert_eq!(stats.warm_solves, 0);
    }
}
