//! The min-cost flow network builder and the solution type.
//!
//! Costs are integers (the paper integerizes the D-phase constants by
//! power-of-ten scaling so that "fast methods devised for integerized
//! minimum cost network flow approaches can be fruitfully employed");
//! flow amounts and supplies are reals.
//!
//! [`FlowNetwork`] is the *builder*: grow a network with
//! [`FlowNetwork::add_arc`] / [`FlowNetwork::set_supply`], then either
//! solve it once ([`FlowNetwork::solve`], and
//! [`FlowNetwork::solve_reference`] for cross-checks) or hand it to a
//! persistent [`SimplexSolver`] for repeated incremental re-solves.

use crate::error::FlowError;
use crate::simplex::SimplexSolver;
use crate::topology::{check_balance, CostLayer};

/// Identifier of an arc returned by [`FlowNetwork::add_arc`].
pub type ArcId = usize;

/// The reference solver's "unreached" distance.
const COST_INF: i64 = i64::MAX / 4;

#[derive(Debug, Clone)]
struct Arc {
    from: u32,
    to: u32,
    cap: f64,
    cost: i64,
}

/// A directed network with integer arc costs and real capacities/supplies.
///
/// # Examples
///
/// ```
/// use mft_flow::FlowNetwork;
///
/// # fn main() -> Result<(), mft_flow::FlowError> {
/// let mut net = FlowNetwork::new(3);
/// net.set_supply(0, 2.0);
/// net.set_supply(2, -2.0);
/// let cheap = net.add_arc(0, 1, f64::INFINITY, 1)?;
/// let _ = net.add_arc(1, 2, f64::INFINITY, 1)?;
/// let expensive = net.add_arc(0, 2, f64::INFINITY, 5)?;
/// let sol = net.solve()?;
/// assert_eq!(sol.total_cost, 4.0); // both units take the 1+1 route
/// assert_eq!(sol.flows[cheap], 2.0);
/// assert_eq!(sol.flows[expensive], 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    num_nodes: usize,
    supply: Vec<f64>,
    arcs: Vec<Arc>,
}

/// The result of a successful min-cost flow solve.
#[derive(Debug, Clone)]
pub struct FlowSolution {
    /// Flow on each arc, indexed by [`ArcId`].
    pub flows: Vec<f64>,
    /// Integer node potentials certifying optimality: every arc with
    /// residual capacity satisfies `cost + π(u) − π(v) ≥ 0`.
    pub potentials: Vec<i64>,
    /// Total cost `Σ flow·cost`.
    pub total_cost: f64,
    /// Total supply shipped.
    pub shipped: f64,
}

impl FlowNetwork {
    /// Creates a network with `num_nodes` nodes and zero supplies.
    pub fn new(num_nodes: usize) -> Self {
        FlowNetwork {
            num_nodes,
            supply: vec![0.0; num_nodes],
            arcs: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of (public) arcs.
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Sets the supply of a node (positive = source, negative = demand).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_supply(&mut self, node: usize, supply: f64) {
        self.supply[node] = supply;
    }

    /// The supply of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn supply(&self, node: usize) -> f64 {
        self.supply[node]
    }

    /// Adds an arc with the given capacity (may be `f64::INFINITY`) and
    /// integer cost.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::BadInput`] for invalid endpoints, negative or
    /// NaN capacity, or a cost of magnitude above `i64::MAX / 8`.
    pub fn add_arc(
        &mut self,
        from: usize,
        to: usize,
        capacity: f64,
        cost: i64,
    ) -> Result<ArcId, FlowError> {
        if from >= self.num_nodes || to >= self.num_nodes {
            return Err(FlowError::BadInput {
                message: format!("arc endpoints ({from}, {to}) out of range"),
            });
        }
        if capacity.is_nan() || capacity < 0.0 {
            return Err(FlowError::BadInput {
                message: format!("capacity {capacity} must be non-negative"),
            });
        }
        if cost.abs() > i64::MAX / 8 {
            return Err(FlowError::BadInput {
                message: format!("cost {cost} too large"),
            });
        }
        self.arcs.push(Arc {
            from: from as u32,
            to: to as u32,
            cap: capacity,
            cost,
        });
        Ok(self.arcs.len() - 1)
    }

    /// The endpoints and cost of a public arc.
    ///
    /// # Panics
    ///
    /// Panics if `arc` is out of range.
    pub fn arc_info(&self, arc: ArcId) -> (usize, usize, f64, i64) {
        let a = &self.arcs[arc];
        (a.from as usize, a.to as usize, a.cap, a.cost)
    }

    /// Solves the min-cost flow problem with the primal network simplex.
    ///
    /// One-shot convenience over a cold [`SimplexSolver`]; for repeated
    /// solves with changing costs, construct the solver once and reuse
    /// it.
    ///
    /// # Errors
    ///
    /// * [`FlowError::BadInput`] if supplies do not balance to zero, or
    ///   the costs are too large for the simplex's big-`M` arcs.
    /// * [`FlowError::NegativeCycle`] if a negative-cost cycle of
    ///   unbounded capacity makes the cost unbounded below.
    /// * [`FlowError::Infeasible`] if some supply cannot reach a demand.
    /// * [`FlowError::IterationLimit`] past the simplex's safety pivot cap.
    pub fn solve(&self) -> Result<FlowSolution, FlowError> {
        SimplexSolver::new(self).solve()
    }

    /// Reference solver: successive shortest paths recomputed with plain
    /// Bellman–Ford every augmentation, then certified potentials from
    /// the optimal flow. Slow (`O(V·E)` per augmentation) but
    /// independent of the simplex machinery — used to cross-check
    /// [`FlowNetwork::solve`] in tests.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FlowNetwork::solve`].
    pub fn solve_reference(&self) -> Result<FlowSolution, FlowError> {
        let (total_pos, scale) = check_balance(&self.supply)?;
        let n = self.num_nodes;
        let m = self.arcs.len();
        // The residual graph over the nodes plus a super source `S` and
        // a super sink `T`: public arc `k` owns residual arcs `2k`
        // (forward) and `2k + 1` (backward), then come the pairs of
        // `S → v` and `v → T` for every node `v`; the pair of residual
        // arc `i` is `i ^ 1`.
        let (s, t) = (n, n + 1);
        let mut head: Vec<usize> = Vec::with_capacity(2 * m + 4 * n);
        let mut cost: Vec<i64> = Vec::with_capacity(2 * m + 4 * n);
        let mut residual: Vec<f64> = Vec::with_capacity(2 * m + 4 * n);
        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n + 2];
        let mut add = |from: usize, to: usize, cap: f64, c: i64| {
            adjacency[from].push(head.len());
            adjacency[to].push(head.len() + 1);
            head.extend([to, from]);
            cost.extend([c, -c]);
            residual.extend([cap, 0.0]);
        };
        for a in &self.arcs {
            add(a.from as usize, a.to as usize, a.cap, a.cost);
        }
        for (v, &sv) in self.supply.iter().enumerate() {
            add(s, v, sv.max(0.0), 0);
            add(v, t, (-sv).max(0.0), 0);
        }
        let eps_term = 1e-14 * scale;
        let mut remaining = total_pos;
        let mut shipped = 0.0;
        while remaining > eps_term {
            let mut dist = vec![COST_INF; n + 2];
            let mut parent: Vec<Option<usize>> = vec![None; n + 2];
            dist[s] = 0;
            let mut changed = true;
            let mut rounds = 0usize;
            while changed {
                changed = false;
                rounds += 1;
                if rounds > n + 3 {
                    return Err(FlowError::NegativeCycle);
                }
                for u in 0..n + 2 {
                    if dist[u] >= COST_INF {
                        continue;
                    }
                    for &i in &adjacency[u] {
                        if residual[i] <= 0.0 {
                            continue;
                        }
                        let (v, nd) = (head[i], dist[u] + cost[i]);
                        if nd < dist[v] {
                            dist[v] = nd;
                            parent[v] = Some(i);
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
            while let Some(i) = parent[v] {
                delta = delta.min(residual[i]);
                v = head[i ^ 1];
            }
            let mut v = t;
            while let Some(i) = parent[v] {
                residual[i] -= delta;
                residual[i ^ 1] += delta;
                v = head[i ^ 1];
            }
            remaining -= delta;
            shipped += delta;
        }
        let flows: Vec<f64> = (0..m).map(|k| residual[2 * k + 1]).collect();
        let total_cost =
            (flows.iter().zip(&self.arcs)).fold(0.0, |acc, (f, a)| acc + f * a.cost as f64);
        // Certified potentials from the optimal flow: shortest walks over
        // the residual graph of real arcs (all-zero init; the optimal
        // residual graph has no negative cycle). Integral instances have
        // exact integer flows and read it exactly, as the simplex does.
        let dust = if CostLayer::build(self).is_integral(scale) {
            0.0
        } else {
            1e-12 * scale
        };
        let mut pi = vec![0i64; n];
        let mut changed = true;
        let mut rounds = 0usize;
        while changed {
            changed = false;
            rounds += 1;
            if rounds > n + 1 {
                return Err(FlowError::BadInput {
                    message: "residual graph of the optimal flow has a negative cycle".to_owned(),
                });
            }
            for (a, &f) in self.arcs.iter().zip(&flows) {
                let (u, v, c) = (a.from as usize, a.to as usize, a.cost);
                // Dust-tolerant on both bounds: an arc saturated to
                // within an ulp of its capacity must not contribute a
                // forward residual arc, or a spurious "negative cycle"
                // of ~1e-16 capacity derails the relaxation.
                if a.cap - f > dust && pi[u] + c < pi[v] {
                    pi[v] = pi[u] + c;
                    changed = true;
                }
                if f > dust && pi[v] - c < pi[u] {
                    pi[u] = pi[v] - c;
                    changed = true;
                }
            }
        }
        Ok(FlowSolution {
            flows,
            potentials: pi,
            total_cost,
            shipped,
        })
    }
}

impl FlowSolution {
    /// Verifies flow conservation and the reduced-cost optimality
    /// certificate against the originating network.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::CertificateViolation`] describing the first
    /// violated condition.
    pub fn verify(&self, net: &FlowNetwork) -> Result<(), FlowError> {
        self.verify_against(&net.supply, |k| net.arc_info(k))
    }

    /// [`FlowSolution::verify`] against an instance given as its
    /// supplies and its `(from, to, capacity, cost)` per arc.
    pub(crate) fn verify_against(
        &self,
        supply: &[f64],
        arc_info: impl Fn(ArcId) -> (usize, usize, f64, i64),
    ) -> Result<(), FlowError> {
        let scale: f64 = supply.iter().map(|s| s.abs()).fold(1.0, f64::max);
        let eps = 1e-6 * scale;
        // Conservation: out − in = supply.
        let mut balance = vec![0.0f64; supply.len()];
        for (k, &f) in self.flows.iter().enumerate() {
            let (from, to, cap, _) = arc_info(k);
            if f < -eps || f > cap + eps {
                return Err(FlowError::CertificateViolation {
                    message: format!("flow {f} outside [0, {cap}] on arc {k}"),
                });
            }
            balance[from] += f;
            balance[to] -= f;
        }
        for (v, (&got, &want)) in balance.iter().zip(supply).enumerate() {
            if (got - want).abs() > eps {
                return Err(FlowError::CertificateViolation {
                    message: format!("conservation violated at node {v}: {got} vs supply {want}"),
                });
            }
        }
        // Reduced-cost optimality on the residual graph.
        for (k, &f) in self.flows.iter().enumerate() {
            let (from, to, cap, cost) = arc_info(k);
            let rc = cost + self.potentials[from] - self.potentials[to];
            if f < cap - eps && rc < 0 {
                return Err(FlowError::CertificateViolation {
                    message: format!("forward residual arc {k} has reduced cost {rc}"),
                });
            }
            if f > eps && rc > 0 {
                return Err(FlowError::CertificateViolation {
                    message: format!("backward residual arc {k} has reduced cost {}", -rc),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_route_choice() {
        let mut net = FlowNetwork::new(3);
        net.set_supply(0, 2.0);
        net.set_supply(2, -2.0);
        let cheap1 = net.add_arc(0, 1, f64::INFINITY, 1).unwrap();
        let cheap2 = net.add_arc(1, 2, f64::INFINITY, 1).unwrap();
        let expensive = net.add_arc(0, 2, f64::INFINITY, 5).unwrap();
        let sol = net.solve().unwrap();
        assert_eq!(sol.total_cost, 4.0);
        assert_eq!(sol.flows[cheap1], 2.0);
        assert_eq!(sol.flows[cheap2], 2.0);
        assert_eq!(sol.flows[expensive], 0.0);
        sol.verify(&net).unwrap();
    }

    #[test]
    fn capacity_forces_split() {
        let mut net = FlowNetwork::new(3);
        net.set_supply(0, 2.0);
        net.set_supply(2, -2.0);
        let cheap1 = net.add_arc(0, 1, 1.0, 1).unwrap();
        let _cheap2 = net.add_arc(1, 2, f64::INFINITY, 1).unwrap();
        let expensive = net.add_arc(0, 2, f64::INFINITY, 5).unwrap();
        let sol = net.solve().unwrap();
        // One unit takes the cheap route (cost 2), the second must pay 5.
        assert_eq!(sol.total_cost, 7.0);
        assert_eq!(sol.flows[cheap1], 1.0);
        assert_eq!(sol.flows[expensive], 1.0);
        sol.verify(&net).unwrap();
    }

    #[test]
    fn negative_costs_are_handled() {
        let mut net = FlowNetwork::new(3);
        net.set_supply(0, 1.0);
        net.set_supply(2, -1.0);
        let a = net.add_arc(0, 1, f64::INFINITY, -3).unwrap();
        let b = net.add_arc(1, 2, f64::INFINITY, 1).unwrap();
        let c = net.add_arc(0, 2, f64::INFINITY, 0).unwrap();
        let sol = net.solve().unwrap();
        assert_eq!(sol.total_cost, -2.0);
        assert_eq!(sol.flows[a], 1.0);
        assert_eq!(sol.flows[b], 1.0);
        assert_eq!(sol.flows[c], 0.0);
        sol.verify(&net).unwrap();
    }

    #[test]
    fn negative_cycle_is_detected() {
        let mut net = FlowNetwork::new(2);
        net.set_supply(0, 1.0);
        net.set_supply(1, -1.0);
        net.add_arc(0, 1, f64::INFINITY, -1).unwrap();
        net.add_arc(1, 0, f64::INFINITY, -1).unwrap();
        assert!(matches!(net.solve(), Err(FlowError::NegativeCycle)));
        assert!(matches!(
            net.solve_reference(),
            Err(FlowError::NegativeCycle)
        ));
    }

    #[test]
    fn infeasible_when_disconnected() {
        let mut net = FlowNetwork::new(4);
        net.set_supply(0, 1.0);
        net.set_supply(3, -1.0);
        net.add_arc(0, 1, f64::INFINITY, 1).unwrap();
        net.add_arc(2, 3, f64::INFINITY, 1).unwrap();
        assert!(matches!(net.solve(), Err(FlowError::Infeasible { .. })));
        assert!(matches!(
            net.solve_reference(),
            Err(FlowError::Infeasible { .. })
        ));
    }

    #[test]
    fn unbalanced_supplies_rejected() {
        let mut net = FlowNetwork::new(2);
        net.set_supply(0, 2.0);
        net.set_supply(1, -1.0);
        net.add_arc(0, 1, f64::INFINITY, 0).unwrap();
        assert!(matches!(net.solve(), Err(FlowError::BadInput { .. })));
        assert!(matches!(
            net.solve_reference(),
            Err(FlowError::BadInput { .. })
        ));
    }

    #[test]
    fn fractional_supplies() {
        let mut net = FlowNetwork::new(3);
        net.set_supply(0, 0.75);
        net.set_supply(1, 1.5);
        net.set_supply(2, -2.25);
        net.add_arc(0, 2, f64::INFINITY, 2).unwrap();
        net.add_arc(1, 2, f64::INFINITY, 3).unwrap();
        let sol = net.solve().unwrap();
        assert!((sol.total_cost - (0.75 * 2.0 + 1.5 * 3.0)).abs() < 1e-9);
        sol.verify(&net).unwrap();
    }

    #[test]
    fn reference_solver_is_certified_too() {
        let mut net = FlowNetwork::new(3);
        net.set_supply(0, 2.0);
        net.set_supply(2, -2.0);
        net.add_arc(0, 1, 1.0, 1).unwrap();
        net.add_arc(1, 2, f64::INFINITY, 1).unwrap();
        net.add_arc(0, 2, f64::INFINITY, 5).unwrap();
        let sol = net.solve_reference().unwrap();
        assert_eq!(sol.total_cost, 7.0);
        sol.verify(&net).unwrap();
    }

    #[test]
    fn matches_reference_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for case in 0..40 {
            let n = rng.gen_range(3..10);
            let mut net = FlowNetwork::new(n);
            // Random supplies balancing to zero.
            let mut total = 0.0;
            for v in 0..n - 1 {
                let s = rng.gen_range(-3.0..3.0);
                net.set_supply(v, s);
                total += s;
            }
            net.set_supply(n - 1, -total);
            // Random arcs (dense enough to be feasible most of the time).
            for _ in 0..n * 3 {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u == v {
                    continue;
                }
                let cost = rng.gen_range(0..20);
                let cap = if rng.gen_bool(0.3) {
                    rng.gen_range(0.5..4.0)
                } else {
                    f64::INFINITY
                };
                net.add_arc(u, v, cap, cost).unwrap();
            }
            let fast = net.solve();
            let slow = net.solve_reference();
            match (fast, slow) {
                (Ok(f), Ok(s)) => {
                    assert!(
                        (f.total_cost - s.total_cost).abs() < 1e-6 * (1.0 + s.total_cost.abs()),
                        "case {case}: {} vs {}",
                        f.total_cost,
                        s.total_cost
                    );
                    f.verify(&net).unwrap();
                    s.verify(&net).unwrap();
                }
                (Err(FlowError::Infeasible { .. }), Err(FlowError::Infeasible { .. })) => {}
                (f, s) => panic!("case {case}: solver disagreement: {f:?} vs {s:?}"),
            }
        }
    }
}
