//! Difference-constraint linear programs solved through their min-cost
//! flow dual — the mathematical core of the paper's D-phase (§2.3.1,
//! problem (10)).
//!
//! The LP has the form
//!
//! ```text
//! maximize   Σ_v b_v · r_v
//! subject to r_u − r_v ≤ c_uv            (one constraint per arc)
//!            r_g = 0                      (a designated ground variable)
//! ```
//!
//! with integer bounds `c_uv`. Its LP dual is a min-cost network flow with
//! one arc per constraint (cost `c_uv`, infinite capacity) and node supply
//! `b_v`; the optimal `r` is recovered from the flow solver's integer node
//! potentials, so the result is integral — exactly the `r : V → Z`
//! displacement mapping the paper requires.
//!
//! [`DualLp`] builds the constraint graph; [`DualLp::into_solver`]
//! freezes it into a persistent [`DualSolver`], which solves it with
//! [`DualSolver::maximize`]. For a *sequence* of LPs sharing one
//! constraint graph (the D-phase inner loop re-solves the same graph
//! with new bounds and objectives every iteration), bounds and
//! objective coefficients are overwritten in place and `maximize`
//! re-solves without rebuilding the network — optionally
//! warm-starting the network simplex from the previous solve's
//! spanning tree.

use crate::error::FlowError;
use crate::network::FlowNetwork;
use crate::simplex::SimplexSolver;
use crate::solver::{ProbeHandle, SolverStats};

/// The min-cost-flow backend that solves the LP dual: the primal
/// network simplex with block-cached Dantzig pricing (the paper's
/// reference-\[9\] family), the only one.
///
/// The type has a single value and selects nothing. It stays so that
/// the configuration fields naming it keep their shape, and so that
/// [`FlowAlgorithm::parse`] has one place to read the CLI/wire name
/// `simplex` and to reject the names of removed backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FlowAlgorithm {
    /// Primal network simplex with block-cached Dantzig pricing.
    #[default]
    NetworkSimplex,
}

/// CLI/wire names of removed backends: each parses to an error that
/// says it was removed.
const REMOVED_BACKENDS: [&str; 7] = [
    "ssp",
    "simplex-first",
    "simplex-block",
    "dual-simplex",
    "dual",
    "reference",
    "auto",
];

impl FlowAlgorithm {
    /// Parses a CLI/wire backend name; `simplex` is the only one.
    ///
    /// # Errors
    ///
    /// A message naming `name` as a removed backend (for the former
    /// names `ssp`, `simplex-first`, `simplex-block`, `dual-simplex`,
    /// `dual`, `reference` and `auto`) or as unknown, and saying that
    /// `simplex` is the only backend.
    pub fn parse(name: &str) -> Result<FlowAlgorithm, String> {
        if name == "simplex" {
            Ok(FlowAlgorithm::NetworkSimplex)
        } else if REMOVED_BACKENDS.contains(&name) {
            Err(format!(
                "flow backend `{name}` was removed; `simplex` (network simplex) is the only backend"
            ))
        } else {
            Err(format!(
                "unknown flow backend `{name}`; `simplex` (network simplex) is the only backend"
            ))
        }
    }
}

/// A difference-constraint LP (see the module docs).
#[derive(Debug, Clone)]
pub struct DualLp {
    num_vars: usize,
    constraints: Vec<(u32, u32, i64)>,
    objective: Vec<f64>,
}

/// The solution of a [`DualLp`].
#[derive(Debug, Clone)]
pub struct DualSolution {
    /// Optimal integer values of the variables (ground fixed at zero).
    pub r: Vec<i64>,
    /// The achieved objective `Σ b_v r_v`.
    pub objective: f64,
    /// The dual (flow) optimum — equals `objective` at optimality, giving
    /// a strong-duality certificate.
    pub flow_cost: f64,
}

impl DualLp {
    /// Creates an LP over `num_vars` variables with zero objective.
    pub fn new(num_vars: usize) -> Self {
        DualLp {
            num_vars,
            constraints: Vec::new(),
            objective: vec![0.0; num_vars],
        }
    }

    /// Adds the constraint `r_u − r_v ≤ bound`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::BadInput`] for out-of-range variables.
    pub fn add_constraint(&mut self, u: usize, v: usize, bound: i64) -> Result<(), FlowError> {
        if u >= self.num_vars || v >= self.num_vars {
            return Err(FlowError::BadInput {
                message: format!("constraint variables ({u}, {v}) out of range"),
            });
        }
        self.constraints.push((u as u32, v as u32, bound));
        Ok(())
    }

    /// Adds `delta` to variable `v`'s objective coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn add_objective(&mut self, v: usize, delta: f64) {
        self.objective[v] += delta;
    }

    /// Builds the dual flow network for the current bounds/objective.
    fn build_network(&self, ground: usize) -> Result<FlowNetwork, FlowError> {
        let mut net = FlowNetwork::new(self.num_vars);
        let mut ground_supply = 0.0;
        for (v, &b) in self.objective.iter().enumerate() {
            if v == ground || b == 0.0 {
                continue;
            }
            net.set_supply(v, b);
            ground_supply -= b;
        }
        net.set_supply(ground, ground_supply);
        for &(u, v, c) in &self.constraints {
            net.add_arc(u as usize, v as usize, f64::INFINITY, c)?;
        }
        Ok(net)
    }

    /// Converts the LP into a persistent solver over its (now frozen)
    /// constraint graph, with variable `ground` pinned to zero; any
    /// objective weight placed on `ground` is ignored (it contributes a
    /// constant zero). [`DualSolver::maximize`] solves it, and solves
    /// it again after bounds or objective coefficients are rewritten.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::BadInput`] for an out-of-range ground
    /// variable.
    pub fn into_solver(self, ground: usize) -> Result<DualSolver, FlowError> {
        if ground >= self.num_vars {
            return Err(FlowError::BadInput {
                message: format!("ground variable {ground} out of range"),
            });
        }
        let net = self.build_network(ground)?;
        let backend = SimplexSolver::new(&net);
        Ok(DualSolver {
            objective: self.objective,
            ground,
            backend,
        })
    }
}

/// Recovers `r` and the objective from a flow solution.
fn extract_solution(
    objective: &[f64],
    ground: usize,
    sol: &crate::network::FlowSolution,
) -> DualSolution {
    // r_v = π_ground − π_v  (see module docs for the sign convention).
    let pg = sol.potentials[ground];
    let r: Vec<i64> = sol.potentials.iter().map(|&p| pg - p).collect();
    let objective_value: f64 = objective
        .iter()
        .enumerate()
        .filter(|&(v, _)| v != ground)
        .map(|(v, &b)| b * r[v] as f64)
        .sum();
    DualSolution {
        r,
        objective: objective_value,
        flow_cost: sol.total_cost,
    }
}

/// A persistent difference-constraint LP solver over a frozen
/// constraint graph.
///
/// Produced by [`DualLp::into_solver`]. The constraint *graph* (which
/// pairs of variables are related, and the designated ground) is fixed;
/// constraint bounds and objective coefficients may be rewritten
/// between calls to [`DualSolver::maximize`], which maps them onto the
/// held network simplex's cost layer without reallocation.
#[derive(Debug)]
pub struct DualSolver {
    objective: Vec<f64>,
    ground: usize,
    /// Constraint `k` is arc `k` of the backend: endpoints live in its
    /// frozen topology, bounds in its cost layer — one authoritative
    /// store each for `r_u − r_v ≤ bound`.
    backend: SimplexSolver,
}

impl DualSolver {
    /// Number of variables.
    fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints.
    fn num_constraints(&self) -> usize {
        self.backend.num_arcs()
    }

    /// Rewrites the bound of constraint `k` (`r_u − r_v ≤ bound`).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::BadInput`] for an out-of-range constraint or
    /// an oversized bound.
    pub fn set_bound(&mut self, k: usize, bound: i64) -> Result<(), FlowError> {
        if k >= self.num_constraints() {
            return Err(FlowError::BadInput {
                message: format!("constraint {k} out of range"),
            });
        }
        self.backend.set_cost(k, bound)
    }

    /// Overwrites variable `v`'s objective coefficient (absolute, unlike
    /// the accumulating [`DualLp::add_objective`]).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn set_objective(&mut self, v: usize, b: f64) {
        self.objective[v] = b;
    }

    /// Enables or disables the network simplex's warm starts.
    pub fn set_warm_start(&mut self, enabled: bool) {
        self.backend.set_warm_start(enabled);
    }

    /// Drops the network simplex's retained spanning tree; the next
    /// [`DualSolver::maximize`] runs cold.
    pub fn invalidate(&mut self) {
        self.backend.invalidate();
    }

    /// Installs (or clears) a cooperative cancellation probe on the
    /// network simplex (see [`SimplexSolver::set_cancel_probe`]); a
    /// positive poll aborts [`DualSolver::maximize`] with
    /// [`FlowError::Cancelled`].
    pub fn set_cancel_probe(&mut self, probe: Option<ProbeHandle>) {
        self.backend.set_cancel_probe(probe);
    }

    /// Backend cold/warm counters.
    pub fn stats(&self) -> SolverStats {
        self.backend.stats()
    }

    /// Maximizes the objective for the current bounds and objective
    /// coefficients.
    ///
    /// # Errors
    ///
    /// * [`FlowError::NegativeCycle`] if the constraints are inconsistent
    ///   (no feasible `r` exists).
    /// * [`FlowError::Infeasible`] if the LP is unbounded (the flow dual
    ///   cannot route its supplies).
    /// * [`FlowError::Cancelled`] from an installed cancellation probe.
    pub fn maximize(&mut self) -> Result<DualSolution, FlowError> {
        // Map the objective onto supplies, as `DualLp::build_network`.
        let mut ground_supply = 0.0;
        for (v, &b) in self.objective.iter().enumerate() {
            if v == self.ground {
                continue;
            }
            if b == 0.0 {
                self.backend.set_supply(v, 0.0);
                continue;
            }
            self.backend.set_supply(v, b);
            ground_supply -= b;
        }
        self.backend.set_supply(self.ground, ground_supply);
        let sol = self.backend.solve()?;
        #[cfg(debug_assertions)]
        {
            let (topo, layer) = (&self.backend.topo, &self.backend.layer);
            let arc_info = |k| {
                let (u, v) = topo.arc_endpoints(k);
                (u, v, layer.caps[k], layer.costs[k])
            };
            if let Err(e) = sol.verify_against(&layer.supply, arc_info) {
                panic!("flow certificate inside dual solve: {e}");
            }
        }
        Ok(extract_solution(&self.objective, self.ground, &sol))
    }

    /// Verifies a candidate solution against the current bounds and
    /// objective: feasibility of every constraint and the strong-duality
    /// gap `|objective − flow_cost|`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::CertificateViolation`] naming the violated
    /// constraint or the duality gap.
    pub fn verify(&self, sol: &DualSolution) -> Result<(), FlowError> {
        let objective = &self.objective;
        let ground = self.ground;
        if sol.r.len() != objective.len() {
            return Err(FlowError::CertificateViolation {
                message: format!(
                    "solution has {} variables, expected {}",
                    sol.r.len(),
                    objective.len()
                ),
            });
        }
        if sol.r[ground] != 0 {
            return Err(FlowError::CertificateViolation {
                message: format!("ground variable is {} ≠ 0", sol.r[ground]),
            });
        }
        for (k, (u, v, c)) in self.constraints().enumerate() {
            let lhs = sol.r[u as usize] - sol.r[v as usize];
            if lhs > c {
                return Err(FlowError::CertificateViolation {
                    message: format!("constraint {k}: r{u} − r{v} = {lhs} > {c}"),
                });
            }
        }
        // The gap tolerance must cover the floating-point uncertainty of
        // `Σ b_v·r_v` itself: near convergence the objective is a small
        // difference of huge cancelling products, so the achievable
        // accuracy is bounded by ε·Σ|b_v·r_v|, not by the objective's own
        // magnitude.
        let scale = 1.0 + sol.objective.abs().max(sol.flow_cost.abs());
        let dot_magnitude: f64 = objective
            .iter()
            .enumerate()
            .map(|(v, &b)| (b * sol.r[v] as f64).abs())
            .sum();
        let tol = 1e-6 * scale + 64.0 * f64::EPSILON * dot_magnitude;
        if (sol.objective - sol.flow_cost).abs() > tol {
            return Err(FlowError::CertificateViolation {
                message: format!(
                    "duality gap: objective {} vs flow cost {} (tolerance {tol})",
                    sol.objective, sol.flow_cost
                ),
            });
        }
        Ok(())
    }

    /// The current LP's dual flow network as a one-shot [`FlowNetwork`]
    /// (one arc per constraint at its current bound, supplies from the
    /// current objective), so tests can solve the same instance with
    /// [`FlowNetwork::solve_reference`].
    pub fn to_network(&self) -> FlowNetwork {
        let lp = DualLp {
            num_vars: self.num_vars(),
            constraints: self.constraints().collect(),
            objective: self.objective.clone(),
        };
        lp.build_network(self.ground)
            .expect("the frozen constraints were validated when added")
    }

    /// Every constraint `(u, v, bound)` with its current bound.
    fn constraints(&self) -> impl Iterator<Item = (u32, u32, i64)> + '_ {
        let (topo, layer) = (&self.backend.topo, &self.backend.layer);
        (0..topo.num_arcs()).map(|k| {
            let (u, v) = topo.arc_endpoints(k);
            (u as u32, v as u32, layer.costs[k])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Solves `lp` cold with ground 0 and verifies the solution.
    fn maximize(lp: &DualLp) -> Result<DualSolution, FlowError> {
        let mut solver = lp.clone().into_solver(0)?;
        let sol = solver.maximize()?;
        solver.verify(&sol)?;
        Ok(sol)
    }

    /// A hand-checkable instance: three variables, ground = 0.
    /// maximize 2·r1 − 1·r2  s.t.  r1 − r0 ≤ 4, r1 − r2 ≤ 1, r2 − r0 ≤ 5,
    /// r0 − r2 ≤ 0 (so r2 ≥ 0).
    /// Optimum: r1 = 4; r1 − r2 ≤ 1 forces r2 ≥ 3; objective 8 − 3 = 5.
    #[test]
    fn small_lp_by_hand() {
        let mut lp = DualLp::new(3);
        lp.add_objective(1, 2.0);
        lp.add_objective(2, -1.0);
        lp.add_constraint(1, 0, 4).unwrap();
        lp.add_constraint(1, 2, 1).unwrap();
        lp.add_constraint(2, 0, 5).unwrap();
        lp.add_constraint(0, 2, 0).unwrap();
        let sol = maximize(&lp).unwrap();
        assert_eq!(sol.r[0], 0);
        assert_eq!(sol.r[1], 4);
        assert_eq!(sol.r[2], 3);
        assert!((sol.objective - 5.0).abs() < 1e-9);
    }

    #[test]
    fn unconstrained_direction_detected() {
        // maximize r1 with only r0 − r1 ≤ 0 → unbounded above.
        let mut lp = DualLp::new(2);
        lp.add_objective(1, 1.0);
        lp.add_constraint(0, 1, 0).unwrap();
        assert!(matches!(maximize(&lp), Err(FlowError::Infeasible { .. })));
    }

    #[test]
    fn inconsistent_constraints_detected() {
        // r1 − r0 ≤ −1 and r0 − r1 ≤ −1 → infeasible (negative cycle).
        let mut lp = DualLp::new(2);
        lp.add_objective(1, 1.0);
        lp.add_constraint(1, 0, -1).unwrap();
        lp.add_constraint(0, 1, -1).unwrap();
        assert!(matches!(maximize(&lp), Err(FlowError::NegativeCycle)));
    }

    #[test]
    fn zero_objective_is_trivially_optimal() {
        let mut lp = DualLp::new(3);
        lp.add_constraint(1, 0, 2).unwrap();
        lp.add_constraint(2, 1, 2).unwrap();
        let sol = maximize(&lp).unwrap();
        assert_eq!(sol.objective, 0.0);
    }

    /// The simplex and the reference solver agree on the optimum of
    /// random LPs (the `r` vectors may differ at degenerate optima; the
    /// objective may not).
    #[test]
    fn simplex_matches_reference_on_random_lps() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for case in 0..25 {
            let n = rng.gen_range(2..7usize);
            let mut lp = DualLp::new(n);
            for v in 1..n {
                lp.add_constraint(v, 0, 5).unwrap();
                lp.add_constraint(0, v, 5).unwrap();
                lp.add_objective(v, rng.gen_range(-4.0..4.0));
            }
            for _ in 0..2 * n {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    lp.add_constraint(u, v, rng.gen_range(0..6)).unwrap();
                }
            }
            let mut solver = lp.clone().into_solver(0).unwrap();
            let a = solver.maximize().unwrap();
            solver.verify(&a).unwrap();
            let flow = lp.build_network(0).unwrap().solve_reference().unwrap();
            let b = extract_solution(&lp.objective, 0, &flow);
            solver.verify(&b).unwrap();
            assert!(
                (a.objective - b.objective).abs() < 1e-6 * (1.0 + a.objective.abs()),
                "case {case}: simplex {} vs reference {}",
                a.objective,
                b.objective
            );
        }
    }

    /// The persistent solver reproduces fresh cold solves across a
    /// sequence of bound/objective rewrites, warm-starting each re-solve,
    /// and its `to_network` mirror is the fresh LP's network.
    #[test]
    fn persistent_solver_matches_one_shot() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let n = 6usize;
        let mut lp = DualLp::new(n);
        let mut arcs = Vec::new();
        for v in 1..n {
            lp.add_constraint(v, 0, 5).unwrap();
            arcs.push((v, 0));
            lp.add_constraint(0, v, 5).unwrap();
            arcs.push((0, v));
        }
        let mut solver = lp.clone().into_solver(0).unwrap();
        solver.set_warm_start(true);
        for _round in 0..6 {
            let mut fresh = DualLp::new(n);
            for (k, &(u, v)) in arcs.iter().enumerate() {
                let bound = rng.gen_range(0..8);
                fresh.add_constraint(u, v, bound).unwrap();
                solver.set_bound(k, bound).unwrap();
            }
            for v in 1..n {
                let b = rng.gen_range(-3.0..3.0);
                fresh.add_objective(v, b);
                solver.set_objective(v, b);
            }
            let expect = maximize(&fresh).unwrap();
            let got = solver.maximize().unwrap();
            solver.verify(&got).unwrap();
            assert!(
                (got.objective - expect.objective).abs() < 1e-6 * (1.0 + expect.objective.abs()),
                "persistent {} vs fresh {}",
                got.objective,
                expect.objective
            );
            let mirror = solver.to_network();
            let want = fresh.build_network(0).unwrap();
            assert_eq!(mirror.num_arcs(), want.num_arcs());
            for k in 0..want.num_arcs() {
                assert_eq!(mirror.arc_info(k), want.arc_info(k));
            }
            for v in 0..n {
                assert_eq!(mirror.supply(v), want.supply(v));
            }
        }
        let stats = solver.stats();
        assert_eq!(stats.total(), 6);
        assert!(stats.warm_solves + stats.warm_fallbacks >= 5, "{stats:?}");
    }

    #[test]
    fn parse_accepts_only_simplex_and_names_removed_backends() {
        assert_eq!(
            FlowAlgorithm::parse("simplex"),
            Ok(FlowAlgorithm::NetworkSimplex)
        );
        for name in REMOVED_BACKENDS {
            let err = FlowAlgorithm::parse(name).unwrap_err();
            assert!(err.contains(&format!("`{name}` was removed")), "{err}");
            assert!(err.contains("`simplex`"), "{err}");
        }
        let err = FlowAlgorithm::parse("nope").unwrap_err();
        assert!(err.contains("unknown flow backend `nope`"), "{err}");
    }

    /// Randomized strong-duality check: generate random feasible LPs,
    /// verify feasibility of r and a zero duality gap, and compare against
    /// a brute-force search over a small integer box.
    #[test]
    fn randomized_instances_match_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..30 {
            let n = rng.gen_range(2..5usize);
            let mut lp = DualLp::new(n);
            // Box constraints keep everything bounded and feasible at 0:
            // |r_v| ≤ 3 for all v.
            for v in 1..n {
                lp.add_constraint(v, 0, 3).unwrap();
                lp.add_constraint(0, v, 3).unwrap();
            }
            for _ in 0..n {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u == v {
                    continue;
                }
                // Bounds ≥ 0 keep r = 0 feasible.
                lp.add_constraint(u, v, rng.gen_range(0..4)).unwrap();
            }
            for v in 1..n {
                lp.add_objective(v, rng.gen_range(-3.0..3.0));
            }
            let sol = maximize(&lp).unwrap();

            // Brute force over r ∈ {−3..3}^(n−1) (variable 0 is ground).
            let mut best = f64::NEG_INFINITY;
            let mut assignment = vec![-3i64; n];
            assignment[0] = 0;
            loop {
                let feasible = lp
                    .constraints
                    .iter()
                    .all(|&(u, v, c)| assignment[u as usize] - assignment[v as usize] <= c);
                if feasible {
                    let obj: f64 = (1..n).map(|v| lp.objective[v] * assignment[v] as f64).sum();
                    best = best.max(obj);
                }
                // Increment odometer over variables 1..n.
                let mut k = 1;
                loop {
                    if k >= n {
                        break;
                    }
                    assignment[k] += 1;
                    if assignment[k] > 3 {
                        assignment[k] = -3;
                        k += 1;
                    } else {
                        break;
                    }
                }
                if k >= n {
                    break;
                }
            }
            assert!(
                (sol.objective - best).abs() < 1e-6,
                "case {case}: lp {} vs brute force {best}",
                sol.objective
            );
        }
    }
}
