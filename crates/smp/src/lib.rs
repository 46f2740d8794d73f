//! Simple Monotonic Program (SMP) solver — the paper's W-phase substrate.
//!
//! The W-phase (§2.3.2, problem (11)) minimizes total area subject to
//! per-vertex delay budgets. Because the delay model decomposes into
//! simple monotonic functionals, each budget turns into a lower-bound
//! constraint
//!
//! ```text
//! x_i ≥ f_i(x)       with f_i monotone non-decreasing in every x_j
//! ```
//!
//! over box bounds `lb ≤ x ≤ ub`. The feasible set of such a system is
//! closed under component-wise minimum, so it has a unique least element —
//! the **least fixed point** of `x ← max(lb, f(x))` — which simultaneously
//! minimizes every monotone objective (in particular the weighted area).
//! [`SmpSolver`] computes it by chaotic (worklist) iteration from the
//! lower bounds, the constraint-relaxation procedure referenced from the
//! paper with worst-case complexity `O(|V|·|E|)`; on acyclic dependency
//! structures seeded in topological order it converges in a single pass.
//!
//! # Examples
//!
//! ```
//! use mft_smp::SmpSolver;
//!
//! // x0 ≥ 2,  x1 ≥ x0 + 1, over [1, 10]².
//! let solver = SmpSolver::new(vec![1.0; 2], vec![10.0; 2], vec![vec![1], vec![]]);
//! let sol = solver
//!     .solve(|i, x| if i == 0 { 2.0 } else { x[0] + 1.0 })
//!     .unwrap();
//! assert!(sol.feasible);
//! assert_eq!(sol.x, vec![2.0, 3.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;
use std::collections::VecDeque;
use std::error::Error;

/// Errors produced by [`SmpSolver`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SmpError {
    /// Bounds or dependency arrays have inconsistent lengths, or some
    /// lower bound exceeds its upper bound.
    BadProblem {
        /// Description of the problem.
        message: String,
    },
    /// The iteration exceeded its update budget without converging
    /// (indicates a non-monotone or non-contracting bound function).
    Diverged {
        /// Number of updates performed.
        updates: usize,
    },
}

impl fmt::Display for SmpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmpError::BadProblem { message } => write!(f, "bad problem: {message}"),
            SmpError::Diverged { updates } => {
                write!(f, "no convergence after {updates} updates")
            }
        }
    }
}

impl Error for SmpError {}

/// The result of an SMP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SmpSolution {
    /// The least fixed point (clamped to the box).
    pub x: Vec<f64>,
    /// Variables whose constraint forced them *above* the upper bound —
    /// non-empty iff the budgets are infeasible within the box.
    pub clamped: Vec<usize>,
    /// Whether all constraints are satisfied at `x` (no clamping).
    pub feasible: bool,
    /// Number of single-variable updates performed.
    pub updates: usize,
    /// Whether the solution came from the seeded bidirectional path of
    /// [`SmpSolver::solve_seeded`] (`false` for plain solves and for
    /// seeded solves that fell back to a cold restart).
    pub seeded: bool,
}

/// A Simple Monotonic Program solver over box bounds.
///
/// `dependents[j]` lists the variables whose bound function reads `x_j`;
/// it drives the worklist propagation. The bound functions themselves are
/// supplied per solve call, so one solver can be reused across W-phase
/// iterations with different delay budgets.
#[derive(Debug, Clone)]
pub struct SmpSolver {
    lower: Vec<f64>,
    upper: Vec<f64>,
    dependents: Vec<Vec<usize>>,
}

/// Relative convergence tolerance of a fixpoint update.
const REL_TOL: f64 = 1e-12;
/// A solve gives up after `MAX_UPDATES_FACTOR · n + 1000` updates.
const MAX_UPDATES_FACTOR: usize = 10_000;

impl SmpSolver {
    /// Creates a solver for `lower.len()` variables.
    ///
    /// # Panics
    ///
    /// Panics if the array lengths disagree (use [`SmpSolver::try_new`]
    /// for a fallible constructor).
    pub fn new(lower: Vec<f64>, upper: Vec<f64>, dependents: Vec<Vec<usize>>) -> Self {
        Self::try_new(lower, upper, dependents).expect("consistent SMP problem")
    }

    /// Fallible constructor validating shapes and bounds.
    ///
    /// # Errors
    ///
    /// Returns [`SmpError::BadProblem`] on length mismatches, inverted
    /// bounds, or out-of-range dependency entries.
    // The negated comparison is deliberate: it rejects NaN bounds too.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn try_new(
        lower: Vec<f64>,
        upper: Vec<f64>,
        dependents: Vec<Vec<usize>>,
    ) -> Result<Self, SmpError> {
        let n = lower.len();
        if upper.len() != n || dependents.len() != n {
            return Err(SmpError::BadProblem {
                message: format!(
                    "lengths disagree: lower {n}, upper {}, dependents {}",
                    upper.len(),
                    dependents.len()
                ),
            });
        }
        for i in 0..n {
            if !(lower[i] <= upper[i]) {
                return Err(SmpError::BadProblem {
                    message: format!("bounds inverted at {i}: [{}, {}]", lower[i], upper[i]),
                });
            }
        }
        for (j, deps) in dependents.iter().enumerate() {
            if deps.iter().any(|&i| i >= n) {
                return Err(SmpError::BadProblem {
                    message: format!("dependent of variable {j} out of range"),
                });
            }
        }
        Ok(SmpSolver {
            lower,
            upper,
            dependents,
        })
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.lower.len()
    }

    /// Computes the least fixed point of `x ← max(lower, bound(i, x))`
    /// starting from the lower bounds.
    ///
    /// `bound(i, x)` must be monotone non-decreasing in every component of
    /// `x`; it returns the smallest admissible value of `x_i` given the
    /// other variables (`f64::INFINITY` signals an unconditionally
    /// infeasible constraint).
    ///
    /// # Errors
    ///
    /// Returns [`SmpError::Diverged`] if the update budget is exhausted,
    /// which indicates a non-monotone bound function (monotone iterations
    /// either converge or hit the upper bounds, which is reported as an
    /// infeasible-but-converged solution instead).
    pub fn solve(&self, bound: impl Fn(usize, &[f64]) -> f64) -> Result<SmpSolution, SmpError> {
        self.solve_from(self.lower.clone(), bound)
    }

    /// Like [`SmpSolver::solve`] but starting from a caller-supplied point
    /// (clamped into the box). The least fixed point **above the starting
    /// point** is returned; pass the lower bounds to get the global least
    /// fixed point.
    ///
    /// # Errors
    ///
    /// Returns [`SmpError::BadProblem`] for a wrong-length start vector,
    /// otherwise as [`SmpSolver::solve`].
    pub fn solve_from(
        &self,
        start: Vec<f64>,
        bound: impl Fn(usize, &[f64]) -> f64,
    ) -> Result<SmpSolution, SmpError> {
        let n = self.num_vars();
        if start.len() != n {
            return Err(SmpError::BadProblem {
                message: format!("start vector has length {}, expected {n}", start.len()),
            });
        }
        let mut x: Vec<f64> = start
            .iter()
            .enumerate()
            .map(|(i, &s)| s.clamp(self.lower[i], self.upper[i]))
            .collect();
        let mut clamped = vec![false; n];
        let mut in_queue = vec![true; n];
        let mut queue: VecDeque<usize> = (0..n).collect();
        let mut updates = 0usize;
        let max_updates = MAX_UPDATES_FACTOR * n.max(1) + 1_000;
        while let Some(i) = queue.pop_front() {
            in_queue[i] = false;
            updates += 1;
            if updates > max_updates {
                return Err(SmpError::Diverged { updates });
            }
            let b = bound(i, &x);
            let tol = REL_TOL * x[i].abs().max(1.0);
            if b > x[i] + tol {
                if b > self.upper[i] {
                    clamped[i] = true;
                    if x[i] == self.upper[i] {
                        continue; // already saturated; nothing to propagate
                    }
                    x[i] = self.upper[i];
                } else {
                    clamped[i] = false;
                    x[i] = b;
                }
                for &d in &self.dependents[i] {
                    if !in_queue[d] {
                        in_queue[d] = true;
                        queue.push_back(d);
                    }
                }
            }
        }
        let clamped: Vec<usize> = (0..n).filter(|&i| clamped[i]).collect();
        Ok(SmpSolution {
            feasible: clamped.is_empty(),
            clamped,
            x,
            updates,
            seeded: false,
        })
    }

    /// Solves by *repairing* a caller-supplied seed instead of
    /// restarting the fixpoint from the lower bounds — the W-phase warm
    /// start: successive delay budgets move the least fixed point only
    /// slightly, so starting near the previous solution and letting
    /// variables move in **both** directions converges in a handful of
    /// updates.
    ///
    /// Unlike [`SmpSolver::solve_from`] (which computes the least fixed
    /// point *above* the start), the bidirectional iteration also
    /// lowers variables the seed propped above their constraint, so it
    /// reaches the same fixed point as the cold [`SmpSolver::solve`]
    /// whenever that fixed point is unique — in particular for acyclic
    /// dependency structures (the gate/wire/transistor Elmore models,
    /// whose constraint of `v` reads only `v`'s fanouts) and for
    /// contracting cyclic ones. The converged values may differ from
    /// the cold path's in the last bits (both paths stop within the
    /// relative tolerance of the true fixpoint, approaching it from
    /// different sides).
    ///
    /// If the bidirectional iteration fails to settle within the update
    /// budget, the solver transparently falls back to a cold
    /// [`SmpSolver::solve`]; [`SmpSolution::seeded`] reports which path
    /// produced the result. Note the fallback catches **non-convergence
    /// only**: on a cyclic system whose fixed points are not unique
    /// (e.g. `x_0 ≥ x_1, x_1 ≥ x_0`), a seed at or above a higher fixed
    /// point *converges there* and is returned as-is — uniqueness of
    /// the fixed point is the caller's obligation, not something this
    /// method can detect locally.
    ///
    /// # Errors
    ///
    /// Returns [`SmpError::BadProblem`] for a wrong-length seed,
    /// otherwise as [`SmpSolver::solve`].
    pub fn solve_seeded(
        &self,
        seed: &[f64],
        bound: impl Fn(usize, &[f64]) -> f64,
    ) -> Result<SmpSolution, SmpError> {
        let n = self.num_vars();
        if seed.len() != n {
            return Err(SmpError::BadProblem {
                message: format!("seed vector has length {}, expected {n}", seed.len()),
            });
        }
        let mut x: Vec<f64> = seed
            .iter()
            .enumerate()
            .map(|(i, &s)| s.clamp(self.lower[i], self.upper[i]))
            .collect();
        let mut clamped = vec![false; n];
        let mut in_queue = vec![true; n];
        let mut queue: VecDeque<usize> = (0..n).collect();
        let mut updates = 0usize;
        let max_updates = MAX_UPDATES_FACTOR * n.max(1) + 1_000;
        while let Some(i) = queue.pop_front() {
            in_queue[i] = false;
            updates += 1;
            if updates > max_updates {
                // Non-contracting cycle: the seed cannot be repaired
                // soundly — restart cold (which reports Diverged itself
                // if even the monotone iteration cannot settle). The
                // wasted seeded updates stay in the count: `updates` is
                // the work performed, not the work that paid off.
                return self.solve(bound).map(|mut solution| {
                    solution.updates += updates;
                    solution
                });
            }
            let b = bound(i, &x);
            clamped[i] = b > self.upper[i];
            // A NaN bound never updates (mirrors the cold path, whose
            // `b > x + tol` comparison is false for NaN).
            let target = if b.is_nan() {
                x[i]
            } else {
                b.clamp(self.lower[i], self.upper[i])
            };
            let tol = REL_TOL * x[i].abs().max(1.0);
            if (target - x[i]).abs() > tol {
                x[i] = target;
                for &d in &self.dependents[i] {
                    if !in_queue[d] {
                        in_queue[d] = true;
                        queue.push_back(d);
                    }
                }
            }
        }
        let clamped: Vec<usize> = (0..n).filter(|&i| clamped[i]).collect();
        Ok(SmpSolution {
            feasible: clamped.is_empty(),
            clamped,
            x,
            updates,
            seeded: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_resolves_in_order() {
        // x0 ≥ 2; x1 ≥ x0 + 1; x2 ≥ 2·x1.
        let solver = SmpSolver::new(vec![1.0; 3], vec![100.0; 3], vec![vec![1], vec![2], vec![]]);
        let sol = solver
            .solve(|i, x| match i {
                0 => 2.0,
                1 => x[0] + 1.0,
                _ => 2.0 * x[1],
            })
            .unwrap();
        assert!(sol.feasible);
        assert_eq!(sol.x, vec![2.0, 3.0, 6.0]);
    }

    #[test]
    fn cyclic_contraction_converges() {
        // x0 ≥ 1 + x1/2; x1 ≥ 1 + x0/2 → fixed point (2, 2).
        let solver = SmpSolver::new(vec![0.0; 2], vec![100.0; 2], vec![vec![1], vec![0]]);
        let sol = solver.solve(|i, x| 1.0 + x[1 - i] / 2.0).unwrap();
        assert!(sol.feasible);
        assert!((sol.x[0] - 2.0).abs() < 1e-9);
        assert!((sol.x[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_budget_is_clamped() {
        // x0 ≥ 20 but the box is [1, 10].
        let solver = SmpSolver::new(vec![1.0], vec![10.0], vec![vec![]]);
        let sol = solver.solve(|_, _| 20.0).unwrap();
        assert!(!sol.feasible);
        assert_eq!(sol.clamped, vec![0]);
        assert_eq!(sol.x, vec![10.0]);
    }

    #[test]
    fn infinity_bound_reports_infeasible() {
        let solver = SmpSolver::new(vec![1.0], vec![10.0], vec![vec![]]);
        let sol = solver.solve(|_, _| f64::INFINITY).unwrap();
        assert!(!sol.feasible);
    }

    #[test]
    fn divergent_cycle_saturates_at_upper_bound() {
        // x0 ≥ 2·x1, x1 ≥ 2·x0 with lower bound 1: blows up but is caught
        // by the box and reported infeasible rather than looping forever.
        let solver = SmpSolver::new(vec![1.0; 2], vec![1e6; 2], vec![vec![1], vec![0]]);
        let sol = solver.solve(|i, x| 2.0 * x[1 - i]).unwrap();
        assert!(!sol.feasible);
        assert_eq!(sol.clamped.len(), 2);
    }

    #[test]
    fn least_fixed_point_is_minimal() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let n = rng.gen_range(2..6);
            // Random monotone affine bounds: x_i ≥ c_i + Σ a_ij x_j with
            // Σ a_ij ≤ 0.8 (contraction → finite fixed point).
            let mut a = vec![vec![0.0; n]; n];
            let mut c = vec![0.0; n];
            for (i, row) in a.iter_mut().enumerate() {
                c[i] = rng.gen_range(0.0..2.0);
                let mut budget = 0.8;
                for (j, slot) in row.iter_mut().enumerate() {
                    if i == j {
                        continue;
                    }
                    let w = rng.gen_range(0.0..budget);
                    *slot = w;
                    budget -= w;
                }
            }
            let mut dependents = vec![Vec::new(); n];
            for (i, row) in a.iter().enumerate() {
                for (j, &w) in row.iter().enumerate() {
                    if w > 0.0 {
                        dependents[j].push(i);
                    }
                }
            }
            let solver = SmpSolver::new(vec![0.0; n], vec![1e9; n], dependents);
            let bound = |i: usize, x: &[f64]| c[i] + (0..n).map(|j| a[i][j] * x[j]).sum::<f64>();
            let sol = solver.solve(bound).unwrap();
            assert!(sol.feasible);
            // Feasibility: x_i ≥ bound_i(x).
            for i in 0..n {
                assert!(sol.x[i] + 1e-6 >= bound(i, &sol.x));
            }
            // Minimality: shrinking any coordinate violates something.
            for k in 0..n {
                if sol.x[k] <= 1e-9 {
                    continue; // at the lower bound already
                }
                let mut y = sol.x.clone();
                y[k] *= 1.0 - 1e-3;
                let violated = (0..n).any(|i| y[i] < bound(i, &y) - 1e-12);
                assert!(violated, "coordinate {k} could shrink");
            }
        }
    }

    #[test]
    fn warm_start_respects_starting_point() {
        // With no constraints, solve_from keeps the start (clamped).
        let solver = SmpSolver::new(vec![1.0; 2], vec![10.0; 2], vec![vec![], vec![]]);
        let sol = solver.solve_from(vec![5.0, 20.0], |_, _| 0.0).unwrap();
        assert_eq!(sol.x, vec![5.0, 10.0]);
    }

    #[test]
    fn bad_problems_are_rejected() {
        assert!(matches!(
            SmpSolver::try_new(vec![1.0], vec![], vec![vec![]]),
            Err(SmpError::BadProblem { .. })
        ));
        assert!(matches!(
            SmpSolver::try_new(vec![5.0], vec![1.0], vec![vec![]]),
            Err(SmpError::BadProblem { .. })
        ));
        assert!(matches!(
            SmpSolver::try_new(vec![1.0], vec![2.0], vec![vec![7]]),
            Err(SmpError::BadProblem { .. })
        ));
        let solver = SmpSolver::new(vec![1.0], vec![2.0], vec![vec![]]);
        assert!(matches!(
            solver.solve_from(vec![1.0, 2.0], |_, _| 0.0),
            Err(SmpError::BadProblem { .. })
        ));
    }

    #[test]
    fn error_display() {
        let e = SmpError::Diverged { updates: 10 };
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn seeded_solve_repairs_in_both_directions() {
        // Acyclic chain: x0 ≥ 2; x1 ≥ x0 + 1; x2 ≥ 2·x1 → (2, 3, 6).
        let solver = SmpSolver::new(vec![1.0; 3], vec![100.0; 3], vec![vec![1], vec![2], vec![]]);
        let bound = |i: usize, x: &[f64]| match i {
            0 => 2.0,
            1 => x[0] + 1.0,
            _ => 2.0 * x[1],
        };
        // Seed above the fixpoint in every coordinate: solve_from would
        // keep the propped values; the bidirectional path lowers them.
        let high = solver.solve_seeded(&[9.0, 9.0, 9.0], bound).unwrap();
        assert!(high.seeded);
        assert!(high.feasible);
        assert_eq!(high.x, vec![2.0, 3.0, 6.0]);
        // Seed below: behaves like a plain warm start.
        let low = solver.solve_seeded(&[1.0, 1.0, 1.0], bound).unwrap();
        assert_eq!(low.x, vec![2.0, 3.0, 6.0]);
        // Mixed seed, e.g. the previous iteration's solution after a
        // small budget change.
        let mixed = solver.solve_seeded(&[2.5, 2.0, 7.0], bound).unwrap();
        assert_eq!(mixed.x, vec![2.0, 3.0, 6.0]);
    }

    #[test]
    fn seeded_solve_matches_cold_on_random_acyclic_systems() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..25 {
            let n = rng.gen_range(3..9);
            // Random acyclic monotone bounds: x_i ≥ c_i + Σ_{j>i} a_ij x_j
            // (each constraint reads only higher-indexed variables).
            let mut a = vec![vec![0.0; n]; n];
            let mut c = vec![0.0; n];
            for (i, row) in a.iter_mut().enumerate() {
                c[i] = rng.gen_range(0.5..2.0);
                for slot in row.iter_mut().skip(i + 1) {
                    if rng.gen_bool(0.5) {
                        *slot = rng.gen_range(0.0..1.5);
                    }
                }
            }
            let mut dependents = vec![Vec::new(); n];
            for (i, row) in a.iter().enumerate() {
                for (j, &w) in row.iter().enumerate() {
                    if w > 0.0 {
                        dependents[j].push(i);
                    }
                }
            }
            let solver = SmpSolver::new(vec![0.0; n], vec![1e12; n], dependents);
            let bound = |i: usize, x: &[f64]| c[i] + (0..n).map(|j| a[i][j] * x[j]).sum::<f64>();
            let cold = solver.solve(bound).unwrap();
            // Seed with a perturbed copy of the cold solution.
            let seed: Vec<f64> = cold
                .x
                .iter()
                .map(|&v| v * rng.gen_range(0.7..1.3))
                .collect();
            let warm = solver.solve_seeded(&seed, bound).unwrap();
            assert!(warm.seeded);
            assert_eq!(warm.feasible, cold.feasible);
            for (i, (&w, &cv)) in warm.x.iter().zip(cold.x.iter()).enumerate() {
                assert!(
                    (w - cv).abs() <= 1e-9 * cv.abs().max(1.0),
                    "x[{i}]: seeded {w} vs cold {cv}"
                );
            }
            // A near-perfect seed converges in a single sweep.
            let fast = solver.solve_seeded(&cold.x, bound).unwrap();
            assert!(fast.updates <= n + 1, "{} updates", fast.updates);
        }
    }

    #[test]
    fn seeded_solve_falls_back_on_nonconverging_cycles() {
        // x0 ≥ 1 + x1/2, x1 ≥ 1 + x0/2 (contracting): seeded is fine.
        let solver = SmpSolver::new(vec![0.0; 2], vec![100.0; 2], vec![vec![1], vec![0]]);
        let sol = solver
            .solve_seeded(&[50.0, 50.0], |i, x| 1.0 + x[1 - i] / 2.0)
            .unwrap();
        assert!((sol.x[0] - 2.0).abs() < 1e-6);
        assert!((sol.x[1] - 2.0).abs() < 1e-6);
        // Divergent-but-bounded cycle: the seeded path saturates at the
        // box exactly like the cold path and stays on the fast path.
        let sol = solver
            .solve_seeded(&[5.0, 5.0], |i, x| 2.0 * x[1 - i])
            .unwrap();
        assert!(!sol.feasible);
        assert_eq!(sol.clamped.len(), 2);
        // A non-monotone oscillator (legal only as a robustness probe)
        // never settles bidirectionally: the update budget trips and the
        // cold monotone fallback takes over.
        let osc = SmpSolver::new(vec![0.0], vec![100.0], vec![vec![0]]);
        let sol = osc
            .solve_seeded(&[3.0], |_, x| if x[0] < 5.0 { 10.0 } else { 0.0 })
            .unwrap();
        assert!(!sol.seeded, "must have fallen back");
        assert_eq!(sol.x, vec![10.0]);
    }

    #[test]
    fn seeded_solve_rejects_bad_seed_lengths() {
        let solver = SmpSolver::new(vec![1.0], vec![2.0], vec![vec![]]);
        assert!(matches!(
            solver.solve_seeded(&[1.0, 2.0], |_, _| 0.0),
            Err(SmpError::BadProblem { .. })
        ));
    }
}
