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
//!
//! [`SmpSolver`] computes it in one pass over the condensation of the
//! dependency graph (its strongly connected components in dependency
//! order, computed once per solver). A block of one vertex that does not
//! read itself costs one evaluation, made after every variable it reads
//! is final; a cyclic block iterates from its lower bounds over itself
//! only (the chaotic constraint relaxation referenced from the paper).
//! Gate- and wire-mode delay models are acyclic, and a transistor-mode
//! cycle stays inside one gate's stack: the block-triangular form the
//! paper states for the sensitivity solve. The answer is a function of
//! the bound functions alone, so it never depends on earlier solves.
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
//! assert_eq!(sol.updates, 2);
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
    /// Always `false`: no solve starts from a seed. The field stays
    /// because the end-to-end benchmark's replay (`e2ebench/`) still
    /// reads it.
    pub seeded: bool,
}

/// A Simple Monotonic Program solver over box bounds.
///
/// `dependents[j]` lists the variables whose bound function reads `x_j`;
/// the solver orders its pass by them. The bound functions themselves
/// are supplied per solve call, so one solver can be reused across
/// W-phase iterations with different delay budgets.
#[derive(Debug, Clone)]
pub struct SmpSolver {
    lower: Vec<f64>,
    upper: Vec<f64>,
    dependents: Vec<Vec<usize>>,
    /// The variables block by block, the blocks in dependency order:
    /// every dependent of a block's variable lies in that block or a
    /// later one.
    order: Vec<usize>,
    /// Block `b` is `order[block_off[b]..block_off[b + 1]]`.
    block_off: Vec<usize>,
}

/// Relative convergence tolerance of an update inside a cyclic block.
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

    /// Fallible constructor validating shapes and bounds. It also
    /// condenses the dependency graph, once for every later solve.
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
        let (order, block_off) = condensation(&dependents);
        Ok(SmpSolver {
            lower,
            upper,
            dependents,
            order,
            block_off,
        })
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.lower.len()
    }

    /// Computes the least fixed point of `x ← max(lower, bound(i, x))`.
    ///
    /// `bound(i, x)` must be monotone non-decreasing in every component of
    /// `x`; it returns the smallest admissible value of `x_i` given the
    /// other variables (`f64::INFINITY` signals an unconditionally
    /// infeasible constraint; a NaN leaves `x_i` where it is).
    ///
    /// The blocks are solved in dependency order, each from its lower
    /// bounds. A variable alone in its block that does not read itself is
    /// evaluated once, when everything it reads is final: `x_i` is the
    /// bound raised to `lower` and clamped to `upper`, exactly. A cyclic
    /// block iterates over itself until no bound exceeds its variable by
    /// more than `1e-12` relative.
    ///
    /// # Errors
    ///
    /// Returns [`SmpError::Diverged`] if the update budget is exhausted,
    /// which indicates a non-monotone bound function (monotone iterations
    /// either converge or hit the upper bounds, which is reported as an
    /// infeasible-but-converged solution instead).
    pub fn solve(&self, bound: impl Fn(usize, &[f64]) -> f64) -> Result<SmpSolution, SmpError> {
        let n = self.num_vars();
        let mut x = self.lower.clone();
        let mut clamped = vec![false; n];
        let mut updates = 0usize;
        let max_updates = MAX_UPDATES_FACTOR * n.max(1) + 1_000;
        // Worklist state of the cyclic blocks, sized by the first one.
        let mut slot: Vec<Slot> = Vec::new();
        let mut queue = VecDeque::new();
        for span in self.block_off.windows(2) {
            let block = &self.order[span[0]..span[1]];
            if let [i] = *block {
                if !self.dependents[i].contains(&i) {
                    updates += 1;
                    let b = bound(i, &x);
                    if b > self.upper[i] {
                        x[i] = self.upper[i];
                        clamped[i] = true;
                    } else if b > self.lower[i] {
                        x[i] = b;
                    }
                    continue;
                }
            }
            // A cyclic block: FIFO worklist over its variables from their
            // lower bounds. An update queues only the dependents inside
            // the block; the later blocks are solved after it settles.
            slot.resize(n, Slot::Outside);
            for &i in block {
                slot[i] = Slot::Queued;
            }
            queue.extend(block);
            while let Some(i) = queue.pop_front() {
                slot[i] = Slot::Idle;
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
                        if slot[d] == Slot::Idle {
                            slot[d] = Slot::Queued;
                            queue.push_back(d);
                        }
                    }
                }
            }
            for &i in block {
                slot[i] = Slot::Outside;
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

    /// [`SmpSolver::solve`] after checking the length of `seed`, which it
    /// otherwise ignores: the least fixed point does not depend on a
    /// starting point. It stays only because the end-to-end benchmark's
    /// replay (`e2ebench/`) still calls it.
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
        self.solve(bound)
    }
}

/// Where a variable stands in the worklist of the cyclic block being
/// settled.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    /// Not in the block: solved before it, or to be solved after it.
    Outside,
    /// In the block and not queued.
    Idle,
    /// In the block and queued.
    Queued,
}

/// The strongly connected components of the graph `j → dependents[j]`
/// (Tarjan's algorithm, iterative), flattened: the variables block by
/// block with the blocks in dependency order, and the block offsets.
fn condensation(dependents: &[Vec<usize>]) -> (Vec<usize>, Vec<usize>) {
    const UNSEEN: usize = usize::MAX;
    let n = dependents.len();
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    // The depth-first path: each vertex with the next dependent to visit.
    let mut path: Vec<(usize, usize)> = Vec::new();
    let mut order = Vec::with_capacity(n);
    // Tarjan completes a component only after every component it reaches,
    // so `order` fills in reverse dependency order; `ends` marks the
    // component boundaries in that order.
    let mut ends = vec![0];
    let mut next = 0;
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        path.push((root, 0));
        while let Some(&(v, edge)) = path.last() {
            if index[v] == UNSEEN {
                index[v] = next;
                low[v] = next;
                next += 1;
                on_stack[v] = true;
                stack.push(v);
            }
            if let Some(&w) = dependents[v].get(edge) {
                path.last_mut().expect("v is on the path").1 += 1;
                if index[w] == UNSEEN {
                    path.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            path.pop();
            if let Some(&(parent, _)) = path.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                loop {
                    let w = stack.pop().expect("v is on the stack");
                    on_stack[w] = false;
                    order.push(w);
                    if w == v {
                        break;
                    }
                }
                ends.push(order.len());
            }
        }
    }
    order.reverse();
    let block_off = ends.iter().rev().map(|&e| n - e).collect();
    (order, block_off)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The FIFO worklist over all variables from the lower bounds, the
    /// solver before the condensation pass: the oracle of the tests.
    fn worklist_oracle(solver: &SmpSolver, bound: impl Fn(usize, &[f64]) -> f64) -> SmpSolution {
        let n = solver.num_vars();
        let mut x = solver.lower.clone();
        let mut clamped = vec![false; n];
        let mut in_queue = vec![true; n];
        let mut queue: VecDeque<usize> = (0..n).collect();
        let mut updates = 0usize;
        while let Some(i) = queue.pop_front() {
            in_queue[i] = false;
            updates += 1;
            let b = bound(i, &x);
            let tol = REL_TOL * x[i].abs().max(1.0);
            if b > x[i] + tol {
                if b > solver.upper[i] {
                    clamped[i] = true;
                    if x[i] == solver.upper[i] {
                        continue;
                    }
                    x[i] = solver.upper[i];
                } else {
                    clamped[i] = false;
                    x[i] = b;
                }
                for &d in &solver.dependents[i] {
                    if !in_queue[d] {
                        in_queue[d] = true;
                        queue.push_back(d);
                    }
                }
            }
        }
        let clamped: Vec<usize> = (0..n).filter(|&i| clamped[i]).collect();
        SmpSolution {
            feasible: clamped.is_empty(),
            clamped,
            x,
            updates,
            seeded: false,
        }
    }

    /// A random affine SMP `x_i ≥ c_i + Σ_j a_ij·x_j` whose dependency
    /// graph condenses into `groups`: each group of more than one variable
    /// is a ring plus random chords (so strongly connected) with row sums
    /// at most 0.3 inside it, and variables read earlier groups with
    /// weights up to 1.5. Variables are labelled by a random permutation
    /// and every `dependents` list is shuffled, so neither follows the
    /// index order.
    struct Affine {
        c: Vec<f64>,
        /// `reads[i]`: the pairs `(j, a_ij)` of variable `i`'s bound.
        reads: Vec<Vec<(usize, f64)>>,
        groups: Vec<Vec<usize>>,
    }

    impl Affine {
        fn random(rng: &mut StdRng, n: usize, max_group: usize) -> Self {
            let mut label: Vec<usize> = (0..n).collect();
            shuffle(rng, &mut label);
            let mut groups: Vec<Vec<usize>> = Vec::new();
            let mut k = 0;
            while k < n {
                let len = rng.gen_range(1..=max_group).min(n - k);
                groups.push(label[k..k + len].to_vec());
                k += len;
            }
            let mut reads = vec![Vec::new(); n];
            for (g, group) in groups.iter().enumerate() {
                for (r, &i) in group.iter().enumerate() {
                    if group.len() > 1 {
                        let ring = group[(r + 1) % group.len()];
                        let mut budget = 0.3;
                        let w = rng.gen_range(0.01..budget);
                        budget -= w;
                        reads[i].push((ring, w));
                        for &j in group {
                            if j != ring && rng.gen_bool(0.4) {
                                let w = rng.gen_range(0.0..budget);
                                budget -= w;
                                reads[i].push((j, w));
                            }
                        }
                    }
                    for earlier in &groups[..g] {
                        for &j in earlier {
                            if rng.gen_bool(0.3) {
                                reads[i].push((j, rng.gen_range(0.0..1.5)));
                            }
                        }
                    }
                }
            }
            let c = (0..n).map(|_| rng.gen_range(0.5..2.0)).collect();
            Affine { c, reads, groups }
        }

        fn dependents(&self, rng: &mut StdRng) -> Vec<Vec<usize>> {
            let mut dependents = vec![Vec::new(); self.c.len()];
            for (i, reads) in self.reads.iter().enumerate() {
                for &(j, _) in reads {
                    dependents[j].push(i);
                }
            }
            for deps in &mut dependents {
                shuffle(rng, deps);
            }
            dependents
        }

        fn bound(&self, i: usize, x: &[f64]) -> f64 {
            self.c[i] + self.reads[i].iter().map(|&(j, a)| a * x[j]).sum::<f64>()
        }
    }

    fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
        for k in (1..items.len()).rev() {
            items.swap(k, rng.gen_range(0..=k));
        }
    }

    /// Asserts that a solve agrees with the oracle within what the
    /// tolerance allows. Both iterate from below and stop once no update
    /// would raise a variable by more than `REL_TOL` relative (the pass
    /// only inside cyclic blocks), so each sits below the exact fixed
    /// point `x*` by at most `e`, the least solution of
    /// `e_i ≥ t_i + Σ_j a_ij·e_j`, where `t_i` is that tolerance plus the
    /// rounding of one bound evaluation: skipped remainders add up along
    /// dependency chains, so two answers can differ by more than
    /// `REL_TOL` (up to 2.6× it over 20 000 of these cyclic systems).
    /// `e` comes from the oracle, not from the solver checked.
    fn assert_matches_oracle(system: &Affine, solver: &SmpSolver, sol: &SmpSolution) {
        let oracle = worklist_oracle(solver, |i, x| system.bound(i, x));
        assert_eq!(sol.clamped, oracle.clamped);
        assert_eq!(sol.feasible, oracle.feasible);
        let n = solver.num_vars();
        // `e` in units of `REL_TOL`, so that its own solve, which stops
        // within `REL_TOL` relative, is accurate enough.
        let t: Vec<f64> = oracle
            .x
            .iter()
            .map(|&o| o.abs().max(1.0) + 64.0 * f64::EPSILON / REL_TOL * o.abs())
            .collect();
        let errors = SmpSolver::new(vec![0.0; n], vec![f64::MAX; n], solver.dependents.clone());
        let e = worklist_oracle(&errors, |i, e| {
            t[i] + system.reads[i].iter().map(|&(j, a)| a * e[j]).sum::<f64>()
        });
        for (i, (&s, &o)) in sol.x.iter().zip(&oracle.x).enumerate() {
            let allowed = REL_TOL * e.x[i];
            assert!(
                (s - o).abs() <= allowed,
                "x[{i}]: pass {s} vs oracle {o}, allowed {allowed}"
            );
        }
    }

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
        assert_eq!(sol.updates, 3);
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
    fn nan_bound_leaves_the_lower_bound() {
        // Variable 0 alone, 1 and 2 a cycle; every bound is NaN.
        let solver = SmpSolver::new(
            vec![1.0, 2.0, 3.0],
            vec![10.0; 3],
            vec![vec![1], vec![2], vec![1]],
        );
        let sol = solver.solve(|_, _| f64::NAN).unwrap();
        assert!(sol.feasible);
        assert_eq!(sol.x, vec![1.0, 2.0, 3.0]);
        assert_eq!(sol, worklist_oracle(&solver, |_, _| f64::NAN));
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
    fn self_reading_variable_iterates_to_its_fixed_point() {
        // x0 ≥ 1 + x0/2 reads itself: a cyclic block of one, fixed point 2.
        let solver = SmpSolver::new(vec![0.0], vec![100.0], vec![vec![0]]);
        let sol = solver.solve(|_, x| 1.0 + x[0] / 2.0).unwrap();
        assert!((sol.x[0] - 2.0).abs() < 1e-9);
        assert!(sol.updates > 1);
    }

    #[test]
    fn non_contracting_cycle_exhausts_the_update_budget() {
        // x0 ≥ x0 + 1 climbs by one per update towards a far upper bound.
        let solver = SmpSolver::new(vec![0.0], vec![1e300], vec![vec![0]]);
        let err = solver.solve(|_, x| x[0] + 1.0).unwrap_err();
        assert_eq!(
            err,
            SmpError::Diverged {
                updates: MAX_UPDATES_FACTOR + 1_001
            }
        );
    }

    #[test]
    fn least_fixed_point_is_minimal() {
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
    fn condensation_finds_the_blocks_in_dependency_order() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let n = rng.gen_range(1..40);
            let system = Affine::random(&mut rng, n, 5);
            let dependents = system.dependents(&mut rng);
            let solver = SmpSolver::new(vec![0.0; n], vec![1.0; n], dependents.clone());
            let mut block_of = vec![usize::MAX; n];
            for (b, span) in solver.block_off.windows(2).enumerate() {
                for &v in &solver.order[span[0]..span[1]] {
                    assert_eq!(block_of[v], usize::MAX, "{v} listed twice");
                    block_of[v] = b;
                }
            }
            assert!(block_of.iter().all(|&b| b != usize::MAX));
            for (j, deps) in dependents.iter().enumerate() {
                for &i in deps {
                    assert!(block_of[j] <= block_of[i], "{i} reads {j} of a later block");
                }
            }
            let mut blocks: Vec<Vec<usize>> = solver
                .block_off
                .windows(2)
                .map(|span| {
                    let mut block = solver.order[span[0]..span[1]].to_vec();
                    block.sort_unstable();
                    block
                })
                .collect();
            let mut groups = system.groups.clone();
            for group in &mut groups {
                group.sort_unstable();
            }
            blocks.sort();
            groups.sort();
            assert_eq!(blocks, groups);
        }
    }

    #[test]
    fn pass_matches_the_worklist_on_random_dags() {
        let mut rng = StdRng::seed_from_u64(17);
        for case in 0..60 {
            let n = rng.gen_range(1..60);
            let system = Affine::random(&mut rng, n, 1);
            let dependents = system.dependents(&mut rng);
            // Every other case has upper bounds low enough to clamp.
            let upper = if case % 2 == 0 { 1e12 } else { 20.0 };
            let solver = SmpSolver::new(vec![0.7; n], vec![upper; n], dependents);
            let bound = |i: usize, x: &[f64]| system.bound(i, x);
            let sol = solver.solve(bound).unwrap();
            assert_eq!(sol.updates, n);
            // One evaluation each, after its inputs are final: the exact
            // fixed point of the evaluations, bit for bit.
            for i in 0..n {
                let b = bound(i, &sol.x);
                let fixed = if b > upper { upper } else { b.max(0.7) };
                assert_eq!(sol.x[i].to_bits(), fixed.to_bits(), "x[{i}]");
            }
            assert_matches_oracle(&system, &solver, &sol);
        }
    }

    #[test]
    fn pass_matches_the_worklist_on_small_cyclic_blocks() {
        let mut rng = StdRng::seed_from_u64(23);
        for case in 0..60 {
            let n = rng.gen_range(2..60);
            let system = Affine::random(&mut rng, n, 5);
            let dependents = system.dependents(&mut rng);
            let upper = if case % 2 == 0 { 1e12 } else { 20.0 };
            let solver = SmpSolver::new(vec![0.7; n], vec![upper; n], dependents);
            let sol = solver.solve(|i, x| system.bound(i, x)).unwrap();
            assert_matches_oracle(&system, &solver, &sol);
        }
    }

    #[test]
    fn seeded_solve_ignores_its_seed() {
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..20 {
            let n = rng.gen_range(2..30);
            let system = Affine::random(&mut rng, n, 5);
            let solver = SmpSolver::new(vec![0.7; n], vec![1e12; n], system.dependents(&mut rng));
            let bound = |i: usize, x: &[f64]| system.bound(i, x);
            let sol = solver.solve(bound).unwrap();
            let below = vec![0.0; n];
            let above: Vec<f64> = sol.x.iter().map(|&v| 3.0 * v).collect();
            for seed in [&below, &sol.x, &above] {
                let seeded = solver.solve_seeded(seed, bound).unwrap();
                assert_eq!(seeded, sol);
                let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&seeded.x), bits(&sol.x));
            }
        }
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
            solver.solve_seeded(&[1.0, 2.0], |_, _| 0.0),
            Err(SmpError::BadProblem { .. })
        ));
    }

    #[test]
    fn error_display() {
        let e = SmpError::Diverged { updates: 10 };
        assert!(e.to_string().contains("10"));
    }
}
