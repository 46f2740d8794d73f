//! Min-cost network flow for MINFLOTRANSIT's D-phase.
//!
//! The paper's D-phase redistributes delay budgets by solving a linear
//! program "whose dual is a min-cost network flow problem" (§2.3.1,
//! problem (10)). This crate provides both halves:
//!
//! * [`FlowNetwork`] — build a network, then solve it with the primal
//!   network simplex ([`FlowNetwork::solve`], the algorithm family of
//!   the paper's reference \[9\]), or with a slow label-correcting
//!   reference solver ([`FlowNetwork::solve_reference`]) that tests
//!   check the simplex against; an optimality-certificate checker
//!   ([`FlowSolution::verify`]) cross-validates both;
//! * [`DualLp`] — difference-constraint LPs
//!   `max b·r  s.t.  r_u − r_v ≤ c_uv`, frozen into a [`DualSolver`]
//!   ([`DualLp::into_solver`]) that solves them through the flow dual,
//!   with **integer** optimal `r` recovered from the node potentials
//!   (the paper's displacement `r : V → Z`) and a strong-duality
//!   certificate ([`DualSolver::verify`]).
//!
//! # Persistent solves
//!
//! MINFLOTRANSIT's inner loop re-solves the *same* network a few tens of
//! times with only costs, bounds and supplies changing. The
//! [`SimplexSolver`] freezes a network's arcs once, takes cost and
//! supply rewrites in place ([`SimplexSolver::set_cost`],
//! [`SimplexSolver::set_supply`]), keeps its scratch buffers alive
//! across solves, and **warm-starts** each re-solve from the previous
//! solve's spanning tree, repairing it back to primal feasibility.
//! [`DualSolver`] lifts the same pattern to difference-constraint LPs.
//!
//! A warm solve may end in a different optimal basis, and with a
//! different optimal flow, than a cold one when the optimum is
//! degenerate. The returned potentials cannot tell: they are recomputed
//! from the optimal flow as the greatest optimal dual that is `≤ 0`,
//! and every optimal flow certifies the same set of optimal duals. So
//! the potentials (and a [`DualSolver`]'s `r`) are a function of the
//! instance alone, whichever basis a solve started from. On integral
//! instances the flows are exact integers and the certificate reads the
//! residual graph exactly.
//!
//! The simplex selects entering arcs by Dantzig's rule (the most
//! negative reduced cost), with a per-block cache that re-prices only
//! the arcs a pivot can have changed.
//!
//! # Examples
//!
//! ```
//! use mft_flow::DualLp;
//!
//! # fn main() -> Result<(), mft_flow::FlowError> {
//! // maximize r1  subject to  r1 − r0 ≤ 3  (r0 is ground)
//! let mut lp = DualLp::new(2);
//! lp.add_objective(1, 1.0);
//! lp.add_constraint(1, 0, 3)?;
//! lp.add_constraint(0, 1, 0)?; // r1 ≥ 0 keeps the dual feasible
//! let mut solver = lp.into_solver(0)?;
//! let sol = solver.maximize()?;
//! assert_eq!(sol.r[1], 3);
//! solver.verify(&sol)?;
//! solver.set_bound(0, 5)?; // loosen r1 − r0 ≤ 5, re-solve
//! assert_eq!(solver.maximize()?.r[1], 5);
//! # Ok(())
//! # }
//! ```
//!
//! Persistent re-solving with cost updates (every solve after the
//! first warm-starts):
//!
//! ```
//! use mft_flow::{FlowNetwork, SimplexSolver};
//!
//! # fn main() -> Result<(), mft_flow::FlowError> {
//! let mut net = FlowNetwork::new(3);
//! net.set_supply(0, 1.0);
//! net.set_supply(2, -1.0);
//! let top = net.add_arc(0, 1, f64::INFINITY, 1)?;
//! net.add_arc(1, 2, f64::INFINITY, 1)?;
//! net.add_arc(0, 2, f64::INFINITY, 3)?;
//! let mut solver = SimplexSolver::new(&net);
//! assert_eq!(solver.solve()?.total_cost, 2.0); // via the middle node
//! solver.set_cost(top, 9)?;                    // re-price, re-solve
//! assert_eq!(solver.solve()?.total_cost, 3.0); // direct arc now wins
//! assert_eq!(solver.stats().warm_solves, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dual;
mod error;
mod network;
mod pivot;
mod potentials;
mod simplex;
mod solver;
mod topology;

pub use dual::{DualLp, DualSolution, DualSolver, FlowAlgorithm};
pub use error::FlowError;
pub use network::{ArcId, FlowNetwork, FlowSolution};
pub use simplex::SimplexSolver;
pub use solver::{CancelProbe, ProbeHandle, SolverStats};
