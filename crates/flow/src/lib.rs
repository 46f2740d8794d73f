//! Min-cost network flow for MINFLOTRANSIT's D-phase.
//!
//! The paper's D-phase redistributes delay budgets by solving a linear
//! program "whose dual is a min-cost network flow problem" (§2.3.1,
//! problem (10)). This crate provides both halves, in two usage styles.
//!
//! # One-shot solves
//!
//! * [`FlowNetwork`] — build a network, then solve it with successive
//!   shortest paths ([`FlowNetwork::solve`]), a primal network simplex
//!   ([`FlowNetwork::solve_simplex`], the algorithm family of the
//!   paper's reference \[9\]), or a slow label-correcting reference
//!   solver ([`FlowNetwork::solve_reference`]); an
//!   optimality-certificate checker ([`FlowSolution::verify`])
//!   cross-validates all three;
//! * [`DualLp`] — difference-constraint LPs
//!   `max b·r  s.t.  r_u − r_v ≤ c_uv` solved through the flow dual, with
//!   **integer** optimal `r` recovered from the node potentials (the
//!   paper's displacement `r : V → Z`) and a strong-duality certificate.
//!
//! # Persistent solves (topology/cost split)
//!
//! MINFLOTRANSIT's inner loop re-solves the *same* network a few tens of
//! times with only costs, bounds and supplies changing. For that
//! pattern the instance is split into:
//!
//! * [`NetworkTopology`] — immutable CSR-style arc arrays built once
//!   (every node gets super-source/sink arcs up front, so no supply
//!   pattern ever changes the arc structure);
//! * [`CostLayer`] — the mutable per-arc costs/capacities and per-node
//!   supplies.
//!
//! The [`McfSolver`] trait ties them together: [`SspSolver`],
//! [`SimplexSolver`], [`DualSimplexSolver`] and [`ReferenceSolver`] own
//! a topology + layer, keep their scratch buffers alive across solves,
//! and optionally **warm-start** each re-solve from the previous
//! solve's dual state (SSP reuses node potentials via a repair sweep;
//! the primal simplex reuses the spanning-tree basis, repairing it back
//! to primal feasibility; the dual simplex keeps the basis dual
//! feasible and pivots the primal violations away directly). Warm
//! solves return certified optima but may pick a different optimal
//! vertex than a cold solve when the optimum is degenerate; cold solves
//! are bit-identical to the one-shot entry points. [`DualSolver`] lifts
//! the same pattern to difference-constraint LPs
//! ([`DualLp::into_solver`]).
//!
//! The simplex solvers' entering-arc *pricing* is chosen via the closed
//! [`PivotRule`] enum (see [`pivot`]): block-cached
//! [`PivotRule::Dantzig`] by default, with first-eligible and
//! candidate-list block-search pricing as cheaper-scan alternatives
//! for large networks. [`FlowAlgorithm`]
//! names every backend × rule combination for configuration surfaces.
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
//! let sol = lp.maximize(0)?;
//! assert_eq!(sol.r[1], 3);
//! lp.verify(&sol, 0)?;
//! # Ok(())
//! # }
//! ```
//!
//! Persistent re-solving with cost updates and warm starts:
//!
//! ```
//! use mft_flow::{FlowNetwork, McfSolver, SspSolver};
//!
//! # fn main() -> Result<(), mft_flow::FlowError> {
//! let mut net = FlowNetwork::new(3);
//! net.set_supply(0, 1.0);
//! net.set_supply(2, -1.0);
//! let top = net.add_arc(0, 1, f64::INFINITY, 1)?;
//! net.add_arc(1, 2, f64::INFINITY, 1)?;
//! net.add_arc(0, 2, f64::INFINITY, 3)?;
//! let mut solver = SspSolver::new(&net);
//! solver.set_warm_start(true);
//! assert_eq!(solver.solve()?.total_cost, 2.0); // via the middle node
//! solver.layer_mut().set_cost(top, 9)?;        // re-price, re-solve
//! assert_eq!(solver.solve()?.total_cost, 3.0); // direct arc now wins
//! assert_eq!(solver.stats().warm_solves, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dual;
mod dual_simplex;
mod error;
mod network;
pub mod pivot;
mod potentials;
mod simplex;
mod solver;
mod topology;

pub use dual::{DualLp, DualSolution, DualSolver, FlowAlgorithm};
pub use dual_simplex::DualSimplexSolver;
pub use error::FlowError;
pub use network::{ArcId, FlowNetwork, FlowSolution};
pub use pivot::{BlockSearch, DantzigBlocks, PivotRule, PricingContext};
pub use simplex::SimplexSolver;
pub use solver::{
    CancelProbe, McfInstance, McfSolver, ProbeHandle, ReferenceSolver, SolverStats, SspSolver,
};
pub use topology::{CostLayer, NetworkTopology};
