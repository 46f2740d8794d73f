//! Delay models for MINFLOTRANSIT: the Elmore model of the paper's Eq.
//! (2)/(3) decomposed into *simple monotonic functionals*, a technology
//! parameter set, and a generalized `x^{-α}` drive model demonstrating the
//! paper's "beyond Elmore" claim.
//!
//! Every sizing vertex `i` (gate, transistor or wire — see
//! [`mft_circuit::SizingDag`]) gets a delay attribute
//!
//! ```text
//! delay(i) = p_i + (b_i + Σ_j a_ij · x_j) / x_i
//! ```
//!
//! with non-negative coefficients extracted once from the circuit
//! structure; delays, minimum feasible sizes (for the W-phase) and the
//! D-phase area-sensitivity coefficients `C_i` all evaluate from this
//! table.
//!
//! # Examples
//!
//! ```
//! use mft_circuit::{GateKind, NetlistBuilder, SizingDag};
//! use mft_delay::{apply_default_loads, DelayModel, LinearDelayModel, Technology};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new("buffer_chain");
//! let a = b.input("a");
//! let x = b.inv(a)?;
//! let y = b.inv(x)?;
//! b.output(y, "out");
//! let mut netlist = b.finish()?;
//!
//! let tech = Technology::cmos_130nm();
//! apply_default_loads(&mut netlist, &tech);
//! let dag = SizingDag::gate_mode(&netlist)?;
//! let model = LinearDelayModel::elmore(&netlist, &dag, &tech)?;
//!
//! let sizes = vec![1.0; dag.num_vertices()];
//! let delays = model.delays(&sizes);
//! assert!(delays.iter().all(|&d| d > 0.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod elmore;
mod error;
mod general;
mod model;
mod tech;

pub use elmore::apply_default_loads;
pub use error::DelayError;
pub use general::GeneralizedDelayModel;
pub use model::{DelayModel, DiffScratch, LinearDelayModel, VertexCoefficients};
pub use tech::{Technology, TechnologyError};
