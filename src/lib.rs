//! # MINFLOTRANSIT — min-cost-flow based transistor sizing
//!
//! A production-quality Rust reproduction of
//!
//! > V. Sundararajan, S. S. Sapatnekar, K. K. Parhi,
//! > *"MINFLOTRANSIT: Min-Cost Flow Based Transistor Sizing Tool"*,
//! > Proceedings of the 37th Design Automation Conference (DAC), 2000.
//!
//! Given a combinational static-CMOS netlist and a delay target `T`, the
//! tool finds minimum-area transistor (or gate) sizes meeting `T` by an
//! iterative relaxation: a **D-phase** that redistributes per-element
//! delay budgets through the dual of a min-cost network flow, alternated
//! with a **W-phase** that resizes to the budgets by solving a Simple
//! Monotonic Program. A TILOS-style greedy sizer provides the initial
//! solution and the experimental baseline.
//!
//! This facade crate re-exports the entire workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`circuit`] | `mft-circuit` | netlists, gate library, series–parallel networks, the circuit DAG, `.bench` I/O |
//! | [`delay`] | `mft-delay` | technology parameters, Elmore + generalized monotonic delay models |
//! | [`sta`] | `mft-sta` | timing analysis, delay balancing (FSDUs), FSDU displacement |
//! | [`flow`] | `mft-flow` | min-cost flow, difference-constraint LP dual |
//! | [`smp`] | `mft-smp` | Simple Monotonic Program solver |
//! | [`tech`] | `mft-tech` | multi-corner technology library, leakage/switching power models |
//! | [`tilos`] | `mft-tilos` | the TILOS baseline sizer |
//! | [`core`] | `mft-core` | the MINFLOTRANSIT optimizer and `SizingSession`, the one sizing API (size, power, TILOS-only, parallel sweeps, what-if, server) |
//! | [`gen`] | `mft-gen` | benchmark circuit generators (ISCAS-85-like suite, adders, multipliers) |
//!
//! # Quickstart
//!
//! All sizing runs through one API: a [`core::SizingSession`] owns the
//! prepared problem plus all warm state (TILOS trajectory, flow network,
//! SMP solver, incremental timing engine) and serves size / sweep /
//! what-if / stats requests against it — each result bit-identical to
//! the same request on a new session, work amortized across requests. The same requests travel as newline-delimited JSON through
//! `mft serve` ([`core::Request`]/[`core::Response`]).
//!
//! ```
//! use minflotransit::circuit::{parse_bench, SizingMode, C17_BENCH};
//! use minflotransit::core::{SessionConfig, SizingSession};
//! use minflotransit::delay::Technology;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let netlist = parse_bench("c17", C17_BENCH)?;
//! let mut session = SizingSession::prepare(
//!     &netlist,
//!     &Technology::cmos_130nm(),
//!     SizingMode::Gate,
//!     SessionConfig::warm(),
//! )?;
//! let solution = session.size_to(0.7 * session.problem().dmin())?;
//! println!(
//!     "area {:.1} ({:.1}% below the TILOS seed), delay {:.1} ps",
//!     solution.area,
//!     solution.area_saving_percent(),
//!     solution.achieved_delay
//! );
//! # Ok(())
//! # }
//! ```
//!
//! [`core::Minflotransit::optimize_from`] runs the D/W relaxation alone
//! from a given start, for custom delay models.
//!
//! See `examples/` for runnable scenarios (quickstart, the JSON line
//! protocol, area–delay trade-off sweeps, true transistor sizing,
//! `.bench` loading, wire sizing) and `crates/bench` for the harnesses
//! regenerating every table and figure of the paper (`table1`, `fig7`,
//! `scaling`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mft_circuit as circuit;
pub use mft_core as core;
pub use mft_delay as delay;
pub use mft_flow as flow;
pub use mft_gen as gen;
pub use mft_smp as smp;
pub use mft_sta as sta;
pub use mft_tech as tech;
pub use mft_tilos as tilos;
