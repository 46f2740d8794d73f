//! Static timing analysis, delay balancing and FSDU machinery for
//! MINFLOTRANSIT (§2.3.1 of the paper).
//!
//! Operates on the circuit DAG from [`mft_circuit`] with externally
//! supplied vertex delays (produced by the `mft-delay` crate's models):
//!
//! * [`TimingReport`] — arrival/required times, vertex and edge slacks,
//!   and the critical path, exactly as the paper's Eq. (8);
//! * [`IncrementalTiming`] — the incremental engine behind the sizing
//!   stack's per-bump timing: one topological sweep over the affected
//!   cone only (dense once most of it is dirty) and a lazily-invalidated
//!   critical-path tracker (bit-identical to the cold functions — see
//!   the [`incremental`] module docs for the invariants);
//! * [`BalancedConfig`] — delay-balanced configurations built with
//!   Fictitious Specific Delay Units (FSDUs) capturing all circuit slack,
//!   plus FSDU-*displacement* (Eq. (9)) and helpers validating the paper's
//!   Theorems 1 and 2;
//! * critical-path extraction used by the TILOS baseline;
//! * [`counter_group!`] — the one declaration of a plain work-counter
//!   group (`TimingStats` here, and the TILOS and W-phase groups).
//!
//! # Examples
//!
//! ```
//! use mft_circuit::{NetlistBuilder, SizingDag};
//! use mft_sta::{BalanceStyle, BalancedConfig, TimingReport};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new("chain");
//! let a = b.input("a");
//! let x = b.inv(a)?;
//! let y = b.inv(x)?;
//! b.output(y, "out");
//! let netlist = b.finish()?;
//! let dag = SizingDag::gate_mode(&netlist)?;
//!
//! let delays = vec![2.0, 3.0];
//! let report = TimingReport::compute(&dag, &delays)?;
//! assert_eq!(report.critical_path, 5.0);
//!
//! // Capture the slack against a looser target in FSDUs.
//! let cfg = BalancedConfig::balance(&dag, &delays, 8.0, BalanceStyle::Asap)?;
//! assert!(cfg.verify(&dag, &delays) < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod balance;
pub mod bitset;
mod counters;
mod error;
pub mod incremental;
mod paths;
mod timing;

pub use balance::{displacement_between, BalanceStyle, BalancedConfig};
pub use bitset::DenseBitSet;
pub use error::StaError;
pub use incremental::{IncrementalConfig, IncrementalTiming, TimingStats};
pub use paths::{near_critical_count, top_paths, DelayPath};
pub use timing::{arrival_times, critical_path, extract_critical_path, TimingReport};
