//! Static-CMOS circuit modelling for the MINFLOTRANSIT sizing tool.
//!
//! This crate provides the structural substrate of the reproduction of
//! *"MINFLOTRANSIT: Min-Cost Flow Based Transistor Sizing Tool"*
//! (Sundararajan, Sapatnekar, Parhi — DAC 2000):
//!
//! * a gate library of primitive single-stage static-CMOS gates
//!   ([`GateKind`]) with their series–parallel pull-up/pull-down transistor
//!   networks ([`SpNetwork`]);
//! * immutable combinational [`Netlist`]s with a [`NetlistBuilder`],
//!   validation, topological utilities and macro-gate expansion;
//! * the **circuit DAG** of the paper's §2.1–2.2 ([`SizingDag`]): one vertex
//!   per sizable element (gate, transistor, or wire) with edges along
//!   charging/discharging paths — the structure on which timing analysis,
//!   delay balancing and both optimization phases operate;
//! * an ISCAS-85 `.bench` parser/writer.
//!
//! # Examples
//!
//! Build the paper's Figure 2 circuit (two 3-input NANDs in series) and
//! derive its transistor-level DAG:
//!
//! ```
//! use mft_circuit::{GateKind, NetlistBuilder, SizingDag};
//!
//! # fn main() -> Result<(), mft_circuit::CircuitError> {
//! let mut b = NetlistBuilder::new("fig2");
//! let pins: Vec<_> = (0..5).map(|i| b.input(format!("i{i}"))).collect();
//! let n1 = b.gate(GateKind::Nand(3), &[pins[0], pins[1], pins[2]])?;
//! let n2 = b.gate(GateKind::Nand(3), &[n1, pins[3], pins[4]])?;
//! b.output(n2, "out");
//! let netlist = b.finish()?;
//!
//! let dag = SizingDag::transistor_mode(&netlist)?;
//! assert_eq!(dag.num_vertices(), 12); // 6 transistors per NAND3
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench_format;
mod dag;
mod error;
mod expand;
mod gate;
mod id;
mod netlist;
mod sim;
mod spnet;
mod stats;

pub use bench_format::{parse_bench, parse_bench_primitive, write_bench, C17_BENCH};
pub use dag::{SizingDag, SizingMode, VertexOwner};
pub use error::CircuitError;
pub use gate::{Gate, GateKind, MAX_STACK};
pub use id::{EdgeId, GateId, NetId, VertexId};
pub use netlist::{Load, Net, NetDriver, Netlist, NetlistBuilder};
pub use sim::{evaluate, evaluate_nets};
pub use spnet::{DeviceIdx, NetworkSide, NodeIdx, SpDevice, SpNetwork, SpTopology};
pub use stats::NetlistStats;
