//! MINFLOTRANSIT — min-cost-flow based transistor and gate sizing.
//!
//! A reproduction of V. Sundararajan, S. S. Sapatnekar, K. K. Parhi,
//! *"MINFLOTRANSIT: Min-Cost Flow Based Transistor Sizing Tool"* (DAC
//! 2000). The optimizer is an iterative relaxation with two alternating
//! phases seeded by a TILOS solution:
//!
//! * **D-phase** — sizes fixed, delays variable: redistribute per-vertex
//!   delay budgets to maximize predicted area recovery, formulated on a
//!   delay-balanced circuit DAG and solved exactly through the dual of a
//!   min-cost network flow ([`mft_flow`]);
//! * **W-phase** — delays fixed, sizes variable: find the minimum-area
//!   sizes meeting the budgets as a Simple Monotonic Program
//!   ([`mft_smp`]).
//!
//! The phases alternate until the area improvement is negligible; every
//! intermediate solution stays timing-feasible.
//!
//! # Sessions — the one sizing API
//!
//! All sizing runs through [`SizingSession`]: a long-lived, re-entrant
//! handle that owns a prepared [`SizingProblem`] plus the stack's warm
//! state — per objective, the target-independent TILOS bump trajectory
//! and a [`SolverContext`] (the D-phase flow network, the W-phase SMP
//! solver and the incremental timing engine) — and serves typed
//! requests against it:
//!
//! * [`SizingSession::size_to`] — full MINFLOTRANSIT sizing to a target;
//! * [`SizingSession::size_to_power`] — the same pipeline minimizing
//!   total power instead of area;
//! * [`SizingSession::tilos_to`] — the TILOS seed alone;
//! * [`SizingSession::sweep`] — a multi-point area–delay curve;
//! * [`SizingSession::what_if`] — re-time a candidate size vector
//!   through a [`ReadView`], no optimization;
//! * [`SizingSession::stats`] — cumulative service counters;
//! * [`SizingSession::serve`] — the same requests as a typed
//!   request/response protocol ([`Request`]/[`Response`]), with a
//!   newline-delimited JSON wire format behind the `mft serve` CLI.
//!
//! Configuration is one builder, [`SessionConfig`]: the optimizer
//! ([`MinflotransitConfig`]) and TILOS knobs and the sweep worker
//! count. Every session shares its trajectory and solvers across
//! requests. The D-phase warm-starts each flow solve from the basis the
//! last one left; its answer does not depend on that basis (see
//! [`DPhaseSolver`]). Each W-phase solves its SMP from the lower bounds
//! in one pass, so it carries no state either. A request therefore
//! answers the same bytes as on a new session.
//!
//! Requests may arrive in any order (see the [`session`-module
//! exactness notes](SizingSession) and `tests/session_golden.rs`).
//! [`Minflotransit`] alone is the D/W relaxation from a caller-provided
//! start ([`Minflotransit::optimize_from`]), for custom delay models;
//! [`DPhaseSolver`] solves one D-phase LP.
//!
//! ```
//! use mft_circuit::{parse_bench, SizingMode, C17_BENCH};
//! use mft_core::{SessionConfig, SizingSession};
//! use mft_delay::Technology;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let netlist = parse_bench("c17", C17_BENCH)?;
//! let mut session = SizingSession::prepare(
//!     &netlist,
//!     &Technology::cmos_130nm(),
//!     SizingMode::Gate,
//!     SessionConfig::warm(),
//! )?;
//! let dmin = session.problem().dmin();
//! let solution = session.size_to(0.7 * dmin)?;
//! assert!(solution.achieved_delay <= 0.7 * dmin * (1.0 + 1e-6));
//! let tighter = session.size_to(0.65 * dmin)?;   // resumes the warm state
//! assert!(tighter.area >= solution.area);
//! # Ok(())
//! # }
//! ```
//!
//! # The multi-circuit server
//!
//! [`CircuitServer`] scales the session model to a fleet: a registry
//! of named circuits, each owning one warm session on a dedicated
//! worker thread (shared-nothing — requests within a circuit are
//! serialized through the worker's queue, requests across circuits run
//! fully in parallel), fed by TCP/Unix-domain listeners speaking the
//! same line protocol with `load`/`unload`/`list` registry requests, a
//! `circuit` routing field and a pipelining `id` echo
//! ([`RequestFrame`]). `mft serve --listen ADDR` is the CLI front end;
//! the wire format is specified in `docs/PROTOCOL.md` and the process
//! model in `docs/ARCHITECTURE.md` (repository root). Socket-served
//! values are bit-identical to in-process sessions — the server adds
//! routing, never arithmetic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
mod codec;
mod curve;
mod dphase;
mod error;
mod optimizer;
mod pipeline;
mod protocol;
mod report;
mod server;
mod session;

pub use cancel::CancelToken;
pub use curve::{curve_to_csv, format_curve, CurvePoint, SweepOutcome};
pub use dphase::{DPhaseInputs, DPhaseOptions, DPhaseResult, DPhaseSolver, DPhaseStats};
pub use error::MftError;
pub use optimizer::{
    IterationStats, Minflotransit, MinflotransitConfig, SizingSolution, SolverContext, WPhaseStats,
};
pub use pipeline::SizingProblem;
pub use protocol::{
    extract_error_code, extract_id, CircuitSummary, ErrorCode, FrameDecoder, LoadRequest,
    ReplicaStatsReport, Request, RequestFrame, Response, MAX_REPLICAS,
};
pub use report::SizingReport;
pub use server::{CircuitServer, LineClient, ServerConfig, ServerListener};
pub use session::{
    PowerSolution, ReadView, SessionConfig, SessionStats, SizingSession, SweepWarmStart,
    WhatIfReport,
};
