//! The unified error type of the MINFLOTRANSIT service layer.
//!
//! Every `mft-core` entry point — [`crate::SizingSession`] requests,
//! [`crate::SizingProblem`] methods, the line protocol — returns [`MftError`]; lower-layer errors
//! ([`TilosError`], [`StaError`], [`FlowError`], [`SmpError`],
//! [`DelayError`], [`CircuitError`]) are wrapped as variants with
//! `source()` chaining, so callers juggle one error type and can still
//! drill down.

use core::fmt;
use mft_circuit::CircuitError;
use mft_delay::DelayError;
use mft_flow::FlowError;
use mft_smp::SmpError;
use mft_sta::StaError;
use mft_tilos::TilosError;
use std::error::Error;

/// Errors produced by the `mft-core` service layer ([`crate::SizingSession`],
/// [`crate::SizingProblem`], [`crate::Minflotransit`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MftError {
    /// The initial TILOS sizing failed (target unreachable).
    InitialSizing(TilosError),
    /// Timing analysis failed.
    Sta(StaError),
    /// The D-phase LP / min-cost flow failed.
    Flow(FlowError),
    /// The W-phase SMP failed.
    Smp(SmpError),
    /// Delay-model construction failed.
    Delay(DelayError),
    /// Netlist/DAG construction failed (problem preparation).
    Circuit(CircuitError),
    /// A line-protocol request could not be parsed or validated.
    Protocol(String),
    /// A caller-provided initial sizing violates the timing target.
    InfeasibleStart {
        /// Critical path of the provided sizing.
        critical_path: f64,
        /// The requested target.
        target: f64,
    },
    /// A caller-provided initial sizing has the wrong length.
    ShapeMismatch {
        /// Expected number of sizes.
        expected: usize,
        /// Found number of sizes.
        found: usize,
    },
    /// A candidate size vector holds a size that is not a finite
    /// positive number (`what_if`).
    InvalidSize {
        /// Index of the first bad size.
        index: usize,
        /// The bad size.
        value: f64,
    },
    /// The request was stopped by its deadline or an explicit cancel
    /// (see [`crate::CancelToken`]) before converging. Carries the
    /// partial progress made, for `timeout` responses with stats.
    Cancelled {
        /// D/W iterations completed before the stop.
        iterations: usize,
        /// TILOS bumps performed before the stop (seed phase).
        tilos_bumps: usize,
    },
}

impl fmt::Display for MftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MftError::InitialSizing(e) => write!(f, "initial TILOS sizing failed: {e}"),
            MftError::Sta(e) => write!(f, "timing analysis failed: {e}"),
            MftError::Flow(e) => write!(f, "D-phase flow solve failed: {e}"),
            MftError::Smp(e) => write!(f, "W-phase SMP solve failed: {e}"),
            MftError::Delay(e) => write!(f, "delay model failed: {e}"),
            MftError::Circuit(e) => write!(f, "circuit construction failed: {e}"),
            MftError::Protocol(msg) => write!(f, "bad request: {msg}"),
            MftError::InfeasibleStart {
                critical_path,
                target,
            } => write!(
                f,
                "initial sizing has critical path {critical_path} above target {target}"
            ),
            MftError::ShapeMismatch { expected, found } => {
                write!(f, "expected {expected} sizes, found {found}")
            }
            MftError::InvalidSize { index, value } => write!(
                f,
                "size at index {index} is {value}; candidate sizes must be finite and positive"
            ),
            MftError::Cancelled {
                iterations,
                tilos_bumps,
            } => write!(
                f,
                "deadline exceeded after {iterations} D/W iterations ({tilos_bumps} TILOS bumps)"
            ),
        }
    }
}

impl Error for MftError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MftError::InitialSizing(e) => Some(e),
            MftError::Sta(e) => Some(e),
            MftError::Flow(e) => Some(e),
            MftError::Smp(e) => Some(e),
            MftError::Delay(e) => Some(e),
            MftError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CircuitError> for MftError {
    fn from(e: CircuitError) -> Self {
        MftError::Circuit(e)
    }
}

impl From<TilosError> for MftError {
    fn from(e: TilosError) -> Self {
        MftError::InitialSizing(e)
    }
}

impl From<StaError> for MftError {
    fn from(e: StaError) -> Self {
        MftError::Sta(e)
    }
}

impl From<FlowError> for MftError {
    fn from(e: FlowError) -> Self {
        MftError::Flow(e)
    }
}

impl From<SmpError> for MftError {
    fn from(e: SmpError) -> Self {
        MftError::Smp(e)
    }
}

impl From<DelayError> for MftError {
    fn from(e: DelayError) -> Self {
        MftError::Delay(e)
    }
}

impl From<mft_tech::TechError> for MftError {
    fn from(e: mft_tech::TechError) -> Self {
        match e {
            // An invalid Technology folds into the existing delay-layer
            // variant; library lookups and power-parameter problems are
            // request-level failures.
            mft_tech::TechError::Technology(t) => MftError::Delay(DelayError::Technology(t)),
            other => MftError::Protocol(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = MftError::from(SmpError::Diverged { updates: 3 });
        assert!(e.to_string().contains("W-phase"));
        assert!(Error::source(&e).is_some());
        let e = MftError::InfeasibleStart {
            critical_path: 2.0,
            target: 1.0,
        };
        assert!(Error::source(&e).is_none());
    }

    #[test]
    fn circuit_and_protocol_variants() {
        let e = MftError::from(CircuitError::EmptyNetlist);
        assert!(e.to_string().contains("circuit"));
        assert!(Error::source(&e).is_some());
        let e = MftError::Protocol("missing field".into());
        assert!(e.to_string().contains("bad request"));
        assert!(Error::source(&e).is_none());
    }
}
