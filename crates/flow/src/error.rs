//! Errors for the min-cost flow solvers.

use core::fmt;
use std::error::Error;

/// Errors produced by the flow solvers and the LP-dual reduction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowError {
    /// Node or arc index out of range, or a malformed quantity.
    BadInput {
        /// Description of the problem.
        message: String,
    },
    /// Supplies cannot be routed: the network is disconnected or capacities
    /// are insufficient. For the D-phase dual this corresponds to an
    /// unbounded primal LP, which a well-formed D-phase never produces.
    Infeasible {
        /// Amount of supply left unshipped.
        unshipped: f64,
    },
    /// A negative-cost cycle of unbounded capacity exists, so the flow cost
    /// is unbounded below (the LP constraints are inconsistent).
    NegativeCycle,
    /// A solution failed verification (used by the checker).
    CertificateViolation {
        /// Description of the violated condition.
        message: String,
    },
    /// A pivoting solver hit its safety iteration cap without reaching
    /// optimality. Unlike [`FlowError::BadInput`] this does not indict
    /// the instance: it signals solver non-termination (degenerate
    /// cycling or a cap tuned too low for the instance size).
    IterationLimit {
        /// The pivot cap that was exhausted.
        pivots: usize,
    },
    /// The solve was stopped by the caller's cooperative cancellation
    /// probe (a deadline or an explicit cancel; see
    /// [`SimplexSolver::set_cancel_probe`](crate::SimplexSolver::set_cancel_probe)).
    /// The instance is fine — re-solving without the probe would
    /// succeed. Any retained warm state is
    /// invalidated, so the next solve runs cold.
    Cancelled,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::BadInput { message } => write!(f, "bad input: {message}"),
            FlowError::Infeasible { unshipped } => {
                write!(f, "flow infeasible: {unshipped} units of supply unshipped")
            }
            FlowError::NegativeCycle => {
                write!(f, "negative-cost cycle with unbounded capacity")
            }
            FlowError::CertificateViolation { message } => {
                write!(f, "optimality certificate violated: {message}")
            }
            FlowError::IterationLimit { pivots } => {
                write!(f, "solver exceeded {pivots} pivots without converging")
            }
            FlowError::Cancelled => {
                write!(f, "solve cancelled by the caller's cancellation probe")
            }
        }
    }
}

impl Error for FlowError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = FlowError::Infeasible { unshipped: 2.5 };
        assert!(e.to_string().contains("2.5"));
    }
}
