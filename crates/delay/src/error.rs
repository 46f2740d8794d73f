//! Errors for delay-model construction.

use crate::tech::TechnologyError;
use core::fmt;
use mft_circuit::{CircuitError, GateId};
use std::error::Error;

/// Errors produced while building or using a delay model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DelayError {
    /// The technology parameters are invalid.
    Technology(TechnologyError),
    /// The netlist contains a macro gate; expand to primitives first.
    NonPrimitiveGate {
        /// The offending gate.
        gate: GateId,
    },
    /// An underlying circuit operation failed.
    Circuit(CircuitError),
    /// A raw model was constructed with inconsistent array lengths.
    ShapeMismatch {
        /// Description of the mismatching component.
        what: &'static str,
    },
    /// A raw model was constructed with a negative coefficient.
    NegativeCoefficient {
        /// Description of the offending coefficient.
        what: &'static str,
        /// The value found.
        value: f64,
    },
}

impl fmt::Display for DelayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DelayError::Technology(e) => write!(f, "invalid technology: {e}"),
            DelayError::NonPrimitiveGate { gate } => {
                write!(f, "gate {gate} is not primitive; expand the netlist first")
            }
            DelayError::Circuit(e) => write!(f, "circuit error: {e}"),
            DelayError::ShapeMismatch { what } => {
                write!(f, "inconsistent model shape: {what}")
            }
            DelayError::NegativeCoefficient { what, value } => {
                write!(f, "negative delay coefficient for {what}: {value}")
            }
        }
    }
}

impl Error for DelayError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DelayError::Technology(e) => Some(e),
            DelayError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TechnologyError> for DelayError {
    fn from(e: TechnologyError) -> Self {
        DelayError::Technology(e)
    }
}

impl From<CircuitError> for DelayError {
    fn from(e: CircuitError) -> Self {
        DelayError::Circuit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = DelayError::from(TechnologyError::NonPositive {
            name: "r_nmos",
            value: -1.0,
        });
        assert!(e.to_string().contains("r_nmos"));
        assert!(Error::source(&e).is_some());
    }
}
