//! What a caller hands to and reads from the persistent
//! [`SimplexSolver`](crate::SimplexSolver): a cooperative cancellation
//! probe ([`CancelProbe`], [`ProbeHandle`]) and the solve counters
//! ([`SolverStats`]).

use std::sync::Arc;

/// A cooperative cancellation check a caller can install into a
/// persistent solver
/// ([`SimplexSolver::set_cancel_probe`](crate::SimplexSolver::set_cancel_probe)).
///
/// The network simplex polls the probe periodically during pivoting
/// and aborts with [`FlowError::Cancelled`](crate::FlowError::Cancelled) when it
/// answers `true`. Probes must be cheap — an atomic load and maybe an
/// `Instant` comparison — because they sit on the hot path.
pub trait CancelProbe: Send + Sync {
    /// Whether the computation should stop now.
    fn is_cancelled(&self) -> bool;
}

/// A cloneable handle around a shared [`CancelProbe`], shaped so
/// solvers that derive `Debug`/`Clone` can store one.
#[derive(Clone)]
pub struct ProbeHandle(Arc<dyn CancelProbe>);

impl ProbeHandle {
    /// Wraps a shared probe.
    pub fn new(probe: Arc<dyn CancelProbe>) -> Self {
        ProbeHandle(probe)
    }

    /// Polls the underlying probe.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.0.is_cancelled()
    }
}

impl std::fmt::Debug for ProbeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProbeHandle(..)")
    }
}

/// Cold/warm solve counters of a persistent solver.
///
/// `cold_solves`/`warm_solves` count solves that ran to **completion**;
/// failed attempts (infeasible, negative cycle, pivot cap) are not
/// counted. The fallback/repair fields count events at occurrence
/// during warm-start attempts, whether or not the solve then succeeds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Completed solves started from scratch.
    pub cold_solves: usize,
    /// Completed solves seeded from previous dual state.
    pub warm_solves: usize,
    /// Warm attempts whose retained spanning tree was unusable (a
    /// non-basic flow above a shrunk capacity, or a tree that no longer
    /// spans); the solve falls back to a **cold** start.
    pub warm_fallbacks: usize,
    /// Warm solves that repaired a primal-infeasible basis in place
    /// (infeasible tree arcs pinned at a bound and swapped for
    /// artificial arcs).
    pub warm_repairs: usize,
    /// Simplex pivots performed across completed solves.
    pub pivots: usize,
    /// Reduced costs the Dantzig pricing computed across completed
    /// solves: each arc a basis exchange priced alone, plus every arc of
    /// each block re-priced in full. A cached block costs nothing.
    pub arcs_scanned: usize,
}

impl SolverStats {
    /// Total solves performed.
    pub fn total(&self) -> usize {
        self.cold_solves + self.warm_solves
    }

    /// The counter increments since `baseline` (a snapshot taken
    /// earlier from the same solver), for per-run attribution when one
    /// persistent solver is shared across runs.
    pub fn since(&self, baseline: &SolverStats) -> SolverStats {
        SolverStats {
            cold_solves: self.cold_solves - baseline.cold_solves,
            warm_solves: self.warm_solves - baseline.warm_solves,
            warm_fallbacks: self.warm_fallbacks - baseline.warm_fallbacks,
            warm_repairs: self.warm_repairs - baseline.warm_repairs,
            pivots: self.pivots - baseline.pivots,
            arcs_scanned: self.arcs_scanned - baseline.arcs_scanned,
        }
    }

    /// The element-wise sum of two counter sets, for accumulating
    /// per-run increments into a service-lifetime total.
    pub fn merged(&self, other: &SolverStats) -> SolverStats {
        SolverStats {
            cold_solves: self.cold_solves + other.cold_solves,
            warm_solves: self.warm_solves + other.warm_solves,
            warm_fallbacks: self.warm_fallbacks + other.warm_fallbacks,
            warm_repairs: self.warm_repairs + other.warm_repairs,
            pivots: self.pivots + other.pivots,
            arcs_scanned: self.arcs_scanned + other.arcs_scanned,
        }
    }
}
