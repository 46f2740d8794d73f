//! Cooperative cancellation for long-running sizing work.
//!
//! A [`CancelToken`] combines an explicit cancel flag with an optional
//! deadline. The token is cloned into whatever thread runs the sizing
//! and polled at iteration boundaries — the D/W loop between phases,
//! the TILOS bump loop every few hundred bumps, the network simplex
//! between pivots, and a session sweep between spec points. A positive
//! poll surfaces as `MftError::Cancelled` (or the per-crate equivalent)
//! carrying whatever partial progress the loop had made.
//!
//! The same token implements both leaf crates' probe traits
//! ([`mft_flow::CancelProbe`] and [`mft_tilos::CancelProbe`]), which
//! exist separately so neither crate needs a dependency on this one.

use crate::protocol::Request;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Admission weight of one request on a circuit queue: the rough
/// relative cost a queued request represents, so fifty queued
/// `what_if`s are not crowded out by a handful of sweeps. Cheap
/// constant-time requests (`what_if`, `stats`) count 1 — so every
/// request on a replica read queue weighs 1; a full `size` counts 8; a
/// `sweep` counts 8 per spec point.
pub(crate) fn request_weight(request: &Request) -> usize {
    match request {
        Request::Sweep { specs } => 8 * specs.len().max(1),
        Request::Size { .. } | Request::SizePower { .. } => 8,
        _ => 1,
    }
}

/// Whether a circuit-bound request is a pure read the replica pool can
/// serve (`what_if`, `stats`); everything else mutates warm state and
/// stays on the single writer.
pub(crate) fn is_read_request(request: &Request) -> bool {
    matches!(request, Request::WhatIf { .. } | Request::Stats)
}

/// A cloneable cancellation handle: explicit cancel plus an optional
/// deadline, shared across threads.
///
/// Cheap to clone (one `Arc` bump) and cheap to poll (one relaxed
/// atomic load plus, when a deadline is set, one monotonic clock read).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never fires (no deadline, not cancelled).
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that fires once `deadline` passes (or on explicit
    /// [`CancelToken::cancel`], whichever comes first).
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            cancelled: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// Trips the explicit cancel flag; every clone observes it.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token has fired (explicit cancel or passed deadline).
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The deadline, when one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Wraps the token for the network simplex's probe socket
    /// ([`mft_flow::SimplexSolver::set_cancel_probe`]).
    pub fn flow_probe(&self) -> mft_flow::ProbeHandle {
        mft_flow::ProbeHandle::new(Arc::new(self.clone()))
    }
}

impl mft_flow::CancelProbe for CancelToken {
    fn is_cancelled(&self) -> bool {
        CancelToken::is_cancelled(self)
    }
}

impl mft_tilos::CancelProbe for CancelToken {
    fn is_cancelled(&self) -> bool {
        CancelToken::is_cancelled(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn explicit_cancel_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn deadline_fires_without_explicit_cancel() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(token.is_cancelled());
        let future = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!future.is_cancelled());
        assert!(future.deadline().is_some());
    }

    #[test]
    fn admission_weights_split_reads_from_writes() {
        let what_if = Request::WhatIf {
            sizes: vec![],
            spec: None,
            target: None,
        };
        let sweep = Request::Sweep {
            specs: vec![0.9, 0.8],
        };
        let size = Request::Size {
            spec: Some(0.7),
            target: None,
            return_sizes: false,
        };
        assert_eq!(request_weight(&what_if), 1);
        assert_eq!(request_weight(&Request::Stats), 1);
        assert_eq!(request_weight(&size), 8);
        assert_eq!(request_weight(&sweep), 16);
        // Only the pure warm-state probes qualify as reads.
        assert!(is_read_request(&what_if));
        assert!(is_read_request(&Request::Stats));
        assert!(!is_read_request(&sweep));
        assert!(!is_read_request(&size));
        assert!(!is_read_request(&Request::List));
    }

    #[test]
    fn probes_agree_with_the_token() {
        let token = CancelToken::new();
        let probe = token.flow_probe();
        assert!(!probe.is_cancelled());
        token.cancel();
        assert!(probe.is_cancelled());
        assert!(mft_tilos::CancelProbe::is_cancelled(&token));
    }
}
