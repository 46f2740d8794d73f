//! The session-oriented service API: one re-entrant [`SizingSession`]
//! handle over all of the stack's warm state.
//!
//! The optimizer has two expensive persistent structures — the TILOS
//! bump trajectory ([`mft_tilos::TilosState`]) and the [`SolverContext`]
//! (D-phase flow network, W-phase SMP solver and incremental timing
//! engine) — which the one-shot
//! [`SizingProblem::minflotransit`](crate::SizingProblem::minflotransit)
//! rebuilds per call. A [`SizingSession`] owns the prepared problem
//! *and* all of that warm state, and serves a typed request stream
//! against it: "size to target A, then B, then sweep 8 points, then
//! what-if" runs over **one** trajectory, one flow network, one SMP
//! solver and one timing engine end to end.
//!
//! # Exactness
//!
//! Cross-request reuse never changes a result. Every value served by a
//! session is **bit-identical** to the corresponding one-shot legacy
//! call under the same [`MinflotransitConfig`]:
//!
//! * TILOS seeds come from the shared trajectory — tighter-than-before
//!   targets advance it (bit-exact, the bump sequence is
//!   target-independent), already-passed targets are replayed from the
//!   bump log by [`mft_tilos::TilosState::snapshot_at`] (bit-exact,
//!   zero timing work). Requests may therefore arrive in **any
//!   order**.
//! * Solver reuse is hermetic per request: the retained D-phase warm
//!   state is invalidated between requests and between sweep points
//!   (unless [`SweepWarmStart::cross_target_state`] is opted in), and
//!   the persistent timing engine runs at tolerance `0.0`.
//! * The optional *inner* warm starts
//!   ([`MinflotransitConfig::dphase_warm_start`] /
//!   [`MinflotransitConfig::wphase_warm_start`], both on under
//!   [`SessionConfig::warm`]) reach the same optima but may differ from
//!   the cold path in the last float bits — exactly as documented on
//!   those fields. With them off ([`SessionConfig::cold`], or
//!   `SessionConfig { warm: SweepWarmStart::full(), .. }` over a
//!   default optimizer config) the session is bit-identical to the
//!   legacy cold path, which `tests/session_golden.rs` pins.
//!
//! The one-shot [`SizingProblem`] methods are thin wrappers over the
//! same internal request runners this module exports to the rest of
//! the crate, so they cannot drift from the session.
//!
//! # Sweeps
//!
//! A sweep (the paper's Figure 7 area–delay curve) sizes every spec
//! loosest-first, so the TILOS trajectory pays the bump cost of its
//! *tightest* spec once. Because point boundaries are hermetic, the
//! sizing *results* (area ratios, savings, iteration counts,
//! reachability) are identical for any [`SessionConfig::jobs`] count
//! and any spec order; with more than one job the sorted specs are
//! split into contiguous chunks, one `std::thread::scope` worker with
//! private warm state each. The *diagnostic* fields of a
//! [`CurvePoint`] — wall-clock seconds and the solver/timing work
//! counters — describe the work this run performed and legitimately
//! depend on that partitioning.
//!
//! # Examples
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
//! let a = session.size_to(0.8 * dmin)?;           // builds the warm state
//! let b = session.size_to(0.7 * dmin)?;           // resumes the trajectory
//! let again = session.size_to(0.8 * dmin)?;       // replayed from the bump log
//! assert_eq!(a.area.to_bits(), again.area.to_bits());
//! assert!(b.area >= a.area);
//! let what_if = session.what_if(&b.sizes, Some(0.7 * dmin))?;
//! assert_eq!(what_if.meets_target, Some(true));
//! println!("{} requests served", session.stats().requests);
//! # Ok(())
//! # }
//! ```

use crate::cancel::CancelToken;
use crate::curve::{CurvePoint, SweepOutcome};
use crate::dphase::DPhaseStats;
use crate::error::MftError;
use crate::optimizer::{
    Minflotransit, MinflotransitConfig, SizingSolution, SolverContext, WPhaseStats,
};
use crate::pipeline::SizingProblem;
use crate::protocol::{ErrorCode, Request, Response};
use mft_circuit::{Netlist, SizingMode, VertexId};
use mft_delay::{DelayModel, DiffScratch, Technology};
use mft_sta::{critical_path, IncrementalTiming, TimingStats};
use mft_tech::{Corner, PowerBreakdown, PowerWeightedModel};
use mft_tilos::{SensitivityStats, TilosConfig, TilosError, TilosResult, TilosState};
use std::sync::Arc;
use std::time::Instant;

/// Which cross-request reuse levers a session runs with — across
/// requests and across the points of one sweep alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepWarmStart {
    /// Reuse the TILOS bump trajectory across targets. Bit-exact: the
    /// greedy bump choice never reads the target, so every target's
    /// seed is a snapshot of one trajectory
    /// ([`mft_tilos::TilosTrajectory`]).
    pub resume_tilos: bool,
    /// Hold one [`SolverContext`] (per sweep worker) across targets
    /// instead of rebuilding the D-phase network and SMP solver per
    /// target (bit-exact for cold inner solves).
    pub reuse_solvers: bool,
    /// Let D-phase/W-phase warm state survive *across* targets (the
    /// previous target's dual potentials, retained flow and spanning
    /// tree seed the next target's first solves). Off by default: the
    /// first D-phase of a target is one solve out of typically tens,
    /// so the saving is marginal, while dropping the state keeps every
    /// target independent of request order and worker partitioning.
    /// Requires [`SweepWarmStart::reuse_solvers`].
    pub cross_target_state: bool,
}

impl SweepWarmStart {
    /// Every lever off: each target replays the one-shot cold path
    /// exactly.
    pub fn cold() -> Self {
        SweepWarmStart {
            resume_tilos: false,
            reuse_solvers: false,
            cross_target_state: false,
        }
    }

    /// The standard warm configuration: trajectory + solver reuse,
    /// hermetic target boundaries.
    pub fn full() -> Self {
        SweepWarmStart {
            resume_tilos: true,
            reuse_solvers: true,
            cross_target_state: false,
        }
    }
}

/// The one configuration of a [`SizingSession`]: the optimizer and
/// TILOS knobs ([`MinflotransitConfig`], [`TilosConfig`]), the reuse
/// levers and the sweep worker count behind a single builder.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// The per-request optimizer configuration (trust region, flow
    /// backend, inner warm-start levers, TILOS knobs).
    pub optimizer: MinflotransitConfig,
    /// Which cross-request reuse levers the session runs with (the
    /// same levers a sweep uses across points).
    pub warm: SweepWarmStart,
    /// Worker threads for multi-point sweep requests. `0` is clamped
    /// to `1`; workers never outnumber specs; results are identical
    /// for every count.
    pub jobs: usize,
}

impl SessionConfig {
    /// The standard warm preset: shared trajectory + persistent
    /// solvers across requests and inner D/W warm starts on (the
    /// network simplex's spanning-tree warm start is what amortizes the
    /// "tens of nearly identical solves" iteration pattern — see
    /// `crates/bench/benches/area_delay_sweep.rs`).
    pub fn warm() -> Self {
        let optimizer = MinflotransitConfig {
            dphase_warm_start: true,
            wphase_warm_start: true,
            ..Default::default()
        };
        SessionConfig {
            optimizer,
            warm: SweepWarmStart::full(),
            jobs: 1,
        }
    }

    /// [`SessionConfig::warm`] on top of a custom optimizer
    /// configuration (its inner warm-start levers are forced on).
    pub fn warm_with(mut optimizer: MinflotransitConfig) -> Self {
        optimizer.dphase_warm_start = true;
        optimizer.wphase_warm_start = true;
        SessionConfig {
            optimizer,
            warm: SweepWarmStart::full(),
            jobs: 1,
        }
    }

    /// Every reuse lever off: each request replays the historical
    /// one-shot path exactly (fresh trajectory, fresh solvers, cold
    /// inner solves — bit-reproducible with the legacy entry points by
    /// construction).
    pub fn cold() -> Self {
        SessionConfig {
            optimizer: MinflotransitConfig::default(),
            warm: SweepWarmStart::cold(),
            jobs: 1,
        }
    }

    /// [`SessionConfig::cold`] on top of a custom optimizer
    /// configuration.
    pub fn cold_with(optimizer: MinflotransitConfig) -> Self {
        SessionConfig {
            optimizer,
            warm: SweepWarmStart::cold(),
            jobs: 1,
        }
    }

    /// Cross-request reuse (shared trajectory + persistent solvers)
    /// with the inner solves left cold: every served value is
    /// bit-identical to the legacy cold path, while requests still
    /// amortize the trajectory and the solver construction. The
    /// exactness middle ground between [`SessionConfig::warm`] and
    /// [`SessionConfig::cold`].
    pub fn shared_exact() -> Self {
        SessionConfig {
            optimizer: MinflotransitConfig::default(),
            warm: SweepWarmStart::full(),
            jobs: 1,
        }
    }

    /// Replaces the optimizer configuration.
    pub fn with_optimizer(mut self, optimizer: MinflotransitConfig) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Replaces the TILOS seed configuration.
    pub fn with_tilos(mut self, tilos: TilosConfig) -> Self {
        self.optimizer.tilos = tilos;
        self
    }

    /// Sets the sweep worker count (`0` is documented-clamped to `1`
    /// at run time; results are identical for every count).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }
}

impl Default for SessionConfig {
    /// Defaults to the fully warm session.
    fn default() -> Self {
        Self::warm()
    }
}

/// Cumulative service counters of one [`SizingSession`], surfaced
/// through [`SizingSession::stats`] and the line protocol's
/// `StatsResponse`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionStats {
    /// Requests served (all kinds, including stats requests).
    pub requests: usize,
    /// Size requests served.
    pub size_requests: usize,
    /// Power-objective size requests served (`size_power`).
    pub size_power_requests: usize,
    /// Sweep requests served.
    pub sweep_requests: usize,
    /// Individual sweep points sized (across all sweep requests).
    pub sweep_points: usize,
    /// What-if (re-time only) requests served.
    pub what_if_requests: usize,
    /// TILOS bumps actually executed by this session (each runs the
    /// sensitivity loop + an incremental timing wave).
    pub trajectory_bumps: usize,
    /// TILOS bumps a cold per-request stack would have re-executed but
    /// the shared trajectory served from memory — the cross-request
    /// reuse win.
    pub trajectory_reused_bumps: usize,
    /// Seed requests answered entirely from the bump log
    /// ([`mft_tilos::TilosState::snapshot_at`]: zero timing work).
    pub snapshot_hits: usize,
    /// Timing-engine work of the TILOS side (trajectory advances).
    pub tilos_timing: TimingStats,
    /// Sensitivity-cache counters of the TILOS side (hits, misses and
    /// invalidations across every trajectory advance).
    pub sensitivity: SensitivityStats,
    /// Timing-engine work of the optimizer side (convergence checks
    /// and what-if re-times through the persistent engine).
    pub optimizer_timing: TimingStats,
    /// Cumulative D-phase solver statistics (cold/warm solves, flow
    /// reuses, flow time).
    pub dphase: DPhaseStats,
    /// Cumulative W-phase SMP statistics (seeded solves, updates).
    pub wphase: WPhaseStats,
}

impl SessionStats {
    /// Combined timing-engine work (TILOS + optimizer sides).
    pub fn timing(&self) -> TimingStats {
        self.tilos_timing.merged(&self.optimizer_timing)
    }

    /// Field-wise roll-up of two stats snapshots — counters sum, the
    /// solver/timing sub-stats merge. The multi-circuit server uses
    /// this to aggregate per-circuit sessions into one fleet view
    /// ([`crate::CircuitServer::aggregate_stats`]).
    pub fn merged(&self, other: &SessionStats) -> SessionStats {
        SessionStats {
            requests: self.requests + other.requests,
            size_requests: self.size_requests + other.size_requests,
            size_power_requests: self.size_power_requests + other.size_power_requests,
            sweep_requests: self.sweep_requests + other.sweep_requests,
            sweep_points: self.sweep_points + other.sweep_points,
            what_if_requests: self.what_if_requests + other.what_if_requests,
            trajectory_bumps: self.trajectory_bumps + other.trajectory_bumps,
            trajectory_reused_bumps: self.trajectory_reused_bumps + other.trajectory_reused_bumps,
            snapshot_hits: self.snapshot_hits + other.snapshot_hits,
            tilos_timing: self.tilos_timing.merged(&other.tilos_timing),
            sensitivity: self.sensitivity.merged(&other.sensitivity),
            optimizer_timing: self.optimizer_timing.merged(&other.optimizer_timing),
            dphase: self.dphase.merged(&other.dphase),
            wphase: self.wphase.merged(&other.wphase),
        }
    }
}

/// The result of a what-if request: a candidate size vector re-timed
/// through the session's persistent incremental engine (or a cold pass
/// in cold sessions) without running any optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfReport {
    /// Weighted area of the candidate sizing.
    pub area: f64,
    /// Area normalized to the minimum-sized circuit.
    pub area_ratio: f64,
    /// Total power (leakage + switching) of the candidate sizing under
    /// the problem's [`Corner`].
    pub power: f64,
    /// Critical-path delay of the candidate sizing — bit-identical to
    /// a cold [`mft_sta::critical_path`].
    pub critical_path: f64,
    /// The delay target the candidate was checked against, if any.
    pub target: Option<f64>,
    /// `target − critical_path`, when a target was given.
    pub slack: Option<f64>,
    /// Whether the candidate meets the target (`critical_path ≤
    /// target`, no tolerance), when a target was given.
    pub meets_target: Option<bool>,
}

/// Internal mutable counters (the working half of [`SessionStats`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SessionCounters {
    pub(crate) requests: usize,
    pub(crate) size_requests: usize,
    pub(crate) size_power_requests: usize,
    pub(crate) sweep_requests: usize,
    pub(crate) sweep_points: usize,
    pub(crate) what_if_requests: usize,
    pub(crate) bumps_executed: usize,
    pub(crate) bumps_reused: usize,
    pub(crate) snapshot_hits: usize,
    pub(crate) tilos_timing: TimingStats,
    pub(crate) sensitivity: SensitivityStats,
    pub(crate) optimizer_timing: TimingStats,
    pub(crate) dphase: Option<DPhaseStats>,
    pub(crate) wphase: WPhaseStats,
}

impl SessionCounters {
    fn merge_worker(&mut self, other: &SessionCounters) {
        self.sweep_points += other.sweep_points;
        self.bumps_executed += other.bumps_executed;
        self.bumps_reused += other.bumps_reused;
        self.snapshot_hits += other.snapshot_hits;
        self.tilos_timing = self.tilos_timing.merged(&other.tilos_timing);
        self.sensitivity = self.sensitivity.merged(&other.sensitivity);
        self.optimizer_timing = self.optimizer_timing.merged(&other.optimizer_timing);
        self.dphase = match (self.dphase, other.dphase) {
            (Some(a), Some(b)) => Some(a.merged(&b)),
            (a, b) => a.or(b),
        };
        self.wphase = self.wphase.merged(&other.wphase);
    }
}

/// Runs the TILOS-seed part of a request: from the shared trajectory
/// when [`SweepWarmStart::resume_tilos`] is on (snapshot replay for
/// already-passed targets, trajectory advance otherwise), else a fresh
/// one-shot trajectory — exactly the legacy
/// [`mft_tilos::Tilos::size`]. Returns the seed result plus the
/// timing-work and sensitivity-cache deltas attributable to this
/// request.
pub(crate) fn tilos_point(
    problem: &SizingProblem,
    config: &SessionConfig,
    trajectory: &mut Option<TilosState>,
    counters: &mut SessionCounters,
    target: f64,
    token: Option<&CancelToken>,
) -> (
    Result<TilosResult, TilosError>,
    TimingStats,
    SensitivityStats,
) {
    tilos_point_with_model(
        problem,
        problem.model(),
        config,
        trajectory,
        counters,
        target,
        token,
    )
}

/// [`tilos_point`] over an explicit delay model — the power objective
/// runs the same seed machinery through a [`PowerWeightedModel`]
/// wrapper (identical delays, power-derived objective weights).
pub(crate) fn tilos_point_with_model<M: DelayModel>(
    problem: &SizingProblem,
    model: &M,
    config: &SessionConfig,
    trajectory: &mut Option<TilosState>,
    counters: &mut SessionCounters,
    target: f64,
    token: Option<&CancelToken>,
) -> (
    Result<TilosResult, TilosError>,
    TimingStats,
    SensitivityStats,
) {
    let dag = problem.dag();
    let probe = token.map(|t| t as &dyn mft_tilos::CancelProbe);
    if config.warm.resume_tilos {
        // When the shared trajectory is built lazily by this request,
        // its construction full pass belongs to this request's delta
        // (the legacy one-shot path reports it too).
        let built_now = trajectory.is_none();
        if built_now {
            match TilosState::new(dag, model, config.optimizer.tilos.clone()) {
                Ok(state) => *trajectory = Some(state),
                Err(e) => return (Err(e), TimingStats::default(), SensitivityStats::default()),
            }
        }
        let state = trajectory.as_mut().expect("just ensured");
        let stats_before = if built_now {
            TimingStats::default()
        } else {
            state.timing_stats()
        };
        let sens_before = if built_now {
            SensitivityStats::default()
        } else {
            state.sensitivity_stats()
        };
        if let Some(snapshot) = state.snapshot_at(model, target) {
            let delta = state.timing_stats().since(&stats_before);
            counters.tilos_timing = counters.tilos_timing.merged(&delta);
            counters.snapshot_hits += 1;
            counters.bumps_reused += snapshot.bumps;
            return (Ok(snapshot), delta, SensitivityStats::default());
        }
        let bumps_before = state.bumps();
        let result = state.advance_to_with(dag, model, target, probe);
        let delta = state.timing_stats().since(&stats_before);
        let sens_delta = state.sensitivity_stats().since(&sens_before);
        counters.tilos_timing = counters.tilos_timing.merged(&delta);
        counters.sensitivity = counters.sensitivity.merged(&sens_delta);
        counters.bumps_reused += bumps_before;
        counters.bumps_executed += state.bumps() - bumps_before;
        (result, delta, sens_delta)
    } else {
        let mut state = match TilosState::new(dag, model, config.optimizer.tilos.clone()) {
            Ok(state) => state,
            Err(e) => return (Err(e), TimingStats::default(), SensitivityStats::default()),
        };
        let result = state.advance_to_with(dag, model, target, probe);
        let delta = state.timing_stats();
        let sens_delta = state.sensitivity_stats();
        counters.tilos_timing = counters.tilos_timing.merged(&delta);
        counters.sensitivity = counters.sensitivity.merged(&sens_delta);
        counters.bumps_executed += state.bumps();
        (result, delta, sens_delta)
    }
}

/// Runs the optimizer phase of a request over the given warm state:
/// lazy [`SolverContext`] construction, the hermetic request boundary
/// (unless cross-target state is opted in), the cold fallback, and the
/// counter accounting — shared by size requests and sweep points so
/// the two cannot drift.
#[allow(clippy::too_many_arguments)]
fn optimize_with_state<M: DelayModel>(
    problem: &SizingProblem,
    model: &M,
    config: &SessionConfig,
    context: &mut Option<SolverContext>,
    counters: &mut SessionCounters,
    target: f64,
    seed_sizes: Vec<f64>,
    token: Option<&CancelToken>,
) -> Result<SizingSolution, MftError> {
    let dag = problem.dag();
    let mut throwaway;
    let ctx = if config.warm.reuse_solvers {
        if context.is_none() {
            *context = Some(SolverContext::new(&config.optimizer, dag, model)?);
        }
        let ctx = context.as_mut().expect("just ensured");
        if !config.warm.cross_target_state {
            // Hermetic request boundary: the retained dual state must
            // not leak into this request, so every request is a pure
            // function of its own (target, seed).
            ctx.invalidate_warm_state();
        }
        ctx
    } else {
        throwaway = SolverContext::new(&config.optimizer, dag, model)?;
        &mut throwaway
    };
    let solution = Minflotransit::new(config.optimizer.clone())
        .optimize_from_with(ctx, dag, model, target, seed_sizes, token)?;
    counters.optimizer_timing = counters.optimizer_timing.merged(&solution.timing_stats);
    counters.dphase = Some(match counters.dphase {
        Some(d) => d.merged(&solution.dphase_stats),
        None => solution.dphase_stats,
    });
    counters.wphase = counters.wphase.merged(&solution.wphase_stats);
    Ok(solution)
}

/// Runs one full size request — TILOS seed, then the D/W relaxation,
/// with the minimum-sized early return — against the given warm state,
/// and counts it as a size request.
pub(crate) fn run_point(
    problem: &SizingProblem,
    config: &SessionConfig,
    trajectory: &mut Option<TilosState>,
    context: &mut Option<SolverContext>,
    counters: &mut SessionCounters,
    target: f64,
    token: Option<&CancelToken>,
) -> Result<SizingSolution, MftError> {
    counters.requests += 1;
    counters.size_requests += 1;
    run_point_with_model(
        problem,
        problem.model(),
        config,
        trajectory,
        counters,
        context,
        target,
        token,
    )
}

/// [`run_point`] over an explicit delay model. The minimum-sized early
/// return and the seed/optimize phases all read the objective through
/// the model's `area*` hooks, so substituting a [`PowerWeightedModel`]
/// turns the whole request into a power minimization without touching
/// the optimizer.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_point_with_model<M: DelayModel>(
    problem: &SizingProblem,
    model: &M,
    config: &SessionConfig,
    trajectory: &mut Option<TilosState>,
    counters: &mut SessionCounters,
    context: &mut Option<SolverContext>,
    target: f64,
    token: Option<&CancelToken>,
) -> Result<SizingSolution, MftError> {
    let dag = problem.dag();
    if problem.dmin() <= target {
        // The minimum-sized circuit already meets timing — it is the
        // global optimum of problem (1).
        let (min_size, _) = model.size_bounds();
        let min_sizes = vec![min_size; dag.num_vertices()];
        let area = model.area(&min_sizes);
        return Ok(SizingSolution {
            sizes: min_sizes,
            area,
            achieved_delay: problem.dmin(),
            initial_area: area,
            iterations: 0,
            tilos_bumps: 0,
            history: Vec::new(),
            dphase_stats: DPhaseStats::default(),
            wphase_stats: WPhaseStats::default(),
            timing_stats: TimingStats::default(),
            sensitivity_stats: SensitivityStats::default(),
        });
    }
    let (seed, seed_timing, seed_sens) =
        tilos_point_with_model(problem, model, config, trajectory, counters, target, token);
    let seed = match seed {
        Ok(seed) => seed,
        // A cancelled seed must not masquerade as "target unreachable"
        // through the `From<TilosError>` wrapper.
        Err(TilosError::Cancelled { bumps, .. }) => {
            return Err(MftError::Cancelled {
                iterations: 0,
                tilos_bumps: bumps,
            })
        }
        Err(e) => return Err(MftError::InitialSizing(e)),
    };
    let seed_bumps = seed.bumps;
    let mut solution = match optimize_with_state(
        problem, model, config, context, counters, target, seed.sizes, token,
    ) {
        Ok(solution) => solution,
        Err(MftError::Cancelled { iterations, .. }) => {
            return Err(MftError::Cancelled {
                iterations,
                tilos_bumps: seed_bumps,
            })
        }
        Err(e) => return Err(e),
    };
    solution.tilos_bumps = seed_bumps;
    solution.timing_stats = solution.timing_stats.merged(&seed_timing);
    solution.sensitivity_stats = solution.sensitivity_stats.merged(&seed_sens);
    Ok(solution)
}

/// The result of a power-objective size request
/// ([`SizingSession::size_to_power`] /
/// [`SizingProblem::minflotransit_power`](crate::SizingProblem::minflotransit_power)):
/// minimum total power subject to the delay target.
///
/// The wrapped [`SizingSolution`]'s `area`/`initial_area` fields hold
/// the *power-objective* values the optimizer minimized (the
/// [`PowerWeightedModel`] dot product), so
/// [`SizingSolution::area_saving_percent`] reports the power saving
/// over the TILOS seed. The canonical power numbers live in
/// [`PowerSolution::power`]; the physical weighted area of the same
/// sizes — the default objective's metric — is reported separately in
/// [`PowerSolution::area`].
#[derive(Debug, Clone)]
pub struct PowerSolution {
    /// The full optimizer trace with power-objective `area` fields.
    pub solution: SizingSolution,
    /// Leakage/switching/total power of the final sizes, from the
    /// problem's [`mft_tech::PowerModel`].
    pub power: PowerBreakdown,
    /// Physical weighted area of the final sizes.
    pub area: f64,
}

/// Runs one full power-objective size request: the exact [`run_point`]
/// machinery over a [`PowerWeightedModel`] (identical delays,
/// power-derived objective weights), so D-phase budgets, W-phase
/// resizing, TILOS seeding and the trust region all minimize total
/// power instead of area. The caller supplies *separate* warm state —
/// power trajectories and area trajectories must not mix, their bump
/// sequences differ. Counts the request as a power size request.
pub(crate) fn run_power_point(
    problem: &SizingProblem,
    config: &SessionConfig,
    trajectory: &mut Option<TilosState>,
    context: &mut Option<SolverContext>,
    counters: &mut SessionCounters,
    target: f64,
    token: Option<&CancelToken>,
) -> Result<PowerSolution, MftError> {
    counters.requests += 1;
    counters.size_power_requests += 1;
    let wrapper = PowerWeightedModel::new(problem.model(), problem.power());
    let solution = run_point_with_model(
        problem, &wrapper, config, trajectory, counters, context, target, token,
    )?;
    let power = problem.power().breakdown(&solution.sizes);
    let area = problem.model().area(&solution.sizes);
    Ok(PowerSolution {
        solution,
        power,
        area,
    })
}

/// Runs one sweep point (no minimum-sized early return: the optimizer
/// loop runs even for `spec ≥ 1`, exactly as the historical sweep did).
fn sweep_point(
    problem: &SizingProblem,
    config: &SessionConfig,
    trajectory: &mut Option<TilosState>,
    context: &mut Option<SolverContext>,
    counters: &mut SessionCounters,
    spec: f64,
    token: Option<&CancelToken>,
) -> Result<SweepOutcome, MftError> {
    let dmin = problem.dmin();
    let min_area = problem.min_area();
    let target = spec * dmin;
    counters.sweep_points += 1;
    let t0 = Instant::now();
    let (seed, tilos_timing, tilos_sens) =
        tilos_point(problem, config, trajectory, counters, target, token);
    let tilos = match seed {
        Ok(r) => r,
        Err(TilosError::Infeasible { best_delay, .. })
        | Err(TilosError::BumpBudgetExhausted { best_delay, .. }) => {
            return Ok(SweepOutcome::Unreachable {
                spec,
                best_ratio: best_delay / dmin,
            });
        }
        // A cancelled seed is a stopped request, not an unreachable
        // point — propagate it so the sweep aborts with partial stats.
        Err(TilosError::Cancelled { bumps, .. }) => {
            return Err(MftError::Cancelled {
                iterations: 0,
                tilos_bumps: bumps,
            })
        }
        Err(e) => return Err(MftError::InitialSizing(e)),
    };
    let tilos_seconds = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mft = optimize_with_state(
        problem,
        problem.model(),
        config,
        context,
        counters,
        target,
        tilos.sizes.clone(),
        token,
    )?;
    let mft_extra_seconds = t1.elapsed().as_secs_f64();
    let saving = 100.0 * (tilos.area - mft.area) / tilos.area;
    Ok(SweepOutcome::Point(CurvePoint {
        spec,
        target,
        tilos_area_ratio: tilos.area / min_area,
        mft_area_ratio: mft.area / min_area,
        mft_power: problem.power().total_power(&mft.sizes),
        saving_percent: saving,
        tilos_seconds,
        mft_extra_seconds,
        iterations: mft.iterations,
        dphase: mft.dphase_stats,
        wphase: mft.wphase_stats,
        timing: tilos_timing.merged(&mft.timing_stats),
        sensitivity: tilos_sens,
    }))
}

/// Runs one sweep request over `T/D_min` specifications against the
/// given warm state and counts it, returning one outcome per spec in
/// the input order (see the module docs on sweeps). Specs run
/// loosest-first (descending spec ⇒ descending absolute target, since
/// `D_min > 0`; ties keep input order). With `jobs` ≤ 1 they run
/// through the caller's warm state (leaving the trajectory advanced
/// for later requests); with more, the sorted order is split into
/// contiguous chunks swept by `std::thread::scope` workers, each with a
/// fresh trajectory and solver context (`jobs` is clamped so workers
/// never outnumber specs).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sweep(
    problem: &SizingProblem,
    config: &SessionConfig,
    trajectory: &mut Option<TilosState>,
    context: &mut Option<SolverContext>,
    counters: &mut SessionCounters,
    specs: &[f64],
    token: Option<&CancelToken>,
) -> Result<Vec<SweepOutcome>, MftError> {
    counters.requests += 1;
    counters.sweep_requests += 1;
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by(|&a, &b| {
        specs[b]
            .partial_cmp(&specs[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut outcomes: Vec<Option<SweepOutcome>> = vec![None; specs.len()];
    let jobs = config.jobs.max(1).min(specs.len().max(1));
    if jobs == 1 {
        for &idx in &order {
            outcomes[idx] = Some(sweep_point(
                problem, config, trajectory, context, counters, specs[idx], token,
            )?);
        }
    } else {
        let chunk_len = order.len().div_ceil(jobs);
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = order
                .chunks(chunk_len)
                .map(|chunk| {
                    scope.spawn(move || {
                        let mut trajectory = None;
                        let mut context = None;
                        let mut counters = SessionCounters::default();
                        let mut out = Vec::with_capacity(chunk.len());
                        for &idx in chunk {
                            out.push((
                                idx,
                                sweep_point(
                                    problem,
                                    config,
                                    &mut trajectory,
                                    &mut context,
                                    &mut counters,
                                    specs[idx],
                                    token,
                                )?,
                            ));
                        }
                        Ok::<_, MftError>((out, counters))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker must not panic"))
                .collect::<Vec<_>>()
        });
        // A failed sweep leaves the session's counters untouched.
        let mut merged = SessionCounters::default();
        for result in results {
            let (chunk_outcomes, worker) = result?;
            merged.merge_worker(&worker);
            for (idx, outcome) in chunk_outcomes {
                outcomes[idx] = Some(outcome);
            }
        }
        counters.merge_worker(&merged);
    }
    Ok(outcomes
        .into_iter()
        .map(|o| o.expect("every spec produces an outcome"))
        .collect())
}

/// A long-lived, re-entrant sizing service handle (see the module
/// docs): owns the prepared [`SizingProblem`] plus all warm state, and
/// serves size / sweep / what-if / stats requests against it.
#[derive(Debug)]
pub struct SizingSession {
    problem: SizingProblem,
    config: SessionConfig,
    trajectory: Option<TilosState>,
    context: Option<SolverContext>,
    // The power objective's warm state is kept apart from the area
    // objective's: the two bump trajectories and dual states answer
    // different optimizations, and mixing them would break the
    // bit-exactness story of both (most visibly under
    // `cross_target_state`).
    power_trajectory: Option<TilosState>,
    power_context: Option<SolverContext>,
    counters: SessionCounters,
}

impl SizingSession {
    /// Wraps an already-prepared problem.
    pub fn new(problem: SizingProblem, config: SessionConfig) -> Self {
        SizingSession {
            problem,
            config,
            trajectory: None,
            context: None,
            power_trajectory: None,
            power_context: None,
            counters: SessionCounters::default(),
        }
    }

    /// Prepares the problem (expand, annotate loads, build DAG + delay
    /// model) and opens a session over it.
    ///
    /// # Errors
    ///
    /// As [`SizingProblem::prepare`].
    pub fn prepare(
        netlist: &Netlist,
        tech: &Technology,
        mode: SizingMode,
        config: SessionConfig,
    ) -> Result<Self, MftError> {
        Ok(Self::new(
            SizingProblem::prepare(netlist, tech, mode)?,
            config,
        ))
    }

    /// Like [`SizingSession::prepare`], but under a named technology
    /// [`Corner`] (electricals + power parameters). The delay side is
    /// bit-identical to preparing with `corner.tech` directly.
    ///
    /// # Errors
    ///
    /// As [`SizingProblem::prepare_corner`].
    pub fn prepare_corner(
        netlist: &Netlist,
        corner: &Corner,
        mode: SizingMode,
        config: SessionConfig,
    ) -> Result<Self, MftError> {
        Ok(Self::new(
            SizingProblem::prepare_corner(netlist, corner, mode)?,
            config,
        ))
    }

    /// The prepared problem (netlist, DAG, delay model, `D_min`).
    pub fn problem(&self) -> &SizingProblem {
        &self.problem
    }

    /// The configuration in use.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Dissolves the session, returning the prepared problem (all warm
    /// state is dropped).
    pub fn into_problem(self) -> SizingProblem {
        self.problem
    }

    /// Sizes to an absolute delay target through the full
    /// MINFLOTRANSIT pipeline — the session-served equivalent of
    /// [`SizingProblem::minflotransit`], bit-identical to it under the
    /// same optimizer configuration.
    ///
    /// # Errors
    ///
    /// As [`SizingProblem::minflotransit`].
    pub fn size_to(&mut self, target: f64) -> Result<SizingSolution, MftError> {
        run_point(
            &self.problem,
            &self.config,
            &mut self.trajectory,
            &mut self.context,
            &mut self.counters,
            target,
            None,
        )
    }

    /// Sizes to an absolute delay target minimizing **total power**
    /// (leakage + activity-weighted switching, per the problem's
    /// [`Corner`]) instead of area — the session-served equivalent of
    /// [`SizingProblem::minflotransit_power`](crate::SizingProblem::minflotransit_power),
    /// bit-identical to it under the same optimizer configuration.
    /// Power requests keep their own warm trajectory/solvers, separate
    /// from the area objective's, so mixing `size_to` and
    /// `size_to_power` on one session never changes either answer.
    ///
    /// # Errors
    ///
    /// As [`SizingSession::size_to`].
    pub fn size_to_power(&mut self, target: f64) -> Result<PowerSolution, MftError> {
        run_power_point(
            &self.problem,
            &self.config,
            &mut self.power_trajectory,
            &mut self.power_context,
            &mut self.counters,
            target,
            None,
        )
    }

    /// Sizes to a `T/D_min` fraction (`spec * dmin` as the absolute
    /// target).
    ///
    /// # Errors
    ///
    /// As [`SizingSession::size_to`].
    pub fn size_to_spec(&mut self, spec: f64) -> Result<SizingSolution, MftError> {
        let target = spec * self.problem.dmin();
        self.size_to(target)
    }

    /// Sizes with TILOS only (no flow refinement) — the session-served
    /// equivalent of [`SizingProblem::tilos`], bit-identical to it.
    ///
    /// # Errors
    ///
    /// [`MftError::InitialSizing`] when the target is unreachable.
    pub fn tilos_to(&mut self, target: f64) -> Result<TilosResult, MftError> {
        self.counters.requests += 1;
        self.counters.size_requests += 1;
        let (seed, _, _) = tilos_point(
            &self.problem,
            &self.config,
            &mut self.trajectory,
            &mut self.counters,
            target,
            None,
        );
        seed.map_err(MftError::InitialSizing)
    }

    /// Sweeps the area–delay curve (the paper's Figure 7) over
    /// `T/D_min` specifications, one outcome per spec in the input
    /// order. With [`SessionConfig::jobs`] ≤ 1 the sweep runs through
    /// the session's own warm state (and leaves the trajectory advanced
    /// for later requests); with more jobs the (sorted) spec list is
    /// partitioned across `std::thread::scope` workers with private,
    /// hermetic warm state — results are identical either way (see the
    /// module docs).
    ///
    /// # Errors
    ///
    /// Returns the first *unexpected* error (anything but a TILOS
    /// infeasibility, which is reported per point as
    /// [`SweepOutcome::Unreachable`]).
    pub fn sweep(&mut self, specs: &[f64]) -> Result<Vec<SweepOutcome>, MftError> {
        run_sweep(
            &self.problem,
            &self.config,
            &mut self.trajectory,
            &mut self.context,
            &mut self.counters,
            specs,
            None,
        )
    }

    /// Re-times a candidate size vector — area, critical path and
    /// (optionally) slack against a target — through the persistent
    /// incremental engine, without running any optimization. The
    /// reported values are bit-identical to
    /// [`SizingProblem::delay_of`] / [`SizingProblem::area_of`].
    ///
    /// # Errors
    ///
    /// [`MftError::ShapeMismatch`] when `sizes` has the wrong length,
    /// [`MftError::InvalidSize`] when one is not finite and positive.
    pub fn what_if(
        &mut self,
        sizes: &[f64],
        target: Option<f64>,
    ) -> Result<WhatIfReport, MftError> {
        self.counters.requests += 1;
        self.counters.what_if_requests += 1;
        let dag = self.problem.dag();
        let model = self.problem.model();
        let n = dag.num_vertices();
        check_candidate(sizes, n)?;
        let delays = model.delays(sizes);
        let cp = if self.config.warm.reuse_solvers {
            if self.context.is_none() {
                self.context = Some(SolverContext::new(&self.config.optimizer, dag, model)?);
            }
            let ctx = self.context.as_mut().expect("just ensured");
            let before = ctx.timing_stats();
            let cp = ctx.retime(dag, &delays)?;
            let delta = ctx.timing_stats().since(&before);
            self.counters.optimizer_timing = self.counters.optimizer_timing.merged(&delta);
            cp
        } else {
            self.counters.optimizer_timing.full_passes += 1;
            self.counters.optimizer_timing.vertices_touched += n;
            critical_path(dag, &delays)?
        };
        let area = model.area(sizes);
        Ok(WhatIfReport {
            area,
            area_ratio: area / self.problem.min_area(),
            power: self.problem.power_of(sizes),
            critical_path: cp,
            target,
            slack: target.map(|t| t - cp),
            meets_target: target.map(|t| cp <= t),
        })
    }

    /// A snapshot of the session's cumulative service counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            requests: self.counters.requests,
            size_requests: self.counters.size_requests,
            size_power_requests: self.counters.size_power_requests,
            sweep_requests: self.counters.sweep_requests,
            sweep_points: self.counters.sweep_points,
            what_if_requests: self.counters.what_if_requests,
            trajectory_bumps: self.counters.bumps_executed,
            trajectory_reused_bumps: self.counters.bumps_reused,
            snapshot_hits: self.counters.snapshot_hits,
            tilos_timing: self.counters.tilos_timing,
            sensitivity: self.counters.sensitivity,
            optimizer_timing: self.counters.optimizer_timing,
            dphase: self.counters.dphase.unwrap_or_default(),
            wphase: self.counters.wphase,
        }
    }

    /// Serves one typed request — the dispatch behind the
    /// newline-delimited JSON protocol ([`Request`]/[`Response`]) and
    /// the `mft serve` subcommand. Request-level failures (unreachable
    /// targets, shape mismatches) come back as [`Response::Error`]
    /// rather than a Rust error, so one bad request never tears down
    /// the stream.
    pub fn serve(&mut self, request: &Request) -> Response {
        self.serve_cancellable(request, None)
    }

    /// Like [`SizingSession::serve`], but polling `token` inside the
    /// sizing loops: a fired token stops the work and answers a coded
    /// `timeout` error carrying the partial progress (D/W iterations
    /// and TILOS bumps completed), instead of a Rust error. This is
    /// the per-request deadline path of the multi-circuit server.
    pub fn serve_with(&mut self, request: &Request, token: &CancelToken) -> Response {
        self.serve_cancellable(request, Some(token))
    }

    fn serve_cancellable(&mut self, request: &Request, token: Option<&CancelToken>) -> Response {
        match request {
            Request::Size {
                spec,
                target,
                return_sizes,
            } => {
                let target = match (target, spec) {
                    (Some(t), _) => *t,
                    (None, Some(s)) => s * self.problem.dmin(),
                    (None, None) => {
                        return Response::error("size request needs `spec` or `target`")
                    }
                };
                let min_area = self.problem.min_area();
                match run_point(
                    &self.problem,
                    &self.config,
                    &mut self.trajectory,
                    &mut self.context,
                    &mut self.counters,
                    target,
                    token,
                ) {
                    Ok(sol) => {
                        let power = self.problem.power_breakdown_of(&sol.sizes);
                        Response::Size {
                            spec: target / self.problem.dmin(),
                            target,
                            area: sol.area,
                            area_ratio: sol.area / min_area,
                            achieved_delay: sol.achieved_delay,
                            iterations: sol.iterations,
                            tilos_bumps: sol.tilos_bumps,
                            saving_percent: sol.area_saving_percent(),
                            power: power.total,
                            leakage: power.leakage,
                            switching: power.switching,
                            sizes: return_sizes.then(|| sol.sizes),
                        }
                    }
                    Err(e) => error_response(&e),
                }
            }
            Request::SizePower {
                spec,
                target,
                return_sizes,
            } => {
                let target = match (target, spec) {
                    (Some(t), _) => *t,
                    (None, Some(s)) => s * self.problem.dmin(),
                    (None, None) => {
                        return Response::error("size_power request needs `spec` or `target`")
                    }
                };
                let min_area = self.problem.min_area();
                match run_power_point(
                    &self.problem,
                    &self.config,
                    &mut self.power_trajectory,
                    &mut self.power_context,
                    &mut self.counters,
                    target,
                    token,
                ) {
                    Ok(ps) => Response::Size {
                        spec: target / self.problem.dmin(),
                        target,
                        // The physical metrics of the power-optimal
                        // sizes; the saving percent is the *power*
                        // saving over the (power-weighted) TILOS seed.
                        area: ps.area,
                        area_ratio: ps.area / min_area,
                        achieved_delay: ps.solution.achieved_delay,
                        iterations: ps.solution.iterations,
                        tilos_bumps: ps.solution.tilos_bumps,
                        saving_percent: ps.solution.area_saving_percent(),
                        power: ps.power.total,
                        leakage: ps.power.leakage,
                        switching: ps.power.switching,
                        sizes: return_sizes.then(|| ps.solution.sizes),
                    },
                    Err(e) => error_response(&e),
                }
            }
            Request::Sweep { specs } => match run_sweep(
                &self.problem,
                &self.config,
                &mut self.trajectory,
                &mut self.context,
                &mut self.counters,
                specs,
                token,
            ) {
                Ok(outcomes) => Response::Sweep { outcomes },
                Err(e) => error_response(&e),
            },
            Request::WhatIf {
                sizes,
                spec,
                target,
            } => {
                let target = target.or_else(|| spec.map(|s| s * self.problem.dmin()));
                match self.what_if(sizes, target) {
                    Ok(report) => Response::WhatIf(report),
                    Err(e) => error_response(&e),
                }
            }
            Request::Stats => {
                self.counters.requests += 1;
                Response::stats(self.stats())
            }
            // Registry requests address the multi-circuit server
            // ([`crate::CircuitServer`] dispatches them before a
            // session ever sees them); a bare session owns exactly one
            // circuit and has no registry to drive.
            request @ (Request::Load(_) | Request::Unload | Request::List | Request::Shutdown) => {
                Response::error(format!(
                    "request `{}` is only served by the multi-circuit server \
                     (`mft serve --listen`)",
                    request.wire_type()
                ))
            }
        }
    }
}

/// A read-only what-if view over a shared [`SizingProblem`]: the state
/// one server read replica owns. It answers [`ReadView::what_if`]
/// bit-identically to [`SizingSession::what_if`] but caches the
/// *previous candidate* it saw, so a stream of near-identical
/// candidates (a UI parameter sweep, a KATO-style variant scan) costs
/// O(changed gates) per request via [`DelayModel::delays_diff`] plus a
/// scoped timing rebase instead of a full re-time.
///
/// The view never mutates the problem; any number of views can share
/// one `Arc<SizingProblem>` across threads. The diff base is dropped
/// (never silently reused) by [`ReadView::invalidate`] — the server
/// calls it when the writer republishes an epoch — and whenever the
/// churn against the previous candidate crosses the 50% cliff, where
/// a full re-time is cheaper than a scoped one.
#[derive(Debug)]
pub struct ReadView {
    problem: Arc<SizingProblem>,
    engine: Option<IncrementalTiming>,
    /// The previous candidate; empty means "no diff base".
    prev_sizes: Vec<f64>,
    /// `delays(prev_sizes)`, the buffer `delays_diff` patches in place.
    prev_delays: Vec<f64>,
    delays: Vec<f64>,
    changed: Vec<VertexId>,
    affected: Vec<VertexId>,
    scratch: DiffScratch,
}

impl ReadView {
    /// A cold view over a shared problem (the first what-if re-times
    /// from scratch and seeds the diff base).
    pub fn new(problem: Arc<SizingProblem>) -> Self {
        ReadView {
            problem,
            engine: None,
            prev_sizes: Vec::new(),
            prev_delays: Vec::new(),
            delays: Vec::new(),
            changed: Vec::new(),
            affected: Vec::new(),
            scratch: DiffScratch::new(),
        }
    }

    /// Critical-path delay of the minimum-sized circuit (used to
    /// resolve `spec` into an absolute target, exactly as the session
    /// does).
    pub fn dmin(&self) -> f64 {
        self.problem.dmin()
    }

    /// Drops the previous-candidate diff base: the next what-if
    /// re-times from scratch. A what-if answer is a pure function of
    /// the candidate, so this is a performance fence, not a
    /// correctness one — the server calls it on every writer epoch
    /// bump to pin the republish contract.
    pub fn invalidate(&mut self) {
        self.prev_sizes.clear();
    }

    /// Re-times a candidate exactly like [`SizingSession::what_if`]
    /// (bit-identical report) and returns whether the answer came from
    /// the previous-candidate diff path (`true`) or a full re-time
    /// (`false`).
    ///
    /// # Errors
    ///
    /// [`MftError::ShapeMismatch`] when `sizes` has the wrong length,
    /// [`MftError::InvalidSize`] when one is not finite and positive.
    pub fn what_if(
        &mut self,
        sizes: &[f64],
        target: Option<f64>,
    ) -> Result<(WhatIfReport, bool), MftError> {
        let dag = self.problem.dag();
        let model = self.problem.model();
        let n = dag.num_vertices();
        check_candidate(sizes, n)?;
        let mut used_diff = false;
        if self.prev_sizes.len() == n {
            if let Some(engine) = self.engine.as_mut() {
                self.changed.clear();
                for (i, (new, old)) in sizes.iter().zip(&self.prev_sizes).enumerate() {
                    if new.to_bits() != old.to_bits() {
                        self.changed.push(VertexId::new(i));
                    }
                }
                // Past 50% churn a full pass touches fewer vertices
                // than the scoped one would (the same cliff the
                // incremental engine uses); fall back rather than diff.
                if 2 * self.changed.len() <= n {
                    self.delays.clear();
                    self.delays.extend_from_slice(&self.prev_delays);
                    model.delays_diff(
                        &self.changed,
                        sizes,
                        &mut self.delays,
                        &mut self.affected,
                        &mut self.scratch,
                    );
                    engine.rebase_scoped(dag, &self.delays, &self.affected)?;
                    used_diff = true;
                }
            }
        }
        if !used_diff {
            self.delays = model.delays(sizes);
            match self.engine.as_mut() {
                Some(engine) => engine.rebase(dag, &self.delays)?,
                None => self.engine = Some(IncrementalTiming::new(dag, &self.delays, 0.0)?),
            }
        }
        let cp = self
            .engine
            .as_mut()
            .expect("engine exists after timing")
            .critical_path();
        self.prev_sizes.clear();
        self.prev_sizes.extend_from_slice(sizes);
        std::mem::swap(&mut self.prev_delays, &mut self.delays);
        let area = model.area(sizes);
        Ok((
            WhatIfReport {
                area,
                area_ratio: area / self.problem.min_area(),
                power: self.problem.power_of(sizes),
                critical_path: cp,
                target,
                slack: target.map(|t| t - cp),
                meets_target: target.map(|t| cp <= t),
            },
            used_diff,
        ))
    }
}

/// The check [`SizingSession::what_if`] and [`ReadView::what_if`]
/// share: `n` sizes, each finite and positive — the only sizes the
/// delay model and the area sum are defined for.
fn check_candidate(sizes: &[f64], n: usize) -> Result<(), MftError> {
    if sizes.len() != n {
        return Err(MftError::ShapeMismatch {
            expected: n,
            found: sizes.len(),
        });
    }
    match sizes.iter().position(|x| !(x.is_finite() && *x > 0.0)) {
        Some(index) => Err(MftError::InvalidSize {
            index,
            value: sizes[index],
        }),
        None => Ok(()),
    }
}

/// Maps a request-level failure to its wire response: a fired deadline
/// becomes a coded `timeout` error carrying the partial progress, every
/// other failure the historical plain error line.
pub(crate) fn error_response(e: &MftError) -> Response {
    match e {
        MftError::Cancelled {
            iterations,
            tilos_bumps,
        } => Response::coded_error(
            ErrorCode::Timeout {
                iterations: *iterations,
                tilos_bumps: *tilos_bumps,
            },
            e.to_string(),
        ),
        _ => Response::error(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mft_circuit::{parse_bench, C17_BENCH};

    fn c17_session(config: SessionConfig) -> SizingSession {
        let netlist = parse_bench("c17", C17_BENCH).unwrap();
        SizingSession::prepare(
            &netlist,
            &Technology::cmos_130nm(),
            SizingMode::Gate,
            config,
        )
        .unwrap()
    }

    #[test]
    fn loose_target_returns_minimum_sizes_like_legacy() {
        let mut session = c17_session(SessionConfig::warm());
        let dmin = session.problem().dmin();
        let sol = session.size_to(2.0 * dmin).unwrap();
        assert_eq!(sol.iterations, 0);
        assert_eq!(sol.sizes, vec![1.0; session.problem().dag().num_vertices()]);
    }

    #[test]
    fn out_of_order_targets_are_served_from_the_bump_log() {
        let mut session = c17_session(SessionConfig::warm());
        let dmin = session.problem().dmin();
        let tight = session.size_to(0.6 * dmin).unwrap();
        let before = session.stats();
        let loose = session.size_to(0.8 * dmin).unwrap();
        let after = session.stats();
        assert!(loose.tilos_bumps <= tight.tilos_bumps);
        assert_eq!(after.snapshot_hits, before.snapshot_hits + 1);
        // The replay did zero TILOS-side timing work.
        assert_eq!(after.tilos_timing, before.tilos_timing);
    }

    #[test]
    fn what_if_matches_problem_delay_and_area() {
        let mut session = c17_session(SessionConfig::warm());
        let dmin = session.problem().dmin();
        let sol = session.size_to(0.7 * dmin).unwrap();
        let report = session.what_if(&sol.sizes, Some(0.7 * dmin)).unwrap();
        assert_eq!(
            report.critical_path.to_bits(),
            session.problem().delay_of(&sol.sizes).to_bits()
        );
        assert_eq!(
            report.area.to_bits(),
            session.problem().area_of(&sol.sizes).to_bits()
        );
        assert_eq!(report.meets_target, Some(true));
        let bad = session.what_if(&[1.0], None).unwrap_err();
        assert!(matches!(bad, MftError::ShapeMismatch { .. }));
    }

    #[test]
    fn read_view_what_if_is_bit_identical_to_the_session() {
        let mut session = c17_session(SessionConfig::warm());
        let problem = Arc::new(session.problem().clone());
        let n = problem.dag().num_vertices();
        let mut view = ReadView::new(Arc::clone(&problem));
        let candidates = [
            vec![1.0; n],
            // One-gate nudge: the second call must take the diff path.
            {
                let mut s = vec![1.0; n];
                s[0] = 1.5;
                s
            },
            // Full churn: past the 50% cliff, falls back to a re-time.
            vec![2.0; n],
        ];
        for (i, sizes) in candidates.iter().enumerate() {
            let target = Some(0.8 * problem.dmin());
            let expect = session.what_if(sizes, target).unwrap();
            let (got, used_diff) = view.what_if(sizes, target).unwrap();
            assert_eq!(
                Response::WhatIf(got).to_json_line(),
                Response::WhatIf(expect).to_json_line(),
                "candidate {i}"
            );
            assert_eq!(used_diff, i == 1, "candidate {i}");
        }
        // Invalidation drops the diff base but not the answer.
        view.invalidate();
        let expect = session.what_if(&candidates[2], None).unwrap();
        let (got, used_diff) = view.what_if(&candidates[2], None).unwrap();
        assert!(!used_diff);
        assert_eq!(
            Response::WhatIf(got).to_json_line(),
            Response::WhatIf(expect).to_json_line()
        );
        let bad = view.what_if(&[1.0], None).unwrap_err();
        assert!(matches!(bad, MftError::ShapeMismatch { .. }));
    }

    #[test]
    fn what_if_rejects_sizes_that_are_not_finite_and_positive() {
        let mut session = c17_session(SessionConfig::warm());
        let problem = Arc::new(session.problem().clone());
        let n = problem.dag().num_vertices();
        let mut view = ReadView::new(Arc::clone(&problem));
        for bad in [0.0, -1.0, f64::INFINITY, f64::NAN, -0.0] {
            let mut sizes = vec![1.0; n];
            sizes[2] = bad;
            sizes[3] = bad;
            let want = MftError::InvalidSize {
                index: 2,
                value: bad,
            }
            .to_string();
            assert_eq!(session.what_if(&sizes, None).unwrap_err().to_string(), want);
            assert_eq!(view.what_if(&sizes, None).unwrap_err().to_string(), want);
        }
        // A refused candidate leaves both able to answer.
        let good = vec![1.5; n];
        let (got, _) = view.what_if(&good, None).unwrap();
        assert_eq!(got, session.what_if(&good, None).unwrap());
    }

    /// `jobs: 0` is a documented clamp to single-threaded operation —
    /// same results, no panic, no hang, also on an empty spec list.
    #[test]
    fn session_sweep_jobs_zero_is_clamped_to_one() {
        let mut serial = c17_session(SessionConfig::warm());
        let mut zero = c17_session(SessionConfig::warm().with_jobs(0));
        let specs = [0.9, 0.7, 0.5];
        let a = serial.sweep(&specs).unwrap();
        let b = zero.sweep(&specs).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            let (SweepOutcome::Point(x), SweepOutcome::Point(y)) = (x, y) else {
                panic!("reachable specs");
            };
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.mft_area_ratio.to_bits(), y.mft_area_ratio.to_bits());
            assert_eq!(x.iterations, y.iterations);
        }
        assert!(zero.sweep(&[]).unwrap().is_empty());
    }

    /// A cold sweep reproduces the per-point one-shot path bit for bit:
    /// `tilos` for the seed, `minflotransit_with` for the refinement.
    #[test]
    fn cold_sweep_matches_manual_per_point_loop() {
        let problem = c17_session(SessionConfig::cold()).into_problem();
        let config = MinflotransitConfig::default();
        let specs = [0.9, 0.7, 0.5];
        let got = problem
            .session(SessionConfig::cold_with(config.clone()))
            .sweep(&specs)
            .unwrap();
        for (&spec, outcome) in specs.iter().zip(got.iter()) {
            let target = spec * problem.dmin();
            let tilos = problem.tilos(target).unwrap();
            let mft = problem.minflotransit_with(target, config.clone()).unwrap();
            let SweepOutcome::Point(p) = outcome else {
                panic!("c17 specs are reachable");
            };
            assert_eq!(p.spec, spec);
            assert_eq!(
                p.tilos_area_ratio.to_bits(),
                (tilos.area / problem.min_area()).to_bits()
            );
            assert_eq!(
                p.mft_area_ratio.to_bits(),
                (mft.area / problem.min_area()).to_bits()
            );
            assert_eq!(p.iterations, mft.iterations);
        }
    }

    /// Specs arrive back in input order whatever the processing order.
    #[test]
    fn sweep_outcomes_preserve_input_order() {
        let shuffled = [0.6, 0.9, 0.5, 0.8];
        let got = c17_session(SessionConfig::warm()).sweep(&shuffled).unwrap();
        for (&spec, outcome) in shuffled.iter().zip(got.iter()) {
            let SweepOutcome::Point(p) = outcome else {
                panic!("reachable");
            };
            assert_eq!(p.spec, spec);
        }
    }

    /// Warm results match the cold curve on every reported ratio, and
    /// the TILOS side is bit-identical (trajectory exactness).
    #[test]
    fn warm_sweep_matches_cold_sweep() {
        let specs = [0.95, 0.85, 0.75, 0.65, 0.55];
        let cold = c17_session(SessionConfig::cold()).sweep(&specs).unwrap();
        let warm = c17_session(SessionConfig::warm()).sweep(&specs).unwrap();
        for (c, w) in cold.iter().zip(warm.iter()) {
            let (SweepOutcome::Point(c), SweepOutcome::Point(w)) = (c, w) else {
                panic!("reachable specs");
            };
            assert_eq!(c.tilos_area_ratio.to_bits(), w.tilos_area_ratio.to_bits());
            assert!(
                (c.mft_area_ratio - w.mft_area_ratio).abs() <= 1e-9 * c.mft_area_ratio,
                "spec {}: cold {} vs warm {}",
                c.spec,
                c.mft_area_ratio,
                w.mft_area_ratio
            );
            // The warm run actually exercised the levers.
            assert!(w.wphase.seeded_solves > 0 || w.iterations <= 1);
        }
    }

    /// jobs=N returns bit-identical outcomes to jobs=1 (hermetic point
    /// boundaries make each point partition-independent).
    #[test]
    fn sweep_jobs_do_not_change_results() {
        let specs = [0.9, 0.8, 0.7, 0.6, 0.5, 0.45];
        let single = c17_session(SessionConfig::warm()).sweep(&specs).unwrap();
        for jobs in [2, 4] {
            let multi = c17_session(SessionConfig::warm().with_jobs(jobs))
                .sweep(&specs)
                .unwrap();
            for (a, b) in single.iter().zip(multi.iter()) {
                match (a, b) {
                    (SweepOutcome::Point(a), SweepOutcome::Point(b)) => {
                        assert_eq!(a.spec, b.spec);
                        assert_eq!(a.tilos_area_ratio.to_bits(), b.tilos_area_ratio.to_bits());
                        assert_eq!(a.mft_area_ratio.to_bits(), b.mft_area_ratio.to_bits());
                        assert_eq!(a.iterations, b.iterations);
                    }
                    (a, b) => assert_eq!(a, b),
                }
            }
        }
    }

    /// Unreachable specs latch correctly through the shared trajectory.
    #[test]
    fn unreachable_specs_survive_trajectory_reuse() {
        let specs = [0.9, 0.05, 0.04];
        let got = c17_session(SessionConfig::warm()).sweep(&specs).unwrap();
        assert!(matches!(got[0], SweepOutcome::Point(_)));
        let cold = c17_session(SessionConfig::cold()).sweep(&specs).unwrap();
        for i in [1, 2] {
            let (
                SweepOutcome::Unreachable { best_ratio: w, .. },
                SweepOutcome::Unreachable { best_ratio: c, .. },
            ) = (&got[i], &cold[i])
            else {
                panic!("specs {i} must be unreachable in both sweeps");
            };
            assert_eq!(w.to_bits(), c.to_bits());
        }
    }

    #[test]
    fn stats_merge_field_wise() {
        let mut a = c17_session(SessionConfig::warm());
        let mut b = c17_session(SessionConfig::warm());
        let dmin = a.problem().dmin();
        a.size_to(0.8 * dmin).unwrap();
        b.sweep(&[0.9, 0.7]).unwrap();
        let merged = a.stats().merged(&b.stats());
        assert_eq!(merged.requests, 2);
        assert_eq!(merged.size_requests, 1);
        assert_eq!(merged.sweep_requests, 1);
        assert_eq!(merged.sweep_points, 2);
        assert_eq!(
            merged.trajectory_bumps,
            a.stats().trajectory_bumps + b.stats().trajectory_bumps
        );
        assert_eq!(
            merged.wphase.solves,
            a.stats().wphase.solves + b.stats().wphase.solves
        );
        assert_eq!(
            merged.dphase.solves(),
            a.stats().dphase.solves() + b.stats().dphase.solves()
        );
        // Merging with the identity is the identity.
        let id = SessionStats::default().merged(&a.stats());
        assert_eq!(id, a.stats());
    }

    #[test]
    fn stats_count_requests_by_kind() {
        let mut session = c17_session(SessionConfig::warm());
        let dmin = session.problem().dmin();
        session.size_to(0.8 * dmin).unwrap();
        session.sweep(&[0.9, 0.7]).unwrap();
        let sizes = vec![1.0; session.problem().dag().num_vertices()];
        session.what_if(&sizes, None).unwrap();
        let stats = session.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.size_requests, 1);
        assert_eq!(stats.sweep_requests, 1);
        assert_eq!(stats.sweep_points, 2);
        assert_eq!(stats.what_if_requests, 1);
        assert!(stats.trajectory_bumps > 0);
        assert!(stats.wphase.solves > 0);
        assert!(stats.dphase.solves() > 0);
    }
}
