//! The session-oriented sizing API: one re-entrant [`SizingSession`]
//! handle over all of the stack's warm state.
//!
//! The optimizer has two expensive persistent structures — the TILOS
//! bump trajectory ([`mft_tilos::TilosState`]) and the [`SolverContext`]
//! (D-phase flow network, W-phase SMP solver and incremental timing
//! engine). A [`SizingSession`] owns the prepared problem *and* one such
//! pair per objective (area and power), and serves a typed request
//! stream against it: "size to target A, then B, then sweep 8 points"
//! runs over **one** trajectory, one flow network, one SMP solver and
//! one timing engine end to end. Every session runs this one path.
//!
//! What-if requests never touch that optimizer state: the session
//! answers them through one lazily built [`ReadView`] over its shared
//! problem — the same engine a server read replica runs — so a what-if
//! cannot change the work (or the counters) of a later size or sweep.
//!
//! # Exactness
//!
//! Cross-request reuse never changes a result. Every value served by a
//! session is **bit-identical** to the same request served first on a
//! new session under the same [`MinflotransitConfig`], so requests may
//! arrive in **any order**:
//!
//! * TILOS seeds come from the shared trajectory — tighter-than-before
//!   targets advance it (bit-exact, the bump sequence is
//!   target-independent), already-passed targets are replayed from the
//!   bump log by [`mft_tilos::TilosState::snapshot_at`] (bit-exact,
//!   zero timing work).
//! * Solver reuse is basis-independent. The D-phase warm-starts every
//!   flow solve from the spanning tree the previous one left, across
//!   iterations, requests and sweep points alike, yet its answer is the
//!   flow certificate's potentials: the greatest optimal dual that is
//!   `≤ 0`, a function of the LP alone, read exactly on the integral
//!   D-phase LP (see [`crate::DPhaseSolver`]). The persistent timing
//!   engine is bit-identical to cold timing.
//! * The W-phase carries nothing: each one solves its SMP from the
//!   lower bounds in one pass over the dependency blocks
//!   ([`mft_smp::SmpSolver::solve`]), a function of its budgets alone.
//!
//! `tests/session_golden.rs` pins this against a new session per
//! request.
//!
//! Every request kind runs through one private runner per step — the
//! TILOS seed, the optimizer phase, a full size request, a sweep point
//! — over one warm state; the power objective is the same size runner
//! over a [`PowerWeightedModel`] and its own warm state.
//!
//! # Sweeps
//!
//! A sweep (the paper's Figure 7 area–delay curve) sizes every spec
//! loosest-first, so the TILOS trajectory pays the bump cost of its
//! *tightest* spec once. Because no carried state changes a point's
//! result, the sizing *results* (area ratios, savings, iteration counts,
//! reachability) are identical for any [`SessionConfig::jobs`] count
//! and any spec order; with more than one worker the sorted specs are
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
use mft_sta::{IncrementalTiming, TimingStats};
use mft_tech::{PowerBreakdown, PowerWeightedModel};
use mft_tilos::{SensitivityStats, TilosConfig, TilosError, TilosResult, TilosState};
use std::sync::Arc;
use std::time::Instant;

/// The reuse levers of a session. Every session runs all of them, so
/// each field is always `true`; none is read by the session. They stay
/// only because the end-to-end benchmark's replay (`e2ebench/`) still
/// branches on them; the next change to that benchmark (the ROADMAP's
/// replay-mirror item) deletes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepWarmStart {
    /// The session reuses the TILOS bump trajectory across targets.
    pub resume_tilos: bool,
    /// The session holds its [`SolverContext`] across targets.
    pub reuse_solvers: bool,
    /// The held D-phase solver carries its basis across targets.
    pub cross_target_state: bool,
}

/// The one configuration of a [`SizingSession`]: the optimizer and
/// TILOS knobs ([`MinflotransitConfig`], [`TilosConfig`]) and the sweep
/// worker count behind a single builder.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// The per-request optimizer configuration (trust region, flow
    /// backend, TILOS knobs).
    pub optimizer: MinflotransitConfig,
    /// Always every lever on (see [`SweepWarmStart`]).
    pub warm: SweepWarmStart,
    /// Worker threads for multi-point sweep requests. `0` is clamped
    /// to `1`; workers never outnumber specs or available cores;
    /// results are identical for every count.
    pub jobs: usize,
}

impl SessionConfig {
    /// The session configuration: the default optimizer, one sweep
    /// worker. The session shares its trajectory and solvers across
    /// requests.
    pub fn warm() -> Self {
        SessionConfig {
            optimizer: MinflotransitConfig::default(),
            warm: SweepWarmStart {
                resume_tilos: true,
                reuse_solvers: true,
                cross_target_state: true,
            },
            jobs: 1,
        }
    }

    /// Exactly [`SessionConfig::warm`]. The `cold` name stays only for
    /// the end-to-end benchmark's replay (`e2ebench/`), which the next
    /// change to that benchmark rewrites; a fresh state per request is
    /// a new [`SizingSession`] per request.
    pub fn cold() -> Self {
        Self::warm()
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
    /// [`SessionConfig::warm`].
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
    /// TILOS bumps a new session per request would have re-executed but
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
    /// Timing-engine work of the optimizer side: the D/W convergence
    /// checks, plus the what-if re-times of the session's [`ReadView`]
    /// (its first candidate is a full pass, near-identical followers
    /// scoped diffs).
    pub optimizer_timing: TimingStats,
    /// Cumulative D-phase solver statistics (cold/warm solves, pivots,
    /// flow time); the backend reads `none` until the first optimizer
    /// run completes.
    pub dphase: DPhaseStats,
    /// Cumulative W-phase SMP statistics (solves, updates).
    pub wphase: WPhaseStats,
}

impl SessionStats {
    /// Combined timing-engine work (TILOS + optimizer sides).
    pub fn timing(&self) -> TimingStats {
        self.tilos_timing.merged(&self.optimizer_timing)
    }

    /// Field-wise roll-up of two stats snapshots — counters sum, the
    /// solver/timing sub-stats merge. A multi-worker sweep uses this
    /// to fold each worker's counters into the session's.
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
/// through a [`ReadView`] (the session's own, or a server read
/// replica's) without running any optimization. Every field is
/// bit-identical to a cold evaluation through
/// [`SizingProblem::delay_of`], [`SizingProblem::area_of`] and
/// [`SizingProblem::power_of`].
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfReport {
    /// Weighted area of the candidate sizing.
    pub area: f64,
    /// Area normalized to the minimum-sized circuit.
    pub area_ratio: f64,
    /// Total power (leakage + switching) of the candidate sizing under
    /// the problem's [`Corner`](mft_tech::Corner).
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

/// The warm state of one objective: the TILOS bump trajectory and the
/// [`SolverContext`], each built on first use. A session holds one per
/// objective (their bump sequences and dual states answer different
/// optimizations and must not mix); each sweep worker starts from an
/// empty one.
#[derive(Debug, Default)]
struct WarmState {
    trajectory: Option<TilosState>,
    context: Option<SolverContext>,
}

/// Runs the TILOS-seed part of a request from the state's trajectory:
/// a snapshot replay for an already-passed target, a trajectory advance
/// otherwise. The power objective runs the same seed machinery through
/// a [`PowerWeightedModel`] wrapper (identical delays, power-derived
/// objective weights). The seed's timing and sensitivity work is added
/// to `stats`; a caller that needs it per request reads it as the
/// difference to a snapshot taken before.
fn tilos_point<M: DelayModel>(
    problem: &SizingProblem,
    model: &M,
    config: &SessionConfig,
    state: &mut WarmState,
    stats: &mut SessionStats,
    target: f64,
    token: Option<&CancelToken>,
) -> Result<TilosResult, TilosError> {
    let dag = problem.dag();
    let probe = token.map(|t| t as &dyn mft_tilos::CancelProbe);
    // A trajectory built by this request charges its construction full
    // pass to this request.
    let (timing_before, sens_before, bumps_before) = state
        .trajectory
        .as_ref()
        .map(|s| (s.timing_stats(), s.sensitivity_stats(), s.bumps()))
        .unwrap_or_default();
    let tilos = match &mut state.trajectory {
        Some(tilos) => tilos,
        slot => slot.insert(TilosState::new(dag, model, config.optimizer.tilos.clone())?),
    };
    let result = match tilos.snapshot_at(model, target) {
        Some(snapshot) => {
            stats.snapshot_hits += 1;
            stats.trajectory_reused_bumps += snapshot.bumps;
            Ok(snapshot)
        }
        None => {
            let result = tilos.advance_to_with(dag, model, target, probe);
            stats.trajectory_reused_bumps += bumps_before;
            stats.trajectory_bumps += tilos.bumps() - bumps_before;
            result
        }
    };
    stats.tilos_timing = stats
        .tilos_timing
        .merged(&tilos.timing_stats().since(&timing_before));
    stats.sensitivity = stats
        .sensitivity
        .merged(&tilos.sensitivity_stats().since(&sens_before));
    result
}

/// Runs the optimizer phase of a request over the given warm state:
/// lazy [`SolverContext`] construction and the counter accounting —
/// shared by size requests and sweep points so the two cannot drift.
#[allow(clippy::too_many_arguments)]
fn optimize_with_state<M: DelayModel>(
    problem: &SizingProblem,
    model: &M,
    config: &SessionConfig,
    state: &mut WarmState,
    stats: &mut SessionStats,
    target: f64,
    seed_sizes: Vec<f64>,
    token: Option<&CancelToken>,
) -> Result<SizingSolution, MftError> {
    let dag = problem.dag();
    let ctx = match &mut state.context {
        Some(ctx) => ctx,
        slot => slot.insert(SolverContext::new(&config.optimizer, dag, model)?),
    };
    let solution = Minflotransit::new(config.optimizer.clone())
        .optimize_from_with(ctx, dag, model, target, seed_sizes, token)?;
    stats.optimizer_timing = stats.optimizer_timing.merged(&solution.timing_stats);
    stats.dphase = stats.dphase.merged(&solution.dphase_stats);
    stats.wphase = stats.wphase.merged(&solution.wphase_stats);
    Ok(solution)
}

/// Runs one full size request — TILOS seed, then the D/W relaxation,
/// with the minimum-sized early return — against the given warm state.
/// The caller counts the request. The early return and the
/// seed/optimize phases all read the objective through the model's
/// `area*` hooks, so substituting a [`PowerWeightedModel`] (with the
/// power objective's warm state) turns the whole request into a power
/// minimization without touching the optimizer.
fn run_point<M: DelayModel>(
    problem: &SizingProblem,
    model: &M,
    config: &SessionConfig,
    state: &mut WarmState,
    stats: &mut SessionStats,
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
    let before = *stats;
    let seed = match tilos_point(problem, model, config, state, stats, target, token) {
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
        problem, model, config, state, stats, target, seed.sizes, token,
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
    solution.timing_stats = solution
        .timing_stats
        .merged(&stats.tilos_timing.since(&before.tilos_timing));
    solution.sensitivity_stats = stats.sensitivity.since(&before.sensitivity);
    Ok(solution)
}

/// The result of a power-objective size request
/// ([`SizingSession::size_to_power`]): minimum total power subject to
/// the delay target.
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

/// Runs one sweep point (no minimum-sized early return: the optimizer
/// loop runs even for `spec ≥ 1`, exactly as the historical sweep did).
fn sweep_point(
    problem: &SizingProblem,
    config: &SessionConfig,
    state: &mut WarmState,
    stats: &mut SessionStats,
    spec: f64,
    token: Option<&CancelToken>,
) -> Result<SweepOutcome, MftError> {
    let dmin = problem.dmin();
    let min_area = problem.min_area();
    let target = spec * dmin;
    stats.sweep_points += 1;
    let t0 = Instant::now();
    let before = *stats;
    let tilos = match tilos_point(
        problem,
        problem.model(),
        config,
        state,
        stats,
        target,
        token,
    ) {
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
        state,
        stats,
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
        timing: stats
            .tilos_timing
            .since(&before.tilos_timing)
            .merged(&mft.timing_stats),
        sensitivity: stats.sensitivity.since(&before.sensitivity),
    }))
}

/// The sweep's worker threads: the configured `jobs`, at most one per
/// spec and per available core, and at least one.
fn sweep_workers(jobs: usize, specs: usize, cores: usize) -> usize {
    jobs.min(specs).min(cores).max(1)
}

/// Runs one sweep request over `T/D_min` specifications against the
/// given warm state and counts it, returning one outcome per spec in
/// the input order (see the module docs on sweeps). Specs run
/// loosest-first (descending spec ⇒ descending absolute target, since
/// `D_min > 0`; ties keep input order). With one worker (see
/// [`sweep_workers`]) they run through the caller's warm state
/// (leaving the trajectory advanced for later requests); with more,
/// the sorted order is split into contiguous chunks swept by
/// `std::thread::scope` workers, each from an empty [`WarmState`].
/// Every worker's work is counted, also when the sweep fails.
fn run_sweep(
    problem: &SizingProblem,
    config: &SessionConfig,
    state: &mut WarmState,
    stats: &mut SessionStats,
    specs: &[f64],
    token: Option<&CancelToken>,
) -> Result<Vec<SweepOutcome>, MftError> {
    stats.requests += 1;
    stats.sweep_requests += 1;
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by(|&a, &b| {
        specs[b]
            .partial_cmp(&specs[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut outcomes: Vec<Option<SweepOutcome>> = vec![None; specs.len()];
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = sweep_workers(config.jobs, specs.len(), cores);
    if jobs == 1 {
        for &idx in &order {
            outcomes[idx] = Some(sweep_point(
                problem, config, state, stats, specs[idx], token,
            )?);
        }
    } else {
        let chunk_len = order.len().div_ceil(jobs);
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = order
                .chunks(chunk_len)
                .map(|chunk| {
                    scope.spawn(move || {
                        let mut state = WarmState::default();
                        let mut worker = SessionStats::default();
                        let result = chunk
                            .iter()
                            .map(|&idx| {
                                let outcome = sweep_point(
                                    problem,
                                    config,
                                    &mut state,
                                    &mut worker,
                                    specs[idx],
                                    token,
                                )?;
                                Ok((idx, outcome))
                            })
                            .collect::<Result<Vec<_>, MftError>>();
                        (result, worker)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker must not panic"))
                .collect::<Vec<_>>()
        });
        // Worker stats carry no request counts, so merging them adds
        // only the work they did — also the work of a failed sweep.
        for (_, worker) in &results {
            *stats = stats.merged(worker);
        }
        for (result, _) in results {
            for (idx, outcome) in result? {
                outcomes[idx] = Some(outcome);
            }
        }
    }
    Ok(outcomes
        .into_iter()
        .map(|o| o.expect("every spec produces an outcome"))
        .collect())
}

/// A long-lived, re-entrant sizing service handle (see the module
/// docs): holds the prepared [`SizingProblem`] plus all warm state, and
/// serves size / sweep / what-if / stats requests against it.
#[derive(Debug)]
pub struct SizingSession {
    /// Shared so the what-if view (and a server's read replicas) time
    /// against the same problem instead of a copy.
    problem: Arc<SizingProblem>,
    config: SessionConfig,
    /// Warm state of the area objective (size, TILOS-only and sweep
    /// requests).
    area: WarmState,
    /// Warm state of the power objective, kept apart from the area
    /// objective's: the two objectives advance different TILOS
    /// trajectories.
    power: WarmState,
    /// Answers what-if requests; built on the first one.
    view: Option<ReadView>,
    stats: SessionStats,
}

impl SizingSession {
    /// Wraps an already-prepared problem, owned or already shared.
    pub fn new(problem: impl Into<Arc<SizingProblem>>, config: SessionConfig) -> Self {
        SizingSession {
            problem: problem.into(),
            config,
            area: WarmState::default(),
            power: WarmState::default(),
            view: None,
            stats: SessionStats::default(),
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

    /// The prepared problem (netlist, DAG, delay model, `D_min`).
    pub fn problem(&self) -> &SizingProblem {
        &self.problem
    }

    /// The configuration in use.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Sizes to an absolute delay target through the full
    /// MINFLOTRANSIT pipeline: the TILOS seed, then the D/W relaxation.
    /// It resumes the session's warm state, with the results described
    /// in the module docs.
    ///
    /// # Errors
    ///
    /// [`MftError::InitialSizing`] when TILOS cannot reach the target,
    /// or a solver failure from the relaxation.
    pub fn size_to(&mut self, target: f64) -> Result<SizingSolution, MftError> {
        self.size(target, None)
    }

    /// Sizes to an absolute delay target minimizing **total power**
    /// (leakage + activity-weighted switching, per the problem's
    /// [`Corner`](mft_tech::Corner)) instead of area. Power requests keep their own warm
    /// state, separate from the area objective's, so mixing `size_to`
    /// and `size_to_power` on one session never changes either answer.
    ///
    /// # Errors
    ///
    /// As [`SizingSession::size_to`].
    pub fn size_to_power(&mut self, target: f64) -> Result<PowerSolution, MftError> {
        self.size_power(target, None)
    }

    /// Counts and runs one area-objective size request.
    fn size(
        &mut self,
        target: f64,
        token: Option<&CancelToken>,
    ) -> Result<SizingSolution, MftError> {
        self.stats.requests += 1;
        self.stats.size_requests += 1;
        let problem = &self.problem;
        run_point(
            problem,
            problem.model(),
            &self.config,
            &mut self.area,
            &mut self.stats,
            target,
            token,
        )
    }

    /// Counts and runs one power-objective size request: [`run_point`]
    /// over a [`PowerWeightedModel`] (identical delays, power-derived
    /// objective weights) and the power objective's warm state.
    fn size_power(
        &mut self,
        target: f64,
        token: Option<&CancelToken>,
    ) -> Result<PowerSolution, MftError> {
        self.stats.requests += 1;
        self.stats.size_power_requests += 1;
        let problem = &self.problem;
        let model = PowerWeightedModel::new(problem.model(), problem.power());
        let solution = run_point(
            problem,
            &model,
            &self.config,
            &mut self.power,
            &mut self.stats,
            target,
            token,
        )?;
        Ok(PowerSolution {
            power: problem.power().breakdown(&solution.sizes),
            area: problem.model().area(&solution.sizes),
            solution,
        })
    }

    /// Sizes with TILOS only (no flow refinement): the seed a
    /// [`SizingSession::size_to`] at the same target starts from.
    ///
    /// # Errors
    ///
    /// [`MftError::InitialSizing`] when the target is unreachable.
    pub fn tilos_to(&mut self, target: f64) -> Result<TilosResult, MftError> {
        self.stats.requests += 1;
        self.stats.size_requests += 1;
        tilos_point(
            &self.problem,
            self.problem.model(),
            &self.config,
            &mut self.area,
            &mut self.stats,
            target,
            None,
        )
        .map_err(MftError::InitialSizing)
    }

    /// Sweeps the area–delay curve (the paper's Figure 7) over
    /// `T/D_min` specifications, one outcome per spec in the input
    /// order. With one worker ([`SessionConfig::jobs`] ≤ 1, one spec
    /// or one core) the sweep runs through the session's own warm
    /// state (and leaves the trajectory advanced for later requests);
    /// with more workers the (sorted) spec list is
    /// partitioned across `std::thread::scope` workers, each with
    /// private warm state — results are identical either way (see the
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
            &mut self.area,
            &mut self.stats,
            specs,
            None,
        )
    }

    /// Re-times a candidate size vector — area, critical path and
    /// (optionally) slack against a target — through the session's
    /// [`ReadView`], without running any optimization. The view diffs
    /// each candidate against the previous one, and its timing work is
    /// added to [`SessionStats::optimizer_timing`]. The reported values
    /// are bit-identical to [`SizingProblem::delay_of`] /
    /// [`SizingProblem::area_of`].
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
        self.stats.requests += 1;
        self.stats.what_if_requests += 1;
        let problem = &self.problem;
        let view = self
            .view
            .get_or_insert_with(|| ReadView::new(Arc::clone(problem)));
        let before = view.timing_stats();
        let result = view.what_if(sizes, target);
        self.stats.optimizer_timing = self
            .stats
            .optimizer_timing
            .merged(&view.timing_stats().since(&before));
        result.map(|(report, _)| report)
    }

    /// A snapshot of the session's cumulative service counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
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
            }
            | Request::SizePower {
                spec,
                target,
                return_sizes,
            } => {
                let Some(target) = target.or_else(|| spec.map(|s| s * self.problem.dmin())) else {
                    return Response::error(format!(
                        "{} request needs `spec` or `target`",
                        request.wire_type()
                    ));
                };
                // A power-objective response reports the physical area
                // of the power-optimal sizes; its saving percent is the
                // *power* saving over the (power-weighted) TILOS seed.
                let result = if matches!(request, Request::SizePower { .. }) {
                    self.size_power(target, token)
                        .map(|ps| (ps.area, ps.power, ps.solution))
                } else {
                    self.size(target, token).map(|sol| {
                        let power = self.problem.power_breakdown_of(&sol.sizes);
                        (sol.area, power, sol)
                    })
                };
                match result {
                    Ok((area, power, sol)) => Response::Size {
                        spec: target / self.problem.dmin(),
                        target,
                        area,
                        area_ratio: area / self.problem.min_area(),
                        achieved_delay: sol.achieved_delay,
                        iterations: sol.iterations,
                        tilos_bumps: sol.tilos_bumps,
                        saving_percent: sol.area_saving_percent(),
                        power: power.total,
                        leakage: power.leakage,
                        switching: power.switching,
                        sizes: return_sizes.then_some(sol.sizes),
                    },
                    Err(e) => error_response(&e),
                }
            }
            Request::Sweep { specs } => match run_sweep(
                &self.problem,
                &self.config,
                &mut self.area,
                &mut self.stats,
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
                self.stats.requests += 1;
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

/// A read-only what-if view over a shared [`SizingProblem`]: the one
/// what-if engine, owned by each server read replica and by every
/// [`SizingSession`] (which answers [`SizingSession::what_if`] through
/// it). It caches the *previous candidate* it saw, so a stream of
/// near-identical candidates (a UI parameter sweep, a KATO-style
/// variant scan) costs O(changed gates) per request via
/// [`DelayModel::delays_diff`] plus a scoped timing rebase instead of a
/// full re-time; every answer is bit-identical to a cold evaluation.
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

    /// Work counters of the view's timing engine (zero before the first
    /// what-if).
    fn timing_stats(&self) -> TimingStats {
        self.engine
            .as_ref()
            .map(IncrementalTiming::stats)
            .unwrap_or_default()
    }

    /// Drops the previous-candidate diff base: the next what-if
    /// re-times from scratch. A what-if answer is a pure function of
    /// the candidate, so this is a performance fence, not a
    /// correctness one — the server calls it on every writer epoch
    /// bump to pin the republish contract.
    pub fn invalidate(&mut self) {
        self.prev_sizes.clear();
    }

    /// Re-times a candidate (the report is bit-identical to
    /// [`SizingProblem::delay_of`] / [`SizingProblem::area_of`] /
    /// [`SizingProblem::power_of`]) and returns whether the answer came
    /// from the previous-candidate diff path (`true`) or a full re-time
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
                // The engine's churn rule decides between a scoped
                // diff and a full re-time.
                if !IncrementalTiming::prefers_full_pass(self.changed.len(), n) {
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
                None => self.engine = Some(IncrementalTiming::new(dag, &self.delays)?),
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

/// The candidate check of [`ReadView::what_if`]: `n` sizes, each
/// finite and positive — the only sizes the delay model and the area
/// sum are defined for.
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

    /// `--jobs` from the command line is capped by the specs and the
    /// cores, so no value of it can ask for more threads than those.
    #[test]
    fn sweep_workers_are_capped_by_specs_and_cores() {
        assert_eq!(sweep_workers(usize::MAX, 1_000_000, 8), 8);
        assert_eq!(sweep_workers(usize::MAX, 3, 8), 3);
        assert_eq!(sweep_workers(2, 1_000_000, 8), 2);
        assert_eq!(sweep_workers(0, 5, 8), 1);
        assert_eq!(sweep_workers(4, 0, 8), 1);
    }

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
    fn loose_target_returns_minimum_sizes() {
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

    /// The what-if report of a cold evaluation: the oracle of every
    /// view answer.
    fn cold_report(problem: &SizingProblem, sizes: &[f64], target: Option<f64>) -> WhatIfReport {
        let area = problem.area_of(sizes);
        let cp = problem.delay_of(sizes);
        WhatIfReport {
            area,
            area_ratio: area / problem.min_area(),
            power: problem.power_of(sizes),
            critical_path: cp,
            target,
            slack: target.map(|t| t - cp),
            meets_target: target.map(|t| cp <= t),
        }
    }

    #[test]
    fn read_view_what_if_is_bit_identical_to_a_cold_evaluation() {
        let problem = Arc::new(c17_session(SessionConfig::warm()).problem().clone());
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
            let expect = cold_report(&problem, sizes, target);
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
        let expect = cold_report(&problem, &candidates[2], None);
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

    /// A sweep reproduces, bit for bit, each point's requests served
    /// each on a new session: `tilos_to` for the seed, `size_to` for
    /// the refinement.
    #[test]
    fn sweep_matches_fresh_sessions_per_point() {
        let problem = c17_session(SessionConfig::warm()).problem().clone();
        let specs = [0.95, 0.9, 0.85, 0.75, 0.7, 0.65, 0.55, 0.5];
        let got = problem
            .session(SessionConfig::warm())
            .sweep(&specs)
            .unwrap();
        let fresh = || problem.session(SessionConfig::warm());
        for (&spec, outcome) in specs.iter().zip(got.iter()) {
            let target = spec * problem.dmin();
            let tilos = fresh().tilos_to(target).unwrap();
            let mft = fresh().size_to(target).unwrap();
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
                (mft.area / problem.min_area()).to_bits(),
                "spec {spec}"
            );
            assert_eq!(p.iterations, mft.iterations, "spec {spec}");
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

    /// jobs=N returns bit-identical outcomes to jobs=1 (no carried
    /// state changes a point's result, so each point is
    /// partition-independent).
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

    /// Unreachable specs latch correctly through the shared trajectory:
    /// each reports what a one-spec sweep on a new session reports.
    #[test]
    fn unreachable_specs_survive_trajectory_reuse() {
        let specs = [0.9, 0.05, 0.04];
        let got = c17_session(SessionConfig::warm()).sweep(&specs).unwrap();
        assert!(matches!(got[0], SweepOutcome::Point(_)));
        for i in [1, 2] {
            let fresh = c17_session(SessionConfig::warm())
                .sweep(&specs[i..=i])
                .unwrap();
            let (
                SweepOutcome::Unreachable { best_ratio: w, .. },
                SweepOutcome::Unreachable { best_ratio: c, .. },
            ) = (&got[i], &fresh[0])
            else {
                panic!("spec {i} must be unreachable in both sweeps");
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
