//! In-process replay of served requests through each layer's public
//! API, with a span around every call.
//!
//! [`ReplayCircuit::serve`] follows `SizingSession::serve` and the
//! optimizer loop step by step — TILOS seed from a shared trajectory,
//! a persistent D-phase/W-phase/timing context, the D/W iteration with
//! its sparse candidate evaluation — for the `warm` and `cold` presets,
//! and answers `what_if` through a `ReadView`. Its responses must equal
//! the served ones byte for byte; the benchmark checks that on every
//! replayed request, so the replay cannot silently drift from the code
//! it measures.

use crate::trace::{Layer, Tracer};
use mft_circuit::{parse_bench, SizingMode, VertexId};
use mft_core::{
    CurvePoint, DPhaseInputs, DPhaseOptions, DPhaseSolver, DPhaseStats, MftError, ReadView,
    Request, Response, SessionConfig, SizingProblem, SweepOutcome, WPhaseStats,
};
use mft_delay::{DelayModel, DiffScratch};
use mft_smp::SmpSolver;
use mft_sta::{BalancedConfig, IncrementalConfig, IncrementalTiming, TimingStats};
use mft_tech::{PowerWeightedModel, TechLibrary};
use mft_tilos::{SensitivityStats, TilosError, TilosResult, TilosState};
use std::sync::Arc;

/// Work counters of the replay, summed over every replayed request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub tilos_bumps: u64,
    pub snapshot_hits: u64,
    pub dphase_solves: u64,
    pub dphase_warm: u64,
    pub dphase_fallbacks: u64,
    pub dphase_pivots: u64,
    pub wphase_solves: u64,
    pub wphase_seeded: u64,
    pub wphase_updates: u64,
    pub sta_full_passes: u64,
    pub sta_vertices_touched: u64,
    pub iterations: u64,
    pub accepted: u64,
    pub what_ifs: u64,
    pub diff_hits: u64,
}

/// Prepares a circuit exactly as the server's `load` does for an inline
/// netlist under the default corner and gate mode.
///
/// # Errors
///
/// Parse or preparation failures, as text.
pub fn prepare(name: &str, bench: &str) -> Result<SizingProblem, String> {
    let corner = TechLibrary::standard()
        .resolve(None, None)
        .map_err(|e| e.to_string())?;
    let netlist = parse_bench(name, bench).map_err(|e| e.to_string())?;
    SizingProblem::prepare_corner(&netlist, &corner, SizingMode::Gate).map_err(|e| e.to_string())
}

/// The persistent solvers of one objective: what `SolverContext` holds.
struct Context {
    dphase: DPhaseSolver,
    smp: SmpSolver,
    timing: IncrementalTiming,
}

/// Warm state of one objective: trajectory plus solver context.
#[derive(Default)]
struct WarmState {
    trajectory: Option<TilosState>,
    context: Option<Context>,
}

/// The outcome of one sizing run (a `SizingSolution` subset).
struct Sized {
    sizes: Vec<f64>,
    area: f64,
    achieved_delay: f64,
    initial_area: f64,
    iterations: usize,
    tilos_bumps: usize,
    dphase: DPhaseStats,
    wphase: WPhaseStats,
}

impl Sized {
    fn saving_percent(&self) -> f64 {
        if self.initial_area <= 0.0 {
            return 0.0;
        }
        100.0 * (self.initial_area - self.area) / self.initial_area
    }
}

/// One replayed circuit: the prepared problem, the preset, the warm
/// state of both objectives, and the read view.
pub struct ReplayCircuit {
    problem: Arc<SizingProblem>,
    config: SessionConfig,
    area: WarmState,
    power: WarmState,
    view: ReadView,
}

impl ReplayCircuit {
    pub fn new(problem: SizingProblem, preset: &str) -> Self {
        let config = match preset {
            "cold" => SessionConfig::cold(),
            _ => SessionConfig::warm(),
        };
        let problem = Arc::new(problem);
        ReplayCircuit {
            view: ReadView::new(Arc::clone(&problem)),
            problem,
            config,
            area: WarmState::default(),
            power: WarmState::default(),
        }
    }

    /// Replays one request. `None` for kinds the replay does not
    /// reproduce (`stats`, whose counters depend on interleaving and
    /// wall time, and registry requests).
    pub fn serve(
        &mut self,
        request: &Request,
        tr: &mut Tracer,
        c: &mut Counters,
    ) -> Option<Response> {
        let problem = Arc::clone(&self.problem);
        let dmin = problem.dmin();
        let resolve = |spec: &Option<f64>, target: &Option<f64>| target.or(spec.map(|s| s * dmin));
        Some(match request {
            Request::Size {
                spec,
                target,
                return_sizes,
            } => {
                let Some(target) = resolve(spec, target) else {
                    return Some(Response::error("size request needs `spec` or `target`"));
                };
                match run_point(
                    &problem,
                    problem.model(),
                    &self.config,
                    &mut self.area,
                    target,
                    tr,
                    c,
                ) {
                    Ok(sol) => {
                        let power = problem.power_breakdown_of(&sol.sizes);
                        Response::Size {
                            spec: target / dmin,
                            target,
                            area: sol.area,
                            area_ratio: sol.area / problem.min_area(),
                            achieved_delay: sol.achieved_delay,
                            iterations: sol.iterations,
                            tilos_bumps: sol.tilos_bumps,
                            saving_percent: sol.saving_percent(),
                            power: power.total,
                            leakage: power.leakage,
                            switching: power.switching,
                            sizes: return_sizes.then_some(sol.sizes),
                        }
                    }
                    Err(e) => Response::error(e.to_string()),
                }
            }
            Request::SizePower {
                spec,
                target,
                return_sizes,
            } => {
                let Some(target) = resolve(spec, target) else {
                    return Some(Response::error(
                        "size_power request needs `spec` or `target`",
                    ));
                };
                let wrapper = PowerWeightedModel::new(problem.model(), problem.power());
                match run_point(
                    &problem,
                    &wrapper,
                    &self.config,
                    &mut self.power,
                    target,
                    tr,
                    c,
                ) {
                    Ok(sol) => {
                        let power = problem.power().breakdown(&sol.sizes);
                        let area = problem.model().area(&sol.sizes);
                        Response::Size {
                            spec: target / dmin,
                            target,
                            area,
                            area_ratio: area / problem.min_area(),
                            achieved_delay: sol.achieved_delay,
                            iterations: sol.iterations,
                            tilos_bumps: sol.tilos_bumps,
                            saving_percent: sol.saving_percent(),
                            power: power.total,
                            leakage: power.leakage,
                            switching: power.switching,
                            sizes: return_sizes.then_some(sol.sizes),
                        }
                    }
                    Err(e) => Response::error(e.to_string()),
                }
            }
            Request::Sweep { specs } => {
                // Loosest first, ties in input order; answers in input
                // order.
                let mut order: Vec<usize> = (0..specs.len()).collect();
                order.sort_by(|&a, &b| {
                    specs[b]
                        .partial_cmp(&specs[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
                let mut outcomes = vec![None; specs.len()];
                for idx in order {
                    match sweep_point(&problem, &self.config, &mut self.area, specs[idx], tr, c) {
                        Ok(outcome) => outcomes[idx] = Some(outcome),
                        Err(e) => return Some(Response::error(e.to_string())),
                    }
                }
                Response::Sweep {
                    outcomes: outcomes
                        .into_iter()
                        .map(|o| o.expect("every spec answered"))
                        .collect(),
                }
            }
            Request::WhatIf {
                sizes,
                spec,
                target,
            } => {
                let target = resolve(spec, target);
                let view = &mut self.view;
                match tr.span(Layer::Sta, || view.what_if(sizes, target)) {
                    Ok((report, used_diff)) => {
                        c.what_ifs += 1;
                        if used_diff {
                            c.diff_hits += 1;
                        } else {
                            c.sta_full_passes += 1;
                            c.sta_vertices_touched += problem.dag().num_vertices() as u64;
                        }
                        Response::WhatIf(report)
                    }
                    Err(e) => Response::error(e.to_string()),
                }
            }
            _ => return None,
        })
    }
}

/// The TILOS seed of one request (the session's `tilos_point`).
fn tilos_point<M: DelayModel>(
    problem: &SizingProblem,
    model: &M,
    config: &SessionConfig,
    state: &mut WarmState,
    target: f64,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<TilosResult, TilosError> {
    let dag = problem.dag();
    let tilos = config.optimizer.tilos.clone();
    tr.enter(Layer::Tilos);
    let result = if config.warm.resume_tilos {
        if state.trajectory.is_none() {
            match TilosState::new(dag, model, tilos) {
                Ok(t) => state.trajectory = Some(t),
                Err(e) => {
                    tr.exit();
                    return Err(e);
                }
            }
        }
        let traj = state.trajectory.as_mut().expect("just ensured");
        if let Some(snapshot) = traj.snapshot_at(model, target) {
            c.snapshot_hits += 1;
            Ok(snapshot)
        } else {
            let before = traj.bumps();
            let result = traj.advance_to(dag, model, target);
            c.tilos_bumps += (traj.bumps() - before) as u64;
            result
        }
    } else {
        TilosState::new(dag, model, tilos).and_then(|mut traj| {
            let result = traj.advance_to(dag, model, target);
            c.tilos_bumps += traj.bumps() as u64;
            result
        })
    };
    tr.exit();
    result
}

/// Builds the persistent solvers (the session's `SolverContext::new`).
fn build_context<M: DelayModel>(
    problem: &SizingProblem,
    model: &M,
    config: &SessionConfig,
    tr: &mut Tracer,
) -> Result<Context, MftError> {
    let dag = problem.dag();
    let opt = &config.optimizer;
    let n = dag.num_vertices();
    let (min_size, max_size) = model.size_bounds();
    let smp = tr.span(Layer::Wphase, || {
        let dependents: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                model
                    .dependents(VertexId::new(i))
                    .iter()
                    .map(|v| v.index())
                    .collect()
            })
            .collect();
        SmpSolver::try_new(vec![min_size; n], vec![max_size; n], dependents).map_err(MftError::Smp)
    })?;
    let dphase = tr.span(Layer::DphaseBuild, || {
        DPhaseSolver::new(
            dag,
            DPhaseOptions {
                algorithm: opt.flow_algorithm,
                digits: opt.cost_digits,
                warm_start: opt.dphase_warm_start,
            },
        )
    })?;
    let timing = tr.span(Layer::Sta, || {
        IncrementalTiming::with_config(
            dag,
            &vec![0.0; n],
            IncrementalConfig {
                tol: 0.0,
                full_pass_churn: opt.full_pass_churn,
            },
        )
    })?;
    Ok(Context {
        dphase,
        smp,
        timing,
    })
}

/// One full size request (the session's `run_point_with_model`).
fn run_point<M: DelayModel>(
    problem: &SizingProblem,
    model: &M,
    config: &SessionConfig,
    state: &mut WarmState,
    target: f64,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<Sized, MftError> {
    if problem.dmin() <= target {
        let (min_size, _) = model.size_bounds();
        let sizes = vec![min_size; problem.dag().num_vertices()];
        let area = model.area(&sizes);
        return Ok(Sized {
            sizes,
            area,
            achieved_delay: problem.dmin(),
            initial_area: area,
            iterations: 0,
            tilos_bumps: 0,
            dphase: DPhaseStats::default(),
            wphase: WPhaseStats::default(),
        });
    }
    let seed = tilos_point(problem, model, config, state, target, tr, c)
        .map_err(MftError::InitialSizing)?;
    let bumps = seed.bumps;
    let mut sol = optimize(problem, model, config, state, target, seed.sizes, tr, c)?;
    sol.tilos_bumps = bumps;
    Ok(sol)
}

/// One sweep point (the session's `sweep_point`).
fn sweep_point(
    problem: &SizingProblem,
    config: &SessionConfig,
    state: &mut WarmState,
    spec: f64,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<SweepOutcome, MftError> {
    let dmin = problem.dmin();
    let min_area = problem.min_area();
    let target = spec * dmin;
    let tilos = match tilos_point(problem, problem.model(), config, state, target, tr, c) {
        Ok(r) => r,
        Err(TilosError::Infeasible { best_delay, .. })
        | Err(TilosError::BumpBudgetExhausted { best_delay, .. }) => {
            return Ok(SweepOutcome::Unreachable {
                spec,
                best_ratio: best_delay / dmin,
            })
        }
        Err(e) => return Err(MftError::InitialSizing(e)),
    };
    let mft = optimize(
        problem,
        problem.model(),
        config,
        state,
        target,
        tilos.sizes.clone(),
        tr,
        c,
    )?;
    Ok(SweepOutcome::Point(CurvePoint {
        spec,
        target,
        tilos_area_ratio: tilos.area / min_area,
        mft_area_ratio: mft.area / min_area,
        mft_power: problem.power().total_power(&mft.sizes),
        saving_percent: 100.0 * (tilos.area - mft.area) / tilos.area,
        tilos_seconds: 0.0,
        mft_extra_seconds: 0.0,
        iterations: mft.iterations,
        dphase: mft.dphase,
        wphase: mft.wphase,
        timing: TimingStats::default(),
        sensitivity: SensitivityStats::default(),
    }))
}

/// The optimizer phase over the warm state (the session's
/// `optimize_with_state`): a persistent context with a hermetic
/// request boundary under `reuse_solvers`, a throwaway one otherwise.
#[allow(clippy::too_many_arguments)]
fn optimize<M: DelayModel>(
    problem: &SizingProblem,
    model: &M,
    config: &SessionConfig,
    state: &mut WarmState,
    target: f64,
    seed: Vec<f64>,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<Sized, MftError> {
    if config.warm.reuse_solvers {
        if state.context.is_none() {
            state.context = Some(build_context(problem, model, config, tr)?);
        }
        let ctx = state.context.as_mut().expect("just ensured");
        if !config.warm.cross_target_state {
            ctx.dphase.invalidate_warm_state();
        }
        optimize_loop(problem, model, config, ctx, target, seed, tr, c)
    } else {
        let mut ctx = build_context(problem, model, config, tr)?;
        optimize_loop(problem, model, config, &mut ctx, target, seed, tr, c)
    }
}

/// The D/W iteration (the optimizer's `optimize_loop`), one span per
/// layer call.
#[allow(clippy::too_many_arguments)]
fn optimize_loop<M: DelayModel>(
    problem: &SizingProblem,
    model: &M,
    config: &SessionConfig,
    ctx: &mut Context,
    target: f64,
    initial: Vec<f64>,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<Sized, MftError> {
    let opt = &config.optimizer;
    let dag = problem.dag();
    let n = dag.num_vertices();
    let timing_tol = opt.timing_eps * target.abs().max(1.0);
    let dphase_before = ctx.dphase.stats();
    let timing_before = ctx.timing.stats();
    let mut wphase = WPhaseStats::default();
    let mut sizes = initial;

    let Context {
        dphase,
        smp,
        timing,
    } = ctx;
    let (mut delays, cp0) = tr.span(Layer::Sta, || {
        let delays = model.delays(&sizes);
        timing
            .rebase(dag, &delays)
            .map(|()| (delays, timing.critical_path()))
    })?;
    if cp0 > target + timing_tol {
        return Err(MftError::InfeasibleStart {
            critical_path: cp0,
            target,
        });
    }
    let initial_area = model.area(&sizes);
    let mut area = initial_area;
    let mut gamma = opt.trust_region;
    let mut stagnant = 0usize;
    let mut iterations = 0usize;
    let mut cand_delays = delays.clone();
    let mut changed: Vec<VertexId> = Vec::new();
    let mut affected: Vec<VertexId> = Vec::new();
    let mut scratch = DiffScratch::new();

    while iterations < opt.max_iterations {
        iterations += 1;
        let (excess, sensitivities, balanced) = tr.span(Layer::DphaseInputs, || {
            let excess: Vec<f64> = (0..n)
                .map(|i| (delays[i] - model.intrinsic(VertexId::new(i))).max(0.0))
                .collect();
            let sensitivities = model.area_sensitivities(&sizes);
            BalancedConfig::balance(dag, &delays, target, opt.balance_style)
                .map(|balanced| (excess, sensitivities, balanced))
        })?;
        let step = tr.span(Layer::DphaseSolve, || {
            dphase.solve(&DPhaseInputs {
                sensitivities: &sensitivities,
                excess: &excess,
                config: &balanced,
                trust_region: gamma,
            })
        })?;
        if step.predicted_gain <= 0.0 {
            break;
        }
        let budgets: Vec<f64> = (0..n).map(|i| delays[i] + step.delta[i]).collect();
        let solved = tr
            .span(Layer::Wphase, || {
                let bound =
                    |i: usize, x: &[f64]| model.required_size(VertexId::new(i), budgets[i], x);
                if opt.wphase_warm_start {
                    smp.solve_seeded(&sizes, bound)
                } else {
                    smp.solve(bound)
                }
            })
            .map_err(MftError::Smp)?;
        wphase.solves += 1;
        wphase.updates += solved.updates;
        if solved.seeded {
            wphase.seeded_solves += 1;
        } else if opt.wphase_warm_start {
            wphase.fallbacks += 1;
        }
        let cand_sizes = solved.x;
        let cand_cp = tr.span(Layer::Sta, || {
            changed.clear();
            changed.extend(
                (0..n)
                    .filter(|&i| sizes[i].to_bits() != cand_sizes[i].to_bits())
                    .map(VertexId::new),
            );
            cand_delays.copy_from_slice(&delays);
            model.delays_diff(
                &changed,
                &cand_sizes,
                &mut cand_delays,
                &mut affected,
                &mut scratch,
            );
            timing
                .rebase_scoped(dag, &cand_delays, &affected)
                .map(|()| timing.critical_path())
        })?;
        let cand_area = model.area(&cand_sizes);
        let accepted = cand_cp <= target + timing_tol && cand_area < area;
        if accepted {
            c.accepted += 1;
            let rel_gain = (area - cand_area) / area;
            sizes = cand_sizes;
            delays.copy_from_slice(&cand_delays);
            area = cand_area;
            gamma = (gamma * opt.trust_grow).min(opt.max_trust_region);
            if rel_gain < opt.area_tolerance {
                stagnant += 1;
                if stagnant >= opt.patience {
                    break;
                }
            } else {
                stagnant = 0;
            }
        } else {
            tr.span(Layer::Sta, || timing.rebase_scoped(dag, &delays, &affected))?;
            gamma *= opt.trust_shrink;
            if gamma < opt.min_trust_region {
                break;
            }
        }
    }
    let achieved_delay = tr.span(Layer::Sta, || {
        timing.rebase(dag, &delays).map(|()| timing.critical_path())
    })?;

    let dstats = dphase.stats().since(&dphase_before);
    let tstats = timing.stats().since(&timing_before);
    c.iterations += iterations as u64;
    c.dphase_solves += dstats.solves() as u64;
    c.dphase_warm += dstats.flow.warm_solves as u64;
    c.dphase_fallbacks += dstats.flow.warm_fallbacks as u64;
    c.dphase_pivots += dstats.flow.pivots as u64;
    c.wphase_solves += wphase.solves as u64;
    c.wphase_seeded += wphase.seeded_solves as u64;
    c.wphase_updates += wphase.updates as u64;
    c.sta_full_passes += tstats.full_passes as u64;
    c.sta_vertices_touched += tstats.vertices_touched as u64;
    Ok(Sized {
        sizes,
        area,
        achieved_delay,
        initial_area,
        iterations,
        tilos_bumps: 0,
        dphase: dstats,
        wphase,
    })
}
