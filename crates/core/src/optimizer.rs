//! The MINFLOTRANSIT optimizer: TILOS seed, then alternating D-phase /
//! W-phase relaxation until the area improvement is negligible (§2.4).

use crate::cancel::CancelToken;
use crate::dphase::{DPhaseInputs, DPhaseOptions, DPhaseSolver, DPhaseStats};
use crate::error::MftError;
use mft_circuit::{SizingDag, VertexId};
use mft_delay::{DelayModel, DiffScratch};
use mft_smp::SmpSolver;
use mft_sta::{BalanceStyle, BalancedConfig, IncrementalTiming, TimingStats};
use mft_tilos::{SensitivityStats, TilosConfig};
use std::time::Duration;

/// Configuration of the MINFLOTRANSIT loop.
#[derive(Debug, Clone, PartialEq)]
pub struct MinflotransitConfig {
    /// Initial trust-region fraction `γ`: each D-phase may move a vertex
    /// budget by at most `±γ·(delay_i − p_i)` (keeps the first-order area
    /// model of Eq. (7) valid — the paper's `MINΔD`/`MAXΔD`).
    pub trust_region: f64,
    /// Multiplier applied to `γ` after a rejected step.
    pub trust_shrink: f64,
    /// Multiplier applied to `γ` after a successful step.
    pub trust_grow: f64,
    /// Largest allowed `γ`.
    pub max_trust_region: f64,
    /// Stop when `γ` falls below this value.
    pub min_trust_region: f64,
    /// Hard iteration cap (the paper reports "a few tens", ≤ 100 on the
    /// steepest parts of the trade-off curve).
    pub max_iterations: usize,
    /// Stop when the relative area improvement stays below this for
    /// [`MinflotransitConfig::patience`] consecutive accepted iterations.
    pub area_tolerance: f64,
    /// Consecutive negligible improvements tolerated before stopping.
    pub patience: usize,
    /// Significant decimal digits kept by D-phase integerization.
    pub cost_digits: u32,
    /// Which balanced configuration seeds each D-phase.
    pub balance_style: BalanceStyle,
    /// The min-cost-flow backend that solves the D-phase dual. It has
    /// the one value [`mft_flow::FlowAlgorithm::NetworkSimplex`] and
    /// selects nothing; the field is kept for callers that name it.
    pub flow_algorithm: mft_flow::FlowAlgorithm,
    /// Read by nothing: the persistent D-phase solver warm-starts every
    /// solve after its first from the previous solve's spanning tree,
    /// and its answer does not depend on that basis (the flow
    /// certificate's potentials are a function of the LP alone; see
    /// [`DPhaseSolver`]). The field stays only because the end-to-end
    /// benchmark's replay (`e2ebench/`) still reads it; the next change
    /// to that benchmark (the ROADMAP's replay-mirror item) deletes it.
    pub dphase_warm_start: bool,
    /// Read by nothing: every W-phase solves its SMP from the lower
    /// bounds in one pass over the dependency blocks, and its answer
    /// depends on the budgets alone (see [`mft_smp::SmpSolver::solve`]).
    /// The field stays only because the end-to-end benchmark's replay
    /// (`e2ebench/`) still reads it, like
    /// [`MinflotransitConfig::dphase_warm_start`].
    pub wphase_warm_start: bool,
    /// Configuration of the initial TILOS sizing.
    pub tilos: TilosConfig,
    /// Relative timing tolerance when accepting a W-phase result.
    pub timing_eps: f64,
    /// Read by nothing: the timing engine takes its one churn rule,
    /// [`IncrementalTiming::prefers_full_pass`]. The field stays only
    /// because the end-to-end benchmark's replay (`e2ebench/`) still
    /// reads it, like [`MinflotransitConfig::dphase_warm_start`].
    pub full_pass_churn: f64,
}

impl Default for MinflotransitConfig {
    fn default() -> Self {
        MinflotransitConfig {
            trust_region: 0.25,
            trust_shrink: 0.5,
            trust_grow: 1.3,
            max_trust_region: 0.6,
            min_trust_region: 1e-3,
            max_iterations: 100,
            area_tolerance: 1e-4,
            patience: 3,
            cost_digits: 6,
            balance_style: BalanceStyle::Asap,
            flow_algorithm: mft_flow::FlowAlgorithm::default(),
            dphase_warm_start: false,
            wphase_warm_start: false,
            tilos: TilosConfig::default(),
            timing_eps: 1e-7,
            full_pass_churn: 0.5,
        }
    }
}

/// Statistics of one optimizer iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationStats {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Trust region `γ` used.
    pub trust_region: f64,
    /// The D-phase's predicted area recovery.
    pub predicted_gain: f64,
    /// Area after the W-phase (whether accepted or not).
    pub candidate_area: f64,
    /// Whether the step was accepted.
    pub accepted: bool,
    /// Wall-clock time of this iteration's D-phase (flow) solve.
    pub flow_time: Duration,
    /// Timing-engine work of this iteration's convergence check (the
    /// candidate critical-path evaluation through the persistent
    /// incremental engine).
    pub timing: TimingStats,
}

mft_sta::counter_group! {
    /// Cumulative W-phase (SMP) statistics of one optimizer run.
    pub struct WPhaseStats {
        /// W-phase solves performed (one per D/W iteration).
        pub solves: usize,
        /// Always 0: no W-phase is seeded. Kept for the wire's
        /// `smp_seeded_solves` key and the end-to-end benchmark's replay.
        pub seeded_solves: usize,
        /// Always 0, kept for the end-to-end benchmark's replay.
        pub fallbacks: usize,
        /// Total single-variable SMP updates across all solves (one per
        /// vertex per solve on an acyclic delay model).
        pub updates: usize,
    }
}

/// The result of a MINFLOTRANSIT run.
#[derive(Debug, Clone)]
pub struct SizingSolution {
    /// Final element sizes.
    pub sizes: Vec<f64>,
    /// Final weighted device area.
    pub area: f64,
    /// Critical-path delay of the final sizing (≤ target).
    pub achieved_delay: f64,
    /// Area of the initial (TILOS or caller-provided) sizing.
    pub initial_area: f64,
    /// Number of D/W iterations performed.
    pub iterations: usize,
    /// Bumps used by the TILOS seed (0 when a start was given).
    pub tilos_bumps: usize,
    /// Per-iteration statistics.
    pub history: Vec<IterationStats>,
    /// Cumulative D-phase solver statistics (cold/warm solve counts and
    /// flow time) from the persistent solver held across iterations.
    /// When the run shared a [`SolverContext`], only this run's
    /// increments are reported.
    pub dphase_stats: DPhaseStats,
    /// Cumulative W-phase (SMP) statistics of this run.
    pub wphase_stats: WPhaseStats,
    /// Cumulative timing-engine work of this run (full passes,
    /// incremental waves, arrival evaluations), including the TILOS
    /// seed's engine when the full pipeline ran it.
    pub timing_stats: TimingStats,
    /// Sensitivity-cache counters of the TILOS seed (all
    /// zeros when a start was given or the cache is off).
    pub sensitivity_stats: SensitivityStats,
}

impl SizingSolution {
    /// Area saving relative to the initial sizing, in percent.
    pub fn area_saving_percent(&self) -> f64 {
        if self.initial_area <= 0.0 {
            return 0.0;
        }
        100.0 * (self.initial_area - self.area) / self.initial_area
    }
}

/// The persistent solver state of one or more optimizer runs over a
/// fixed DAG and delay model: the D-phase solver (constraint graph and
/// flow-network topology, built once), the W-phase SMP solver (bounds
/// and dependency lists, built once), and the incremental timing engine
/// used by every convergence check (arrival state carried from check to
/// check, so each one costs only the delay churn since the last).
///
/// All three are target-independent — only costs, bounds, supplies and
/// delays change between iterations *and between delay targets* — so an
/// area–delay sweep can run every point through one context instead of
/// rebuilding the solvers per point (a [`crate::SizingSession`] sweep
/// does exactly that, one context per worker). Carrying the state
/// across points never changes a result: the timing engine cuts off
/// bitwise (every critical-path value is bit-identical to a cold
/// recomputation), and the D-phase solver's answer does not depend
/// on the basis its warm start begins from (see [`DPhaseSolver`]).
#[derive(Debug)]
pub struct SolverContext {
    dphase: DPhaseSolver,
    smp: SmpSolver,
    timing: IncrementalTiming,
    n: usize,
}

impl SolverContext {
    /// Builds the persistent solvers for `dag`/`model` under `config`.
    ///
    /// # Errors
    ///
    /// Propagates construction failures from the flow and SMP layers
    /// (cannot occur for a well-formed DAG and model).
    pub fn new<M: DelayModel>(
        config: &MinflotransitConfig,
        dag: &SizingDag,
        model: &M,
    ) -> Result<Self, MftError> {
        let n = dag.num_vertices();
        // Reusable W-phase solver: dependents(v) in the SMP sense are the
        // vertices whose *constraint* reads x_v — i.e. the delay-model
        // dependents (whose delay, hence required size, involves x_v).
        let (min_size, max_size) = model.size_bounds();
        let dependents: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                model
                    .dependents(VertexId::new(i))
                    .iter()
                    .map(|v| v.index())
                    .collect()
            })
            .collect();
        let smp = SmpSolver::try_new(vec![min_size; n], vec![max_size; n], dependents)
            .map_err(MftError::Smp)?;
        // Persistent D-phase solver: the constraint graph and the flow
        // network topology are built once and reused by every
        // iteration, which only rewrites costs/bounds/supplies.
        let dphase = DPhaseSolver::new(
            dag,
            DPhaseOptions {
                algorithm: config.flow_algorithm,
                digits: config.cost_digits,
                ..DPhaseOptions::default()
            },
        )?;
        // Seed the persistent timing engine with zero delays (no model
        // evaluation — the first run re-bases it onto its real delays
        // with one full pass anyway; later runs over the same context
        // get incremental diffs).
        let timing = IncrementalTiming::new(dag, &vec![0.0; n])?;
        Ok(SolverContext {
            dphase,
            smp,
            timing,
            n,
        })
    }
}

/// The MINFLOTRANSIT D/W relaxation (§2.4): from a sizing that meets
/// the target, alternate the D-phase (min-cost-flow budget
/// redistribution) and the W-phase (SMP minimum-area resize) until the
/// area improvement after a W-phase is negligible.
///
/// The full pipeline — TILOS seed first, then this loop — is a
/// [`SizingSession`](crate::SizingSession).
#[derive(Debug, Clone, Default)]
pub struct Minflotransit {
    config: MinflotransitConfig,
}

impl Minflotransit {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: MinflotransitConfig) -> Self {
        Minflotransit { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MinflotransitConfig {
        &self.config
    }

    /// Runs the iterative relaxation from a caller-provided sizing that
    /// already meets `target`.
    ///
    /// # Errors
    ///
    /// * [`MftError::ShapeMismatch`] / [`MftError::InfeasibleStart`] for a
    ///   bad starting point;
    /// * solver errors from the D- or W-phase.
    pub fn optimize_from<M: DelayModel>(
        &self,
        dag: &SizingDag,
        model: &M,
        target: f64,
        initial_sizes: Vec<f64>,
    ) -> Result<SizingSolution, MftError> {
        let mut context = SolverContext::new(&self.config, dag, model)?;
        self.optimize_from_with(&mut context, dag, model, target, initial_sizes, None)
    }

    /// Like [`Minflotransit::optimize_from`], but running through a
    /// caller-held [`SolverContext`] so the persistent D-phase and SMP
    /// solvers survive across runs. The context must have been built
    /// for the same `dag`/`model` and an equivalent configuration.
    ///
    /// With a `token`, the run polls it at the top of every D/W
    /// iteration and between flow pivots inside each D-phase solve (a
    /// probe is installed on the context's flow backend for the
    /// duration of the call and removed afterwards). A fired token
    /// surfaces as [`MftError::Cancelled`] carrying the number of
    /// completed iterations; the context stays usable.
    ///
    /// The returned [`SizingSolution::dphase_stats`] covers only this
    /// run's increments.
    ///
    /// # Errors
    ///
    /// As [`Minflotransit::optimize_from`]; additionally
    /// [`MftError::ShapeMismatch`] when the context was built for a
    /// different DAG size, and [`MftError::Cancelled`].
    pub fn optimize_from_with<M: DelayModel>(
        &self,
        context: &mut SolverContext,
        dag: &SizingDag,
        model: &M,
        target: f64,
        initial_sizes: Vec<f64>,
        token: Option<&CancelToken>,
    ) -> Result<SizingSolution, MftError> {
        let Some(token) = token else {
            return self.optimize_loop(context, dag, model, target, initial_sizes, None);
        };
        context.dphase.set_cancel_probe(Some(token.flow_probe()));
        let result = self.optimize_loop(context, dag, model, target, initial_sizes, Some(token));
        // Always unhook the probe — the token outlives this call only
        // in the caller's hands, and a stale fired probe would cancel
        // every later run through this context.
        context.dphase.set_cancel_probe(None);
        result
    }

    fn optimize_loop<M: DelayModel>(
        &self,
        context: &mut SolverContext,
        dag: &SizingDag,
        model: &M,
        target: f64,
        initial_sizes: Vec<f64>,
        token: Option<&CancelToken>,
    ) -> Result<SizingSolution, MftError> {
        let n = dag.num_vertices();
        if initial_sizes.len() != n {
            return Err(MftError::ShapeMismatch {
                expected: n,
                found: initial_sizes.len(),
            });
        }
        if context.n != n {
            return Err(MftError::ShapeMismatch {
                expected: n,
                found: context.n,
            });
        }
        let timing_tol = self.config.timing_eps * target.abs().max(1.0);
        let mut sizes = initial_sizes;
        let mut delays = model.delays(&sizes);
        let smp = &context.smp;
        let dphase_solver = &mut context.dphase;
        let dphase_baseline = dphase_solver.stats();
        // The persistent timing engine carries the arrival state of the
        // previous check (possibly from a previous run over the same
        // context); re-basing diffs against it. Every critical-path
        // value below is bit-identical to a cold `critical_path` call.
        let timing = &mut context.timing;
        let timing_baseline = timing.stats();
        let mut wphase_stats = WPhaseStats::default();

        timing.rebase(dag, &delays)?;
        let cp0 = timing.critical_path();
        if cp0 > target + timing_tol {
            return Err(MftError::InfeasibleStart {
                critical_path: cp0,
                target,
            });
        }
        let initial_area = model.area(&sizes);
        let mut area = initial_area;

        let mut gamma = self.config.trust_region;
        let mut history = Vec::new();
        let mut stagnant = 0usize;
        let mut iterations = 0usize;

        // Reused buffers for the sparse W-phase candidate evaluation:
        // the candidate's delays are a diff against the accepted ones
        // over the cone the changed sizes actually reach, and the
        // timing engine is re-based over that cone only.
        let mut cand_delays = delays.clone();
        let mut changed: Vec<VertexId> = Vec::new();
        let mut affected: Vec<VertexId> = Vec::new();
        let mut scratch = DiffScratch::new();

        while iterations < self.config.max_iterations {
            if token.is_some_and(CancelToken::is_cancelled) {
                return Err(MftError::Cancelled {
                    iterations,
                    tilos_bumps: 0,
                });
            }
            iterations += 1;
            // D-phase on the current (realized) delays.
            let excess: Vec<f64> = (0..n)
                .map(|i| (delays[i] - model.intrinsic(VertexId::new(i))).max(0.0))
                .collect();
            let sensitivities = model.area_sensitivities(&sizes);
            let balanced =
                BalancedConfig::balance(dag, &delays, target, self.config.balance_style)?;
            let dphase = match dphase_solver.solve(&DPhaseInputs {
                sensitivities: &sensitivities,
                excess: &excess,
                config: &balanced,
                trust_region: gamma,
            }) {
                Ok(dphase) => dphase,
                // A cancel inside the flow solve carries the iteration
                // count; the current iteration never completed.
                Err(MftError::Flow(mft_flow::FlowError::Cancelled)) => {
                    return Err(MftError::Cancelled {
                        iterations: iterations - 1,
                        tilos_bumps: 0,
                    })
                }
                Err(e) => return Err(e),
            };
            let flow_time = dphase_solver.stats().last_time;
            if dphase.predicted_gain <= 0.0 {
                // No improving budget redistribution exists within the
                // trust region — first-order stationarity.
                history.push(IterationStats {
                    iteration: iterations,
                    trust_region: gamma,
                    predicted_gain: dphase.predicted_gain,
                    candidate_area: area,
                    accepted: false,
                    flow_time,
                    timing: TimingStats::default(),
                });
                break;
            }
            // W-phase: minimum-area sizes meeting the new budgets.
            let budgets: Vec<f64> = (0..n).map(|i| delays[i] + dphase.delta[i]).collect();
            let wphase = smp
                .solve(|i, x| model.required_size(VertexId::new(i), budgets[i], x))
                .map_err(MftError::Smp)?;
            wphase_stats.solves += 1;
            wphase_stats.updates += wphase.updates;
            let cand_sizes = wphase.x;
            // Sparse candidate evaluation: only vertices whose size the
            // W-phase actually moved (bitwise) can change a delay. The
            // diff recomputes the affected delays with the exact
            // expression of a full `model.delays`, so `cand_delays` is
            // bit-identical to one, and the scoped rebase may skip the
            // full-vector scan because the engine holds the accepted
            // delays at the top of every iteration.
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
            let timing_before = timing.stats();
            timing.rebase_scoped(dag, &cand_delays, &affected)?;
            let cand_cp = timing.critical_path();
            let cand_area = model.area(&cand_sizes);
            let feasible = cand_cp <= target + timing_tol;
            let accepted = feasible && cand_area < area;
            history.push(IterationStats {
                iteration: iterations,
                trust_region: gamma,
                predicted_gain: dphase.predicted_gain,
                candidate_area: cand_area,
                accepted,
                flow_time,
                timing: timing.stats().since(&timing_before),
            });
            if accepted {
                let rel_gain = (area - cand_area) / area;
                sizes = cand_sizes;
                delays.copy_from_slice(&cand_delays);
                area = cand_area;
                gamma = (gamma * self.config.trust_grow).min(self.config.max_trust_region);
                if rel_gain < self.config.area_tolerance {
                    stagnant += 1;
                    if stagnant >= self.config.patience {
                        break;
                    }
                } else {
                    stagnant = 0;
                }
            } else {
                // Restore the engine to the accepted delays so the next
                // iteration's scoped rebase may diff against them; the
                // rejected candidate differed on the affected cone only.
                timing.rebase_scoped(dag, &delays, &affected)?;
                gamma *= self.config.trust_shrink;
                if gamma < self.config.min_trust_region {
                    break;
                }
            }
        }

        // The reject branch restores the engine eagerly, so this is a
        // no-op scan kept as a safety net for future exit paths.
        timing.rebase(dag, &delays)?;
        let achieved_delay = timing.critical_path();
        Ok(SizingSolution {
            sizes,
            area,
            achieved_delay,
            initial_area,
            iterations,
            tilos_bumps: 0,
            history,
            dphase_stats: dphase_solver.stats().since(&dphase_baseline),
            wphase_stats,
            timing_stats: timing.stats().since(&timing_baseline),
            sensitivity_stats: SensitivityStats::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::SizingProblem;
    use crate::session::SessionConfig;
    use mft_circuit::{GateKind, Netlist, NetlistBuilder, SizingMode};
    use mft_delay::Technology;

    fn setup(netlist: &Netlist) -> SizingProblem {
        SizingProblem::prepare(netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap()
    }

    /// The paper's Figure 6 motif: driver A feeds parallel gates B and C.
    /// TILOS keeps bumping B and C; the flow view sizes A instead.
    fn fig6() -> Netlist {
        let mut b = NetlistBuilder::new("fig6");
        let i0 = b.input("i0");
        let i1 = b.input("i1");
        let a = b.inv(i0).unwrap();
        let x = b.gate(GateKind::Nand(2), &[a, i1]).unwrap();
        let y = b.gate(GateKind::Nand(2), &[a, i1]).unwrap();
        let xo = b.inv(x).unwrap();
        let yo = b.inv(y).unwrap();
        b.output(xo, "x");
        b.output(yo, "y");
        b.finish().unwrap()
    }

    #[test]
    fn loose_target_returns_minimum_sizes() {
        let problem = setup(&fig6());
        let sol = problem
            .session(SessionConfig::warm())
            .size_to(problem.dmin() * 2.0)
            .unwrap();
        assert_eq!(sol.iterations, 0);
        assert_eq!(sol.sizes, vec![1.0; problem.dag().num_vertices()]);
        assert_eq!(sol.area_saving_percent(), 0.0);
    }

    #[test]
    fn improves_on_the_tilos_seed_and_keeps_timing() {
        let problem = setup(&fig6());
        let target = 0.6 * problem.dmin();
        let sol = problem
            .session(SessionConfig::warm())
            .size_to(target)
            .unwrap();
        assert!(sol.achieved_delay <= target * (1.0 + 1e-6));
        assert!(
            sol.area <= sol.initial_area + 1e-9,
            "area {} vs initial {}",
            sol.area,
            sol.initial_area
        );
        assert!(sol.tilos_bumps > 0);
    }

    #[test]
    fn infeasible_start_is_rejected() {
        let problem = setup(&fig6());
        let (dag, model) = (problem.dag(), problem.model());
        let err = Minflotransit::default()
            .optimize_from(
                dag,
                model,
                0.5 * problem.dmin(),
                vec![1.0; dag.num_vertices()],
            )
            .unwrap_err();
        assert!(matches!(err, MftError::InfeasibleStart { .. }));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let problem = setup(&fig6());
        let err = Minflotransit::default()
            .optimize_from(problem.dag(), problem.model(), 100.0, vec![1.0])
            .unwrap_err();
        assert!(matches!(err, MftError::ShapeMismatch { .. }));
    }

    #[test]
    fn every_iteration_keeps_timing_feasible() {
        // Invariant check across a deeper circuit: run the optimizer and
        // confirm the final solution meets timing with margin tolerance,
        // and the history is monotone in accepted-area.
        let mut b = NetlistBuilder::new("tree");
        let leaves: Vec<_> = (0..8).map(|i| b.input(format!("i{i}"))).collect();
        let mut layer = leaves;
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    let g = b.nand2(pair[0], pair[1]).unwrap();
                    next.push(b.inv(g).unwrap());
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        b.output(layer[0], "root");
        let problem = setup(&b.finish().unwrap());
        let target = 0.72 * problem.dmin();
        let sol = problem
            .session(SessionConfig::warm())
            .size_to(target)
            .unwrap();
        assert!(sol.achieved_delay <= target * (1.0 + 1e-6));
        let mut last = sol.initial_area;
        for step in &sol.history {
            if step.accepted {
                assert!(step.candidate_area <= last + 1e-9);
                last = step.candidate_area;
            }
        }
        assert!(sol.iterations <= Minflotransit::default().config().max_iterations);
    }
}
