//! The persistent parallel sweep engine behind the area–delay curve
//! (the paper's Figure 7 workload).
//!
//! A naive sweep re-runs the whole pipeline per delay target, although
//! almost everything is target-independent. [`SweepEngine`] threads
//! state through the sweep at three levels:
//!
//! 1. **TILOS trajectory reuse** ([`SweepWarmStart::resume_tilos`]) —
//!    TILOS's greedy bump choice never reads the target, so the bump
//!    sequence is one target-independent trajectory and each sweep
//!    point is a snapshot of it ([`mft_tilos::TilosTrajectory`]).
//!    Processing targets loosest-first, the whole sweep pays the bump
//!    cost of its *tightest* spec once instead of once per point. This
//!    reuse is **bit-exact**: every snapshot equals the cold
//!    per-target run.
//! 2. **Solver reuse** ([`SweepWarmStart::reuse_solvers`]) — one
//!    [`crate::SolverContext`] per worker holds the D-phase constraint graph /
//!    CSR flow topology and the W-phase SMP solver across *all* points
//!    (they depend only on the DAG); each solve rewrites
//!    bounds/costs/supplies in place. Cold persistent solves are
//!    bit-identical to per-point construction.
//! 3. **Warm-started inner solves** — the optimizer-level levers
//!    [`MinflotransitConfig::dphase_warm_start`] (simplex tree reuse
//!    across D-phase iterations) and
//!    [`MinflotransitConfig::wphase_warm_start`] (SMP fixpoint seeded
//!    from the accepted sizes). These reach the same optima but may
//!    differ from the cold path in the last float bits (degenerate LP
//!    vertices, fixpoint tolerance) — see the field docs.
//!
//! By default each point's warm state is dropped at the point boundary
//! ([`SweepWarmStart::cross_target_state`] off), making every point a
//! pure function of its own `(target, TILOS seed)` — so the sizing
//! *results* (area ratios, savings, iteration counts, reachability) are
//! identical for any [`SweepOptions::jobs`] count and any spec order.
//! The *diagnostic* fields of a [`CurvePoint`] — wall-clock seconds and
//! the solver/timing work counters — describe the work this particular
//! run performed and therefore legitimately depend on the partitioning
//! (e.g. a worker's first point absorbs the trajectory replay that a
//! single-threaded sweep charged to earlier points).
//!
//! With [`SweepOptions::jobs`] > 1, the (sorted) spec list is split
//! into contiguous chunks processed by `std::thread::scope` workers,
//! each owning its private trajectory and solver context; outcomes are
//! returned in the caller's original spec order.
//!
//! Sweeps are also served by the session/server stack: a
//! [`crate::SizingSession`] answers `sweep` requests over its *shared*
//! warm state (one prepared problem reused across every request), and
//! the multi-circuit [`crate::CircuitServer`] runs one such session
//! per loaded circuit — concurrent sweeps of different circuits never
//! rebuild a problem or contend on state. All three front ends
//! (engine, session, server) run the same per-point request runner,
//! so their outcomes are bit-identical.
//!
//! # Examples
//!
//! ```
//! use mft_circuit::{parse_bench, SizingMode, C17_BENCH};
//! use mft_core::{SizingProblem, SweepEngine, SweepOptions};
//! use mft_delay::Technology;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let netlist = parse_bench("c17", C17_BENCH)?;
//! let problem = SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate)?;
//! let engine = SweepEngine::new(&problem, SweepOptions::warm().with_jobs(2));
//! let outcomes = engine.run(&[0.9, 0.8, 0.7])?;
//! assert_eq!(outcomes.len(), 3);
//! # Ok(())
//! # }
//! ```

use crate::curve::SweepOutcome;
use crate::error::MftError;
use crate::optimizer::MinflotransitConfig;
use crate::pipeline::SizingProblem;
use crate::session::{self, SessionConfig};

/// Which cross-target reuse levers a sweep runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepWarmStart {
    /// Reuse the TILOS bump trajectory across targets (bit-exact; see
    /// the module docs).
    pub resume_tilos: bool,
    /// Hold one [`crate::SolverContext`] per worker across all points instead
    /// of rebuilding the D-phase network and SMP solver per point
    /// (bit-exact for cold inner solves).
    pub reuse_solvers: bool,
    /// Let D-phase/W-phase warm state survive *across* point
    /// boundaries (the previous target's dual potentials, retained
    /// flow and spanning tree seed the next target's first solves).
    /// Off by default: the first D-phase of a point is one solve out
    /// of typically tens, so the saving is marginal, while dropping the
    /// state keeps every point independent of sweep order and worker
    /// partitioning. Requires [`SweepWarmStart::reuse_solvers`].
    pub cross_target_state: bool,
}

impl SweepWarmStart {
    /// Every lever off: the engine replays the historical per-point
    /// cold path exactly.
    pub fn cold() -> Self {
        SweepWarmStart {
            resume_tilos: false,
            reuse_solvers: false,
            cross_target_state: false,
        }
    }

    /// The standard warm configuration: trajectory + solver reuse,
    /// hermetic point boundaries.
    pub fn full() -> Self {
        SweepWarmStart {
            resume_tilos: true,
            reuse_solvers: true,
            cross_target_state: false,
        }
    }
}

/// Configuration of a [`SweepEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOptions {
    /// Per-point optimizer configuration (including the inner-solve
    /// warm-start levers `dphase_warm_start` / `wphase_warm_start`).
    pub config: MinflotransitConfig,
    /// Cross-target reuse levers.
    pub warm: SweepWarmStart,
    /// Worker threads to partition the sweep across (`0` and `1` both
    /// mean single-threaded). Workers never outnumber specs.
    pub jobs: usize,
}

impl SweepOptions {
    /// A fully cold sweep with the given optimizer configuration — the
    /// historical [`crate::area_delay_curve`] behavior.
    pub fn cold_with(config: MinflotransitConfig) -> Self {
        SweepOptions {
            config,
            warm: SweepWarmStart::cold(),
            jobs: 1,
        }
    }

    /// A fully warm single-threaded sweep: all three reuse levers on
    /// ([`SweepWarmStart::full`] plus the optimizer's D-phase and
    /// W-phase warm starts). The network simplex's spanning-tree warm
    /// start is what amortizes the "tens of nearly identical solves"
    /// iteration pattern (see
    /// `crates/bench/benches/area_delay_sweep.rs`).
    pub fn warm() -> Self {
        Self::warm_with(MinflotransitConfig::default())
    }

    /// [`SweepOptions::warm`] on top of a custom configuration (its
    /// `dphase_warm_start`/`wphase_warm_start` are forced on).
    pub fn warm_with(mut config: MinflotransitConfig) -> Self {
        config.dphase_warm_start = true;
        config.wphase_warm_start = true;
        SweepOptions {
            config,
            warm: SweepWarmStart::full(),
            jobs: 1,
        }
    }

    /// Sets the worker count. `0` is documented-clamped to `1` at run
    /// time (single-threaded), never a panic or hang.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }
}

impl From<SweepOptions> for SessionConfig {
    /// The sweep options are a subset of the session configuration —
    /// the sweep engine itself runs on the session request runner.
    fn from(options: SweepOptions) -> Self {
        SessionConfig {
            optimizer: options.config,
            warm: options.warm,
            jobs: options.jobs,
        }
    }
}

impl From<SessionConfig> for SweepOptions {
    fn from(config: SessionConfig) -> Self {
        SweepOptions {
            config: config.optimizer,
            warm: config.warm,
            jobs: config.jobs,
        }
    }
}

impl Default for SweepOptions {
    /// Defaults to the fully warm single-threaded sweep.
    fn default() -> Self {
        Self::warm()
    }
}

/// The persistent parallel area–delay sweep engine (see the module
/// docs).
#[derive(Debug, Clone)]
pub struct SweepEngine<'p> {
    problem: &'p SizingProblem,
    options: SweepOptions,
}

impl<'p> SweepEngine<'p> {
    /// Creates an engine over a prepared problem.
    pub fn new(problem: &'p SizingProblem, options: SweepOptions) -> Self {
        SweepEngine { problem, options }
    }

    /// The options in use.
    pub fn options(&self) -> &SweepOptions {
        &self.options
    }

    /// Sweeps the area–delay curve over the given `T/D_min`
    /// specifications, returning one outcome per spec **in the input
    /// order** (internally the specs are processed loosest-first so the
    /// TILOS trajectory can be resumed).
    ///
    /// # Errors
    ///
    /// Returns the first *unexpected* error encountered (anything but a
    /// TILOS infeasibility, which is reported per-point as
    /// [`SweepOutcome::Unreachable`]).
    pub fn run(&self, specs: &[f64]) -> Result<Vec<SweepOutcome>, MftError> {
        self.run_cancellable(specs, None)
    }

    /// Like [`SweepEngine::run`], but polling `token` between sweep
    /// points and inside each point's sizing loops (every worker
    /// observes the same token); a fired token aborts the sweep with
    /// [`MftError::Cancelled`].
    ///
    /// # Errors
    ///
    /// As [`SweepEngine::run`], plus [`MftError::Cancelled`].
    pub fn run_cancel(
        &self,
        specs: &[f64],
        token: &crate::CancelToken,
    ) -> Result<Vec<SweepOutcome>, MftError> {
        self.run_cancellable(specs, Some(token))
    }

    fn run_cancellable(
        &self,
        specs: &[f64],
        token: Option<&crate::CancelToken>,
    ) -> Result<Vec<SweepOutcome>, MftError> {
        if specs.is_empty() {
            return Ok(Vec::new());
        }
        // Loosest-first processing order (descending spec => descending
        // absolute target, since D_min > 0); ties keep input order.
        let order = session::loosest_first_order(specs);
        // `jobs: 0` is documented-clamped to single-threaded; workers
        // never outnumber specs. Each worker's trajectory walks a
        // disjoint, ascending-tightness chunk of the sorted order,
        // through the one shared partitioned-sweep scaffold in the
        // session module.
        let jobs = self.options.jobs.max(1).min(specs.len());
        let config = SessionConfig::from(self.options.clone());
        let (outcomes, _worker_counters) =
            session::run_partitioned_sweep(self.problem, &config, specs, &order, jobs, token)?;
        Ok(session::collect_in_input_order(outcomes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::area_delay_curve;
    use crate::optimizer::Minflotransit;
    use mft_circuit::{parse_bench, SizingMode, C17_BENCH};
    use mft_delay::Technology;

    fn c17_problem() -> SizingProblem {
        let netlist = parse_bench("c17", C17_BENCH).unwrap();
        SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap()
    }

    /// The cold engine reproduces the legacy per-point path bit-for-bit
    /// (area_delay_curve is itself implemented on the cold engine, so
    /// compare against a hand-rolled per-point loop).
    #[test]
    fn cold_engine_matches_manual_per_point_loop() {
        let problem = c17_problem();
        let config = MinflotransitConfig::default();
        let specs = [0.9, 0.7, 0.5];
        let engine = SweepEngine::new(&problem, SweepOptions::cold_with(config.clone()));
        let got = engine.run(&specs).unwrap();
        for (&spec, outcome) in specs.iter().zip(got.iter()) {
            let target = spec * problem.dmin();
            let tilos = problem.tilos(target).unwrap();
            let mft = Minflotransit::new(config.clone())
                .optimize_from(problem.dag(), problem.model(), target, tilos.sizes.clone())
                .unwrap();
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
    fn outcomes_preserve_input_order() {
        let problem = c17_problem();
        let engine = SweepEngine::new(&problem, SweepOptions::warm());
        let shuffled = [0.6, 0.9, 0.5, 0.8];
        let got = engine.run(&shuffled).unwrap();
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
    fn warm_engine_matches_cold_curve() {
        let problem = c17_problem();
        let specs = [0.95, 0.85, 0.75, 0.65, 0.55];
        let cold = area_delay_curve(&problem, &specs, &MinflotransitConfig::default()).unwrap();
        let warm = SweepEngine::new(&problem, SweepOptions::warm())
            .run(&specs)
            .unwrap();
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
    fn jobs_do_not_change_results() {
        let problem = c17_problem();
        let specs = [0.9, 0.8, 0.7, 0.6, 0.5, 0.45];
        let single = SweepEngine::new(&problem, SweepOptions::warm())
            .run(&specs)
            .unwrap();
        for jobs in [2, 4] {
            let multi = SweepEngine::new(&problem, SweepOptions::warm().with_jobs(jobs))
                .run(&specs)
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

    /// `jobs: 0` is a documented clamp to single-threaded operation —
    /// same results, no panic, no hang (previously a latent
    /// `clamp(1, 0)` panic path).
    #[test]
    fn jobs_zero_is_clamped_to_one() {
        let problem = c17_problem();
        let specs = [0.9, 0.7, 0.5];
        let single = SweepEngine::new(&problem, SweepOptions::warm().with_jobs(1))
            .run(&specs)
            .unwrap();
        let zero = SweepEngine::new(&problem, SweepOptions::warm().with_jobs(0))
            .run(&specs)
            .unwrap();
        for (a, b) in single.iter().zip(zero.iter()) {
            match (a, b) {
                (SweepOutcome::Point(a), SweepOutcome::Point(b)) => {
                    assert_eq!(a.spec, b.spec);
                    assert_eq!(a.mft_area_ratio.to_bits(), b.mft_area_ratio.to_bits());
                }
                (a, b) => assert_eq!(a, b),
            }
        }
        // Also fine on an empty spec list.
        assert!(
            SweepEngine::new(&problem, SweepOptions::warm().with_jobs(0))
                .run(&[])
                .unwrap()
                .is_empty()
        );
    }

    /// Unreachable specs latch correctly through the shared trajectory.
    #[test]
    fn unreachable_specs_survive_trajectory_reuse() {
        let problem = c17_problem();
        let specs = [0.9, 0.05, 0.04];
        let got = SweepEngine::new(&problem, SweepOptions::warm())
            .run(&specs)
            .unwrap();
        assert!(matches!(got[0], SweepOutcome::Point(_)));
        let cold = area_delay_curve(&problem, &specs, &MinflotransitConfig::default()).unwrap();
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
}
