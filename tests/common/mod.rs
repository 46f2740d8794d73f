//! The fresh-session oracle shared by the session, sweep, power and
//! counter tests.

use minflotransit::core::{
    CurvePoint, MftError, SessionConfig, SizingProblem, SizingSession, SweepOutcome,
};
use minflotransit::tilos::TilosError;

/// Serves one request on its own new session of `problem` under
/// `config`: the oracle for "an answer does not depend on the requests
/// before it". Every request a test checks this way gets a session of
/// its own.
pub fn fresh<T>(
    problem: &SizingProblem,
    config: &SessionConfig,
    request: impl FnOnce(&mut SizingSession) -> T,
) -> T {
    request(&mut problem.session(config.clone()))
}

/// The area–delay curve sized one spec at a time, each request on its
/// own new session — `tilos_to` for the seed, `size_to` for the
/// refinement — with the wall-clock fields zeroed. Every session sweep
/// under `config` must reproduce its sizing fields bit for bit. Specs
/// must lie below 1: at or above `D_min`, `size_to` returns the minimum
/// sizes while a sweep point still runs the D/W loop.
#[allow(dead_code)] // not every test binary that shares `fresh` sweeps
pub fn per_point_curve(
    problem: &SizingProblem,
    config: &SessionConfig,
    specs: &[f64],
) -> Vec<SweepOutcome> {
    let (dmin, min_area) = (problem.dmin(), problem.min_area());
    specs
        .iter()
        .map(|&spec| {
            let target = spec * dmin;
            let tilos = match fresh(problem, config, |s| s.tilos_to(target)) {
                Ok(tilos) => tilos,
                Err(MftError::InitialSizing(
                    TilosError::Infeasible { best_delay, .. }
                    | TilosError::BumpBudgetExhausted { best_delay, .. },
                )) => {
                    return SweepOutcome::Unreachable {
                        spec,
                        best_ratio: best_delay / dmin,
                    }
                }
                Err(e) => panic!("spec {spec}: {e}"),
            };
            let mft = fresh(problem, config, |s| s.size_to(target)).unwrap();
            SweepOutcome::Point(CurvePoint {
                spec,
                target,
                tilos_area_ratio: tilos.area / min_area,
                mft_area_ratio: mft.area / min_area,
                mft_power: problem.power_of(&mft.sizes),
                saving_percent: 100.0 * (tilos.area - mft.area) / tilos.area,
                tilos_seconds: 0.0,
                mft_extra_seconds: 0.0,
                iterations: mft.iterations,
                dphase: mft.dphase_stats,
                wphase: mft.wphase_stats,
                timing: mft.timing_stats,
                sensitivity: mft.sensitivity_stats,
            })
        })
        .collect()
}
