//! The cold sweep oracle shared by the sweep goldens.

use minflotransit::core::{
    CurvePoint, MftError, MinflotransitConfig, SessionConfig, SizingProblem, SweepOutcome,
};
use minflotransit::tilos::TilosError;

/// The area–delay curve sized one spec at a time through cold
/// requests — `tilos_to` for the seed, `size_to` for the refinement —
/// with the wall-clock fields zeroed. Every session sweep under
/// `config` must reproduce its sizing fields bit for bit. Specs must
/// lie below 1: at or above `D_min`, `size_to` returns the minimum
/// sizes while a sweep point still runs the D/W loop.
pub fn per_point_curve(
    problem: &SizingProblem,
    config: &MinflotransitConfig,
    specs: &[f64],
) -> Vec<SweepOutcome> {
    let (dmin, min_area) = (problem.dmin(), problem.min_area());
    let mut cold = problem.session(SessionConfig::cold_with(config.clone()));
    specs
        .iter()
        .map(|&spec| {
            let target = spec * dmin;
            let tilos = match cold.tilos_to(target) {
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
            let mft = cold.size_to(target).unwrap();
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
