//! Golden pins for the power objective and the technology-library
//! plumbing behind it:
//!
//! * preparing at the library's default corner is **bit-identical** on
//!   the default area path to the historical plain-`Technology`
//!   preparation — the corner adds power bookkeeping, never arithmetic;
//! * a `size_power` request served through a session (cold, warm or
//!   shared-exact preset, including warm-state reuse across targets) is
//!   bit-identical to the same request on a fresh cold session under
//!   the same optimizer configuration;
//! * at an equal delay target the power objective strictly beats the
//!   area objective on total power, and the area objective strictly
//!   beats the power objective on area — both delay-feasible, so the
//!   two objectives genuinely trade off rather than aliasing each
//!   other.

use minflotransit::circuit::{parse_bench, SizingMode, C17_BENCH};
use minflotransit::core::{PowerSolution, SessionConfig, SizingProblem};
use minflotransit::delay::Technology;
use minflotransit::gen::Benchmark;
use minflotransit::tech::TechLibrary;

fn c17_problem() -> SizingProblem {
    let netlist = parse_bench("c17", C17_BENCH).unwrap();
    SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap()
}

fn c432_problem() -> SizingProblem {
    let netlist = Benchmark::C432.generate().unwrap();
    SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap()
}

fn assert_power_solutions_bit_identical(a: &PowerSolution, b: &PowerSolution, what: &str) {
    assert_eq!(
        a.solution.area.to_bits(),
        b.solution.area.to_bits(),
        "{what}: objective value"
    );
    assert_eq!(
        a.solution.achieved_delay.to_bits(),
        b.solution.achieved_delay.to_bits(),
        "{what}: achieved_delay"
    );
    assert_eq!(
        a.solution.iterations, b.solution.iterations,
        "{what}: iterations"
    );
    assert_eq!(
        a.solution.tilos_bumps, b.solution.tilos_bumps,
        "{what}: tilos_bumps"
    );
    assert_eq!(
        a.power.total.to_bits(),
        b.power.total.to_bits(),
        "{what}: power"
    );
    assert_eq!(
        a.power.leakage.to_bits(),
        b.power.leakage.to_bits(),
        "{what}: leakage"
    );
    assert_eq!(
        a.power.switching.to_bits(),
        b.power.switching.to_bits(),
        "{what}: switching"
    );
    assert_eq!(a.area.to_bits(), b.area.to_bits(), "{what}: area");
    for (i, (x, y)) in a
        .solution
        .sizes
        .iter()
        .zip(b.solution.sizes.iter())
        .enumerate()
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: size[{i}]");
    }
}

/// The default library corner (130nm, svt) prepares a problem whose
/// default-objective solutions are bit-identical to the historical
/// plain-`Technology` path — the corner layer cannot perturb the
/// pre-PR goldens.
#[test]
fn default_corner_matches_plain_technology_bitwise() {
    let netlist = parse_bench("c17", C17_BENCH).unwrap();
    let plain =
        SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap();
    let corner = TechLibrary::standard().resolve(None, None).unwrap();
    let cornered = SizingProblem::prepare_corner(&netlist, &corner, SizingMode::Gate).unwrap();
    assert_eq!(plain.dmin().to_bits(), cornered.dmin().to_bits());
    assert_eq!(plain.min_area().to_bits(), cornered.min_area().to_bits());
    let target = 0.7 * plain.dmin();
    let a = plain
        .session(SessionConfig::cold())
        .size_to(target)
        .unwrap();
    let b = cornered
        .session(SessionConfig::cold())
        .size_to(target)
        .unwrap();
    assert_eq!(a.area.to_bits(), b.area.to_bits());
    assert_eq!(a.achieved_delay.to_bits(), b.achieved_delay.to_bits());
    for (x, y) in a.sizes.iter().zip(b.sizes.iter()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

/// `size_to_power` under every session preset — including a second
/// tighter target resuming the power-objective warm state — matches
/// a cold session's `size_to_power` bitwise on c17 and c432-like.
#[test]
fn power_objective_is_preset_invariant_and_matches_one_shot() {
    for (what, problem) in [("c17", c17_problem()), ("c432", c432_problem())] {
        let dmin = problem.dmin();
        let specs = [0.75, 0.65];
        for (preset, config) in [
            ("cold", SessionConfig::cold()),
            ("warm", SessionConfig::warm()),
            ("shared_exact", SessionConfig::shared_exact()),
        ] {
            // Cold twin under the same optimizer configuration — warm
            // state may only change wall-clock, never values.
            let mut cold = problem.session(SessionConfig::cold_with(config.optimizer.clone()));
            let one_shot: Vec<PowerSolution> = specs
                .iter()
                .map(|s| cold.size_to_power(s * dmin).unwrap())
                .collect();
            let mut session = problem.session(config);
            for (k, &spec) in specs.iter().enumerate() {
                let served = session.size_to_power(spec * dmin).unwrap();
                assert_power_solutions_bit_identical(
                    &served,
                    &one_shot[k],
                    &format!("{what}/{preset} spec {spec}"),
                );
            }
            assert_eq!(session.stats().size_power_requests, specs.len());
        }
    }
}

/// Power-objective warm state is separate from area-objective warm
/// state: interleaving the two objectives on one session perturbs
/// neither — every served value still matches its cold twin.
#[test]
fn objectives_do_not_share_warm_state() {
    let problem = c17_problem();
    let dmin = problem.dmin();
    let mut session = problem.session(SessionConfig::warm());
    let area_a = session.size_to(0.8 * dmin).unwrap();
    let power_a = session.size_to_power(0.8 * dmin).unwrap();
    let area_b = session.size_to(0.65 * dmin).unwrap();
    let power_b = session.size_to_power(0.65 * dmin).unwrap();
    let mut cold = problem.session(SessionConfig::cold());
    for (served, spec) in [(&area_a, 0.8), (&area_b, 0.65)] {
        let one_shot = cold.size_to(spec * dmin).unwrap();
        assert_eq!(
            served.area.to_bits(),
            one_shot.area.to_bits(),
            "area {spec}"
        );
        for (x, y) in served.sizes.iter().zip(one_shot.sizes.iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "area {spec}");
        }
    }
    for (served, spec) in [(&power_a, 0.8), (&power_b, 0.65)] {
        let one_shot = cold.size_to_power(spec * dmin).unwrap();
        assert_power_solutions_bit_identical(served, &one_shot, &format!("power {spec}"));
    }
}

/// The acceptance inequality: at one delay target on c432-like the
/// power objective yields strictly lower total power, the area
/// objective strictly lower area, and both meet timing — the
/// objectives are distinct, not rescalings of each other.
#[test]
fn power_objective_trades_area_for_power_on_c432() {
    let problem = c432_problem();
    let target = 0.6 * problem.dmin();
    let mut session = problem.session(SessionConfig::cold());
    let area_sol = session.size_to(target).unwrap();
    let power_sol = session.size_to_power(target).unwrap();
    let tol = target * (1.0 + 1e-6);
    assert!(area_sol.achieved_delay <= tol, "area solution meets timing");
    assert!(
        power_sol.solution.achieved_delay <= tol,
        "power solution meets timing"
    );
    let area_sol_power = problem.power_of(&area_sol.sizes);
    assert!(
        power_sol.power.total < area_sol_power,
        "power objective must win on power: {} vs {}",
        power_sol.power.total,
        area_sol_power
    );
    assert!(
        area_sol.area < power_sol.area,
        "area objective must win on area: {} vs {}",
        area_sol.area,
        power_sol.area
    );
}
