//! End-to-end pipeline invariants across the benchmark suite:
//! every MINFLOTRANSIT solution meets timing, never exceeds the TILOS
//! seed's area, and degenerates to the minimum-sized circuit for loose
//! targets.

use minflotransit::circuit::SizingMode;
use minflotransit::core::{Minflotransit, SessionConfig, SizingProblem};
use minflotransit::delay::Technology;
use minflotransit::gen::Benchmark;
use minflotransit::sta::critical_path;

fn prepare(bench: Benchmark) -> SizingProblem {
    let netlist = bench.generate().expect("generator is valid");
    SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate)
        .expect("pipeline builds")
}

#[test]
fn small_suite_meets_timing_and_beats_tilos() {
    for bench in [Benchmark::C432, Benchmark::C499, Benchmark::C880] {
        let problem = prepare(bench);
        let mut session = problem.session(SessionConfig::cold());
        let target = bench.paper_spec() * problem.dmin();
        let tilos = session.tilos_to(target).expect("paper spec reachable");
        let mft = session.size_to(target).expect("optimizer runs");
        assert!(
            mft.achieved_delay <= target * (1.0 + 1e-6),
            "{}: timing violated",
            bench.name()
        );
        assert!(
            mft.area <= tilos.area + 1e-9,
            "{}: MFT area {} above TILOS {}",
            bench.name(),
            mft.area,
            tilos.area
        );
        // The paper's claim: few tens of iterations suffice.
        assert!(
            mft.iterations <= 100,
            "{}: too many iterations",
            bench.name()
        );
    }
}

#[test]
fn loose_target_is_globally_optimal() {
    let problem = prepare(Benchmark::C432);
    let mut session = problem.session(SessionConfig::cold());
    let target = 2.0 * problem.dmin();
    let sol = session.size_to(target).expect("optimizer runs");
    // The minimum-sized circuit is feasible, hence optimal.
    assert_eq!(sol.area, problem.min_area());
    assert_eq!(sol.iterations, 0);
}

#[test]
fn final_sizes_are_within_bounds() {
    let problem = prepare(Benchmark::C880);
    let mut session = problem.session(SessionConfig::cold());
    let target = 0.5 * problem.dmin();
    let sol = session.size_to(target).expect("optimizer runs");
    let (lo, hi) = {
        use minflotransit::delay::DelayModel;
        problem.model().size_bounds()
    };
    for (i, &x) in sol.sizes.iter().enumerate() {
        assert!(x >= lo - 1e-12 && x <= hi + 1e-12, "size[{i}] = {x}");
    }
}

#[test]
fn solution_delay_matches_recomputation() {
    let problem = prepare(Benchmark::C499);
    let mut session = problem.session(SessionConfig::cold());
    let target = 0.7 * problem.dmin();
    let sol = session.size_to(target).expect("optimizer runs");
    use minflotransit::delay::DelayModel;
    let delays = problem.model().delays(&sol.sizes);
    let cp = critical_path(problem.dag(), &delays).expect("shapes match");
    assert!((cp - sol.achieved_delay).abs() < 1e-9);
}

#[test]
fn tighter_specs_cost_more_area_for_both_sizers() {
    let problem = prepare(Benchmark::C432);
    let mut session = problem.session(SessionConfig::cold());
    let dmin = problem.dmin();
    let mut last_tilos = 0.0;
    let mut last_mft = 0.0;
    for spec in [0.9, 0.7, 0.5] {
        let target = spec * dmin;
        let tilos = session.tilos_to(target).expect("reachable");
        let mft = session.size_to(target).expect("runs");
        assert!(tilos.area + 1e-9 >= last_tilos);
        assert!(mft.area + 1e-9 >= last_mft * 0.999); // MFT is near-monotone
        last_tilos = tilos.area;
        last_mft = mft.area;
    }
}

#[test]
fn history_is_consistent() {
    let problem = prepare(Benchmark::C880);
    let mut session = problem.session(SessionConfig::cold());
    let target = 0.5 * problem.dmin();
    let sol = session.size_to(target).expect("runs");
    // Accepted areas are non-increasing; the final area equals the last
    // accepted candidate (or the initial area if nothing was accepted).
    let mut area = sol.initial_area;
    for step in &sol.history {
        if step.accepted {
            assert!(step.candidate_area <= area + 1e-9);
            area = step.candidate_area;
        }
        assert!(step.predicted_gain >= -1e-12);
    }
    assert!((area - sol.area).abs() < 1e-9);
}

#[test]
fn optimize_from_custom_start() {
    let problem = prepare(Benchmark::C432);
    let dmin = problem.dmin();
    let target = 0.6 * dmin;
    // Start from a deliberately oversized circuit: everything at 8×.
    let n = problem.dag().num_vertices();
    let start = vec![8.0; n];
    let sol = Minflotransit::default()
        .optimize_from(problem.dag(), problem.model(), target, start.clone())
        .expect("feasible start");
    use minflotransit::delay::DelayModel;
    let start_area = problem.model().area(&start);
    assert!(sol.area < start_area, "optimizer should recover oversizing");
    assert!(sol.achieved_delay <= target * (1.0 + 1e-6));
}
