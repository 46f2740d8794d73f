//! Pins the D-phase's exact network-simplex pivot sequence on c432-like
//! sessions.
//!
//! Two `size` requests at nearby targets run the persistent D-phase
//! solver, which warm-starts every solve from the basis the last one
//! left: on one session the second request's first solve starts from
//! the first request's last basis; with a new session per request each
//! request builds a fresh solver whose first solve runs cold. For each
//! row the summed `SolverStats::{pivots, arcs_scanned}` must equal the
//! recorded counts: the simplex keeps its spanning tree incrementally,
//! and the tree it keeps must steer exactly the pivots a from-scratch
//! rebuild would.

mod common;

use common::fresh;
use minflotransit::circuit::SizingMode;
use minflotransit::core::{SessionConfig, SizingProblem, SizingSolution};
use minflotransit::delay::Technology;
use minflotransit::gen::Benchmark;

#[test]
fn c432_dphase_pivot_counts_are_pinned() {
    let netlist = Benchmark::C432.generate().unwrap();
    let problem =
        SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap();
    let dmin = problem.dmin();
    let config = SessionConfig::warm();
    let specs = [0.6, 0.55];
    let mut session = problem.session(config.clone());
    let one_session: Vec<SizingSolution> = specs
        .iter()
        .map(|spec| session.size_to(spec * dmin).unwrap())
        .collect();
    let fresh_per_request: Vec<SizingSolution> = specs
        .iter()
        .map(|spec| fresh(&problem, &config, |s| s.size_to(spec * dmin)).unwrap())
        .collect();
    // (row, pivots, arcs_scanned), recorded with the tree rebuilt from
    // scratch after every basis change, and with every solve after a
    // solver's first warm-started.
    for (row, solutions, want) in [
        ("one session", one_session, (1478, 2117665)),
        ("fresh per request", fresh_per_request, (1913, 2720140)),
    ] {
        let got = solutions.iter().fold((0, 0), |(pivots, scanned), sol| {
            (
                pivots + sol.dphase_stats.flow.pivots,
                scanned + sol.dphase_stats.flow.arcs_scanned,
            )
        });
        assert_eq!(got, want, "{row}: (pivots, arcs_scanned)");
    }
}
