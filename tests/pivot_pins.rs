//! Pins the D-phase's exact network-simplex pivot sequence on c432-like
//! sessions.
//!
//! Two `size` requests at nearby targets run the persistent D-phase
//! solver, which warm-starts every solve from the basis the last one
//! left: under the warm preset the second request's first solve starts
//! from the first request's last basis, under the cold preset each
//! request builds a fresh solver whose first solve runs cold. For each
//! preset
//! the summed `SolverStats::{pivots, arcs_scanned}` must equal the
//! recorded counts: the simplex keeps its spanning tree incrementally,
//! and the tree it keeps must steer exactly the pivots a from-scratch
//! rebuild would.

use minflotransit::circuit::SizingMode;
use minflotransit::core::{SessionConfig, SizingProblem, SizingSession};
use minflotransit::delay::Technology;
use minflotransit::gen::Benchmark;

#[test]
fn c432_dphase_pivot_counts_are_pinned() {
    let netlist = Benchmark::C432.generate().unwrap();
    let problem =
        SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap();
    let dmin = problem.dmin();
    // (preset, pivots, arcs_scanned), recorded with the tree rebuilt
    // from scratch after every basis change, and with every solve after
    // a solver's first warm-started.
    let recorded = [
        ("warm", SessionConfig::warm(), 1478, 2117665),
        ("cold", SessionConfig::cold(), 1913, 2720140),
    ];
    for (preset, config, want_pivots, want_scanned) in recorded {
        let mut session = SizingSession::new(problem.clone(), config);
        let (mut pivots, mut scanned) = (0, 0);
        for spec in [0.6, 0.55] {
            let sol = session.size_to(spec * dmin).unwrap();
            pivots += sol.dphase_stats.flow.pivots;
            scanned += sol.dphase_stats.flow.arcs_scanned;
        }
        assert_eq!(
            (pivots, scanned),
            (want_pivots, want_scanned),
            "{preset}: (pivots, arcs_scanned)"
        );
    }
}
