//! Pins the D-phase's exact network-simplex pivot sequence on a warm
//! c432-like session.
//!
//! Two `size` requests at nearby targets run the persistent D-phase
//! solver cold, then warm. For each pricing rule the summed
//! `SolverStats::{pivots, arcs_scanned}` must equal the recorded
//! counts: the simplex keeps its spanning tree incrementally, and the
//! tree it keeps must steer exactly the pivots a from-scratch rebuild
//! would.

use minflotransit::circuit::SizingMode;
use minflotransit::core::{SessionConfig, SizingProblem, SizingSession};
use minflotransit::delay::Technology;
use minflotransit::flow::FlowAlgorithm;
use minflotransit::gen::Benchmark;

#[test]
fn warm_c432_dphase_pivot_counts_are_pinned() {
    let netlist = Benchmark::C432.generate().unwrap();
    let problem =
        SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap();
    let dmin = problem.dmin();
    // (backend, pivots, arcs_scanned), recorded with the tree rebuilt
    // from scratch after every basis change.
    let recorded = [
        (FlowAlgorithm::NetworkSimplex, 1913, 2720140),
        (FlowAlgorithm::SimplexFirstEligible, 5137, 325465),
        (FlowAlgorithm::SimplexBlockSearch, 3865, 357805),
    ];
    for (algorithm, want_pivots, want_scanned) in recorded {
        let config = SessionConfig::warm().with_flow_algorithm(algorithm);
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
            "{algorithm:?}: (pivots, arcs_scanned)"
        );
    }
}
