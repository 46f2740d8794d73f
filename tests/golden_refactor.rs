//! Regression pin for the persistent D-phase solver refactor: a cold
//! session must produce **bit-identical** sizes to the pre-refactor
//! implementation on a fixed generated circuit.
//!
//! The golden bits below were captured from the free-function (one
//! network build per iteration, every solve cold) implementation
//! immediately before the `DPhaseSolver` refactor landed. Today every
//! D-phase solve after the first warm-starts from the basis the last
//! one left, within a request and across requests of one session. The
//! pins hold anyway, because the D-phase answer is the flow
//! certificate's potentials: the greatest optimal dual that is `≤ 0`,
//! a function of the LP alone, whichever optimal basis a solve starts
//! from or ends in. So the golden target sized after two other targets
//! on one session, its D-phase warm from their bases, must reproduce
//! the golden bits too.

use minflotransit::circuit::SizingMode;
use minflotransit::core::{SessionConfig, SizingProblem};
use minflotransit::delay::Technology;
use minflotransit::gen::{random_circuit, RandomCircuitConfig};

/// The fixed circuit: 60 gates, seeded via `mft-gen` (deterministic).
fn problem() -> SizingProblem {
    let cfg = RandomCircuitConfig {
        gates: 60,
        inputs: 8,
        level_width: 6,
        locality: 3,
    };
    let netlist = random_circuit(2026, &cfg).unwrap();
    SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap()
}

/// Golden `SizingSolution.sizes` as `f64::to_bits`, captured before the
/// refactor. All entries are minimum size (1.0 = 0x3ff0000000000000)
/// except the listed (index, bits) pairs.
const GOLDEN_NON_UNIT: &[(usize, u64)] = &[
    (4, 0x4000d51e7384288c),
    (8, 0x3ff77ac6c0afd367),
    (13, 0x3ff1a720876ddff6),
    (23, 0x3ff22e88f7f65559),
    (32, 0x3ff7dbc3922fde9c),
    (38, 0x3ff633adb4f42552),
    (55, 0x3ff56ac2876feadd),
];
const GOLDEN_LEN: usize = 60;
const GOLDEN_ITERATIONS: usize = 25;

fn golden_sizes() -> Vec<f64> {
    let mut sizes = vec![1.0f64; GOLDEN_LEN];
    for &(i, bits) in GOLDEN_NON_UNIT {
        sizes[i] = f64::from_bits(bits);
    }
    sizes
}

#[test]
fn default_run_is_bit_identical_to_pre_refactor() {
    let problem = problem();
    let target = 0.75 * problem.dmin();
    let golden = golden_sizes();
    let sol = problem
        .session(SessionConfig::warm())
        .size_to(target)
        .unwrap();
    assert_eq!(sol.iterations, GOLDEN_ITERATIONS);
    assert_eq!(sol.sizes.len(), golden.len());
    for (i, (&got, &want)) in sol.sizes.iter().zip(golden.iter()).enumerate() {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "size[{i}] {got} != golden {want}"
        );
    }
    // One D-phase solve per iteration: the request's fresh solver
    // solves cold once, then warm-starts every later solve.
    assert_eq!(sol.dphase_stats.flow.cold_solves, 1);
    assert_eq!(sol.dphase_stats.flow.warm_solves, GOLDEN_ITERATIONS - 1);
}

#[test]
fn golden_target_after_other_targets_is_bit_identical() {
    let problem = problem();
    let golden = golden_sizes();
    let mut session = problem.session(SessionConfig::warm());
    for spec in [0.85, 0.7] {
        session.size_to(spec * problem.dmin()).unwrap();
    }
    let sol = session.size_to(0.75 * problem.dmin()).unwrap();
    assert_eq!(sol.iterations, GOLDEN_ITERATIONS);
    for (i, (&got, &want)) in sol.sizes.iter().zip(golden.iter()).enumerate() {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "size[{i}] {got} != golden {want}"
        );
    }
    // Every D-phase solve of the golden request started warm.
    assert_eq!(sol.dphase_stats.flow.cold_solves, 0);
    assert_eq!(sol.dphase_stats.flow.warm_solves, GOLDEN_ITERATIONS);
}

/// The golden target served after a tighter one and a looser one, so
/// its TILOS seed is replayed from the trajectory's bump log: the warm
/// session still reproduces the golden bits and meets timing.
#[test]
fn warm_start_mode_matches_final_quality() {
    let problem = problem();
    let target = 0.75 * problem.dmin();
    let golden = golden_sizes();
    let mut session = problem.session(SessionConfig::warm());
    for spec in [0.7, 0.85] {
        session.size_to(spec * problem.dmin()).unwrap();
    }
    let hits = session.stats().snapshot_hits;
    let sol = session.size_to(target).unwrap();
    assert_eq!(session.stats().snapshot_hits, hits + 1, "seed replayed");
    assert!(
        sol.achieved_delay <= target * (1.0 + 1e-6),
        "delay {} vs target {target}",
        sol.achieved_delay
    );
    assert_eq!(sol.iterations, GOLDEN_ITERATIONS);
    for (i, (&got, &want)) in sol.sizes.iter().zip(golden.iter()).enumerate() {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "size[{i}] {got} != golden {want}"
        );
    }
    assert_eq!(
        sol.dphase_stats.flow.cold_solves, 0,
        "{:?}",
        sol.dphase_stats
    );
}
