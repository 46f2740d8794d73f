//! Regression pin for the persistent D-phase solver refactor: with the
//! default (cold, deterministic) configuration, the full pipeline must
//! produce **bit-identical** sizes to the pre-refactor implementation on
//! a fixed generated circuit.
//!
//! The golden bits below were captured from the free-function (one
//! network build per iteration) implementation immediately before the
//! `DPhaseSolver` refactor landed. The warm-start
//! mode is intentionally *not* pinned bit-for-bit — at degenerate LP
//! optima it may legally select a different optimal vertex — but must
//! reach the same final area and stay timing-feasible.

use minflotransit::circuit::SizingMode;
use minflotransit::core::{MinflotransitConfig, SessionConfig, SizingProblem};
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
        .session(SessionConfig::cold())
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
    // The default path never warm-starts.
    assert_eq!(sol.dphase_stats.flow.warm_solves, 0);
    assert_eq!(sol.dphase_stats.flow.cold_solves, GOLDEN_ITERATIONS);
}

#[test]
fn warm_start_mode_matches_final_quality() {
    let problem = problem();
    let target = 0.75 * problem.dmin();
    let golden_area = {
        let sizes = golden_sizes();
        problem.area_of(&sizes)
    };
    let config = MinflotransitConfig {
        dphase_warm_start: true,
        ..Default::default()
    };
    let sol = problem
        .session(SessionConfig::cold_with(config))
        .size_to(target)
        .unwrap();
    // Timing stays feasible and quality matches the cold run closely
    // (identical LP optima, possibly different vertices).
    assert!(
        sol.achieved_delay <= target * (1.0 + 1e-6),
        "delay {} vs target {target}",
        sol.achieved_delay
    );
    assert!(
        (sol.area - golden_area).abs() <= 0.01 * golden_area,
        "warm area {} vs golden {golden_area}",
        sol.area
    );
    // Warm starts actually engaged.
    assert!(
        sol.dphase_stats.flow.warm_solves >= 1,
        "{:?}",
        sol.dphase_stats
    );
}
