//! Golden pins for session sweeps: the warm-started sweep (all three
//! reuse levers on) must reproduce the cold per-point curve, and worker
//! partitioning must never change results.
//!
//! Equality contract (matching the session's documentation):
//!
//! * TILOS trajectory reuse is **bit-exact**, so `tilos_area_ratio` is
//!   pinned bitwise everywhere, as are `Unreachable` outcomes.
//! * The warm inner solves (simplex tree reuse, seeded SMP fixpoints) reach
//!   the same optima but may differ in the last float bits; on c17 the
//!   warm curve happens to be fully bit-identical and is pinned so, on
//!   the datapath circuit `mft_area_ratio` is pinned to 1e-9 relative
//!   with equal iteration counts.
//! * `jobs = N` is pinned bit-identical to `jobs = 1` — hermetic point
//!   boundaries make every point independent of the partitioning.

mod common;

use common::per_point_curve;
use minflotransit::circuit::{parse_bench, SizingMode, C17_BENCH};
use minflotransit::core::{MinflotransitConfig, SessionConfig, SizingProblem, SweepOutcome};
use minflotransit::delay::Technology;
use minflotransit::gen::alu;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn c17_problem() -> SizingProblem {
    let netlist = parse_bench("c17", C17_BENCH).unwrap();
    SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap()
}

fn datapath_problem() -> SizingProblem {
    let netlist = alu(4, false).unwrap();
    SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap()
}

/// Bitwise outcome comparison (every field of every point).
fn assert_bit_identical(a: &[SweepOutcome], b: &[SweepOutcome], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        match (x, y) {
            (SweepOutcome::Point(p), SweepOutcome::Point(q)) => {
                assert_eq!(p.spec.to_bits(), q.spec.to_bits(), "{what}[{i}].spec");
                assert_eq!(p.target.to_bits(), q.target.to_bits(), "{what}[{i}].target");
                assert_eq!(
                    p.tilos_area_ratio.to_bits(),
                    q.tilos_area_ratio.to_bits(),
                    "{what}[{i}].tilos_area_ratio"
                );
                assert_eq!(
                    p.mft_area_ratio.to_bits(),
                    q.mft_area_ratio.to_bits(),
                    "{what}[{i}].mft_area_ratio"
                );
                assert_eq!(
                    p.saving_percent.to_bits(),
                    q.saving_percent.to_bits(),
                    "{what}[{i}].saving_percent"
                );
                assert_eq!(p.iterations, q.iterations, "{what}[{i}].iterations");
            }
            (
                SweepOutcome::Unreachable {
                    spec: sa,
                    best_ratio: ra,
                },
                SweepOutcome::Unreachable {
                    spec: sb,
                    best_ratio: rb,
                },
            ) => {
                assert_eq!(sa.to_bits(), sb.to_bits(), "{what}[{i}].spec");
                assert_eq!(ra.to_bits(), rb.to_bits(), "{what}[{i}].best_ratio");
            }
            _ => panic!("{what}[{i}]: outcome kinds differ"),
        }
    }
}

/// On c17, the fully warm sweep (TILOS trajectory + shared solvers +
/// D/W warm starts) is bit-identical to the cold per-point curve, for
/// one worker and for four.
#[test]
fn golden_c17_warm_sweep_is_bit_identical_to_cold() {
    let problem = c17_problem();
    let specs = [0.95, 0.85, 0.75, 0.65, 0.55, 0.5];
    let cold = per_point_curve(&problem, &MinflotransitConfig::default(), &specs);
    for jobs in [1usize, 4] {
        let warm = problem
            .session(SessionConfig::warm().with_jobs(jobs))
            .sweep(&specs)
            .unwrap();
        assert_bit_identical(&cold, &warm, &format!("c17 jobs={jobs}"));
        // The levers actually engaged: warm D-phase solves dominate and
        // the W-phase ran seeded.
        for o in &warm {
            let SweepOutcome::Point(p) = o else {
                panic!("c17 specs are reachable")
            };
            assert!(
                p.dphase.flow.warm_solves >= p.dphase.flow.cold_solves,
                "spec {}: {:?}",
                p.spec,
                p.dphase.flow
            );
            assert_eq!(p.wphase.seeded_solves, p.wphase.solves, "spec {}", p.spec);
        }
    }
}

/// On a generated datapath circuit (4-bit ALU): the warm session sweep
/// is compared against the per-point cold curve of the *same* optimizer
/// configuration (the warm preset's, network-simplex backed). TILOS ratios and unreachable
/// outcomes are pinned bitwise, iteration counts match, and the warm
/// MFT areas agree with cold to 1e-9 relative (the documented
/// warm-solve tolerance); jobs=4 reproduces jobs=1 bitwise. A second,
/// looser pin (1e-4 relative) covers the comparison against the default
/// (cold inner solves) per-point curve, whose degenerate D-phase optima
/// may legally resolve to different vertices than the warm solves'.
#[test]
fn golden_datapath_warm_sweep_matches_cold() {
    let problem = datapath_problem();
    let specs = [0.9, 0.8, 0.7, 0.6, 0.05];
    let warm_config = SessionConfig::warm();
    let cold = per_point_curve(&problem, &warm_config.optimizer, &specs);
    let warm = problem.session(warm_config).sweep(&specs).unwrap();
    for (i, (c, w)) in cold.iter().zip(warm.iter()).enumerate() {
        match (c, w) {
            (SweepOutcome::Point(c), SweepOutcome::Point(w)) => {
                assert_eq!(
                    c.tilos_area_ratio.to_bits(),
                    w.tilos_area_ratio.to_bits(),
                    "[{i}] TILOS ratio"
                );
                assert_eq!(c.iterations, w.iterations, "[{i}] iterations");
                assert!(
                    (c.mft_area_ratio - w.mft_area_ratio).abs() <= 1e-9 * c.mft_area_ratio,
                    "[{i}]: cold {} vs warm {}",
                    c.mft_area_ratio,
                    w.mft_area_ratio
                );
            }
            (
                SweepOutcome::Unreachable { best_ratio: a, .. },
                SweepOutcome::Unreachable { best_ratio: b, .. },
            ) => {
                assert_eq!(a.to_bits(), b.to_bits(), "[{i}] best_ratio");
            }
            _ => panic!("[{i}]: outcome kinds differ"),
        }
    }
    let legacy = per_point_curve(&problem, &MinflotransitConfig::default(), &specs);
    for (i, (l, w)) in legacy.iter().zip(warm.iter()).enumerate() {
        if let (SweepOutcome::Point(l), SweepOutcome::Point(w)) = (l, w) {
            assert_eq!(
                l.tilos_area_ratio.to_bits(),
                w.tilos_area_ratio.to_bits(),
                "[{i}] TILOS is backend-independent"
            );
            assert!(
                (l.mft_area_ratio - w.mft_area_ratio).abs() <= 1e-4 * l.mft_area_ratio,
                "[{i}]: legacy {} vs warm {}",
                l.mft_area_ratio,
                w.mft_area_ratio
            );
        }
    }
    let multi = problem
        .session(SessionConfig::warm().with_jobs(4))
        .sweep(&specs)
        .unwrap();
    assert_bit_identical(&warm, &multi, "datapath jobs=4");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Permuting the spec order never changes any outcome: the session
    /// sorts internally and hermetic point boundaries make each point a
    /// pure function of its own target.
    #[test]
    fn spec_order_never_changes_outcomes(seed in 0u64..64, jobs in 1usize..4) {
        let problem = c17_problem();
        let base = [0.9, 0.8, 0.7, 0.6, 0.5];
        let config = SessionConfig::warm().with_jobs(jobs);
        let reference = problem.session(config.clone()).sweep(&base).unwrap();
        // Fisher–Yates with the vendored rng.
        let mut perm: Vec<usize> = (0..base.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..perm.len()).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let shuffled: Vec<f64> = perm.iter().map(|&i| base[i]).collect();
        let got = problem.session(config).sweep(&shuffled).unwrap();
        for (k, &i) in perm.iter().enumerate() {
            let (SweepOutcome::Point(p), SweepOutcome::Point(q)) = (&got[k], &reference[i]) else {
                panic!("reachable specs");
            };
            prop_assert_eq!(p.spec.to_bits(), q.spec.to_bits());
            prop_assert_eq!(p.tilos_area_ratio.to_bits(), q.tilos_area_ratio.to_bits());
            prop_assert_eq!(p.mft_area_ratio.to_bits(), q.mft_area_ratio.to_bits());
            prop_assert_eq!(p.iterations, q.iterations);
        }
    }
}
