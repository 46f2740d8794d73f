//! Property tests pinning the TILOS sensitivity cache
//! ([`TilosConfig::sensitivity_cache`]) bit-identical to the uncached
//! historical scan over random bump sequences.
//!
//! The cache's correctness argument is that a hit returns bitwise what
//! the scan would recompute, so the *entire trajectory* — every bump
//! choice, every intermediate critical path, the final sizes — must
//! match the uncached run exactly. One diverging ULP anywhere changes
//! a bump choice and cascades, so comparing final sizes bitwise after
//! a long random sequence is a strong pin.
//!
//! Two circuits: c432-like (small, path membership churns every bump —
//! the invalidation-heavy regime) and the ladder's 10k-gate random rung
//! (large, shallow paths — the high-hit-rate regime).

use mft_circuit::SizingMode;
use mft_core::SizingProblem;
use mft_delay::Technology;
use mft_gen::{ladder_rung, Benchmark};
use mft_tilos::{TilosConfig, TilosError, TilosState};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The prepared problems are immutable after construction and costly to
/// build (the 10k rung in particular), so they are shared across cases.
fn c432like() -> &'static SizingProblem {
    static P: OnceLock<SizingProblem> = OnceLock::new();
    P.get_or_init(|| {
        SizingProblem::prepare(
            &Benchmark::C432.generate().unwrap(),
            &Technology::cmos_130nm(),
            SizingMode::Gate,
        )
        .unwrap()
    })
}

fn rand10k() -> &'static SizingProblem {
    static P: OnceLock<SizingProblem> = OnceLock::new();
    P.get_or_init(|| {
        let netlist = ladder_rung("rand10k").unwrap().generate().unwrap();
        SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap()
    })
}

/// Drives one trajectory through a random sequence of tightening
/// targets under a bump budget, returning the per-step observable
/// state: `(bumps so far, latched best delay, sizes)`.
fn drive(
    problem: &SizingProblem,
    cache: bool,
    bump_factor: f64,
    budget: usize,
    target_fractions: &[f64],
) -> Vec<(usize, u64, Vec<u64>)> {
    let config = TilosConfig {
        bump_factor,
        max_bumps: budget,
        sensitivity_cache: cache,
        ..Default::default()
    };
    let (dag, model) = (problem.dag(), problem.model());
    let mut traj = TilosState::new(dag, model, config).expect("trajectory builds");
    let cp0 = match traj.advance_to(dag, model, f64::INFINITY) {
        Ok(r) => r.achieved_delay,
        Err(e) => panic!("infinite target must be reachable: {e:?}"),
    };
    let mut out = Vec::new();
    for &f in target_fractions {
        let best = match traj.advance_to(dag, model, cp0 * f) {
            Ok(r) => r.achieved_delay,
            Err(
                TilosError::Infeasible { best_delay, .. }
                | TilosError::BumpBudgetExhausted { best_delay, .. },
            ) => best_delay,
            Err(e) => panic!("unexpected error: {e:?}"),
        };
        out.push((
            traj.bumps(),
            best.to_bits(),
            traj.sizes().iter().map(|x| x.to_bits()).collect(),
        ));
    }
    out
}

fn assert_trajectories_match(
    problem: &SizingProblem,
    bump_factor: f64,
    budget: usize,
    target_fractions: &[f64],
) -> Result<(), TestCaseError> {
    let cached = drive(problem, true, bump_factor, budget, target_fractions);
    let uncached = drive(problem, false, bump_factor, budget, target_fractions);
    for (step, ((cb, ccp, cs), (ub, ucp, us))) in cached.iter().zip(uncached.iter()).enumerate() {
        prop_assert_eq!(cb, ub, "step {}: bump counts diverge", step);
        prop_assert_eq!(ccp, ucp, "step {}: best delays diverge", step);
        for (i, (a, b)) in cs.iter().zip(us.iter()).enumerate() {
            prop_assert_eq!(a, b, "step {}: sizes diverge at vertex {}", step, i);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// c432-like: the critical path reshapes constantly, so the cache
    /// lives off invalidations and path-membership flips.
    #[test]
    fn c432like_cached_matches_uncached(
        bump_factor in 1.02f64..1.4,
        budget in 50usize..2000,
        f1 in 0.80f64..0.98,
        f2 in 0.55f64..0.80,
    ) {
        // Two tightening targets (descending by construction), so the
        // second advance resumes a warm trajectory mid-sequence.
        assert_trajectories_match(c432like(), bump_factor, budget, &[f1, f2])?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The 10k-gate ladder rung: shallow wide paths, near-perfect hit
    /// rates — the regime the cache was built for. Fewer cases and a
    /// tighter budget keep the test inside unit-test time.
    #[test]
    fn rand10k_cached_matches_uncached(
        bump_factor in 1.05f64..1.3,
        budget in 100usize..400,
        fraction in 0.6f64..0.95,
    ) {
        assert_trajectories_match(rand10k(), bump_factor, budget, &[fraction])?;
    }
}
