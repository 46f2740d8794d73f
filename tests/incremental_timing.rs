//! Property tests for the incremental timing engine: random bump
//! sequences on generated circuits, asserting after **every** step that
//! the engine's arrival times, critical path and slacks are
//! bit-identical to a cold [`TimingReport`] recomputation — for raw
//! delay perturbations driven straight at the engine, and for real
//! TILOS bumps driven through [`DelayModel::delays_diff`] over the
//! bumped vertex.

use minflotransit::circuit::{SizingDag, SizingMode, VertexId};
use minflotransit::core::SizingProblem;
use minflotransit::delay::{DelayModel, DiffScratch, LinearDelayModel, Technology};
use minflotransit::gen::{random_circuit, RandomCircuitConfig};
use minflotransit::sta::{critical_path, IncrementalTiming, TimingReport};
use minflotransit::tilos::{minimum_sized_delay, TilosConfig, TilosError, TilosResult, TilosState};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build(seed: u64, gates: usize) -> (SizingDag, LinearDelayModel) {
    let cfg = RandomCircuitConfig {
        gates,
        inputs: 8,
        level_width: 6,
        locality: 3,
    };
    let netlist = random_circuit(seed, &cfg).expect("generator valid");
    let problem = SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate)
        .expect("builds");
    (problem.dag().clone(), problem.model().clone())
}

/// A cold TILOS run: a fresh trajectory advanced once to `target`.
fn cold_tilos(
    dag: &SizingDag,
    model: &LinearDelayModel,
    config: TilosConfig,
    target: f64,
) -> Result<TilosResult, TilosError> {
    TilosState::new(dag, model, config)?.advance_to(dag, model, target)
}

/// The engine's arrival times and critical path equal a cold
/// recomputation, bit for bit.
fn assert_engine_matches_cold(
    engine: &mut IncrementalTiming,
    dag: &SizingDag,
    delays: &[f64],
    step: usize,
) -> Result<(), TestCaseError> {
    let report = TimingReport::compute(dag, delays).unwrap();
    prop_assert_eq!(
        engine.critical_path().to_bits(),
        report.critical_path.to_bits(),
        "step {}: CP",
        step
    );
    for (i, (a, b)) in engine
        .arrival_times()
        .iter()
        .zip(report.at.iter())
        .enumerate()
    {
        prop_assert_eq!(a.to_bits(), b.to_bits(), "step {}: AT[{}]", step, i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random delay-perturbation sequences: after every propagation the
    /// engine equals a cold recompute (AT, CP and slack, bitwise).
    #[test]
    fn random_delay_storm_matches_cold_recompute(
        seed in 0u64..300,
        gates in 30usize..90,
        steps in 5usize..25,
    ) {
        let (dag, model) = build(seed, gates);
        let n = dag.num_vertices();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        let sizes = vec![1.0; n];
        let mut delays = model.delays(&sizes);
        let mut engine = IncrementalTiming::new(&dag, &delays, 0.0).unwrap();
        for step in 0..steps {
            for _ in 0..rng.gen_range(1..4usize) {
                let v = rng.gen_range(0..n);
                delays[v] *= rng.gen_range(0.6..1.6);
                engine.set_delay(&dag, VertexId::new(v), delays[v]);
            }
            engine.propagate(&dag);
            assert_engine_matches_cold(&mut engine, &dag, &delays, step)?;
        }
    }

    /// Random TILOS bump sequences through one-vertex `delays_diff`
    /// calls (exactly the update a TILOS bump makes): the scoped
    /// delay update plus the engine reproduce a cold recompute after
    /// every single bump.
    #[test]
    fn random_bump_sequences_match_cold_recompute(
        seed in 0u64..300,
        gates in 30usize..80,
        bumps in 5usize..30,
    ) {
        let (dag, model) = build(seed, gates);
        let n = dag.num_vertices();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545f4914f6cdd1d));
        let (min_size, max_size) = model.size_bounds();
        let mut sizes = vec![min_size; n];
        let mut delays = model.delays(&sizes);
        let mut engine = IncrementalTiming::new(&dag, &delays, 0.0).unwrap();
        let mut affected = Vec::new();
        let mut scratch = DiffScratch::new();
        for step in 0..bumps {
            let v = VertexId::new(rng.gen_range(0..n));
            let factor: f64 = rng.gen_range(1.05..1.4);
            sizes[v.index()] = (sizes[v.index()] * factor).min(max_size);
            model.delays_diff(&[v], &sizes, &mut delays, &mut affected, &mut scratch);
            for &u in &affected {
                engine.set_delay(&dag, u, delays[u.index()]);
            }
            engine.propagate(&dag);
            // The scoped update itself left nothing stale.
            prop_assert_eq!(&delays, &model.delays(&sizes), "step {}", step);
            assert_engine_matches_cold(&mut engine, &dag, &delays, step)?;
        }
    }

    /// Full TILOS runs on random circuits: the incremental trajectory is
    /// bit-identical to the cold-timing reference trajectory at random
    /// targets.
    #[test]
    fn tilos_incremental_matches_cold_reference(
        seed in 0u64..200,
        gates in 30usize..80,
        spec in 0.55f64..0.9,
    ) {
        let (dag, model) = build(seed, gates);
        let dmin = minimum_sized_delay(&dag, &model).unwrap();
        let target = spec * dmin;
        let warm = cold_tilos(&dag, &model, TilosConfig::default(), target);
        let cold_cfg = TilosConfig { cold_timing: true, ..Default::default() };
        let cold = cold_tilos(&dag, &model, cold_cfg, target);
        match (warm, cold) {
            (Ok(w), Ok(c)) => {
                prop_assert_eq!(w.bumps, c.bumps);
                prop_assert_eq!(w.achieved_delay.to_bits(), c.achieved_delay.to_bits());
                prop_assert_eq!(w.area.to_bits(), c.area.to_bits());
                for (i, (a, b)) in w.sizes.iter().zip(c.sizes.iter()).enumerate() {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "size[{}]", i);
                }
                // And the result really meets the target per a cold check.
                let cp = critical_path(&dag, &model.delays(&w.sizes)).unwrap();
                prop_assert_eq!(cp.to_bits(), w.achieved_delay.to_bits());
            }
            (Err(w), Err(c)) => prop_assert_eq!(
                format!("{w}"), format!("{c}"), "infeasibility must match"
            ),
            (w, c) => prop_assert!(false, "outcomes diverged: {:?} vs {:?}", w, c),
        }
    }

    /// Resumed trajectories (a session sweep's reuse) stay bit-identical
    /// to cold per-target runs under the incremental engine.
    #[test]
    fn trajectory_snapshots_match_cold_runs(
        seed in 0u64..200,
        gates in 30usize..70,
    ) {
        let (dag, model) = build(seed, gates);
        let dmin = minimum_sized_delay(&dag, &model).unwrap();
        let mut traj = TilosState::new(&dag, &model, TilosConfig::default()).unwrap();
        for spec in [0.9, 0.75, 0.65] {
            let target = spec * dmin;
            let warm = traj.advance_to(&dag, &model, target);
            let cold = cold_tilos(&dag, &model, TilosConfig::default(), target);
            match (warm, cold) {
                (Ok(w), Ok(c)) => {
                    prop_assert_eq!(w.bumps, c.bumps, "spec {}", spec);
                    prop_assert_eq!(w.area.to_bits(), c.area.to_bits(), "spec {}", spec);
                    for (a, b) in w.sizes.iter().zip(c.sizes.iter()) {
                        prop_assert_eq!(a.to_bits(), b.to_bits(), "spec {}", spec);
                    }
                }
                (Err(_), Err(_)) => break, // dead end latched identically
                (w, c) => prop_assert!(false, "outcomes diverged: {:?} vs {:?}", w, c),
            }
        }
    }
}
