//! Verifications of the paper's formal claims (Theorems 1–3 and the
//! D-phase optimality structure) on generated circuits.

use minflotransit::circuit::{SizingDag, SizingMode};
use minflotransit::core::{
    DPhaseInputs, DPhaseOptions, DPhaseResult, DPhaseSolver, SessionConfig, SizingProblem,
};
use minflotransit::delay::{DelayModel, Technology};
use minflotransit::gen::{random_circuit, Benchmark, RandomCircuitConfig};
use minflotransit::sta::{critical_path, displacement_between, BalanceStyle, BalancedConfig};

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

fn random_dag(seed: u64, gates: usize) -> (SizingDag, Vec<f64>) {
    let cfg = RandomCircuitConfig {
        gates,
        inputs: 12,
        level_width: 8,
        locality: 3,
    };
    let netlist = random_circuit(seed, &cfg).expect("generator valid");
    let dag = SizingDag::gate_mode(&netlist).expect("dag builds");
    // Arbitrary positive delays derived from the seed.
    let delays: Vec<f64> = (0..dag.num_vertices())
        .map(|i| 1.0 + ((seed as usize + i * 7) % 13) as f64 * 0.5)
        .collect();
    (dag, delays)
}

/// Theorem 1: any two legal delay-balanced configurations of the same
/// graph are FSDU-displaced versions of each other.
#[test]
fn theorem1_on_random_circuits() {
    for seed in [1u64, 2, 3, 4, 5] {
        let (dag, delays) = random_dag(seed, 120);
        let cp = critical_path(&dag, &delays).expect("shapes match");
        let target = cp * 1.1;
        let a = BalancedConfig::balance(&dag, &delays, target, BalanceStyle::Asap).unwrap();
        let b = BalancedConfig::balance(&dag, &delays, target, BalanceStyle::Alap).unwrap();
        assert!(a.verify(&dag, &delays) < 1e-9);
        assert!(b.verify(&dag, &delays) < 1e-9);
        let r = displacement_between(&dag, &delays, &a, &b);
        let moved = a.displace(&dag, &r);
        for (x, y) in moved.fsdu.iter().zip(b.fsdu.iter()) {
            assert!((x - y).abs() < 1e-9, "seed {seed}: {x} vs {y}");
        }
        for (x, y) in moved.po_fsdu.iter().zip(b.po_fsdu.iter()) {
            assert!((x - y).abs() < 1e-9, "seed {seed}: {x} vs {y}");
        }
    }
}

/// Theorem 2 / Corollary 1: the D-phase's displacement keeps every
/// source→O path within the target — i.e. the new budgets remain
/// timing-feasible.
#[test]
fn theorem2_dphase_preserves_critical_path() {
    for seed in [7u64, 8, 9] {
        let (dag, delays) = random_dag(seed, 150);
        let cp = critical_path(&dag, &delays).expect("shapes match");
        let target = cp; // tight target: no global slack
        let cfg = BalancedConfig::balance(&dag, &delays, target, BalanceStyle::Asap).unwrap();
        let n = dag.num_vertices();
        let sens: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let excess: Vec<f64> = delays.iter().map(|d| 0.9 * d).collect();
        let result = dphase_once(&dag, &sens, &excess, &cfg, 0.3);
        let new_delays: Vec<f64> = delays
            .iter()
            .zip(result.delta.iter())
            .map(|(d, dd)| d + dd)
            .collect();
        let new_cp = critical_path(&dag, &new_delays).expect("shapes match");
        assert!(
            new_cp <= target + 1e-6 * target,
            "seed {seed}: cp {new_cp} exceeds target {target}"
        );
        // All budgets stay positive (excess bound keeps them above p_i).
        assert!(new_delays.iter().all(|&d| d > 0.0));
    }
}

/// The D-phase objective is non-negative (r = 0 is feasible) and zero
/// exactly when no redistribution can help.
#[test]
fn dphase_gain_is_nonnegative() {
    let (dag, delays) = random_dag(11, 100);
    let cp = critical_path(&dag, &delays).expect("shapes match");
    let cfg = BalancedConfig::balance(&dag, &delays, cp * 1.05, BalanceStyle::Asap).unwrap();
    let n = dag.num_vertices();
    let sens = vec![1.0; n];
    let excess: Vec<f64> = delays.iter().map(|d| 0.5 * d).collect();
    let r = dphase_once(&dag, &sens, &excess, &cfg, 0.25);
    assert!(r.predicted_gain >= 0.0);
}

/// Theorem 3's practical content: the alternation is monotone — every
/// accepted iteration lowers the area while keeping timing feasibility.
/// (Global optimality of the limit holds for the exact algorithm; we
/// verify the invariants that drive the proof.)
#[test]
fn theorem3_monotone_descent() {
    let netlist = Benchmark::C499.generate().expect("generator valid");
    let problem = SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate)
        .expect("builds");
    let target = 0.6 * problem.dmin();
    let sol = problem
        .session(SessionConfig::cold())
        .size_to(target)
        .expect("runs");
    let mut area = sol.initial_area;
    let mut accepted = 0;
    for step in &sol.history {
        if step.accepted {
            assert!(step.candidate_area < area + 1e-9);
            area = step.candidate_area;
            accepted += 1;
        }
    }
    assert!(accepted > 0, "at least one improving step on c499-like");
    assert!(sol.area <= sol.initial_area);
}

/// The W-phase least fixed point is the component-wise minimal feasible
/// sizing for its budgets: no single element can shrink without
/// violating a budget (checked on a real benchmark model).
#[test]
fn wphase_minimality_on_benchmark() {
    use minflotransit::circuit::VertexId;
    use minflotransit::smp::SmpSolver;
    let netlist = Benchmark::C432.generate().expect("generator valid");
    let problem = SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate)
        .expect("builds");
    let dag = problem.dag();
    let model = problem.model();
    let target = 0.6 * problem.dmin();
    let tilos = problem
        .session(SessionConfig::cold())
        .tilos_to(target)
        .expect("reachable");
    let budgets = model.delays(&tilos.sizes);
    let n = dag.num_vertices();
    let dependents: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            model
                .dependents(VertexId::new(i))
                .iter()
                .map(|v| v.index())
                .collect()
        })
        .collect();
    let (lo, hi) = model.size_bounds();
    let smp = SmpSolver::new(vec![lo; n], vec![hi; n], dependents);
    let sol = smp
        .solve(|i, x| model.required_size(VertexId::new(i), budgets[i], x))
        .expect("solves");
    assert!(sol.feasible);
    // Feasibility: realized delays within budgets.
    let delays = model.delays(&sol.x);
    for i in 0..n {
        assert!(delays[i] <= budgets[i] * (1.0 + 1e-9));
    }
    // Minimality: any element above the floor is pinned by its budget.
    for k in 0..n {
        if sol.x[k] <= lo + 1e-9 {
            continue;
        }
        let mut y = sol.x.clone();
        y[k] *= 0.999;
        let dk = model.delay(VertexId::new(k), &y);
        assert!(
            dk > budgets[k] * (1.0 - 1e-12),
            "element {k} could shrink below its least-fixed-point value"
        );
    }
    // The W-phase area never exceeds the seed's (same budgets).
    assert!(model.area(&sol.x) <= tilos.area + 1e-9);
}
