//! Criterion bench for the abstract's complexity claims: D-phase and
//! W-phase run time on random circuits of increasing size. Near-linear
//! growth of time/size across the sweep supports the "near linear
//! run-time dependence" observation of §1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mft_circuit::{SizingMode, VertexId};
use mft_core::{DPhaseInputs, DPhaseOptions, DPhaseSolver, SessionConfig, SizingProblem};
use mft_delay::{DelayModel, Technology};
use mft_gen::{random_circuit, RandomCircuitConfig};
use mft_smp::SmpSolver;
use mft_sta::{BalanceStyle, BalancedConfig};
use std::hint::black_box;

fn setup(gates: usize) -> SizingProblem {
    let cfg = RandomCircuitConfig {
        gates,
        inputs: 16 + gates / 20,
        level_width: (gates as f64).sqrt().ceil() as usize,
        locality: 3,
    };
    let netlist = random_circuit(42, &cfg).expect("generator is valid");
    SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate)
        .expect("pipeline builds")
}

fn bench_phases(c: &mut Criterion) {
    let mut group = c.benchmark_group("phase_scaling");
    group.sample_size(10);
    for gates in [100usize, 400, 1600] {
        let problem = setup(gates);
        let dag = problem.dag();
        let model = problem.model();
        let target = 0.6 * problem.dmin();
        let tilos = problem
            .session(SessionConfig::warm())
            .tilos_to(target)
            .expect("spec reachable");
        let delays = model.delays(&tilos.sizes);
        let n = dag.num_vertices();
        let excess: Vec<f64> = (0..n)
            .map(|i| delays[i] - model.intrinsic(VertexId::new(i)))
            .collect();
        let sens = model.area_sensitivities(&tilos.sizes);
        let balanced =
            BalancedConfig::balance(dag, &delays, target, BalanceStyle::Asap).expect("balances");
        // One D-phase as a fresh solver runs it: construction and solve.
        let dphase_once = |sens: &[f64]| {
            DPhaseSolver::new(dag, DPhaseOptions::default())?.solve(&DPhaseInputs {
                sensitivities: sens,
                excess: &excess,
                config: &balanced,
                trust_region: 0.25,
            })
        };

        group.throughput(Throughput::Elements(dag.num_edges() as u64));
        group.bench_with_input(BenchmarkId::new("dphase", gates), &gates, |b, _| {
            b.iter(|| {
                let r = dphase_once(black_box(&sens)).expect("dphase solves");
                black_box(r.predicted_gain)
            })
        });

        let dphase = dphase_once(&sens).expect("solves");
        let budgets: Vec<f64> = (0..n).map(|i| delays[i] + dphase.delta[i]).collect();
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
        group.bench_with_input(BenchmarkId::new("wphase", gates), &gates, |b, _| {
            b.iter(|| {
                let sol = smp
                    .solve(|i, x| model.required_size(VertexId::new(i), black_box(budgets[i]), x))
                    .expect("wphase solves");
                black_box(sol.x.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_phases);
criterion_main!(benches);
