//! Criterion micro-benches for the remaining substrates: timing analysis,
//! delay balancing, area-sensitivity computation and TILOS itself, plus
//! an ablation comparing gate-mode and transistor-mode model construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mft_circuit::{SizingDag, SizingMode};
use mft_core::{SessionConfig, SizingProblem};
use mft_delay::{DelayModel, LinearDelayModel, Technology};
use mft_gen::Benchmark;
use mft_sta::{BalanceStyle, BalancedConfig, TimingReport};
use std::hint::black_box;

fn bench_substrates(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrates");
    group.sample_size(20);
    let netlist = Benchmark::C880.generate().expect("generator is valid");
    let tech = Technology::cmos_130nm();
    let problem =
        SizingProblem::prepare(&netlist, &tech, SizingMode::Gate).expect("pipeline builds");
    let dag = problem.dag();
    let model = problem.model();
    let sizes = vec![2.0; dag.num_vertices()];
    let delays = model.delays(&sizes);
    let cp = mft_sta::critical_path(dag, &delays).expect("shapes match");

    group.bench_function("delays_eval", |b| {
        b.iter(|| black_box(model.delays(black_box(&sizes))))
    });
    group.bench_function("sta_full", |b| {
        b.iter(|| black_box(TimingReport::compute(dag, black_box(&delays)).expect("ok")))
    });
    group.bench_function("balance_asap", |b| {
        b.iter(|| {
            black_box(
                BalancedConfig::balance(dag, black_box(&delays), cp, BalanceStyle::Asap)
                    .expect("ok"),
            )
        })
    });
    group.bench_function("area_sensitivities", |b| {
        b.iter(|| black_box(model.area_sensitivities(black_box(&sizes))))
    });
    let mut session = problem.session(SessionConfig::cold());
    group.bench_function("tilos_c880", |b| {
        b.iter(|| {
            let r = session
                .tilos_to(black_box(0.5 * problem.dmin()))
                .expect("ok");
            black_box(r.bumps)
        })
    });
    group.finish();

    // Ablation: model construction cost, gate vs transistor formulation.
    let mut group = c.benchmark_group("model_build");
    group.sample_size(20);
    for (label, mode) in [
        ("gate", SizingMode::Gate),
        ("transistor", SizingMode::Transistor),
    ] {
        group.bench_with_input(BenchmarkId::new("elmore", label), &mode, |b, &mode| {
            b.iter(|| {
                let dag = match mode {
                    SizingMode::Gate => SizingDag::gate_mode(problem.netlist()),
                    SizingMode::Transistor => SizingDag::transistor_mode(problem.netlist()),
                    SizingMode::GateWire => SizingDag::gate_mode_with_wires(problem.netlist()),
                }
                .expect("dag builds");
                let model =
                    LinearDelayModel::elmore(problem.netlist(), &dag, &tech).expect("model");
                black_box(model.num_vertices())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_substrates);
criterion_main!(benches);
