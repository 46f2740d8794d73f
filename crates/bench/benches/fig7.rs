//! Criterion bench regenerating Figure 7 points: one TILOS-vs-MFT
//! trade-off point for the c432-like circuit at several specs (the full
//! curves are produced by the `fig7` binary).

use criterion::{criterion_group, criterion_main, Criterion};
use mft_circuit::SizingMode;
use mft_core::{SessionConfig, SizingProblem};
use mft_delay::Technology;
use mft_gen::Benchmark;
use std::hint::black_box;

fn bench_fig7_points(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_points");
    group.sample_size(10);
    let netlist = Benchmark::C432.generate().expect("generator is valid");
    let tech = Technology::cmos_130nm();
    let problem =
        SizingProblem::prepare(&netlist, &tech, SizingMode::Gate).expect("pipeline builds");
    for spec in [0.8, 0.6, 0.45] {
        group.bench_function(format!("c432_point_{spec}"), |b| {
            b.iter(|| {
                let outcomes = problem
                    .session(SessionConfig::warm())
                    .sweep(black_box(&[spec]))
                    .expect("sweep runs");
                black_box(outcomes.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig7_points);
criterion_main!(benches);
