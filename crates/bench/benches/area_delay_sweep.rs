//! Criterion bench of session sweeps: an ISCAS-scale 8-point area–delay
//! sweep, one new session per spec (nothing carried between points) vs
//! one session per run (TILOS trajectory + shared solvers + simplex
//! tree reuse) vs one session with worker threads.
//!
//! Set `MFT_BENCH_SMOKE=1` to run at the vendored harness's minimum
//! sample count (two samples plus one calibration iteration per
//! configuration) — the CI regression guard for the warm path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mft_bench::smoke;
use mft_circuit::SizingMode;
use mft_core::{SessionConfig, SizingProblem, SweepOutcome};
use mft_delay::Technology;
use mft_gen::Benchmark;
use std::hint::black_box;

const SPECS: [f64; 8] = [0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6];

fn total_area(outcomes: &[SweepOutcome]) -> f64 {
    outcomes
        .iter()
        .map(|o| match o {
            SweepOutcome::Point(p) => p.mft_area_ratio,
            SweepOutcome::Unreachable { .. } => 0.0,
        })
        .sum()
}

fn bench_sweep(c: &mut Criterion) {
    let netlist = Benchmark::C432.generate().expect("generator valid");
    let problem = SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate)
        .expect("prepares");
    let mut group = c.benchmark_group("area_delay_sweep");
    group.sample_size(if smoke() { 1 } else { 10 });
    group.bench_function(BenchmarkId::new("fresh_per_point", SPECS.len()), |b| {
        b.iter(|| {
            let area: f64 = SPECS
                .iter()
                .map(|&spec| {
                    let outcomes = problem
                        .session(SessionConfig::warm())
                        .sweep(&[spec])
                        .expect("sweep succeeds");
                    total_area(&outcomes)
                })
                .sum();
            black_box(area)
        })
    });
    for (tag, jobs) in [("warm", 1), ("warm_jobs4", 4)] {
        group.bench_with_input(BenchmarkId::new(tag, SPECS.len()), &jobs, |b, &jobs| {
            b.iter(|| {
                let outcomes = problem
                    .session(SessionConfig::warm().with_jobs(jobs))
                    .sweep(&SPECS)
                    .expect("sweep succeeds");
                black_box(total_area(&outcomes))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
