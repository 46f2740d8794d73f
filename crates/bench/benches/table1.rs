//! Criterion bench regenerating Table 1 rows (small circuits only — the
//! full table is produced by the `table1` binary).
//!
//! Each benchmark measures the complete pipeline for one row: TILOS seed
//! plus MINFLOTRANSIT refinement at the paper's delay specification.

use criterion::{criterion_group, criterion_main, Criterion};
use mft_circuit::SizingMode;
use mft_core::{Minflotransit, MinflotransitConfig, SessionConfig, SizingProblem};
use mft_delay::Technology;
use mft_gen::Benchmark;
use std::hint::black_box;

fn bench_table1_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_rows");
    group.sample_size(10);
    for bench in [Benchmark::Adder32, Benchmark::C432, Benchmark::C880] {
        let netlist = bench.generate().expect("generator is valid");
        let tech = Technology::cmos_130nm();
        let problem =
            SizingProblem::prepare(&netlist, &tech, SizingMode::Gate).expect("pipeline builds");
        let target = bench.paper_spec() * problem.dmin();
        // A cold session runs every TILOS request from a fresh state.
        let mut session = problem.session(SessionConfig::cold());

        group.bench_function(format!("{}_tilos", bench.name()), |b| {
            b.iter(|| {
                let r = session.tilos_to(black_box(target)).expect("spec reachable");
                black_box(r.area)
            })
        });

        let seed = session.tilos_to(target).expect("spec reachable");
        group.bench_function(format!("{}_mft_refine", bench.name()), |b| {
            b.iter(|| {
                let sol = Minflotransit::new(MinflotransitConfig::default())
                    .optimize_from(
                        problem.dag(),
                        problem.model(),
                        black_box(target),
                        seed.sizes.clone(),
                    )
                    .expect("refinement succeeds");
                black_box(sol.area)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table1_rows);
criterion_main!(benches);
