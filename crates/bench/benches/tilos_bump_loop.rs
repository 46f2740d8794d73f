//! Criterion bench of the TILOS bump loop: full runs to a bump-heavy
//! target just above each circuit's TILOS floor (where the sizer's
//! per-bump timing — not the flow solves — dominates), comparing the
//! cold reference path (two full timing passes per bump,
//! `TilosConfig::cold_timing`) against the incremental engine
//! (`mft_sta::IncrementalTiming`, O(affected cone) per bump).
//!
//! Both paths are bit-identical by construction (asserted at setup);
//! the bench measures the cost of that equivalence. Set
//! `MFT_BENCH_SMOKE=1` for the single-sample CI regression guard.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mft_bench::smoke;
use mft_circuit::SizingMode;
use mft_core::SizingProblem;
use mft_delay::Technology;
use mft_gen::{random_circuit, Benchmark, RandomCircuitConfig};
use mft_tilos::{TilosConfig, TilosError, TilosResult, TilosState};
use std::hint::black_box;

/// The tightest reachable target: advance a scratch trajectory to an
/// impossible spec and take the latched floor, padded 2% back inside
/// the reachable region. Nearly every bump of the trajectory is needed
/// to get there — the bump-heaviest workload the circuit supports.
fn bump_heavy_target(problem: &SizingProblem) -> f64 {
    match tilos_run(problem, TilosConfig::default(), 0.0) {
        Err(TilosError::Infeasible { best_delay, .. }) => best_delay * 1.02,
        other => panic!("expected a finite TILOS floor, got {other:?}"),
    }
}

/// One full TILOS run: a fresh trajectory advanced once to `target`.
fn tilos_run(
    problem: &SizingProblem,
    config: TilosConfig,
    target: f64,
) -> Result<TilosResult, TilosError> {
    let (dag, model) = (problem.dag(), problem.model());
    TilosState::new(dag, model, config)?.advance_to(dag, model, target)
}

fn bench_bump_loop(c: &mut Criterion) {
    let tech = Technology::cmos_130nm();
    let mut problems: Vec<(String, SizingProblem)> = vec![
        (
            "c432like".into(),
            SizingProblem::prepare(
                &Benchmark::C432.generate().unwrap(),
                &tech,
                SizingMode::Gate,
            )
            .unwrap(),
        ),
        (
            "c880like".into(),
            SizingProblem::prepare(
                &Benchmark::C880.generate().unwrap(),
                &tech,
                SizingMode::Gate,
            )
            .unwrap(),
        ),
    ];
    if !smoke() {
        // The larger circuits only outside CI smoke runs: the cold path
        // is (by design) slow here. c6288-like is the deep reconvergent
        // multiplier whose bump cones reach most of the circuit.
        for (name, bench) in [
            ("c6288like", Benchmark::C6288),
            ("c7552like", Benchmark::C7552),
        ] {
            problems.push((
                name.into(),
                SizingProblem::prepare(&bench.generate().unwrap(), &tech, SizingMode::Gate)
                    .unwrap(),
            ));
        }
        // Wide and local, like real layouts — fanout cones are a small
        // fraction of the circuit, which is the regime the incremental
        // engine targets.
        let cfg = RandomCircuitConfig {
            gates: 2000,
            inputs: 40,
            level_width: 100,
            locality: 3,
        };
        let netlist = random_circuit(7, &cfg).unwrap();
        problems.push((
            "rand2000w100".into(),
            SizingProblem::prepare(&netlist, &tech, SizingMode::Gate).unwrap(),
        ));
    }

    let mut group = c.benchmark_group("tilos_bump_loop");
    group.sample_size(if smoke() { 1 } else { 10 });
    for (name, problem) in &problems {
        let target = bump_heavy_target(problem);
        let cold_cfg = TilosConfig {
            cold_timing: true,
            ..Default::default()
        };
        // Equivalence gate: the two timing paths must agree bitwise.
        let warm = tilos_run(problem, TilosConfig::default(), target).unwrap();
        let cold = tilos_run(problem, cold_cfg.clone(), target).unwrap();
        assert_eq!(warm.bumps, cold.bumps, "{name}");
        for (a, b) in warm.sizes.iter().zip(cold.sizes.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{name}: sizes must match bitwise");
        }

        for (tag, config) in [("cold", cold_cfg), ("incremental", TilosConfig::default())] {
            group.bench_with_input(
                BenchmarkId::new(tag, format!("{name}/{}bumps", warm.bumps)),
                &config,
                |b, cfg| {
                    b.iter(|| {
                        let r = tilos_run(problem, cfg.clone(), target).expect("target reachable");
                        black_box(r.area)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_bump_loop);
criterion_main!(benches);
