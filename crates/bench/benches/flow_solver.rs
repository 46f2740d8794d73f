//! Criterion bench of the min-cost flow substrate: the network simplex
//! on random transshipment networks, the D-phase LP dual, and the
//! cold-rebuild vs incremental-reuse comparison for the optimizer's
//! iteration cost-update pattern.
//!
//! Set `MFT_BENCH_SMOKE=1` for the single-sample CI run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mft_bench::smoke;
use mft_flow::{DualLp, FlowNetwork, SimplexSolver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_network(nodes: usize, arcs_per_node: usize, seed: u64) -> FlowNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = FlowNetwork::new(nodes);
    let mut total = 0.0;
    for v in 0..nodes - 1 {
        let s = rng.gen_range(-2.0..2.0);
        net.set_supply(v, s);
        total += s;
    }
    net.set_supply(nodes - 1, -total);
    // A connected ring plus random chords keeps instances feasible.
    for v in 0..nodes {
        net.add_arc(v, (v + 1) % nodes, f64::INFINITY, rng.gen_range(0..10))
            .expect("valid arc");
        net.add_arc((v + 1) % nodes, v, f64::INFINITY, rng.gen_range(0..10))
            .expect("valid arc");
        for _ in 0..arcs_per_node {
            let u = rng.gen_range(0..nodes);
            if u != v {
                net.add_arc(v, u, f64::INFINITY, rng.gen_range(0..20))
                    .expect("valid arc");
            }
        }
    }
    net
}

fn bench_flow(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_solver");
    group.sample_size(if smoke() { 1 } else { 20 });
    for nodes in [100usize, 400, 1600] {
        let net = random_network(nodes, 3, 7);
        group.bench_with_input(
            BenchmarkId::new("simplex_dantzig", nodes),
            &nodes,
            |b, _| {
                b.iter(|| {
                    let sol = net.solve().expect("feasible");
                    black_box(sol.total_cost)
                })
            },
        );
    }
    group.finish();
    // The LP-dual path used by the D-phase: freeze the LP into a solver
    // and solve it once, cold.
    let mut group = c.benchmark_group("dual_lp");
    group.sample_size(if smoke() { 1 } else { 20 });
    for vars in [100usize, 400] {
        let mut rng = StdRng::seed_from_u64(11);
        let mut lp = DualLp::new(vars);
        for v in 1..vars {
            lp.add_constraint(v, 0, 50).expect("valid");
            lp.add_constraint(0, v, 50).expect("valid");
            lp.add_objective(v, rng.gen_range(-1.0..1.0));
        }
        for _ in 0..vars * 2 {
            let u = rng.gen_range(0..vars);
            let v = rng.gen_range(0..vars);
            if u != v {
                lp.add_constraint(u, v, rng.gen_range(0..30))
                    .expect("valid");
            }
        }
        group.bench_with_input(BenchmarkId::new("dual_lp", vars), &vars, |b, _| {
            b.iter(|| {
                let mut solver = lp.clone().into_solver(0).expect("valid");
                let sol = solver.maximize().expect("bounded");
                black_box(sol.objective)
            })
        });
    }
    group.finish();
}

/// The optimizer's inner-loop pattern: the same constraint graph is
/// re-solved `ITERS` times with drifting integer bounds and a drifting
/// objective (trust-region, FSDU and sensitivity updates).
/// "cold_rebuild" reconstructs the LP and its flow network from scratch
/// each round (the pre-refactor per-iteration cost); "incremental_reuse"
/// holds one persistent `DualSolver`, rewrites bounds/objective in place
/// and warm-starts each re-solve: the network simplex's spanning-tree
/// warm start (with basis repair) is what amortizes the iteration
/// pattern.
fn bench_iteration_pattern(c: &mut Criterion) {
    const ITERS: usize = 10;
    let mut group = c.benchmark_group("dphase_iteration_pattern");
    group.sample_size(if smoke() { 1 } else { 10 });
    for vars in [100usize, 400, 1600] {
        // Fixed constraint graph (arcs) + per-iteration bound and
        // objective schedules, precomputed so both paths replay
        // identical work.
        let mut rng = StdRng::seed_from_u64(500 + vars as u64);
        let mut arcs: Vec<(usize, usize)> = Vec::new();
        for v in 1..vars {
            arcs.push((v, 0));
            arcs.push((0, v));
        }
        for _ in 0..vars * 2 {
            let u = rng.gen_range(0..vars);
            let v = rng.gen_range(0..vars);
            if u != v {
                arcs.push((u, v));
            }
        }
        let base_bounds: Vec<i64> = arcs.iter().map(|_| 50 + rng.gen_range(0i64..30)).collect();
        let base_obj: Vec<f64> = (0..vars).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let schedules: Vec<(Vec<i64>, Vec<f64>)> = (0..ITERS)
            .map(|_| {
                let bounds: Vec<i64> = base_bounds
                    .iter()
                    .map(|&b| (b + rng.gen_range(-3i64..4)).max(0))
                    .collect();
                let objective: Vec<f64> = base_obj
                    .iter()
                    .map(|&o| o + rng.gen_range(-0.05..0.05))
                    .collect();
                (bounds, objective)
            })
            .collect();

        group.bench_with_input(
            BenchmarkId::new("cold_rebuild_simplex", vars),
            &vars,
            |b, _| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for (bounds, objective) in &schedules {
                        let mut lp = DualLp::new(vars);
                        for (&(u, v), &bound) in arcs.iter().zip(bounds.iter()) {
                            lp.add_constraint(u, v, bound).expect("valid");
                        }
                        for (v, &ob) in objective.iter().enumerate().skip(1) {
                            lp.add_objective(v, ob);
                        }
                        let mut solver = lp.into_solver(0).expect("valid");
                        acc += solver.maximize().expect("bounded").objective;
                    }
                    black_box(acc)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("incremental_reuse_simplex", vars),
            &vars,
            |b, _| {
                b.iter(|| {
                    let mut lp = DualLp::new(vars);
                    for &(u, v) in &arcs {
                        lp.add_constraint(u, v, 0).expect("valid");
                    }
                    let mut solver = lp.into_solver(0).expect("valid");
                    let mut acc = 0.0;
                    for (bounds, objective) in &schedules {
                        for (k, &bound) in bounds.iter().enumerate() {
                            solver.set_bound(k, bound).expect("valid");
                        }
                        for (v, &ob) in objective.iter().enumerate().skip(1) {
                            solver.set_objective(v, ob);
                        }
                        acc += solver.maximize().expect("bounded").objective;
                    }
                    black_box(acc)
                })
            },
        );
    }
    group.finish();

    // The raw-flow layer view of the same pattern: persistent simplex
    // cost updates (spanning-tree warm starts) vs full rebuild + cold
    // solve each round.
    let mut group = c.benchmark_group("flow_cost_update_pattern");
    group.sample_size(if smoke() { 1 } else { 10 });
    for nodes in [100usize, 400] {
        let net = random_network(nodes, 3, 7);
        let m = net.num_arcs();
        let mut rng = StdRng::seed_from_u64(nodes as u64);
        let schedules: Vec<Vec<i64>> = (0..8)
            .map(|_| {
                (0..m)
                    .map(|k| net.arc_info(k).3 + rng.gen_range(0i64..3))
                    .collect()
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("cold_rebuild", nodes), &nodes, |b, _| {
            b.iter(|| {
                let mut acc = 0.0;
                for costs in &schedules {
                    let mut fresh = FlowNetwork::new(nodes);
                    for v in 0..nodes {
                        fresh.set_supply(v, net.supply(v));
                    }
                    for (k, &cost) in costs.iter().enumerate() {
                        let (u, v, cap, _) = net.arc_info(k);
                        fresh.add_arc(u, v, cap, cost).expect("valid");
                    }
                    acc += fresh.solve().expect("feasible").total_cost;
                }
                black_box(acc)
            })
        });
        group.bench_with_input(
            BenchmarkId::new("incremental_reuse", nodes),
            &nodes,
            |b, _| {
                b.iter(|| {
                    let mut solver = SimplexSolver::new(&net);
                    let mut acc = 0.0;
                    for costs in &schedules {
                        for (k, &cost) in costs.iter().enumerate() {
                            solver.set_cost(k, cost).expect("valid");
                        }
                        acc += solver.solve().expect("feasible").total_cost;
                    }
                    black_box(acc)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_flow, bench_iteration_pattern);
criterion_main!(benches);
