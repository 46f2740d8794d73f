//! Pins the exact pivot sequence of the network simplex.
//!
//! The network simplex keeps its spanning tree incrementally between
//! pivots; the tree it keeps must be the one a from-scratch rebuild
//! would produce, so the entering/leaving sequence never depends on how
//! the tree is maintained. These pins record `SolverStats::{pivots,
//! arcs_scanned}` (reduced costs the pricing computed) over a cold solve
//! plus warm re-solves (cost rewrites, supply drift, finite capacities
//! that force warm repairs through artificial arcs) on seeded random
//! networks. Any change to tie-breaking, pricing order or the tree
//! update shows up as a count mismatch here before it reaches a golden.

use mft_flow::{FlowNetwork, SimplexSolver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A strongly connected network (a ring both ways) plus random chords,
/// a quarter of them capacitated.
fn random_network(rng: &mut StdRng, n: usize) -> FlowNetwork {
    let mut net = FlowNetwork::new(n);
    let mut total = 0.0;
    for v in 0..n - 1 {
        let s = rng.gen_range(-3.0..3.0);
        net.set_supply(v, s);
        total += s;
    }
    net.set_supply(n - 1, -total);
    for v in 0..n {
        net.add_arc(v, (v + 1) % n, f64::INFINITY, rng.gen_range(0..10))
            .unwrap();
        net.add_arc((v + 1) % n, v, f64::INFINITY, rng.gen_range(0..10))
            .unwrap();
        for _ in 0..2 {
            let u = rng.gen_range(0..n);
            if u != v {
                let cap = if rng.gen_bool(0.25) {
                    rng.gen_range(0.5..4.0)
                } else {
                    f64::INFINITY
                };
                net.add_arc(v, u, cap, rng.gen_range(0..20)).unwrap();
            }
        }
    }
    net
}

/// One cold solve and five warm re-solves of a seeded network; returns
/// the solver's cumulative `(pivots, arcs_scanned, warm_repairs)`.
fn pivot_counts(seed: u64) -> (usize, usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = random_network(&mut rng, 48);
    let mut solver = SimplexSolver::new(&net);
    solver.solve().unwrap();
    for round in 0..5 {
        let m = solver.num_arcs();
        for _ in 0..m / 3 {
            let k = rng.gen_range(0..m);
            solver.set_cost(k, rng.gen_range(0..25)).unwrap();
        }
        if round % 2 == 1 {
            let n = solver.num_nodes();
            let mut shift = 0.0;
            for v in 0..n - 1 {
                let d = rng.gen_range(-0.5..0.5);
                let s = solver.supply(v);
                solver.set_supply(v, s + d);
                shift += d;
            }
            let last = solver.supply(n - 1);
            solver.set_supply(n - 1, last - shift);
        }
        solver.solve().unwrap();
    }
    let stats = solver.stats();
    assert_eq!(stats.total(), 6, "seed {seed}: {stats:?}");
    (stats.pivots, stats.arcs_scanned, stats.warm_repairs)
}

/// `(seed, (pivots, arcs_scanned, warm_repairs))`. The supplies are
/// fractional, so a warm install's flows depend on the order its float
/// sums take: the leaf-to-root order of a walk of the tree's child lists.
const RECORDED: [(u64, (usize, usize, usize)); 4] = [
    (1, (171, 19866, 2)),
    (2, (154, 15680, 2)),
    (3, (154, 18736, 2)),
    (4, (175, 21177, 2)),
];

#[test]
fn pivot_counts_match_the_recorded_sequence() {
    for (seed, want) in RECORDED {
        assert_eq!(
            pivot_counts(seed),
            want,
            "seed {seed}: (pivots, arcs_scanned, warm_repairs)"
        );
    }
}
