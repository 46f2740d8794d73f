//! Property tests for the network simplex's warm-start path: after any
//! sequence of random cost/supply perturbations, a warm re-solve must
//! reproduce the reference solver's optimal flow value and still pass
//! the optimality certificate.

use mft_flow::{FlowNetwork, SimplexSolver, SolverStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random feasible-ish transshipment network: a cost-carrying ring
/// (guaranteeing strong connectivity) plus random chords, some with
/// finite capacities.
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

/// Applies a random cost (and occasionally supply) perturbation to both
/// a network and a persistent solver, keeping them in sync. The network
/// mirror is rebuilt (it is the immutable builder); the solver only
/// gets in-place cost and supply updates — that asymmetry is the point
/// of the test.
fn perturb(rng: &mut StdRng, net: &mut FlowNetwork, solver: &mut SimplexSolver) {
    let m = net.num_arcs();
    let n = net.num_nodes();
    // Rewrite a random subset of arc costs (the D-phase iteration
    // pattern: same graph, new integer costs).
    let mut costs: Vec<i64> = (0..m).map(|k| net.arc_info(k).3).collect();
    for _ in 0..rng.gen_range(1..=m) {
        let k = rng.gen_range(0..m);
        costs[k] = rng.gen_range(0..25);
    }
    // Occasionally shift supplies too (sensitivities change every
    // D-phase iteration).
    let mut supplies: Vec<f64> = (0..n).map(|v| net.supply(v)).collect();
    if rng.gen_bool(0.5) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            let delta = rng.gen_range(0.0..1.5);
            supplies[a] += delta;
            supplies[b] -= delta;
        }
    }
    let mut rebuilt = FlowNetwork::new(n);
    for (v, &s) in supplies.iter().enumerate() {
        rebuilt.set_supply(v, s);
        solver.set_supply(v, s);
    }
    for (k, &cost) in costs.iter().enumerate() {
        let (from, to, cap, _) = net.arc_info(k);
        rebuilt.add_arc(from, to, cap, cost).unwrap();
        solver.set_cost(k, cost).unwrap();
    }
    *net = rebuilt;
}

/// `net` with arc `k` re-priced to `cost`.
fn with_cost(net: &FlowNetwork, k: usize, cost: i64) -> FlowNetwork {
    let mut mirror = FlowNetwork::new(net.num_nodes());
    for v in 0..net.num_nodes() {
        mirror.set_supply(v, net.supply(v));
    }
    for arc in 0..net.num_arcs() {
        let (u, v, cap, c) = net.arc_info(arc);
        let c = if arc == k { cost } else { c };
        mirror.add_arc(u, v, cap, c).unwrap();
    }
    mirror
}

#[test]
fn simplex_warm_restarts_reproduce_cold_optimum() {
    let mut rng = StdRng::seed_from_u64(2002);
    for case in 0..12 {
        let n = rng.gen_range(4..12);
        let mut net = random_network(&mut rng, n);
        let mut solver = SimplexSolver::new(&net);
        solver.set_warm_start(true);
        // Initial solve primes the warm state.
        let first = solver.solve().unwrap();
        first.verify(&net).unwrap();
        for round in 0..6 {
            perturb(&mut rng, &mut net, &mut solver);
            let warm = solver.solve().unwrap();
            // The cold reference: a fresh reference solve of the
            // mirrored network.
            let cold = net.solve_reference().unwrap();
            cold.verify(&net).unwrap();
            warm.verify(&net).unwrap();
            assert!(
                (warm.total_cost - cold.total_cost).abs() < 1e-6 * (1.0 + cold.total_cost.abs()),
                "case {case} round {round}: warm {} vs cold {}",
                warm.total_cost,
                cold.total_cost
            );
        }
        let stats: SolverStats = solver.stats();
        assert_eq!(stats.total(), 7, "case {case}: {stats:?}");
        assert!(
            stats.warm_solves + stats.warm_fallbacks >= 6,
            "case {case}: warm attempts missing: {stats:?}"
        );
    }
}

/// The solver's warm-state controls behave as documented: warm starts
/// are off by default, `set_warm_start` turns them on, and
/// `invalidate()` forces the next solve cold even with warm enabled.
#[test]
fn invalidate_forces_a_cold_resolve() {
    let mut rng = StdRng::seed_from_u64(55);
    let net = random_network(&mut rng, 8);
    let mut solver = SimplexSolver::new(&net);
    assert_eq!(solver.num_nodes(), net.num_nodes());
    assert_eq!(solver.num_arcs(), net.num_arcs());
    solver.solve().unwrap();
    solver.solve().unwrap();
    assert_eq!(solver.stats().cold_solves, 2, "warm starts must be opt-in");
    solver.set_warm_start(true);
    solver.set_cost(0, 17).unwrap();
    let mirror = with_cost(&net, 0, 17);
    solver.invalidate();
    let second = solver.solve().unwrap();
    second.verify(&mirror).unwrap();
    let stats = solver.stats();
    assert_eq!(
        (stats.cold_solves, stats.warm_solves),
        (3, 0),
        "invalidate() must drop the warm state"
    );
    // And without invalidation the third solve runs warm.
    let third = solver.solve().unwrap();
    third.verify(&mirror).unwrap();
    assert_eq!(solver.stats().warm_solves, 1);
    assert!((third.total_cost - second.total_cost).abs() < 1e-9 * (1.0 + second.total_cost.abs()));
}

/// Warm re-solves after in-place cost rewrites certify against the
/// rewritten network.
#[test]
fn warm_certificates_verify_against_the_rewritten_network() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut net = random_network(&mut rng, 8);
    let mut solver = SimplexSolver::new(&net);
    solver.set_warm_start(true);
    for _ in 0..3 {
        let sol = solver.solve().unwrap();
        sol.verify(&net).unwrap();
        let k = rng.gen_range(0..net.num_arcs());
        let cost = rng.gen_range(0..30);
        solver.set_cost(k, cost).unwrap();
        net = with_cost(&net, k, cost);
    }
}
