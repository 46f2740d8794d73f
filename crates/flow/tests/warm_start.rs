//! Property tests for the network simplex's warm-start path: after any
//! sequence of random cost/supply perturbations, a warm re-solve must
//! reproduce the reference solver's optimal flow value and still pass
//! the optimality certificate.

use mft_flow::{FlowNetwork, McfSolver, ReferenceSolver, SimplexSolver, SolverStats};
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
/// a network and a persistent solver's layer, keeping them in sync.
/// The network mirror is rebuilt (it is the immutable builder); the
/// solver only gets in-place layer updates — that asymmetry is the
/// point of the test.
fn perturb(rng: &mut StdRng, net: &mut FlowNetwork, solver: &mut dyn McfSolver) {
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
        solver.layer_mut().set_supply(v, s);
    }
    for (k, &cost) in costs.iter().enumerate() {
        let (from, to, cap, _) = net.arc_info(k);
        rebuilt.add_arc(from, to, cap, cost).unwrap();
        solver.layer_mut().set_cost(k, cost).unwrap();
    }
    *net = rebuilt;
}

fn check_backend<F>(make: F, expect_warm: bool, seed: u64)
where
    F: Fn(&FlowNetwork) -> Box<dyn McfSolver>,
{
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..12 {
        let n = rng.gen_range(4..12);
        let mut net = random_network(&mut rng, n);
        let mut solver = make(&net);
        solver.set_warm_start(true);
        // Initial solve primes the warm state.
        let first = solver.solve().unwrap();
        first.verify(&net).unwrap();
        for round in 0..6 {
            perturb(&mut rng, &mut net, solver.as_mut());
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
        if expect_warm {
            assert!(
                stats.warm_solves + stats.warm_fallbacks >= 6,
                "case {case}: warm attempts missing: {stats:?}"
            );
        }
    }
}

#[test]
fn simplex_warm_restarts_reproduce_cold_optimum() {
    check_backend(|net| Box::new(SimplexSolver::new(net)), true, 2002);
}

#[test]
fn reference_backend_stays_interchangeable() {
    // The reference solver has no warm state, but must satisfy the same
    // McfSolver contract under the same perturbation schedule.
    check_backend(|net| Box::new(ReferenceSolver::new(net)), false, 3003);
}

/// The trait's warm-state controls behave as documented: warm starts
/// are off by default, `set_warm_start` flips the readable flag, and
/// `invalidate()` forces the next solve cold even with warm enabled.
#[test]
fn invalidate_forces_a_cold_resolve() {
    let mut rng = StdRng::seed_from_u64(55);
    let net = random_network(&mut rng, 8);
    let mut solver = SimplexSolver::new(&net);
    assert!(!solver.warm_start(), "warm starts must be opt-in");
    assert_eq!(solver.topology().num_nodes(), net.num_nodes());
    assert_eq!(solver.topology().num_arcs(), net.num_arcs());
    solver.set_warm_start(true);
    assert!(solver.warm_start());
    solver.solve().unwrap();
    solver.layer_mut().set_cost(0, 17).unwrap();
    solver.invalidate();
    let second = solver.solve().unwrap();
    second.verify(&solver).unwrap();
    let stats = solver.stats();
    assert_eq!(
        (stats.cold_solves, stats.warm_solves),
        (2, 0),
        "invalidate() must drop the warm state"
    );
    // And without invalidation the third solve runs warm.
    let third = solver.solve().unwrap();
    third.verify(&solver).unwrap();
    assert_eq!(solver.stats().warm_solves, 1);
    assert!((third.total_cost - second.total_cost).abs() < 1e-9 * (1.0 + second.total_cost.abs()));
}

/// Certificate checking works directly against the solver instance view
/// (not just the originating FlowNetwork).
#[test]
fn certificates_verify_against_the_solver_view() {
    let mut rng = StdRng::seed_from_u64(4);
    let net = random_network(&mut rng, 8);
    let mut solver = SimplexSolver::new(&net);
    solver.set_warm_start(true);
    for _ in 0..3 {
        let sol = solver.solve().unwrap();
        sol.verify(&solver).unwrap();
        let k = rng.gen_range(0..net.num_arcs());
        solver
            .layer_mut()
            .set_cost(k, rng.gen_range(0..30))
            .unwrap();
    }
}
