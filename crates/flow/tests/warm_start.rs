//! Property tests for the network simplex's warm-start path: after any
//! sequence of random cost/supply perturbations, a warm re-solve must
//! reproduce the reference solver's optimal flow value and still pass
//! the optimality certificate; on integral difference-constraint LPs a
//! warm solve must return the very `r` a fresh solver returns; and the
//! certificate must read the residual graph of an integral instance
//! exactly.

use mft_flow::{DualLp, DualSolver, FlowNetwork, SimplexSolver, SolverStats};
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

/// The solver's warm-state controls behave as documented: the first
/// solve runs cold, every later one warm-starts from the basis the
/// previous solve left, and `invalidate()` forces the next solve cold.
#[test]
fn invalidate_forces_a_cold_resolve() {
    let mut rng = StdRng::seed_from_u64(55);
    let net = random_network(&mut rng, 8);
    let mut solver = SimplexSolver::new(&net);
    assert_eq!(solver.num_nodes(), net.num_nodes());
    assert_eq!(solver.num_arcs(), net.num_arcs());
    solver.solve().unwrap();
    solver.solve().unwrap();
    let stats = solver.stats();
    assert_eq!(
        (stats.cold_solves, stats.warm_solves),
        (1, 1),
        "a held basis warm-starts the next solve"
    );
    solver.set_cost(0, 17).unwrap();
    let mirror = with_cost(&net, 0, 17);
    solver.invalidate();
    let second = solver.solve().unwrap();
    second.verify(&mirror).unwrap();
    let stats = solver.stats();
    assert_eq!(
        (stats.cold_solves, stats.warm_solves),
        (2, 1),
        "invalidate() must drop the warm state"
    );
    // And without invalidation the next solve runs warm again, to the
    // same optimum and the same certificate potentials.
    let third = solver.solve().unwrap();
    third.verify(&mirror).unwrap();
    assert_eq!(solver.stats().warm_solves, 2);
    assert!((third.total_cost - second.total_cost).abs() < 1e-9 * (1.0 + second.total_cost.abs()));
    assert_eq!(third.potentials, second.potentials);
}

/// Warm re-solves after in-place cost rewrites certify against the
/// rewritten network.
#[test]
fn warm_certificates_verify_against_the_rewritten_network() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut net = random_network(&mut rng, 8);
    let mut solver = SimplexSolver::new(&net);
    for _ in 0..3 {
        let sol = solver.solve().unwrap();
        sol.verify(&net).unwrap();
        let k = rng.gen_range(0..net.num_arcs());
        let cost = rng.gen_range(0..30);
        solver.set_cost(k, cost).unwrap();
        net = with_cost(&net, k, cost);
    }
}

/// The constraint graph of a tie-heavy difference-constraint LP over
/// `n` variables (0 is ground): a box `|r_v| ≤ 4` keeps every instance
/// bounded and feasible at `r = 0`, and random chords with bounds in
/// `0..3` make many constraints tight at once.
fn tie_heavy_graph(rng: &mut StdRng, n: usize) -> Vec<(usize, usize)> {
    let mut arcs = Vec::new();
    for v in 1..n {
        arcs.push((v, 0));
        arcs.push((0, v));
    }
    for _ in 0..2 * n {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            arcs.push((u, v));
        }
    }
    arcs
}

/// One integral instance on `arcs`: its bounds (box arcs first, at 4)
/// and integer objective coefficients in `-2..=2`, so many vertices
/// of the LP are optimal at once.
fn tie_heavy_instance(rng: &mut StdRng, n: usize, arcs: &[(usize, usize)]) -> (Vec<i64>, Vec<f64>) {
    let bounds = (0..arcs.len())
        .map(|k| {
            if k < 2 * (n - 1) {
                4
            } else {
                rng.gen_range(0..3)
            }
        })
        .collect();
    let objective = (0..n)
        .map(|v| {
            if v == 0 {
                0.0
            } else {
                rng.gen_range(-2i32..=2) as f64
            }
        })
        .collect();
    (bounds, objective)
}

/// Writes one instance into a persistent solver over the same graph.
fn load(solver: &mut DualSolver, (bounds, objective): &(Vec<i64>, Vec<f64>)) {
    for (k, &b) in bounds.iter().enumerate() {
        solver.set_bound(k, b).unwrap();
    }
    for (v, &b) in objective.iter().enumerate() {
        solver.set_objective(v, b);
    }
}

/// A fresh solver for one instance.
fn fresh(n: usize, arcs: &[(usize, usize)], instance: &(Vec<i64>, Vec<f64>)) -> DualSolver {
    let mut lp = DualLp::new(n);
    for (&(u, v), &b) in arcs.iter().zip(&instance.0) {
        lp.add_constraint(u, v, b).unwrap();
    }
    for (v, &b) in instance.1.iter().enumerate() {
        lp.add_objective(v, b);
    }
    lp.into_solver(0).unwrap()
}

/// On integral, degenerate LPs the optimal `r` a solve returns does
/// not depend on the basis it started from: a fresh solver and a
/// persistent one that has just warm-solved unrelated instances on the
/// same graph return bit-identical `r`.
#[test]
fn warm_r_is_bit_identical_to_a_fresh_solve_on_integral_lps() {
    let mut rng = StdRng::seed_from_u64(2028);
    let mut warm_solves = 0;
    let mut compared = 0;
    for _ in 0..20 {
        let n = rng.gen_range(5..16);
        let arcs = tie_heavy_graph(&mut rng, n);
        let instances: Vec<_> = (0..6)
            .map(|_| tie_heavy_instance(&mut rng, n, &arcs))
            .collect();
        let want: Vec<Vec<i64>> = instances
            .iter()
            .map(|inst| {
                let mut solver = fresh(n, &arcs, inst);
                let sol = solver.maximize().unwrap();
                solver.verify(&sol).unwrap();
                sol.r
            })
            .collect();
        let mut persistent = fresh(n, &arcs, &instances[0]);
        for round in 0..3 {
            // Visit the instances in a different order each round, so
            // each one is warm-started from a different basis.
            for i in 0..instances.len() {
                let i = (i * (round + 1) + round) % instances.len();
                load(&mut persistent, &instances[i]);
                let sol = persistent.maximize().unwrap();
                persistent.verify(&sol).unwrap();
                assert_eq!(sol.r, want[i], "instance {i}, round {round}");
                compared += 1;
            }
        }
        let stats = persistent.stats();
        assert_eq!(stats.cold_solves, 1, "{stats:?}");
        warm_solves += stats.warm_solves;
    }
    assert!(
        compared >= 300 && warm_solves >= 300,
        "{compared} compared, {warm_solves} warm"
    );
}

/// The certificate reads an integral instance's residual graph
/// exactly: with a source supply of 1e13, an arc carrying 2 units keeps
/// its backward residual arc, so the potentials give it reduced cost 0.
/// (A tolerance relative to the total supply would close that arc and
/// lift its tail's potential, leaving reduced cost 4.)
#[test]
fn certificate_is_exact_on_integral_instances_with_huge_supplies() {
    let big = 1e13;
    let mut net = FlowNetwork::new(3);
    net.set_supply(0, big);
    net.set_supply(1, -(big - 2.0));
    net.set_supply(2, -2.0);
    net.add_arc(0, 1, f64::INFINITY, 1).unwrap();
    let small = net.add_arc(0, 2, f64::INFINITY, 5).unwrap();
    net.add_arc(1, 2, f64::INFINITY, 10).unwrap();
    for sol in [net.solve().unwrap(), net.solve_reference().unwrap()] {
        sol.verify(&net).unwrap();
        assert_eq!(sol.flows[small], 2.0);
        for (k, &f) in sol.flows.iter().enumerate() {
            if f > 0.0 {
                let (u, v, _, cost) = net.arc_info(k);
                let rc = cost + sol.potentials[u] - sol.potentials[v];
                assert_eq!(rc, 0, "arc {k} carries {f} at reduced cost {rc}");
            }
        }
    }
}
