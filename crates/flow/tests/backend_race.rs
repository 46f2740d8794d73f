//! Property tests racing the network simplex against the reference
//! solver on random feasible networks.
//!
//! Degenerate optima may differ by vertex between the two, so flows
//! are *not* compared directly. What must agree:
//!
//! * the optimal **cost** (unique even when the argmin is not);
//! * each solution's own certificate ([`FlowSolution::verify`]:
//!   bounds, conservation, reduced-cost optimality);
//! * **complementary slackness against the reference solver's certified
//!   potentials** — any optimal flow must pair with any optimal
//!   potentials, so a simplex flow that fails the cross-check is a
//!   non-optimal vertex even if its cost looks right.

use mft_flow::{FlowNetwork, FlowSolution, SimplexSolver};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random balanced network, guaranteed feasible by an expensive
/// uncapacitated ring over all nodes; random arcs (30% capacitated)
/// provide the interesting structure.
fn random_feasible_net(seed: u64, n: usize, extra_arcs: usize) -> FlowNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = FlowNetwork::new(n);
    let mut total = 0.0;
    for v in 0..n - 1 {
        let s = (rng.gen_range(-30i64..30) as f64) / 4.0;
        net.set_supply(v, s);
        total += s;
    }
    net.set_supply(n - 1, -total);
    for v in 0..n {
        net.add_arc(v, (v + 1) % n, f64::INFINITY, 40).unwrap();
    }
    for _ in 0..extra_arcs {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let cap = if rng.gen_bool(0.3) {
            rng.gen_range(0.5..6.0)
        } else {
            f64::INFINITY
        };
        net.add_arc(u, v, cap, rng.gen_range(0..25)).unwrap();
    }
    net
}

/// `net` with arc `k` costing `costs[k]` and node `v` supplying
/// `supplies[v]`: the one-shot mirror of a rewritten persistent solver.
fn rewritten(net: &FlowNetwork, costs: &[i64], supplies: &[f64]) -> FlowNetwork {
    let mut mirror = FlowNetwork::new(net.num_nodes());
    for (v, &s) in supplies.iter().enumerate() {
        mirror.set_supply(v, s);
    }
    for (k, &cost) in costs.iter().enumerate() {
        let (u, v, cap, _) = net.arc_info(k);
        mirror.add_arc(u, v, cap, cost).unwrap();
    }
    mirror
}

/// Complementary slackness of `sol`'s flow against independently
/// certified optimal potentials: `rc > 0` forces flow to the lower
/// bound, `rc < 0` to the upper.
fn check_slackness(
    net: &FlowNetwork,
    sol: &FlowSolution,
    certified: &[i64],
    label: &str,
) -> Result<(), TestCaseError> {
    let tol = 1e-6 * (1.0 + sol.shipped);
    for k in 0..net.num_arcs() {
        let (u, v, cap, cost) = net.arc_info(k);
        let rc = cost + certified[u] - certified[v];
        let f = sol.flows[k];
        prop_assert!(
            rc <= 0 || f <= tol,
            "{label} arc {k}: rc {rc} > 0 but flow {f} off lower bound"
        );
        prop_assert!(
            rc >= 0 || (cap - f).abs() <= tol,
            "{label} arc {k}: rc {rc} < 0 but flow {f} below cap {cap}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simplex_finds_the_reference_optimum(seed in 0u64..1_000_000, n in 4usize..14) {
        let net = random_feasible_net(seed, n, 3 * n);
        let want = net.solve_reference().unwrap();
        want.verify(&net).unwrap();
        let got = net.solve().unwrap();
        got.verify(&net).unwrap();
        prop_assert!(
            (got.total_cost - want.total_cost).abs() < 1e-6 * (1.0 + want.total_cost.abs()),
            "simplex cost {} vs reference {}",
            got.total_cost,
            want.total_cost
        );
        check_slackness(&net, &got, &want.potentials, "simplex")?;
    }

    #[test]
    fn warm_simplex_tracks_rewrites(seed in 0u64..1_000_000, n in 4usize..12) {
        let net = random_feasible_net(seed, n, 2 * n);
        let mut drift = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
        // The warm simplex takes the rewrites in place; a mirror network
        // with the same costs and supplies goes to the (always cold)
        // reference.
        let mut simplex = SimplexSolver::new(&net);
        simplex.set_warm_start(true);
        simplex.solve().unwrap();
        let mut costs: Vec<i64> = (0..net.num_arcs()).map(|k| net.arc_info(k).3).collect();
        let mut supplies: Vec<f64> = (0..n).map(|v| net.supply(v)).collect();
        for _round in 0..4 {
            // The D-phase rewrite pattern: bounds (costs) drift, and the
            // objective (supplies) rescales while staying balanced.
            let cost_deltas: Vec<i64> =
                (0..net.num_arcs()).map(|_| drift.gen_range(-3i64..=3)).collect();
            let supply_deltas: Vec<f64> =
                (0..n - 1).map(|_| drift.gen_range(-0.5..0.5)).collect();
            for (k, d) in cost_deltas.iter().enumerate() {
                costs[k] = (costs[k] + d).max(0);
                simplex.set_cost(k, costs[k]).unwrap();
            }
            let mut shift = 0.0;
            for (v, d) in supply_deltas.iter().enumerate() {
                supplies[v] += d;
                shift += d;
            }
            supplies[n - 1] -= shift;
            for (v, &s) in supplies.iter().enumerate() {
                simplex.set_supply(v, s);
            }
            let mirror = rewritten(&net, &costs, &supplies);
            let want = mirror.solve_reference().unwrap();
            want.verify(&mirror).unwrap();
            let got = simplex.solve().unwrap();
            got.verify(&mirror).unwrap();
            prop_assert!(
                (got.total_cost - want.total_cost).abs() < 1e-6 * (1.0 + want.total_cost.abs()),
                "warm simplex cost {} vs reference {}",
                got.total_cost,
                want.total_cost
            );
        }
        let stats = simplex.stats();
        prop_assert!(stats.warm_solves + stats.warm_fallbacks == 4, "{:?}", stats);
    }
}
