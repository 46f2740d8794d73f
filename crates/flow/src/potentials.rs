//! Clean certificate potentials recomputed from an optimal flow.
//!
//! The simplex tree potentials carry big-`M` offsets from artificial
//! arcs, which amplify floating-point supply dust into visible duality
//! gaps. The solvers therefore return potentials derived from the
//! optimal flow alone: shortest-walk distances over the residual graph
//! of the *real* arcs, from a virtual source joined to every node at
//! zero cost (all labels start at 0). Shortest-path distances are
//! unique, so any correct shortest-path method yields the same `i64`
//! labels.
//!
//! [`CertificatePotentials`] runs one Dijkstra pass, made valid for
//! negative costs by Johnson's reweighting with the optimal tree
//! potentials `π`: every open residual arc has reduced cost
//! `c + π(u) − π(v) ≥ 0` at optimality, so keys `label − π` never drop
//! once settled. Tree arcs have reduced cost zero, so a settled node's
//! zero-reduced-cost neighbours share its key and are settled at once,
//! without a heap operation. The starting keys are sorted once, so only
//! keys improved through a positive-reduced-cost arc go through a
//! binary heap. Every open arc is scanned once, from its settled tail, which
//! also checks the potentials: a negative reduced cost means `π` is not
//! optimal for the flow.

use crate::error::FlowError;
use crate::topology::{CostLayer, NetworkTopology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Dijkstra scratch kept across solves.
#[derive(Debug, Clone, Default)]
pub(crate) struct CertificatePotentials {
    /// Every node by its starting key `0 − π`, ascending.
    starts: Vec<u32>,
    /// Improved `(label − π, node)` keys, lazily deleted.
    heap: BinaryHeap<Reverse<(i64, u32)>>,
    /// Whether each node's label is final.
    settled: Vec<bool>,
    /// Settled nodes awaiting their scan, all at the current key.
    level: Vec<u32>,
}

impl CertificatePotentials {
    /// Shortest-walk labels over the residual graph of `flow`, from
    /// all-zero starts, with `pi` (one entry per public node at least)
    /// as the Johnson reweighting.
    ///
    /// Keys and reduced costs are `i64`: the simplex bounds its tree
    /// potentials by twice its big-`M` cost, at most `i64::MAX / 4`, and
    /// a label by `nodes · max|cost|`, which big-`M` also bounds.
    ///
    /// Residual traversability is dust-tolerant on *both* bounds: an arc
    /// within `dust` of its capacity has no forward residual arc and an
    /// arc within `dust` of zero no backward one, so a spurious
    /// "negative cycle" of ~1e-16 capacity cannot derail the labels.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::BadInput`] when an open residual arc has a
    /// negative reduced cost under `pi` (the potentials do not certify
    /// the flow as optimal).
    pub(crate) fn compute(
        &mut self,
        topo: &NetworkTopology,
        layer: &CostLayer,
        flow: &[f64],
        pi: &[i64],
        dust: f64,
    ) -> Result<Vec<i64>, FlowError> {
        let n = layer.supply.len();
        let mut dist = vec![0i64; n];
        self.settled.clear();
        self.settled.resize(n, false);
        self.level.clear();
        self.heap.clear();
        // Starting keys come sorted, so only improved keys pay for the
        // heap; a start whose node was settled since is skipped.
        self.starts.clear();
        self.starts.extend(0..n as u32);
        self.starts
            .sort_unstable_by_key(|&v| Reverse(pi[v as usize]));
        let mut next = 0;
        loop {
            while next < n && self.settled[self.starts[next] as usize] {
                next += 1;
            }
            let start = self.starts.get(next).map(|&v| (-pi[v as usize], v));
            let u = match (start, self.heap.peek()) {
                (None, None) => break,
                (Some((key, v)), top)
                    if top.is_none_or(|&Reverse((improved, _))| improved >= key) =>
                {
                    next += 1;
                    v
                }
                _ => {
                    let Some(Reverse((_, u))) = self.heap.pop() else {
                        unreachable!("the heap top was peeked")
                    };
                    if self.settled[u as usize] {
                        continue; // a stale key
                    }
                    u
                }
            };
            self.settled[u as usize] = true;
            self.level.push(u);
            // Scan the nodes settled at this key, settling the heads of
            // zero-reduced-cost arcs on the spot.
            while let Some(u) = self.level.pop() {
                let u = u as usize;
                for &(i, v) in topo.public_adjacent(u) {
                    let (i, v) = (i as usize, v as usize);
                    // Internal arc 2k runs along public arc k, 2k + 1
                    // against it.
                    let k = i >> 1;
                    let (open, cost) = if i & 1 == 0 {
                        (layer.caps[k] - flow[k] > dust, layer.costs[k])
                    } else {
                        (flow[k] > dust, -layer.costs[k])
                    };
                    if !open {
                        continue;
                    }
                    let reduced = cost + pi[u] - pi[v];
                    if reduced < 0 {
                        return Err(FlowError::BadInput {
                            message: "an open residual arc of the optimal flow has a negative \
                                      reduced cost"
                                .to_owned(),
                        });
                    }
                    let label = dist[u] + cost;
                    if label >= dist[v] {
                        continue;
                    }
                    // Settled labels are final, so `v` is unsettled here.
                    dist[v] = label;
                    if reduced == 0 {
                        self.settled[v] = true;
                        self.level.push(v as u32);
                    } else {
                        self.heap.push(Reverse((label - pi[v], v as u32)));
                    }
                }
            }
        }
        Ok(dist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::FlowNetwork;
    use crate::topology::check_balance;
    use crate::SimplexSolver;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The round-robin Bellman–Ford oracle: relax every residual arc in
    /// arc order until a round changes nothing.
    fn round_robin(
        topo: &NetworkTopology,
        layer: &CostLayer,
        flow: &[f64],
        dust: f64,
    ) -> Result<Vec<i64>, FlowError> {
        let n = topo.num_nodes();
        let mut clean = vec![0i64; n];
        let mut changed = true;
        let mut rounds = 0usize;
        while changed {
            changed = false;
            rounds += 1;
            if rounds > n + 1 {
                return Err(FlowError::BadInput {
                    message: "residual graph of the optimal flow has a negative cycle".to_owned(),
                });
            }
            for (k, &f) in flow.iter().enumerate() {
                let (u, v) = topo.arc_endpoints(k);
                let c = layer.costs[k];
                if layer.caps[k] - f > dust && clean[u] + c < clean[v] {
                    clean[v] = clean[u] + c;
                    changed = true;
                }
                if f > dust && clean[v] - c < clean[u] {
                    clean[u] = clean[v] - c;
                    changed = true;
                }
            }
        }
        Ok(clean)
    }

    fn random_network(rng: &mut StdRng) -> FlowNetwork {
        let n = rng.gen_range(4..40);
        let mut net = FlowNetwork::new(n);
        let mut total = 0.0;
        for v in 0..n - 1 {
            let s = rng.gen_range(-3.0..3.0);
            net.set_supply(v, s);
            total += s;
        }
        net.set_supply(n - 1, -total);
        for v in 0..n {
            net.add_arc(v, (v + 1) % n, f64::INFINITY, rng.gen_range(-2..10))
                .unwrap();
            for _ in 0..3 {
                let u = rng.gen_range(0..n);
                if u != v {
                    let cap = if rng.gen_bool(0.4) {
                        rng.gen_range(0.5..3.0)
                    } else {
                        f64::INFINITY
                    };
                    net.add_arc(v, u, cap, rng.gen_range(-3..20)).unwrap();
                }
            }
        }
        net
    }

    fn is_bad_input<T: std::fmt::Debug>(result: &Result<T, FlowError>) -> bool {
        matches!(result, Err(FlowError::BadInput { .. }))
    }

    /// On seeded optimal flows, with bound-hugging arcs nudged to within
    /// dust of their bounds, Dijkstra under the optimal tree potentials
    /// (and under any other feasible potentials) reproduces the
    /// round-robin labels exactly and certifies every residual arc;
    /// potentials that break one open arc are refused.
    #[test]
    fn dijkstra_matches_round_robin_on_optimal_flows() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut scratch = CertificatePotentials::default();
        let mut checked = 0;
        let mut nudged = 0;
        for _ in 0..60 {
            let net = random_network(&mut rng);
            let mut solver = SimplexSolver::new(&net);
            let Ok(sol) = solver.solve() else {
                continue; // infeasible or unbounded draw
            };
            let (topo, layer) = (&solver.topo, &solver.layer);
            let tree_pi = solver.tree_potentials();
            let scale = check_balance(&layer.supply).unwrap().1;
            let dust = 1e-12 * scale;
            let labels = scratch
                .compute(topo, layer, &sol.flows, tree_pi, dust)
                .unwrap();
            assert_eq!(labels, sol.potentials, "the solver returns these labels");
            let mut flow = sol.flows.clone();
            for (k, f) in flow.iter_mut().enumerate() {
                let cap = layer.caps[k];
                if cap.is_finite() && *f >= cap - 1e-9 && rng.gen_bool(0.5) {
                    *f = cap - 0.5 * dust;
                    nudged += 1;
                } else if *f <= 1e-9 && rng.gen_bool(0.5) {
                    *f = 0.5 * dust;
                    nudged += 1;
                }
            }
            let want = round_robin(topo, layer, &flow, dust).unwrap();
            let got = scratch.compute(topo, layer, &flow, tree_pi, dust).unwrap();
            assert_eq!(got, want);
            let again = scratch.compute(topo, layer, &flow, &want, dust).unwrap();
            assert_eq!(again, want, "the labels themselves are feasible potentials");
            for (k, &f) in flow.iter().enumerate() {
                let (u, v) = topo.arc_endpoints(k);
                let rc = layer.costs[k] + got[u] - got[v];
                if layer.caps[k] - f > dust {
                    assert!(rc >= 0, "forward residual arc {k} has rc {rc}");
                }
                if f > dust {
                    assert!(rc <= 0, "backward residual arc {k} has rc {rc}");
                }
            }
            // Node 0's ring arc 0 → 1 is uncapacitated, so it is always
            // open; sinking π(0) gives it a negative reduced cost.
            let mut broken = tree_pi.to_vec();
            broken[0] -= 1 << 40;
            assert!(is_bad_input(
                &scratch.compute(topo, layer, &flow, &broken, dust)
            ));
            checked += 1;
        }
        assert!(
            checked > 30 && nudged > 100,
            "{checked} flows, {nudged} nudged"
        );
    }

    #[test]
    fn negative_residual_cycle_is_bad_input() {
        // Zero flow on a two-arc cycle of cost −1 each: both forward
        // residual arcs are open and the cycle costs −2, so every choice
        // of potentials leaves one of them a negative reduced cost.
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, f64::INFINITY, -1).unwrap();
        net.add_arc(1, 0, 5.0, -1).unwrap();
        net.add_arc(1, 2, f64::INFINITY, 4).unwrap();
        let (topo, layer) = (NetworkTopology::build(&net), CostLayer::build(&net));
        let flow = vec![0.0; 3];
        let mut scratch = CertificatePotentials::default();
        for pi in [[0, 0, 0], [0, -1, 3], [-1, 0, 0]] {
            let err = scratch
                .compute(&topo, &layer, &flow, &pi, 1e-12)
                .unwrap_err();
            assert!(
                matches!(&err, FlowError::BadInput { message } if message.contains("negative reduced cost")),
                "{err:?}"
            );
        }
        assert!(is_bad_input(&round_robin(&topo, &layer, &flow, 1e-12)));
        // Saturating the capacitated arc (to within dust) closes the
        // cycle's forward half; its backward residual arc costs +1.
        let flow = vec![0.0, 5.0 - 1e-13, 0.0];
        let want = round_robin(&topo, &layer, &flow, 1e-12).unwrap();
        assert_eq!(
            scratch.compute(&topo, &layer, &flow, &want, 1e-12).unwrap(),
            want
        );
    }
}
