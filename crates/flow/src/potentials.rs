//! Clean certificate potentials recomputed from an optimal flow.
//!
//! The simplex tree potentials carry big-`M` offsets from artificial
//! arcs, which amplify floating-point supply dust into visible duality
//! gaps. The solvers therefore return potentials derived from the
//! optimal flow alone: shortest-walk distances over the residual graph
//! of the *real* arcs, from a virtual source joined to every node at
//! zero cost (all labels start at 0; the optimal residual graph has no
//! negative cycle). Shortest-path distances are unique, so any correct
//! label-correcting order yields the same `i64` labels;
//! [`CertificatePotentials`] uses a FIFO queue (Bellman–Ford–Moore,
//! "SPFA"), which re-scans only the nodes whose label just dropped.

use crate::error::FlowError;
use crate::topology::{CostLayer, NetworkTopology};
use std::collections::VecDeque;

/// Label-correcting scratch kept across solves.
#[derive(Debug, Clone, Default)]
pub(crate) struct CertificatePotentials {
    /// FIFO of nodes whose label dropped since their last scan.
    queue: VecDeque<u32>,
    /// Whether each node is in `queue`.
    queued: Vec<bool>,
    /// Times each node entered `queue`.
    pushes: Vec<u32>,
}

impl CertificatePotentials {
    /// Shortest-walk labels over the residual graph of `flow`, from
    /// all-zero starts.
    ///
    /// Residual traversability is dust-tolerant on *both* bounds: an arc
    /// within `dust` of its capacity has no forward residual arc and an
    /// arc within `dust` of zero no backward one, so a spurious
    /// "negative cycle" of ~1e-16 capacity cannot derail the labels.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::BadInput`] when the residual graph has a
    /// negative cycle (the flow is not optimal). FIFO order scans every
    /// node at most once per Bellman–Ford pass and `nodes − 1` passes
    /// settle every label, so a node queued more than `nodes` times
    /// proves the cycle.
    pub(crate) fn compute(
        &mut self,
        topo: &NetworkTopology,
        layer: &CostLayer,
        flow: &[f64],
        dust: f64,
    ) -> Result<Vec<i64>, FlowError> {
        let n = topo.num_nodes();
        let m = topo.num_arcs();
        let mut dist = vec![0i64; n];
        self.queue.clear();
        self.queue.extend(0..n as u32);
        self.queued.clear();
        self.queued.resize(n, true);
        self.pushes.clear();
        self.pushes.resize(n, 1);
        while let Some(u) = self.queue.pop_front() {
            let u = u as usize;
            self.queued[u] = false;
            for &i in topo.adjacent(u) {
                let i = i as usize;
                if i >= 2 * m {
                    continue; // super-source/sink arcs are not real arcs
                }
                // Internal arc 2k runs along public arc k, 2k + 1 against it.
                let k = i >> 1;
                let (open, cost) = if i & 1 == 0 {
                    (layer.caps[k] - flow[k] > dust, layer.costs[k])
                } else {
                    (flow[k] > dust, -layer.costs[k])
                };
                let v = topo.arc_to[i] as usize;
                if !open || dist[u] + cost >= dist[v] {
                    continue;
                }
                dist[v] = dist[u] + cost;
                if !self.queued[v] {
                    self.pushes[v] += 1;
                    if self.pushes[v] as usize > n {
                        return Err(FlowError::BadInput {
                            message: "residual graph of the optimal flow has a negative cycle"
                                .to_owned(),
                        });
                    }
                    self.queued[v] = true;
                    self.queue.push_back(v as u32);
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
    use crate::{McfSolver, SimplexSolver};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The round-robin Bellman–Ford pass the queue replaced: relax every
    /// residual arc in arc order until a round changes nothing.
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

    /// On seeded optimal flows, with bound-hugging arcs nudged to within
    /// dust of their bounds, the queue reproduces the round-robin labels
    /// exactly and certifies every residual arc.
    #[test]
    fn queue_matches_round_robin_on_optimal_flows() {
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
            let topo = solver.topology();
            let layer = solver.layer();
            let scale = layer.check_balance().unwrap().1;
            let dust = 1e-12 * scale;
            let labels = scratch.compute(topo, layer, &sol.flows, dust).unwrap();
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
            let got = scratch.compute(topo, layer, &flow, dust).unwrap();
            assert_eq!(got, want);
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
        // residual arcs are open and the cycle costs −2.
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, f64::INFINITY, -1).unwrap();
        net.add_arc(1, 0, 5.0, -1).unwrap();
        net.add_arc(1, 2, f64::INFINITY, 4).unwrap();
        let (topo, layer) = net.freeze();
        let flow = vec![0.0; 3];
        let mut scratch = CertificatePotentials::default();
        let err = scratch.compute(&topo, &layer, &flow, 1e-12).unwrap_err();
        assert!(
            matches!(&err, FlowError::BadInput { message } if message.contains("negative cycle")),
            "{err:?}"
        );
        assert!(matches!(
            round_robin(&topo, &layer, &flow, 1e-12),
            Err(FlowError::BadInput { .. })
        ));
        // Saturating the capacitated arc (to within dust) closes the
        // cycle's forward half; its backward residual arc costs +1.
        let flow = vec![0.0, 5.0 - 1e-13, 0.0];
        assert_eq!(
            scratch.compute(&topo, &layer, &flow, 1e-12).unwrap(),
            round_robin(&topo, &layer, &flow, 1e-12).unwrap()
        );
    }
}
