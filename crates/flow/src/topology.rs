//! The immutable arc structure of a min-cost flow instance, split from
//! the mutable cost/bound layer so the network simplex can re-solve
//! after cost updates without reallocating.
//!
//! [`NetworkTopology`] freezes a [`FlowNetwork`]'s arcs into CSR-style
//! arrays built **once**: a forward/backward residual pair for every
//! arc, grouped per tail node, each entry carrying its head node so a
//! scan of a node's arcs reads one array. Supplies live in the
//! [`CostLayer`], so changing supplies or costs never changes the
//! topology — which is what lets the simplex keep warm state across
//! solves.
//!
//! [`CostLayer`] holds everything that *may* change between solves:
//! per-arc integer costs, per-arc capacities and per-node supplies.

use crate::error::FlowError;
use crate::network::FlowNetwork;
use crate::ArcId;

/// Immutable CSR arc arrays for a flow instance.
///
/// Residual arc numbering: public arc `k` owns the pair `2k` (forward)
/// / `2k+1` (backward), so the paired residual arc of `i` is `i ^ 1`.
#[derive(Debug, Clone)]
pub(crate) struct NetworkTopology {
    /// Number of public (caller-visible) nodes.
    num_nodes: usize,
    /// Number of public arcs.
    num_arcs: usize,
    /// Head node of each residual arc.
    arc_to: Vec<u32>,
    /// CSR offsets into `adj_list`, one slot per node plus a sentinel.
    adj_start: Vec<u32>,
    /// CSR `(residual arc, head node)` entries, grouped per tail node
    /// in insertion order.
    adj_list: Vec<(u32, u32)>,
}

impl NetworkTopology {
    /// Freezes the arc structure of `net`.
    pub(crate) fn build(net: &FlowNetwork) -> Self {
        let n = net.num_nodes();
        let m = net.num_arcs();
        let mut arc_to = vec![0u32; 2 * m];
        let mut adjacency: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for k in 0..m {
            let (from, to, _, _) = net.arc_info(k);
            arc_to[2 * k] = to as u32;
            arc_to[2 * k + 1] = from as u32;
            adjacency[from].push((2 * k as u32, to as u32));
            adjacency[to].push((2 * k as u32 + 1, from as u32));
        }
        let mut adj_start = Vec::with_capacity(n + 1);
        let mut adj_list = Vec::with_capacity(2 * m);
        adj_start.push(0u32);
        for list in &adjacency {
            adj_list.extend_from_slice(list);
            adj_start.push(adj_list.len() as u32);
        }
        NetworkTopology {
            num_nodes: n,
            num_arcs: m,
            arc_to,
            adj_start,
            adj_list,
        }
    }

    /// Number of public nodes.
    pub(crate) fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of public arcs.
    pub(crate) fn num_arcs(&self) -> usize {
        self.num_arcs
    }

    /// The residual arcs leaving node `u` with their heads, as
    /// `(residual arc, head)` in ascending public-arc index.
    pub(crate) fn public_adjacent(&self, u: usize) -> &[(u32, u32)] {
        &self.adj_list[self.adj_start[u] as usize..self.adj_start[u + 1] as usize]
    }

    /// The endpoints of public arc `k`.
    pub(crate) fn arc_endpoints(&self, k: ArcId) -> (usize, usize) {
        (self.arc_to[2 * k + 1] as usize, self.arc_to[2 * k] as usize)
    }
}

/// The mutable half of a flow instance: costs, capacities, supplies.
///
/// Mutating this layer is cheap (plain array stores) and never
/// reallocates; paired with a [`NetworkTopology`] it is a complete
/// instance the simplex can re-solve incrementally.
#[derive(Debug, Clone)]
pub(crate) struct CostLayer {
    /// Integer cost of each public arc.
    pub(crate) costs: Vec<i64>,
    /// Capacity of each public arc (`f64::INFINITY` allowed).
    pub(crate) caps: Vec<f64>,
    /// Supply of each public node (positive = source, negative = demand).
    pub(crate) supply: Vec<f64>,
    /// Whether every finite capacity is an exact integer (capacities
    /// are fixed at build).
    caps_integral: bool,
}

/// Whether `x` is an integer that `f64` represents exactly, along with
/// every integer of smaller magnitude (|x| ≤ 2⁵³).
fn exact_integer(x: f64) -> bool {
    x.fract() == 0.0 && x.abs() <= (1u64 << 53) as f64
}

impl CostLayer {
    /// Snapshots the mutable state of `net`.
    pub(crate) fn build(net: &FlowNetwork) -> Self {
        let m = net.num_arcs();
        let mut costs = Vec::with_capacity(m);
        let mut caps = Vec::with_capacity(m);
        for k in 0..m {
            let (_, _, cap, cost) = net.arc_info(k);
            costs.push(cost);
            caps.push(cap);
        }
        let supply = (0..net.num_nodes()).map(|v| net.supply(v)).collect();
        let caps_integral = caps_integral(caps.iter().copied());
        CostLayer {
            costs,
            caps,
            supply,
            caps_integral,
        }
    }

    /// The [`residual_dust`] of this instance at balance `scale`.
    pub(crate) fn residual_dust(&self, scale: f64) -> f64 {
        residual_dust(scale, &self.supply, self.caps_integral)
    }

    /// Sets the cost of public arc `k`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::BadInput`] for an out-of-range arc or a cost
    /// of magnitude above `i64::MAX / 8` (same contract as
    /// [`FlowNetwork::add_arc`]).
    pub(crate) fn set_cost(&mut self, k: ArcId, cost: i64) -> Result<(), FlowError> {
        if k >= self.costs.len() {
            return Err(FlowError::BadInput {
                message: format!("arc {k} out of range"),
            });
        }
        if cost.abs() > i64::MAX / 8 {
            return Err(FlowError::BadInput {
                message: format!("cost {cost} too large"),
            });
        }
        self.costs[k] = cost;
        Ok(())
    }
}

/// Whether every finite capacity of `caps` is an exact integer.
pub(crate) fn caps_integral(mut caps: impl Iterator<Item = f64>) -> bool {
    caps.all(|c| c.is_infinite() || exact_integer(c))
}

/// The residual capacity at or below which the flow certificate treats
/// a residual arc as closed, for an instance with balance `scale` (see
/// [`check_balance`]), supplies `supply` and, when `caps_integral`,
/// integral finite capacities.
///
/// An integral instance (every supply and finite capacity an exact
/// integer, `scale` at most 2⁵³) gets 0: the network simplex keeps every
/// flow an exact integer there (each augmentation is a residual, a
/// difference of integers, and each warm-basis flow a sum of them), and
/// any tolerance would close the backward arc of a flow below it. Other
/// instances get `1e-12 · scale`.
pub(crate) fn residual_dust(scale: f64, supply: &[f64], caps_integral: bool) -> f64 {
    if caps_integral && exact_integer(scale) && supply.iter().all(|&s| exact_integer(s)) {
        0.0
    } else {
        1e-12 * scale
    }
}

/// The total positive supply of `supply`, its total demand and its
/// balance scale, the largest of the two and 1.
pub(crate) fn supply_totals(supply: &[f64]) -> (f64, f64, f64) {
    let total_pos: f64 = supply.iter().filter(|&&s| s > 0.0).sum();
    let total_neg: f64 = -supply.iter().filter(|&&s| s < 0.0).sum::<f64>();
    (total_pos, total_neg, total_pos.max(total_neg).max(1.0))
}

/// Validates that `supply` balances to zero within tolerance; returns
/// the total positive supply and the balance scale.
pub(crate) fn check_balance(supply: &[f64]) -> Result<(f64, f64), FlowError> {
    let (total_pos, total_neg, scale) = supply_totals(supply);
    if (total_pos - total_neg).abs() > 1e-9 * scale {
        return Err(FlowError::BadInput {
            message: format!("supplies must balance: +{total_pos} vs -{total_neg}"),
        });
    }
    Ok((total_pos, scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_matches_builder_order() {
        let mut net = FlowNetwork::new(3);
        net.set_supply(0, 1.0);
        net.set_supply(2, -1.0);
        net.add_arc(0, 1, f64::INFINITY, 2).unwrap();
        net.add_arc(1, 2, 5.0, 3).unwrap();
        let topo = NetworkTopology::build(&net);
        assert_eq!(topo.num_nodes(), 3);
        assert_eq!(topo.num_arcs(), 2);
        assert_eq!(topo.arc_endpoints(0), (0, 1));
        assert_eq!(topo.arc_endpoints(1), (1, 2));
        // Node 1 sees the backward arc of arc 0, then the forward arc
        // of arc 1; every residual arc's pair is its xor-1 neighbour.
        assert_eq!(topo.public_adjacent(1), &[(1, 0), (2, 2)]);
        assert_eq!(topo.public_adjacent(2), &[(3, 1)]);
        for u in 0..topo.num_nodes() {
            for &(i, head) in topo.public_adjacent(u) {
                let (from, to) = topo.arc_endpoints(i as usize >> 1);
                let (tail, want) = if i & 1 == 0 { (from, to) } else { (to, from) };
                assert_eq!((tail, head as usize), (u, want));
                assert_eq!(topo.arc_to[i as usize], head);
            }
        }
    }

    #[test]
    fn cost_layer_mutation() {
        let mut net = FlowNetwork::new(2);
        net.set_supply(0, 1.0);
        net.set_supply(1, -1.0);
        net.add_arc(0, 1, f64::INFINITY, 4).unwrap();
        let mut layer = CostLayer::build(&net);
        assert_eq!(layer.costs, [4]);
        layer.set_cost(0, 9).unwrap();
        assert_eq!(layer.costs, [9]);
        assert!(layer.set_cost(1, 0).is_err());
        assert!(layer.set_cost(0, i64::MAX / 4).is_err());
        assert!(check_balance(&layer.supply).is_ok());
        layer.supply[0] = 2.0;
        assert!(check_balance(&layer.supply).is_err());
    }
}
