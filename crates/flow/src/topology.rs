//! The immutable arc structure of a min-cost flow instance, split from
//! the mutable cost/bound layer so solvers can re-solve after cost
//! updates without reallocating.
//!
//! [`NetworkTopology`] freezes a [`FlowNetwork`](crate::FlowNetwork)'s
//! arcs into CSR-style arrays built **once**: forward/backward residual
//! pairs for every public arc, plus a materialized super source `S` and
//! super sink `T` with an `S→v` and a `v→T` arc for *every* node (arcs
//! whose node has no supply/demand simply carry zero capacity and are
//! skipped by the solvers). Because every possible supply pattern maps
//! onto the same arc set, changing supplies or costs never changes the
//! topology — which is what lets the persistent solvers keep warm state
//! across solves.
//!
//! [`CostLayer`] holds everything that *may* change between solves:
//! per-arc integer costs, per-arc capacities and per-node supplies.

use crate::error::FlowError;
use crate::network::FlowNetwork;
use crate::ArcId;

/// Immutable CSR arc arrays for a flow instance.
///
/// Internal arc numbering: public arc `k` owns the residual pair
/// `2k` (forward) / `2k+1` (backward); after `2·num_arcs` come four
/// super arcs per node `v` (forward/backward of `S→v`, then of `v→T`).
/// The paired residual arc of internal arc `i` is always `i ^ 1`.
#[derive(Debug, Clone)]
pub struct NetworkTopology {
    /// Number of public (caller-visible) nodes.
    num_nodes: usize,
    /// Number of public arcs.
    num_arcs: usize,
    /// Head node of each internal arc.
    pub(crate) arc_to: Vec<u32>,
    /// CSR offsets into [`NetworkTopology::adj_list`], one slot per
    /// internal node (public nodes, then `S`, then `T`) plus a sentinel.
    pub(crate) adj_start: Vec<u32>,
    /// CSR arc indices, grouped per tail node in insertion order.
    pub(crate) adj_list: Vec<u32>,
}

impl NetworkTopology {
    /// Freezes the arc structure of `net`.
    pub fn build(net: &FlowNetwork) -> Self {
        let n = net.num_nodes();
        let m = net.num_arcs();
        let s = n;
        let t = n + 1;
        let internal_arcs = 2 * m + 4 * n;
        let mut arc_to = vec![0u32; internal_arcs];
        let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n + 2];
        for k in 0..m {
            let (from, to, _, _) = net.arc_info(k);
            arc_to[2 * k] = to as u32;
            arc_to[2 * k + 1] = from as u32;
            adjacency[from].push(2 * k as u32);
            adjacency[to].push(2 * k as u32 + 1);
        }
        let base = 2 * m;
        for v in 0..n {
            // S → v pair.
            let fwd = (base + 4 * v) as u32;
            arc_to[fwd as usize] = v as u32;
            arc_to[fwd as usize + 1] = s as u32;
            adjacency[s].push(fwd);
            adjacency[v].push(fwd + 1);
            // v → T pair.
            let fwd = (base + 4 * v + 2) as u32;
            arc_to[fwd as usize] = t as u32;
            arc_to[fwd as usize + 1] = v as u32;
            adjacency[v].push(fwd);
            adjacency[t].push(fwd + 1);
        }
        let mut adj_start = Vec::with_capacity(n + 3);
        let mut adj_list = Vec::with_capacity(internal_arcs);
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
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of public arcs.
    pub fn num_arcs(&self) -> usize {
        self.num_arcs
    }

    /// Number of internal nodes (public nodes plus `S` and `T`).
    pub(crate) fn internal_nodes(&self) -> usize {
        self.num_nodes + 2
    }

    /// Number of internal residual arcs.
    pub(crate) fn internal_arcs(&self) -> usize {
        self.arc_to.len()
    }

    /// The super source's internal node index.
    pub(crate) fn source(&self) -> usize {
        self.num_nodes
    }

    /// The super sink's internal node index.
    pub(crate) fn sink(&self) -> usize {
        self.num_nodes + 1
    }

    /// Internal index of the forward `S→v` super arc.
    pub(crate) fn source_arc(&self, v: usize) -> usize {
        2 * self.num_arcs + 4 * v
    }

    /// Internal index of the forward `v→T` super arc.
    pub(crate) fn sink_arc(&self, v: usize) -> usize {
        2 * self.num_arcs + 4 * v + 2
    }

    /// The adjacency slice of internal node `u`.
    pub(crate) fn adjacent(&self, u: usize) -> &[u32] {
        &self.adj_list[self.adj_start[u] as usize..self.adj_start[u + 1] as usize]
    }

    /// The public residual arcs at public node `u`, in ascending
    /// public-arc index: its adjacency without the two super arcs
    /// (`S→u` backward, `u→T` forward) that `build` appends last.
    pub(crate) fn public_adjacent(&self, u: usize) -> &[u32] {
        &self.adj_list[self.adj_start[u] as usize..self.adj_start[u + 1] as usize - 2]
    }

    /// Tail node of internal arc `i`.
    pub(crate) fn arc_from(&self, i: usize) -> usize {
        self.arc_to[i ^ 1] as usize
    }

    /// The endpoints of public arc `k`.
    pub fn arc_endpoints(&self, k: ArcId) -> (usize, usize) {
        (self.arc_to[2 * k + 1] as usize, self.arc_to[2 * k] as usize)
    }
}

/// The mutable half of a flow instance: costs, capacities, supplies.
///
/// Mutating this layer is cheap (plain array stores) and never
/// reallocates; pairing one with a [`NetworkTopology`] yields a complete
/// instance a persistent solver can re-solve incrementally.
#[derive(Debug, Clone)]
pub struct CostLayer {
    /// Integer cost of each public arc.
    pub(crate) costs: Vec<i64>,
    /// Capacity of each public arc (`f64::INFINITY` allowed).
    pub(crate) caps: Vec<f64>,
    /// Supply of each public node (positive = source, negative = demand).
    pub(crate) supply: Vec<f64>,
}

impl CostLayer {
    /// Snapshots the mutable state of `net`.
    pub fn build(net: &FlowNetwork) -> Self {
        let m = net.num_arcs();
        let mut costs = Vec::with_capacity(m);
        let mut caps = Vec::with_capacity(m);
        for k in 0..m {
            let (_, _, cap, cost) = net.arc_info(k);
            costs.push(cost);
            caps.push(cap);
        }
        let supply = (0..net.num_nodes()).map(|v| net.supply(v)).collect();
        CostLayer {
            costs,
            caps,
            supply,
        }
    }

    /// Sets the cost of public arc `k`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::BadInput`] for an out-of-range arc or a cost
    /// of magnitude above `i64::MAX / 8` (same contract as
    /// [`FlowNetwork::add_arc`](crate::FlowNetwork::add_arc)).
    pub fn set_cost(&mut self, k: ArcId, cost: i64) -> Result<(), FlowError> {
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

    /// Sets the capacity of public arc `k`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::BadInput`] for an out-of-range arc or a
    /// negative/NaN capacity.
    pub fn set_capacity(&mut self, k: ArcId, cap: f64) -> Result<(), FlowError> {
        if k >= self.caps.len() {
            return Err(FlowError::BadInput {
                message: format!("arc {k} out of range"),
            });
        }
        if cap.is_nan() || cap < 0.0 {
            return Err(FlowError::BadInput {
                message: format!("capacity {cap} must be non-negative"),
            });
        }
        self.caps[k] = cap;
        Ok(())
    }

    /// Sets the supply of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn set_supply(&mut self, v: usize, supply: f64) {
        self.supply[v] = supply;
    }

    /// The cost of public arc `k`.
    pub fn cost(&self, k: ArcId) -> i64 {
        self.costs[k]
    }

    /// The capacity of public arc `k`.
    pub fn capacity(&self, k: ArcId) -> f64 {
        self.caps[k]
    }

    /// The supply of node `v`.
    pub fn supply(&self, v: usize) -> f64 {
        self.supply[v]
    }

    /// Total positive supply, total demand and the balance scale.
    pub(crate) fn totals(&self) -> (f64, f64, f64) {
        let total_pos: f64 = self.supply.iter().filter(|&&s| s > 0.0).sum();
        let total_neg: f64 = -self.supply.iter().filter(|&&s| s < 0.0).sum::<f64>();
        let scale = total_pos.max(total_neg).max(1.0);
        (total_pos, total_neg, scale)
    }

    /// Validates that supplies balance to zero within tolerance.
    pub(crate) fn check_balance(&self) -> Result<(f64, f64), FlowError> {
        let (total_pos, total_neg, scale) = self.totals();
        if (total_pos - total_neg).abs() > 1e-9 * scale {
            return Err(FlowError::BadInput {
                message: format!("supplies must balance: +{total_pos} vs -{total_neg}"),
            });
        }
        Ok((total_pos, scale))
    }
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
        // Node 1 sees: backward of arc 0, forward of arc 1, then its two
        // super arcs (S→1 backward, 1→T forward).
        let adj: Vec<usize> = topo.adjacent(1).iter().map(|&a| a as usize).collect();
        assert_eq!(adj, vec![1, 2, topo.source_arc(1) + 1, topo.sink_arc(1)]);
        assert_eq!(topo.public_adjacent(1), &[1, 2]);
        assert_eq!(topo.public_adjacent(2), &[3]);
        // Every node's paired arc is its xor-1 neighbour.
        for i in 0..topo.internal_arcs() {
            assert_eq!(topo.arc_from(i), topo.arc_to[i ^ 1] as usize);
        }
    }

    #[test]
    fn cost_layer_mutation() {
        let mut net = FlowNetwork::new(2);
        net.set_supply(0, 1.0);
        net.set_supply(1, -1.0);
        net.add_arc(0, 1, f64::INFINITY, 4).unwrap();
        let mut layer = CostLayer::build(&net);
        assert_eq!(layer.cost(0), 4);
        layer.set_cost(0, 9).unwrap();
        assert_eq!(layer.cost(0), 9);
        assert!(layer.set_cost(1, 0).is_err());
        assert!(layer.set_capacity(0, -1.0).is_err());
        layer.set_capacity(0, 2.5).unwrap();
        assert_eq!(layer.capacity(0), 2.5);
        layer.set_supply(0, 2.0);
        assert!(layer.check_balance().is_err());
    }
}
