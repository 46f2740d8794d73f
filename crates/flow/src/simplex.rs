//! A primal network simplex solver for min-cost flow, persistent across
//! cost/supply updates.
//!
//! The paper's D-phase complexity claim rests on network-flow machinery
//! in the family of Goldberg–Grigoriadis–Tarjan's network simplex (its
//! reference \[9\]). [`SimplexSolver`] implements the classic primal
//! algorithm over a frozen [`NetworkTopology`]:
//!
//! * an artificial root node with big-`M` arcs gives the initial
//!   spanning tree (all supplies routed through the root);
//! * each pivot brings in the arc with the most negative reduced-cost
//!   violation (block-cached Dantzig pricing), pushes flow around the
//!   unique tree cycle, and re-hangs the subtree cut off by the leaving
//!   arc;
//! * artificial flow remaining at optimality signals infeasibility; an
//!   uncapacitated negative cycle signals unboundedness.
//!
//! **Per-pivot cost.** A pivot costs its pricing, the walk around the
//! tree cycle, and one top-down walk of the moved subtree that
//! re-derives its parents, depths and exact `i128` potentials (Király &
//! Kovács, "Efficient implementations of minimum-cost flow algorithms",
//! 2012). Only the moved subtree's potentials change, so only arcs
//! incident to it (plus the entering and leaving arcs) can change
//! eligibility: the subtree walk touches them, and Dantzig pricing
//! re-prices just the dirty blocks of its block cache before taking the
//! minimum over the block bests. A pivot thus costs dirty blocks +
//! moved subtree + cycle instead of an O(arcs) scan (the pricing's
//! `select` is generic over the pricing view, so the reduced-cost test
//! inlines). The tree adjacency is patched in place: the leaving arc is
//! removed from its endpoints' lists and the entering arc pushed. The
//! O(arcs) `rebuild_tree` BFS runs only when a basis is installed (cold
//! start, warm repair), and `bfs_order` is valid only right after such
//! a rebuild. A rooted spanning tree determines its parents, depths and
//! potentials, so the incremental tree equals a rebuilt one and the
//! pivot sequence is the one a rebuild after every pivot would give.
//!
//! **Warm starts** reuse the previous solve's spanning tree: non-basic
//! arc flows are kept, the basic (tree) arc flows are recomputed
//! leaf-to-root for the new supplies, and artificial arcs flip direction
//! freely (they are symmetric big-`M` arcs). If any real tree arc would
//! need a flow outside `[0, cap]`, the basis is primal-infeasible for
//! the new instance and the solver falls back to a cold start (counted
//! in [`SolverStats::warm_fallbacks`]).
//!
//! Potentials are maintained in `i128` (one big-`M` artificial arc can
//! appear on a tree path); the *returned* certificate potentials are
//! recomputed cleanly from the optimal flow by a label-correcting queue
//! ([`crate::potentials`]).

use crate::error::FlowError;
use crate::network::{FlowNetwork, FlowSolution};
use crate::pivot::{DantzigBlocks, PricingContext};
use crate::potentials::CertificatePotentials;
use crate::solver::{impl_instance_for_solver, McfInstance, McfSolver, SolverStats};
use crate::topology::{CostLayer, NetworkTopology};
use crate::ArcId;
use std::collections::VecDeque;
use std::sync::Arc as Shared;

/// Persistent primal network simplex backend.
#[derive(Debug, Clone)]
pub struct SimplexSolver {
    topo: Shared<NetworkTopology>,
    layer: CostLayer,
    warm_enabled: bool,
    has_state: bool,
    /// Flow per arc: public arcs first, then one artificial per node.
    flow: Vec<f64>,
    /// Whether each arc is in the current spanning tree.
    in_tree: Vec<bool>,
    /// Direction of each node's artificial arc (`true` = node → root).
    art_to_root: Vec<bool>,
    // The spanning tree rooted at the artificial root: rebuilt by
    // `rebuild_tree` on basis installs, kept up to date by `exchange` on
    // every pivot.
    parent: Vec<usize>,
    parent_arc: Vec<usize>,
    depth: Vec<u32>,
    pi: Vec<i128>,
    /// Root-first BFS order of the tree. Valid only right after
    /// `rebuild_tree`: pivots re-hang subtrees without touching it.
    bfs_order: Vec<u32>,
    /// Tree arcs incident to each node (order unspecified).
    tree_adj: Vec<Vec<u32>>,
    visited: Vec<bool>,
    /// BFS queue of the rebuild; stack of the subtree walk on pivots.
    bfs_queue: VecDeque<usize>,
    /// Cycle walks of the current pivot (taken/restored around borrows).
    cycle_va: Vec<usize>,
    cycle_vb: Vec<usize>,
    /// Warm-basis scratch: per-node imbalance and deferred flow commits.
    need: Vec<f64>,
    new_flow: Vec<(usize, f64)>,
    /// Entering-arc selection.
    dantzig: DantzigBlocks,
    /// Scratch of the certificate-potential pass in `finish`.
    certificate: CertificatePotentials,
    /// Cooperative cancellation probe, polled between pivots.
    probe: Option<crate::solver::ProbeHandle>,
    stats: SolverStats,
}

impl_instance_for_solver!(SimplexSolver);

/// The pricing view `run_pivots` offers its Dantzig pricing:
/// reduced-cost eligibility per arc. It borrows the solver's fields one
/// by one, so the pricing state (another field) can be borrowed mutably
/// beside it.
struct TreePricing<'a> {
    topo: &'a NetworkTopology,
    layer: &'a CostLayer,
    art_to_root: &'a [bool],
    flow: &'a [f64],
    in_tree: &'a [bool],
    pi: &'a [i128],
    big_m: i64,
    /// Minimum residual flow for backward eligibility.
    backward_eps: f64,
}

impl PricingContext for TreePricing<'_> {
    fn num_arcs(&self) -> usize {
        self.flow.len()
    }

    // Forced: without it the pricing's scan loop keeps an out-of-line
    // call per arc, a third of the pricing time on a c6288-like D-phase.
    #[inline(always)]
    fn violation(&self, k: usize) -> Option<(i128, bool)> {
        if self.in_tree[k] {
            return None;
        }
        let (from, to) = arc_endpoints(self.topo, self.art_to_root, k);
        let (cost, cap) = if k < self.topo.num_arcs() {
            (self.layer.costs[k], self.layer.caps[k])
        } else {
            (self.big_m, f64::INFINITY)
        };
        let rc = cost as i128 + self.pi[from] - self.pi[to];
        // Forward and backward eligibility are mutually exclusive
        // (rc < 0 vs rc > 0), so checking forward first preserves the
        // historical inline loop's outcome exactly.
        if self.flow[k] < cap && rc < 0 {
            return Some((rc, true));
        }
        if self.flow[k] > self.backward_eps && -rc < 0 {
            return Some((-rc, false));
        }
        None
    }
}

/// Endpoints of internal arc `k`: public arcs first, then one
/// artificial arc per node `v` between `v` and the root, in its current
/// orientation.
#[inline]
fn arc_endpoints(topo: &NetworkTopology, art_to_root: &[bool], k: usize) -> (usize, usize) {
    let m = topo.num_arcs();
    if k < m {
        topo.arc_endpoints(k)
    } else {
        let v = k - m;
        let root = topo.num_nodes();
        if art_to_root[v] {
            (v, root)
        } else {
            (root, v)
        }
    }
}

impl SimplexSolver {
    /// Builds a persistent solver from a one-shot network description.
    pub fn new(net: &FlowNetwork) -> Self {
        let (topo, layer) = net.freeze();
        Self::from_parts(Shared::new(topo), layer)
    }

    /// Builds a persistent solver from pre-split parts.
    ///
    /// # Panics
    ///
    /// Panics if the layer's shape does not match the topology.
    pub fn from_parts(topo: Shared<NetworkTopology>, layer: CostLayer) -> Self {
        assert_eq!(layer.costs.len(), topo.num_arcs(), "one cost per arc");
        assert_eq!(layer.supply.len(), topo.num_nodes(), "one supply per node");
        let n = topo.num_nodes();
        let m = topo.num_arcs();
        let num_nodes = n + 1; // plus artificial root
        SimplexSolver {
            layer,
            warm_enabled: false,
            has_state: false,
            flow: vec![0.0; m + n],
            in_tree: vec![false; m + n],
            art_to_root: vec![true; n],
            parent: vec![usize::MAX; num_nodes],
            parent_arc: vec![usize::MAX; num_nodes],
            depth: vec![0; num_nodes],
            pi: vec![0; num_nodes],
            bfs_order: Vec::with_capacity(num_nodes),
            tree_adj: vec![Vec::new(); num_nodes],
            visited: vec![false; num_nodes],
            bfs_queue: VecDeque::with_capacity(num_nodes),
            cycle_va: Vec::new(),
            cycle_vb: Vec::new(),
            need: vec![0.0; num_nodes],
            new_flow: Vec::with_capacity(num_nodes),
            dantzig: DantzigBlocks::default(),
            certificate: CertificatePotentials::default(),
            probe: None,
            stats: SolverStats::default(),
            topo,
        }
    }

    /// Endpoints of arc `k` (public or artificial, current orientation).
    fn endpoints(&self, k: usize) -> (usize, usize) {
        arc_endpoints(&self.topo, &self.art_to_root, k)
    }

    fn arc_cap(&self, k: usize) -> f64 {
        if k < self.topo.num_arcs() {
            self.layer.caps[k]
        } else {
            f64::INFINITY
        }
    }

    fn arc_cost(&self, k: usize, big_m: i64) -> i64 {
        if k < self.topo.num_arcs() {
            self.layer.costs[k]
        } else {
            big_m
        }
    }

    /// The big-`M` artificial-arc cost for the current costs.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::BadInput`] when `(max|cost| + 1) · nodes`
    /// overflows `i64`.
    fn big_m(&self) -> Result<i64, FlowError> {
        let num_nodes = self.topo.num_nodes() + 1;
        let max_cost = self.layer.costs.iter().map(|c| c.abs()).max().unwrap_or(0);
        (max_cost + 1)
            .checked_mul(num_nodes as i64)
            .ok_or_else(|| FlowError::BadInput {
                message: "costs too large for network simplex big-M".to_owned(),
            })
    }

    /// Hangs node `w` from `u` through tree arc `k`: sets its parent,
    /// depth and exact potential (tree arcs have zero reduced cost:
    /// c + π(from) − π(to) = 0).
    fn hang(&mut self, w: usize, u: usize, k: usize, big_m: i64) {
        self.parent[w] = u;
        self.parent_arc[w] = k;
        self.depth[w] = self.depth[u] + 1;
        let c = self.arc_cost(k, big_m) as i128;
        let (from, _) = self.endpoints(k);
        self.pi[w] = if from == u {
            self.pi[u] + c
        } else {
            self.pi[u] - c
        };
    }

    /// Rebuilds the tree adjacency and the parent/depth/potential arrays
    /// from the current tree-arc set by BFS from the root, reusing
    /// scratch buffers. O(arcs): for basis installs (cold, warm repair)
    /// only; pivots use `exchange`.
    fn rebuild_tree(&mut self, big_m: i64) {
        let root = self.topo.num_nodes();
        for adj in &mut self.tree_adj {
            adj.clear();
        }
        for k in 0..self.flow.len() {
            if self.in_tree[k] {
                let (from, to) = self.endpoints(k);
                self.tree_adj[from].push(k as u32);
                self.tree_adj[to].push(k as u32);
            }
        }
        self.parent.iter_mut().for_each(|p| *p = usize::MAX);
        self.parent_arc.iter_mut().for_each(|p| *p = usize::MAX);
        self.bfs_order.clear();
        self.visited.iter_mut().for_each(|v| *v = false);
        self.bfs_queue.clear();
        self.visited[root] = true;
        self.depth[root] = 0;
        self.pi[root] = 0;
        self.bfs_queue.push_back(root);
        while let Some(u) = self.bfs_queue.pop_front() {
            self.bfs_order.push(u as u32);
            for i in 0..self.tree_adj[u].len() {
                let k = self.tree_adj[u][i] as usize;
                let (from, to) = self.endpoints(k);
                let w = if from == u { to } else { from };
                if self.visited[w] {
                    continue;
                }
                self.visited[w] = true;
                self.hang(w, u, k, big_m);
                self.bfs_queue.push_back(w);
            }
        }
    }

    /// Basis exchange of one pivot: tree arc `leaving` leaves and
    /// `entering` joins. Removing `leaving` cuts off the subtree holding
    /// `inner`; `entering` re-attaches it below `outer`. Only that
    /// subtree is walked (once, top-down), re-deriving parents, depths
    /// and potentials, so the cost is O(moved subtree) instead of a full
    /// `rebuild_tree`. The result is the tree a rebuild would produce (a
    /// rooted spanning tree determines its parents, depths and
    /// potentials), so the pivot sequence does not depend on which of the
    /// two maintained it. The walk touches, for the
    /// pricing, every arc whose reduced cost the new potentials can move.
    fn exchange(
        &mut self,
        entering: usize,
        leaving: usize,
        inner: usize,
        outer: usize,
        big_m: i64,
    ) {
        self.in_tree[leaving] = false;
        self.in_tree[entering] = true;
        let (lfrom, lto) = self.endpoints(leaving);
        for end in [lfrom, lto] {
            let adj = &mut self.tree_adj[end];
            let at = adj
                .iter()
                .position(|&k| k as usize == leaving)
                .expect("the leaving arc is a tree arc");
            adj.swap_remove(at);
        }
        let (efrom, eto) = self.endpoints(entering);
        self.tree_adj[efrom].push(entering as u32);
        self.tree_adj[eto].push(entering as u32);
        self.hang(inner, outer, entering, big_m);
        self.bfs_queue.clear();
        self.bfs_queue.push_back(inner);
        while let Some(u) = self.bfs_queue.pop_back() {
            self.touch_node(u);
            for i in 0..self.tree_adj[u].len() {
                let k = self.tree_adj[u][i] as usize;
                if k == self.parent_arc[u] {
                    continue;
                }
                let (from, to) = self.endpoints(k);
                let w = if from == u { to } else { from };
                self.hang(w, u, k, big_m);
                self.bfs_queue.push_back(w);
            }
        }
    }

    /// Touches the non-tree arcs incident to re-hung node `w`: its public
    /// arcs (internal arc `i < 2m` of the topology is public arc
    /// `i >> 1`) and its artificial arc `m + w`. Tree arcs are never
    /// eligible, so they need no re-price.
    fn touch_node(&mut self, w: usize) {
        let m = self.topo.num_arcs();
        for &i in self.topo.adjacent(w) {
            let i = i as usize;
            if i < 2 * m && !self.in_tree[i >> 1] {
                self.dantzig.touch(i >> 1);
            }
        }
        if !self.in_tree[m + w] {
            self.dantzig.touch(m + w);
        }
    }

    /// Installs the cold basis: all supplies routed through the root.
    fn cold_basis(&mut self) {
        let n = self.topo.num_nodes();
        let m = self.topo.num_arcs();
        for f in &mut self.flow[..m] {
            *f = 0.0;
        }
        for v in 0..n {
            let s = self.layer.supply[v];
            self.art_to_root[v] = s >= 0.0;
            self.flow[m + v] = s.abs();
        }
        self.in_tree[..m].fill(false);
        self.in_tree[m..].fill(true);
    }

    /// Reuses the previous spanning tree as the starting basis for the
    /// current costs/supplies, repairing it where it went
    /// primal-infeasible. Returns `false` only when the retained state
    /// is unusable (non-basic flow above a shrunk capacity, or a
    /// disconnected tree), in which case the caller cold-starts.
    ///
    /// Repair strategy: tree-arc flows are recomputed leaf-to-root for
    /// the new supplies. A real tree arc whose required flow leaves
    /// `[0, cap]` is pinned at the violated bound and swapped out of the
    /// basis for the subtree's artificial root arc (removing a tree arc
    /// splits off exactly the subtree, and the node-to-root artificial
    /// reconnects it), which absorbs the residual imbalance at big-`M`
    /// cost; the subsequent pivots drain it. Artificial tree arcs are
    /// symmetric and simply flip direction when their flow would be
    /// negative.
    fn try_warm_basis(&mut self, big_m: i64) -> bool {
        let n = self.topo.num_nodes();
        let m = self.topo.num_arcs();
        // Non-basic arcs keep their flows; they must still respect the
        // (possibly updated) capacities.
        for k in 0..m {
            if !self.in_tree[k] && self.flow[k] > self.layer.caps[k] {
                return false;
            }
        }
        for v in 0..n {
            if !self.in_tree[m + v] {
                debug_assert_eq!(self.flow[m + v], 0.0);
                self.art_to_root[v] = self.layer.supply[v] >= 0.0;
            }
        }
        // Need: what the tree must carry at each node after non-basic
        // arcs are accounted for. `need`/`new_flow` are struct scratch.
        self.rebuild_tree(big_m);
        let root = n;
        if self.bfs_order.len() != n + 1 {
            // The retained arc set does not span all nodes (a broken
            // invariant, not an expected state): fall back cold rather
            // than warm-solving with unvisited nodes' flows stale.
            return false;
        }
        let mut need = std::mem::take(&mut self.need);
        need[..n].copy_from_slice(&self.layer.supply);
        need[root] = 0.0;
        for k in 0..self.flow.len() {
            if !self.in_tree[k] && self.flow[k] != 0.0 {
                let (from, to) = self.endpoints(k);
                need[from] -= self.flow[k];
                need[to] += self.flow[k];
            }
        }
        // Leaf-to-root elimination (reverse BFS order visits children
        // before parents).
        let mut new_flow = std::mem::take(&mut self.new_flow);
        new_flow.clear();
        // (node, imbalance routed via its artificial arc) repairs.
        let mut swaps: Vec<(usize, f64)> = Vec::new();
        let mut flips: Vec<usize> = Vec::new();
        for idx in (0..self.bfs_order.len()).rev() {
            let v = self.bfs_order[idx] as usize;
            if v == root {
                continue;
            }
            let k = self.parent_arc[v];
            debug_assert_ne!(k, usize::MAX, "spanning check above guarantees a parent");
            let (from, _) = self.endpoints(k);
            // Flow the arc must carry, measured in its own direction;
            // `need[v] > 0` means the subtree under `v` has surplus to
            // push toward the parent.
            let f = if from == v { need[v] } else { -need[v] };
            if k >= m {
                // Artificial arcs are symmetric: flip instead of failing.
                if f < 0.0 {
                    flips.push(k - m);
                    new_flow.push((k, -f));
                } else {
                    new_flow.push((k, f));
                }
                need[self.parent[v]] += need[v];
                continue;
            }
            let cap = self.layer.caps[k];
            if f >= 0.0 && f <= cap {
                new_flow.push((k, f));
                need[self.parent[v]] += need[v];
                continue;
            }
            // Infeasible tree arc: pin it at the violated bound (it
            // leaves the basis there) and reroute the remainder through
            // the subtree's artificial arc to the root. The real arc
            // still carries `pinned` toward the parent; the leftover
            // surplus (possibly negative = deficit) bypasses the parent.
            let pinned = if f < 0.0 { 0.0 } else { cap };
            new_flow.push((k, pinned));
            let carried = if from == v { pinned } else { -pinned };
            swaps.push((v, need[v] - carried));
            need[self.parent[v]] += carried;
        }
        for &(k, f) in &new_flow {
            self.flow[k] = f;
        }
        self.need = need;
        self.new_flow = new_flow;
        for v in flips {
            self.art_to_root[v] = !self.art_to_root[v];
        }
        let repaired = !swaps.is_empty();
        for (v, leftover) in swaps {
            let k = self.parent_arc[v];
            self.in_tree[k] = false;
            self.in_tree[m + v] = true;
            self.art_to_root[v] = leftover >= 0.0;
            self.flow[m + v] = leftover.abs();
        }
        // Orientation or basis changes invalidate parents/potentials.
        self.rebuild_tree(big_m);
        if repaired {
            self.stats.warm_repairs += 1;
        }
        true
    }

    /// Runs primal pivots until optimality, selecting entering arcs by
    /// block-cached Dantzig pricing. Returns `(pivots, arcs_scanned)`
    /// for stats attribution. Each pivot costs its pricing, the tree
    /// cycle, and the walk of the subtree it re-hangs; every arc whose
    /// eligibility a pivot can change is touched for the pricing.
    ///
    /// # Errors
    ///
    /// * [`FlowError::IterationLimit`] past the safety pivot cap.
    /// * [`FlowError::NegativeCycle`] when an uncapacitated negative
    ///   cycle admits an unbounded augmentation.
    fn run_pivots(&mut self, big_m: i64, eps: f64) -> Result<(usize, usize), FlowError> {
        // The pivot cap is a generous safety net; typical instances use
        // far fewer.
        let num_arcs = self.flow.len();
        let max_pivots = 200 * num_arcs + 10_000;
        let mut attempts = 0usize;
        let mut pivots = 0usize;
        let mut scanned = 0usize;
        self.dantzig.reset(num_arcs);
        loop {
            attempts += 1;
            if attempts > max_pivots {
                return Err(FlowError::IterationLimit { pivots: max_pivots });
            }
            // Warm state was marked invalid before pivoting began, so
            // bailing out mid-basis leaves the solver clean: the next
            // solve runs cold. Poll every 64 attempts to keep the check
            // off the per-pivot hot path.
            if attempts.is_multiple_of(64)
                && self
                    .probe
                    .as_ref()
                    .is_some_and(crate::solver::ProbeHandle::is_cancelled)
            {
                return Err(FlowError::Cancelled);
            }
            let pricing = TreePricing {
                topo: &self.topo,
                layer: &self.layer,
                art_to_root: &self.art_to_root,
                flow: &self.flow,
                in_tree: &self.in_tree,
                pi: &self.pi,
                big_m,
                backward_eps: eps.min(1e-12),
            };
            let selected = self.dantzig.select(&pricing, &mut scanned);
            #[cfg(test)]
            self.assert_selection_matches_full_scan(&pricing, selected);
            let Some((entering, forward)) = selected else {
                break; // optimal
            };
            pivots += 1;
            let (efrom, eto) = self.endpoints(entering);
            // Push direction endpoints: δ flows u → v through the arc.
            let (u, v) = if forward { (efrom, eto) } else { (eto, efrom) };
            // Bottleneck around the cycle: entering arc residual plus tree
            // path v → LCA → u.
            let entering_residual = if forward {
                self.arc_cap(entering) - self.flow[entering]
            } else {
                self.flow[entering]
            };
            let mut delta = entering_residual;
            // The leaving arc, and the entering endpoint on its subtree
            // side: `v` when it lies on the v-side walk, `u` otherwise.
            let mut leaving: Option<(usize, usize)> = None;
            let (mut a_node, mut b_node) = (v, u);
            // Walk both endpoints to the LCA, measuring residuals.
            // v-side travels upward WITH the cycle direction; u-side
            // travels upward AGAINST it.
            let mut va = std::mem::take(&mut self.cycle_va);
            let mut vb = std::mem::take(&mut self.cycle_vb);
            va.clear();
            vb.clear();
            while a_node != b_node {
                if self.depth[a_node] >= self.depth[b_node] {
                    va.push(a_node);
                    a_node = self.parent[a_node];
                } else {
                    vb.push(b_node);
                    b_node = self.parent[b_node];
                }
            }
            for &w in &va {
                let k = self.parent_arc[w];
                let (from, _) = self.endpoints(k);
                // Cycle direction: w → parent(w).
                let residual = if from == w {
                    self.arc_cap(k) - self.flow[k]
                } else {
                    self.flow[k]
                };
                if residual < delta {
                    delta = residual;
                    leaving = Some((k, v));
                }
            }
            for &w in &vb {
                let k = self.parent_arc[w];
                let (_, to) = self.endpoints(k);
                // Cycle direction: parent(w) → w.
                let residual = if to == w {
                    self.arc_cap(k) - self.flow[k]
                } else {
                    self.flow[k]
                };
                if residual < delta {
                    delta = residual;
                    leaving = Some((k, u));
                }
            }
            if delta.is_infinite() {
                self.cycle_va = va;
                self.cycle_vb = vb;
                return Err(FlowError::NegativeCycle);
            }
            // Augment δ around the cycle.
            if delta > 0.0 {
                if forward {
                    self.flow[entering] += delta;
                } else {
                    self.flow[entering] -= delta;
                }
                for &w in &va {
                    let k = self.parent_arc[w];
                    let (from, _) = self.endpoints(k);
                    if from == w {
                        self.flow[k] += delta;
                    } else {
                        self.flow[k] -= delta;
                    }
                }
                for &w in &vb {
                    let k = self.parent_arc[w];
                    let (_, to) = self.endpoints(k);
                    if to == w {
                        self.flow[k] += delta;
                    } else {
                        self.flow[k] -= delta;
                    }
                }
            }
            // Replace the leaving arc with the entering one (when the
            // entering arc itself saturated, the tree is unchanged and
            // the entering arc's flow is the only eligibility input that
            // moved, so it is the only touch).
            self.dantzig.touch(entering);
            if let Some((k, inner)) = leaving {
                let outer = if inner == v { u } else { v };
                self.exchange(entering, k, inner, outer, big_m);
                self.dantzig.touch(k);
                #[cfg(test)]
                self.assert_tree_matches_rebuild(big_m);
            }
            // Return the cycle walks' capacity to the scratch slots.
            self.cycle_va = va;
            self.cycle_vb = vb;
        }
        Ok((pivots, scanned))
    }

    /// Post-pivot epilogue: infeasibility check, flow extraction, clean
    /// certificate potentials, warm-state bookkeeping and stats
    /// attribution.
    fn finish(
        &mut self,
        warm: bool,
        pivots: usize,
        scanned: usize,
        total_pos: f64,
        scale: f64,
        eps: f64,
    ) -> Result<FlowSolution, FlowError> {
        let m = self.topo.num_arcs();
        // Infeasibility: artificial flow that could not be drained.
        let residual_artificial: f64 = self.flow[m..].iter().sum();
        if residual_artificial > (1e-6 * scale).max(eps) {
            return Err(FlowError::Infeasible {
                unshipped: residual_artificial,
            });
        }

        let mut flows = vec![0.0; m];
        let mut total_cost = 0.0;
        for (k, flow) in flows.iter_mut().enumerate() {
            *flow = self.flow[k];
            total_cost += self.flow[k] * self.layer.costs[k] as f64;
        }
        // The tree potentials contain big-M offsets from artificial arcs,
        // which amplify floating-point supply dust into visible duality
        // gaps; return clean ones recomputed from the optimal flow.
        let clean =
            self.certificate
                .compute(&self.topo, &self.layer, &self.flow[..m], 1e-12 * scale)?;
        self.has_state = true;
        self.stats.pivots += pivots;
        self.stats.arcs_scanned += scanned;
        if warm {
            self.stats.warm_solves += 1;
        } else {
            self.stats.cold_solves += 1;
        }
        Ok(FlowSolution {
            flows,
            potentials: clean,
            total_cost,
            shipped: total_pos,
        })
    }

    fn solve_inner(&mut self) -> Result<FlowSolution, FlowError> {
        let (total_pos, scale) = self.layer.check_balance()?;
        let eps = 1e-9 * scale;
        let big_m = self.big_m()?;

        let warm = self.warm_enabled && self.has_state && self.try_warm_basis(big_m);
        if !warm {
            if self.warm_enabled && self.has_state {
                // Fallbacks (like repairs) are counted as events at
                // occurrence; cold/warm counters track completed solves.
                self.stats.warm_fallbacks += 1;
            }
            self.cold_basis();
            self.rebuild_tree(big_m);
        }
        self.has_state = false;

        let (pivots, scanned) = self.run_pivots(big_m, eps)?;
        self.finish(warm, pivots, scanned, total_pos, scale, eps)
    }
}

impl McfSolver for SimplexSolver {
    fn name(&self) -> &'static str {
        "network-simplex"
    }
    fn topology(&self) -> &NetworkTopology {
        &self.topo
    }
    fn layer(&self) -> &CostLayer {
        &self.layer
    }
    fn layer_mut(&mut self) -> &mut CostLayer {
        &mut self.layer
    }
    fn set_warm_start(&mut self, enabled: bool) {
        self.warm_enabled = enabled;
    }
    fn warm_start(&self) -> bool {
        self.warm_enabled
    }
    fn invalidate(&mut self) {
        self.has_state = false;
    }
    fn set_cancel_probe(&mut self, probe: Option<crate::solver::ProbeHandle>) {
        self.probe = probe;
    }
    fn solve(&mut self) -> Result<FlowSolution, FlowError> {
        self.solve_inner()
    }
    fn stats(&self) -> SolverStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Basis exchanges cross-checked on this test thread.
        static TREE_CHECKS: Cell<usize> = const { Cell::new(0) };
        /// Dantzig selections cross-checked on this test thread.
        static PRICING_CHECKS: Cell<usize> = const { Cell::new(0) };
    }

    impl SimplexSolver {
        /// Compares the incrementally kept tree with a from-scratch
        /// rebuild on a clone; runs after every basis exchange in
        /// this crate's unit tests.
        pub(super) fn assert_tree_matches_rebuild(&self, big_m: i64) {
            let mut fresh = self.clone();
            fresh.rebuild_tree(big_m);
            assert_eq!(self.parent, fresh.parent, "parent");
            assert_eq!(self.parent_arc, fresh.parent_arc, "parent_arc");
            assert_eq!(self.depth, fresh.depth, "depth");
            assert_eq!(self.pi, fresh.pi, "pi");
            for (kept, rebuilt) in self.tree_adj.iter().zip(&fresh.tree_adj) {
                let mut kept = kept.clone();
                kept.sort_unstable();
                assert_eq!(&kept, rebuilt, "tree_adj");
            }
            TREE_CHECKS.with(|c| c.set(c.get() + 1));
        }

        /// Compares a block-cached Dantzig selection with a fresh
        /// ascending scan of every arc; runs before every pivot in this
        /// crate's unit tests.
        pub(super) fn assert_selection_matches_full_scan(
            &self,
            pricing: &TreePricing<'_>,
            selected: Option<(usize, bool)>,
        ) {
            assert_eq!(selected, crate::pivot::dantzig_full_scan(pricing));
            PRICING_CHECKS.with(|c| c.set(c.get() + 1));
        }
    }

    /// Every basis exchange of cold solves, warm re-solves (with
    /// repairs that swap artificial arcs in) and finite capacities
    /// leaves the tree a rebuild would produce, and every block-cached
    /// Dantzig selection is the full scan's.
    #[test]
    fn incremental_tree_matches_rebuild_after_every_pivot() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let checks_before = TREE_CHECKS.with(Cell::get);
        let pricing_before = PRICING_CHECKS.with(Cell::get);
        let mut repairs = 0;
        for _ in 0..12 {
            let n = rng.gen_range(6..24);
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
                for _ in 0..3 {
                    let u = rng.gen_range(0..n);
                    if u != v {
                        let cap = if rng.gen_bool(0.4) {
                            rng.gen_range(0.5..3.0)
                        } else {
                            f64::INFINITY
                        };
                        net.add_arc(v, u, cap, rng.gen_range(0..20)).unwrap();
                    }
                }
            }
            let mut solver = SimplexSolver::new(&net);
            solver.set_warm_start(true);
            for _ in 0..4 {
                solver.solve().unwrap();
                let m = solver.num_arcs();
                for _ in 0..m / 2 {
                    let k = rng.gen_range(0..m);
                    solver
                        .layer_mut()
                        .set_cost(k, rng.gen_range(0..25))
                        .unwrap();
                }
                // Supply drift moves tree flows past their bounds,
                // which the warm start repairs with artificial arcs.
                let mut shift = 0.0;
                for v in 0..n - 1 {
                    let d = rng.gen_range(-1.0..1.0);
                    let s = solver.supply(v);
                    solver.layer_mut().set_supply(v, s + d);
                    shift += d;
                }
                let last = solver.supply(n - 1);
                solver.layer_mut().set_supply(n - 1, last - shift);
            }
            let stats = solver.stats();
            assert!(
                stats.cold_solves >= 1 && stats.warm_solves >= 1,
                "{stats:?}"
            );
            repairs += stats.warm_repairs;
        }
        assert!(repairs > 0, "no warm repair brought artificial arcs back");
        assert!(TREE_CHECKS.with(Cell::get) > checks_before + 100);
        assert!(PRICING_CHECKS.with(Cell::get) > pricing_before + 50);
    }

    #[test]
    fn matches_reference_on_basics() {
        let mut net = FlowNetwork::new(3);
        net.set_supply(0, 2.0);
        net.set_supply(2, -2.0);
        net.add_arc(0, 1, f64::INFINITY, 1).unwrap();
        net.add_arc(1, 2, f64::INFINITY, 1).unwrap();
        net.add_arc(0, 2, f64::INFINITY, 5).unwrap();
        let reference = net.solve_reference().unwrap();
        let simplex = net.solve().unwrap();
        assert_eq!(simplex.total_cost, reference.total_cost);
        simplex.verify(&net).unwrap();
    }

    #[test]
    fn handles_finite_capacities() {
        let mut net = FlowNetwork::new(3);
        net.set_supply(0, 2.0);
        net.set_supply(2, -2.0);
        net.add_arc(0, 1, 1.0, 1).unwrap();
        net.add_arc(1, 2, f64::INFINITY, 1).unwrap();
        net.add_arc(0, 2, f64::INFINITY, 5).unwrap();
        let simplex = net.solve().unwrap();
        assert_eq!(simplex.total_cost, 7.0);
        simplex.verify(&net).unwrap();
    }

    #[test]
    fn detects_negative_cycle() {
        let mut net = FlowNetwork::new(2);
        net.set_supply(0, 1.0);
        net.set_supply(1, -1.0);
        net.add_arc(0, 1, f64::INFINITY, -1).unwrap();
        net.add_arc(1, 0, f64::INFINITY, -1).unwrap();
        assert!(matches!(net.solve(), Err(FlowError::NegativeCycle)));
    }

    #[test]
    fn detects_infeasibility() {
        let mut net = FlowNetwork::new(4);
        net.set_supply(0, 1.0);
        net.set_supply(3, -1.0);
        net.add_arc(0, 1, f64::INFINITY, 1).unwrap();
        net.add_arc(2, 3, f64::INFINITY, 1).unwrap();
        assert!(matches!(net.solve(), Err(FlowError::Infeasible { .. })));
    }

    #[test]
    fn matches_reference_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for case in 0..40 {
            let n = rng.gen_range(3..12);
            let mut net = FlowNetwork::new(n);
            let mut total = 0.0;
            for v in 0..n - 1 {
                let s = rng.gen_range(-3.0..3.0);
                net.set_supply(v, s);
                total += s;
            }
            net.set_supply(n - 1, -total);
            for _ in 0..n * 3 {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u == v {
                    continue;
                }
                let cost = rng.gen_range(0..25);
                let cap = if rng.gen_bool(0.3) {
                    rng.gen_range(0.5..4.0)
                } else {
                    f64::INFINITY
                };
                net.add_arc(u, v, cap, cost).unwrap();
            }
            let reference = net.solve_reference();
            let simplex = net.solve();
            match (reference, simplex) {
                (Ok(a), Ok(b)) => {
                    assert!(
                        (a.total_cost - b.total_cost).abs() < 1e-6 * (1.0 + a.total_cost.abs()),
                        "case {case}: reference {} vs simplex {}",
                        a.total_cost,
                        b.total_cost
                    );
                    b.verify(&net).unwrap();
                }
                (Err(FlowError::Infeasible { .. }), Err(FlowError::Infeasible { .. })) => {}
                (a, b) => panic!("case {case}: disagreement {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn negative_costs_without_cycles() {
        let mut net = FlowNetwork::new(3);
        net.set_supply(0, 1.0);
        net.set_supply(2, -1.0);
        net.add_arc(0, 1, f64::INFINITY, -3).unwrap();
        net.add_arc(1, 2, f64::INFINITY, 1).unwrap();
        net.add_arc(0, 2, f64::INFINITY, 0).unwrap();
        let sol = net.solve().unwrap();
        assert_eq!(sol.total_cost, -2.0);
        sol.verify(&net).unwrap();
    }

    #[test]
    fn pivot_cap_is_an_iteration_limit_error() {
        // Not reachable through normal solves; assert the variant shape
        // via the error type directly so callers can match on it.
        let e = FlowError::IterationLimit { pivots: 7 };
        assert!(e.to_string().contains('7'));
    }
}
