//! A primal network simplex solver for min-cost flow, persistent across
//! cost/supply updates.
//!
//! The paper's D-phase complexity claim rests on network-flow machinery
//! in the family of Goldberg–Grigoriadis–Tarjan's network simplex (its
//! reference \[9\]). [`SimplexSolver`] implements the classic primal
//! algorithm over a network's arcs, frozen into CSR arrays once:
//!
//! * an artificial root node with big-`M` arcs gives the initial
//!   spanning tree (all supplies routed through the root);
//! * each pivot brings in the real arc with the most negative
//!   reduced-cost violation (block-cached Dantzig pricing), pushes flow
//!   around the unique tree cycle, and re-hangs the subtree cut off by
//!   the leaving arc;
//! * artificial flow remaining at optimality signals infeasibility; an
//!   uncapacitated negative cycle signals unboundedness.
//!
//! **Only the real arcs are priced.** An artificial arc enters the basis
//! only through a basis install (the cold star, or a warm repair swap);
//! once a pivot drives it out, at zero flow, it never re-enters (as in
//! LEMON's `NetworkSimplex` with balanced supplies). That keeps the
//! method exact. Dropping the non-basic artificial arcs leaves every
//! real-only feasible flow feasible, so a basis with no eligible real
//! arc is optimal for the network plus the basic artificial arcs. With
//! big-`M` = (max|cost| + 1) · nodes, every cycle through the root
//! carries two artificial arcs and costs more than
//! 2 · big-`M` − nodes · max|cost| > 0, so an optimum that still routes
//! flow through the root proves the instance infeasible.
//!
//! **Per-pivot cost.** A pivot costs its pricing, the walk around the
//! tree cycle, and the basis exchange (Király & Kovács, "Efficient
//! implementations of minimum-cost flow algorithms", 2012). The tree is
//! kept as child lists (`first_child`/`next_sib`/`prev_sib`). The
//! exchange re-parents only the *stem*, the tree path from the entering
//! arc's inner endpoint up to the node below the leaving arc; the rest
//! of the moved subtree keeps its parents. Its potentials all shift by
//! one exact `i64` amount σ (tree arcs inside it keep zero reduced
//! cost), so one walk of the subtree adds σ, re-derives depths and
//! stamps each node with the exchange's epoch, without any per-node arc
//! lookups. Only arcs with exactly one endpoint in the moved subtree
//! change reduced cost, so the exchange prices just those boundary real
//! arcs (read, with their heads, from the topology's adjacency) as its
//! walk finds them, and touches the entering arc for the next
//! selection; Dantzig pricing merges each such arc alone into its
//! 64-arc block and re-prices a whole block only when the arc was that
//! block's cached best. A pivot thus costs
//! its boundary arcs, the few blocks whose best it changed, the moved
//! subtree and the cycle instead of an O(arcs) scan (the pricing's
//! `select` and `merge` are generic over the pricing view, so the
//! reduced-cost test inlines). A rooted spanning tree determines its
//! parents, depths and potentials, so the incremental tree equals one
//! rebuilt from the tree arcs alone, and the pivot sequence is the one a
//! rebuild after every pivot would give (the unit tests check both after
//! every exchange and every basis install).
//!
//! **Basis installs cost O(nodes) plus one scan of the arc flows.** A
//! cold start installs the star of artificial arcs directly. A warm
//! start keeps the tree the last solve's pivots left: one walk of its
//! child lists gives the leaf-to-root order of the flow recomputation,
//! a repaired node is relinked under the root with its subtree, and one
//! top-down pass over the same walk re-derives depths and potentials for
//! the new costs.
//!
//! **Warm starts.** Every solve after the first starts from the
//! previous solve's spanning tree: non-basic arc flows are kept, the
//! basic (tree) arc flows are recomputed leaf-to-root for the new
//! supplies, and basic artificial arcs flip direction freely (they are
//! symmetric big-`M` arcs; a non-basic one carries nothing and is never
//! priced, so its direction is never read). A real tree arc that would
//! need a flow outside `[0, cap]` is repaired in place (counted in
//! [`SolverStats::warm_repairs`]); a retained state that cannot be
//! repaired falls back to a cold start (counted in
//! [`SolverStats::warm_fallbacks`]). [`SimplexSolver::invalidate`]
//! drops the tree, and so does a failed or cancelled solve; the next
//! solve then runs cold.
//!
//! Potentials are maintained in `i64`: an artificial arc touches the
//! root, so a root path crosses exactly one, and |π| ≤ big-`M` +
//! nodes · max|cost| < 2 · big-`M`, with big-`M` capped at `i64::MAX / 8`
//! so that reduced costs cannot overflow either. The *returned*
//! certificate potentials are recomputed cleanly from the optimal flow
//! by one Dijkstra pass reweighted with the optimal tree potentials
//! ([`crate::potentials`]).
//! They are the greatest optimal dual that is `≤ 0`, a function of the
//! instance alone: every optimal flow certifies the same set of optimal
//! duals, so which basis a solve started from, and which optimal flow
//! it reached, cannot change them. On an integral instance (integer
//! supplies and finite capacities, total supply at most 2⁵³) every flow
//! is an exact integer, so the residual graph is read exactly; other
//! instances read it with a `1e-12 · scale` dust tolerance.

use crate::error::FlowError;
use crate::network::{FlowNetwork, FlowSolution};
use crate::pivot::{DantzigBlocks, PricingContext};
use crate::potentials::CertificatePotentials;
use crate::solver::{ProbeHandle, SolverStats};
use crate::topology::{check_balance, CostLayer, NetworkTopology};
use crate::ArcId;

/// The empty link of the tree's child and sibling lists.
const NONE: u32 = u32::MAX;

/// Persistent primal network simplex: the min-cost-flow solver.
///
/// Built once from a [`FlowNetwork`]; the arc structure is then fixed,
/// while costs ([`SimplexSolver::set_cost`]) and supplies
/// ([`SimplexSolver::set_supply`]) may be rewritten between solves
/// without reallocation.
#[derive(Debug, Clone)]
pub struct SimplexSolver {
    pub(crate) topo: NetworkTopology,
    pub(crate) layer: CostLayer,
    /// Whether the arrays below hold the last solve's optimal basis.
    has_state: bool,
    /// Flow per arc: public arcs first, then one artificial per node.
    flow: Vec<f64>,
    /// Whether each arc is in the current spanning tree.
    in_tree: Vec<bool>,
    /// Direction of each node's artificial arc (`true` = node → root),
    /// read only while the arc is basic.
    art_to_root: Vec<bool>,
    // The spanning tree rooted at the artificial root: set by the basis
    // installs, kept up to date by `exchange` on every pivot.
    parent: Vec<usize>,
    parent_arc: Vec<usize>,
    depth: Vec<u32>,
    pi: Vec<i64>,
    /// Each node's children, as a doubly linked sibling list (order
    /// unspecified; `NONE` ends a list).
    first_child: Vec<u32>,
    next_sib: Vec<u32>,
    prev_sib: Vec<u32>,
    /// Root-first walk of the tree's child lists, taken by each warm
    /// install: every node comes after its parent.
    order: Vec<u32>,
    /// The subtree the last exchange moved, top-down; its members carry
    /// that exchange's `epoch` in `stamp`, and no other node does.
    subtree: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
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
    probe: Option<ProbeHandle>,
    stats: SolverStats,
}

/// The pricing view `run_pivots` offers its Dantzig pricing:
/// reduced-cost eligibility per arc. It borrows the solver's fields one
/// by one, so the pricing state (another field) can be borrowed mutably
/// beside it.
struct TreePricing<'a> {
    topo: &'a NetworkTopology,
    layer: &'a CostLayer,
    flow: &'a [f64],
    in_tree: &'a [bool],
    pi: &'a [i64],
    /// Minimum residual flow for backward eligibility.
    backward_eps: f64,
}

impl PricingContext for TreePricing<'_> {
    /// The real arcs only: an artificial arc is never eligible.
    fn num_arcs(&self) -> usize {
        self.topo.num_arcs()
    }

    // Forced: without it the pricing's scan loop keeps an out-of-line
    // call per arc, a third of the pricing time on a c6288-like D-phase.
    #[inline(always)]
    fn violation(&self, k: usize) -> Option<(i64, bool)> {
        if self.in_tree[k] {
            return None;
        }
        let (from, to) = self.topo.arc_endpoints(k);
        let rc = self.layer.costs[k] + self.pi[from] - self.pi[to];
        // Forward and backward eligibility are mutually exclusive
        // (rc < 0 vs rc > 0), so checking forward first preserves the
        // historical inline loop's outcome exactly.
        if self.flow[k] < self.layer.caps[k] && rc < 0 {
            return Some((rc, true));
        }
        if self.flow[k] > self.backward_eps && -rc < 0 {
            return Some((-rc, false));
        }
        None
    }
}

/// The solver's [`TreePricing`] view for balance tolerance `$eps`,
/// borrowing field by field.
macro_rules! tree_pricing {
    ($solver:expr, $eps:expr) => {
        TreePricing {
            topo: &$solver.topo,
            layer: &$solver.layer,
            flow: &$solver.flow,
            in_tree: &$solver.in_tree,
            pi: &$solver.pi,
            backward_eps: $eps.min(1e-12),
        }
    };
}

impl SimplexSolver {
    /// Builds a persistent solver over `net`'s arcs, costs, capacities
    /// and supplies. Its first solve runs cold; each later one
    /// warm-starts from the basis the previous solve left.
    pub fn new(net: &FlowNetwork) -> Self {
        let topo = NetworkTopology::build(net);
        let layer = CostLayer::build(net);
        let n = topo.num_nodes();
        let m = topo.num_arcs();
        let num_nodes = n + 1; // plus artificial root
        SimplexSolver {
            layer,
            has_state: false,
            flow: vec![0.0; m + n],
            in_tree: vec![false; m + n],
            art_to_root: vec![true; n],
            parent: vec![usize::MAX; num_nodes],
            parent_arc: vec![usize::MAX; num_nodes],
            depth: vec![0; num_nodes],
            pi: vec![0; num_nodes],
            first_child: vec![NONE; num_nodes],
            next_sib: vec![NONE; num_nodes],
            prev_sib: vec![NONE; num_nodes],
            order: Vec::with_capacity(num_nodes),
            subtree: Vec::new(),
            stamp: vec![0; num_nodes],
            epoch: 0,
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

    /// Endpoints of arc `k`: public arcs first, then one artificial arc
    /// per node `v` between `v` and the root, in its current orientation.
    fn endpoints(&self, k: usize) -> (usize, usize) {
        let (m, root) = (self.topo.num_arcs(), self.topo.num_nodes());
        match k.checked_sub(m) {
            None => self.topo.arc_endpoints(k),
            Some(v) if self.art_to_root[v] => (v, root),
            Some(v) => (root, v),
        }
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
    /// exceeds `i64::MAX / 8`, the bound that keeps every tree potential
    /// and reduced cost inside `i64`.
    fn big_m(&self) -> Result<i64, FlowError> {
        let num_nodes = self.topo.num_nodes() + 1;
        let max_cost = self.layer.costs.iter().map(|c| c.abs()).max().unwrap_or(0);
        (max_cost + 1)
            .checked_mul(num_nodes as i64)
            .filter(|&big_m| big_m <= i64::MAX / 8)
            .ok_or_else(|| FlowError::BadInput {
                message: "costs too large for network simplex big-M".to_owned(),
            })
    }

    /// The potential a node hung from `u` through tree arc `k` takes
    /// (tree arcs have zero reduced cost: c + π(from) − π(to) = 0).
    fn hung_potential(&self, u: usize, k: usize, big_m: i64) -> i64 {
        let c = self.arc_cost(k, big_m);
        let (from, _) = self.endpoints(k);
        if from == u {
            self.pi[u] + c
        } else {
            self.pi[u] - c
        }
    }

    /// Pushes `w` onto its parent's child list.
    fn link(&mut self, w: usize) {
        let p = self.parent[w];
        let head = self.first_child[p];
        self.next_sib[w] = head;
        self.prev_sib[w] = NONE;
        if head != NONE {
            self.prev_sib[head as usize] = w as u32;
        }
        self.first_child[p] = w as u32;
    }

    /// Removes `w` from its parent's child list.
    fn unlink(&mut self, w: usize) {
        let (prev, next) = (self.prev_sib[w], self.next_sib[w]);
        if prev == NONE {
            self.first_child[self.parent[w]] = next;
        } else {
            self.next_sib[prev as usize] = next;
        }
        if next != NONE {
            self.prev_sib[next as usize] = prev;
        }
    }

    /// Basis exchange of one pivot: the parent arc of `top` leaves the
    /// tree and `entering` joins. Removing the leaving arc cuts off the
    /// subtree under `top`, which holds `inner`; `entering` re-attaches
    /// it below `outer`, rooted at `inner`.
    ///
    /// Only the stem `inner → … → top` changes parents: each stem node's
    /// old parent becomes its child through the same arc. Every
    /// potential of the moved subtree shifts by the same σ, so one
    /// top-down walk adds σ and re-derives depths. The result is the
    /// tree a rebuild would produce (a rooted spanning tree determines
    /// its parents, depths and potentials), so the pivot sequence does
    /// not depend on which of the two maintained it.
    ///
    /// Then the exchange merges into the pricing every non-tree real
    /// arc with exactly one endpoint in the moved subtree, which
    /// includes a real leaving arc: arcs inside it keep their reduced
    /// costs, and arcs outside it keep their potentials. Their
    /// eligibility is final here, so each is priced as the walk finds
    /// it. The moved nodes' artificial arcs are never priced.
    fn exchange(
        &mut self,
        entering: usize,
        top: usize,
        inner: usize,
        outer: usize,
        big_m: i64,
        eps: f64,
    ) {
        self.in_tree[self.parent_arc[top]] = false;
        self.in_tree[entering] = true;
        let sigma = self.hung_potential(outer, entering, big_m) - self.pi[inner];
        // Reverse the stem: `w` hangs from `p` through `arc`.
        let (mut w, mut p, mut arc) = (inner, outer, entering);
        loop {
            let (old_parent, old_arc) = (self.parent[w], self.parent_arc[w]);
            self.unlink(w);
            self.parent[w] = p;
            self.parent_arc[w] = arc;
            self.link(w);
            if w == top {
                break;
            }
            (w, p, arc) = (old_parent, w, old_arc);
        }
        // Stamp a fresh epoch; on wrap-around, no old stamp may match.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        // Walk the moved subtree top-down (the list is its own queue).
        self.subtree.clear();
        self.subtree.push(inner as u32);
        let mut head = 0;
        while head < self.subtree.len() {
            let w = self.subtree[head] as usize;
            head += 1;
            self.depth[w] = self.depth[self.parent[w]] + 1;
            self.pi[w] += sigma;
            self.stamp[w] = self.epoch;
            let mut child = self.first_child[w];
            while child != NONE {
                self.subtree.push(child);
                child = self.next_sib[child as usize];
            }
        }
        let pricing = tree_pricing!(self, eps);
        for &w in &self.subtree {
            for &(i, other) in self.topo.public_adjacent(w as usize) {
                let k = i as usize >> 1;
                if self.stamp[other as usize] != self.epoch && !self.in_tree[k] {
                    self.dantzig.merge(&pricing, k);
                }
            }
        }
    }

    /// Installs the cold basis: all supplies routed through the root,
    /// the star of artificial arcs.
    fn cold_basis(&mut self, big_m: i64) {
        let n = self.topo.num_nodes();
        let m = self.topo.num_arcs();
        let root = n;
        self.flow[..m].fill(0.0);
        self.in_tree[..m].fill(false);
        self.in_tree[m..].fill(true);
        self.first_child.fill(NONE);
        for v in 0..n {
            let s = self.layer.supply[v];
            self.art_to_root[v] = s >= 0.0;
            self.flow[m + v] = s.abs();
            self.parent[v] = root;
            self.parent_arc[v] = m + v;
            self.depth[v] = 1;
            self.pi[v] = self.hung_potential(root, m + v, big_m);
            self.link(v);
        }
        #[cfg(test)]
        self.assert_tree_matches_rebuild(big_m, tests::TreeEvent::ColdInstall);
    }

    /// Reuses the previous spanning tree as the starting basis for the
    /// current costs/supplies, repairing it where it went
    /// primal-infeasible. Returns `false` only when the retained state
    /// is unusable (non-basic flow above a shrunk capacity, or child
    /// lists that do not span the nodes), in which case the caller
    /// cold-starts.
    ///
    /// The pivots left the tree's child lists, parents and parent arcs
    /// valid, so the install walks them instead of rebuilding them.
    /// Repair strategy: tree-arc flows are recomputed leaf-to-root for
    /// the new supplies. A real tree arc whose required flow leaves
    /// `[0, cap]` is pinned at the violated bound and swapped out of the
    /// basis for the subtree's artificial root arc (removing a tree arc
    /// splits off exactly the subtree, and the node-to-root artificial
    /// reconnects it), which absorbs the residual imbalance at big-`M`
    /// cost; the subsequent pivots drain it. Artificial tree arcs are
    /// symmetric and simply flip direction when their flow would be
    /// negative. Depths and potentials are then re-derived top-down.
    fn try_warm_basis(&mut self, big_m: i64) -> bool {
        let n = self.topo.num_nodes();
        let m = self.topo.num_arcs();
        let root = n;
        // Need: what the tree must carry at each node after non-basic
        // arcs are accounted for (non-basic artificial arcs carry
        // nothing). Non-basic arcs keep their flows; they must still
        // respect the (possibly updated) capacities. `need`/`new_flow`
        // are struct scratch.
        let mut need = std::mem::take(&mut self.need);
        need[..n].copy_from_slice(&self.layer.supply);
        need[root] = 0.0;
        for k in 0..m {
            let f = self.flow[k];
            if self.in_tree[k] || f == 0.0 {
                continue;
            }
            if f > self.layer.caps[k] {
                self.need = need;
                return false;
            }
            let (from, to) = self.topo.arc_endpoints(k);
            need[from] -= f;
            need[to] += f;
        }
        // Walk the child lists root first (the list is its own queue).
        self.order.clear();
        self.order.push(root as u32);
        let mut head = 0;
        while head < self.order.len() && self.order.len() <= n + 1 {
            let mut child = self.first_child[self.order[head] as usize];
            head += 1;
            while child != NONE {
                self.order.push(child);
                child = self.next_sib[child as usize];
            }
        }
        if self.order.len() != n + 1 {
            // The child lists do not span the nodes (a broken invariant,
            // not an expected state): fall back cold rather than
            // warm-solving with unvisited nodes' flows stale.
            self.need = need;
            return false;
        }
        // Leaf-to-root elimination (the reversed walk visits children
        // before parents).
        let mut new_flow = std::mem::take(&mut self.new_flow);
        new_flow.clear();
        // (node, imbalance routed via its artificial arc) repairs.
        let mut swaps: Vec<(usize, f64)> = Vec::new();
        let mut flips: Vec<usize> = Vec::new();
        for idx in (1..self.order.len()).rev() {
            let v = self.order[idx] as usize;
            let k = self.parent_arc[v];
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
            self.in_tree[self.parent_arc[v]] = false;
            self.in_tree[m + v] = true;
            self.art_to_root[v] = leftover >= 0.0;
            self.flow[m + v] = leftover.abs();
            // The subtree under `v` keeps its shape and hangs from the
            // root through the artificial arc.
            self.unlink(v);
            self.parent[v] = root;
            self.parent_arc[v] = m + v;
            self.link(v);
        }
        // The walk still puts every parent first (a swapped node's new
        // parent is the root), so one pass re-derives depths and the
        // potentials of the new costs and orientations.
        for idx in 1..self.order.len() {
            let w = self.order[idx] as usize;
            let u = self.parent[w];
            self.depth[w] = self.depth[u] + 1;
            self.pi[w] = self.hung_potential(u, self.parent_arc[w], big_m);
        }
        if repaired {
            self.stats.warm_repairs += 1;
        }
        #[cfg(test)]
        self.assert_tree_matches_rebuild(big_m, tests::TreeEvent::WarmInstall { repaired });
        true
    }

    /// Runs primal pivots until optimality, selecting entering arcs by
    /// block-cached Dantzig pricing over the real arcs. Returns
    /// `(pivots, reduced costs computed)` for stats attribution. Each
    /// pivot costs its pricing, the tree cycle, and the walk of the
    /// subtree it re-hangs; every real arc whose eligibility a pivot can
    /// change is merged into the pricing.
    ///
    /// # Errors
    ///
    /// * [`FlowError::IterationLimit`] past the safety pivot cap.
    /// * [`FlowError::NegativeCycle`] when an uncapacitated negative
    ///   cycle admits an unbounded augmentation.
    fn run_pivots(&mut self, big_m: i64, eps: f64) -> Result<(usize, usize), FlowError> {
        // The pivot cap is a generous safety net; typical instances use
        // far fewer.
        let max_pivots = 200 * self.flow.len() + 10_000;
        let mut attempts = 0usize;
        let mut pivots = 0usize;
        self.dantzig.reset(self.topo.num_arcs());
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
                && self.probe.as_ref().is_some_and(ProbeHandle::is_cancelled)
            {
                return Err(FlowError::Cancelled);
            }
            let pricing = tree_pricing!(self, eps);
            let selected = self.dantzig.select(&pricing);
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
            // The node below the leaving arc, and the entering endpoint
            // on its side: `v` when it lies on the v-side walk, `u`
            // otherwise.
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
                    leaving = Some((w, v));
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
                    leaving = Some((w, u));
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
            // moved, so it is the only touch; otherwise the exchange
            // merges the leaving arc among the boundary arcs).
            self.dantzig.touch(entering);
            if let Some((top, inner)) = leaving {
                let outer = if inner == v { u } else { v };
                self.exchange(entering, top, inner, outer, big_m, eps);
                #[cfg(test)]
                self.assert_tree_matches_rebuild(big_m, tests::TreeEvent::Exchange);
            }
            // Return the cycle walks' capacity to the scratch slots.
            self.cycle_va = va;
            self.cycle_vb = vb;
        }
        Ok((pivots, self.dantzig.priced))
    }

    /// Post-pivot epilogue: infeasibility check, flow extraction, clean
    /// certificate potentials, warm-state bookkeeping and stats
    /// attribution.
    fn finish(
        &mut self,
        warm: bool,
        pivots: usize,
        priced: usize,
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
        let dust = self.layer.residual_dust(scale);
        let clean =
            self.certificate
                .compute(&self.topo, &self.layer, &self.flow[..m], &self.pi, dust)?;
        self.has_state = true;
        self.stats.pivots += pivots;
        self.stats.arcs_scanned += priced;
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
}

/// The persistent interface: instance accessors and setters, the
/// warm-state and cancellation controls, and the solve itself.
impl SimplexSolver {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.topo.num_nodes()
    }

    /// Number of arcs.
    pub fn num_arcs(&self) -> usize {
        self.topo.num_arcs()
    }

    /// The supply of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn supply(&self, v: usize) -> f64 {
        self.layer.supply[v]
    }

    /// Sets the cost of arc `k` for the following solves.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::BadInput`] for an out-of-range arc or a cost
    /// of magnitude above `i64::MAX / 8` (same contract as
    /// [`FlowNetwork::add_arc`]).
    pub fn set_cost(&mut self, k: ArcId, cost: i64) -> Result<(), FlowError> {
        self.layer.set_cost(k, cost)
    }

    /// Sets the supply of node `v` for the following solves.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn set_supply(&mut self, v: usize, supply: f64) {
        self.layer.supply[v] = supply;
    }

    /// Drops the retained spanning tree; the next solve runs cold.
    pub fn invalidate(&mut self) {
        self.has_state = false;
    }

    /// Installs (or clears, with `None`) a cooperative cancellation
    /// probe polled between pivots; a positive poll aborts the solve
    /// with [`FlowError::Cancelled`].
    pub fn set_cancel_probe(&mut self, probe: Option<ProbeHandle>) {
        self.probe = probe;
    }

    /// Solves the current instance, warm-started from the previous
    /// solve's spanning tree when the solver holds one.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FlowNetwork::solve`]: unbalanced supplies,
    /// negative cycles, infeasibility, the pivot cap, plus
    /// [`FlowError::Cancelled`] from the cancellation probe.
    pub fn solve(&mut self) -> Result<FlowSolution, FlowError> {
        let (total_pos, scale) = check_balance(&self.layer.supply)?;
        let eps = 1e-9 * scale;
        let big_m = self.big_m()?;

        let warm = self.has_state && self.try_warm_basis(big_m);
        if !warm {
            if self.has_state {
                // Fallbacks (like repairs) are counted as events at
                // occurrence; cold/warm counters track completed solves.
                self.stats.warm_fallbacks += 1;
            }
            self.cold_basis(big_m);
        }
        self.has_state = false;

        let (pivots, priced) = self.run_pivots(big_m, eps)?;
        self.finish(warm, pivots, priced, total_pos, scale, eps)
    }

    /// Cold/warm counters since construction.
    pub fn stats(&self) -> SolverStats {
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
        /// Basis installs cross-checked on this test thread: cold,
        /// warm without a repair, warm with one.
        static INSTALL_CHECKS: Cell<[usize; 3]> = const { Cell::new([0; 3]) };
        /// Dantzig selections cross-checked on this test thread.
        static PRICING_CHECKS: Cell<usize> = const { Cell::new(0) };
        /// Nodes moved by the exchanges cross-checked on this thread.
        static MOVED_NODES: Cell<usize> = const { Cell::new(0) };
        /// Selections on this test thread whose entering arc was
        /// artificial: the pricing covers the real arcs only, so 0.
        static ARTIFICIAL_ENTRIES: Cell<usize> = const { Cell::new(0) };
    }

    /// What last changed the spanning tree, for the cross-check tallies.
    #[derive(Debug, Clone, Copy)]
    pub(super) enum TreeEvent {
        Exchange,
        ColdInstall,
        WarmInstall { repaired: bool },
    }

    impl SimplexSolver {
        /// The tree oracle: rebuilds the child lists and the
        /// parent/depth/potential arrays from the tree-arc set alone, by
        /// BFS from the root.
        fn rebuild_tree(&mut self, big_m: i64) {
            let root = self.topo.num_nodes();
            let m = self.topo.num_arcs();
            self.parent.fill(usize::MAX);
            self.parent_arc.fill(usize::MAX);
            self.first_child.fill(NONE);
            let mut visited = vec![false; root + 1];
            let mut queue = vec![root];
            visited[root] = true;
            self.depth[root] = 0;
            self.pi[root] = 0;
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                // (node, tree arc) pairs hanging from `u`: the root's are
                // artificial, every other node's public.
                let arcs: Vec<(usize, usize)> = if u == root {
                    (0..root)
                        .filter(|&v| self.in_tree[m + v])
                        .map(|v| (v, m + v))
                        .collect()
                } else {
                    self.topo
                        .public_adjacent(u)
                        .iter()
                        .filter(|&&(i, _)| self.in_tree[i as usize >> 1])
                        .map(|&(i, w)| (w as usize, i as usize >> 1))
                        .collect()
                };
                for (w, k) in arcs {
                    if !visited[w] {
                        visited[w] = true;
                        self.parent[w] = u;
                        self.parent_arc[w] = k;
                        self.depth[w] = self.depth[u] + 1;
                        self.pi[w] = self.hung_potential(u, k, big_m);
                        self.link(w);
                        queue.push(w);
                    }
                }
            }
        }

        /// Compares the incrementally kept tree with a from-scratch
        /// rebuild on a clone; runs after every basis exchange and
        /// every basis install in this crate's unit tests.
        pub(super) fn assert_tree_matches_rebuild(&self, big_m: i64, event: TreeEvent) {
            let mut fresh = self.clone();
            fresh.rebuild_tree(big_m);
            assert_eq!(self.parent, fresh.parent, "parent after {event:?}");
            assert_eq!(
                self.parent_arc, fresh.parent_arc,
                "parent_arc after {event:?}"
            );
            assert_eq!(self.depth, fresh.depth, "depth after {event:?}");
            assert_eq!(self.pi, fresh.pi, "pi after {event:?}");
            for u in 0..self.parent.len() {
                assert_eq!(self.children(u), fresh.children(u), "children of {u}");
            }
            assert!(
                self.stamp.iter().all(|&e| e <= self.epoch),
                "no stamp from a future epoch"
            );
            let slot = match event {
                TreeEvent::Exchange => {
                    TREE_CHECKS.with(|c| c.set(c.get() + 1));
                    MOVED_NODES.with(|c| c.set(c.get() + self.subtree.len()));
                    return;
                }
                TreeEvent::ColdInstall => 0,
                TreeEvent::WarmInstall { repaired } => 1 + usize::from(repaired),
            };
            INSTALL_CHECKS.with(|c| {
                let mut counts = c.get();
                counts[slot] += 1;
                c.set(counts);
            });
        }

        /// The children of `u`, sorted, after checking that the sibling
        /// links agree both ways.
        fn children(&self, u: usize) -> Vec<u32> {
            let mut out = Vec::new();
            let (mut prev, mut child) = (NONE, self.first_child[u]);
            while child != NONE {
                assert_eq!(self.prev_sib[child as usize], prev, "prev_sib of {child}");
                assert_eq!(self.parent[child as usize], u, "parent of {child}");
                out.push(child);
                (prev, child) = (child, self.next_sib[child as usize]);
            }
            out.sort_unstable();
            out
        }

        /// The tree potentials of the last solve (big-`M` offsets and
        /// all), for the certificate tests.
        pub(crate) fn tree_potentials(&self) -> &[i64] {
            &self.pi
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
            if selected.is_some_and(|(k, _)| k >= self.topo.num_arcs()) {
                ARTIFICIAL_ENTRIES.with(|c| c.set(c.get() + 1));
            }
        }

        /// Solves, then checks that no artificial arc carries flow, and
        /// that the solution matches the reference oracle on a mirror
        /// network built from the solver's current instance.
        fn solve_and_match_reference(&mut self) {
            let got = self.solve().unwrap();
            let m = self.topo.num_arcs();
            // Zero up to the rounding of the fractional supplies' sums.
            let (_, scale) = check_balance(&self.layer.supply).unwrap();
            let artificial: f64 = self.flow[m..].iter().sum();
            assert!(artificial <= 1e-12 * scale, "artificial flow {artificial}");
            let mut mirror = FlowNetwork::new(self.num_nodes());
            for v in 0..self.num_nodes() {
                mirror.set_supply(v, self.supply(v));
            }
            for k in 0..m {
                let (from, to) = self.topo.arc_endpoints(k);
                let (cap, cost) = (self.layer.caps[k], self.layer.costs[k]);
                mirror.add_arc(from, to, cap, cost).unwrap();
            }
            let want = mirror.solve_reference().unwrap();
            let tol = 1e-9 * (1.0 + want.total_cost.abs());
            assert!((got.total_cost - want.total_cost).abs() < tol);
            assert_eq!(got.potentials, want.potentials);
            got.verify(&mirror).unwrap();
        }
    }

    /// A ring with random chords, 40% of them capacitated, and
    /// fractional balanced supplies.
    fn ring_network(rng: &mut rand::rngs::StdRng, n: usize) -> FlowNetwork {
        use rand::Rng;
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
        net
    }

    /// Rewrites half the costs at random and drifts the supplies, which
    /// moves tree flows past their capacities: the next warm start
    /// repairs them with artificial arcs.
    fn perturb(rng: &mut rand::rngs::StdRng, solver: &mut SimplexSolver) {
        use rand::Rng;
        let (n, m) = (solver.num_nodes(), solver.num_arcs());
        for _ in 0..m / 2 {
            let k = rng.gen_range(0..m);
            solver.set_cost(k, rng.gen_range(0..25)).unwrap();
        }
        let mut shift = 0.0;
        for v in 0..n - 1 {
            let d = rng.gen_range(-1.0..1.0);
            let s = solver.supply(v);
            solver.set_supply(v, s + d);
            shift += d;
        }
        let last = solver.supply(n - 1);
        solver.set_supply(n - 1, last - shift);
    }

    /// Every basis exchange and every basis install (cold stars, warm
    /// re-solves with and without repairs that swap artificial arcs in)
    /// of solves with finite capacities leaves the tree a rebuild would
    /// produce, every block-cached Dantzig selection is the full scan's
    /// and enters a real arc, and every solve ends with no artificial
    /// flow and the reference oracle's potentials.
    #[test]
    fn incremental_tree_matches_rebuild_after_every_pivot() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let checks_before = TREE_CHECKS.with(Cell::get);
        let installs_before = INSTALL_CHECKS.with(Cell::get);
        let pricing_before = PRICING_CHECKS.with(Cell::get);
        let mut repairs = 0;
        for _ in 0..12 {
            let n = rng.gen_range(6..24);
            let mut solver = SimplexSolver::new(&ring_network(&mut rng, n));
            for _ in 0..4 {
                solver.solve_and_match_reference();
                perturb(&mut rng, &mut solver);
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

        // A deep case: a grid 4 wide and 100 levels long, fed at the
        // first level and drained at the last, so optimal trees run the
        // grid's length and warm re-solves after cost changes re-hang
        // deep subtrees, where the σ shift and the boundary touches
        // cover many nodes per exchange.
        let (width, levels) = (4, 100);
        let node = |l: usize, i: usize| l * width + i;
        let mut net = FlowNetwork::new(width * levels);
        let mut total = 0.0;
        for v in 1..width * levels {
            let s = rng.gen_range(-1.0..1.0);
            net.set_supply(v, s);
            total += s;
        }
        net.set_supply(0, -total);
        for l in 0..levels - 1 {
            for i in 0..width {
                for j in i.saturating_sub(1)..(i + 2).min(width) {
                    net.add_arc(
                        node(l, i),
                        node(l + 1, j),
                        f64::INFINITY,
                        rng.gen_range(1..20),
                    )
                    .unwrap();
                    net.add_arc(
                        node(l + 1, j),
                        node(l, i),
                        f64::INFINITY,
                        rng.gen_range(1..20),
                    )
                    .unwrap();
                }
            }
        }
        let mut solver = SimplexSolver::new(&net);
        solver.solve_and_match_reference();
        let (checks_cold, moved_cold) = (TREE_CHECKS.with(Cell::get), MOVED_NODES.with(Cell::get));
        for _ in 0..6 {
            let m = solver.num_arcs();
            for k in 0..m {
                if rng.gen_bool(0.5) {
                    solver.set_cost(k, rng.gen_range(1..20)).unwrap();
                }
            }
            solver.solve_and_match_reference();
        }
        let exchanges = TREE_CHECKS.with(Cell::get) - checks_cold;
        let moved = MOVED_NODES.with(Cell::get) - moved_cold;
        assert!(exchanges >= 20, "{exchanges} warm exchanges");
        assert!(
            moved >= 50 * exchanges,
            "{moved} nodes over {exchanges} exchanges"
        );
        // 13 cold installs, and 42 warm ones: the cost-only grid
        // re-solves keep their flows feasible, while supply drift needs
        // repairs.
        let installs = INSTALL_CHECKS.with(Cell::get);
        let [cold, plain, repaired] = [0, 1, 2].map(|i| installs[i] - installs_before[i]);
        assert_eq!((cold, plain + repaired), (13, 42));
        assert!(
            plain >= 6 && repaired >= 10,
            "{plain} plain, {repaired} repaired"
        );
        assert_eq!(ARTIFICIAL_ENTRIES.with(Cell::get), 0);
    }

    /// The exchange's membership stamps stay exact across the `u32`
    /// epoch wrap-around: stamps left from before it cannot pass for
    /// members of a later subtree (every exchange and selection is
    /// still cross-checked).
    #[test]
    fn exchange_stamps_survive_the_epoch_wrap() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut solver = SimplexSolver::new(&ring_network(&mut rng, 40));
        solver.solve_and_match_reference();
        let early = solver.epoch;
        assert!(early > 3, "{early} cold exchanges");
        solver.epoch = u32::MAX - 3;
        let checks_before = TREE_CHECKS.with(Cell::get);
        for _ in 0..3 {
            perturb(&mut rng, &mut solver);
            solver.solve_and_match_reference();
        }
        // Wrapped, and past the stamps the cold exchanges left.
        assert!(solver.epoch > early && solver.epoch < u32::MAX / 2);
        assert!(TREE_CHECKS.with(Cell::get) > checks_before + 3);
        assert_eq!(ARTIFICIAL_ENTRIES.with(Cell::get), 0);
    }

    /// Big-`M` may reach `i64::MAX / 8`, where the `i64` potentials and
    /// reduced costs still cannot overflow, and no further.
    #[test]
    fn big_m_is_capped_at_an_eighth_of_i64() {
        // Three nodes plus the root: big-M = (max|cost| + 1) · 4.
        let limit = i64::MAX / 8;
        let largest = limit / 4 - 1;
        let network = |back: i64| {
            let mut net = FlowNetwork::new(3);
            net.set_supply(0, 2.0);
            net.set_supply(2, -2.0);
            net.add_arc(0, 1, 1.0, largest).unwrap();
            net.add_arc(1, 2, f64::INFINITY, -largest).unwrap();
            net.add_arc(0, 2, f64::INFINITY, 3).unwrap();
            net.add_arc(2, 1, f64::INFINITY, back).unwrap();
            net
        };
        let net = network(largest);
        let mut solver = SimplexSolver::new(&net);
        assert!(solver.big_m().unwrap() == (largest + 1) * 4 && (largest + 2) * 4 > limit);
        let got = solver.solve().unwrap();
        let want = net.solve_reference().unwrap();
        assert_eq!(got.flows, [1.0, 1.0, 1.0, 0.0]);
        assert_eq!(
            (&got.flows, &got.potentials, got.total_cost),
            (&want.flows, &want.potentials, want.total_cost)
        );
        got.verify(&net).unwrap();
        // One more unit of cost pushes big-M past the cap.
        solver.set_cost(3, largest + 1).unwrap();
        assert!(matches!(solver.solve(), Err(FlowError::BadInput { .. })));
        assert!(matches!(
            network(-largest - 1).solve(),
            Err(FlowError::BadInput { .. })
        ));
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
