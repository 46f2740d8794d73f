//! The circuit DAG of the paper (§2.1–2.2): one vertex per *sizable element*
//! (transistor, gate-equivalent inverter, or wire), with edges following
//! charging/discharging paths.
//!
//! Three construction modes are supported:
//!
//! * [`SizingDag::gate_mode`] — the relaxed gate-sizing problem evaluated in
//!   the paper's §3: one vertex per gate (equivalent-inverter model); an edge
//!   per gate→fanout-gate connection.
//! * [`SizingDag::transistor_mode`] — true transistor sizing: one vertex per
//!   transistor. Intra-gate edges run from the transistor *higher up* in the
//!   charging/discharging path (output-adjacent, a DAG **root**) to the one
//!   *lower down* (rail-adjacent, a DAG **leaf**). Inter-gate edges run from
//!   the leaf vertices of the driving gate's NMOS (PMOS) component to the
//!   root vertices of the receiving gate's PMOS (NMOS) component that share a
//!   conduction path with the transistor gated by the connecting wire.
//! * [`SizingDag::gate_mode_with_wires`] — the paper's §2.1 wire-sizing
//!   extension: every net also becomes a sizable vertex inserted between its
//!   driver and its receivers.

use crate::error::CircuitError;
use crate::gate::GateKind;
use crate::id::{EdgeId, GateId, NetId, VertexId};
use crate::netlist::{NetDriver, Netlist};
use crate::spnet::{NetworkSide, SpNetwork};

/// Which formulation a [`SizingDag`] was built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizingMode {
    /// One sizing variable per gate (equivalent-inverter model).
    Gate,
    /// One sizing variable per gate plus one per net (wire sizing).
    GateWire,
    /// One sizing variable per transistor.
    Transistor,
}

/// What a DAG vertex stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VertexOwner {
    /// The equivalent inverter of a whole gate.
    Gate(GateId),
    /// One transistor of a gate.
    Device {
        /// The owning gate.
        gate: GateId,
        /// Pull-up or pull-down network.
        side: NetworkSide,
        /// Device index within the [`SpNetwork`] of that side.
        dev: u8,
    },
    /// A wire (net) treated as a sizable element.
    Wire(NetId),
}

impl VertexOwner {
    /// The gate this vertex belongs to, if any.
    pub fn gate(&self) -> Option<GateId> {
        match self {
            VertexOwner::Gate(g) | VertexOwner::Device { gate: g, .. } => Some(*g),
            VertexOwner::Wire(_) => None,
        }
    }
}

/// The circuit DAG used by timing analysis and both optimization phases.
///
/// Construction fixes the vertex set, the edge set, a topological order, the
/// source vertices (no predecessors; their arrival time is the external
/// arrival, taken as zero) and the *PO leaves* — the vertices that connect to
/// the dummy sink `O` of the paper's Corollary 1.
#[derive(Debug, Clone)]
pub struct SizingDag {
    mode: SizingMode,
    vertices: Vec<VertexOwner>,
    edges: Vec<(VertexId, VertexId)>,
    succ_off: Vec<u32>,
    succ_edges: Vec<EdgeId>,
    pred_off: Vec<u32>,
    pred_edges: Vec<EdgeId>,
    topo: Vec<VertexId>,
    sources: Vec<VertexId>,
    po_leaves: Vec<VertexId>,
    /// For every gate, the vertex ids belonging to it (empty for wires).
    gate_vertices: Vec<Vec<VertexId>>,
}

impl SizingDag {
    /// Builds the gate-sizing DAG: one vertex per gate.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Cyclic`] if the netlist is cyclic, or
    /// [`CircuitError::EmptyNetlist`] if there are no gates.
    pub fn gate_mode(netlist: &Netlist) -> Result<Self, CircuitError> {
        if netlist.num_gates() == 0 {
            return Err(CircuitError::EmptyNetlist);
        }
        let vertices: Vec<VertexOwner> = netlist.gate_ids().map(VertexOwner::Gate).collect();
        let mut edges = Vec::new();
        for g in netlist.gate_ids() {
            let from = VertexId::new(g.index());
            for h in netlist.fanout_gates(g) {
                edges.push((from, VertexId::new(h.index())));
            }
        }
        let po_leaves: Vec<VertexId> = netlist
            .outputs()
            .iter()
            .filter_map(|&net| match netlist.net(net).driver() {
                NetDriver::Gate(g) => Some(VertexId::new(g.index())),
                NetDriver::Input(_) => None,
            })
            .collect();
        let gate_vertices = netlist
            .gate_ids()
            .map(|g| vec![VertexId::new(g.index())])
            .collect();
        Self::assemble(SizingMode::Gate, vertices, edges, po_leaves, gate_vertices)
    }

    /// Builds the gate-sizing DAG augmented with one wire vertex per net
    /// that has at least one load or is a primary output.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Cyclic`] if the netlist is cyclic, or
    /// [`CircuitError::EmptyNetlist`] if there are no gates.
    pub fn gate_mode_with_wires(netlist: &Netlist) -> Result<Self, CircuitError> {
        if netlist.num_gates() == 0 {
            return Err(CircuitError::EmptyNetlist);
        }
        let mut vertices: Vec<VertexOwner> = netlist.gate_ids().map(VertexOwner::Gate).collect();
        let mut wire_vertex: Vec<Option<VertexId>> = vec![None; netlist.num_nets()];
        for net in netlist.net_ids() {
            let n = netlist.net(net);
            if !n.loads().is_empty() || netlist.is_output(net) {
                let v = VertexId::new(vertices.len());
                vertices.push(VertexOwner::Wire(net));
                wire_vertex[net.index()] = Some(v);
            }
        }
        let mut edges = Vec::new();
        for net in netlist.net_ids() {
            let Some(w) = wire_vertex[net.index()] else {
                continue;
            };
            if let NetDriver::Gate(g) = netlist.net(net).driver() {
                edges.push((VertexId::new(g.index()), w));
            }
            for load in netlist.net(net).loads() {
                edges.push((w, VertexId::new(load.gate.index())));
            }
        }
        let po_leaves: Vec<VertexId> = netlist
            .outputs()
            .iter()
            .filter_map(|&net| wire_vertex[net.index()])
            .collect();
        let gate_vertices = netlist
            .gate_ids()
            .map(|g| vec![VertexId::new(g.index())])
            .collect();
        Self::assemble(
            SizingMode::GateWire,
            vertices,
            edges,
            po_leaves,
            gate_vertices,
        )
    }

    /// Builds the true transistor-sizing DAG of the paper's §2.1–2.2.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NonPrimitiveGate`] if the netlist contains
    /// macro gates (expand first), [`CircuitError::Cyclic`] on cycles, or
    /// [`CircuitError::EmptyNetlist`] if there are no gates.
    pub fn transistor_mode(netlist: &Netlist) -> Result<Self, CircuitError> {
        if netlist.num_gates() == 0 {
            return Err(CircuitError::EmptyNetlist);
        }
        let mut vertices = Vec::new();
        let mut gate_vertices: Vec<Vec<VertexId>> = vec![Vec::new(); netlist.num_gates()];
        // device_base[g] = (pdn_first_vertex, pun_first_vertex)
        let mut device_base: Vec<(usize, usize)> = Vec::with_capacity(netlist.num_gates());
        let mut networks: Vec<(SpNetwork, SpNetwork)> = Vec::with_capacity(netlist.num_gates());
        for g in netlist.gate_ids() {
            let kind = netlist.gate(g).kind();
            if !kind.is_primitive() {
                return Err(CircuitError::NonPrimitiveGate {
                    gate: g,
                    kind: kind_name_static(kind),
                });
            }
            let pdn = SpNetwork::for_gate(kind, NetworkSide::PullDown)
                .expect("primitive gates have networks");
            let pun = SpNetwork::for_gate(kind, NetworkSide::PullUp)
                .expect("primitive gates have networks");
            let pdn_base = vertices.len();
            for d in 0..pdn.num_devices() {
                let v = VertexId::new(vertices.len());
                vertices.push(VertexOwner::Device {
                    gate: g,
                    side: NetworkSide::PullDown,
                    dev: d as u8,
                });
                gate_vertices[g.index()].push(v);
            }
            let pun_base = vertices.len();
            for d in 0..pun.num_devices() {
                let v = VertexId::new(vertices.len());
                vertices.push(VertexOwner::Device {
                    gate: g,
                    side: NetworkSide::PullUp,
                    dev: d as u8,
                });
                gate_vertices[g.index()].push(v);
            }
            device_base.push((pdn_base, pun_base));
            networks.push((pdn, pun));
        }

        let vertex_of = |g: GateId, side: NetworkSide, dev: usize| -> VertexId {
            let (pdn_base, pun_base) = device_base[g.index()];
            match side {
                NetworkSide::PullDown => VertexId::new(pdn_base + dev),
                NetworkSide::PullUp => VertexId::new(pun_base + dev),
            }
        };

        let mut edges = Vec::new();
        // Intra-gate edges: consecutive devices along every conduction path,
        // from the output-adjacent root toward the rail-adjacent leaf.
        for g in netlist.gate_ids() {
            let (pdn, pun) = &networks[g.index()];
            for (side, net) in [(NetworkSide::PullDown, pdn), (NetworkSide::PullUp, pun)] {
                for path in net.paths() {
                    for pair in path.windows(2) {
                        edges.push((vertex_of(g, side, pair[0]), vertex_of(g, side, pair[1])));
                    }
                }
            }
        }
        // Inter-gate edges: driving gate's NMOS leaves → receiving gate's
        // PMOS roots (falling output turns the fanout PMOS on), and the
        // mirror image for rising outputs.
        for net in netlist.net_ids() {
            let NetDriver::Gate(gd) = netlist.net(net).driver() else {
                continue;
            };
            let (d_pdn, d_pun) = &networks[gd.index()];
            for load in netlist.net(net).loads() {
                let gh = load.gate;
                let (h_pdn, h_pun) = &networks[gh.index()];
                for (src_side, src_net, dst_side, dst_net) in [
                    (NetworkSide::PullDown, d_pdn, NetworkSide::PullUp, h_pun),
                    (NetworkSide::PullUp, d_pun, NetworkSide::PullDown, h_pdn),
                ] {
                    for &t in &dst_net.devices_for_pin(load.pin) {
                        for &r in &dst_net.roots_connected_to(t) {
                            for &l in &src_net.leaves() {
                                edges
                                    .push((vertex_of(gd, src_side, l), vertex_of(gh, dst_side, r)));
                            }
                        }
                    }
                }
            }
        }

        let mut po_leaves = Vec::new();
        for &net in netlist.outputs() {
            if let NetDriver::Gate(g) = netlist.net(net).driver() {
                let (pdn, pun) = &networks[g.index()];
                for &l in &pdn.leaves() {
                    po_leaves.push(vertex_of(g, NetworkSide::PullDown, l));
                }
                for &l in &pun.leaves() {
                    po_leaves.push(vertex_of(g, NetworkSide::PullUp, l));
                }
            }
        }
        po_leaves.sort_unstable();
        po_leaves.dedup();

        Self::assemble(
            SizingMode::Transistor,
            vertices,
            edges,
            po_leaves,
            gate_vertices,
        )
    }

    fn assemble(
        mode: SizingMode,
        vertices: Vec<VertexOwner>,
        mut edges: Vec<(VertexId, VertexId)>,
        po_leaves: Vec<VertexId>,
        gate_vertices: Vec<Vec<VertexId>>,
    ) -> Result<Self, CircuitError> {
        edges.sort_unstable();
        edges.dedup();
        let n = vertices.len();
        let mut succ_count = vec![0u32; n];
        let mut pred_count = vec![0u32; n];
        for &(f, t) in &edges {
            succ_count[f.index()] += 1;
            pred_count[t.index()] += 1;
        }
        let mut succ_off = vec![0u32; n + 1];
        let mut pred_off = vec![0u32; n + 1];
        for i in 0..n {
            succ_off[i + 1] = succ_off[i] + succ_count[i];
            pred_off[i + 1] = pred_off[i] + pred_count[i];
        }
        let mut succ_edges = vec![EdgeId::new(0); edges.len()];
        let mut pred_edges = vec![EdgeId::new(0); edges.len()];
        let mut succ_cursor = succ_off.clone();
        let mut pred_cursor = pred_off.clone();
        for (e, &(f, t)) in edges.iter().enumerate() {
            let eid = EdgeId::new(e);
            succ_edges[succ_cursor[f.index()] as usize] = eid;
            succ_cursor[f.index()] += 1;
            pred_edges[pred_cursor[t.index()] as usize] = eid;
            pred_cursor[t.index()] += 1;
        }

        // Kahn topological sort.
        let mut indegree: Vec<u32> = pred_count.clone();
        let mut topo: Vec<VertexId> = (0..n)
            .map(VertexId::new)
            .filter(|v| indegree[v.index()] == 0)
            .collect();
        let sources = topo.clone();
        let mut head = 0;
        while head < topo.len() {
            let v = topo[head];
            head += 1;
            for s in succ_off[v.index()]..succ_off[v.index() + 1] {
                let (_, t) = edges[succ_edges[s as usize].index()];
                indegree[t.index()] -= 1;
                if indegree[t.index()] == 0 {
                    topo.push(t);
                }
            }
        }
        if topo.len() != n {
            let stuck = (0..n)
                .map(VertexId::new)
                .find(|v| indegree[v.index()] > 0)
                .expect("cycle implies positive indegree");
            let gate = match vertices[stuck.index()] {
                VertexOwner::Gate(g) | VertexOwner::Device { gate: g, .. } => g,
                VertexOwner::Wire(_) => GateId::new(0),
            };
            return Err(CircuitError::Cyclic { gate });
        }

        Ok(SizingDag {
            mode,
            vertices,
            edges,
            succ_off,
            succ_edges,
            pred_off,
            pred_edges,
            topo,
            sources,
            po_leaves,
            gate_vertices,
        })
    }

    /// The construction mode.
    pub fn mode(&self) -> SizingMode {
        self.mode
    }

    /// Number of vertices (sizing variables), the paper's `|V|`.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges, the paper's `|E|`.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// What the given vertex stands for.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn owner(&self, v: VertexId) -> VertexOwner {
        self.vertices[v.index()]
    }

    /// Iterates over all vertex ids.
    pub fn vertex_ids(&self) -> impl ExactSizeIterator<Item = VertexId> + '_ {
        (0..self.vertices.len()).map(VertexId::new)
    }

    /// The endpoints `(from, to)` of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn edge(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edges[e.index()]
    }

    /// Iterates over all edge ids.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId::new)
    }

    /// Outgoing edge ids of a vertex.
    pub fn out_edges(&self, v: VertexId) -> &[EdgeId] {
        let lo = self.succ_off[v.index()] as usize;
        let hi = self.succ_off[v.index() + 1] as usize;
        &self.succ_edges[lo..hi]
    }

    /// Incoming edge ids of a vertex.
    pub fn in_edges(&self, v: VertexId) -> &[EdgeId] {
        let lo = self.pred_off[v.index()] as usize;
        let hi = self.pred_off[v.index() + 1] as usize;
        &self.pred_edges[lo..hi]
    }

    /// Vertices in topological order (predecessors first).
    pub fn topo_order(&self) -> &[VertexId] {
        &self.topo
    }

    /// Vertices with no predecessors; their arrival time is the external
    /// arrival time (zero).
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// Vertices that connect to the dummy sink `O` (Corollary 1): the leaf
    /// vertices of gates driving primary outputs.
    pub fn po_leaves(&self) -> &[VertexId] {
        &self.po_leaves
    }

    /// Vertex ids belonging to the given gate.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn vertices_of_gate(&self, g: GateId) -> &[VertexId] {
        &self.gate_vertices[g.index()]
    }

    /// For `Transistor` mode, the vertex of a specific device; `None` in
    /// other modes or when the indices are out of range.
    pub fn device_vertex(&self, g: GateId, side: NetworkSide, dev: usize) -> Option<VertexId> {
        if self.mode != SizingMode::Transistor {
            return None;
        }
        self.gate_vertices
            .get(g.index())?
            .iter()
            .copied()
            .find(|&v| {
                matches!(
                    self.vertices[v.index()],
                    VertexOwner::Device { gate, side: s, dev: d }
                        if gate == g && s == side && d as usize == dev
                )
            })
    }
}

fn kind_name_static(kind: GateKind) -> &'static str {
    match kind {
        GateKind::Buf => "BUF",
        GateKind::And(_) => "AND",
        GateKind::Or(_) => "OR",
        GateKind::WideNand(_) => "NAND(wide)",
        GateKind::WideNor(_) => "NOR(wide)",
        GateKind::Xor2 => "XOR2",
        GateKind::Xnor2 => "XNOR2",
        _ => "primitive",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

    /// Figure 2 of the paper: two 3-input NANDs in series.
    fn fig2() -> Netlist {
        let mut b = NetlistBuilder::new("fig2");
        let i1 = b.input("i1");
        let i2 = b.input("i2");
        let i3 = b.input("i3");
        let i4 = b.input("i4");
        let i5 = b.input("i5");
        let n1 = b.gate(GateKind::Nand(3), &[i1, i2, i3]).unwrap();
        let n2 = b.gate(GateKind::Nand(3), &[n1, i4, i5]).unwrap();
        b.output(n2, "out");
        b.finish().unwrap()
    }

    #[test]
    fn gate_mode_shapes() {
        let n = fig2();
        let dag = SizingDag::gate_mode(&n).unwrap();
        assert_eq!(dag.mode(), SizingMode::Gate);
        assert_eq!(dag.num_vertices(), 2);
        assert_eq!(dag.num_edges(), 1);
        assert_eq!(dag.sources(), &[VertexId::new(0)]);
        assert_eq!(dag.po_leaves(), &[VertexId::new(1)]);
        assert_eq!(dag.topo_order(), &[VertexId::new(0), VertexId::new(1)]);
    }

    #[test]
    fn transistor_mode_matches_figure_2() {
        // Each 3-input NAND contributes 6 vertices (3 NMOS + 3 PMOS).
        let n = fig2();
        let dag = SizingDag::transistor_mode(&n).unwrap();
        assert_eq!(dag.mode(), SizingMode::Transistor);
        assert_eq!(dag.num_vertices(), 12);
        // Intra-gate: the NMOS chain has 2 edges per gate; PMOS none.
        // Inter-gate: NAND1 output feeds pin 0 of NAND2.
        //   NMOS(g1) leaves (1) → PMOS(g2) roots connected to pin-0 PMOS = 1
        //     (every PMOS is its own root; pin-0 device only) → 1 edge
        //   PMOS(g1) leaves (3) → NMOS(g2) roots connected to pin-0 NMOS
        //     (chain root is the pin-0 device itself) → 3 edges
        assert_eq!(dag.num_edges(), 2 + 2 + 1 + 3);
        // PO leaves: gate 2's NMOS chain leaf (1) + all 3 PMOS leaves.
        assert_eq!(dag.po_leaves().len(), 4);
    }

    #[test]
    fn transistor_mode_rejects_macros() {
        let mut b = NetlistBuilder::new("macro");
        let a = b.input("a");
        let o = b.gate(GateKind::Buf, &[a]).unwrap();
        b.output(o, "out");
        let n = b.finish().unwrap();
        assert!(matches!(
            SizingDag::transistor_mode(&n),
            Err(CircuitError::NonPrimitiveGate { .. })
        ));
    }

    #[test]
    fn wire_mode_inserts_wire_vertices() {
        let n = fig2();
        let dag = SizingDag::gate_mode_with_wires(&n).unwrap();
        assert_eq!(dag.mode(), SizingMode::GateWire);
        // 2 gates + 5 PI nets + 1 internal net + 1 PO net = 9 vertices.
        assert_eq!(dag.num_vertices(), 9);
        // Edges: each PI wire → its gate (5), g1 → wire(n1) → g2 (2),
        // g2 → wire(out) (1).
        assert_eq!(dag.num_edges(), 8);
        // The PO leaf is the PO wire vertex.
        assert_eq!(dag.po_leaves().len(), 1);
        assert!(matches!(
            dag.owner(dag.po_leaves()[0]),
            VertexOwner::Wire(_)
        ));
    }

    #[test]
    fn adjacency_is_consistent() {
        let n = fig2();
        let dag = SizingDag::transistor_mode(&n).unwrap();
        for e in dag.edge_ids() {
            let (f, t) = dag.edge(e);
            assert!(dag.out_edges(f).contains(&e));
            assert!(dag.in_edges(t).contains(&e));
        }
        let mut total_out = 0;
        for v in dag.vertex_ids() {
            total_out += dag.out_edges(v).len();
        }
        assert_eq!(total_out, dag.num_edges());
    }

    #[test]
    fn topo_order_is_topological() {
        let n = fig2();
        for dag in [
            SizingDag::gate_mode(&n).unwrap(),
            SizingDag::gate_mode_with_wires(&n).unwrap(),
            SizingDag::transistor_mode(&n).unwrap(),
        ] {
            let mut pos = vec![0usize; dag.num_vertices()];
            for (i, &v) in dag.topo_order().iter().enumerate() {
                pos[v.index()] = i;
            }
            for e in dag.edge_ids() {
                let (f, t) = dag.edge(e);
                assert!(pos[f.index()] < pos[t.index()]);
            }
        }
    }

    #[test]
    fn device_vertex_lookup() {
        let n = fig2();
        let dag = SizingDag::transistor_mode(&n).unwrap();
        let v = dag
            .device_vertex(GateId::new(0), NetworkSide::PullDown, 1)
            .unwrap();
        assert!(matches!(
            dag.owner(v),
            VertexOwner::Device {
                side: NetworkSide::PullDown,
                dev: 1,
                ..
            }
        ));
        let gate_dag = SizingDag::gate_mode(&n).unwrap();
        assert!(gate_dag
            .device_vertex(GateId::new(0), NetworkSide::PullDown, 0)
            .is_none());
    }
}
