//! Combinational netlists of static-CMOS gates.
//!
//! A [`Netlist`] is a flat arena of [`Gate`]s and [`Net`]s plus primary
//! input/output lists. It is immutable after construction (use
//! [`NetlistBuilder`](crate::NetlistBuilder) to create one), except for the
//! electrical annotations (wire and external load capacitance) which sizing
//! front-ends may adjust.

use crate::error::CircuitError;
use crate::gate::{Gate, GateKind};
use crate::id::{GateId, NetId};
use crate::stats::NetlistStats;

/// The driver of a net: either the `k`-th primary input or a gate output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetDriver {
    /// Driven by the primary input with the given ordinal.
    Input(u32),
    /// Driven by the output of a gate.
    Gate(GateId),
}

/// A fanout connection of a net: which gate and which input pin it feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Load {
    /// The gate being fed.
    pub gate: GateId,
    /// The input pin index on that gate.
    pub pin: u8,
}

/// A wire connecting one driver to zero or more gate input pins.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    pub(crate) name: Option<String>,
    pub(crate) driver: NetDriver,
    pub(crate) loads: Vec<Load>,
    pub(crate) wire_cap: f64,
    pub(crate) ext_load_cap: f64,
}

impl Net {
    /// Optional signal name.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// The net's driver.
    pub fn driver(&self) -> NetDriver {
        self.driver
    }

    /// Gate input pins fed by this net.
    pub fn loads(&self) -> &[Load] {
        &self.loads
    }

    /// Fixed wiring capacitance annotated on this net, in the technology's
    /// capacitance unit (the `D`/`E` constants of the paper's Eq. (2)).
    pub fn wire_cap(&self) -> f64 {
        self.wire_cap
    }

    /// Additional fixed load capacitance, e.g. the `C_L` primary-output load.
    pub fn ext_load_cap(&self) -> f64 {
        self.ext_load_cap
    }
}

/// An immutable combinational netlist.
///
/// # Examples
///
/// ```
/// use mft_circuit::{GateKind, NetlistBuilder};
///
/// # fn main() -> Result<(), mft_circuit::CircuitError> {
/// let mut b = NetlistBuilder::new("half_adder");
/// let a = b.input("a");
/// let c = b.input("b");
/// let s = b.gate(GateKind::Xor2, &[a, c])?;
/// let g = b.gate(GateKind::Nand(2), &[a, c])?;
/// let carry = b.gate(GateKind::Inv, &[g])?;
/// b.output(s, "sum");
/// b.output(carry, "carry");
/// let netlist = b.finish()?;
/// assert_eq!(netlist.num_gates(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) gates: Vec<Gate>,
    pub(crate) nets: Vec<Net>,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) outputs: Vec<NetId>,
}

impl Netlist {
    /// The netlist's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// The net with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Iterates over all gate ids in arena order.
    pub fn gate_ids(&self) -> impl ExactSizeIterator<Item = GateId> + '_ {
        (0..self.gates.len()).map(GateId::new)
    }

    /// Iterates over all net ids in arena order.
    pub fn net_ids(&self) -> impl ExactSizeIterator<Item = NetId> + '_ {
        (0..self.nets.len()).map(NetId::new)
    }

    /// Iterates over all gates in arena order.
    pub fn gates(&self) -> impl ExactSizeIterator<Item = &Gate> + '_ {
        self.gates.iter()
    }

    /// Primary-input nets, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary-output nets, in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Whether the given net is a primary output.
    pub fn is_output(&self, net: NetId) -> bool {
        self.outputs.contains(&net)
    }

    /// Gates fed by gate `g`'s output (deduplicated, in pin order).
    pub fn fanout_gates(&self, g: GateId) -> Vec<GateId> {
        let out = self.gates[g.index()].output();
        let mut seen = Vec::new();
        for load in self.nets[out.index()].loads() {
            if !seen.contains(&load.gate) {
                seen.push(load.gate);
            }
        }
        seen
    }

    /// Annotates a net with fixed wiring capacitance.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn set_wire_cap(&mut self, net: NetId, cap: f64) {
        self.nets[net.index()].wire_cap = cap;
    }

    /// Annotates a net with additional fixed load capacitance (`C_L`).
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn set_ext_load_cap(&mut self, net: NetId, cap: f64) {
        self.nets[net.index()].ext_load_cap = cap;
    }

    /// Checks structural invariants: every gate's arity matches its kind,
    /// every net is consistently connected, the circuit is acyclic, and all
    /// primary outputs are driven.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), CircuitError> {
        if self.gates.is_empty() {
            return Err(CircuitError::EmptyNetlist);
        }
        for (i, gate) in self.gates.iter().enumerate() {
            let expected = gate.kind().num_inputs();
            if gate.inputs().len() != expected {
                return Err(CircuitError::BadArity {
                    gate: GateId::new(i),
                    expected,
                    found: gate.inputs().len(),
                });
            }
        }
        for &net in &self.outputs {
            if net.index() >= self.nets.len() {
                return Err(CircuitError::BadOutput { net });
            }
        }
        // Connectivity consistency: each net's loads point back at gates that
        // list the net as the corresponding input; each gate's output net
        // lists the gate as driver.
        for (i, gate) in self.gates.iter().enumerate() {
            let id = GateId::new(i);
            let out = gate.output();
            if self.nets[out.index()].driver() != NetDriver::Gate(id) {
                return Err(CircuitError::MultiplyDrivenNet { net: out });
            }
            for (pin, &input) in gate.inputs().iter().enumerate() {
                let has = self.nets[input.index()]
                    .loads()
                    .iter()
                    .any(|l| l.gate == id && l.pin as usize == pin);
                if !has {
                    return Err(CircuitError::UndrivenNet { net: input });
                }
            }
        }
        self.topo_gates().map(|_| ())
    }

    /// Returns the gates in topological order (fanins before fanouts).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Cyclic`] if the netlist contains a
    /// combinational cycle.
    pub fn topo_gates(&self) -> Result<Vec<GateId>, CircuitError> {
        let n = self.gates.len();
        let mut indegree = vec![0usize; n];
        for gate in &self.gates {
            for &input in gate.inputs() {
                if let NetDriver::Gate(_) = self.nets[input.index()].driver() {
                    // counted below per load instead
                }
            }
        }
        // indegree = number of distinct gate fanins, counted with multiplicity
        // of pins (safe for Kahn as long as we decrement symmetrically).
        for (i, gate) in self.gates.iter().enumerate() {
            let _ = i;
            for &input in gate.inputs() {
                if let NetDriver::Gate(_) = self.nets[input.index()].driver() {
                    indegree[GateId::new(i).index()] += 1;
                }
            }
        }
        let mut queue: Vec<GateId> = (0..n)
            .map(GateId::new)
            .filter(|g| indegree[g.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let g = queue[head];
            head += 1;
            order.push(g);
            let out = self.gates[g.index()].output();
            for load in self.nets[out.index()].loads() {
                let t = load.gate;
                indegree[t.index()] -= 1;
                if indegree[t.index()] == 0 {
                    queue.push(t);
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n)
                .map(GateId::new)
                .find(|g| indegree[g.index()] > 0)
                .expect("cycle implies a gate with positive indegree");
            return Err(CircuitError::Cyclic { gate: stuck });
        }
        Ok(order)
    }

    /// Logic level of every gate (primary-input-fed gates are level 0).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Cyclic`] if the netlist contains a cycle.
    pub fn levels(&self) -> Result<Vec<u32>, CircuitError> {
        let order = self.topo_gates()?;
        let mut level = vec![0u32; self.gates.len()];
        for g in order {
            let mut lv = 0;
            for &input in self.gates[g.index()].inputs() {
                if let NetDriver::Gate(d) = self.nets[input.index()].driver() {
                    lv = lv.max(level[d.index()] + 1);
                }
            }
            level[g.index()] = lv;
        }
        Ok(level)
    }

    /// Depth of the netlist in logic levels (1 for a single-level circuit).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Cyclic`] if the netlist contains a cycle.
    pub fn depth(&self) -> Result<u32, CircuitError> {
        Ok(self
            .levels()?
            .iter()
            .copied()
            .max()
            .map(|m| m + 1)
            .unwrap_or(0))
    }

    /// Whether every gate is a primitive static-CMOS kind.
    pub fn is_primitive(&self) -> bool {
        self.gates.iter().all(|g| g.kind().is_primitive())
    }

    /// Total transistor count (after notional macro expansion).
    pub fn transistor_count(&self) -> usize {
        self.gates.iter().map(|g| g.kind().transistor_count()).sum()
    }

    /// Summary statistics for reports and sanity checks.
    pub fn stats(&self) -> NetlistStats {
        NetlistStats::collect(self)
    }
}

/// Incremental construction of a [`Netlist`].
///
/// The builder hands out [`NetId`]s as signals are created; gates reference
/// those ids. [`NetlistBuilder::finish`] validates the result.
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    gates: Vec<Gate>,
    nets: Vec<Net>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
}

impl NetlistBuilder {
    /// Starts a new netlist with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            gates: Vec::new(),
            nets: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Declares a primary input and returns its net.
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        let ordinal = self.inputs.len() as u32;
        let id = NetId::new(self.nets.len());
        self.nets.push(Net {
            name: Some(name.into()),
            driver: NetDriver::Input(ordinal),
            loads: Vec::new(),
            wire_cap: 0.0,
            ext_load_cap: 0.0,
        });
        self.inputs.push(id);
        id
    }

    /// Instantiates a gate, creating and returning its output net.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::BadArity`] if the input count does not match
    /// the gate kind.
    pub fn gate(&mut self, kind: GateKind, inputs: &[NetId]) -> Result<NetId, CircuitError> {
        self.named_gate(kind, inputs, None::<String>)
    }

    /// Instantiates a named gate, creating and returning its output net.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::BadArity`] if the input count does not match
    /// the gate kind.
    pub fn named_gate(
        &mut self,
        kind: GateKind,
        inputs: &[NetId],
        name: Option<impl Into<String>>,
    ) -> Result<NetId, CircuitError> {
        let gate_id = GateId::new(self.gates.len());
        if inputs.len() != kind.num_inputs() {
            return Err(CircuitError::BadArity {
                gate: gate_id,
                expected: kind.num_inputs(),
                found: inputs.len(),
            });
        }
        let name = name.map(Into::into);
        let out = NetId::new(self.nets.len());
        self.nets.push(Net {
            name: name.clone(),
            driver: NetDriver::Gate(gate_id),
            loads: Vec::new(),
            wire_cap: 0.0,
            ext_load_cap: 0.0,
        });
        for (pin, &input) in inputs.iter().enumerate() {
            self.nets[input.index()].loads.push(Load {
                gate: gate_id,
                pin: pin as u8,
            });
        }
        self.gates.push(Gate::new(kind, inputs.to_vec(), out, name));
        Ok(out)
    }

    /// Convenience: inverter.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept fallible for uniformity with
    /// [`NetlistBuilder::gate`].
    pub fn inv(&mut self, a: NetId) -> Result<NetId, CircuitError> {
        self.gate(GateKind::Inv, &[a])
    }

    /// Convenience: two-input NAND.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept fallible for uniformity with
    /// [`NetlistBuilder::gate`].
    pub fn nand2(&mut self, a: NetId, b: NetId) -> Result<NetId, CircuitError> {
        self.gate(GateKind::Nand(2), &[a, b])
    }

    /// Convenience: two-input NOR.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept fallible for uniformity with
    /// [`NetlistBuilder::gate`].
    pub fn nor2(&mut self, a: NetId, b: NetId) -> Result<NetId, CircuitError> {
        self.gate(GateKind::Nor(2), &[a, b])
    }

    /// Instantiates another netlist as a sub-module: re-emits its gates
    /// with this builder, driving the module's primary inputs from the
    /// given nets, and returns the nets carrying the module's primary
    /// outputs (in declaration order). The module's output markings are
    /// *not* propagated — call [`NetlistBuilder::output`] on the returned
    /// nets as needed.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::BadArity`] when `inputs` does not match the
    /// module's primary input count, or [`CircuitError::Cyclic`] for a
    /// cyclic module.
    pub fn instantiate(
        &mut self,
        module: &Netlist,
        inputs: &[NetId],
    ) -> Result<Vec<NetId>, CircuitError> {
        if inputs.len() != module.inputs().len() {
            return Err(CircuitError::BadArity {
                gate: GateId::new(self.gates.len()),
                expected: module.inputs().len(),
                found: inputs.len(),
            });
        }
        let order = module.topo_gates()?;
        let mut map: Vec<Option<NetId>> = vec![None; module.num_nets()];
        for (k, &pi) in module.inputs().iter().enumerate() {
            map[pi.index()] = Some(inputs[k]);
        }
        for g in order {
            let gate = module.gate(g);
            let mapped: Vec<NetId> = gate
                .inputs()
                .iter()
                .map(|n| map[n.index()].expect("topological order maps fanins first"))
                .collect();
            let out = self.gate(gate.kind(), &mapped)?;
            map[gate.output().index()] = Some(out);
        }
        Ok(module
            .outputs()
            .iter()
            .map(|po| map[po.index()].expect("module outputs are driven"))
            .collect())
    }

    /// Marks a net as a primary output, optionally (re)naming it.
    pub fn output(&mut self, net: NetId, name: impl Into<String>) {
        let name = name.into();
        if !name.is_empty() {
            self.nets[net.index()].name = Some(name);
        }
        if !self.outputs.contains(&net) {
            self.outputs.push(net);
        }
    }

    /// Number of gates added so far.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Finalizes and validates the netlist.
    ///
    /// # Errors
    ///
    /// Propagates any structural violation found by [`Netlist::validate`].
    pub fn finish(self) -> Result<Netlist, CircuitError> {
        let netlist = Netlist {
            name: self.name,
            gates: self.gates,
            nets: self.nets,
            inputs: self.inputs,
            outputs: self.outputs,
        };
        netlist.validate()?;
        Ok(netlist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_nands() -> Netlist {
        // Figure 2 of the paper: two 3-input NANDs in series.
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
    fn build_and_query() {
        let n = two_nands();
        assert_eq!(n.num_gates(), 2);
        assert_eq!(n.inputs().len(), 5);
        assert_eq!(n.outputs().len(), 1);
        let g0 = GateId::new(0);
        let g1 = GateId::new(1);
        assert_eq!(n.fanout_gates(g0), vec![g1]);
        assert_eq!(n.depth().unwrap(), 2);
        assert!(n.is_primitive());
        assert_eq!(n.transistor_count(), 12);
    }

    #[test]
    fn topo_order_respects_edges() {
        let n = two_nands();
        let order = n.topo_gates().unwrap();
        let pos0 = order.iter().position(|&g| g == GateId::new(0)).unwrap();
        let pos1 = order.iter().position(|&g| g == GateId::new(1)).unwrap();
        assert!(pos0 < pos1);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut b = NetlistBuilder::new("bad");
        let a = b.input("a");
        let err = b.gate(GateKind::Nand(2), &[a]).unwrap_err();
        assert!(matches!(err, CircuitError::BadArity { .. }));
    }

    #[test]
    fn empty_netlist_is_rejected() {
        let b = NetlistBuilder::new("empty");
        assert!(matches!(b.finish(), Err(CircuitError::EmptyNetlist)));
    }

    #[test]
    fn wire_cap_annotations() {
        let mut n = two_nands();
        let net = n.outputs()[0];
        n.set_wire_cap(net, 2.5);
        n.set_ext_load_cap(net, 4.0);
        assert_eq!(n.net(net).wire_cap(), 2.5);
        assert_eq!(n.net(net).ext_load_cap(), 4.0);
    }

    #[test]
    fn same_net_to_two_pins() {
        let mut b = NetlistBuilder::new("dup");
        let a = b.input("a");
        let out = b.gate(GateKind::Nand(2), &[a, a]).unwrap();
        b.output(out, "out");
        let n = b.finish().unwrap();
        assert_eq!(n.net(a).loads().len(), 2);
        assert_eq!(n.fanout_gates(GateId::new(0)), vec![]);
    }
}
