//! Summary statistics of a netlist, used by reports and benchmark tables.

use crate::gate::GateKind;
use crate::netlist::Netlist;
use core::fmt;
use std::collections::BTreeMap;

/// Aggregate statistics of a [`Netlist`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistStats {
    /// Circuit name.
    pub name: String,
    /// Number of gates.
    pub gates: usize,
    /// Number of nets.
    pub nets: usize,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Total transistor count (after notional macro expansion).
    pub transistors: usize,
    /// Logic depth in levels (0 when the netlist is cyclic).
    pub depth: u32,
    /// Largest gate fan-in.
    pub max_fanin: usize,
    /// Largest net fan-out.
    pub max_fanout: usize,
    /// Gate count per kind name.
    pub by_kind: BTreeMap<String, usize>,
}

impl NetlistStats {
    pub(crate) fn collect(netlist: &Netlist) -> Self {
        let mut by_kind: BTreeMap<String, usize> = BTreeMap::new();
        let mut max_fanin = 0;
        for gate in netlist.gates() {
            *by_kind.entry(gate.kind().name()).or_insert(0) += 1;
            max_fanin = max_fanin.max(gate.kind().num_inputs());
        }
        let mut max_fanout = 0;
        for net in netlist.net_ids() {
            max_fanout = max_fanout.max(netlist.net(net).loads().len());
        }
        NetlistStats {
            name: netlist.name().to_owned(),
            gates: netlist.num_gates(),
            nets: netlist.num_nets(),
            inputs: netlist.inputs().len(),
            outputs: netlist.outputs().len(),
            transistors: netlist.transistor_count(),
            depth: netlist.depth().unwrap_or(0),
            max_fanin,
            max_fanout,
            by_kind,
        }
    }

    /// Count of gates of the given kind.
    pub fn count_of(&self, kind: GateKind) -> usize {
        self.by_kind.get(&kind.name()).copied().unwrap_or(0)
    }
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} gates, {} nets, {} PI, {} PO, {} transistors, depth {}",
            self.name,
            self.gates,
            self.nets,
            self.inputs,
            self.outputs,
            self.transistors,
            self.depth
        )?;
        write!(
            f,
            "  max fan-in {}, max fan-out {}; kinds:",
            self.max_fanin, self.max_fanout
        )?;
        for (kind, count) in &self.by_kind {
            write!(f, " {kind}×{count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

    #[test]
    fn stats_collects_counts() {
        let mut b = NetlistBuilder::new("s");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.nand2(a, c).unwrap();
        let y = b.inv(x).unwrap();
        b.output(y, "y");
        let n = b.finish().unwrap();
        let s = n.stats();
        assert_eq!(s.gates, 2);
        assert_eq!(s.inputs, 2);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.transistors, 6);
        assert_eq!(s.depth, 2);
        assert_eq!(s.count_of(GateKind::Nand(2)), 1);
        assert_eq!(s.count_of(GateKind::Inv), 1);
        assert_eq!(s.count_of(GateKind::Nor(2)), 0);
        let text = s.to_string();
        assert!(text.contains("2 gates"));
        assert!(text.contains("NAND2×1"));
    }
}
