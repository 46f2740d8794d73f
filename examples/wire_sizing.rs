//! Simultaneous gate and wire sizing — the paper's §2.1 extension where
//! wires become sizable DAG vertices with their own delay attributes.
//!
//! Run with: `cargo run --release --example wire_sizing`

use minflotransit::circuit::{NetlistBuilder, SizingMode, VertexOwner};
use minflotransit::core::{SessionConfig, SizingSession};
use minflotransit::delay::Technology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A buffer tree distributing one signal to many loads — the classic
    // case where wire widths matter alongside driver sizes.
    let mut b = NetlistBuilder::new("buffer_tree");
    let root = b.input("clk_in");
    let stage1 = b.inv(root)?;
    let mut leaves = Vec::new();
    for _ in 0..4 {
        let mid = b.inv(stage1)?;
        for _ in 0..4 {
            let leaf = b.inv(mid)?;
            leaves.push(leaf);
        }
    }
    for (k, leaf) in leaves.iter().enumerate() {
        b.output(*leaf, format!("o{k}"));
    }
    let mut netlist = b.finish()?;
    // Annotate heavy routing on the high-fanout nets.
    let stage1_net = netlist
        .gate(minflotransit::circuit::GateId::new(0))
        .output();
    netlist.set_wire_cap(stage1_net, 12.0);

    let tech = Technology::cmos_130nm();
    for (label, mode) in [
        ("gates only  ", SizingMode::Gate),
        ("gates + wires", SizingMode::GateWire),
    ] {
        let mut session = SizingSession::prepare(&netlist, &tech, mode, SessionConfig::cold())?;
        let target = 0.7 * session.problem().dmin();
        let solution = session.size_to(target)?;
        let problem = session.problem();
        println!(
            "{label}: |V| = {:3}  D_min = {:6.1} ps  area = {:8.2}  ({} iterations)",
            problem.dag().num_vertices(),
            problem.dmin(),
            solution.area,
            solution.iterations
        );
        if mode == SizingMode::GateWire {
            // Report the widest wire the optimizer chose.
            let widest_wire = problem
                .dag()
                .vertex_ids()
                .filter(|&v| matches!(problem.dag().owner(v), VertexOwner::Wire(_)))
                .map(|v| solution.sizes[v.index()])
                .fold(f64::NEG_INFINITY, f64::max);
            println!("  widest wire: {widest_wire:.2}× unit width");
        }
    }
    Ok(())
}
