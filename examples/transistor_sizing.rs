//! True transistor sizing (the paper's §2.1 DAG where every transistor is
//! its own vertex) versus the relaxed gate-sizing problem, on a circuit
//! rich in complex gates.
//!
//! Run with: `cargo run --release --example transistor_sizing`

use minflotransit::circuit::{GateKind, NetlistBuilder, SizingMode};
use minflotransit::core::{SessionConfig, SizingSession};
use minflotransit::delay::Technology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A two-stage AOI/OAI datapath slice with NAND stacks: transistor
    // sizing can set every stack device individually (e.g. enlarging
    // only the devices near the output node of a stack).
    let mut b = NetlistBuilder::new("complex_gates");
    let inputs: Vec<_> = (0..8).map(|i| b.input(format!("i{i}"))).collect();
    let s1 = b.gate(GateKind::Aoi21, &[inputs[0], inputs[1], inputs[2]])?;
    let s2 = b.gate(GateKind::Oai21, &[inputs[3], inputs[4], inputs[5]])?;
    let s3 = b.gate(GateKind::Nand(3), &[s1, s2, inputs[6]])?;
    let s4 = b.gate(GateKind::Nor(2), &[s3, inputs[7]])?;
    let s5 = b.gate(GateKind::Aoi22, &[s1, s3, s4, inputs[0]])?;
    let out = b.inv(s5)?;
    b.output(out, "y");
    let netlist = b.finish()?;

    let tech = Technology::cmos_130nm();
    for (label, mode) in [
        ("gate sizing      ", SizingMode::Gate),
        ("transistor sizing", SizingMode::Transistor),
    ] {
        let mut session = SizingSession::prepare(&netlist, &tech, mode, SessionConfig::warm())?;
        let target = 0.65 * session.problem().dmin();
        let solution = session.size_to(target)?;
        let problem = session.problem();
        println!(
            "{label}: |V| = {:3}, D_min = {:6.1} ps, area(MFT) = {:7.2}, \
             saving over TILOS seed = {:5.2}%, {} iterations",
            problem.dag().num_vertices(),
            problem.dmin(),
            solution.area,
            solution.area_saving_percent(),
            solution.iterations,
        );
        // In transistor mode, print the stack profile of the NAND3: the
        // paper's point is that devices in one stack need not share a size.
        if mode == SizingMode::Transistor {
            let sizes: Vec<String> = solution
                .sizes
                .iter()
                .take(12)
                .map(|x| format!("{x:.2}"))
                .collect();
            println!("  first twelve device sizes: {}", sizes.join(", "));
        }
    }
    Ok(())
}
