//! Load an ISCAS-85 `.bench` netlist and size it.
//!
//! Run with: `cargo run --release --example iscas_bench [path/to/file.bench]`
//!
//! Without an argument, the embedded original c17 is used. Real ISCAS-85
//! files (c432.bench, c6288.bench, …) can be dropped in directly.

use minflotransit::circuit::{parse_bench, SizingMode, C17_BENCH};
use minflotransit::core::{SessionConfig, SizingSession};
use minflotransit::delay::Technology;
use std::fs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = match std::env::args().nth(1) {
        Some(path) => {
            let text = fs::read_to_string(&path)?;
            parse_bench(&path, &text)?
        }
        None => parse_bench("c17", C17_BENCH)?,
    };
    println!("{}", netlist.stats());

    let tech = Technology::cmos_130nm();
    let mut session =
        SizingSession::prepare(&netlist, &tech, SizingMode::Gate, SessionConfig::cold())?;
    let dmin = session.problem().dmin();
    println!("D_min = {dmin:.1} ps");

    for spec in [0.8, 0.6, 0.5] {
        let target = spec * dmin;
        match session.tilos_to(target) {
            Ok(tilos) => {
                let mft = session.size_to(target)?;
                println!(
                    "spec {spec:.2}·Dmin: TILOS area {:8.1} → MFT area {:8.1} ({:+.2}%), {} iters",
                    tilos.area,
                    mft.area,
                    -100.0 * (tilos.area - mft.area) / tilos.area,
                    mft.iterations
                );
            }
            Err(e) => println!("spec {spec:.2}·Dmin unreachable: {e}"),
        }
    }
    Ok(())
}
