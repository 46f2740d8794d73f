//! Area–delay trade-off exploration (the paper's Figure 7 workflow) on an
//! 8×8 array multiplier — the kind of reconvergent circuit where
//! MINFLOTRANSIT's global view pays off most.
//!
//! The sweep is one request to a warm [`SizingSession`]: one TILOS bump
//! trajectory shared by every target (each point is a bit-exact snapshot
//! of it), one D-phase flow network and one SMP solver reused across the
//! whole curve, and warm-started D- and W-phase solves — so the curve costs
//! little more than its tightest point alone. Worker threads
//! (`SessionConfig::with_jobs`) give a further near-linear speedup; the
//! results are identical for every job count.
//!
//! Run with: `cargo run --release --example area_delay_tradeoff`

use minflotransit::circuit::SizingMode;
use minflotransit::core::{format_curve, SessionConfig, SizingSession};
use minflotransit::delay::Technology;
use minflotransit::gen::array_multiplier;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = array_multiplier(8)?;
    println!("{}", netlist.stats());

    let tech = Technology::cmos_130nm();
    let config = SessionConfig::warm().with_jobs(2);
    let mut session = SizingSession::prepare(&netlist, &tech, SizingMode::Gate, config)?;
    println!("D_min = {:.1} ps\n", session.problem().dmin());

    let specs = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.45];
    let t0 = Instant::now();
    let outcomes = session.sweep(&specs)?;
    println!("{}", format_curve("mult8x8", &outcomes));
    println!("swept {} specs in {:.2?}", specs.len(), t0.elapsed());

    // Where is the crossover? The savings grow as the spec tightens
    // because more paths become simultaneously critical and the greedy
    // baseline keeps over-sizing one of them at a time.
    Ok(())
}
