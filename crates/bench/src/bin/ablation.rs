//! Ablation study over MINFLOTRANSIT's design choices:
//!
//! * trust-region fraction `γ` (the paper's `MINΔD`/`MAXΔD` bounds),
//! * balanced-configuration style (ASAP vs ALAP — Theorem 1 says the
//!   optimum is invariant; the path there may differ),
//! * integerization precision (the paper's power-of-ten cost scaling),
//! * TILOS bump factor (the seed quality).
//!
//! Usage: `ablation [--circuit NAME]` (default c880-like)

use mft_circuit::SizingMode;
use mft_core::{MinflotransitConfig, SessionConfig, SizingProblem};
use mft_delay::Technology;
use mft_gen::Benchmark;
use mft_sta::BalanceStyle;
use mft_tilos::TilosConfig;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args
        .iter()
        .position(|a| a == "--circuit")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("c880-like");
    let bench = Benchmark::all()
        .into_iter()
        .find(|b| b.name() == name)
        .unwrap_or(Benchmark::C880);
    let netlist = bench.generate().expect("generator valid");
    let tech = Technology::cmos_130nm();
    let problem =
        SizingProblem::prepare(&netlist, &tech, SizingMode::Gate).expect("pipeline builds");
    let target = bench.paper_spec() * problem.dmin();
    let tilos = problem
        .session(SessionConfig::warm())
        .tilos_to(target)
        .expect("spec reachable");
    println!(
        "# ablation on {} at {:.2}·Dmin (TILOS area {:.1})\n",
        bench.name(),
        bench.paper_spec(),
        tilos.area
    );

    let run = |label: &str, config: MinflotransitConfig| {
        let t0 = Instant::now();
        match mft_core::Minflotransit::new(config).optimize_from(
            problem.dag(),
            problem.model(),
            target,
            tilos.sizes.clone(),
        ) {
            Ok(sol) => println!(
                "{label:<28} area {:10.2}  saving {:6.2}%  iters {:3}  {:7.2}s",
                sol.area,
                100.0 * (tilos.area - sol.area) / tilos.area,
                sol.iterations,
                t0.elapsed().as_secs_f64()
            ),
            Err(e) => println!("{label:<28} FAILED: {e}"),
        }
    };

    println!("## trust region γ (initial MINΔD/MAXΔD fraction)");
    for gamma in [0.05, 0.1, 0.25, 0.4, 0.6] {
        let config = MinflotransitConfig {
            trust_region: gamma,
            ..Default::default()
        };
        run(&format!("gamma = {gamma}"), config);
    }

    println!("\n## balanced-configuration style (Theorem 1: same optimum)");
    for (label, style) in [("ASAP", BalanceStyle::Asap), ("ALAP", BalanceStyle::Alap)] {
        let config = MinflotransitConfig {
            balance_style: style,
            ..Default::default()
        };
        run(label, config);
    }

    println!("\n## D-phase flow backend");
    run("network simplex", MinflotransitConfig::default());

    println!("\n## integerization precision (decimal digits kept)");
    for digits in [2u32, 4, 6, 9] {
        let config = MinflotransitConfig {
            cost_digits: digits,
            ..Default::default()
        };
        run(&format!("digits = {digits}"), config);
    }

    println!("\n## TILOS bump factor (seed quality; paper uses 1.1)");
    for bump in [1.05, 1.1, 1.3, 1.5] {
        let tilos = TilosConfig {
            bump_factor: bump,
            ..Default::default()
        };
        match problem
            .session(SessionConfig::warm().with_tilos(tilos))
            .tilos_to(target)
        {
            Ok(seed) => {
                let t0 = Instant::now();
                match mft_core::Minflotransit::default().optimize_from(
                    problem.dag(),
                    problem.model(),
                    target,
                    seed.sizes.clone(),
                ) {
                    Ok(sol) => println!(
                        "bump = {bump:<22} seed {:10.2} → mft {:10.2}  saving {:6.2}%  {:6.2}s",
                        seed.area,
                        sol.area,
                        100.0 * (seed.area - sol.area) / seed.area,
                        t0.elapsed().as_secs_f64()
                    ),
                    Err(e) => println!("bump = {bump}: refinement failed: {e}"),
                }
            }
            Err(e) => println!("bump = {bump}: TILOS failed: {e}"),
        }
    }
}
