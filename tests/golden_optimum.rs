//! Golden-reference optimality check (Theorem 3): on circuits small
//! enough to brute-force, MINFLOTRANSIT's solution must match the global
//! optimum found by exhaustive grid search over the size space.

use minflotransit::circuit::{GateKind, Netlist, NetlistBuilder, SizingDag, SizingMode};
use minflotransit::core::{MinflotransitConfig, SessionConfig, SizingProblem};
use minflotransit::delay::{DelayModel, LinearDelayModel, Technology};
use minflotransit::sta::critical_path;

fn grid_optimum(
    dag: &SizingDag,
    model: &LinearDelayModel,
    target: f64,
    lo: f64,
    hi: f64,
    steps: usize,
) -> Option<(f64, Vec<f64>)> {
    let n = dag.num_vertices();
    assert!(n <= 4, "grid search explodes beyond four variables");
    let grid: Vec<f64> = (0..steps)
        .map(|k| lo * (hi / lo).powf(k as f64 / (steps - 1) as f64))
        .collect();
    let mut best: Option<(f64, Vec<f64>)> = None;
    let mut index = vec![0usize; n];
    loop {
        let sizes: Vec<f64> = index.iter().map(|&k| grid[k]).collect();
        let area = model.area(&sizes);
        if best.as_ref().is_none_or(|(b, _)| area < *b) {
            let cp = critical_path(dag, &model.delays(&sizes)).expect("shapes match");
            if cp <= target {
                best = Some((area, sizes));
            }
        } else {
            // Only a strictly smaller area replaces `best`, and area grows
            // with every size: the rest of the fastest digit's run cannot
            // win either.
            index[0] = steps - 1;
        }
        // Odometer.
        let mut d = 0;
        loop {
            if d == n {
                return best;
            }
            index[d] += 1;
            if index[d] == steps {
                index[d] = 0;
                d += 1;
            } else {
                break;
            }
        }
    }
}

fn check_matches_golden(netlist: &Netlist, spec: f64) {
    let tech = Technology::cmos_130nm();
    let problem = SizingProblem::prepare(netlist, &tech, SizingMode::Gate).expect("builds");
    let dag = problem.dag();
    let model = problem.model();
    let target = spec * problem.dmin();
    // Dense logarithmic grid over a generous size window.
    let golden =
        grid_optimum(dag, model, target, 1.0, 24.0, 60).expect("target reachable on the grid");
    let config = MinflotransitConfig {
        max_iterations: 300,
        area_tolerance: 1e-7,
        patience: 8,
        ..Default::default()
    };
    let sol = problem
        .session(SessionConfig {
            optimizer: config,
            ..SessionConfig::warm()
        })
        .size_to(target)
        .expect("optimizer runs");
    assert!(sol.achieved_delay <= target * (1.0 + 1e-6));
    // The continuous optimum can only undercut the lattice optimum; allow
    // a small lattice-resolution margin in the other direction.
    let margin = 1.03;
    assert!(
        sol.area <= golden.0 * margin,
        "MFT area {} vs grid optimum {} (spec {spec})",
        sol.area,
        golden.0
    );
}

#[test]
fn golden_chain_of_three() {
    let mut b = NetlistBuilder::new("chain3");
    let a = b.input("a");
    let g0 = b.inv(a).unwrap();
    let g1 = b.inv(g0).unwrap();
    let g2 = b.inv(g1).unwrap();
    b.output(g2, "o");
    let netlist = b.finish().unwrap();
    for spec in [0.8, 0.6, 0.5] {
        check_matches_golden(&netlist, spec);
    }
}

#[test]
fn golden_diamond() {
    let mut b = NetlistBuilder::new("diamond");
    let a = b.input("a");
    let c = b.input("b");
    let g0 = b.nand2(a, c).unwrap();
    let g1 = b.inv(g0).unwrap();
    let g2 = b.nand2(g0, c).unwrap();
    let g3 = b.nand2(g1, g2).unwrap();
    b.output(g3, "o");
    let netlist = b.finish().unwrap();
    for spec in [0.75, 0.6] {
        check_matches_golden(&netlist, spec);
    }
}

#[test]
fn golden_figure6_motif() {
    // The paper's Figure 6: one driver, two parallel branches. The case
    // TILOS handles greedily and MINFLOTRANSIT handles globally.
    let mut b = NetlistBuilder::new("fig6");
    let i0 = b.input("i0");
    let i1 = b.input("i1");
    let a = b.inv(i0).unwrap();
    let x = b.gate(GateKind::Nand(2), &[a, i1]).unwrap();
    let y = b.gate(GateKind::Nand(2), &[a, i1]).unwrap();
    b.output(x, "x");
    b.output(y, "y");
    let netlist = b.finish().unwrap();
    for spec in [0.7, 0.55] {
        check_matches_golden(&netlist, spec);
    }
}
