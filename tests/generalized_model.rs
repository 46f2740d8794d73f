//! End-to-end use of the generalized (beyond-Elmore) monotonic delay
//! model — the paper's claim that MINFLOTRANSIT only needs the simple
//! monotonic decomposition property, not the Elmore model specifically.

use minflotransit::circuit::{SizingDag, SizingMode};
use minflotransit::core::{Minflotransit, SizingProblem};
use minflotransit::delay::{DelayModel, GeneralizedDelayModel, Technology};
use minflotransit::gen::Benchmark;
use minflotransit::sta::critical_path;
use minflotransit::tilos::{minimum_sized_delay, TilosConfig, TilosResult, TilosState};

/// A cold TILOS run: a fresh trajectory advanced once to `target`.
fn tilos<M: DelayModel>(dag: &SizingDag, model: &M, target: f64) -> TilosResult {
    TilosState::new(dag, model, TilosConfig::default())
        .and_then(|mut state| state.advance_to(dag, model, target))
        .expect("reachable")
}

fn setup(alpha: f64) -> (SizingDag, GeneralizedDelayModel) {
    let netlist = Benchmark::C432.generate().expect("generator valid");
    let tech = Technology::cmos_130nm();
    let problem = SizingProblem::prepare(&netlist, &tech, SizingMode::Gate).expect("builds");
    let model = GeneralizedDelayModel::new(problem.model().clone(), alpha);
    (problem.dag().clone(), model)
}

#[test]
fn full_pipeline_with_sublinear_drive() {
    let (dag, model) = setup(0.85);
    let dmin = minimum_sized_delay(&dag, &model).expect("computes");
    let target = 0.6 * dmin;
    let tilos = tilos(&dag, &model, target);
    let sol = Minflotransit::default()
        .optimize_from(&dag, &model, target, tilos.sizes.clone())
        .expect("runs");
    assert!(sol.achieved_delay <= target * (1.0 + 1e-6));
    assert!(sol.area <= tilos.area + 1e-9);
    // Re-verify with a fresh evaluation.
    let cp = critical_path(&dag, &model.delays(&sol.sizes)).expect("shapes match");
    assert!((cp - sol.achieved_delay).abs() < 1e-9);
}

#[test]
fn sublinear_drive_needs_more_area_than_linear() {
    let (dag, linear) = setup(1.0);
    let (_, sublinear) = setup(0.8);
    let dmin_lin = minimum_sized_delay(&dag, &linear).expect("ok");
    // Same *relative* spec for both models.
    let tilos_lin = tilos(&dag, &linear, 0.6 * dmin_lin);
    let dmin_sub = minimum_sized_delay(&dag, &sublinear).expect("ok");
    let tilos_sub = tilos(&dag, &sublinear, 0.6 * dmin_sub);
    // With weaker drive per unit width, the same speed-up costs more area.
    assert!(tilos_sub.area > tilos_lin.area);
}

#[test]
fn alpha_one_matches_elmore_exactly() {
    let (dag, general) = setup(1.0);
    let linear = general.linear().clone();
    let sizes = vec![2.5; dag.num_vertices()];
    let dg = general.delays(&sizes);
    let dl = linear.delays(&sizes);
    for (a, b) in dg.iter().zip(dl.iter()) {
        assert!((a - b).abs() < 1e-12);
    }
    let cg = general.area_sensitivities(&sizes);
    let cl = linear.area_sensitivities(&sizes);
    for (a, b) in cg.iter().zip(cl.iter()) {
        assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()));
    }
}
