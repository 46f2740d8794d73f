//! Consistency across the three sizing formulations: gate, gate+wire,
//! and true transistor sizing.

use minflotransit::circuit::{GateKind, Netlist, NetlistBuilder, SizingDag, SizingMode};
use minflotransit::core::{SessionConfig, SizingProblem};
use minflotransit::delay::{apply_default_loads, DelayModel, LinearDelayModel, Technology};
use minflotransit::gen::Benchmark;
use minflotransit::sta::critical_path;

fn mixed_circuit() -> Netlist {
    let mut b = NetlistBuilder::new("mixed");
    let inputs: Vec<_> = (0..6).map(|i| b.input(format!("i{i}"))).collect();
    let g1 = b
        .gate(GateKind::Nand(3), &[inputs[0], inputs[1], inputs[2]])
        .unwrap();
    let g2 = b.gate(GateKind::Nor(2), &[inputs[3], inputs[4]]).unwrap();
    let g3 = b.gate(GateKind::Aoi21, &[g1, g2, inputs[5]]).unwrap();
    let g4 = b.inv(g3).unwrap();
    let g5 = b.gate(GateKind::Oai21, &[g3, g4, g1]).unwrap();
    b.output(g5, "y");
    b.output(g4, "z");
    b.finish().unwrap()
}

#[test]
fn all_modes_run_end_to_end() {
    let netlist = mixed_circuit();
    let tech = Technology::cmos_130nm();
    for mode in [
        SizingMode::Gate,
        SizingMode::GateWire,
        SizingMode::Transistor,
    ] {
        let problem = SizingProblem::prepare(&netlist, &tech, mode).expect("builds");
        let target = 0.7 * problem.dmin();
        let sol = problem
            .session(SessionConfig::warm())
            .size_to(target)
            .expect("runs");
        assert!(
            sol.achieved_delay <= target * (1.0 + 1e-6),
            "{mode:?}: timing violated"
        );
        assert!(sol.area <= sol.initial_area + 1e-9, "{mode:?}: area grew");
    }
}

#[test]
fn vertex_counts_per_mode() {
    let netlist = mixed_circuit();
    let gate = SizingDag::gate_mode(&netlist).unwrap();
    let wire = SizingDag::gate_mode_with_wires(&netlist).unwrap();
    let transistor = SizingDag::transistor_mode(&netlist).unwrap();
    assert_eq!(gate.num_vertices(), netlist.num_gates());
    assert!(wire.num_vertices() > gate.num_vertices());
    assert_eq!(transistor.num_vertices(), netlist.transistor_count());
}

/// The gate-level Dmin and transistor-level Dmin agree within the
/// modelling difference (worst-stack equivalent resistance vs per-path
/// stack delays) — they describe the same circuit.
#[test]
fn dmin_is_comparable_across_modes() {
    let netlist = mixed_circuit();
    let tech = Technology::cmos_130nm();
    let gate = SizingProblem::prepare(&netlist, &tech, SizingMode::Gate).unwrap();
    let tran = SizingProblem::prepare(&netlist, &tech, SizingMode::Transistor).unwrap();
    let ratio = gate.dmin() / tran.dmin();
    assert!(
        (0.4..=2.5).contains(&ratio),
        "gate {} vs transistor {} (ratio {ratio})",
        gate.dmin(),
        tran.dmin()
    );
}

/// In transistor mode the optimizer may size stack devices unequally —
/// the extra freedom the paper's "true transistor sizing" provides.
#[test]
fn transistor_mode_uses_unequal_stack_sizes() {
    let netlist = Benchmark::C432.generate().expect("generator valid");
    let tech = Technology::cmos_130nm();
    let problem = SizingProblem::prepare(&netlist, &tech, SizingMode::Transistor).unwrap();
    let target = 0.6 * problem.dmin();
    let sol = problem
        .session(SessionConfig::warm())
        .size_to(target)
        .expect("runs");
    // Find a gate whose devices ended up with different sizes.
    let dag = problem.dag();
    let mut unequal = false;
    for g in problem.netlist().gate_ids() {
        let vs = dag.vertices_of_gate(g);
        if vs.len() < 2 {
            continue;
        }
        let first = sol.sizes[vs[0].index()];
        if vs
            .iter()
            .any(|v| (sol.sizes[v.index()] - first).abs() > 0.05)
        {
            unequal = true;
            break;
        }
    }
    assert!(unequal, "expected at least one unequally-sized stack");
}

/// Transistor-mode delay attributes sum to the full stack delay along
/// conduction paths (the decomposition property behind the DAG model),
/// so gate-level timing is recovered by the path sums.
#[test]
fn transistor_attributes_recover_path_delays() {
    let mut netlist = mixed_circuit();
    let tech = Technology::cmos_130nm();
    apply_default_loads(&mut netlist, &tech);
    let dag = SizingDag::transistor_mode(&netlist).unwrap();
    let model = LinearDelayModel::elmore(&netlist, &dag, &tech).unwrap();
    let sizes = vec![1.5; dag.num_vertices()];
    let delays = model.delays(&sizes);
    // The DAG's critical path is positive, finite, and consistent.
    let cp = critical_path(&dag, &delays).unwrap();
    assert!(cp.is_finite() && cp > 0.0);
    // Every vertex delay ≥ its intrinsic part.
    for v in dag.vertex_ids() {
        assert!(delays[v.index()] >= model.intrinsic(v) - 1e-12);
    }
}
