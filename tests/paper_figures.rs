//! Reproductions of the paper's illustrative figures as executable
//! checks: the Figure 1/2 DAG construction, the Figure 3/4 balancing
//! example, and the Figure 6 motif where MINFLOTRANSIT's global view
//! beats TILOS's greed.

use minflotransit::circuit::{
    GateKind, NetlistBuilder, NetworkSide, SizingDag, SizingMode, SpNetwork,
};
use minflotransit::core::{SessionConfig, SizingProblem};
use minflotransit::delay::{DelayModel, Technology};

/// Figure 1: the DAG of a 3-input NAND has separate pull-up and
/// pull-down components; the pull-down chain's delay attributes sum to
/// the Elmore pull-down delay (checked numerically in the delay crate's
/// unit tests; here we check the component structure).
#[test]
fn figure1_nand3_dag_components() {
    let pdn = SpNetwork::for_gate(GateKind::Nand(3), NetworkSide::PullDown).unwrap();
    let pun = SpNetwork::for_gate(GateKind::Nand(3), NetworkSide::PullUp).unwrap();
    // N1..N3 in series; P4..P6 in parallel (the paper's labels).
    assert_eq!(pdn.paths().len(), 1);
    assert_eq!(pdn.paths()[0].len(), 3);
    assert_eq!(pun.paths().len(), 3);
    // Roots have only outgoing intra-gate edges, leaves only incoming.
    assert_eq!(pdn.roots().len(), 1);
    assert_eq!(pdn.leaves().len(), 1);
    assert_eq!(pun.roots().len(), 3);
}

/// Figure 2: two 3-input NANDs in series — the inter-gate edges connect
/// the NMOS component of the first gate to the PMOS component of the
/// second and vice versa.
#[test]
fn figure2_intergate_edges_cross_polarities() {
    let mut b = NetlistBuilder::new("fig2");
    let pins: Vec<_> = (0..5).map(|i| b.input(format!("i{i}"))).collect();
    let n1 = b
        .gate(GateKind::Nand(3), &[pins[0], pins[1], pins[2]])
        .unwrap();
    let n2 = b.gate(GateKind::Nand(3), &[n1, pins[3], pins[4]]).unwrap();
    b.output(n2, "out");
    let netlist = b.finish().unwrap();
    let dag = SizingDag::transistor_mode(&netlist).unwrap();
    use minflotransit::circuit::VertexOwner;
    for e in dag.edge_ids() {
        let (u, v) = dag.edge(e);
        let (
            VertexOwner::Device {
                gate: gu, side: su, ..
            },
            VertexOwner::Device {
                gate: gv, side: sv, ..
            },
        ) = (dag.owner(u), dag.owner(v))
        else {
            panic!("transistor DAG has only device vertices");
        };
        if gu != gv {
            // Inter-gate edges always flip polarity (N→P or P→N).
            assert_ne!(su, sv, "inter-gate edge keeps polarity");
        } else {
            // Intra-gate edges stay within one network.
            assert_eq!(su, sv, "intra-gate edge crosses networks");
        }
    }
}

/// Figure 6: driver A feeding two parallel gates B and C. TILOS keeps
/// bumping B and C alternately; MINFLOTRANSIT's D-phase sees that
/// shifting budget onto B and C simultaneously (paid for by A) wins.
/// The observable consequence: MFT finds a solution at least as small,
/// and strictly smaller on a properly loaded instance.
#[test]
fn figure6_global_view_beats_greedy() {
    let mut b = NetlistBuilder::new("fig6");
    let i0 = b.input("i0");
    let sel: Vec<_> = (0..2).map(|i| b.input(format!("s{i}"))).collect();
    let a = b.inv(i0).unwrap();
    // Two parallel branches with a couple of stages each.
    let b1 = b.gate(GateKind::Nand(2), &[a, sel[0]]).unwrap();
    let b2 = b.inv(b1).unwrap();
    let c1 = b.gate(GateKind::Nand(2), &[a, sel[1]]).unwrap();
    let c2 = b.inv(c1).unwrap();
    b.output(b2, "x");
    b.output(c2, "y");
    let netlist = b.finish().unwrap();
    let tech = Technology::cmos_130nm();
    let problem = SizingProblem::prepare(&netlist, &tech, SizingMode::Gate).unwrap();
    let target = 0.55 * problem.dmin();
    let mut session = problem.session(SessionConfig::warm());
    let tilos = session.tilos_to(target).unwrap();
    let mft = session.size_to(target).unwrap();
    assert!(mft.area <= tilos.area + 1e-9);
    assert!(mft.achieved_delay <= target * (1.0 + 1e-6));
    // The driver A (vertex 0) carries real size in the MFT solution —
    // the global trade the figure illustrates.
    assert!(mft.sizes[0] > 1.0);
}

/// Figure 7's qualitative content on a small circuit: across the sweep,
/// the MFT curve never lies above the TILOS curve.
#[test]
fn figure7_dominance_on_c17() {
    use minflotransit::circuit::{parse_bench, C17_BENCH};
    use minflotransit::core::SweepOutcome;
    let netlist = parse_bench("c17", C17_BENCH).unwrap();
    let problem =
        SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap();
    let outcomes = problem
        .into_session(SessionConfig::warm())
        .sweep(&[0.9, 0.8, 0.7, 0.6, 0.5])
        .unwrap();
    for o in &outcomes {
        if let SweepOutcome::Point(p) = o {
            assert!(p.mft_area_ratio <= p.tilos_area_ratio + 1e-9);
            assert!(p.saving_percent >= -1e-9);
        }
    }
}

/// The equivalence of Eq. (4) and the model's coefficient table: every
/// vertex delay has the form `p + (b + Σ a·x)/x` with non-negative
/// coefficients, i.e. admits the simple monotonic decomposition.
#[test]
fn eq4_form_and_monotonicity() {
    let netlist = minflotransit::gen::Benchmark::C880.generate().unwrap();
    let tech = Technology::cmos_130nm();
    let problem = SizingProblem::prepare(&netlist, &tech, SizingMode::Gate).unwrap();
    let model = problem.model();
    let n = problem.dag().num_vertices();
    let base = vec![2.0; n];
    let delays = model.delays(&base);
    for i in (0..n).step_by(17) {
        let v = minflotransit::circuit::VertexId::new(i);
        // Monotone decreasing in own size.
        let mut up = base.clone();
        up[i] = 4.0;
        assert!(model.delay(v, &up) < delays[i]);
        // Monotone non-decreasing in every dependency.
        for &j in model.load_deps(v) {
            let mut loaded = base.clone();
            loaded[j.index()] = 4.0;
            assert!(model.delay(v, &loaded) >= delays[i] - 1e-12);
        }
    }
}
