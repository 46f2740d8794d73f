//! Static timing analysis on the circuit DAG — Eq. (8) of the paper.
//!
//! Vertex delays live on the vertices (a path "leaves" a vertex after
//! paying its delay). For every vertex `i` the analysis computes the
//! arrival time `AT(i)` at its input, the required time `RT(i)`, and the
//! slack `sl(i) = RT(i) − AT(i)`; every edge `e_ij` gets the edge slack
//! `esl(e_ij) = RT(j) − AT(i) − delay(i)`. A circuit is *safe* when all
//! vertex and edge slacks are non-negative.

use crate::error::StaError;
use mft_circuit::{SizingDag, VertexId};

/// The result of a full forward/backward timing propagation.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Arrival time at each vertex's input (`AT`).
    pub at: Vec<f64>,
    /// Required arrival time at each vertex's input (`RT`).
    pub rt: Vec<f64>,
    /// Vertex slack `RT − AT`.
    pub slack: Vec<f64>,
    /// Edge slack `esl(e_ij) = RT(j) − AT(i) − delay(i)`, indexed by edge.
    pub edge_slack: Vec<f64>,
    /// The critical path delay `CP(G) = max_i (AT(i) + delay(i))`.
    pub critical_path: f64,
    /// The timing target the required times were computed against.
    pub target: f64,
}

impl TimingReport {
    /// Runs timing analysis with required times anchored at `CP(G)` itself
    /// (the paper's Eq. (8)). The forward pass runs **once**: the critical
    /// path used as the anchor is read off the same arrival times the
    /// report carries.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::ShapeMismatch`] if `delays` has the wrong length.
    pub fn compute(dag: &SizingDag, delays: &[f64]) -> Result<Self, StaError> {
        let n = dag.num_vertices();
        if delays.len() != n {
            return Err(StaError::ShapeMismatch {
                expected: n,
                found: delays.len(),
            });
        }
        let at = arrival_times(dag, delays);
        let critical = completion_max(&at, delays);
        Ok(Self::from_arrivals(dag, delays, at, critical, critical))
    }

    /// Runs timing analysis with required times anchored at an explicit
    /// `target` (so slack against a delay specification `T` is visible).
    ///
    /// # Errors
    ///
    /// Returns [`StaError::ShapeMismatch`] if `delays` has the wrong length.
    pub fn with_target(dag: &SizingDag, delays: &[f64], target: f64) -> Result<Self, StaError> {
        let n = dag.num_vertices();
        if delays.len() != n {
            return Err(StaError::ShapeMismatch {
                expected: n,
                found: delays.len(),
            });
        }
        let at = arrival_times(dag, delays);
        let critical = completion_max(&at, delays);
        Ok(Self::from_arrivals(dag, delays, at, critical, target))
    }

    /// Assembles a report from an already-computed forward pass.
    fn from_arrivals(
        dag: &SizingDag,
        delays: &[f64],
        at: Vec<f64>,
        critical: f64,
        target: f64,
    ) -> Self {
        let mut rt = vec![f64::INFINITY; dag.num_vertices()];
        required_times_into(dag, delays, target, &mut rt);
        let slack: Vec<f64> = rt.iter().zip(at.iter()).map(|(r, a)| r - a).collect();
        let mut edge_slack = vec![0.0; dag.num_edges()];
        for e in dag.edge_ids() {
            let (i, j) = dag.edge(e);
            edge_slack[e.index()] = rt[j.index()] - at[i.index()] - delays[i.index()];
        }
        TimingReport {
            at,
            rt,
            slack,
            edge_slack,
            critical_path: critical,
            target,
        }
    }

    /// Whether every vertex and edge slack is at least `-eps`.
    pub fn is_safe(&self, eps: f64) -> bool {
        self.slack.iter().all(|&s| s >= -eps) && self.edge_slack.iter().all(|&s| s >= -eps)
    }

    /// The smallest vertex slack.
    pub fn worst_slack(&self) -> f64 {
        self.slack.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Arrival times at each vertex input (forward propagation; DAG sources
/// have external arrival time zero).
pub fn arrival_times(dag: &SizingDag, delays: &[f64]) -> Vec<f64> {
    let mut at = vec![0.0_f64; dag.num_vertices()];
    for &v in dag.topo_order() {
        let mut a: f64 = 0.0;
        for &e in dag.in_edges(v) {
            let (u, _) = dag.edge(e);
            a = a.max(at[u.index()] + delays[u.index()]);
        }
        at[v.index()] = a;
    }
    at
}

/// `max_i (AT(i) + delay(i))` folded exactly like the historical scan
/// (initial accumulator `0.0`, ascending vertex index).
pub(crate) fn completion_max(at: &[f64], delays: &[f64]) -> f64 {
    at.iter()
        .enumerate()
        .map(|(i, &a)| a + delays[i])
        .fold(0.0_f64, f64::max)
}

/// The backward required-time pass into a caller-provided buffer.
/// End-of-path vertices (PO leaves and sinks) must finish by `target`;
/// interior vertices inherit the tightest fanout requirement.
fn required_times_into(dag: &SizingDag, delays: &[f64], target: f64, rt: &mut [f64]) {
    rt.fill(f64::INFINITY);
    for &v in dag.po_leaves() {
        rt[v.index()] = target - delays[v.index()];
    }
    for v in dag.vertex_ids() {
        if dag.out_edges(v).is_empty() {
            rt[v.index()] = rt[v.index()].min(target - delays[v.index()]);
        }
    }
    for &v in dag.topo_order().iter().rev() {
        let mut r = rt[v.index()];
        for &e in dag.out_edges(v) {
            let (_, j) = dag.edge(e);
            r = r.min(rt[j.index()] - delays[v.index()]);
        }
        rt[v.index()] = r;
    }
}

/// The relative tie tolerance of the critical-path predecessor walk.
pub(crate) fn tail_tie_eps(at_cur: f64) -> f64 {
    const TIE_EPS: f64 = 1e-9;
    TIE_EPS * (1.0 + at_cur.abs())
}

/// The critical path delay `CP(G) = max_i (AT(i) + delay(i))`.
///
/// # Errors
///
/// Returns [`StaError::ShapeMismatch`] if `delays` has the wrong length.
pub fn critical_path(dag: &SizingDag, delays: &[f64]) -> Result<f64, StaError> {
    if delays.len() != dag.num_vertices() {
        return Err(StaError::ShapeMismatch {
            expected: dag.num_vertices(),
            found: delays.len(),
        });
    }
    let at = arrival_times(dag, delays);
    Ok(completion_max(&at, delays))
}

/// Extracts one critical path (a vertex sequence from a source to the
/// vertex completing at `CP(G)`), following tight predecessors.
///
/// # Errors
///
/// Returns [`StaError::ShapeMismatch`] if `delays` has the wrong length.
pub fn extract_critical_path(dag: &SizingDag, delays: &[f64]) -> Result<Vec<VertexId>, StaError> {
    if delays.len() != dag.num_vertices() {
        return Err(StaError::ShapeMismatch {
            expected: dag.num_vertices(),
            found: delays.len(),
        });
    }
    let at = arrival_times(dag, delays);
    let mut tail = VertexId::new(0);
    let mut best = f64::NEG_INFINITY;
    for v in dag.vertex_ids() {
        let done = at[v.index()] + delays[v.index()];
        if done > best {
            best = done;
            tail = v;
        }
    }
    let mut path = vec![tail];
    let mut cur = tail;
    while !dag.in_edges(cur).is_empty() {
        let mut next = None;
        for &e in dag.in_edges(cur) {
            let (u, _) = dag.edge(e);
            if (at[u.index()] + delays[u.index()] - at[cur.index()]).abs()
                <= tail_tie_eps(at[cur.index()])
            {
                next = Some(u);
                break;
            }
        }
        match next {
            Some(u) => {
                path.push(u);
                cur = u;
            }
            None => break,
        }
    }
    path.reverse();
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mft_circuit::{Netlist, NetlistBuilder};

    /// A 4-gate diamond: g0 feeds g1 and g2, which feed g3.
    fn diamond() -> (Netlist, SizingDag) {
        let mut b = NetlistBuilder::new("diamond");
        let a = b.input("a");
        let c = b.input("b");
        let g0 = b.nand2(a, c).unwrap();
        let g1 = b.inv(g0).unwrap();
        let g2 = b.nand2(g0, c).unwrap();
        let g3 = b.nand2(g1, g2).unwrap();
        b.output(g3, "y");
        let n = b.finish().unwrap();
        let dag = SizingDag::gate_mode(&n).unwrap();
        (n, dag)
    }

    #[test]
    fn arrival_and_critical_path() {
        let (_, dag) = diamond();
        let delays = vec![2.0, 3.0, 1.0, 4.0];
        let at = arrival_times(&dag, &delays);
        assert_eq!(at[0], 0.0);
        assert_eq!(at[1], 2.0);
        assert_eq!(at[2], 2.0);
        assert_eq!(at[3], 5.0); // max(2+3, 2+1)
        assert_eq!(critical_path(&dag, &delays).unwrap(), 9.0);
    }

    #[test]
    fn report_matches_eq8() {
        let (_, dag) = diamond();
        let delays = vec![2.0, 3.0, 1.0, 4.0];
        let r = TimingReport::compute(&dag, &delays).unwrap();
        assert_eq!(r.critical_path, 9.0);
        assert_eq!(r.target, 9.0);
        // g3 is the PO leaf: RT = 9 − 4 = 5; AT = 5 → slack 0.
        assert_eq!(r.rt[3], 5.0);
        assert_eq!(r.slack[3], 0.0);
        // g2 (the fast branch) has slack 2: RT = 5−1 = 4, AT = 2.
        assert_eq!(r.rt[2], 4.0);
        assert_eq!(r.slack[2], 2.0);
        // g1 is on the critical path: RT = 5−3 = 2 = AT.
        assert_eq!(r.slack[1], 0.0);
        // Edge slacks: g2→g3 edge has slack RT(3) − AT(2) − d(2) = 5−2−1 = 2.
        let e = dag
            .edge_ids()
            .find(|&e| dag.edge(e) == (VertexId::new(2), VertexId::new(3)))
            .unwrap();
        assert_eq!(r.edge_slack[e.index()], 2.0);
        assert!(r.is_safe(0.0));
        assert_eq!(r.worst_slack(), 0.0);
    }

    #[test]
    fn with_target_adds_uniform_slack() {
        let (_, dag) = diamond();
        let delays = vec![2.0, 3.0, 1.0, 4.0];
        let r = TimingReport::with_target(&dag, &delays, 12.0).unwrap();
        // Everything gains 3 units of slack relative to the CP-anchored run.
        assert_eq!(r.slack[3], 3.0);
        assert_eq!(r.slack[1], 3.0);
        assert_eq!(r.critical_path, 9.0);
        assert!(r.is_safe(0.0));
        // An infeasible target yields negative slack but still computes.
        let r = TimingReport::with_target(&dag, &delays, 7.0).unwrap();
        assert!(!r.is_safe(1e-12));
        assert_eq!(r.worst_slack(), -2.0);
    }

    #[test]
    fn critical_path_extraction() {
        let (_, dag) = diamond();
        let delays = vec![2.0, 3.0, 1.0, 4.0];
        let path = extract_critical_path(&dag, &delays).unwrap();
        let ids: Vec<usize> = path.iter().map(|v| v.index()).collect();
        assert_eq!(ids, vec![0, 1, 3]);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let (_, dag) = diamond();
        assert!(matches!(
            TimingReport::compute(&dag, &[1.0]),
            Err(StaError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            critical_path(&dag, &[1.0, 2.0]),
            Err(StaError::ShapeMismatch { .. })
        ));
    }

    /// A circuit in the style of the paper's Figure 3: two branches of
    /// different depth reconverging on a PO vertex, with (RT/SL/AT)
    /// triplets verified by hand.
    ///
    ///   v0 (delay 2) ← PI1, PI2      v1 (delay 2) ← PI2, PI3
    ///   v2 (delay 1) ← PI4, PI5      v3 (delay 4) ← v0
    ///   v4 (delay 2) ← v1, v2        v5 (delay 1) ← v3, v4   (PO)
    ///
    /// Critical path: v0 → v3 → v5 with delay 2 + 4 + 1 = 7.
    #[test]
    fn figure3_style_triplets() {
        let mut b = NetlistBuilder::new("fig3");
        let p1 = b.input("p1");
        let p2 = b.input("p2");
        let p3 = b.input("p3");
        let p4 = b.input("p4");
        let p5 = b.input("p5");
        let v0 = b.nand2(p1, p2).unwrap();
        let v1 = b.nand2(p2, p3).unwrap();
        let v2 = b.nand2(p4, p5).unwrap();
        let v3 = b.inv(v0).unwrap();
        let v4 = b.nand2(v1, v2).unwrap();
        let v5 = b.nand2(v3, v4).unwrap();
        b.output(v5, "po");
        let n = b.finish().unwrap();
        let dag = SizingDag::gate_mode(&n).unwrap();
        let delays = vec![2.0, 2.0, 1.0, 4.0, 2.0, 1.0];
        let r = TimingReport::compute(&dag, &delays).unwrap();
        assert_eq!(r.critical_path, 7.0);
        // PO vertex: arrives at 6, must start by 7 − 1 = 6 → slack 0.
        assert_eq!(r.at[5], 6.0);
        assert_eq!(r.rt[5], 6.0);
        assert_eq!(r.slack[5], 0.0);
        // The delay-4 vertex is critical: AT 2 = RT.
        assert_eq!(r.at[3], 2.0);
        assert_eq!(r.slack[3], 0.0);
        // The shallow branch has slack: v4 AT 2, RT 6 − 2 = 4.
        assert_eq!(r.slack[4], 2.0);
        assert_eq!(r.slack[1], 2.0);
        assert_eq!(r.slack[2], 3.0);
        assert_eq!(r.slack[0], 0.0);
        // Consistency: slack = RT − AT everywhere.
        for i in 0..6 {
            assert!((r.slack[i] - (r.rt[i] - r.at[i])).abs() < 1e-12);
        }
    }
}
