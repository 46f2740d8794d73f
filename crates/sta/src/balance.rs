//! Delay balancing with Fictitious Specific Delay Units (FSDUs) and
//! FSDU-displacement — §2.3.1 of the paper.
//!
//! A *delay-balanced configuration* assigns a non-negative FSDU value to
//! every edge (and to the dummy edges connecting PO leaves to the common
//! sink `O`) such that **every** source-to-`O` path has total delay exactly
//! equal to the timing target. The FSDUs capture all the slack in the
//! circuit; the D-phase then redistributes delay budgets by *displacing*
//! them with an integer vertex potential `r` (Eq. (9)):
//!
//! ```text
//! FSDU_r(e_ij) = FSDU(e_ij) + r(j) − r(i)
//! ```
//!
//! Theorem 1: all legal balanced configurations are FSDU-displaced versions
//! of each other. Theorem 2: displacement changes the delay of any path
//! `i → j` by exactly `r(j) − r(i)`; with `r` pinned to zero at the DAG
//! sources and at `O` (Corollary 1), the critical path is unaltered.

use crate::error::StaError;
use crate::timing::{arrival_times, critical_path, TimingReport};
use mft_circuit::{SizingDag, VertexId};

/// A delay-balanced configuration: FSDU values on every DAG edge plus the
/// dummy edges from PO leaves to the common sink `O`.
#[derive(Debug, Clone, PartialEq)]
pub struct BalancedConfig {
    /// FSDU per DAG edge (indexed by [`mft_circuit::EdgeId`]).
    pub fsdu: Vec<f64>,
    /// FSDU on the dummy edge `v → O` for each entry of
    /// [`SizingDag::po_leaves`] (same order).
    pub po_fsdu: Vec<f64>,
    /// The timing target all balanced paths meet exactly.
    pub target: f64,
}

/// Which balancing heuristic to use. Any legal configuration works (they
/// are all FSDU-displacements of each other — Theorem 1); exposing both
/// lets tests exercise the theorem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BalanceStyle {
    /// Slack pushed toward the sink: every edge FSDU makes arrivals equal
    /// the plain (as-soon-as-possible) arrival times.
    Asap,
    /// Slack pulled toward the sources: arrivals equal required times.
    Alap,
}

impl BalancedConfig {
    /// Produces a delay-balanced configuration for the given vertex delays
    /// and timing target.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::TargetInfeasible`] if `target < CP(G)` (within
    /// a small tolerance) and [`StaError::ShapeMismatch`] on length errors.
    pub fn balance(
        dag: &SizingDag,
        delays: &[f64],
        target: f64,
        style: BalanceStyle,
    ) -> Result<Self, StaError> {
        let cp = critical_path(dag, delays)?;
        if target < cp - 1e-9 * cp.max(1.0) {
            return Err(StaError::TargetInfeasible {
                critical_path: cp,
                target,
            });
        }
        match style {
            BalanceStyle::Asap => Ok(Self::asap(dag, delays, target)),
            BalanceStyle::Alap => Ok(Self::alap(dag, delays, target)),
        }
    }

    fn asap(dag: &SizingDag, delays: &[f64], target: f64) -> Self {
        let at = arrival_times(dag, delays);
        let mut fsdu = vec![0.0; dag.num_edges()];
        for e in dag.edge_ids() {
            let (i, j) = dag.edge(e);
            fsdu[e.index()] = (at[j.index()] - at[i.index()] - delays[i.index()]).max(0.0);
        }
        let po_fsdu = dag
            .po_leaves()
            .iter()
            .map(|&v| (target - at[v.index()] - delays[v.index()]).max(0.0))
            .collect();
        BalancedConfig {
            fsdu,
            po_fsdu,
            target,
        }
    }

    fn alap(dag: &SizingDag, delays: &[f64], target: f64) -> Self {
        let report =
            TimingReport::with_target(dag, delays, target).expect("lengths validated by balance()");
        // Balanced arrivals: every non-source vertex is made to "arrive" at
        // its required time; sources keep arrival zero.
        let arr = |v: VertexId| -> f64 {
            if dag.in_edges(v).is_empty() {
                0.0
            } else {
                report.rt[v.index()]
            }
        };
        let mut fsdu = vec![0.0; dag.num_edges()];
        for e in dag.edge_ids() {
            let (i, j) = dag.edge(e);
            fsdu[e.index()] = (report.rt[j.index()] - arr(i) - delays[i.index()]).max(0.0);
        }
        let po_fsdu = dag
            .po_leaves()
            .iter()
            .map(|&v| (target - arr(v) - delays[v.index()]).max(0.0))
            .collect();
        BalancedConfig {
            fsdu,
            po_fsdu,
            target,
        }
    }

    /// Checks the balancing invariant: propagating arrivals through the
    /// FSDU-augmented graph, *every* edge is tight and every PO-leaf path
    /// completes exactly at the target.
    ///
    /// Returns the largest absolute violation found.
    pub fn verify(&self, dag: &SizingDag, delays: &[f64]) -> f64 {
        let mut arr = vec![0.0_f64; dag.num_vertices()];
        for &v in dag.topo_order() {
            let mut a: f64 = 0.0;
            for &e in dag.in_edges(v) {
                let (u, _) = dag.edge(e);
                a = a.max(arr[u.index()] + delays[u.index()] + self.fsdu[e.index()]);
            }
            arr[v.index()] = a;
        }
        let mut worst: f64 = 0.0;
        for e in dag.edge_ids() {
            let (i, j) = dag.edge(e);
            let gap = arr[j.index()] - (arr[i.index()] + delays[i.index()] + self.fsdu[e.index()]);
            worst = worst.max(gap.abs());
        }
        for (k, &v) in dag.po_leaves().iter().enumerate() {
            let finish = arr[v.index()] + delays[v.index()] + self.po_fsdu[k];
            worst = worst.max((finish - self.target).abs());
        }
        for &f in self.fsdu.iter().chain(self.po_fsdu.iter()) {
            worst = worst.max((-f).max(0.0));
        }
        worst
    }

    /// Applies an FSDU-displacement `r` (Eq. (9)): `r` gives one value per
    /// DAG vertex; the sink `O` is held at zero.
    ///
    /// The result may have negative FSDUs if `r` is not *legal*; call
    /// [`BalancedConfig::verify`] or check non-negativity to validate.
    ///
    /// # Panics
    ///
    /// Panics if `r` has the wrong length.
    pub fn displace(&self, dag: &SizingDag, r: &[f64]) -> BalancedConfig {
        assert_eq!(r.len(), dag.num_vertices(), "one r value per vertex");
        let mut fsdu = self.fsdu.clone();
        for e in dag.edge_ids() {
            let (i, j) = dag.edge(e);
            fsdu[e.index()] += r[j.index()] - r[i.index()];
        }
        let po_fsdu = self
            .po_fsdu
            .iter()
            .zip(dag.po_leaves().iter())
            .map(|(&f, &v)| f - r[v.index()])
            .collect();
        BalancedConfig {
            fsdu,
            po_fsdu,
            target: self.target,
        }
    }
}

/// The displacement `r` that maps balanced configuration `a` onto `b`
/// (Theorem 1), if the two configurations balance the same DAG/delays.
///
/// Computed as the difference of balanced arrival times.
pub fn displacement_between(
    dag: &SizingDag,
    delays: &[f64],
    a: &BalancedConfig,
    b: &BalancedConfig,
) -> Vec<f64> {
    let arr = |cfg: &BalancedConfig| -> Vec<f64> {
        let mut arr = vec![0.0_f64; dag.num_vertices()];
        for &v in dag.topo_order() {
            let mut t: f64 = 0.0;
            for &e in dag.in_edges(v) {
                let (u, _) = dag.edge(e);
                t = t.max(arr[u.index()] + delays[u.index()] + cfg.fsdu[e.index()]);
            }
            arr[v.index()] = t;
        }
        arr
    };
    let aa = arr(a);
    let bb = arr(b);
    aa.iter().zip(bb.iter()).map(|(x, y)| y - x).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mft_circuit::{NetlistBuilder, SizingDag};

    /// The Figure 3/4 circuit of the paper (see `timing.rs::figure3_triplets`).
    fn fig3() -> SizingDag {
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
        SizingDag::gate_mode(&b.finish().unwrap()).unwrap()
    }

    fn fig3_delays() -> Vec<f64> {
        vec![2.0, 2.0, 1.0, 4.0, 2.0, 1.0]
    }

    #[test]
    fn asap_balances_figure_4_style() {
        let dag = fig3();
        let delays = fig3_delays();
        // CP = 7; balance exactly at it.
        let cfg = BalancedConfig::balance(&dag, &delays, 7.0, BalanceStyle::Asap).unwrap();
        assert!(cfg.verify(&dag, &delays) < 1e-12);
        // The v2→v4 edge carries 1 unit (a Figure 4 "square box"): v2 is
        // done at 1, v4's other fanin arrives at 2.
        let e = dag
            .edge_ids()
            .find(|&e| dag.edge(e) == (VertexId::new(2), VertexId::new(4)))
            .unwrap();
        assert_eq!(cfg.fsdu[e.index()], 1.0);
        // The v4→v5 edge carries 2 units: v4 done at 4, v5 starts at 6.
        let e = dag
            .edge_ids()
            .find(|&e| dag.edge(e) == (VertexId::new(4), VertexId::new(5)))
            .unwrap();
        assert_eq!(cfg.fsdu[e.index()], 2.0);
        // The PO completes exactly at 7 — no dummy-edge FSDU.
        assert_eq!(cfg.po_fsdu[0], 0.0);
    }

    #[test]
    fn alap_is_also_balanced() {
        let dag = fig3();
        let delays = fig3_delays();
        let cfg = BalancedConfig::balance(&dag, &delays, 7.0, BalanceStyle::Alap).unwrap();
        assert!(cfg.verify(&dag, &delays) < 1e-12);
        assert!(cfg.fsdu.iter().all(|&f| f >= 0.0));
    }

    #[test]
    fn balancing_to_looser_target() {
        let dag = fig3();
        let delays = fig3_delays();
        let cfg = BalancedConfig::balance(&dag, &delays, 10.0, BalanceStyle::Asap).unwrap();
        assert!(cfg.verify(&dag, &delays) < 1e-12);
        // All extra slack sits on the PO dummy edge in ASAP style.
        assert_eq!(cfg.po_fsdu[0], 3.0);
    }

    #[test]
    fn infeasible_target_is_rejected() {
        let dag = fig3();
        let delays = fig3_delays();
        assert!(matches!(
            BalancedConfig::balance(&dag, &delays, 6.0, BalanceStyle::Asap),
            Err(StaError::TargetInfeasible { .. })
        ));
    }

    /// Theorem 1: ASAP and ALAP configurations are FSDU-displacements of
    /// each other, with the displacement recovered from balanced arrivals.
    #[test]
    fn theorem1_configs_are_displacements() {
        let dag = fig3();
        let delays = fig3_delays();
        let a = BalancedConfig::balance(&dag, &delays, 9.0, BalanceStyle::Asap).unwrap();
        let b = BalancedConfig::balance(&dag, &delays, 9.0, BalanceStyle::Alap).unwrap();
        let r = displacement_between(&dag, &delays, &a, &b);
        let moved = a.displace(&dag, &r);
        for (x, y) in moved.fsdu.iter().zip(b.fsdu.iter()) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
        for (x, y) in moved.po_fsdu.iter().zip(b.po_fsdu.iter()) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    /// Theorem 2 / Corollary 1: a displacement with r = 0 at sources and
    /// (implicitly) at O leaves every source→O path length unchanged, so
    /// the configuration stays balanced.
    #[test]
    fn theorem2_legal_displacement_preserves_balance() {
        let dag = fig3();
        let delays = fig3_delays();
        let cfg = BalancedConfig::balance(&dag, &delays, 7.0, BalanceStyle::Asap).unwrap();
        // Shift vertex v4 later by r(v4) = +1: the unit of slack on the
        // v4→v5 edge moves onto v4's fanin edges. All FSDUs stay >= 0, so
        // the displacement is legal and balance is preserved (Theorem 2).
        let mut r = vec![0.0; dag.num_vertices()];
        r[4] = 1.0;
        let moved = cfg.displace(&dag, &r);
        assert!(moved.fsdu.iter().all(|&f| f >= -1e-12));
        assert!(moved.verify(&dag, &delays) < 1e-9);
        assert_eq!(moved.target, cfg.target);
        let e24 = dag
            .edge_ids()
            .find(|&e| dag.edge(e) == (VertexId::new(2), VertexId::new(4)))
            .unwrap();
        let e45 = dag
            .edge_ids()
            .find(|&e| dag.edge(e) == (VertexId::new(4), VertexId::new(5)))
            .unwrap();
        assert_eq!(moved.fsdu[e24.index()], 2.0);
        assert_eq!(moved.fsdu[e45.index()], 1.0);
    }

    #[test]
    #[should_panic]
    fn displacement_length_is_checked() {
        let dag = fig3();
        let delays = fig3_delays();
        let cfg = BalancedConfig::balance(&dag, &delays, 7.0, BalanceStyle::Asap).unwrap();
        let _ = cfg.displace(&dag, &[0.0]);
    }

    use mft_circuit::VertexId;

    #[test]
    fn total_fsdu_measures_slack() {
        let dag = fig3();
        let delays = fig3_delays();
        let tight = BalancedConfig::balance(&dag, &delays, 7.0, BalanceStyle::Asap).unwrap();
        let loose = BalancedConfig::balance(&dag, &delays, 12.0, BalanceStyle::Asap).unwrap();
        let total = |c: &BalancedConfig| c.fsdu.iter().sum::<f64>() + c.po_fsdu.iter().sum::<f64>();
        assert!(total(&loose) > total(&tight));
    }

    #[test]
    fn styles_differ_but_agree_on_tight_paths() {
        let dag = fig3();
        let delays = fig3_delays();
        let a = BalancedConfig::balance(&dag, &delays, 7.0, BalanceStyle::Asap).unwrap();
        let b = BalancedConfig::balance(&dag, &delays, 7.0, BalanceStyle::Alap).unwrap();
        // On the critical path every FSDU is zero in both styles.
        for e in dag.edge_ids() {
            let (i, j) = dag.edge(e);
            if (i.index(), j.index()) == (0, 3) || (i.index(), j.index()) == (3, 5) {
                assert_eq!(a.fsdu[e.index()], 0.0);
                assert_eq!(b.fsdu[e.index()], 0.0);
            }
        }
        // But they are different configurations overall.
        assert_ne!(a.fsdu, b.fsdu);
    }
}
