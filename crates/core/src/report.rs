//! Human-readable sizing reports: per-kind area breakdown, size and slack
//! distributions, the near-critical path population, and (when built
//! from a full [`SizingSolution`]) the persistent D-phase solver's
//! reuse statistics.

use crate::dphase::DPhaseStats;
use crate::optimizer::SizingSolution;
use crate::pipeline::SizingProblem;
use mft_circuit::{GateId, VertexOwner};
use mft_delay::DelayModel;
use mft_sta::{near_critical_count, TimingReport, TimingStats};
use mft_tech::PowerBreakdown;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A digest of a sizing solution against its problem.
#[derive(Debug, Clone)]
pub struct SizingReport {
    /// Total weighted area.
    pub area: f64,
    /// Area normalized to the minimum-sized circuit.
    pub area_ratio: f64,
    /// Leakage/switching/total power under the problem's corner.
    pub power: PowerBreakdown,
    /// Critical-path delay.
    pub critical_path: f64,
    /// Smallest vertex slack against the target used for the report.
    pub worst_slack: f64,
    /// Histogram of sizes: `(upper bound, count)` buckets.
    pub size_histogram: Vec<(f64, usize)>,
    /// Area by gate kind name.
    pub area_by_kind: BTreeMap<String, f64>,
    /// Number of paths within 5% of the critical path (capped at 64).
    pub near_critical_paths: usize,
    /// Largest element size.
    pub max_size: f64,
    /// Mean element size.
    pub mean_size: f64,
    /// D-phase solver reuse statistics, when the report was built from a
    /// full [`SizingSolution`] (see [`SizingReport::for_solution`]).
    pub solver: Option<DPhaseStats>,
    /// Timing-engine work counters (full passes, incremental waves,
    /// arrival evaluations), when the report was built from a full
    /// [`SizingSolution`].
    pub timing: Option<TimingStats>,
}

impl SizingReport {
    /// Builds a report for `sizes` against `problem`, computing slack
    /// against `target`.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` has the wrong length.
    pub fn build(problem: &SizingProblem, sizes: &[f64], target: f64) -> Self {
        let dag = problem.dag();
        let model = problem.model();
        assert_eq!(sizes.len(), dag.num_vertices(), "one size per vertex");
        let delays = model.delays(sizes);
        let timing =
            TimingReport::with_target(dag, &delays, target).expect("shapes match by construction");
        let area = model.area(sizes);
        let area_ratio = area / problem.min_area();

        let (min_size, max_bound) = model.size_bounds();
        let buckets = [1.5, 2.0, 3.0, 4.0, 8.0, 16.0, 32.0, f64::INFINITY];
        let mut size_histogram: Vec<(f64, usize)> = buckets
            .iter()
            .map(|&b| (b.min(max_bound), 0usize))
            .collect();
        for &x in sizes {
            let rel = x / min_size;
            for (bound, count) in size_histogram.iter_mut() {
                if rel <= *bound || *bound >= max_bound {
                    *count += 1;
                    break;
                }
            }
        }

        let mut area_by_kind: BTreeMap<String, f64> = BTreeMap::new();
        for v in dag.vertex_ids() {
            let name = match dag.owner(v) {
                VertexOwner::Gate(g) | VertexOwner::Device { gate: g, .. } => kind_name(problem, g),
                VertexOwner::Wire(_) => "WIRE".to_owned(),
            };
            *area_by_kind.entry(name).or_insert(0.0) += model.area_weight(v) * sizes[v.index()];
        }

        let near_critical_paths =
            near_critical_count(dag, &delays, 0.95, 64).expect("shapes match");
        let max_size = sizes.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean_size = sizes.iter().sum::<f64>() / sizes.len() as f64;
        SizingReport {
            area,
            area_ratio,
            power: problem.power_breakdown_of(sizes),
            critical_path: timing.critical_path,
            worst_slack: timing.worst_slack(),
            size_histogram,
            area_by_kind,
            near_critical_paths,
            max_size,
            mean_size,
            solver: None,
            timing: None,
        }
    }

    /// Builds a report for a full [`SizingSolution`], additionally
    /// capturing the persistent D-phase solver's reuse statistics and
    /// the timing engine's work counters.
    pub fn for_solution(problem: &SizingProblem, solution: &SizingSolution, target: f64) -> Self {
        let mut report = Self::build(problem, &solution.sizes, target);
        if solution.dphase_stats.solves() > 0 {
            report.solver = Some(solution.dphase_stats);
        }
        if solution.timing_stats != TimingStats::default() {
            report.timing = Some(solution.timing_stats);
        }
        report
    }

    /// Renders the report as aligned text.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "area {:.1} ({:.3}× minimum) | critical path {:.1} ps | worst slack {:.2} ps",
            self.area, self.area_ratio, self.critical_path, self.worst_slack
        );
        let _ = writeln!(
            s,
            "power {:.2} (leakage {:.2} + switching {:.2})",
            self.power.total, self.power.leakage, self.power.switching
        );
        let _ = writeln!(
            s,
            "sizes: mean {:.2}×, max {:.2}×; near-critical paths (≥95% CP): {}{}",
            self.mean_size,
            self.max_size,
            self.near_critical_paths,
            if self.near_critical_paths >= 64 {
                "+"
            } else {
                ""
            }
        );
        let _ = write!(s, "size histogram (×min):");
        let mut lo = 1.0;
        for &(bound, count) in &self.size_histogram {
            if count > 0 {
                if bound.is_finite() {
                    let _ = write!(s, "  ({lo:.1}..{bound:.1}]: {count}");
                } else {
                    let _ = write!(s, "  >{lo:.1}: {count}");
                }
            }
            lo = bound;
        }
        let _ = writeln!(s);
        let _ = write!(s, "area by kind:");
        for (kind, area) in &self.area_by_kind {
            let _ = write!(s, "  {kind} {:.1} ({:.0}%)", area, 100.0 * area / self.area);
        }
        let _ = writeln!(s);
        if let Some(solver) = &self.solver {
            let _ = writeln!(
                s,
                "d-phase [{}]: {} cold + {} warm solves ({} repairs, {} fallbacks), {} pivots, {} arcs priced, flow time {:?}",
                solver.backend,
                solver.flow.cold_solves,
                solver.flow.warm_solves,
                solver.flow.warm_repairs,
                solver.flow.warm_fallbacks,
                solver.flow.pivots,
                solver.flow.arcs_scanned,
                solver.total_time
            );
        }
        if let Some(timing) = &self.timing {
            let _ = writeln!(s, "timing engine: {timing}");
        }
        s
    }
}

fn kind_name(problem: &SizingProblem, g: GateId) -> String {
    problem.netlist().gate(g).kind().name()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionConfig;
    use mft_circuit::{parse_bench, SizingMode, C17_BENCH};
    use mft_delay::Technology;

    #[test]
    fn report_on_c17() {
        let netlist = parse_bench("c17", C17_BENCH).unwrap();
        let problem =
            SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap();
        let target = 0.7 * problem.dmin();
        let sol = problem
            .session(SessionConfig::warm())
            .size_to(target)
            .unwrap();
        let report = SizingReport::for_solution(&problem, &sol, target);
        assert!((report.area - sol.area).abs() < 1e-9);
        assert!(report.area_ratio >= 1.0);
        assert!(report.worst_slack >= -1e-6);
        assert!(report.near_critical_paths >= 1);
        let total: usize = report.size_histogram.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, problem.dag().num_vertices());
        // The optimizer ran one D-phase per iteration: the first cold,
        // every later one warm-started from the basis before it.
        let solver = report.solver.expect("solver stats captured");
        assert_eq!(solver.backend, "network-simplex");
        assert!(sol.iterations >= 1);
        assert_eq!(solver.flow.cold_solves, 1);
        assert_eq!(solver.flow.warm_solves, sol.iterations - 1);
        let text = report.to_text();
        assert!(text.contains("area"));
        assert!(text.contains("NAND2"));
        assert!(text.contains("d-phase [network-simplex]"));
        // The incremental timing engine's counters are surfaced: the
        // TILOS seed plus every convergence check ran through it.
        let timing = report.timing.expect("timing stats captured");
        assert!(timing.incremental_passes > 0);
        assert!(timing.vertices_touched > 0);
        assert!(text.contains("timing engine:"));
        // Area by kind sums to the total.
        let sum: f64 = report.area_by_kind.values().sum();
        assert!((sum - report.area).abs() < 1e-9);
    }

    #[test]
    fn minimum_sized_report() {
        let netlist = parse_bench("c17", C17_BENCH).unwrap();
        let problem =
            SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap();
        let sizes = vec![1.0; problem.dag().num_vertices()];
        let report = SizingReport::build(&problem, &sizes, problem.dmin());
        assert!((report.area_ratio - 1.0).abs() < 1e-12);
        assert_eq!(report.max_size, 1.0);
        // Everything in the first bucket.
        assert_eq!(report.size_histogram[0].1, sizes.len());
    }
}
