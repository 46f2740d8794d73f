//! Area–delay trade-off curves (the paper's Figure 7).
//!
//! For a sequence of delay specifications `T/D_min`, a
//! [`SizingSession::sweep`](crate::SizingSession::sweep) sizes the
//! circuit with both TILOS and MINFLOTRANSIT and records area ratios
//! normalized to the minimum-sized circuit — the exact quantities
//! plotted in Figure 7. This module holds the point type and its text
//! and CSV renderings.

use crate::dphase::DPhaseStats;
use crate::optimizer::WPhaseStats;
use mft_sta::TimingStats;
use mft_tilos::SensitivityStats;
use std::fmt::Write;

/// One point of an area–delay trade-off curve.
#[derive(Debug, Clone, PartialEq)]
pub struct CurvePoint {
    /// The delay specification as a fraction of `D_min`.
    pub spec: f64,
    /// The absolute delay target.
    pub target: f64,
    /// TILOS area normalized to the minimum-sized circuit's area.
    pub tilos_area_ratio: f64,
    /// MINFLOTRANSIT area normalized to the minimum-sized circuit's area.
    pub mft_area_ratio: f64,
    /// Total power (leakage + activity-weighted switching) of the
    /// MINFLOTRANSIT sizing under the problem's corner.
    pub mft_power: f64,
    /// Area saving of MINFLOTRANSIT over TILOS, percent.
    pub saving_percent: f64,
    /// Wall-clock seconds of the TILOS run.
    pub tilos_seconds: f64,
    /// Wall-clock seconds of the MINFLOTRANSIT refinement (excluding its
    /// internal TILOS seed), matching the paper's "extra time over TILOS".
    pub mft_extra_seconds: f64,
    /// D/W iterations used by MINFLOTRANSIT.
    pub iterations: usize,
    /// This point's D-phase solver statistics (cold/warm solve counts,
    /// pivots, flow time) — speedups are attributable without a
    /// profiler.
    pub dphase: DPhaseStats,
    /// This point's W-phase SMP statistics (solve count and total
    /// fixpoint updates).
    pub wphase: WPhaseStats,
    /// This point's timing-engine work (TILOS seed + optimizer
    /// convergence checks): full passes, incremental waves, and
    /// arrival-time evaluations. Like the wall-clock fields, this is
    /// attribution of *work done by this run*, not part of the sizing
    /// result: it depends on worker partitioning and sweep order (a
    /// resumed trajectory charges shared prefix work to the first
    /// point that needed it).
    pub timing: TimingStats,
    /// This point's TILOS sensitivity-cache counters (hits, misses,
    /// invalidations) — all zeros when the cache is off or the seed
    /// was replayed from the bump log. Attribution of work, like
    /// [`CurvePoint::timing`].
    pub sensitivity: SensitivityStats,
}

/// The outcome of one sweep point: a point, or the spec that was
/// unreachable for TILOS (and hence for the paper's flow, which seeds
/// from TILOS).
#[derive(Debug, Clone, PartialEq)]
// A point's stats blocks dwarf the unreachable variant; outcomes live
// in short per-sweep Vecs, so the padding is irrelevant and boxing
// would tax every consumer instead.
#[allow(clippy::large_enum_variant)]
pub enum SweepOutcome {
    /// Both sizers succeeded.
    Point(CurvePoint),
    /// TILOS could not reach the specification; carries the best delay it
    /// achieved (as a fraction of `D_min`).
    Unreachable {
        /// The requested specification.
        spec: f64,
        /// Best achieved delay / `D_min`.
        best_ratio: f64,
    },
}

/// The integer columns of both sweep sinks, in order: table header,
/// table width, CSV key, and the value read from a point. `d-scan`
/// counts the reduced costs the flow pricing computed.
#[allow(clippy::type_complexity)]
#[rustfmt::skip]
const COUNTER_COLUMNS: [(&str, usize, &str, fn(&CurvePoint) -> usize); 14] = [
    ("iters",    6, "iterations",             |p| p.iterations),
    ("d-cold",   7, "dphase_cold_solves",     |p| p.dphase.flow.cold_solves),
    ("d-warm",   7, "dphase_warm_solves",     |p| p.dphase.flow.warm_solves),
    ("d-piv",    8, "dphase_pivots",          |p| p.dphase.flow.pivots),
    ("d-scan",   9, "dphase_scanned_arcs",    |p| p.dphase.flow.arcs_scanned),
    ("smp-upd",  9, "smp_updates",            |p| p.wphase.updates),
    ("sta-full", 8, "sta_full_passes",        |p| p.timing.full_passes),
    ("sta-inc",  8, "sta_incremental_passes", |p| p.timing.incremental_passes),
    ("sta-vtx",  9, "sta_vertices_touched",   |p| p.timing.vertices_touched),
    ("sens-hit", 8, "sens_hits",              |p| p.sensitivity.hits),
    ("sens-mis", 8, "sens_misses",            |p| p.sensitivity.misses),
    ("sens-inv", 8, "sens_invalidations",     |p| p.sensitivity.invalidations),
    ("reb-sp",   7, "sta_rebase_sparse",      |p| p.timing.rebase_sparse),
    ("reb-fl",   7, "sta_rebase_full",        |p| p.timing.rebase_full),
];

/// Renders sweep outcomes as an aligned text table (one row per spec),
/// including the per-point solver-reuse statistics (cold/warm D-phase
/// solves and SMP updates).
pub fn format_curve(name: &str, outcomes: &[SweepOutcome]) -> String {
    let mut s = format!(
        "# {name}: area ratios vs delay spec (normalized to minimum-sized circuit)\n\
         {:>8} {:>12} {:>12} {:>10} {:>9} {:>10} {:>10}",
        "T/Dmin", "TILOS A/A0", "MFT A/A0", "MFT P", "save %", "TILOS s", "MFT+ s"
    );
    for (header, width, _, _) in COUNTER_COLUMNS {
        let _ = write!(s, " {header:>width$}");
    }
    s.push('\n');
    for o in outcomes {
        match o {
            SweepOutcome::Point(p) => {
                let _ = write!(
                    s,
                    "{:>8.3} {:>12.4} {:>12.4} {:>10.3} {:>9.2} {:>10.3} {:>10.3}",
                    p.spec,
                    p.tilos_area_ratio,
                    p.mft_area_ratio,
                    p.mft_power,
                    p.saving_percent,
                    p.tilos_seconds,
                    p.mft_extra_seconds
                );
                for (_, width, _, value) in COUNTER_COLUMNS {
                    let _ = write!(s, " {:>width$}", value(p));
                }
                s.push('\n');
            }
            SweepOutcome::Unreachable { spec, best_ratio } => {
                let _ = writeln!(
                    s,
                    "{spec:>8.3}    unreachable by TILOS (best {best_ratio:.3}·Dmin)"
                );
            }
        }
    }
    s
}

/// Renders sweep outcomes as CSV.
///
/// Every spec produces a row — including [`SweepOutcome::Unreachable`]
/// ones, which carry `status=unreachable`, empty ratio fields and the
/// best achieved `delay/D_min` in `best_delay_ratio` — so downstream
/// plots always see the full spec list.
pub fn curve_to_csv(outcomes: &[SweepOutcome]) -> String {
    let mut s = String::from(
        "spec,status,tilos_area_ratio,mft_area_ratio,mft_power,saving_percent,tilos_seconds,\
         mft_extra_seconds",
    );
    for (_, _, key, _) in COUNTER_COLUMNS {
        let _ = write!(s, ",{key}");
    }
    s.push_str(",best_delay_ratio\n");
    for o in outcomes {
        match o {
            SweepOutcome::Point(p) => {
                let _ = write!(
                    s,
                    "{},ok,{},{},{},{},{},{}",
                    p.spec,
                    p.tilos_area_ratio,
                    p.mft_area_ratio,
                    p.mft_power,
                    p.saving_percent,
                    p.tilos_seconds,
                    p.mft_extra_seconds
                );
                for (_, _, _, value) in COUNTER_COLUMNS {
                    let _ = write!(s, ",{}", value(p));
                }
                s.push_str(",\n");
            }
            SweepOutcome::Unreachable { spec, best_ratio } => {
                // Empty fields for the six float columns and every
                // counter column.
                let empty = ",".repeat(6 + COUNTER_COLUMNS.len());
                let _ = writeln!(s, "{spec},unreachable,{empty}{best_ratio}");
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SessionConfig, SizingProblem};
    use mft_circuit::{parse_bench, SizingMode, C17_BENCH};
    use mft_delay::Technology;

    fn c17_sweep(specs: &[f64]) -> Vec<SweepOutcome> {
        let netlist = parse_bench("c17", C17_BENCH).unwrap();
        SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate)
            .unwrap()
            .into_session(SessionConfig::warm())
            .sweep(specs)
            .unwrap()
    }

    #[test]
    fn c17_curve_shapes() {
        let outcomes = c17_sweep(&[0.9, 0.8, 0.7]);
        assert_eq!(outcomes.len(), 3);
        let mut last_tilos = 0.0;
        for o in &outcomes {
            let SweepOutcome::Point(p) = o else {
                panic!("c17 specs should be reachable");
            };
            // Area ratios at least 1 and monotone in the spec.
            assert!(p.tilos_area_ratio >= 1.0 - 1e-9);
            assert!(p.mft_area_ratio <= p.tilos_area_ratio + 1e-9);
            assert!(p.tilos_area_ratio >= last_tilos - 1e-9);
            last_tilos = p.tilos_area_ratio;
        }
        let table = format_curve("c17", &outcomes);
        assert!(table.contains("T/Dmin"));
        assert!(table.contains("sta-inc"));
        let csv = curve_to_csv(&outcomes);
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.starts_with("spec,status,"));
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .contains("sta_incremental_passes"));
        // Every point did timing work and reported it.
        for o in &outcomes {
            let SweepOutcome::Point(p) = o else {
                unreachable!()
            };
            assert!(p.timing.vertices_touched > 0);
        }
    }

    #[test]
    fn unreachable_specs_are_reported() {
        let outcomes = c17_sweep(&[0.05]);
        assert!(matches!(outcomes[0], SweepOutcome::Unreachable { .. }));
        let table = format_curve("c17", &outcomes);
        assert!(table.contains("unreachable"));
    }

    /// CSV output keeps one row per spec, flagging unreachable ones
    /// with a status column instead of silently dropping them.
    #[test]
    fn csv_emits_unreachable_rows() {
        let outcomes = c17_sweep(&[0.8, 0.05]);
        let csv = curve_to_csv(&outcomes);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + one row per spec:\n{csv}");
        assert!(lines[0].starts_with("spec,status,"));
        assert!(lines[1].starts_with("0.8,ok,"));
        assert!(lines[2].starts_with("0.05,unreachable,,"));
        // The unreachable row still reports the best achieved ratio in
        // the final column.
        let best: f64 = lines[2].rsplit(',').next().unwrap().parse().unwrap();
        assert!(
            best > 0.05 && best < 1.0,
            "best achieved delay ratio recorded: {best}"
        );
        // Each row has the same number of fields as the header.
        let fields = lines[0].split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), fields, "row {line}");
        }
    }
}
