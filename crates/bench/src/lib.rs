//! Experiment harnesses reproducing every table and figure of the
//! MINFLOTRANSIT paper's evaluation (§3).
//!
//! * [`run_table1`] — Table 1: area savings of MINFLOTRANSIT over TILOS
//!   and CPU times across the benchmark suite at the paper's per-circuit
//!   delay specifications;
//! * [`run_fig7`] — Figure 7: area–delay trade-off curves (TILOS vs
//!   MINFLOTRANSIT) for the c432-like and c6288-like circuits;
//! * [`run_scaling`] — the abstract's run-time claims: near-linear
//!   D-phase/W-phase behaviour and total time within a small multiple of
//!   TILOS.
//!
//! Binaries `table1`, `fig7` and `scaling` print aligned text tables and
//! write CSVs under `target/experiments/`.
//!
//! [`legacy_json`] keeps the line protocol's pre-codec JSON reader and
//! `format!` number writer, the oracle of the reader fuzz test and the
//! baseline of the `wire_codec` bench. [`smoke`] and [`write_report`]
//! are the benches' shared run-size switch and JSON report writer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod legacy_json;

use mft_circuit::SizingMode;
use mft_core::{
    DPhaseInputs, DPhaseOptions, DPhaseSolver, MinflotransitConfig, SessionConfig, SizingProblem,
    SweepOutcome,
};
use mft_delay::{DelayModel, Technology};
use mft_gen::{random_circuit, Benchmark, RandomCircuitConfig};
use mft_sta::{BalanceStyle, BalancedConfig};
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

/// Whether the benches run at their small CI size: `MFT_BENCH_SMOKE`
/// is set to anything but `0`.
pub fn smoke() -> bool {
    std::env::var_os("MFT_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// Writes a bench's JSON report to `file` at the repository root on a
/// full run. A smoke run prints the JSON instead, so it never replaces
/// the checked-in full-run numbers.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_report(file: &str, json: &str) {
    if smoke() {
        print!("{json}");
        println!("smoke run: {file} not written");
        return;
    }
    let out = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    fs::write(&out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");
}

/// One row of the Table 1 reproduction.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name (`c432-like`, …).
    pub name: String,
    /// Gate count of the generated circuit.
    pub gates: usize,
    /// Gate count of the original circuit in the paper.
    pub paper_gates: usize,
    /// Delay specification `T / D_min`.
    pub spec: f64,
    /// Measured area saving of MINFLOTRANSIT over TILOS (%).
    pub saving_percent: f64,
    /// The paper's reported saving (%).
    pub paper_saving_percent: f64,
    /// TILOS wall-clock seconds.
    pub tilos_seconds: f64,
    /// Total MINFLOTRANSIT seconds (TILOS seed + refinement), matching
    /// the paper's `CPU (OURS)` column.
    pub ours_seconds: f64,
    /// D/W iterations used.
    pub iterations: usize,
    /// Area of the TILOS solution relative to the minimum-sized circuit.
    pub tilos_area_ratio: f64,
    /// Area of the MFT solution relative to the minimum-sized circuit.
    pub mft_area_ratio: f64,
    /// Whether both sizings met the target (should always hold).
    pub timing_met: bool,
    /// Present when the spec was unreachable for TILOS; carries the best
    /// achieved `delay/D_min` (the row is then reported at that spec).
    pub adjusted_spec: Option<f64>,
}

/// The Table 1 reproduction report.
#[derive(Debug, Clone, Default)]
pub struct Table1Report {
    /// One row per benchmark.
    pub rows: Vec<Table1Row>,
}

/// Runs one benchmark at a given spec, returning a Table 1 row.
///
/// If the paper's spec is unreachable for our TILOS implementation (the
/// generated circuit is not the original netlist, so the feasible range
/// can differ), the spec is relaxed in steps of 0.05 until TILOS
/// succeeds, and the row records the adjustment.
///
/// # Errors
///
/// Returns a human-readable description of any pipeline failure.
pub fn run_benchmark(bench: Benchmark, config: &MinflotransitConfig) -> Result<Table1Row, String> {
    let netlist = bench.generate().map_err(|e| e.to_string())?;
    let tech = Technology::cmos_130nm();
    let problem =
        SizingProblem::prepare(&netlist, &tech, SizingMode::Gate).map_err(|e| e.to_string())?;
    let dmin = problem.dmin();
    let min_area = problem.min_area();

    let mut spec = bench.paper_spec();
    let mut adjusted = None;
    let mut session = problem.session(SessionConfig::cold());
    let (tilos, tilos_seconds) = loop {
        let target = spec * dmin;
        let t0 = Instant::now();
        match session.tilos_to(target) {
            Ok(t) => break (t, t0.elapsed().as_secs_f64()),
            Err(_) if spec < 0.95 => {
                spec += 0.05;
                adjusted = Some(spec);
            }
            Err(e) => {
                return Err(format!(
                    "{}: TILOS failed even at 0.95·Dmin: {e}",
                    bench.name()
                ))
            }
        }
    };
    let target = spec * dmin;
    let t1 = Instant::now();
    let mft = mft_core::Minflotransit::new(config.clone())
        .optimize_from(problem.dag(), problem.model(), target, tilos.sizes.clone())
        .map_err(|e| format!("{}: {e}", bench.name()))?;
    let mft_seconds = t1.elapsed().as_secs_f64();

    let timing_met = tilos.achieved_delay <= target * (1.0 + 1e-6)
        && mft.achieved_delay <= target * (1.0 + 1e-6);
    Ok(Table1Row {
        name: bench.name().to_owned(),
        gates: netlist.num_gates(),
        paper_gates: bench.paper_gates(),
        spec,
        saving_percent: 100.0 * (tilos.area - mft.area) / tilos.area,
        paper_saving_percent: bench.paper_saving_percent(),
        tilos_seconds,
        ours_seconds: tilos_seconds + mft_seconds,
        iterations: mft.iterations,
        tilos_area_ratio: tilos.area / min_area,
        mft_area_ratio: mft.area / min_area,
        timing_met,
        adjusted_spec: adjusted,
    })
}

/// Runs the Table 1 suite. With `quick`, only the five smallest circuits
/// are run and the optimizer iteration cap is reduced — useful for CI.
///
/// # Errors
///
/// Returns the first failing benchmark's error message.
pub fn run_table1(quick: bool) -> Result<Table1Report, String> {
    let mut config = MinflotransitConfig::default();
    if quick {
        config.max_iterations = 30;
    }
    let benches: Vec<Benchmark> = if quick {
        vec![
            Benchmark::Adder32,
            Benchmark::C432,
            Benchmark::C499,
            Benchmark::C880,
            Benchmark::C1355,
        ]
    } else {
        Benchmark::all().to_vec()
    };
    let mut report = Table1Report::default();
    for bench in benches {
        eprintln!("  running {} ...", bench.name());
        report.rows.push(run_benchmark(bench, &config)?);
    }
    Ok(report)
}

impl Table1Report {
    /// Renders the report as an aligned text table mirroring the paper's
    /// Table 1 (with measured columns next to the paper's numbers).
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Table 1 — area savings of MINFLOTRANSIT over TILOS and CPU times"
        );
        let _ = writeln!(
            s,
            "{:<12} {:>6} {:>7} {:>6} {:>8} {:>8} {:>9} {:>9} {:>6} {:>7} {:>7}",
            "circuit",
            "gates",
            "paper#",
            "spec",
            "save%",
            "paper%",
            "TILOS s",
            "OURS s",
            "iters",
            "T A/A0",
            "M A/A0"
        );
        for r in &self.rows {
            let spec = match r.adjusted_spec {
                Some(_) => format!("{:.2}*", r.spec),
                None => format!("{:.2}", r.spec),
            };
            let _ = writeln!(
                s,
                "{:<12} {:>6} {:>7} {:>6} {:>8.2} {:>8.1} {:>9.2} {:>9.2} {:>6} {:>7.3} {:>7.3}",
                r.name,
                r.gates,
                r.paper_gates,
                spec,
                r.saving_percent,
                r.paper_saving_percent,
                r.tilos_seconds,
                r.ours_seconds,
                r.iterations,
                r.tilos_area_ratio,
                r.mft_area_ratio
            );
        }
        let _ = writeln!(
            s,
            "(*: spec relaxed to the tightest TILOS-reachable point on the generated circuit)"
        );
        s
    }

    /// Renders the report as CSV.
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "circuit,gates,paper_gates,spec,saving_percent,paper_saving_percent,\
             tilos_seconds,ours_seconds,iterations,tilos_area_ratio,mft_area_ratio,timing_met\n",
        );
        for r in &self.rows {
            let _ = writeln!(
                s,
                "{},{},{},{},{},{},{},{},{},{},{},{}",
                r.name,
                r.gates,
                r.paper_gates,
                r.spec,
                r.saving_percent,
                r.paper_saving_percent,
                r.tilos_seconds,
                r.ours_seconds,
                r.iterations,
                r.tilos_area_ratio,
                r.mft_area_ratio,
                r.timing_met
            );
        }
        s
    }
}

/// The Figure 7 reproduction: sweep outcomes per circuit.
#[derive(Debug, Clone)]
pub struct Fig7Report {
    /// `(circuit name, sweep outcomes)` pairs.
    pub curves: Vec<(String, Vec<SweepOutcome>)>,
}

/// Runs the Figure 7 sweeps. The paper plots c432 and c6288; `quick`
/// swaps c6288-like for the smaller c880-like and trims the sweep.
///
/// # Errors
///
/// Returns the first pipeline failure as a message.
pub fn run_fig7(quick: bool) -> Result<Fig7Report, String> {
    let specs: Vec<f64> = if quick {
        vec![0.9, 0.75, 0.6, 0.5]
    } else {
        vec![1.0, 0.9, 0.8, 0.7, 0.6, 0.55, 0.5, 0.45, 0.4, 0.35]
    };
    let benches = if quick {
        vec![Benchmark::C432, Benchmark::C880]
    } else {
        vec![Benchmark::C432, Benchmark::C6288]
    };
    let mut config = MinflotransitConfig::default();
    if quick {
        config.max_iterations = 30;
    }
    let tech = Technology::cmos_130nm();
    let mut curves = Vec::new();
    for bench in benches {
        eprintln!("  sweeping {} ...", bench.name());
        let netlist = bench.generate().map_err(|e| e.to_string())?;
        let problem =
            SizingProblem::prepare(&netlist, &tech, SizingMode::Gate).map_err(|e| e.to_string())?;
        let outcomes = problem
            .into_session(SessionConfig::cold_with(config.clone()))
            .sweep(&specs)
            .map_err(|e| e.to_string())?;
        curves.push((bench.name().to_owned(), outcomes));
    }
    Ok(Fig7Report { curves })
}

/// One scaling measurement point.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Workload label.
    pub name: String,
    /// DAG vertex count (`|V|`).
    pub vertices: usize,
    /// DAG edge count (`|E|`).
    pub edges: usize,
    /// Seconds for one D-phase solve.
    pub dphase_seconds: f64,
    /// Seconds for one W-phase solve.
    pub wphase_seconds: f64,
    /// Seconds for the full TILOS run at 0.6·D_min.
    pub tilos_seconds: f64,
    /// Seconds for the full MINFLOTRANSIT refinement at 0.6·D_min.
    pub mft_seconds: f64,
}

/// Runs the run-time scaling study over random circuits of growing size.
///
/// # Errors
///
/// Returns the first pipeline failure as a message.
pub fn run_scaling(sizes: &[usize]) -> Result<Vec<ScalingPoint>, String> {
    let tech = Technology::cmos_130nm();
    let mut points = Vec::new();
    for &gates in sizes {
        eprintln!("  scaling point: {gates} gates ...");
        let cfg = RandomCircuitConfig {
            gates,
            inputs: 16 + gates / 20,
            level_width: (gates as f64).sqrt().ceil() as usize,
            locality: 3,
        };
        let netlist = random_circuit(42, &cfg).map_err(|e| e.to_string())?;
        let problem =
            SizingProblem::prepare(&netlist, &tech, SizingMode::Gate).map_err(|e| e.to_string())?;
        let dag = problem.dag();
        let model = problem.model();
        let dmin = problem.dmin();
        let target = 0.6 * dmin;
        let mut session = problem.session(SessionConfig::cold());
        let t0 = Instant::now();
        let tilos = session.tilos_to(target).map_err(|e| e.to_string())?;
        let tilos_seconds = t0.elapsed().as_secs_f64();

        // One isolated D-phase and W-phase at the TILOS point.
        let delays = model.delays(&tilos.sizes);
        let excess: Vec<f64> = (0..dag.num_vertices())
            .map(|i| delays[i] - model.intrinsic(mft_circuit::VertexId::new(i)))
            .collect();
        let sens = model.area_sensitivities(&tilos.sizes);
        let balanced = BalancedConfig::balance(dag, &delays, target, BalanceStyle::Asap)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let dphase = DPhaseSolver::new(dag, DPhaseOptions::default())
            .and_then(|mut solver| {
                solver.solve(&DPhaseInputs {
                    sensitivities: &sens,
                    excess: &excess,
                    config: &balanced,
                    trust_region: 0.25,
                })
            })
            .map_err(|e| e.to_string())?;
        let dphase_seconds = t1.elapsed().as_secs_f64();

        let budgets: Vec<f64> = (0..dag.num_vertices())
            .map(|i| delays[i] + dphase.delta[i])
            .collect();
        let dependents: Vec<Vec<usize>> = (0..dag.num_vertices())
            .map(|i| {
                model
                    .dependents(mft_circuit::VertexId::new(i))
                    .iter()
                    .map(|v| v.index())
                    .collect()
            })
            .collect();
        let (lo, hi) = model.size_bounds();
        let smp = mft_smp::SmpSolver::new(
            vec![lo; dag.num_vertices()],
            vec![hi; dag.num_vertices()],
            dependents,
        );
        let t2 = Instant::now();
        let _ = smp
            .solve(|i, x| model.required_size(mft_circuit::VertexId::new(i), budgets[i], x))
            .map_err(|e| e.to_string())?;
        let wphase_seconds = t2.elapsed().as_secs_f64();

        let t3 = Instant::now();
        let _ = mft_core::Minflotransit::default()
            .optimize_from(dag, model, target, tilos.sizes.clone())
            .map_err(|e| e.to_string())?;
        let mft_seconds = t3.elapsed().as_secs_f64();

        points.push(ScalingPoint {
            name: format!("rand{gates}"),
            vertices: dag.num_vertices(),
            edges: dag.num_edges(),
            dphase_seconds,
            wphase_seconds,
            tilos_seconds,
            mft_seconds,
        });
    }
    Ok(points)
}

/// Formats scaling points as an aligned table with per-edge normalizations
/// (near-constant columns ⇒ near-linear run time, the paper's claim).
pub fn format_scaling(points: &[ScalingPoint]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:>7} {:>7} {:>10} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "circuit",
        "|V|",
        "|E|",
        "D-phase s",
        "W-phase s",
        "TILOS s",
        "MFT s",
        "D µs/edge",
        "W µs/edge"
    );
    for p in points {
        let _ = writeln!(
            s,
            "{:<10} {:>7} {:>7} {:>10.4} {:>10.4} {:>10.3} {:>10.3} {:>12.3} {:>12.3}",
            p.name,
            p.vertices,
            p.edges,
            p.dphase_seconds,
            p.wphase_seconds,
            p.tilos_seconds,
            p.mft_seconds,
            1e6 * p.dphase_seconds / p.edges as f64,
            1e6 * p.wphase_seconds / p.edges as f64,
        );
    }
    s
}

/// Writes experiment artifacts under `target/experiments/`, returning the
/// path written.
///
/// # Errors
///
/// Propagates I/O errors as strings.
pub fn write_artifact(filename: &str, contents: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from("target/experiments");
    fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(filename);
    fs::write(&path, contents).map_err(|e| e.to_string())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_benchmark_row() {
        let row = run_benchmark(Benchmark::C432, &MinflotransitConfig::default()).unwrap();
        assert!(row.timing_met);
        assert!(row.saving_percent >= 0.0);
        assert!(row.mft_area_ratio <= row.tilos_area_ratio + 1e-9);
        assert_eq!(row.paper_gates, 160);
    }

    #[test]
    fn table_formatting() {
        let report = Table1Report {
            rows: vec![Table1Row {
                name: "x".into(),
                gates: 10,
                paper_gates: 12,
                spec: 0.4,
                saving_percent: 5.0,
                paper_saving_percent: 9.4,
                tilos_seconds: 0.1,
                ours_seconds: 0.3,
                iterations: 7,
                tilos_area_ratio: 1.5,
                mft_area_ratio: 1.4,
                timing_met: true,
                adjusted_spec: None,
            }],
        };
        let table = report.to_table();
        assert!(table.contains("circuit"));
        assert!(table.contains('x'));
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 2);
    }
}
