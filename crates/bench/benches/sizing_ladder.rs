//! The 100k-gate scaling ladder (`mft_gen::SIZING_LADDER`): per-rung
//! measurements of the two hot loops this stack optimizes.
//!
//! 1. **Bump loop** — one fixed-budget TILOS advance toward an
//!    impossible target. The bench records its wall time, the
//!    sensitivity share of the loop (`TilosConfig::profile_timing`),
//!    and the sensitivity cache's hit/miss/invalidation counters
//!    (asserting at least one hit).
//! 2. **Rebase churn replay** — W-phase-shaped candidate evaluations
//!    routed exactly as the optimizer routes them
//!    (`DelayModel::delays_diff` + `IncrementalTiming::rebase_scoped`)
//!    across churn fractions from 1% to 75%, against the historical
//!    full re-evaluation (`DelayModel::delays` + full-vector rebase).
//!    Each route runs once untimed, then once timed. Records the
//!    sparse-vs-full decision counters of the churn rule
//!    (`IncrementalTiming::prefers_full_pass`), both wall times, the
//!    arrival evaluations per sparse rebase and the sparse route's µs
//!    per arrival evaluation.
//!
//! 3. **Power vs. area objectives** — on c432-like and the 10k random
//!    rung, a full MINFLOTRANSIT run under each objective at the same
//!    delay target, asserting the acceptance inequalities (the power
//!    objective strictly lower on total power, the area objective
//!    strictly lower on area, both delay-feasible) and recording the
//!    numbers.
//!
//! Results go to `BENCH_sizing.json` at the repository root plus a
//! human summary on stdout. Set `MFT_BENCH_SMOKE=1` for the CI run:
//! c432-like plus the smallest rung only, single sample each, still
//! asserting cache hits and the objective inequalities; it prints the
//! JSON instead of writing the file.

use mft_bench::smoke;
use mft_circuit::{SizingMode, VertexId};
use mft_core::{SessionConfig, SizingProblem};
use mft_delay::{DelayModel, DiffScratch, Technology};
use mft_gen::{Benchmark, LadderRung, SIZING_LADDER};
use mft_sta::IncrementalTiming;
use mft_tilos::{SensitivityStats, TilosConfig, TilosError, TilosState};
use std::fmt::Write as _;
use std::time::Instant;

/// Resident set size in KiB from `/proc/self/status` (0 where absent).
fn rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

struct BumpLoopRun {
    seconds: f64,
    bumps: usize,
    /// Wall time of the sensitivity scan alone.
    sens_seconds: f64,
    /// Fraction of the loop spent in the sensitivity scan
    /// (vs the timing update).
    sens_share: f64,
    stats: SensitivityStats,
    sizes: Vec<f64>,
}

/// Runs a fixed-budget TILOS advance toward an impossible target and
/// returns the wall time of the bump loop proper (trajectory
/// construction excluded).
fn run_bump_loop(problem: &SizingProblem, budget: usize) -> BumpLoopRun {
    let config = TilosConfig {
        max_bumps: budget,
        profile_timing: true,
        ..Default::default()
    };
    let (dag, model) = (problem.dag(), problem.model());
    let mut traj = TilosState::new(dag, model, config).expect("trajectory builds");
    let t0 = Instant::now();
    match traj.advance_to(dag, model, 0.0) {
        Err(TilosError::Infeasible { .. }) | Err(TilosError::BumpBudgetExhausted { .. }) => {}
        other => panic!("target 0 must be unreachable, got {other:?}"),
    }
    let seconds = t0.elapsed().as_secs_f64();
    let (sens_s, timing_s) = traj.profile_seconds();
    let split = sens_s + timing_s;
    BumpLoopRun {
        seconds,
        bumps: traj.bumps(),
        sens_seconds: sens_s,
        sens_share: if split > 0.0 { sens_s / split } else { 0.0 },
        stats: traj.sensitivity_stats(),
        sizes: traj.sizes().to_vec(),
    }
}

struct ChurnReport {
    sparse_seconds: f64,
    full_seconds: f64,
    rebase_sparse: usize,
    rebase_full: usize,
    /// Arrival evaluations of the sparse rebases (full passes
    /// excluded), per sparse rebase.
    evals_per_sparse: f64,
    /// Sparse route wall time per arrival evaluation it made.
    us_per_eval: f64,
}

/// Replays W-phase-shaped candidate evaluations over the optimizer's
/// sparse routing and over the historical full path. Each step
/// perturbs a deterministic subset of `base_sizes` (churn fractions
/// cycling 1% → 75%), evaluates the candidate, and restores — exactly
/// the accept/reject shape of the D/W loop.
fn churn_replay(problem: &SizingProblem, base_sizes: &[f64], steps: usize) -> ChurnReport {
    let dag = problem.dag();
    let model = problem.model();
    let n = dag.num_vertices();
    let (min_size, max_size) = model.size_bounds();
    let base_delays = model.delays(base_sizes);
    let fractions = [0.01, 0.05, 0.25, 0.75];
    let candidate = |step: usize| -> Vec<f64> {
        let frac = fractions[step % fractions.len()];
        let stride = ((1.0 / frac) as usize).max(1);
        let mut cand = base_sizes.to_vec();
        for i in ((step % stride)..n).step_by(stride) {
            let factor = if step.is_multiple_of(2) {
                1.0005
            } else {
                0.9995
            };
            cand[i] = (cand[i] * factor).clamp(min_size, max_size);
        }
        cand
    };

    // Sparse route: the optimizer's exact W-phase routing.
    let mut cand_delays = base_delays.clone();
    let mut changed: Vec<VertexId> = Vec::new();
    let mut affected: Vec<VertexId> = Vec::new();
    let mut scratch = DiffScratch::new();
    let mut sparse_route = |timing: &mut IncrementalTiming| {
        for step in 0..steps {
            let cand = candidate(step);
            changed.clear();
            changed.extend(
                (0..n)
                    .filter(|&i| base_sizes[i].to_bits() != cand[i].to_bits())
                    .map(VertexId::new),
            );
            cand_delays.copy_from_slice(&base_delays);
            model.delays_diff(
                &changed,
                &cand,
                &mut cand_delays,
                &mut affected,
                &mut scratch,
            );
            timing
                .rebase_scoped(dag, &cand_delays, &affected)
                .expect("rebase");
            std::hint::black_box(timing.critical_path());
            // Reject: restore the engine to the base delays over the
            // same scope, as the optimizer does.
            timing
                .rebase_scoped(dag, &base_delays, &affected)
                .expect("restore");
        }
    };
    // Historical full route: full delay vector + full-vector rebase.
    let full_route = |timing: &mut IncrementalTiming| {
        for step in 0..steps {
            let cand = candidate(step);
            let cand_delays = model.delays(&cand);
            timing.rebase(dag, &cand_delays).expect("rebase");
            std::hint::black_box(timing.critical_path());
            timing.rebase(dag, &base_delays).expect("restore");
        }
    };

    // Each route runs once untimed first, so neither pays the other's
    // warm-up (first-touch allocations, cold caches).
    let mut timing = IncrementalTiming::new(dag, &base_delays).expect("engine builds");
    sparse_route(&mut timing);
    let before = timing.stats();
    let t0 = Instant::now();
    sparse_route(&mut timing);
    let sparse_seconds = t0.elapsed().as_secs_f64();
    let delta = timing.stats().since(&before);

    let mut full_timing = IncrementalTiming::new(dag, &base_delays).expect("engine builds");
    full_route(&mut full_timing);
    let t1 = Instant::now();
    full_route(&mut full_timing);
    let full_seconds = t1.elapsed().as_secs_f64();

    let sparse_evals = delta.vertices_touched - delta.full_passes * n;
    ChurnReport {
        sparse_seconds,
        full_seconds,
        rebase_sparse: delta.rebase_sparse,
        rebase_full: delta.rebase_full,
        evals_per_sparse: sparse_evals as f64 / delta.rebase_sparse.max(1) as f64,
        us_per_eval: 1e6 * sparse_seconds / delta.vertices_touched.max(1) as f64,
    }
}

struct RungReport {
    name: String,
    gates: usize,
    vertices: usize,
    bump_loop: BumpLoopRun,
    churn: ChurnReport,
    peak_rss_kb: u64,
}

fn run_rung(name: &str, problem: &SizingProblem, budget: usize, churn_steps: usize) -> RungReport {
    let bump_loop = run_bump_loop(problem, budget);
    assert!(
        bump_loop.stats.hits > 0,
        "{name}: the cache never hit — nothing was measured"
    );
    let churn = churn_replay(problem, &bump_loop.sizes, churn_steps);
    RungReport {
        name: name.to_owned(),
        gates: problem.netlist().num_gates(),
        vertices: problem.dag().num_vertices(),
        bump_loop,
        churn,
        peak_rss_kb: rss_kb(),
    }
}

struct PowerRun {
    name: String,
    spec: f64,
    target_ps: f64,
    area_area: f64,
    area_power: f64,
    area_delay: f64,
    area_seconds: f64,
    power_area: f64,
    power_power: f64,
    power_delay: f64,
    power_seconds: f64,
}

/// Sizes `problem` to the same delay target under the area and the
/// power objective and asserts the trade-off is genuine: the power
/// objective strictly wins on total power, the area objective strictly
/// wins on area, and both meet timing.
fn run_power(name: &str, problem: &SizingProblem, spec: f64) -> PowerRun {
    let target = spec * problem.dmin();
    // A new session per timed request.
    let mut session = problem.session(SessionConfig::warm());
    let t0 = Instant::now();
    let area_sol = session.size_to(target).expect("area objective solves");
    let area_seconds = t0.elapsed().as_secs_f64();
    let mut session = problem.session(SessionConfig::warm());
    let t1 = Instant::now();
    let power_sol = session
        .size_to_power(target)
        .expect("power objective solves");
    let power_seconds = t1.elapsed().as_secs_f64();

    let tol = target * (1.0 + 1e-6);
    assert!(
        area_sol.achieved_delay <= tol,
        "{name}: area solution misses timing ({} > {target})",
        area_sol.achieved_delay
    );
    assert!(
        power_sol.solution.achieved_delay <= tol,
        "{name}: power solution misses timing ({} > {target})",
        power_sol.solution.achieved_delay
    );
    let area_power = problem.power_of(&area_sol.sizes);
    assert!(
        power_sol.power.total < area_power,
        "{name}: power objective must win on power ({} vs {area_power})",
        power_sol.power.total
    );
    assert!(
        area_sol.area < power_sol.area,
        "{name}: area objective must win on area ({} vs {})",
        area_sol.area,
        power_sol.area
    );
    PowerRun {
        name: name.to_owned(),
        spec,
        target_ps: target,
        area_area: area_sol.area,
        area_power,
        area_delay: area_sol.achieved_delay,
        area_seconds,
        power_area: power_sol.area,
        power_power: power_sol.power.total,
        power_delay: power_sol.solution.achieved_delay,
        power_seconds,
    }
}

fn prepare(rung: &LadderRung) -> SizingProblem {
    let netlist = rung.generate().expect("rung generates");
    SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate)
        .expect("pipeline builds")
}

/// Bump budget per rung: enough to exercise steady-state cache
/// behavior, bounded so a full ladder run stays affordable.
fn budget_for(gates: usize) -> usize {
    match gates {
        g if g >= 100_000 => 700,
        g if g >= 30_000 => 1000,
        _ => 1500,
    }
}

fn main() {
    let tech = Technology::cmos_130nm();
    let mut reports: Vec<RungReport> = Vec::new();

    // c432-like first: the small-circuit regime where the sensitivity
    // scan historically dominated the bump loop.
    let c432 = SizingProblem::prepare(
        &Benchmark::C432.generate().expect("c432 generates"),
        &tech,
        SizingMode::Gate,
    )
    .expect("pipeline builds");
    reports.push(run_rung(
        "c432like",
        &c432,
        5000,
        if smoke() { 4 } else { 20 },
    ));
    // Objective comparison at one equal delay target per circuit:
    // c432-like here, the 10k random rung inside the ladder loop.
    let mut power_runs: Vec<PowerRun> = vec![run_power("c432like", &c432, 0.6)];

    let rungs: Vec<&LadderRung> = if smoke() {
        // CI regression guard: the smallest rung only, single sample.
        vec![&SIZING_LADDER[0]]
    } else {
        SIZING_LADDER.iter().collect()
    };
    for rung in rungs {
        let problem = prepare(rung);
        let budget = if smoke() { 200 } else { budget_for(rung.gates) };
        reports.push(run_rung(
            rung.name,
            &problem,
            budget,
            if smoke() { 4 } else { 20 },
        ));
        if rung.name == "rand10k" {
            power_runs.push(run_power(rung.name, &problem, 0.8));
        }
    }

    // Human summary.
    println!(
        "{:<10} {:>8} {:>7} {:>10} {:>9} {:>10} {:>10} {:>7} {:>7} {:>10} {:>8} {:>9}",
        "rung",
        "vertices",
        "bumps",
        "loop s",
        "sens%",
        "sparse s",
        "full s",
        "reb-sp",
        "reb-fl",
        "eval/reb",
        "us/eval",
        "rss MiB"
    );
    for r in &reports {
        println!(
            "{:<10} {:>8} {:>7} {:>10.4} {:>9.3} {:>10.4} {:>10.4} {:>7} {:>7} {:>10.1} {:>8.4} {:>9.1}",
            r.name,
            r.vertices,
            r.bump_loop.bumps,
            r.bump_loop.seconds,
            r.bump_loop.sens_share,
            r.churn.sparse_seconds,
            r.churn.full_seconds,
            r.churn.rebase_sparse,
            r.churn.rebase_full,
            r.churn.evals_per_sparse,
            r.churn.us_per_eval,
            r.peak_rss_kb as f64 / 1024.0
        );
    }

    println!();
    println!(
        "{:<10} {:>5} {:>11} {:>11} {:>11} {:>8} {:>11} {:>11} {:>8} {:>8}",
        "objective",
        "spec",
        "target ps",
        "area(A)",
        "power(A)",
        "s(A)",
        "area(P)",
        "power(P)",
        "s(P)",
        "ΔP %"
    );
    for p in &power_runs {
        println!(
            "{:<10} {:>5.2} {:>11.1} {:>11.1} {:>11.1} {:>8.3} {:>11.1} {:>11.1} {:>8.3} {:>8.2}",
            p.name,
            p.spec,
            p.target_ps,
            p.area_area,
            p.area_power,
            p.area_seconds,
            p.power_area,
            p.power_power,
            p.power_seconds,
            100.0 * (p.area_power - p.power_power) / p.area_power,
        );
    }

    // JSON artifact.
    let mut json = String::from("{\n  \"bench\": \"sizing_ladder\",\n");
    let _ = writeln!(json, "  \"smoke\": {},", smoke());
    json.push_str("  \"power_objective\": {\n");
    for (i, p) in power_runs.iter().enumerate() {
        let _ = writeln!(json, "    \"{}\": {{", p.name);
        let _ = writeln!(
            json,
            "      \"spec\": {}, \"target_ps\": {:.6},",
            p.spec, p.target_ps
        );
        let _ = writeln!(
            json,
            "      \"area_objective\": {{\"area\": {:.6}, \"power\": {:.6}, \
             \"delay_ps\": {:.6}, \"seconds\": {:.6}}},",
            p.area_area, p.area_power, p.area_delay, p.area_seconds
        );
        let _ = writeln!(
            json,
            "      \"power_objective\": {{\"area\": {:.6}, \"power\": {:.6}, \
             \"delay_ps\": {:.6}, \"seconds\": {:.6}}},",
            p.power_area, p.power_power, p.power_delay, p.power_seconds
        );
        let _ = writeln!(
            json,
            "      \"power_saving_percent\": {:.4}, \"area_cost_percent\": {:.4}\n    }}{}",
            100.0 * (p.area_power - p.power_power) / p.area_power,
            100.0 * (p.power_area - p.area_area) / p.area_area,
            if i + 1 < power_runs.len() { "," } else { "" }
        );
    }
    json.push_str("  },\n");
    json.push_str("  \"rungs\": {\n");
    for (i, r) in reports.iter().enumerate() {
        let _ = writeln!(json, "    \"{}\": {{", r.name);
        let _ = writeln!(
            json,
            "      \"gates\": {}, \"vertices\": {}, \"bumps\": {},",
            r.gates, r.vertices, r.bump_loop.bumps
        );
        let _ = writeln!(
            json,
            "      \"bump_loop\": {{\"cached_seconds\": {:.6}, \"cached_sens_seconds\": {:.6}, \
             \"cached_sens_share\": {:.4}, \"sens_hits\": {}, \"sens_misses\": {}, \
             \"sens_invalidations\": {}}},",
            r.bump_loop.seconds,
            r.bump_loop.sens_seconds,
            r.bump_loop.sens_share,
            r.bump_loop.stats.hits,
            r.bump_loop.stats.misses,
            r.bump_loop.stats.invalidations
        );
        let _ = writeln!(
            json,
            "      \"rebase\": {{\"sparse_seconds\": {:.6}, \"full_path_seconds\": {:.6}, \
             \"rebase_sparse\": {}, \"rebase_full\": {}, \"evals_per_sparse_rebase\": {:.1}, \
             \"us_per_eval\": {:.5}}},",
            r.churn.sparse_seconds,
            r.churn.full_seconds,
            r.churn.rebase_sparse,
            r.churn.rebase_full,
            r.churn.evals_per_sparse,
            r.churn.us_per_eval
        );
        let _ = writeln!(
            json,
            "      \"peak_rss_kb\": {}\n    }}{}",
            r.peak_rss_kb,
            if i + 1 < reports.len() { "," } else { "" }
        );
    }
    json.push_str("  }\n}\n");
    mft_bench::write_report("BENCH_sizing.json", &json);
}
