//! Pins for the work counters and the sinks that render them.
//!
//! * Per-point attribution adds up: summing each counter group over the
//!   points of a sweep gives exactly the session's cumulative totals,
//!   for one session with one and two workers and for one new session
//!   per spec.
//! * A gate-mode W-phase costs one SMP update per vertex per solve.
//! * A sweep that fails still counts the work it did, whatever the
//!   worker count.
//! * A what-if served before a sweep leaves the sweep's per-point
//!   timing counters as they are.
//! * Two `size` requests on a warm session solve their D-phase cold
//!   only once: the solver carries its basis across requests.
//! * The sinks' shapes are fixed: the key sequence of a `stats` line,
//!   the sweep table header and the CSV header.

mod common;

use common::fresh;
use minflotransit::circuit::{parse_bench, SizingMode, C17_BENCH};
use minflotransit::core::{
    curve_to_csv, format_curve, CancelToken, Request, Response, SessionConfig, SessionStats,
    SizingProblem, SweepOutcome,
};
use minflotransit::delay::Technology;
use minflotransit::gen::Benchmark;

const SPECS: [f64; 4] = [0.9, 0.8, 0.7, 0.6];

fn c432_problem() -> SizingProblem {
    let netlist = Benchmark::C432.generate().unwrap();
    SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap()
}

fn c17_problem() -> SizingProblem {
    let netlist = parse_bench("c17", C17_BENCH).unwrap();
    SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap()
}

#[test]
fn per_point_counters_sum_to_the_session_totals() {
    let problem = c432_problem();
    let config = SessionConfig::warm();
    // One sweep of every spec on one session, and one sweep of each
    // spec on a new session, its counters summed over the sessions.
    let one_session = |config: SessionConfig| {
        let mut session = problem.session(config);
        let outcomes = session.sweep(&SPECS).unwrap();
        (outcomes, session.stats())
    };
    let fresh_per_spec = || {
        let (mut outcomes, mut stats) = (Vec::new(), SessionStats::default());
        for spec in SPECS {
            let (mut point, point_stats) = fresh(&problem, &config, |s| {
                let outcomes = s.sweep(&[spec]).unwrap();
                (outcomes, s.stats())
            });
            outcomes.append(&mut point);
            stats = stats.merged(&point_stats);
        }
        (outcomes, stats)
    };
    for (name, (outcomes, stats)) in [
        ("one session", one_session(config.clone())),
        ("jobs 2", one_session(config.clone().with_jobs(2))),
        ("fresh per spec", fresh_per_spec()),
    ] {
        let (mut flow, mut wphase, mut timing, mut sensitivity) = Default::default();
        let mut points = 0;
        for outcome in &outcomes {
            let SweepOutcome::Point(p) = outcome else {
                panic!("{name}: every c432-like spec is reachable");
            };
            points += 1;
            flow = p.dphase.flow.merged(&flow);
            wphase = p.wphase.merged(&wphase);
            timing = p.timing.merged(&timing);
            sensitivity = p.sensitivity.merged(&sensitivity);
        }
        assert_eq!(points, SPECS.len(), "{name}");
        assert!(flow.pivots > 0, "{name}: the flow solver ran");
        assert_eq!(flow, stats.dphase.flow, "{name}: dphase.flow");
        assert_eq!(wphase, stats.wphase, "{name}: wphase");
        // Gate mode is acyclic: each solve evaluates every vertex once.
        assert!(wphase.solves > 0, "{name}: the W-phase ran");
        assert_eq!(
            wphase.updates,
            problem.dag().num_vertices() * wphase.solves,
            "{name}: smp_updates"
        );
        assert_eq!(wphase.seeded_solves, 0, "{name}: smp_seeded_solves");
        assert_eq!(timing, stats.timing(), "{name}: timing");
        assert_eq!(sensitivity, stats.sensitivity, "{name}: sensitivity");
    }
}

#[test]
fn cancelled_sweep_counts_its_work_for_every_worker_count() {
    let problem = c432_problem();
    let request = Request::Sweep {
        specs: SPECS.to_vec(),
    };
    for jobs in [1, 2] {
        let mut session = problem.session(SessionConfig::warm().with_jobs(jobs));
        let token = CancelToken::new();
        token.cancel();
        let response = session.serve_with(&request, &token);
        let line = response.to_json_line();
        assert!(line.contains("\"code\":\"timeout\""), "jobs {jobs}: {line}");
        let stats = session.stats();
        assert_eq!(stats.sweep_requests, 1, "jobs {jobs}");
        assert!(stats.sweep_points >= 1, "jobs {jobs}: {stats:?}");
        assert!(stats.timing().full_passes >= 1, "jobs {jobs}: {stats:?}");
    }
}

/// What-ifs run on the session's own read view, never on the
/// optimizer's timing engine, so serving one before a sweep changes
/// none of the sweep's per-point timing work. The candidate is the
/// first point's TILOS seed: had the what-if moved the optimizer's
/// engine, that point's first timing check would find no churn.
#[test]
fn what_if_before_a_sweep_leaves_its_timing_counters_unchanged() {
    let problem = c432_problem();
    let config = SessionConfig::warm();
    let candidate = fresh(&problem, &config, |s| s.tilos_to(SPECS[0] * problem.dmin()))
        .unwrap()
        .sizes;
    let timings = |what_if: bool| {
        fresh(&problem, &config, |session| {
            if what_if {
                session.what_if(&candidate, None).unwrap();
            }
            let outcomes = session.sweep(&SPECS).unwrap();
            outcomes
                .into_iter()
                .map(|outcome| match outcome {
                    SweepOutcome::Point(p) => p.timing,
                    other => panic!("every c432-like spec is reachable: {other:?}"),
                })
                .collect::<Vec<_>>()
        })
    };
    assert_eq!(timings(true), timings(false));
}

/// The D-phase solver of a warm session carries its basis from one
/// request to the next, so two `size` requests solve cold only once:
/// the served `stats` line reports `dphase_cold_solves` 1, and every
/// other solve as warm.
#[test]
fn two_warm_size_requests_solve_cold_once() {
    let problem = c432_problem();
    let mut session = problem.session(SessionConfig::warm());
    for spec in [0.7, 0.6] {
        let request = Request::Size {
            spec: Some(spec),
            target: None,
            return_sizes: false,
        };
        let line = session.serve(&request).to_json_line();
        assert!(line.starts_with("{\"type\":\"size\""), "{line}");
    }
    let stats = session.serve(&Request::Stats).to_json_line();
    assert!(stats.contains("\"dphase_cold_solves\":1,"), "{stats}");
    let flow = session.stats().dphase.flow;
    assert_eq!(flow.cold_solves, 1, "{flow:?}");
    assert!(flow.warm_solves >= 2, "{flow:?}");
}

/// The keys of a flat JSON object line, in order.
fn keys(line: &str) -> Vec<String> {
    line.trim_start_matches('{')
        .trim_end_matches('}')
        .split(',')
        .map(|kv| kv.split(':').next().unwrap().trim_matches('"').to_string())
        .collect()
}

#[test]
fn stats_line_keys_are_pinned() {
    const KEYS: &str = "type requests size_requests size_power_requests sweep_requests \
        sweep_points what_if_requests trajectory_bumps trajectory_reused_bumps snapshot_hits \
        sta_full_passes sta_incremental_passes sta_vertices_touched sta_rebase_sparse \
        sta_rebase_full sens_hits sens_misses sens_invalidations dphase_backend \
        dphase_cold_solves dphase_warm_solves dphase_pivots dphase_scanned_arcs flow_reuses \
        flow_seconds smp_solves smp_seeded_solves smp_updates";
    let expected: Vec<&str> = KEYS.split_whitespace().collect();
    let mut session = c17_problem().session(SessionConfig::warm());
    let stats_line = |session: &mut minflotransit::core::SizingSession| {
        let response = session.serve(&Request::Stats);
        assert!(matches!(response, Response::Stats { .. }));
        response.to_json_line()
    };

    let fresh = stats_line(&mut session);
    assert_eq!(keys(&fresh), expected, "{fresh}");
    assert!(fresh.contains("\"dphase_backend\":\"none\""), "{fresh}");

    let dmin = session.problem().dmin();
    let sizes = session.size_to(0.7 * dmin).unwrap().sizes;
    session
        .sweep(&[0.9, 0.8])
        .expect("c17 sweep at loose specs");
    session.what_if(&sizes, None).unwrap();
    let busy = stats_line(&mut session);
    assert_eq!(keys(&busy), expected, "{busy}");
    assert!(
        busy.contains("\"dphase_backend\":\"network-simplex\""),
        "{busy}"
    );
    assert!(busy.contains("\"flow_reuses\":0,"), "{busy}");
}

#[test]
fn sweep_sink_headers_are_pinned() {
    let outcomes = c17_problem()
        .session(SessionConfig::warm())
        .sweep(&[0.8])
        .unwrap();
    let table = format_curve("c17", &outcomes);
    assert_eq!(
        table.lines().nth(1).unwrap(),
        "  T/Dmin   TILOS A/A0     MFT A/A0      MFT P    save %    TILOS s     MFT+ s  \
         iters  d-cold  d-warm    d-piv    d-scan   smp-upd sta-full  sta-inc   sta-vtx \
         sens-hit sens-mis sens-inv  reb-sp  reb-fl"
    );
    let csv = curve_to_csv(&outcomes);
    assert_eq!(
        csv.lines().next().unwrap(),
        "spec,status,tilos_area_ratio,mft_area_ratio,mft_power,saving_percent,tilos_seconds,\
         mft_extra_seconds,iterations,dphase_cold_solves,dphase_warm_solves,dphase_pivots,\
         dphase_scanned_arcs,smp_updates,sta_full_passes,sta_incremental_passes,\
         sta_vertices_touched,sens_hits,sens_misses,sens_invalidations,sta_rebase_sparse,\
         sta_rebase_full,best_delay_ratio"
    );
}
