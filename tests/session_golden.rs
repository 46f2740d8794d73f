//! Golden pins for the session-oriented service API: everything a
//! [`SizingSession`] serves must be **bit-identical** to the same
//! request served first on a new session (`size_to`/`tilos_to`, a
//! per-point sweep of them, `delay_of`/`area_of`) under the same
//! optimizer configuration — including mixed and random request
//! sequences where cross-request warm state (the shared TILOS
//! trajectory, the persistent D-phase network, the SMP solver, the
//! incremental timing engine) carries over from one request to the
//! next, and out-of-order targets are replayed from the trajectory's
//! bump log. The same scripts served as wire lines through one session
//! and one new session per line answer the same bytes.
//!
//! Also pinned: the cross-request *reuse* itself, via the timing
//! counters — a second size request at a nearby tighter target performs
//! zero cold STA full passes on the TILOS side (the trajectory advances
//! incrementally), and a repeated target does zero timing work at all
//! (bump-log replay).

mod common;

use common::{fresh, per_point_curve};
use minflotransit::circuit::{parse_bench, SizingMode, C17_BENCH};
use minflotransit::core::{Request, SessionConfig, SizingProblem, SizingSolution, SweepOutcome};
use minflotransit::delay::Technology;
use minflotransit::gen::Benchmark;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn c17_problem() -> SizingProblem {
    let netlist = parse_bench("c17", C17_BENCH).unwrap();
    SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap()
}

fn c432_problem() -> SizingProblem {
    let netlist = Benchmark::C432.generate().unwrap();
    SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap()
}

/// Bitwise solution comparison (the sizing *result* fields; work
/// counters and wall-clock are diagnostics and legitimately differ).
fn assert_solutions_bit_identical(a: &SizingSolution, b: &SizingSolution, what: &str) {
    assert_eq!(a.area.to_bits(), b.area.to_bits(), "{what}: area");
    assert_eq!(
        a.achieved_delay.to_bits(),
        b.achieved_delay.to_bits(),
        "{what}: achieved_delay"
    );
    assert_eq!(
        a.initial_area.to_bits(),
        b.initial_area.to_bits(),
        "{what}: initial_area"
    );
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.tilos_bumps, b.tilos_bumps, "{what}: tilos_bumps");
    assert_eq!(a.sizes.len(), b.sizes.len(), "{what}: size count");
    for (i, (x, y)) in a.sizes.iter().zip(b.sizes.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: size[{i}]");
    }
}

fn assert_outcomes_bit_identical(a: &[SweepOutcome], b: &[SweepOutcome], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        match (x, y) {
            (SweepOutcome::Point(p), SweepOutcome::Point(q)) => {
                assert_eq!(p.spec.to_bits(), q.spec.to_bits(), "{what}[{i}].spec");
                assert_eq!(
                    p.tilos_area_ratio.to_bits(),
                    q.tilos_area_ratio.to_bits(),
                    "{what}[{i}].tilos_area_ratio"
                );
                assert_eq!(
                    p.mft_area_ratio.to_bits(),
                    q.mft_area_ratio.to_bits(),
                    "{what}[{i}].mft_area_ratio"
                );
                assert_eq!(
                    p.saving_percent.to_bits(),
                    q.saving_percent.to_bits(),
                    "{what}[{i}].saving_percent"
                );
                assert_eq!(p.iterations, q.iterations, "{what}[{i}].iterations");
            }
            (
                SweepOutcome::Unreachable {
                    spec: sa,
                    best_ratio: ra,
                },
                SweepOutcome::Unreachable {
                    spec: sb,
                    best_ratio: rb,
                },
            ) => {
                assert_eq!(sa.to_bits(), sb.to_bits(), "{what}[{i}].spec");
                assert_eq!(ra.to_bits(), rb.to_bits(), "{what}[{i}].best_ratio");
            }
            _ => panic!("{what}[{i}]: outcome kinds differ"),
        }
    }
}

/// The mixed sequence's size and sweep requests as wire requests: each
/// size, the sweep, then each size again.
fn script(specs_sized: &[f64], sweep_specs: &[f64]) -> Vec<Request> {
    let size = |spec: &f64| format!("{{\"type\":\"size\",\"spec\":{spec},\"return_sizes\":true}}");
    let specs: Vec<String> = sweep_specs.iter().map(f64::to_string).collect();
    let sweep = format!("{{\"type\":\"sweep\",\"specs\":[{}]}}", specs.join(","));
    specs_sized
        .iter()
        .map(size)
        .chain([sweep])
        .chain(specs_sized.iter().map(size))
        .map(|line| Request::from_json_line(&line).unwrap())
        .collect()
}

/// The response lines of `requests` served in order through one
/// session under `config`.
fn served_lines(
    problem: &SizingProblem,
    config: &SessionConfig,
    requests: &[Request],
) -> Vec<String> {
    let mut session = problem.session(config.clone());
    requests
        .iter()
        .map(|request| session.serve(request).to_json_line())
        .collect()
}

/// The response lines of `requests`, each served on its own new
/// session under `config`.
fn fresh_lines(
    problem: &SizingProblem,
    config: &SessionConfig,
    requests: &[Request],
) -> Vec<String> {
    requests
        .iter()
        .map(|request| fresh(problem, config, |s| s.serve(request).to_json_line()))
        .collect()
}

/// Runs the mixed request sequence — size, tighter size, sweep, size at
/// an earlier (looser, already-passed) target, repeat of the first
/// target, what-if — through one session, pinning every value bitwise
/// against each request on a new session, and the same script's
/// response lines byte for byte against one new session per line.
fn mixed_sequence_matches_legacy(
    problem: &SizingProblem,
    config: SessionConfig,
    specs_sized: &[f64],
    sweep_specs: &[f64],
    what: &str,
) {
    let dmin = problem.dmin();
    let mut session = problem.session(config.clone());
    let legacy = |spec: f64| -> SizingSolution {
        fresh(problem, &config, |s| s.size_to(spec * dmin)).unwrap()
    };

    // Requests in the given order (includes out-of-order/looser and
    // repeated targets).
    for (k, &spec) in specs_sized.iter().enumerate() {
        let served = session.size_to(spec * dmin).unwrap();
        assert_solutions_bit_identical(&served, &legacy(spec), &format!("{what}: size#{k} {spec}"));
    }

    // A sweep mid-stream, against the requests point by point, each on
    // a new session under the same configuration.
    let served_sweep = session.sweep(sweep_specs).unwrap();
    let legacy_sweep = per_point_curve(problem, &config, sweep_specs);
    assert_outcomes_bit_identical(&served_sweep, &legacy_sweep, &format!("{what}: sweep"));

    // Size again after the sweep (the sweep advanced the shared
    // trajectory past these targets).
    for &spec in specs_sized {
        let served = session.size_to(spec * dmin).unwrap();
        assert_solutions_bit_identical(
            &served,
            &legacy(spec),
            &format!("{what}: size-after-sweep {spec}"),
        );
    }

    // What-if re-times pin against delay_of/area_of bitwise.
    let candidate = session.size_to(specs_sized[0] * dmin).unwrap().sizes;
    let report = session
        .what_if(&candidate, Some(specs_sized[0] * dmin))
        .unwrap();
    assert_eq!(
        report.critical_path.to_bits(),
        problem.delay_of(&candidate).to_bits(),
        "{what}: what_if critical path"
    );
    assert_eq!(
        report.area.to_bits(),
        problem.area_of(&candidate).to_bits(),
        "{what}: what_if area"
    );
    assert_eq!(report.meets_target, Some(true), "{what}: what_if feasible");

    let requests = script(specs_sized, sweep_specs);
    let served = served_lines(problem, &config, &requests);
    let legacy = fresh_lines(problem, &config, &requests);
    assert_eq!(served.len(), specs_sized.len() * 2 + 1, "{what}");
    for (k, (a, b)) in served.iter().zip(&legacy).enumerate() {
        assert!(
            a.contains("\"sizes\":[") || a.contains("\"points\":["),
            "{a}"
        );
        assert_eq!(a, b, "{what}: response line {k}");
    }
}

/// c17, shared-exact W-phase (cross-request trajectory + solver reuse):
/// every served value is bit-identical to each request on a new
/// session across an out-of-order sequence even with
/// `wphase_warm_start` set, which the exact W-phase ignores — the
/// script's response lines equal a default configuration's, each line
/// on a new session, byte for byte.
#[test]
fn c17_mixed_sequence_shared_exact_is_bit_identical_to_legacy() {
    let problem = c17_problem();
    let mut config = SessionConfig::warm();
    config.optimizer.wphase_warm_start = true;
    let specs_sized = [0.8, 0.6, 0.75, 0.6];
    let sweep_specs = [0.9, 0.7, 0.5];
    mixed_sequence_matches_legacy(
        &problem,
        config.clone(),
        &specs_sized,
        &sweep_specs,
        "c17 shared-exact",
    );
    let requests = script(&specs_sized, &sweep_specs);
    let served = served_lines(&problem, &config, &requests);
    let fresh = fresh_lines(&problem, &SessionConfig::warm(), &requests);
    assert_eq!(served, fresh, "c17 shared-exact vs default, fresh per line");
}

/// c17 (cross-request trajectory + solver reuse): the session must
/// match each request on a new session (point by point for the sweep)
/// bit for bit, across deliberately out-of-order sequences.
#[test]
fn c17_mixed_sequence_warm_matches_legacy_warm_stack() {
    let problem = c17_problem();
    for (specs_sized, sweep_specs) in [
        // 0.8 → 0.6 (tighter) → 0.75 (looser: bump-log replay) → 0.6
        // (repeat) — the "size at an earlier target" case.
        (&[0.8, 0.6, 0.75, 0.6][..], &[0.9, 0.7, 0.5][..]),
        (&[0.8, 0.6, 0.75][..], &[0.9, 0.5][..]),
    ] {
        mixed_sequence_matches_legacy(
            &problem,
            SessionConfig::warm(),
            specs_sized,
            sweep_specs,
            "c17 warm",
        );
    }
}

/// The c432-like generated circuit (254 gates): the mixed sequence
/// stays bit-identical at scale, warm config.
#[test]
fn c432_mixed_sequence_warm_is_bit_identical_to_legacy() {
    let problem = c432_problem();
    mixed_sequence_matches_legacy(
        &problem,
        SessionConfig::warm(),
        // 0.85 → 0.7 (tighter) → 0.85 (earlier target, replayed).
        &[0.85, 0.7, 0.85],
        &[0.9, 0.8],
        "c432 warm",
    );
}

/// The c432-like circuit, sized 0.8 then 0.7 on one session, against
/// each request on a new session.
#[test]
fn c432_warm_session_matches_legacy_warm_stack() {
    let problem = c432_problem();
    let dmin = problem.dmin();
    let config = SessionConfig::warm();
    let mut session = problem.session(config.clone());
    for spec in [0.8, 0.7] {
        let served = session.size_to(spec * dmin).unwrap();
        let legacy = fresh(&problem, &config, |s| s.size_to(spec * dmin)).unwrap();
        assert_solutions_bit_identical(&served, &legacy, &format!("c432 warm {spec}"));
    }
}

/// A seeded random order of `size`, `size_power`, `sweep` and
/// TILOS-only requests (each kind equally often, at random specs)
/// through one session: every answer equals the same request's answer
/// on a new session — the wire line for the protocol requests, and for
/// `tilos_to` the `Debug` form of its result (which prints every float
/// round-trip exact).
#[test]
fn random_request_order_matches_fresh_sessions() {
    let config = SessionConfig::warm();
    for (what, problem, specs, rounds) in [
        (
            "c17",
            c17_problem(),
            &[0.9, 0.8, 0.7, 0.6, 0.5, 0.05][..],
            6,
        ),
        ("c432", c432_problem(), &[0.9, 0.8, 0.7, 0.65, 0.6][..], 3),
    ] {
        let dmin = problem.dmin();
        let mut rng = StdRng::seed_from_u64(0x5eed);
        // Every kind `rounds` times, Fisher–Yates shuffled.
        let mut kinds: Vec<usize> = (0..4 * rounds).map(|k| k % 4).collect();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.gen_range(0..=i));
        }
        let mut session = problem.session(config.clone());
        for (k, &kind) in kinds.iter().enumerate() {
            let spec = specs[rng.gen_range(0..specs.len())];
            let (got, want) = match kind {
                0 => (
                    format!("{:?}", session.tilos_to(spec * dmin)),
                    format!(
                        "{:?}",
                        fresh(&problem, &config, |s| s.tilos_to(spec * dmin))
                    ),
                ),
                kind => {
                    let request = match kind {
                        1 => Request::Size {
                            spec: Some(spec),
                            target: None,
                            return_sizes: true,
                        },
                        2 => Request::SizePower {
                            spec: Some(spec),
                            target: None,
                            return_sizes: true,
                        },
                        _ => Request::Sweep {
                            specs: vec![spec, specs[rng.gen_range(0..specs.len())]],
                        },
                    };
                    (
                        session.serve(&request).to_json_line(),
                        fresh(&problem, &config, |s| s.serve(&request).to_json_line()),
                    )
                }
            };
            assert_eq!(got, want, "{what}: request {k} at spec {spec}");
        }
    }
}

/// Unreachable targets fail identically through the session (the
/// trajectory latches infeasibility like a new session reports it).
#[test]
fn unreachable_targets_match_legacy_errors() {
    let problem = c17_problem();
    let dmin = problem.dmin();
    let config = SessionConfig::warm();
    let mut session = problem.session(config.clone());
    session.size_to(0.8 * dmin).unwrap();
    let served = session.size_to(0.05 * dmin).unwrap_err();
    let legacy = fresh(&problem, &config, |s| s.size_to(0.05 * dmin)).unwrap_err();
    assert_eq!(
        format!("{served}"),
        format!("{legacy}"),
        "infeasibility reports must agree"
    );
    // The session stays serviceable after a failed request.
    let ok = session.size_to(0.7 * dmin).unwrap();
    assert_solutions_bit_identical(
        &ok,
        &fresh(&problem, &config, |s| s.size_to(0.7 * dmin)).unwrap(),
        "post-failure request",
    );
}

/// The acceptance pin: cross-request reuse, asserted via the timing
/// counters. The second size request at a nearby tighter target
/// performs **zero** cold STA full passes — the TILOS side advances the
/// existing trajectory purely incrementally — and a repeated target
/// does zero TILOS timing work at all (bump-log replay).
#[test]
fn second_request_reuses_trajectory_with_zero_full_sta_passes() {
    let problem = c432_problem();
    let dmin = problem.dmin();
    let mut session = problem.session(SessionConfig::warm());

    let first = session.size_to(0.7 * dmin).unwrap();
    let after_first = session.stats();
    assert!(first.tilos_bumps > 0, "0.7·Dmin needs bumps on c432");

    // Nearby tighter target: the trajectory resumes from bump
    // `first.tilos_bumps`, never re-walking the prefix and never
    // running a cold full pass.
    let second = session.size_to(0.65 * dmin).unwrap();
    let after_second = session.stats();
    let tilos_delta = after_second.tilos_timing.since(&after_first.tilos_timing);
    assert_eq!(
        tilos_delta.full_passes, 0,
        "trajectory advance must be fully incremental"
    );
    assert!(
        tilos_delta.incremental_passes > 0,
        "the tighter target required new bumps"
    );
    assert_eq!(
        after_second.trajectory_reused_bumps - after_first.trajectory_reused_bumps,
        first.tilos_bumps,
        "the whole first-request prefix was reused"
    );
    assert_eq!(
        after_second.trajectory_bumps - after_first.trajectory_bumps,
        second.tilos_bumps - first.tilos_bumps,
        "only the new suffix was executed"
    );

    // Repeat of the first target: a pure bump-log replay — zero timing
    // work of any kind on the TILOS side.
    let again = session.size_to(0.7 * dmin).unwrap();
    let after_third = session.stats();
    assert_eq!(again.tilos_bumps, first.tilos_bumps);
    assert_eq!(
        after_third.tilos_timing, after_second.tilos_timing,
        "replay does no timing work"
    );
    assert_eq!(after_third.snapshot_hits, after_second.snapshot_hits + 1);

    // And the served values never drifted.
    assert_solutions_bit_identical(&first, &again, "repeat of the first target");
}

/// Session sweeps are partition-independent: jobs = 0/1/2/4 all
/// produce bit-identical outcomes (0 is the documented clamp to 1).
#[test]
fn session_sweep_jobs_are_result_invariant() {
    let problem = c17_problem();
    let specs = [0.9, 0.8, 0.7, 0.6, 0.5];
    let baseline = problem
        .session(SessionConfig::warm())
        .sweep(&specs)
        .unwrap();
    for jobs in [0, 2, 4] {
        let got = problem
            .session(SessionConfig::warm().with_jobs(jobs))
            .sweep(&specs)
            .unwrap();
        assert_outcomes_bit_identical(&baseline, &got, &format!("jobs={jobs}"));
    }
}

/// The acceptance pin for the socket server: responses served over TCP
/// by the multi-circuit [`CircuitServer`] — two circuits loaded over
/// the wire, requests interleaved across two concurrent pipelined
/// connections — are **byte-identical** to the lines an in-process
/// [`SizingSession`] emits for the same requests. The server adds
/// routing, never arithmetic: per-circuit FIFO plus the session
/// guarantee that served values are order-independent makes every
/// line reproducible no matter how the two connections race.
#[test]
fn socket_round_trip_is_bit_identical_to_in_process_sessions() {
    use minflotransit::circuit::{write_bench, C17_BENCH};
    use minflotransit::core::{
        extract_id, CircuitServer, LineClient, LoadRequest, Request, RequestFrame, ServerConfig,
        ServerListener,
    };
    use std::collections::HashMap;

    let c17 = c17_problem();
    // The c432-like circuit travels as `.bench` text; build the
    // in-process reference from the *same text* (a write/parse round
    // trip renumbers vertices relative to the generated netlist).
    let c432_text = write_bench(&Benchmark::C432.generate().unwrap()).unwrap();
    let c432 = {
        let netlist = parse_bench("c432", &c432_text).unwrap();
        SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap()
    };
    let n17 = c17.dag().num_vertices();
    let n432 = c432.dag().num_vertices();

    // Two connections' worth of requests, interleaving both circuits.
    let make = |conn: char| -> Vec<(String, &'static str, Request)> {
        let sizes17 = vec![1.5; n17];
        let sizes432 = vec![1.25; n432];
        let (s_a, s_b, sweep) = if conn == 'a' {
            (0.8, 0.85, vec![0.9, 0.75])
        } else {
            (0.7, 0.9, vec![0.9, 0.8])
        };
        vec![
            (
                format!("{conn}1"),
                "c17",
                Request::Size {
                    spec: Some(s_a),
                    target: None,
                    return_sizes: conn == 'b',
                },
            ),
            (
                format!("{conn}2"),
                "c432",
                Request::Size {
                    spec: Some(s_b),
                    target: None,
                    return_sizes: conn == 'a',
                },
            ),
            (format!("{conn}3"), "c432", Request::Sweep { specs: sweep }),
            (
                format!("{conn}4"),
                if conn == 'a' { "c432" } else { "c17" },
                Request::WhatIf {
                    sizes: if conn == 'a' { sizes432 } else { sizes17 },
                    spec: Some(0.95),
                    target: None,
                },
            ),
        ]
    };

    // Expected lines through in-process sessions (one session per
    // circuit, the configuration the server loads with; session values
    // are order-independent, so one fixed serving order stands in for
    // every interleaving).
    let mut expected: HashMap<String, String> = HashMap::new();
    {
        let mut s17 = c17.session(SessionConfig::warm());
        let mut s432 = c432.session(SessionConfig::warm());
        for (id, circuit, request) in make('a').iter().chain(make('b').iter()) {
            let session = if *circuit == "c17" {
                &mut s17
            } else {
                &mut s432
            };
            let raw_id = format!("\"{id}\"");
            expected.insert(
                raw_id.clone(),
                session.serve(request).to_json_line_with_id(Some(&raw_id)),
            );
        }
    }

    // The server, with both circuits loaded over the wire.
    let server = CircuitServer::new(ServerConfig::default());
    let (listener, addr) = ServerListener::bind_tcp("127.0.0.1:0").unwrap();
    let runner = {
        let server = server.clone();
        std::thread::spawn(move || server.run(vec![listener]))
    };
    {
        let mut client = LineClient::connect(addr).unwrap();
        for (name, bench) in [("c17", C17_BENCH.to_owned()), ("c432", c432_text)] {
            let line = client
                .call(
                    &RequestFrame::new(Request::Load(LoadRequest {
                        bench: Some(bench),
                        ..Default::default()
                    }))
                    .for_circuit(name)
                    .with_id(name),
                )
                .unwrap();
            assert!(line.contains("\"type\":\"loaded\""), "{line}");
        }
    }

    // Two concurrent connections, each fully pipelined (send all, then
    // read all — responses may interleave across circuits).
    let drive = |requests: Vec<(String, &'static str, Request)>| -> Vec<String> {
        let mut client = LineClient::connect(addr).unwrap();
        for (id, circuit, request) in &requests {
            client
                .send(
                    &RequestFrame::new(request.clone())
                        .for_circuit(*circuit)
                        .with_id(id),
                )
                .unwrap();
        }
        (0..requests.len())
            .map(|_| client.recv().unwrap().expect("response line"))
            .collect()
    };
    let got: Vec<String> = std::thread::scope(|scope| {
        let a = scope.spawn(|| drive(make('a')));
        let b = scope.spawn(|| drive(make('b')));
        let mut lines = a.join().unwrap();
        lines.extend(b.join().unwrap());
        lines
    });

    assert_eq!(got.len(), expected.len());
    for line in &got {
        let id = extract_id(line).expect("every response echoes its id");
        assert_eq!(
            Some(line),
            expected.get(&id),
            "socket response for {id} must be byte-identical to the in-process session"
        );
    }

    // Graceful shutdown through the protocol.
    let mut client = LineClient::connect(addr).unwrap();
    let ack = client.call(&RequestFrame::new(Request::Shutdown)).unwrap();
    assert_eq!(ack, "{\"type\":\"shutdown\"}");
    runner.join().unwrap().unwrap();
    server.join_workers();
}

/// The serve() dispatch layer returns the same numbers the typed API
/// does, via the JSON line protocol round trip.
#[test]
fn serve_protocol_round_trip_matches_typed_api() {
    use minflotransit::core::{Request, Response};
    let problem = c17_problem();
    let dmin = problem.dmin();
    let mut typed = problem.session(SessionConfig::warm());
    let mut served = problem.session(SessionConfig::warm());

    let expected = typed.size_to(0.7 * dmin).unwrap();
    let request = Request::from_json_line("{\"type\":\"size\",\"spec\":0.7}").unwrap();
    let response = served.serve(&request);
    let Response::Size {
        area,
        achieved_delay,
        iterations,
        tilos_bumps,
        sizes,
        ..
    } = response
    else {
        panic!("expected a size response, got {response:?}");
    };
    assert_eq!(area.to_bits(), expected.area.to_bits());
    assert_eq!(achieved_delay.to_bits(), expected.achieved_delay.to_bits());
    assert_eq!(iterations, expected.iterations);
    assert_eq!(tilos_bumps, expected.tilos_bumps);
    assert!(sizes.is_none(), "sizes only on request");

    // Emitted lines parse back as JSON objects with the right type tag.
    let line = Response::stats(served.stats()).to_json_line();
    assert!(line.starts_with("{\"type\":\"stats\""), "{line}");
    assert!(line.ends_with('}'), "{line}");
}
