//! Load harness for the multi-circuit server's overload behavior.
//!
//! Three phases against real TCP servers:
//!
//! 1. **Closed-loop mixed fleet** — a `LineClient` fleet issues a mix
//!    of `size` / `what_if` / `sweep` traffic, each client waiting for
//!    its answer before the next request (`send_with_retry` rides out
//!    any `busy`). Reports req/s and p50/p99/p999 latency per request
//!    kind.
//! 2. **Open-loop overload** — a paced sender floods a server with a
//!    tiny admission bound (`max_queue_depth`) at a fixed arrival rate,
//!    never waiting for responses; a reader thread classifies every
//!    answer. Proves the overload contract: `busy` is answered in
//!    bounded time while the worker is saturated, already-expired
//!    queued work is shed with `expired`, in-flight work past its
//!    deadline stops with `timeout`, and resident memory stays bounded
//!    (the queue cannot absorb the flood).
//! 3. **Read-heavy fan-out** — 8 clients at 95% `what_if` / 5% `size`
//!    against a `replicas: 2` server and a single-worker one: reports
//!    throughput and p50/p99 for both, the per-replica served
//!    counters and diff-cache hits proving fan-out, and replays
//!    replica-served responses byte-identically on a single worker.
//!
//! Results go to `BENCH_server.json` at the repository root and a human
//! summary to stdout. Set `MFT_BENCH_SMOKE=1` for the small CI run,
//! which still asserts the overload contract (with a relaxed latency
//! bound for slow shared runners) and prints the JSON instead of
//! writing the file.

use mft_bench::smoke;
use mft_circuit::{parse_bench, SizingMode, C17_BENCH};
use mft_core::{
    extract_error_code, extract_id, CircuitServer, LineClient, Request, RequestFrame, Response,
    ServerConfig, ServerListener, SessionConfig, SizingProblem,
};
use mft_delay::Technology;
use mft_gen::Benchmark;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

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

/// Percentile of a latency sample, in microseconds.
fn percentile(sorted: &[u128], q: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct KindStats {
    kind: &'static str,
    count: usize,
    req_per_s: f64,
    p50_us: u128,
    p99_us: u128,
    p999_us: u128,
}

fn kind_stats(kind: &'static str, mut lats: Vec<u128>, elapsed: Duration) -> KindStats {
    lats.sort_unstable();
    KindStats {
        kind,
        count: lats.len(),
        req_per_s: lats.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: percentile(&lats, 0.50),
        p99_us: percentile(&lats, 0.99),
        p999_us: percentile(&lats, 0.999),
    }
}

fn prepare_problem() -> SizingProblem {
    let tech = Technology::cmos_130nm();
    let netlist = if smoke() {
        parse_bench("c17", C17_BENCH).expect("c17 parses")
    } else {
        Benchmark::C432.generate().expect("generator valid")
    };
    SizingProblem::prepare(&netlist, &tech, SizingMode::Gate).expect("prepares")
}

fn start_server(config: ServerConfig, problem: &SizingProblem) -> ServerHandle {
    let server = CircuitServer::new(config);
    let response = server.install("dut", problem.clone());
    assert!(
        matches!(response, Response::Loaded { .. }),
        "install failed: {response:?}"
    );
    let (listener, addr) = ServerListener::bind_tcp("127.0.0.1:0").expect("bind");
    let server2 = server.clone();
    let runner = std::thread::spawn(move || server2.run(vec![listener]));
    ServerHandle {
        server,
        addr,
        runner,
    }
}

struct ServerHandle {
    server: std::sync::Arc<CircuitServer>,
    addr: SocketAddr,
    runner: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    fn shut_down(self) {
        let mut client = LineClient::connect(self.addr).expect("connect");
        client
            .call(&RequestFrame::new(Request::Shutdown))
            .expect("shutdown");
        self.runner.join().expect("runner").expect("run");
        self.server.join_workers();
    }
}

fn size_frame(spec: f64) -> RequestFrame {
    RequestFrame::new(Request::Size {
        spec: Some(spec),
        target: None,
        return_sizes: false,
    })
    .for_circuit("dut")
}

/// Phase 1: the closed-loop fleet. Returns per-kind stats.
fn closed_loop(problem: &SizingProblem) -> (Vec<KindStats>, Duration) {
    let handle = start_server(
        ServerConfig {
            session: SessionConfig::warm(),
            ..Default::default()
        },
        problem,
    );
    let addr = handle.addr;
    let clients = 4;
    let rounds = if smoke() { 6 } else { 60 };
    let num_vertices = problem.dag().num_vertices();
    let dmin = problem.dmin();

    let started = Instant::now();
    let per_client: Vec<(Vec<u128>, Vec<u128>, Vec<u128>)> = std::thread::scope(|scope| {
        let drivers: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = LineClient::connect_timeout(addr, Duration::from_secs(10))
                        .expect("connect");
                    client
                        .set_read_timeout(Some(Duration::from_secs(120)))
                        .expect("read timeout");
                    let specs = [0.85, 0.8, 0.75];
                    let (mut size_l, mut what_if_l, mut sweep_l) =
                        (Vec::new(), Vec::new(), Vec::new());
                    for round in 0..rounds {
                        let spec = specs[round % specs.len()];
                        let t0 = Instant::now();
                        let line = client
                            .send_with_retry(&size_frame(spec), 64, Duration::from_millis(1))
                            .expect("size");
                        assert!(line.contains("\"type\":\"size\""), "{line}");
                        size_l.push(t0.elapsed().as_micros());

                        let t0 = Instant::now();
                        let what_if = RequestFrame::new(Request::WhatIf {
                            sizes: vec![1.0; num_vertices],
                            spec: None,
                            target: Some(0.9 * dmin),
                        })
                        .for_circuit("dut");
                        let line = client
                            .send_with_retry(&what_if, 64, Duration::from_millis(1))
                            .expect("what_if");
                        assert!(line.contains("\"type\":\"what_if\""), "{line}");
                        what_if_l.push(t0.elapsed().as_micros());

                        // One client mixes in periodic sweeps so every
                        // kind is represented without drowning the rest.
                        if c == 0 && round % 3 == 0 {
                            let sweep = RequestFrame::new(Request::Sweep {
                                specs: vec![0.9, 0.8],
                            })
                            .for_circuit("dut");
                            let t0 = Instant::now();
                            let line = client
                                .send_with_retry(&sweep, 64, Duration::from_millis(1))
                                .expect("sweep");
                            assert!(line.contains("\"type\":\"sweep\""), "{line}");
                            sweep_l.push(t0.elapsed().as_micros());
                        }
                    }
                    (size_l, what_if_l, sweep_l)
                })
            })
            .collect();
        drivers
            .into_iter()
            .map(|d| d.join().expect("driver"))
            .collect()
    });
    let elapsed = started.elapsed();
    handle.shut_down();

    let (mut size_l, mut what_if_l, mut sweep_l) = (Vec::new(), Vec::new(), Vec::new());
    for (s, w, sw) in per_client {
        size_l.extend(s);
        what_if_l.extend(w);
        sweep_l.extend(sw);
    }
    let stats = vec![
        kind_stats("size", size_l, elapsed),
        kind_stats("what_if", what_if_l, elapsed),
        kind_stats("sweep", sweep_l, elapsed),
    ];
    (stats, elapsed)
}

struct OverloadReport {
    offered: usize,
    ok: usize,
    busy: usize,
    expired: usize,
    timed_out: usize,
    busy_p50_us: u128,
    busy_p99_us: u128,
    busy_p999_us: u128,
    rss_before_kb: u64,
    rss_after_kb: u64,
}

/// Phase 2: open-loop flood against a tiny admission bound.
fn overload(problem: &SizingProblem) -> OverloadReport {
    // Every admitted sweep runs the D/W loop at each of its specs, and
    // requests arrive at least four times as often as a warm session
    // serves a flood sweep, so the worker is saturated on any host
    // however fast the solver gets. The flood opens
    // with a long sweep whose deadline is half what that sweep takes
    // on a warm session: the idle circuit admits and starts it at
    // once, and it answers `timeout` mid-computation, exercising
    // cooperative cancellation too.
    let long_sweep = Request::Sweep {
        specs: (0..32).map(|k| 0.95 - 0.015 * f64::from(k)).collect(),
    };
    let mut warm = problem.session(SessionConfig::warm());
    warm.serve(&long_sweep);
    let t0 = Instant::now();
    warm.serve(&long_sweep);
    let long_sweep_deadline_ms = t0.elapsed().as_secs_f64() * 1e3 / 2.0;
    let sweep = Request::Sweep {
        specs: vec![0.9, 0.8, 0.7],
    };
    let sweep_time = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            warm.serve(&sweep);
            t0.elapsed()
        })
        .min()
        .expect("three timings");
    let handle = start_server(
        ServerConfig {
            max_queue_depth: 8,
            default_deadline_ms: Some(250.0),
            ..Default::default()
        },
        problem,
    );
    let offered = if smoke() { 200 } else { 2000 };
    let interval = if smoke() {
        Duration::from_micros(500)
    } else {
        Duration::from_micros(300)
    }
    .min(sweep_time / 4);
    let rss_before_kb = rss_kb();

    let stream = TcpStream::connect(handle.addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut write_half = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let sent_at: Mutex<HashMap<u64, Instant>> = Mutex::new(HashMap::new());

    let (ok, busy, expired, timed_out, mut busy_lats) = std::thread::scope(|scope| {
        let sent_at = &sent_at;
        // Open-loop arrival: send on the clock, never wait for answers.
        // Sweeps saturate the worker; every 8th request is a `size`
        // whose deadline has already passed, so the ones that are
        // admitted into an momentarily-empty queue are shed `expired`.
        scope.spawn(move || {
            let t0 = Instant::now();
            for i in 0..offered as u64 {
                let frame = if i == 0 {
                    RequestFrame::new(long_sweep.clone())
                        .for_circuit("dut")
                        .with_deadline_ms(long_sweep_deadline_ms)
                } else if i % 8 == 7 {
                    size_frame(0.8).with_deadline_ms(0.0)
                } else {
                    RequestFrame::new(sweep.clone()).for_circuit("dut")
                };
                let mut line = frame.with_id(&i.to_string()).to_json_line();
                line.push('\n');
                sent_at.lock().unwrap().insert(i, Instant::now());
                write_half.write_all(line.as_bytes()).expect("send");
                let next = interval * (i as u32 + 1);
                if let Some(sleep) = next.checked_sub(t0.elapsed()) {
                    std::thread::sleep(sleep);
                }
            }
            write_half.flush().expect("flush");
        });

        let (mut ok, mut busy, mut expired, mut timed_out) = (0usize, 0usize, 0usize, 0usize);
        let mut busy_lats: Vec<u128> = Vec::new();
        let mut line = String::new();
        for _ in 0..offered {
            line.clear();
            let n = reader.read_line(&mut line).expect("recv");
            assert!(n > 0, "connection must survive the flood");
            let trimmed = line.trim_end();
            let id: u64 = extract_id(trimmed)
                .expect("id echoed")
                .trim_matches('"')
                .parse()
                .expect("numeric id");
            let latency = sent_at
                .lock()
                .unwrap()
                .remove(&id)
                .expect("id sent")
                .elapsed();
            match extract_error_code(trimmed).as_deref() {
                Some("busy") => {
                    busy += 1;
                    busy_lats.push(latency.as_micros());
                }
                Some("expired") => expired += 1,
                Some("timeout") => timed_out += 1,
                Some(other) => panic!("unexpected error code `{other}`: {trimmed}"),
                None => ok += 1,
            }
        }
        (ok, busy, expired, timed_out, busy_lats)
    });
    let rss_after_kb = rss_kb();
    handle.shut_down();

    busy_lats.sort_unstable();
    let report = OverloadReport {
        offered,
        ok,
        busy,
        expired,
        timed_out,
        busy_p50_us: percentile(&busy_lats, 0.50),
        busy_p99_us: percentile(&busy_lats, 0.99),
        busy_p999_us: percentile(&busy_lats, 0.999),
        rss_before_kb,
        rss_after_kb,
    };

    // The overload contract, asserted so CI catches regressions:
    // rejection is the common outcome, it is fast even while the
    // worker is saturated, work past its deadline stops, and the flood
    // cannot balloon memory.
    let min_busy = if smoke() { 1 } else { report.offered / 4 };
    assert!(
        report.busy >= min_busy,
        "flood must be rejected at admission (busy={} of {}, need >= {min_busy})",
        report.busy,
        report.offered
    );
    assert!(
        report.timed_out >= 1,
        "the opening sweep must stop at its deadline (timeout={})",
        report.timed_out
    );
    let busy_bound_us = if smoke() { 100_000 } else { 10_000 };
    assert!(
        report.busy_p99_us < busy_bound_us,
        "busy p99 {}us exceeds {}us while saturated",
        report.busy_p99_us,
        busy_bound_us
    );
    if report.rss_before_kb > 0 {
        let growth_kb = report.rss_after_kb.saturating_sub(report.rss_before_kb);
        assert!(
            growth_kb < 256 * 1024,
            "RSS grew {growth_kb} KiB during the flood — queue is not bounded"
        );
    }
    report
}

/// One client's read-heavy run: what-if latencies plus the recorded
/// (request line, response line) pairs for the byte-identity replay.
type ClientTrace = (Vec<u128>, Vec<(String, String)>);

struct ReadPhase {
    what_ifs: usize,
    req_per_s: f64,
    p50_us: u128,
    p99_us: u128,
    served: Vec<u64>,
    diff_hits: u64,
    full_timings: u64,
    invalidations: u64,
    recorded: Vec<(String, String)>,
}

/// Extracts an unsigned integer field from a response line.
fn stat_u64(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let start = line
        .find(&pat)
        .unwrap_or_else(|| panic!("`{key}` missing in {line}"))
        + pat.len();
    line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer field")
}

/// Extracts the `replica_served` per-replica counter array.
fn stat_served(line: &str) -> Vec<u64> {
    let pat = "\"replica_served\":[";
    let start = line.find(pat).expect("replica roll-up present") + pat.len();
    let end = start + line[start..].find(']').expect("closed array");
    line[start..end]
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("counter"))
        .collect()
}

/// Phase 3: read-heavy fan-out — 8 closed-loop clients at 95%
/// `what_if` / 5% `size`, run once with replicas and once on the
/// single-worker path. Each client streams near-identical candidates
/// (one gate nudged per round) so replicas answer through the diff
/// cache; client 0 records its first what-ifs for the byte-identity
/// replay in `main`.
fn read_heavy(problem: &SizingProblem, replicas: usize) -> ReadPhase {
    let handle = start_server(
        ServerConfig {
            replicas,
            session: SessionConfig::warm(),
            ..Default::default()
        },
        problem,
    );
    let addr = handle.addr;
    let clients = 8;
    let rounds = if smoke() { 40 } else { 400 };
    let n = problem.dag().num_vertices();
    let dmin = problem.dmin();

    let started = Instant::now();
    let per_client: Vec<ClientTrace> = std::thread::scope(|scope| {
        let drivers: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = LineClient::connect_timeout(addr, Duration::from_secs(10))
                        .expect("connect");
                    client
                        .set_read_timeout(Some(Duration::from_secs(120)))
                        .expect("read timeout");
                    let mut sizes = vec![1.0f64; n];
                    let mut lats = Vec::new();
                    let mut recorded = Vec::new();
                    for k in 0..rounds {
                        if k % 20 == 19 {
                            let spec = if k % 40 == 19 { 0.85 } else { 0.8 };
                            let line = client
                                .send_with_retry(&size_frame(spec), 64, Duration::from_millis(1))
                                .expect("size");
                            assert!(line.contains("\"type\":\"size\""), "{line}");
                            continue;
                        }
                        sizes[(c * 31 + k * 7) % n] = 1.0 + ((c + k) % 5) as f64 * 0.5;
                        let frame = RequestFrame::new(Request::WhatIf {
                            sizes: sizes.clone(),
                            spec: None,
                            target: Some(0.9 * dmin),
                        })
                        .for_circuit("dut");
                        let t0 = Instant::now();
                        let line = client
                            .send_with_retry(&frame, 64, Duration::from_millis(1))
                            .expect("what_if");
                        assert!(line.contains("\"type\":\"what_if\""), "{line}");
                        lats.push(t0.elapsed().as_micros());
                        if c == 0 && recorded.len() < 20 {
                            recorded.push((frame.to_json_line(), line));
                        }
                    }
                    (lats, recorded)
                })
            })
            .collect();
        drivers
            .into_iter()
            .map(|d| d.join().expect("driver"))
            .collect()
    });
    let elapsed = started.elapsed();

    let mut admin = LineClient::connect(addr).expect("connect");
    let stats = admin
        .call(&RequestFrame::new(Request::Stats).for_circuit("dut"))
        .expect("stats");
    let (served, diff_hits, full_timings, invalidations) = if replicas > 0 {
        (
            stat_served(&stats),
            stat_u64(&stats, "replica_diff_hits"),
            stat_u64(&stats, "replica_full_timings"),
            stat_u64(&stats, "replica_invalidations"),
        )
    } else {
        (Vec::new(), 0, 0, 0)
    };
    handle.shut_down();

    let (mut lats, mut recorded) = (Vec::new(), Vec::new());
    for (l, r) in per_client {
        lats.extend(l);
        recorded.extend(r);
    }
    lats.sort_unstable();
    ReadPhase {
        what_ifs: lats.len(),
        req_per_s: lats.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: percentile(&lats, 0.50),
        p99_us: percentile(&lats, 0.99),
        served,
        diff_hits,
        full_timings,
        invalidations,
        recorded,
    }
}

fn main() {
    let problem = prepare_problem();

    let (kinds, closed_elapsed) = closed_loop(&problem);
    println!(
        "{:<10} {:>7} {:>10} {:>10} {:>10} {:>10}",
        "kind", "count", "req/s", "p50 us", "p99 us", "p999 us"
    );
    for k in &kinds {
        println!(
            "{:<10} {:>7} {:>10.1} {:>10} {:>10} {:>10}",
            k.kind, k.count, k.req_per_s, k.p50_us, k.p99_us, k.p999_us
        );
    }

    let over = overload(&problem);
    println!(
        "overload: offered {} → ok {} busy {} expired {} timeout {} | busy p50/p99/p999 \
         {}/{}/{} us | rss {} → {} KiB",
        over.offered,
        over.ok,
        over.busy,
        over.expired,
        over.timed_out,
        over.busy_p50_us,
        over.busy_p99_us,
        over.busy_p999_us,
        over.rss_before_kb,
        over.rss_after_kb
    );

    let replicated = read_heavy(&problem, 2);
    let single = read_heavy(&problem, 0);
    // Fan-out proof: on a 1-CPU container the speedup is flat, but the
    // per-replica counters must show both replicas served reads and
    // the diff cache answered most of them.
    assert_eq!(
        replicated.served.len(),
        2,
        "stats must roll up one counter per replica: {:?}",
        replicated.served
    );
    assert!(
        replicated.served.iter().all(|&s| s > 0),
        "every replica must serve reads (fan-out): {:?}",
        replicated.served
    );
    assert!(
        replicated.diff_hits > 0,
        "near-identical candidate streams must hit the diff cache"
    );
    // Byte-identity spot-check: replica-served what-ifs replay exactly
    // on a fresh single-worker server.
    let fresh = start_server(
        ServerConfig {
            session: SessionConfig::warm(),
            ..Default::default()
        },
        &problem,
    );
    let mut replayer = LineClient::connect(fresh.addr).expect("connect");
    for (request, expected) in &replicated.recorded {
        replayer.send_raw(request).expect("send");
        let got = replayer.recv().expect("recv").expect("line");
        assert_eq!(
            &got, expected,
            "replica response must replay byte-identically on a single worker"
        );
    }
    fresh.shut_down();
    let speedup = replicated.req_per_s / single.req_per_s.max(1e-9);
    println!(
        "read_heavy: replicas=2 {} what_ifs at {:.1} req/s (p50/p99 {}/{} us, served {:?}, \
         diff {}/{} full, {} invalidations) | replicas=0 {:.1} req/s (p50/p99 {}/{} us) | \
         speedup {:.2}x | {} lines replayed byte-identical",
        replicated.what_ifs,
        replicated.req_per_s,
        replicated.p50_us,
        replicated.p99_us,
        replicated.served,
        replicated.diff_hits,
        replicated.full_timings,
        replicated.invalidations,
        single.req_per_s,
        single.p50_us,
        single.p99_us,
        speedup,
        replicated.recorded.len()
    );

    let mut json = String::from("{\n  \"bench\": \"load_harness\",\n");
    let _ = writeln!(json, "  \"smoke\": {},", smoke());
    let _ = writeln!(
        json,
        "  \"closed_loop\": {{\n    \"clients\": 4,\n    \"seconds\": {:.3},\n    \"kinds\": {{",
        closed_elapsed.as_secs_f64()
    );
    for (i, k) in kinds.iter().enumerate() {
        let _ = writeln!(
            json,
            "      \"{}\": {{\"count\": {}, \"req_per_s\": {:.1}, \"p50_us\": {}, \
             \"p99_us\": {}, \"p999_us\": {}}}{}",
            k.kind,
            k.count,
            k.req_per_s,
            k.p50_us,
            k.p99_us,
            k.p999_us,
            if i + 1 < kinds.len() { "," } else { "" }
        );
    }
    json.push_str("    }\n  },\n");
    let _ = writeln!(
        json,
        "  \"overload\": {{\"offered\": {}, \"ok\": {}, \"busy\": {}, \"expired\": {}, \
         \"timeout\": {}, \"busy_p50_us\": {}, \"busy_p99_us\": {}, \"busy_p999_us\": {}, \
         \"rss_before_kb\": {}, \"rss_after_kb\": {}}},",
        over.offered,
        over.ok,
        over.busy,
        over.expired,
        over.timed_out,
        over.busy_p50_us,
        over.busy_p99_us,
        over.busy_p999_us,
        over.rss_before_kb,
        over.rss_after_kb
    );
    let served_json = replicated
        .served
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        json,
        "  \"read_heavy\": {{\n    \"clients\": 8,\n    \"read_fraction\": 0.95,\n    \
         \"replicated\": {{\"replicas\": 2, \"what_ifs\": {}, \"req_per_s\": {:.1}, \
         \"p50_us\": {}, \"p99_us\": {}, \"replica_served\": [{}], \"diff_hits\": {}, \
         \"full_timings\": {}, \"invalidations\": {}}},\n    \
         \"single\": {{\"replicas\": 0, \"what_ifs\": {}, \"req_per_s\": {:.1}, \
         \"p50_us\": {}, \"p99_us\": {}}},\n    \
         \"what_if_speedup\": {:.2},\n    \"replayed_byte_identical\": {}\n  }}\n}}",
        replicated.what_ifs,
        replicated.req_per_s,
        replicated.p50_us,
        replicated.p99_us,
        served_json,
        replicated.diff_hits,
        replicated.full_timings,
        replicated.invalidations,
        single.what_ifs,
        single.req_per_s,
        single.p50_us,
        single.p99_us,
        speedup,
        replicated.recorded.len()
    );
    mft_bench::write_report("BENCH_server.json", &json);
}
