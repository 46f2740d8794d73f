//! End-to-end serve benchmark for the MINFLOTRANSIT `CircuitServer`.
//!
//! ```text
//! e2ebench --workload <c6288_flow|iscas_mixed|what_if_10k> --seed <n>
//!          --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! One process hosts a `CircuitServer` on loopback TCP and drives it
//! with at most two client connections. Each repetition loads the
//! workload's circuits as inline `.bench` text (the setup), sends the
//! workload's fixed, seeded request script, and unloads; repetitions
//! continue until `--seconds` have passed. Every request is timed from
//! request line to response line, and the outputs are checked against
//! cold recomputations.
//!
//! With `--trace 1` the last repetition is also replayed in process
//! through each layer's public functions with a span around every call
//! (see `replay.rs`), which gives the per-layer metrics; the replay must
//! reproduce every served response byte for byte.
//!
//! The last line of stdout is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! Lines before it (prefixed `#`) record the run's context.

mod json;
mod replay;
mod trace;
mod workload;

use mft_core::{
    CircuitServer, LineClient, LoadRequest, Request, RequestFrame, Response, ServerConfig,
    ServerListener,
};
use replay::{Counters, ReplayCircuit};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Layer, Tracer};
use workload::{Candidates, Kind, Rep, Rng, Script, Workload};

/// `setup_s` is the median over at least `SETUP_SAMPLES` setups per
/// run; cheap setups are topped up to `SETUP_SAMPLES_MAX` while the
/// extra setups stay within `SETUP_TOP_UP`.
const SETUP_SAMPLES: usize = 5;
const SETUP_SAMPLES_MAX: usize = 15;
const SETUP_TOP_UP: Duration = Duration::from_secs(2);

/// The paper's Table 1 saving for c6288 at spec 0.4, percent.
const PAPER_C6288_SAVING: f64 = 16.5;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "e2ebench: {e}\nusage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
                workload::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Everything the served repetitions produced.
struct Measured {
    setups: Vec<Duration>,
    scripts: Vec<Duration>,
    /// Latencies pooled over all repetitions, by kind.
    latencies: Vec<(Kind, Duration)>,
    /// Mean `saving_percent` of the `size` responses.
    area_saving_pct: f64,
    attempted: usize,
    errors: usize,
    refused: usize,
    peak_rss_mb: f64,
    last: Rep,
}

impl Measured {
    fn of(&self, kind: Kind) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .latencies
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, d)| d.as_secs_f64())
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

fn run(args: &Args) -> Result<String, String> {
    let w = workload::workload(&args.workload, args.smoke).ok_or_else(|| {
        format!(
            "unknown workload `{}` ({})",
            args.workload,
            workload::WORKLOADS.join(" | ")
        )
    })?;
    let benches: Vec<String> = w
        .circuits
        .iter()
        .map(|c| c.source.bench_text())
        .collect::<Result<_, _>>()?;
    let loads: Vec<String> = w
        .circuits
        .iter()
        .zip(&benches)
        .map(|(def, bench)| workload::load_line(def, bench))
        .collect();

    let server = CircuitServer::new(ServerConfig::default());
    let (listener, addr) =
        ServerListener::bind_tcp("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let runner = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run(vec![listener]))
    };
    let measured = measure(addr, &w, &loads, args);
    // Stop the server whatever happened, and wait for every thread.
    let stopped = LineClient::connect(addr)
        .and_then(|mut c| c.call(&RequestFrame::new(Request::Shutdown)))
        .map(|_| ());
    if stopped.is_err() {
        server.begin_shutdown();
    }
    let ran = runner
        .join()
        .map_err(|_| "server thread panicked".to_owned())?;
    server.join_workers();
    ran.map_err(|e| format!("server: {e}"))?;
    let m = measured?;

    let checks = check_outputs(&w, &benches, &m.last, args.seed)?;
    let mut failed = m.errors + checks.failed;
    let mut out = String::new();
    let mut metrics = Metrics::default();
    context_lines(&mut out, args, &w, &m, &checks);
    if args.trace {
        let t = replay(&w, &loads, &m.last, args.seed)?;
        failed += t.mismatches + t.span_violations;
        trace_metrics(&mut metrics, &mut out, &m, &t);
    } else {
        let lead = m.of(w.lead);
        metrics.push("setup_s", median(&secs(&m.setups)), "s");
        metrics.push("script_s", median(&secs(&m.scripts)), "s");
        let mean = lead.iter().sum::<f64>() / lead.len().max(1) as f64;
        metrics.push("lead_ms_mean", 1e3 * mean, "ms");
        metrics.push("peak_rss_mb", m.peak_rss_mb, "MB");
    }
    let _ = writeln!(
        out,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        m.attempted,
        metrics.0
    );
    Ok(out)
}

/// Runs repetitions until `--seconds` have passed (at least one), then
/// tops up the setup samples.
fn measure(
    addr: SocketAddr,
    w: &Workload,
    loads: &[String],
    args: &Args,
) -> Result<Measured, String> {
    let started = Instant::now();
    let (mut setups, mut scripts, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut errors, mut refused) = (0, 0, 0);
    let (mut saving_sum, mut saving_n) = (0.0, 0usize);
    let mut peak_rss = None;
    let last = loop {
        let rep = workload::run_rep(addr, w, loads, args.seed)?;
        // Later repetitions repeat the same work; reading the high-water
        // mark after the first keeps allocator noise from extra
        // repetitions out of it.
        peak_rss.get_or_insert_with(peak_rss_mb);
        setups.push(rep.setup);
        scripts.push(rep.script);
        attempted += rep.exchanges.len() + rep.registry_requests;
        errors += rep.registry_failures;
        for e in &rep.exchanges {
            latencies.push((e.kind, e.latency));
            if e.is_error() {
                errors += 1;
                eprintln!("e2ebench: error response: {}", truncate(&e.response));
                if mft_core::extract_error_code(&e.response).as_deref() == Some("busy") {
                    refused += 1;
                }
            } else if e.kind == Kind::Size {
                if let Some(s) = json::number(&e.response, "saving_percent") {
                    saving_sum += s;
                    saving_n += 1;
                }
            }
        }
        if started.elapsed() >= Duration::from_secs(args.seconds) {
            break rep;
        }
    };
    let topping = Instant::now();
    while setups.len() < SETUP_SAMPLES
        || (setups.len() < SETUP_SAMPLES_MAX && topping.elapsed() < SETUP_TOP_UP)
    {
        setups.push(workload::setup_cycle(addr, w, loads)?);
        attempted += 2 * w.circuits.len();
    }
    Ok(Measured {
        setups,
        scripts,
        latencies,
        area_saving_pct: if saving_n > 0 {
            saving_sum / saving_n as f64
        } else {
            0.0
        },
        attempted,
        errors,
        refused,
        peak_rss_mb: peak_rss.unwrap_or_default(),
        last,
    })
}

/// Output-check tallies.
#[derive(Debug, Default)]
struct Checks {
    sizes: usize,
    what_ifs: usize,
    failed: usize,
}

/// Re-times every `size`/`size_power` answer of the last repetition
/// with a cold `critical_path` (must meet its target within 1e-6) and
/// recomputes its area (must match bit for bit); compares a seeded
/// sample of `what_if` answers against cold `delay_of`/`area_of`, bit
/// for bit.
fn check_outputs(w: &Workload, benches: &[String], rep: &Rep, seed: u64) -> Result<Checks, String> {
    let mut problems: Vec<Option<mft_core::SizingProblem>> = vec![None; w.circuits.len()];
    let mut problem = |i: usize| -> Result<mft_core::SizingProblem, String> {
        if problems[i].is_none() {
            problems[i] = Some(replay::prepare(w.circuits[i].name, &benches[i])?);
        }
        Ok(problems[i].clone().expect("just prepared"))
    };
    let mut checks = Checks::default();
    let mut rng = Rng::new(seed ^ 0xC4EC);
    let mut stream = match w.script {
        Script::Stream { fresh_every, .. } => {
            Some(Candidates::new(seed, rep.vertices[0], fresh_every))
        }
        _ => None,
    };
    let fail = |what: &str, line: &str| {
        eprintln!("e2ebench: check failed ({what}): {}", truncate(line));
    };
    for (j, e) in rep.exchanges.iter().enumerate() {
        let stream_sizes = match (&mut stream, e.kind) {
            (Some(s), Kind::WhatIf) => Some(s.next_sizes().to_vec()),
            _ => None,
        };
        if e.is_error() {
            continue;
        }
        match e.kind {
            Kind::Size | Kind::SizePower => {
                let p = problem(e.circuit)?;
                checks.sizes += 1;
                let (Some(sizes), Some(target), Some(area)) = (
                    json::numbers(&e.response, "sizes"),
                    json::number(&e.response, "target"),
                    json::number(&e.response, "area"),
                ) else {
                    checks.failed += 1;
                    fail("size response fields", &e.response);
                    continue;
                };
                let cp = mft_sta::critical_path(
                    p.dag(),
                    &mft_delay::DelayModel::delays(p.model(), &sizes),
                )
                .map_err(|err| err.to_string())?;
                if cp > target * (1.0 + 1e-6) || p.area_of(&sizes).to_bits() != area.to_bits() {
                    checks.failed += 1;
                    fail("size re-time or area", &e.response);
                }
            }
            Kind::WhatIf if j == 0 || rng.below(8) == 0 => {
                let p = problem(e.circuit)?;
                let sizes = match (stream_sizes, &e.request) {
                    (Some(sizes), _) => sizes,
                    (None, Some(line)) => {
                        match RequestFrame::from_json_line(line).map(|f| f.request) {
                            Ok(Request::WhatIf { sizes, .. }) => sizes,
                            _ => return Err("unparsable what_if request line".into()),
                        }
                    }
                    (None, None) => return Err("what_if request line missing".into()),
                };
                checks.what_ifs += 1;
                let same = |key: &str, v: f64| {
                    json::number(&e.response, key).map(f64::to_bits) == Some(v.to_bits())
                };
                if !same("critical_path", p.delay_of(&sizes)) || !same("area", p.area_of(&sizes)) {
                    checks.failed += 1;
                    fail("what_if vs cold delay_of/area_of", &e.response);
                }
            }
            _ => {}
        }
    }
    Ok(checks)
}

/// What the traced replay measured.
struct Traced {
    tracer: Tracer,
    counters: Counters,
    /// Wall time of each replayed request (spans included).
    walls: Vec<f64>,
    /// Layer self time summed inside the replayed requests (s).
    attributed: f64,
    /// Socket latency minus replayed service time, per request (s).
    waits: Vec<f64>,
    /// `ReadView::what_if` call times (s).
    readview: Vec<f64>,
    request_bytes: usize,
    response_bytes: usize,
    replayed: usize,
    mismatches: usize,
    span_violations: usize,
    /// Served script time of the replayed repetition (untraced).
    served_script: Duration,
}

/// Replays the last repetition in process with spans on every layer
/// call, and compares each replayed response with the served bytes.
fn replay(w: &Workload, loads: &[String], rep: &Rep, seed: u64) -> Result<Traced, String> {
    let mut tr = Tracer::default();
    let mut counters = Counters::default();
    let mut circuits = Vec::new();
    for (def, load) in w.circuits.iter().zip(loads) {
        let bench = match tr.span(Layer::LoadParse, || RequestFrame::from_json_line(load)) {
            Ok(RequestFrame {
                request:
                    Request::Load(LoadRequest {
                        bench: Some(bench), ..
                    }),
                ..
            }) => bench,
            _ => return Err(format!("unparsable load line for {}", def.name)),
        };
        let problem = tr.span(Layer::Prepare, || replay::prepare(def.name, &bench))?;
        circuits.push(ReplayCircuit::new(problem, def.preset));
    }
    let mut stream = match w.script {
        Script::Stream { fresh_every, .. } => {
            Some(Candidates::new(seed, rep.vertices[0], fresh_every))
        }
        _ => None,
    };
    let mut t = Traced {
        tracer: Tracer::default(),
        counters: Counters::default(),
        walls: Vec::new(),
        attributed: 0.0,
        waits: Vec::new(),
        readview: Vec::new(),
        request_bytes: 0,
        response_bytes: 0,
        replayed: 0,
        mismatches: 0,
        span_violations: 0,
        served_script: rep.script,
    };
    for e in &rep.exchanges {
        let line = match (&e.request, &mut stream) {
            (Some(line), _) => line.clone(),
            (None, Some(s)) => {
                let spec = s.spec;
                workload::what_if_line(w.circuits[e.circuit].name, s.next_sizes(), spec)
            }
            (None, None) => return Err("request line missing".into()),
        };
        if e.kind == Kind::Stats {
            continue;
        }
        let attributed = tr.attributed();
        let sta = tr.totals(Layer::Sta).self_time;
        tr.enter(Layer::Request);
        let frame = tr.span(Layer::Parse, || RequestFrame::from_json_line(&line));
        let response = match frame {
            Ok(frame) => circuits[e.circuit].serve(&frame.request, &mut tr, &mut counters),
            Err(err) => Some(Response::error(err.to_string())),
        };
        let encoded = response.map(|r| tr.span(Layer::Encode, || r.to_json_line()));
        let wall = tr.exit();
        let attributed = tr.attributed() - attributed;
        if attributed > wall {
            t.span_violations += 1;
        }
        t.attributed += attributed.as_secs_f64();
        if e.kind == Kind::WhatIf {
            t.readview
                .push((tr.totals(Layer::Sta).self_time - sta).as_secs_f64());
        }
        t.walls.push(wall.as_secs_f64());
        t.waits.push(e.latency.as_secs_f64() - wall.as_secs_f64());
        t.request_bytes += line.len();
        t.response_bytes += e.response.len();
        t.replayed += 1;
        if encoded.as_deref() != Some(e.response.as_str()) {
            t.mismatches += 1;
            eprintln!(
                "e2ebench: replay mismatch on {}:\n  served   {}\n  replayed {}",
                w.circuits[e.circuit].name,
                truncate(&e.response),
                truncate(encoded.as_deref().unwrap_or("(not replayed)"))
            );
        }
    }
    t.tracer = tr;
    t.counters = counters;
    t.readview.sort_by(f64::total_cmp);
    t.waits.sort_by(f64::total_cmp);
    Ok(t)
}

/// `name: {value, unit}` pairs in output order.
#[derive(Default)]
struct Metrics(String);

impl Metrics {
    fn push(&mut self, name: &str, value: f64, unit: &str) {
        if !self.0.is_empty() {
            self.0.push(',');
        }
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            self.0,
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
}

fn trace_metrics(metrics: &mut Metrics, out: &mut String, m: &Measured, t: &Traced) {
    let tr = &t.tracer;
    let c = &t.counters;
    let s = |layer| tr.totals(layer).self_time.as_secs_f64();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let wall: f64 = t.walls.iter().sum();
    let dphase = s(Layer::DphaseBuild) + s(Layer::DphaseInputs) + s(Layer::DphaseSolve);
    let mut push = |name, value, unit| metrics.push(name, value, unit);
    push("prepare.s", s(Layer::Prepare), "s");
    push("prepare.load_parse_s", s(Layer::LoadParse), "s");
    push("tilos.s", s(Layer::Tilos), "s");
    push("tilos.bumps", c.tilos_bumps as f64, "count");
    push("tilos.snapshot_hits", c.snapshot_hits as f64, "count");
    push("tilos.share", ratio(s(Layer::Tilos), wall), "ratio");
    push("dphase.build_s", s(Layer::DphaseBuild), "s");
    push("dphase.inputs_s", s(Layer::DphaseInputs), "s");
    push("dphase.solve_s", s(Layer::DphaseSolve), "s");
    push("dphase.solves", c.dphase_solves as f64, "count");
    push("dphase.pivots", c.dphase_pivots as f64, "count");
    push(
        "dphase.us_per_pivot",
        1e6 * ratio(s(Layer::DphaseSolve), c.dphase_pivots as f64),
        "us",
    );
    push(
        "dphase.warm_ratio",
        ratio(c.dphase_warm as f64, c.dphase_solves as f64),
        "ratio",
    );
    push("dphase.fallbacks", c.dphase_fallbacks as f64, "count");
    push("dphase.share", ratio(dphase, wall), "ratio");
    push("wphase.s", s(Layer::Wphase), "s");
    push("wphase.updates", c.wphase_updates as f64, "count");
    push(
        "wphase.seeded_ratio",
        ratio(c.wphase_seeded as f64, c.wphase_solves as f64),
        "ratio",
    );
    push("wphase.share", ratio(s(Layer::Wphase), wall), "ratio");
    push("sta.s", s(Layer::Sta), "s");
    push("sta.full_passes", c.sta_full_passes as f64, "count");
    push(
        "sta.vertices_touched",
        c.sta_vertices_touched as f64,
        "count",
    );
    push("sta.share", ratio(s(Layer::Sta), wall), "ratio");
    push("optimizer.iterations", c.iterations as f64, "count");
    push(
        "optimizer.accept_ratio",
        ratio(c.accepted as f64, c.iterations as f64),
        "ratio",
    );
    let per_call = |layer| 1e6 * ratio(s(layer), tr.totals(layer).calls as f64);
    push("protocol.parse_us", per_call(Layer::Parse), "us");
    push("protocol.encode_us", per_call(Layer::Encode), "us");
    push(
        "protocol.request_bytes",
        ratio(t.request_bytes as f64, t.replayed as f64),
        "bytes",
    );
    push(
        "protocol.response_bytes",
        ratio(t.response_bytes as f64, t.replayed as f64),
        "bytes",
    );
    push("server.wait_ms_p50", 1e3 * quantile(&t.waits, 0.5), "ms");
    push("server.refused", m.refused as f64, "count");
    push("readview.us_p50", 1e6 * quantile(&t.readview, 0.5), "us");
    push(
        "readview.diff_hit_ratio",
        ratio(c.diff_hits as f64, c.what_ifs as f64),
        "ratio",
    );
    push(
        "readview.full_timings",
        (c.what_ifs - c.diff_hits) as f64,
        "count",
    );
    push(
        "served.size_ms_p50",
        1e3 * quantile(&m.of(Kind::Size), 0.5),
        "ms",
    );
    push(
        "served.size_ms_p90",
        1e3 * quantile(&m.of(Kind::Size), 0.9),
        "ms",
    );
    push(
        "served.size_power_ms_p50",
        1e3 * quantile(&m.of(Kind::SizePower), 0.5),
        "ms",
    );
    push(
        "served.sweep_ms_p50",
        1e3 * quantile(&m.of(Kind::Sweep), 0.5),
        "ms",
    );
    push(
        "served.what_if_us_p50",
        1e6 * quantile(&m.of(Kind::WhatIf), 0.5),
        "us",
    );
    push(
        "served.what_if_us_p99",
        1e6 * quantile(&m.of(Kind::WhatIf), 0.99),
        "us",
    );
    push(
        "served.error_frac",
        ratio(m.errors as f64, m.attempted as f64),
        "ratio",
    );
    push("served.area_saving_pct", m.area_saving_pct, "%");
    push(
        "trace.overhead_s",
        wall - t.served_script.as_secs_f64(),
        "s",
    );
    push("trace.attributed_ratio", ratio(t.attributed, wall), "ratio");
    push("trace.mismatches", t.mismatches as f64, "count");
    let _ = writeln!(
        out,
        "# trace: replayed {} requests ({} byte-identical), {} span-sum violations; \
         D-phase {:.1}% of replayed service time (flow solve alone {:.1}%; ROADMAP re-anchor: ~96% on warm c6288-like)",
        t.replayed,
        t.replayed - t.mismatches,
        t.span_violations,
        100.0 * ratio(dphase, wall),
        100.0 * ratio(s(Layer::DphaseSolve), wall),
    );
}

/// The `#` lines before the result: run context, sample counts behind
/// each percentile, the check tallies and the paper anchor.
fn context_lines(out: &mut String, args: &Args, w: &Workload, m: &Measured, checks: &Checks) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let _ = writeln!(
        out,
        "# context: workload={} seed={} seconds={} trace={} smoke={} nproc={nproc} profile={profile} commit={} reps={} setup_samples={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        git_commit(),
        m.scripts.len(),
        m.setups.len(),
    );
    let mut samples = String::new();
    for (kind, name) in [
        (Kind::Size, "size"),
        (Kind::SizePower, "size_power"),
        (Kind::Sweep, "sweep"),
        (Kind::WhatIf, "what_if"),
        (Kind::Stats, "stats"),
    ] {
        let v = m.of(kind);
        if !v.is_empty() {
            let _ = write!(
                samples,
                " {name}: n={} p50={:.3}ms p90={:.3}ms p99={:.3}ms;",
                v.len(),
                1e3 * quantile(&v, 0.5),
                1e3 * quantile(&v, 0.9),
                1e3 * quantile(&v, 0.99)
            );
        }
    }
    let _ = writeln!(
        out,
        "# script_s per repetition: {:?}; setup_s samples: {:?}",
        m.scripts
            .iter()
            .map(Duration::as_secs_f64)
            .collect::<Vec<_>>(),
        m.setups
            .iter()
            .map(Duration::as_secs_f64)
            .collect::<Vec<_>>()
    );
    let _ = writeln!(
        out,
        "# latency samples (a percentile is meaningful only with >= 10 samples beyond it):{samples}"
    );
    let _ = writeln!(
        out,
        "# checks: {} size results re-timed, {} what_if answers compared, {} failed; {} error responses ({} busy)",
        checks.sizes, checks.what_ifs, checks.failed, m.errors, m.refused
    );
    if w.name == "c6288_flow" && !args.smoke {
        let at_040 = m.last.exchanges.iter().find_map(|e| {
            let spec = json::number(&e.response, "spec")?;
            ((spec - 0.4).abs() < 1e-9).then(|| json::number(&e.response, "saving_percent"))?
        });
        if let Some(saving) = at_040 {
            let _ = writeln!(
                out,
                "# anchor: c6288-like spec 0.40 area saving {saving:.2}% vs paper Table 1 {PAPER_C6288_SAVING}% (difference {:+.2} points)",
                saving - PAPER_C6288_SAVING
            );
        }
    }
}

fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".into(),
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(v: &[Duration]) -> Vec<f64> {
    let mut v: Vec<f64> = v.iter().map(Duration::as_secs_f64).collect();
    v.sort_by(f64::total_cmp);
    v
}

fn median(sorted: &[f64]) -> f64 {
    quantile(sorted, 0.5)
}

/// Linear-interpolated quantile of a sorted sample (0 when empty).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn truncate(line: &str) -> &str {
    match line.char_indices().nth(300) {
        Some((at, _)) => &line[..at],
        None => line,
    }
}
