//! `mft` — the MINFLOTRANSIT command-line tool.
//!
//! ```text
//! mft size <file.bench> [--spec F] [--target PS] [--mode M] [--tech T] [--corner C] [--vt V] [--objective O] [--flow B] [--tilos-only] [--sizes OUT]
//! mft report <file.bench> [--mode M] [--tech T] [--corner C] [--vt V]
//! mft sweep <file.bench> --specs 0.9,0.7,0.5 [--mode M] [--tech T] [--flow B]
//! mft serve <file.bench>... [--listen ADDR] [--unix PATH] [--flow B] [--max-circuits N] [--cold] [--stats]
//! mft generate <benchmark> [--out FILE]
//! mft list
//! ```

use minflotransit::circuit::{parse_bench, write_bench, SizingMode};
use minflotransit::core::{
    curve_to_csv, format_curve, CircuitServer, Response, ServerConfig, ServerListener,
    SessionConfig, SizingProblem, SizingReport,
};
use minflotransit::flow::FlowAlgorithm;
use minflotransit::gen::Benchmark;
use minflotransit::tech::{canonical_tech, Corner, TechLibrary};
use std::fs;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
mft — MINFLOTRANSIT transistor/gate sizing (DAC 2000 reproduction)

USAGE:
  mft size <file.bench> [OPTIONS]     size a circuit to a delay target
  mft report <file.bench> [OPTIONS]   print netlist and timing statistics
  mft sweep <file.bench> --specs LIST run an area-delay trade-off sweep
  mft serve <file.bench>... [OPTIONS] serve newline-delimited JSON requests
  mft generate <benchmark> [--out F]  emit a generated benchmark as .bench
  mft list                            list the generatable benchmarks

OPTIONS:
  --spec F        delay target as a fraction of D_min (default 0.6)
  --target PS     absolute delay target in picoseconds (overrides --spec)
  --mode M        gate | wire | transistor            (default gate)
  --tech T        130nm | 180nm | 65nm                (default 130nm)
  --corner C      technology-library corner name (the registry ships
                  the same three nodes as --tech; conflicts with a
                  differing --tech)
  --vt V          threshold flavor: svt | lvt | hvt   (default svt)
  --objective O   size: area | power                  (default area)
                  `power` minimizes leakage + activity-weighted
                  switching power under the same delay target
  --flow B        D-phase flow backend: simplex (network simplex, the
                  only backend and the default; the names of removed
                  backends are rejected)
  --specs LIST    comma-separated spec fractions for `sweep`
  --jobs N        sweep worker threads (default 1; 0 means 1); results
                  are identical for every N
  --cold          disable warm starts (per-request cold runs: slower,
                  bit-reproducible with old output; sweep and serve)
  --csv FILE      also write the sweep as CSV (one row per spec,
                  unreachable specs flagged in a status column)
  --tilos-only    stop after the TILOS seed (no flow refinement)
  --report        print a detailed sizing report (histograms, breakdowns)
  --sizes FILE    write the final sizes as CSV
  --listen ADDR   serve: accept TCP connections on ADDR (e.g.
                  127.0.0.1:7317; port 0 picks one). The bound address
                  is printed as `listening on HOST:PORT`
  --unix PATH     serve: also accept connections on a Unix-domain
                  socket at PATH (stale socket files are replaced)
  --max-circuits N  serve: registry capacity (default 16)
  --max-line-bytes N  serve: request-line length limit (default 1 MiB;
                  longer lines answer an error without dropping the
                  connection — raise for huge what_if size vectors)
  --max-queue-depth N  serve: per-circuit admission bound in weighted
                  units (default 256; size=8, sweep=8/spec, others 1).
                  A full queue answers {\"code\":\"busy\"} immediately —
                  clients should retry with backoff. An idle circuit
                  always admits one request of any weight
  --deadline-ms F serve: default per-request deadline in milliseconds
                  (requests may override with their own `deadline_ms`);
                  expired queued work answers {\"code\":\"expired\"},
                  in-flight work stops at the next iteration boundary
                  and answers {\"code\":\"timeout\"} with partial stats
  --replicas N    serve: read replicas per circuit (default 0). N > 0
                  fans what_if/stats across N reader threads with a
                  per-replica candidate diff cache while mutations stay
                  on the single writer; a load request's `replicas`
                  field overrides per circuit
  --stats         serve: print cumulative per-circuit statistics (one
                  JSON line per circuit on stderr) on exit
  --out FILE      output path for `generate` (default stdout)

`mft sweep` runs warm by default: one warm session (or one per worker)
resumes the TILOS bump trajectory across targets and reuses the
D-phase flow network and W-phase SMP solver for every point, so a
sweep costs little more than its tightest spec alone.

`mft serve` answers the newline-delimited JSON protocol specified in
docs/PROTOCOL.md (one request per line in, one response per line out):
  {\"type\":\"size\",\"spec\":0.7,\"circuit\":\"c432\",\"id\":1}
  {\"type\":\"sweep\",\"specs\":[0.9,0.8,0.7]}
  {\"type\":\"what_if\",\"sizes\":[1.0,2.0],\"target\":900.0}
  {\"type\":\"load\",\"circuit\":\"c880\",\"path\":\"c880.bench\"}
  {\"type\":\"unload\",\"circuit\":\"c880\"} / {\"type\":\"list\"}
  {\"type\":\"stats\"} / {\"type\":\"shutdown\"}
Without --listen/--unix it serves exactly one preloaded circuit on
stdin/stdout, strictly in order. With a listener it runs the
concurrent multi-circuit server: each loaded circuit keeps one warm
SizingSession on its own worker thread (requests per circuit are
FIFO, circuits run in parallel); `id` is echoed on responses so
pipelined clients can correlate them. Every served value is
bit-identical to a one-shot run. A `shutdown` request stops the
server gracefully.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses a delay target given to `flag`: a number, and finite, as
/// the wire protocol requires of `spec`, `target` and `specs`.
fn parse_target(flag: &str, text: &str) -> Result<f64, String> {
    let value: f64 = text
        .parse()
        .map_err(|e: std::num::ParseFloatError| e.to_string())?;
    if !value.is_finite() {
        return Err(format!("`{flag}` must be a finite number, got `{text}`"));
    }
    Ok(value)
}

fn parse_mode(args: &[String]) -> Result<SizingMode, String> {
    match flag_value(args, "--mode").unwrap_or("gate") {
        "gate" => Ok(SizingMode::Gate),
        "wire" => Ok(SizingMode::GateWire),
        "transistor" => Ok(SizingMode::Transistor),
        other => Err(format!("unknown mode `{other}`")),
    }
}

/// Resolves `--tech`/`--corner`/`--vt` against the standard
/// [`TechLibrary`] — the same path the server's `load` request takes,
/// so the accepted names (and the error text) come from the registry.
fn parse_corner(args: &[String]) -> Result<Corner, String> {
    let library = TechLibrary::standard();
    let tech = flag_value(args, "--tech").map(canonical_tech);
    let requested = match (flag_value(args, "--corner"), tech) {
        (Some(corner), Some(tech)) if corner != tech => {
            return Err(format!(
                "--corner `{corner}` conflicts with --tech `{tech}`; pick one"
            ))
        }
        (Some(corner), _) => Some(corner),
        (None, tech) => tech,
    };
    // The error text enumerates the library's registered names.
    library
        .resolve(requested, flag_value(args, "--vt"))
        .map_err(|e| e.to_string())
}

/// Checks `--flow`: `simplex` is the only backend, so the flag selects
/// nothing, but a removed or unknown backend name is an error.
fn check_flow(args: &[String]) -> Result<(), String> {
    match flag_value(args, "--flow") {
        None => Ok(()),
        Some(name) => FlowAlgorithm::parse(name).map(drop),
    }
}

fn load_problem(path: &str, args: &[String]) -> Result<SizingProblem, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let netlist = parse_bench(path, &text).map_err(|e| e.to_string())?;
    let corner = parse_corner(args)?;
    let mode = parse_mode(args)?;
    SizingProblem::prepare_corner(&netlist, &corner, mode).map_err(|e| e.to_string())
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("missing command".into());
    };
    match command.as_str() {
        "size" => cmd_size(args),
        "report" => cmd_report(args),
        "sweep" => cmd_sweep(args),
        "serve" => cmd_serve(args),
        "generate" => cmd_generate(args),
        "list" => cmd_list(),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn cmd_size(args: &[String]) -> Result<(), String> {
    let path = args.get(1).ok_or("missing <file.bench>")?;
    // Validate the backend name before any sizing work so a typo
    // fails fast instead of after the TILOS seed.
    check_flow(args)?;
    let problem = load_problem(path, args)?;
    let target = match flag_value(args, "--target") {
        Some(t) => parse_target("--target", t)?,
        None => {
            parse_target("--spec", flag_value(args, "--spec").unwrap_or("0.6"))? * problem.dmin()
        }
    };
    println!(
        "{} | D_min {:.1} ps | target {:.1} ps ({:.2}·D_min)",
        problem.netlist().stats(),
        problem.dmin(),
        target,
        target / problem.dmin()
    );
    // One cold session: every request below runs from fresh state.
    let mut session = problem.into_session(SessionConfig::cold());
    let tilos = session.tilos_to(target).map_err(|e| e.to_string())?;
    println!(
        "TILOS:         area {:10.1}  delay {:8.1} ps  ({} bumps)",
        tilos.area, tilos.achieved_delay, tilos.bumps
    );
    // A full solution carries the persistent D-phase solver's reuse
    // statistics; a TILOS-only run reports sizes alone.
    let objective = flag_value(args, "--objective").unwrap_or("area");
    // `--report` prints the timing-engine line itself.
    let report = args.iter().any(|a| a == "--report");
    let solution = if args.iter().any(|a| a == "--tilos-only") {
        None
    } else {
        match objective {
            "area" => {
                let sol = session.size_to(target).map_err(|e| e.to_string())?;
                println!(
                    "MINFLOTRANSIT: area {:10.1}  delay {:8.1} ps  ({} iterations, {:.2}% saved)",
                    sol.area,
                    sol.achieved_delay,
                    sol.iterations,
                    100.0 * (tilos.area - sol.area) / tilos.area
                );
                if !report {
                    println!("timing engine: {}", sol.timing_stats);
                }
                Some(sol)
            }
            "power" => {
                let ps = session.size_to_power(target).map_err(|e| e.to_string())?;
                println!(
                    "MINFLOTRANSIT: power {:9.2} (leakage {:.2} + switching {:.2})  \
                     area {:10.1}  delay {:8.1} ps  ({} iterations, {:.2}% power saved)",
                    ps.power.total,
                    ps.power.leakage,
                    ps.power.switching,
                    ps.area,
                    ps.solution.achieved_delay,
                    ps.solution.iterations,
                    ps.solution.area_saving_percent()
                );
                if !report {
                    println!("timing engine: {}", ps.solution.timing_stats);
                }
                Some(ps.solution)
            }
            other => return Err(format!("unknown objective `{other}` (area | power)")),
        }
    };
    let tilos_sizes = tilos.sizes;
    let final_sizes: &[f64] = solution.as_ref().map_or(&tilos_sizes, |sol| &sol.sizes);
    if report {
        let problem = session.problem();
        let report = match &solution {
            Some(sol) => SizingReport::for_solution(problem, sol, target),
            None => SizingReport::build(problem, final_sizes, target),
        };
        print!("{}", report.to_text());
    }
    if let Some(out) = flag_value(args, "--sizes") {
        let mut csv = String::from("vertex,size\n");
        for (i, x) in final_sizes.iter().enumerate() {
            csv.push_str(&format!("{i},{x}\n"));
        }
        fs::write(out, csv).map_err(|e| e.to_string())?;
        println!("wrote sizes to {out}");
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let path = args.get(1).ok_or("missing <file.bench>")?;
    let problem = load_problem(path, args)?;
    println!("{}", problem.netlist().stats());
    println!(
        "sizing DAG: {} vertices, {} edges ({:?} mode)",
        problem.dag().num_vertices(),
        problem.dag().num_edges(),
        problem.dag().mode()
    );
    println!(
        "D_min = {:.1} ps, minimum-size area = {:.1}",
        problem.dmin(),
        problem.min_area()
    );
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let path = args.get(1).ok_or("missing <file.bench>")?;
    let problem = load_problem(path, args)?;
    let specs: Vec<f64> = flag_value(args, "--specs")
        .unwrap_or("0.9,0.8,0.7,0.6,0.5")
        .split(',')
        .map(|s| parse_target("--specs", s.trim()))
        .collect::<Result<_, _>>()?;
    let jobs: usize = flag_value(args, "--jobs")
        .unwrap_or("1")
        .parse()
        .map_err(|e: std::num::ParseIntError| e.to_string())?;
    check_flow(args)?;
    let config = if args.iter().any(|a| a == "--cold") {
        SessionConfig::cold()
    } else {
        SessionConfig::warm()
    }
    .with_jobs(jobs);
    let outcomes = problem
        .into_session(config)
        .sweep(&specs)
        .map_err(|e| e.to_string())?;
    println!("{}", format_curve(path, &outcomes));
    if let Some(out) = flag_value(args, "--csv") {
        fs::write(out, curve_to_csv(&outcomes)).map_err(|e| e.to_string())?;
        println!("wrote sweep CSV to {out}");
    }
    Ok(())
}

/// The positional (non-flag) arguments after the command word.
/// `value_flags` names the flags that consume the following argument.
fn positionals<'a>(args: &'a [String], value_flags: &[&str]) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut i = 1;
    while i < args.len() {
        let arg = args[i].as_str();
        if value_flags.contains(&arg) {
            i += 2;
            continue;
        }
        if !arg.starts_with("--") {
            out.push(arg);
        }
        i += 1;
    }
    out
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let jobs: usize = flag_value(args, "--jobs")
        .unwrap_or("1")
        .parse()
        .map_err(|e: std::num::ParseIntError| e.to_string())?;
    let max_circuits: usize = flag_value(args, "--max-circuits")
        .unwrap_or("16")
        .parse()
        .map_err(|e: std::num::ParseIntError| e.to_string())?;
    let default_config = ServerConfig::default();
    let max_line_bytes: usize = match flag_value(args, "--max-line-bytes") {
        Some(v) => v
            .parse()
            .map_err(|e: std::num::ParseIntError| e.to_string())?,
        None => default_config.max_line_bytes,
    };
    let session = if args.iter().any(|a| a == "--cold") {
        SessionConfig::cold()
    } else {
        SessionConfig::warm()
    }
    .with_jobs(jobs);
    check_flow(args)?;
    let max_queue_depth: usize = match flag_value(args, "--max-queue-depth") {
        Some(v) => v
            .parse()
            .map_err(|e: std::num::ParseIntError| e.to_string())?,
        None => default_config.max_queue_depth,
    };
    let default_deadline_ms: Option<f64> = match flag_value(args, "--deadline-ms") {
        Some(v) => Some(
            v.parse::<f64>()
                .map_err(|e: std::num::ParseFloatError| e.to_string())?,
        ),
        None => None,
    };
    let replicas: usize = match flag_value(args, "--replicas") {
        Some(v) => v
            .parse()
            .map_err(|e: std::num::ParseIntError| e.to_string())?,
        None => default_config.replicas,
    };
    let server = CircuitServer::new(ServerConfig {
        max_circuits,
        max_line_bytes,
        max_queue_depth,
        default_deadline_ms,
        replicas,
        session: session.clone(),
    });
    let listen = flag_value(args, "--listen");
    let unix = flag_value(args, "--unix");
    let listening = listen.is_some() || unix.is_some();

    // Preload the circuits given on the command line; each registers
    // under its file stem (`bench/c432.bench` → `c432`).
    let paths = positionals(
        args,
        &[
            "--mode",
            "--tech",
            "--corner",
            "--vt",
            "--flow",
            "--jobs",
            "--listen",
            "--unix",
            "--max-circuits",
            "--max-line-bytes",
            "--max-queue-depth",
            "--deadline-ms",
            "--replicas",
        ],
    );
    let mut names: Vec<String> = Vec::new();
    for path in &paths {
        let name = Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(path)
            .to_owned();
        let problem = load_problem(path, args)?;
        match server.install(&name, problem, session.clone()) {
            Response::Loaded {
                gates, vertices, ..
            } => {
                if listening {
                    eprintln!("loaded `{name}` from {path} ({gates} gates, {vertices} vertices)");
                }
                names.push(name);
            }
            Response::Error { message, .. } => return Err(message),
            other => return Err(format!("unexpected load response: {other:?}")),
        }
    }

    if !listening {
        // stdin/stdout mode: one circuit, strictly in-order responses
        // (the historical `mft serve <bench>` behavior, same wire
        // format — ids are echoed here too).
        if names.len() != 1 {
            return Err(format!(
                "stdin mode serves exactly one circuit ({} given); pass --listen for the \
                 multi-circuit registry",
                names.len()
            ));
        }
        server
            .serve_connection_ordered(std::io::stdin().lock(), std::io::stdout().lock())
            .map_err(|e| e.to_string())?;
    } else {
        let mut listeners = Vec::new();
        if let Some(addr) = listen {
            let (listener, local) = ServerListener::bind_tcp(addr).map_err(|e| e.to_string())?;
            println!("listening on {local}");
            listeners.push(listener);
        }
        if let Some(path) = unix {
            listeners.push(bind_unix(path)?);
            println!("listening on unix:{path}");
        }
        server.run(listeners).map_err(|e| e.to_string())?;
        if let Some(path) = unix {
            let _ = fs::remove_file(path);
        }
    }
    if args.iter().any(|a| a == "--stats") {
        for name in server.circuit_names() {
            if let Some(stats) = server.circuit_stats(&name) {
                eprintln!("{}", Response::stats(stats).to_json_line_with_id(None));
            }
        }
    }
    server.join_workers();
    Ok(())
}

#[cfg(unix)]
fn bind_unix(path: &str) -> Result<ServerListener, String> {
    ServerListener::bind_unix(Path::new(path)).map_err(|e| e.to_string())
}

#[cfg(not(unix))]
fn bind_unix(_path: &str) -> Result<ServerListener, String> {
    Err("--unix is only supported on Unix platforms".into())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let name = args.get(1).ok_or("missing <benchmark> (try `mft list`)")?;
    let bench = Benchmark::all()
        .into_iter()
        .find(|b| b.name() == name || b.name().trim_end_matches("-like") == name)
        .ok_or_else(|| format!("unknown benchmark `{name}` (try `mft list`)"))?;
    let netlist = bench.generate().map_err(|e| e.to_string())?;
    let text = write_bench(&netlist).map_err(|e| e.to_string())?;
    match flag_value(args, "--out") {
        Some(out) => {
            fs::write(out, text).map_err(|e| e.to_string())?;
            println!(
                "wrote {} ({} gates) to {out}",
                bench.name(),
                netlist.num_gates()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_list() -> Result<(), String> {
    println!(
        "{:<12} {:>7} {:>6} {:>8}",
        "benchmark", "gates", "spec", "paper %"
    );
    for bench in Benchmark::all() {
        let gates = bench.generate().map(|n| n.num_gates()).unwrap_or(0);
        println!(
            "{:<12} {:>7} {:>6} {:>8.1}",
            bench.name(),
            gates,
            bench.paper_spec(),
            bench.paper_saving_percent()
        );
    }
    Ok(())
}
