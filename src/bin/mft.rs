//! `mft` — the MINFLOTRANSIT command-line tool.
//!
//! ```text
//! mft size <file.bench> [--spec F] [--target PS] [--mode M] [--corner C] [--vt V] [--objective O] [--tilos-only] [--report] [--sizes OUT]
//! mft report <file.bench> [--mode M] [--corner C] [--vt V]
//! mft sweep <file.bench> --specs 0.9,0.7,0.5 [--mode M] [--corner C] [--vt V] [--jobs N] [--csv OUT]
//! mft serve <file.bench>... [--listen ADDR] [--unix PATH] [--max-circuits N] [--stats]
//! mft generate <benchmark> [--out FILE]
//! mft list
//! ```
//!
//! Each command rejects a `--flag` it does not read. All output goes
//! through one locked stdout; when the reader closes it early
//! (`mft ... | head`), the command stops quietly.

use minflotransit::circuit::{parse_bench, write_bench, SizingMode};
use minflotransit::core::{
    curve_to_csv, format_curve, CircuitServer, Response, ServerConfig, ServerListener,
    SessionConfig, SizingProblem, SizingReport, MAX_REPLICAS,
};
use minflotransit::gen::Benchmark;
use minflotransit::tech::{Corner, TechLibrary};
use std::error::Error;
use std::fs;
use std::io::{self, Write};
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
  --corner C      technology corner: 130nm | 180nm | 65nm (default 130nm)
  --vt V          threshold flavor: svt | lvt | hvt   (default svt)
  --objective O   size: area | power                  (default area)
                  `power` minimizes leakage + activity-weighted
                  switching power under the same delay target
  --specs LIST    comma-separated spec fractions for `sweep`
  --jobs N        sweep worker threads (default 1; 0 means 1; capped at
                  the specs and the cores); results are identical for
                  every N
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

`mft sweep` runs one session (or one per worker), which resumes the
TILOS bump trajectory across targets and reuses the D-phase flow
network and W-phase SMP solver for every point, so a sweep costs
little more than its tightest spec alone.

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
    let mut out = io::stdout().lock();
    match run(&args, &mut out).and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader closed stdout (`mft ... | head`): stop quietly.
        Err(e)
            if e.downcast_ref::<io::Error>()
                .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// A command's outcome: a message for the user, or the `io::Error` of
/// a failed write to stdout.
type Outcome = Result<(), Box<dyn Error>>;

/// The process's locked stdout.
type Out<'a> = &'a mut dyn Write;

/// One command's arguments: its positionals in order and the flags it
/// reads (`value_flags` take the next argument, `switches` none). Any
/// other `--flag` is an error that names it.
struct Args<'a> {
    command: &'a str,
    positionals: Vec<&'a str>,
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
}

impl<'a> Args<'a> {
    fn parse(args: &'a [String], value_flags: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut parsed = Args {
            command: &args[0],
            positionals: Vec::new(),
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut rest = args.iter().skip(1).map(String::as_str);
        while let Some(arg) = rest.next() {
            if value_flags.contains(&arg) {
                let value = rest
                    .next()
                    .ok_or_else(|| format!("`{arg}` needs a value"))?;
                parsed.values.push((arg, value));
            } else if switches.contains(&arg) {
                parsed.switches.push(arg);
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag `{arg}` for `mft {}`", parsed.command));
            } else {
                parsed.positionals.push(arg);
            }
        }
        Ok(parsed)
    }

    /// The value of the first `name` flag.
    fn value(&self, name: &str) -> Option<&'a str> {
        self.values
            .iter()
            .find(|(flag, _)| *flag == name)
            .map(|&(_, value)| value)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// The one positional (the command's file or benchmark name); a
    /// missing one, or any after it, is an error.
    fn only(&self, what: &str) -> Result<&'a str, String> {
        self.at_most(1)?;
        self.positionals
            .first()
            .copied()
            .ok_or_else(|| format!("missing {what}"))
    }

    /// Refuses positionals past the first `max`, naming the first extra.
    fn at_most(&self, max: usize) -> Result<(), String> {
        match self.positionals.get(max) {
            Some(extra) => Err(format!(
                "unexpected argument `{extra}` for `mft {}`",
                self.command
            )),
            None => Ok(()),
        }
    }

    /// Parses a `usize` flag, `default` when absent.
    fn count(&self, name: &str, default: usize) -> Result<usize, String> {
        self.value(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|e: std::num::ParseIntError| e.to_string())
        })
    }
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

fn parse_mode(args: &Args) -> Result<SizingMode, String> {
    match args.value("--mode").unwrap_or("gate") {
        "gate" => Ok(SizingMode::Gate),
        "wire" => Ok(SizingMode::GateWire),
        "transistor" => Ok(SizingMode::Transistor),
        other => Err(format!("unknown mode `{other}`")),
    }
}

/// Resolves `--corner`/`--vt` against the standard [`TechLibrary`] —
/// the same path the server's `load` request takes, so the accepted
/// names (and the error text) come from the registry.
fn parse_corner(args: &Args) -> Result<Corner, String> {
    TechLibrary::standard()
        .resolve(args.value("--corner"), args.value("--vt"))
        .map_err(|e| e.to_string())
}

fn load_problem(path: &str, args: &Args) -> Result<SizingProblem, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let netlist = parse_bench(path, &text).map_err(|e| e.to_string())?;
    let corner = parse_corner(args)?;
    let mode = parse_mode(args)?;
    SizingProblem::prepare_corner(&netlist, &corner, mode).map_err(|e| e.to_string())
}

fn run(args: &[String], out: Out) -> Outcome {
    let Some(command) = args.first() else {
        return Err("missing command".into());
    };
    let parse = |value_flags: &[&str], switches: &[&str]| Args::parse(args, value_flags, switches);
    match command.as_str() {
        "size" => cmd_size(
            &parse(
                &[
                    "--spec",
                    "--target",
                    "--mode",
                    "--corner",
                    "--vt",
                    "--objective",
                    "--sizes",
                ],
                &["--tilos-only", "--report"],
            )?,
            out,
        ),
        "report" => cmd_report(&parse(&["--mode", "--corner", "--vt"], &[])?, out),
        "sweep" => cmd_sweep(
            &parse(
                &["--specs", "--jobs", "--csv", "--mode", "--corner", "--vt"],
                &[],
            )?,
            out,
        ),
        "serve" => cmd_serve(
            &parse(
                &[
                    "--mode",
                    "--corner",
                    "--vt",
                    "--jobs",
                    "--listen",
                    "--unix",
                    "--max-circuits",
                    "--max-line-bytes",
                    "--max-queue-depth",
                    "--deadline-ms",
                    "--replicas",
                ],
                &["--stats"],
            )?,
            out,
        ),
        "generate" => cmd_generate(&parse(&["--out"], &[])?, out),
        "list" => {
            parse(&[], &[])?.at_most(0)?;
            cmd_list(out)
        }
        "--help" | "-h" | "help" => Ok(writeln!(out, "{USAGE}")?),
        other => Err(format!("unknown command `{other}`").into()),
    }
}

fn cmd_size(args: &Args, out: Out) -> Outcome {
    let path = args.only("<file.bench>")?;
    let problem = load_problem(path, args)?;
    let target = match args.value("--target") {
        Some(t) => parse_target("--target", t)?,
        None => problem.spec_target(
            "--spec",
            parse_target("--spec", args.value("--spec").unwrap_or("0.6"))?,
        )?,
    };
    writeln!(
        out,
        "{} | D_min {:.1} ps | target {:.1} ps ({:.2}·D_min)",
        problem.netlist().stats(),
        problem.dmin(),
        target,
        target / problem.dmin()
    )?;
    // One session: the sizing request below starts from the TILOS
    // seed printed first, replayed from the trajectory.
    let mut session = problem.into_session(SessionConfig::warm());
    let tilos = session.tilos_to(target).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "TILOS:         area {:10.1}  delay {:8.1} ps  ({} bumps)",
        tilos.area, tilos.achieved_delay, tilos.bumps
    )?;
    // A full solution carries the persistent D-phase solver's reuse
    // statistics; a TILOS-only run reports sizes alone.
    let objective = args.value("--objective").unwrap_or("area");
    // `--report` prints the timing-engine line itself.
    let report = args.has("--report");
    let solution = if args.has("--tilos-only") {
        None
    } else {
        match objective {
            "area" => {
                let sol = session.size_to(target).map_err(|e| e.to_string())?;
                writeln!(
                    out,
                    "MINFLOTRANSIT: area {:10.1}  delay {:8.1} ps  ({} iterations, {:.2}% saved)",
                    sol.area,
                    sol.achieved_delay,
                    sol.iterations,
                    100.0 * (tilos.area - sol.area) / tilos.area
                )?;
                if !report {
                    writeln!(out, "timing engine: {}", sol.timing_stats)?;
                }
                Some(sol)
            }
            "power" => {
                let ps = session.size_to_power(target).map_err(|e| e.to_string())?;
                writeln!(
                    out,
                    "MINFLOTRANSIT: power {:9.2} (leakage {:.2} + switching {:.2})  \
                     area {:10.1}  delay {:8.1} ps  ({} iterations, {:.2}% power saved)",
                    ps.power.total,
                    ps.power.leakage,
                    ps.power.switching,
                    ps.area,
                    ps.solution.achieved_delay,
                    ps.solution.iterations,
                    ps.solution.area_saving_percent()
                )?;
                if !report {
                    writeln!(out, "timing engine: {}", ps.solution.timing_stats)?;
                }
                Some(ps.solution)
            }
            other => return Err(format!("unknown objective `{other}` (area | power)").into()),
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
        write!(out, "{}", report.to_text())?;
    }
    if let Some(path) = args.value("--sizes") {
        let mut csv = String::from("vertex,size\n");
        for (i, x) in final_sizes.iter().enumerate() {
            csv.push_str(&format!("{i},{x}\n"));
        }
        fs::write(path, csv).map_err(|e| e.to_string())?;
        writeln!(out, "wrote sizes to {path}")?;
    }
    Ok(())
}

fn cmd_report(args: &Args, out: Out) -> Outcome {
    let problem = load_problem(args.only("<file.bench>")?, args)?;
    writeln!(out, "{}", problem.netlist().stats())?;
    writeln!(
        out,
        "sizing DAG: {} vertices, {} edges ({:?} mode)",
        problem.dag().num_vertices(),
        problem.dag().num_edges(),
        problem.dag().mode()
    )?;
    writeln!(
        out,
        "D_min = {:.1} ps, minimum-size area = {:.1}",
        problem.dmin(),
        problem.min_area()
    )?;
    Ok(())
}

fn cmd_sweep(args: &Args, out: Out) -> Outcome {
    let path = args.only("<file.bench>")?;
    let problem = load_problem(path, args)?;
    let specs: Vec<f64> = args
        .value("--specs")
        .unwrap_or("0.9,0.8,0.7,0.6,0.5")
        .split(',')
        .map(|s| parse_target("--specs", s.trim()))
        .collect::<Result<_, _>>()?;
    let jobs = args.count("--jobs", 1)?;
    let outcomes = problem
        .into_session(SessionConfig::warm().with_jobs(jobs))
        .sweep(&specs)
        .map_err(|e| e.to_string())?;
    writeln!(out, "{}", format_curve(path, &outcomes))?;
    if let Some(csv) = args.value("--csv") {
        fs::write(csv, curve_to_csv(&outcomes)).map_err(|e| e.to_string())?;
        writeln!(out, "wrote sweep CSV to {csv}")?;
    }
    Ok(())
}

fn cmd_serve(args: &Args, out: Out) -> Outcome {
    let jobs = args.count("--jobs", 1)?;
    let default_config = ServerConfig::default();
    // The wire's `deadline_ms` rule: finite and ≥ 0.
    let default_deadline_ms = match args.value("--deadline-ms") {
        None => None,
        Some(v) => match v.parse::<f64>() {
            Ok(ms) if ms.is_finite() && ms >= 0.0 => Some(ms),
            _ => {
                return Err(
                    format!("`--deadline-ms` must be a finite number ≥ 0, got `{v}`").into(),
                )
            }
        },
    };
    let replicas = args.count("--replicas", default_config.replicas)?;
    if replicas > MAX_REPLICAS {
        return Err(format!("`--replicas` must be an integer in 0..={MAX_REPLICAS}").into());
    }
    let server = CircuitServer::new(ServerConfig {
        max_circuits: args.count("--max-circuits", 16)?,
        max_line_bytes: args.count("--max-line-bytes", default_config.max_line_bytes)?,
        max_queue_depth: args.count("--max-queue-depth", default_config.max_queue_depth)?,
        default_deadline_ms,
        replicas,
        session: SessionConfig::warm().with_jobs(jobs),
    });
    let listen = args.value("--listen");
    let unix = args.value("--unix");
    let listening = listen.is_some() || unix.is_some();

    // Preload the circuits given on the command line; each registers
    // under its file stem (`bench/c432.bench` → `c432`).
    let mut names: Vec<String> = Vec::new();
    for &path in &args.positionals {
        let name = Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(path)
            .to_owned();
        let problem = load_problem(path, args)?;
        match server.install(&name, problem) {
            Response::Loaded {
                gates, vertices, ..
            } => {
                if listening {
                    eprintln!("loaded `{name}` from {path} ({gates} gates, {vertices} vertices)");
                }
                names.push(name);
            }
            Response::Error { message, .. } => return Err(message.into()),
            other => return Err(format!("unexpected load response: {other:?}").into()),
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
            )
            .into());
        }
        server.serve_connection_ordered(io::stdin().lock(), &mut *out)?;
    } else {
        let mut listeners = Vec::new();
        if let Some(addr) = listen {
            let (listener, local) = ServerListener::bind_tcp(addr).map_err(|e| e.to_string())?;
            writeln!(out, "listening on {local}")?;
            listeners.push(listener);
        }
        if let Some(path) = unix {
            listeners.push(bind_unix(path)?);
            writeln!(out, "listening on unix:{path}")?;
        }
        server.run(listeners).map_err(|e| e.to_string())?;
        if let Some(path) = unix {
            let _ = fs::remove_file(path);
        }
    }
    if args.has("--stats") {
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

fn cmd_generate(args: &Args, out: Out) -> Outcome {
    let name = args.only("<benchmark> (try `mft list`)")?;
    let bench = Benchmark::all()
        .into_iter()
        .find(|b| b.name() == name || b.name().trim_end_matches("-like") == name)
        .ok_or_else(|| format!("unknown benchmark `{name}` (try `mft list`)"))?;
    let netlist = bench.generate().map_err(|e| e.to_string())?;
    let text = write_bench(&netlist).map_err(|e| e.to_string())?;
    match args.value("--out") {
        Some(path) => {
            fs::write(path, text).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "wrote {} ({} gates) to {path}",
                bench.name(),
                netlist.num_gates()
            )?;
        }
        None => write!(out, "{text}")?,
    }
    Ok(())
}

fn cmd_list(out: Out) -> Outcome {
    writeln!(
        out,
        "{:<12} {:>7} {:>6} {:>8}",
        "benchmark", "gates", "spec", "paper %"
    )?;
    for bench in Benchmark::all() {
        let gates = bench.generate().map(|n| n.num_gates()).unwrap_or(0);
        writeln!(
            out,
            "{:<12} {:>7} {:>6} {:>8.1}",
            bench.name(),
            gates,
            bench.paper_spec(),
            bench.paper_saving_percent()
        )?;
    }
    Ok(())
}
