//! The concurrent multi-circuit sizing server behind `mft serve` — a
//! registry of warm [`SizingSession`]s answering the line protocol
//! ([`crate::protocol`]) for a whole fleet of circuits from one
//! process.
//!
//! # Process model: shared-nothing circuits, one writer each
//!
//! Mutations *within* one circuit are serial by design — a session is
//! one warm state (trajectory, flow network, SMP solver, timing
//! engine), and serializing its requests is what makes every served
//! value bit-identical to a one-shot run. Requests *across* circuits
//! share nothing, so they run fully in parallel. The server maps that
//! directly onto threads:
//!
//! ```text
//!             ┌──────────────┐   accept    ┌─────────────────────┐
//!  clients ──▶│ TCP / Unix   │────────────▶│ connection thread   │──┐
//!             │ listeners    │   (1/conn)  │ read → parse →      │  │ admit to a
//!             └──────────────┘             │ dispatch            │  │ circuit queue
//!                                          └────────┬────────────┘  ▼
//!                                                   │      ┌──────────────────┐
//!                                    registry ops   │      │ writer queue     │
//!                                    (load/unload/  │      │ (SizingSession)  │
//!                                    list) answered │      │ + read queue     │
//!                                    inline         │      │ (N replicas)     │
//!                                                   ▼      └────────┬─────────┘
//!                                          ┌─────────────────────┐  │ response
//!                                          │ writer thread       │◀─┘ lines
//!                                          │ (one per connection)│   mpsc
//!                                          └─────────────────────┘
//! ```
//!
//! Each loaded circuit has a writer queue drained by one writer thread
//! holding its [`SizingSession`]; jobs are served strictly in arrival
//! order, so a circuit's writer responses are FIFO even when several
//! connections interleave requests to it. Responses for *different*
//! circuits complete independently and may interleave on a connection
//! in any order — pipelined clients set the `id` envelope field
//! ([`crate::RequestFrame`]) to correlate them.
//!
//! # Read replicas: one writer, many readers, one queue mechanism
//!
//! A circuit loaded with `replicas: N` (or a server started with
//! [`ServerConfig::replicas`]) also gets a read queue drained by N
//! replica threads — an idle replica steals the next job. Pure reads
//! (`what_if`, `stats`) go there; every mutation (`size`/`size_power`/
//! `sweep`) stays on the writer. The two queues are one mechanism: one
//! job type, one weighted admission gauge per queue (a `busy` answer
//! names the queue it bounced off, so a what-if burst never crowds a
//! mutation out, nor the other way round), and one drain loop that runs
//! every job inside the same fault fences — the poisoned
//! short-circuit, the expired-at-dequeue shed and the panic catch. Only
//! what a thread does with a job differs. A replica answers `what_if`
//! through a [`ReadView`]: a private diff cache over the problem the
//! session shares, re-timing only the gates changed since the
//! replica's *previous* candidate (`delays_diff` + scoped rebase). A
//! what-if answer is a pure function of the candidate, so
//! replica-served responses are bit-identical to single-writer
//! serving; replica-served reads bump the replica counters of `stats`
//! rather than the session counters the writer owns.
//!
//! # The published stats snapshot
//!
//! After every job — served, shed or poisoned — and before the job's
//! weight is refunded and its response sent, the writer publishes its
//! session's [`SessionStats`] into a snapshot, and bumps a publish
//! epoch for every mutation. A replica answers `stats` from that
//! snapshot plus its pool's counters, and drops its diff base when it
//! sees the epoch move: a client that saw a mutation's response never
//! meets a replica claiming the older epoch.
//! [`CircuitServer::circuit_stats`] (the `--stats` report) reads the
//! same snapshot, with or without replicas, without queueing behind
//! in-flight work.
//!
//! # Exactness
//!
//! The server adds no numeric behavior of its own: every response body
//! is produced by [`SizingSession::serve`] (or, for replica reads, the
//! same [`ReadView`] the session answers `what_if` through) exactly as
//! in single-session stdin mode, so socket-served values are
//! bit-identical to in-process runs (pinned by
//! `tests/session_golden.rs` over interleaved connections). The wire
//! specification lives in `docs/PROTOCOL.md`; the layer map in
//! `docs/ARCHITECTURE.md`.

use crate::cancel::{is_read_request, request_weight, CancelToken};
use crate::pipeline::SizingProblem;
use crate::protocol::{
    extract_error_code, extract_id, CircuitSummary, ErrorCode, FrameDecoder, LoadRequest,
    ReplicaStatsReport, Request, RequestFrame, Response,
};
use crate::session::{
    error_response, request_target, ReadView, SessionConfig, SessionStats, SizingSession,
};
use mft_circuit::{parse_bench, SizingMode};
use mft_flow::FlowAlgorithm;
use mft_tech::TechLibrary;
use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{self, BufRead, Read as _};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How long a blocked connection read waits before re-checking the
/// shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);

/// The read buffer of a connection: a 270 KB `what_if` line of a
/// 10k-gate circuit arrives in five fills.
const READ_BUFFER_BYTES: usize = 64 << 10;

/// How long an idle accept loop sleeps between polls — kept short
/// because it bounds connection-setup latency (the listener sockets
/// are non-blocking so a `shutdown` request can stop them without
/// signals or self-connects).
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Backoff after a *failed* accept (resource exhaustion such as
/// EMFILE) so the loop neither busy-spins nor floods stderr.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(500);

/// Configuration of a [`CircuitServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum number of circuits loaded at once; further `load`
    /// requests answer an error until something is unloaded.
    pub max_circuits: usize,
    /// Maximum accepted request-line length in bytes. Longer lines are
    /// discarded up to the next newline and answered with an error
    /// response — the connection stays up.
    pub max_line_bytes: usize,
    /// The session configuration of every loaded circuit.
    pub session: SessionConfig,
    /// Admission bound per circuit queue, in *weighted* units (cheap
    /// requests count 1, a `size` counts 8, a `sweep` 8 per
    /// spec). Once a circuit's queued weight reaches the
    /// bound, further requests answer `{"type":"error","code":"busy"}`
    /// immediately instead of queueing; an idle circuit always admits
    /// one request of any weight, so a single oversized sweep is never
    /// rejected outright.
    pub max_queue_depth: usize,
    /// Server-side default deadline (milliseconds, measured from
    /// request parse) applied to requests that carry no `deadline_ms`
    /// envelope field. `None` (the default) leaves such requests
    /// unbounded — the historical behavior.
    pub default_deadline_ms: Option<f64>,
    /// Default read replicas per circuit: `what_if`/`stats` requests
    /// are fanned across this many reader threads over a shared read
    /// queue while mutations stay on the single writer. `0` (the
    /// default) serves every request on the writer; a `load` request
    /// can override per circuit via its `replicas` field.
    pub replicas: usize,
    /// Fault injection: a `size` request whose `spec` equals this
    /// value panics inside the writer instead of sizing.
    #[cfg(test)]
    pub(crate) panic_on_spec: Option<f64>,
    /// Fault injection: until this gate is released, every writer
    /// waits on it before serving a request, so a test decides how
    /// long a request stays in flight.
    #[cfg(test)]
    pub(crate) hold_writer: Option<tests::WriterHold>,
}

impl Default for ServerConfig {
    /// 16 circuits, 1 MiB lines, warm sessions, 256 weighted queue
    /// units, no default deadline.
    fn default() -> Self {
        ServerConfig {
            max_circuits: 16,
            max_line_bytes: 1 << 20,
            session: SessionConfig::warm(),
            max_queue_depth: 256,
            default_deadline_ms: None,
            replicas: 0,
            #[cfg(test)]
            panic_on_spec: None,
            #[cfg(test)]
            hold_writer: None,
        }
    }
}

/// The preset names a `load` request accepts, kept for wire
/// compatibility: both load the server's one session configuration.
/// The single source for both the check and its error message, so the
/// list cannot drift out of the error text.
const SESSION_PRESETS: [&str; 2] = ["warm", "cold"];

/// One admitted request, queued to a circuit's writer or read queue.
struct Job {
    id: Option<String>,
    request: Request,
    /// The connection writer the finished response line (with the id
    /// spliced in) goes to.
    reply: mpsc::Sender<String>,
    /// Absolute deadline (from `deadline_ms` or the server default):
    /// checked at dequeue (expired work is shed without serving) and
    /// polled inside the writer's sizing loops.
    deadline: Option<Instant>,
    /// Admission weight charged when the job was queued; refunded once
    /// the job is answered.
    weight: usize,
}

/// One circuit queue: the sender its jobs go in by, and the weighted
/// gauge of the work queued *or running* on it — incremented at
/// admission, decremented by the draining thread after each job; the
/// admission bound and the `list` row's depth both read it.
#[derive(Clone)]
struct Queue {
    tx: mpsc::Sender<Job>,
    depth: Arc<AtomicUsize>,
}

impl Queue {
    /// A new queue of the circuit with these counters, plus what every
    /// thread draining it shares.
    fn new(requests: &Arc<AtomicUsize>, poisoned: &Arc<AtomicBool>) -> (Queue, Drain) {
        let (tx, rx) = mpsc::channel();
        let depth = Arc::new(AtomicUsize::new(0));
        let drain = Drain {
            rx: Arc::new(Mutex::new(rx)),
            depth: Arc::clone(&depth),
            requests: Arc::clone(requests),
            poisoned: Arc::clone(poisoned),
        };
        (Queue { tx, depth }, drain)
    }
}

/// The admission handles of one loaded circuit — cloned out of the
/// registry under its lock, used after the lock is released.
#[derive(Clone)]
struct Circuit {
    write: Queue,
    /// The replicas' shared read queue, when the circuit has any.
    read: Option<Queue>,
    /// Set when a request panicked inside a worker. A poisoned circuit
    /// answers clean `poisoned` errors (never strands queued clients)
    /// until an `unload`+`load` cycle replaces it.
    poisoned: Arc<AtomicBool>,
}

/// Cumulative counters of one circuit's replica pool, shared by every
/// replica and snapshotted into the `stats` response's replica
/// roll-up.
#[derive(Debug)]
struct ReplicaCounters {
    /// Requests served per replica (the fan-out proof the tests pin).
    served: Vec<AtomicU64>,
    /// What-ifs answered through the previous-candidate diff path.
    diff_hits: AtomicU64,
    /// What-ifs that re-timed from scratch.
    full_timings: AtomicU64,
    /// Diff-base drops observed on writer epoch bumps.
    invalidations: AtomicU64,
}

impl ReplicaCounters {
    fn new(replicas: usize) -> Self {
        ReplicaCounters {
            served: (0..replicas).map(|_| AtomicU64::new(0)).collect(),
            diff_hits: AtomicU64::new(0),
            full_timings: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn report(&self, epoch: u64) -> ReplicaStatsReport {
        ReplicaStatsReport {
            replicas: self.served.len(),
            epoch,
            served: self
                .served
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            diff_hits: self.diff_hits.load(Ordering::Relaxed),
            full_timings: self.full_timings.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

/// A loaded circuit: its queues and threads plus the static facts
/// `list` reports without bothering them.
struct CircuitEntry {
    circuit: Circuit,
    /// The writer and replica threads. Dropping the entry closes the
    /// queues; the threads drain what is already queued and exit.
    workers: Vec<thread::JoinHandle<()>>,
    replicas: usize,
    gates: usize,
    vertices: usize,
    dmin: f64,
    requests: Arc<AtomicUsize>,
    /// The writer's published stats snapshot (see the module docs).
    stats: Arc<Mutex<SessionStats>>,
}

/// The multi-circuit registry + worker pool (see the module docs).
/// Shared across listener and connection threads behind an [`Arc`].
#[derive(Debug)]
pub struct CircuitServer {
    config: ServerConfig,
    circuits: Mutex<HashMap<String, CircuitEntry>>,
    shutdown: AtomicBool,
}

impl std::fmt::Debug for CircuitEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CircuitEntry")
            .field("gates", &self.gates)
            .field("vertices", &self.vertices)
            .field("dmin", &self.dmin)
            .finish_non_exhaustive()
    }
}

impl CircuitServer {
    /// Creates an empty registry.
    pub fn new(config: ServerConfig) -> Arc<Self> {
        Arc::new(CircuitServer {
            config,
            circuits: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Whether a shutdown request has been accepted.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Marks the server as shutting down: listeners stop accepting,
    /// connection readers exit at their next poll, and new requests
    /// answer an error. In-flight requests complete and their
    /// responses are still written.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// Registers an already-prepared problem under `name` and spawns
    /// its workers — the in-process equivalent of a `load` request
    /// (used by the CLI to preload circuits given on the command
    /// line). The circuit's session runs [`ServerConfig::session`].
    /// Answers [`Response::Loaded`] or [`Response::Error`] (invalid
    /// name, duplicate name, registry full).
    pub fn install(&self, name: &str, problem: SizingProblem) -> Response {
        self.install_inner(name, problem, false, self.config.replicas)
    }

    fn install_inner(
        &self,
        name: &str,
        problem: SizingProblem,
        replace: bool,
        replicas: usize,
    ) -> Response {
        if let Some(error) = invalid_name(name) {
            return error;
        }
        let gates = problem.netlist().num_gates();
        let vertices = problem.dag().num_vertices();
        let dmin = problem.dmin();
        let min_area = problem.min_area();
        let requests = Arc::new(AtomicUsize::new(0));
        let poisoned = Arc::new(AtomicBool::new(false));
        let epoch = Arc::new(AtomicU64::new(0));
        // The replicas and the session share one (immutable) problem.
        let problem = Arc::new(problem);
        let shared = Arc::clone(&problem);
        let session = SizingSession::new(problem, self.config.session.clone());
        let stats = Arc::new(Mutex::new(session.stats()));
        let writer = Writer {
            session,
            stats: Arc::clone(&stats),
            epoch: Arc::clone(&epoch),
            #[cfg(test)]
            panic_on_spec: self.config.panic_on_spec,
            #[cfg(test)]
            hold: self.config.hold_writer.clone(),
        };
        // Resource exhaustion must answer an error, not unwind
        // (especially not while the registry lock is held). Threads
        // already spawned exit once an early return drops their queue.
        let (write, drain) = Queue::new(&requests, &poisoned);
        let mut workers = match drain.spawn(format!("mft-circuit-{name}"), writer) {
            Ok(handle) => vec![handle],
            Err(e) => return Response::error(format!("cannot spawn circuit worker: {e}")),
        };
        let mut read = None;
        if replicas > 0 {
            let (queue, drain) = Queue::new(&requests, &poisoned);
            let counters = Arc::new(ReplicaCounters::new(replicas));
            for index in 0..replicas {
                let replica = Replica {
                    view: ReadView::new(Arc::clone(&shared)),
                    index,
                    seen_epoch: 0,
                    epoch: Arc::clone(&epoch),
                    stats: Arc::clone(&stats),
                    counters: Arc::clone(&counters),
                };
                match drain
                    .clone()
                    .spawn(format!("mft-replica-{name}-{index}"), replica)
                {
                    Ok(handle) => workers.push(handle),
                    Err(e) => return Response::error(format!("cannot spawn read replica: {e}")),
                }
            }
            read = Some(queue);
        }
        let mut circuits = self.circuits.lock().expect("registry lock");
        if let Some(error) = self.no_room(&circuits, name, replace) {
            return error;
        }
        let old = circuits.insert(
            name.to_owned(),
            CircuitEntry {
                circuit: Circuit {
                    write,
                    read,
                    poisoned,
                },
                workers,
                replicas,
                gates,
                vertices,
                dmin,
                requests,
                stats,
            },
        );
        drop(circuits);
        // Replaced entry (only under `replace:true`): dropping it
        // closes the old queues and detaches the old threads, which
        // drain their already-queued requests against the old session
        // and exit — exactly the unload semantics, with the new
        // session answering every request admitted from now on.
        drop(old);
        Response::Loaded {
            circuit: name.to_owned(),
            gates,
            vertices,
            dmin,
            min_area,
        }
    }

    /// The registry check of a `load`: a duplicate name without
    /// `replace`, or a new name when the registry is full, answers an
    /// error.
    fn no_room(
        &self,
        circuits: &HashMap<String, CircuitEntry>,
        name: &str,
        replace: bool,
    ) -> Option<Response> {
        let loaded = circuits.contains_key(name);
        if !replace && loaded {
            return Some(Response::error(format!(
                "circuit `{name}` is already loaded (set `replace:true` to hot-swap it)"
            )));
        }
        if !loaded && circuits.len() >= self.config.max_circuits {
            return Some(Response::error(format!(
                "registry is full ({} circuits; unload one or raise --max-circuits)",
                circuits.len()
            )));
        }
        None
    }

    /// Serves a `load` request: reads/parses the netlist, prepares the
    /// problem, and installs it. All failures come back as
    /// [`Response::Error`].
    fn load(&self, name: Option<&str>, load: &LoadRequest) -> Response {
        let Some(name) = name else {
            return Response::error("load request needs a `circuit` name");
        };
        // Reject hostile names before spending any parse/prepare work
        // on the netlist (install re-checks as the last line of
        // defense for direct callers).
        if let Some(error) = invalid_name(name) {
            return error;
        }
        // Cheap registry precheck before the expensive parse + problem
        // preparation — a full registry must not let clients burn
        // seconds of prepare CPU per rejected load. Racy by design;
        // `install` re-checks under the lock at insert.
        let circuits = self.circuits.lock().expect("registry lock");
        if let Some(error) = self.no_room(&circuits, name, load.replace) {
            return error;
        }
        drop(circuits);
        let mode = match load.mode.as_deref() {
            None | Some("gate") => SizingMode::Gate,
            Some("wire") => SizingMode::GateWire,
            Some("transistor") => SizingMode::Transistor,
            Some(other) => {
                return Response::error(format!(
                    "unknown mode `{other}` (gate | wire | transistor)"
                ))
            }
        };
        // The corner resolves through the registry, so the accepted names
        // in the error message are always its actual contents.
        let library = TechLibrary::standard();
        let corner = match library.resolve(load.corner.as_deref(), load.vt.as_deref()) {
            Ok(corner) => corner,
            // The error text enumerates the library's registered names.
            Err(e) => return Response::error(format!("unknown technology: {e}")),
        };
        // Every session runs one configuration, and `simplex` is the
        // only backend: `preset` and `flow` are checked, not applied.
        if let Some(other) = load
            .preset
            .as_deref()
            .filter(|p| !SESSION_PRESETS.contains(p))
        {
            return Response::error(format!(
                "unknown preset `{other}` ({})",
                SESSION_PRESETS.join(" | ")
            ));
        }
        if let Some(Err(e)) = load.flow.as_deref().map(FlowAlgorithm::parse) {
            return Response::error(e);
        }
        let text = match (&load.path, &load.bench) {
            (Some(path), None) => match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => return Response::error(format!("cannot read `{path}`: {e}")),
            },
            (None, Some(bench)) => bench.clone(),
            // Reachable only for hand-built frames; the wire parse
            // already enforces exactly one source.
            _ => return Response::error("load request takes exactly one of `path` or `bench`"),
        };
        let netlist = match parse_bench(name, &text) {
            Ok(netlist) => netlist,
            Err(e) => return Response::error(e.to_string()),
        };
        match SizingProblem::prepare_corner(&netlist, &corner, mode) {
            Ok(problem) => self.install_inner(
                name,
                problem,
                load.replace,
                load.replicas.unwrap_or(self.config.replicas),
            ),
            Err(e) => Response::error(e.to_string()),
        }
    }

    /// Serves an `unload` request: removes the circuit from the
    /// registry. Already-queued requests still complete (their
    /// responses are written); the warm session is dropped afterwards.
    fn unload(&self, name: Option<&str>) -> Response {
        let Some(name) = name else {
            return Response::error("unload request needs a `circuit` name");
        };
        let removed = self.circuits.lock().expect("registry lock").remove(name);
        match removed {
            None => Response::error(format!("unknown circuit `{name}`")),
            Some(entry) => {
                // Dropping the entry drops the queue senders *and*
                // detaches the threads: each drains what is already
                // queued (in-flight responses still reach their
                // connections through the reply senders each job
                // carries), then exits on its own — nothing
                // accumulates across load/unload cycles.
                drop(entry);
                Response::Unloaded {
                    circuit: name.to_owned(),
                }
            }
        }
    }

    /// Serves a `list` request: the per-circuit roll-up, sorted by
    /// name.
    fn list(&self) -> Response {
        let circuits = self.circuits.lock().expect("registry lock");
        let mut rows: Vec<CircuitSummary> = circuits
            .iter()
            .map(|(name, entry)| {
                let Circuit {
                    write,
                    read,
                    poisoned,
                } = &entry.circuit;
                let write_queue_depth = write.depth.load(Ordering::Relaxed);
                let read_queue_depth = read
                    .as_ref()
                    .map_or(0, |read| read.depth.load(Ordering::Relaxed));
                let state = if poisoned.load(Ordering::Relaxed) {
                    "poisoned"
                } else if write_queue_depth + read_queue_depth > 0 {
                    "busy"
                } else {
                    "ready"
                };
                CircuitSummary {
                    name: name.clone(),
                    gates: entry.gates,
                    vertices: entry.vertices,
                    dmin: entry.dmin,
                    requests: entry.requests.load(Ordering::Relaxed),
                    write_queue_depth,
                    read_queue_depth,
                    replicas: entry.replicas,
                    state: state.to_owned(),
                }
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        Response::CircuitList { circuits: rows }
    }

    /// The names of the currently loaded circuits, sorted.
    pub fn circuit_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .circuits
            .lock()
            .expect("registry lock")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// One circuit's cumulative [`SessionStats`] as its writer last
    /// published them — after every job, before the job's response
    /// leaves — so it never queues behind in-flight work and does not
    /// count as a request itself. `None` when the circuit is not
    /// loaded.
    pub fn circuit_stats(&self, name: &str) -> Option<SessionStats> {
        let circuits = self.circuits.lock().expect("registry lock");
        let stats = *circuits.get(name)?.stats.lock().expect("stats lock");
        Some(stats)
    }

    /// Resolves which circuit a request addresses: the named one, or
    /// the single loaded circuit when the field is absent.
    fn resolve(&self, name: Option<&str>) -> Result<Circuit, String> {
        let circuits = self.circuits.lock().expect("registry lock");
        match name {
            Some(name) => circuits.get(name).map(|e| e.circuit.clone()).ok_or_else(|| {
                format!("unknown circuit `{name}` (send a `load` request first, or `list` the registry)")
            }),
            None => match circuits.len() {
                0 => Err("no circuit loaded (send a `load` request first)".into()),
                1 => Ok(circuits.values().next().expect("len checked").circuit.clone()),
                n => Err(format!(
                    "{n} circuits loaded; set the `circuit` field to pick one"
                )),
            },
        }
    }

    /// Routes one framed request: registry operations are answered
    /// inline on the calling (connection) thread; circuit-bound
    /// requests are admitted to one of the circuit's queues, whose
    /// thread sends the finished response line to `reply` itself. Every path produces
    /// exactly one response line per request.
    pub fn dispatch(&self, frame: RequestFrame, reply: &mpsc::Sender<String>) {
        let RequestFrame {
            id,
            circuit,
            request,
            deadline_ms,
        } = frame;
        let inline = if self.is_shutting_down() && !matches!(request, Request::Shutdown) {
            Some(Response::error("server is shutting down"))
        } else {
            match request {
                Request::Load(load) => Some(self.load(circuit.as_deref(), &load)),
                Request::Unload => Some(self.unload(circuit.as_deref())),
                Request::List => Some(self.list()),
                Request::Shutdown => {
                    self.begin_shutdown();
                    Some(Response::ShuttingDown)
                }
                request @ (Request::Size { .. }
                | Request::SizePower { .. }
                | Request::Sweep { .. }
                | Request::WhatIf { .. }
                | Request::Stats) => match self.resolve(circuit.as_deref()) {
                    Err(message) => Some(Response::error(message)),
                    Ok(target) => self.admit(target, id.clone(), request, deadline_ms, reply),
                },
            }
        };
        if let Some(response) = inline {
            let _ = reply.send(response.to_json_line_with_id(id.as_deref()));
        }
    }

    /// Admission control for one circuit-bound request: picks the
    /// queue (a pure read goes to the read queue when the circuit has
    /// replicas, everything else to the writer), charges the request's
    /// weight against that queue's gauge, and either enqueues the job
    /// (returning `None` — the worker answers) or answers inline with a
    /// coded `busy`/`poisoned` error. Runs on the connection thread and
    /// never blocks: an over-bound queue is *rejected*, not waited on,
    /// so one slow circuit cannot stall the reader that other circuits'
    /// requests arrive through.
    fn admit(
        &self,
        circuit: Circuit,
        id: Option<String>,
        request: Request,
        deadline_ms: Option<f64>,
        reply: &mpsc::Sender<String>,
    ) -> Option<Response> {
        if circuit.poisoned.load(Ordering::Relaxed) {
            return Some(Response::coded_error(
                ErrorCode::Poisoned,
                "circuit is poisoned by an earlier panic; unload and reload it",
            ));
        }
        let (queue, name, gone) = match &circuit.read {
            Some(read) if is_read_request(&request) => (
                read,
                "circuit read queue",
                "circuit replicas are gone; unload and reload it",
            ),
            _ => (
                &circuit.write,
                "circuit queue",
                "circuit worker is gone; unload and reload it",
            ),
        };
        // A request is admitted whenever the queue was empty — a single
        // request heavier than the whole bound must still be servable —
        // but once anything is queued, `max_queue_depth` is a hard
        // ceiling.
        let weight = request_weight(&request);
        let prev = queue.depth.fetch_add(weight, Ordering::Relaxed);
        if prev > 0 && prev + weight > self.config.max_queue_depth {
            queue.depth.fetch_sub(weight, Ordering::Relaxed);
            return Some(Response::coded_error(
                ErrorCode::Busy { queue_depth: prev },
                format!(
                    "{name} is full ({prev} of {} weighted units); retry with backoff",
                    self.config.max_queue_depth
                ),
            ));
        }
        // Clamp before converting: a hostile-but-valid `deadline_ms`
        // like 1e300 must not overflow the Duration/Instant arithmetic
        // (≈ 31 years is "unbounded" for any practical purpose), and a
        // negative or NaN configured default must not panic it (it
        // reads as 0, already expired).
        let deadline = deadline_ms.or(self.config.default_deadline_ms).map(|ms| {
            let secs = if ms > 0.0 { ms.min(1e12) / 1000.0 } else { 0.0 };
            Instant::now() + Duration::from_secs_f64(secs)
        });
        let job = Job {
            id,
            request,
            reply: reply.clone(),
            deadline,
            weight,
        };
        match queue.tx.send(job) {
            Ok(()) => None,
            Err(_) => {
                queue.depth.fetch_sub(weight, Ordering::Relaxed);
                Some(Response::error(gone))
            }
        }
    }

    /// Drives one connection in **strict request order**: each line's
    /// response is awaited and written before the next line is read —
    /// exactly the historical stdin/stdout `mft serve` semantics,
    /// which line-oriented clients without `id`s rely on ("response
    /// *k* answers request *k*"). The pipelined socket path is
    /// [`CircuitServer::serve_connection`]; both share
    /// [`CircuitServer::dispatch`], so the wire behavior cannot
    /// drift — only the interleaving differs.
    pub fn serve_connection_ordered<R, W>(&self, reader: R, mut writer: W) -> io::Result<()>
    where
        R: io::Read,
        W: io::Write,
    {
        let mut requests = RequestReader::new(reader);
        loop {
            let response = match requests.next(self.config.max_line_bytes, &self.shutdown)? {
                None => return Ok(()),
                Some(Err(line)) => line,
                Some(Ok(frame)) => {
                    // Rendezvous: exactly one response line per dispatch
                    // (inline or from the worker); wait for it before
                    // reading on.
                    let (tx, rx) = mpsc::channel::<String>();
                    self.dispatch(frame, &tx);
                    drop(tx);
                    match rx.recv() {
                        Ok(line) => line,
                        // Only reachable if a worker died mid-request;
                        // keep the stream up.
                        Err(_) => Response::error("request was dropped by its circuit worker")
                            .to_json_line(),
                    }
                }
            };
            write_line(&mut writer, response)?;
            if self.is_shutting_down() {
                return Ok(());
            }
        }
    }

    /// Drives one **pipelined** connection: reads length-bounded
    /// request lines from `reader`, dispatches them without waiting,
    /// and writes response lines to `writer` from a dedicated writer
    /// thread until EOF (or server shutdown) — responses for one
    /// circuit stay FIFO, responses across circuits may interleave
    /// (clients correlate by `id`). Malformed and oversized lines
    /// answer error responses (with the request `id` echoed when
    /// recoverable) without dropping the connection; those inline
    /// error lines may overtake still-queued circuit responses. For
    /// strict request/response order (the stdin mode contract) use
    /// [`CircuitServer::serve_connection_ordered`].
    pub fn serve_connection<R, W>(&self, reader: R, writer: W) -> io::Result<()>
    where
        R: io::Read,
        W: io::Write + Send,
    {
        let mut requests = RequestReader::new(reader);
        let (tx, rx) = mpsc::channel::<String>();
        thread::scope(|scope| {
            let writer_handle = scope.spawn(move || -> io::Result<()> {
                let mut writer = writer;
                while let Ok(line) = rx.recv() {
                    write_line(&mut writer, line)?;
                }
                Ok(())
            });
            let mut read_error = None;
            loop {
                match requests.next(self.config.max_line_bytes, &self.shutdown) {
                    Err(e) => {
                        read_error = Some(e);
                        break;
                    }
                    Ok(None) => break,
                    Ok(Some(Err(line))) => {
                        if tx.send(line).is_err() {
                            break;
                        }
                    }
                    Ok(Some(Ok(frame))) => self.dispatch(frame, &tx),
                }
                // A shutdown request ends this connection too (its
                // acknowledgement is already queued).
                if self.is_shutting_down() {
                    break;
                }
            }
            // Close our sender; the writer drains every response still
            // in flight (workers hold clones until they reply), then
            // exits.
            drop(tx);
            let write_result = writer_handle.join().expect("writer must not panic");
            match read_error {
                Some(e) => Err(e),
                None => write_result,
            }
        })
    }

    /// Accepts and serves connections on the given listeners until a
    /// `shutdown` request arrives, then returns once every connection
    /// has drained. Spawns one thread per listener and per connection
    /// (scoped — all joined before returning). Call
    /// [`CircuitServer::join_workers`] afterwards to also retire the
    /// circuit workers.
    pub fn run(&self, listeners: Vec<ServerListener>) -> io::Result<()> {
        for listener in &listeners {
            listener.set_nonblocking(true)?;
        }
        thread::scope(|scope| {
            for listener in &listeners {
                scope.spawn(move || {
                    while !self.is_shutting_down() {
                        match listener.poll_accept() {
                            Ok(Some(stream)) => {
                                scope.spawn(move || {
                                    // Connection I/O errors (a client
                                    // vanishing mid-write) only end that
                                    // connection.
                                    let _ = self.serve_stream(stream);
                                });
                            }
                            Ok(None) => thread::sleep(ACCEPT_POLL),
                            // A real accept failure (e.g. EMFILE when
                            // the fd limit is hit) must be visible and
                            // must not busy-spin; keep the listener up
                            // and retry after a long backoff.
                            Err(e) => {
                                eprintln!("mft serve: accept failed: {e}");
                                thread::sleep(ACCEPT_ERROR_BACKOFF);
                            }
                        }
                    }
                });
            }
        });
        Ok(())
    }

    /// Configures an accepted stream (blocking mode + a read timeout
    /// so the reader can poll the shutdown flag; TCP_NODELAY because
    /// the protocol writes and flushes one small line at a time) and
    /// serves it.
    fn serve_stream(&self, stream: ConnStream) -> io::Result<()> {
        match stream {
            ConnStream::Tcp(stream) => {
                stream.set_nonblocking(false)?;
                stream.set_read_timeout(Some(READ_POLL))?;
                stream.set_nodelay(true)?;
                let reader = stream.try_clone()?;
                self.serve_connection(reader, stream)
            }
            #[cfg(unix)]
            ConnStream::Unix(stream) => {
                stream.set_nonblocking(false)?;
                stream.set_read_timeout(Some(READ_POLL))?;
                let reader = stream.try_clone()?;
                self.serve_connection(reader, stream)
            }
        }
    }

    /// Drops every circuit (closing its queues) and joins the loaded
    /// circuits' writer and replica threads. (Threads of already-
    /// unloaded circuits were detached at unload and exit on their
    /// own.) Safe to call repeatedly.
    pub fn join_workers(&self) {
        // Every entry is dropped — every queue closed — before the
        // first join, so the circuits wind down concurrently.
        let handles: Vec<thread::JoinHandle<()>> = self
            .circuits
            .lock()
            .expect("registry lock")
            .drain()
            .flat_map(|(_, entry)| entry.workers)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Validates a client-controlled circuit name. Names end up in thread
/// names, the registry map and `list` lines; anything that could
/// panic the thread spawn (interior NUL bytes) or garble line-oriented
/// output (control characters) is rejected — crucially *before* any
/// registry lock is taken, so a hostile name can never poison it.
fn invalid_name(name: &str) -> Option<Response> {
    if name.is_empty() || name.len() > 128 || name.chars().any(char::is_control) {
        Some(Response::error(
            "circuit names must be 1-128 characters with no control bytes",
        ))
    } else {
        None
    }
}

/// What every thread draining a circuit queue shares: the queue's
/// receiving end and gauge, plus the circuit's request counter and
/// poison flag.
#[derive(Clone)]
struct Drain {
    rx: Arc<Mutex<mpsc::Receiver<Job>>>,
    depth: Arc<AtomicUsize>,
    requests: Arc<AtomicUsize>,
    poisoned: Arc<AtomicBool>,
}

impl Drain {
    /// Spawns a thread named `name` that drains the queue with `worker`.
    fn spawn(
        self,
        name: String,
        worker: impl Worker + Send + 'static,
    ) -> io::Result<thread::JoinHandle<()>> {
        thread::Builder::new()
            .name(name)
            .spawn(move || self.run(worker))
    }

    /// The one drain loop of the writer and of every replica: takes the
    /// next job in arrival order, serves it inside the [`fenced`] fault
    /// fences, settles it, refunds its admission weight only once the
    /// work is done (queued *and running* work counts against the
    /// bound, which is what keeps memory bounded), counts it, and ships
    /// the finished line straight to the job's connection writer. A
    /// panicking job poisons the circuit but the loop keeps draining,
    /// so every queued client gets an answer; the loop ends once the
    /// queue's last sender is gone.
    fn run(self, mut worker: impl Worker) {
        loop {
            // One thread at a time waits on `recv`; the rest of a
            // replica pool park on the mutex. Pickup is serialized, the
            // served work is not.
            let job = {
                let Ok(rx) = self.rx.lock() else { return };
                match rx.recv() {
                    Ok(job) => job,
                    Err(_) => return,
                }
            };
            let response = fenced(job.deadline, &self.poisoned, || {
                worker.serve(&job.request, job.deadline)
            });
            worker.settle(&job.request);
            self.depth.fetch_sub(job.weight, Ordering::Relaxed);
            self.requests.fetch_add(1, Ordering::Relaxed);
            // The connection may already be gone; its responses are
            // simply dropped.
            let _ = job
                .reply
                .send(response.to_json_line_with_id(job.id.as_deref()));
        }
    }
}

/// What one thread draining a circuit queue does with each job: the
/// writer holds the session, a replica its [`ReadView`].
trait Worker {
    /// Answers one request; runs inside the [`fenced`] fault fences.
    fn serve(&mut self, request: &Request, deadline: Option<Instant>) -> Response;

    /// Runs after every dequeued job — served, shed or poisoned —
    /// before its weight is refunded and its response sent.
    fn settle(&mut self, request: &Request);
}

/// The circuit's single writer: the warm session, which serves every
/// mutation (and every read, when the circuit has no replicas), and
/// the handles it publishes through.
struct Writer {
    session: SizingSession,
    stats: Arc<Mutex<SessionStats>>,
    epoch: Arc<AtomicU64>,
    #[cfg(test)]
    panic_on_spec: Option<f64>,
    #[cfg(test)]
    hold: Option<tests::WriterHold>,
}

impl Worker for Writer {
    fn serve(&mut self, request: &Request, deadline: Option<Instant>) -> Response {
        #[cfg(test)]
        self.inject_faults(request);
        let token = match deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        self.session.serve_with(request, &token)
    }

    fn settle(&mut self, request: &Request) {
        // Publish before the response leaves (see the module docs).
        *self.stats.lock().expect("stats lock") = self.session.stats();
        if !is_read_request(request) {
            self.epoch.fetch_add(1, Ordering::Release);
        }
    }
}

/// One read replica: its private [`ReadView`], its epoch fence, and
/// the pool's counters.
struct Replica {
    view: ReadView,
    index: usize,
    seen_epoch: u64,
    epoch: Arc<AtomicU64>,
    stats: Arc<Mutex<SessionStats>>,
    counters: Arc<ReplicaCounters>,
}

impl Worker for Replica {
    fn serve(&mut self, request: &Request, _deadline: Option<Instant>) -> Response {
        // Epoch fence: a writer republish drops the previous-candidate
        // diff base. A what-if answer is a pure function of the
        // candidate, so this pins the republish contract rather than
        // correctness.
        let current = self.epoch.load(Ordering::Acquire);
        if current != self.seen_epoch {
            self.seen_epoch = current;
            self.view.invalidate();
            self.counters.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        match request {
            Request::WhatIf {
                sizes,
                spec,
                target,
            } => {
                let answer = request_target(self.view.problem(), *spec, *target)
                    .and_then(|target| self.view.what_if(sizes, target));
                match answer {
                    Ok((report, used_diff)) => {
                        let counter = if used_diff {
                            &self.counters.diff_hits
                        } else {
                            &self.counters.full_timings
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                        Response::WhatIf(report)
                    }
                    Err(e) => error_response(&e),
                }
            }
            Request::Stats => Response::Stats {
                stats: Box::new(*self.stats.lock().expect("stats lock")),
                replicas: Some(self.counters.report(current)),
            },
            // Unreachable: admission routes only reads here.
            _ => Response::error("replica received a non-read request"),
        }
    }

    fn settle(&mut self, _request: &Request) {
        self.counters.served[self.index].fetch_add(1, Ordering::Relaxed);
    }
}

/// The fault fences every dequeued job runs inside, on the writer and
/// the replicas alike (same wire bytes): a poisoned circuit answers
/// `poisoned` (jobs queued when the poisoning request panicked still
/// get a clean, coded answer), a job whose deadline passed in the queue
/// is shed as `expired`, and `catch_unwind` fences a panicking `serve`
/// off from the jobs behind it — the thread survives, answers
/// `internal`, and marks the circuit poisoned (its warm state cannot be
/// trusted after an unwind tore through it).
fn fenced(
    deadline: Option<Instant>,
    poisoned: &AtomicBool,
    serve: impl FnOnce() -> Response,
) -> Response {
    if poisoned.load(Ordering::Relaxed) {
        return Response::coded_error(
            ErrorCode::Poisoned,
            "circuit is poisoned by an earlier panic; unload and reload it",
        );
    }
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Response::coded_error(
            ErrorCode::Expired,
            "deadline passed while the request waited in the queue",
        );
    }
    catch_unwind(AssertUnwindSafe(serve)).unwrap_or_else(|payload| {
        poisoned.store(true, Ordering::Relaxed);
        let detail = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        Response::coded_error(
            ErrorCode::Internal,
            format!("request panicked: {detail}; the circuit is poisoned — unload and reload it"),
        )
    })
}

/// A bound listening socket for [`CircuitServer::run`].
#[derive(Debug)]
pub enum ServerListener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain socket listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

/// One accepted connection (internal to the accept loop).
enum ConnStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl ServerListener {
    /// Binds a TCP listener, returning it with the actual local
    /// address (port 0 resolves to an ephemeral port).
    pub fn bind_tcp(addr: &str) -> io::Result<(ServerListener, std::net::SocketAddr)> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Ok((ServerListener::Tcp(listener), local))
    }

    /// Binds a Unix-domain socket listener, removing a stale socket
    /// file from a previous run first.
    #[cfg(unix)]
    pub fn bind_unix(path: &std::path::Path) -> io::Result<ServerListener> {
        let _ = std::fs::remove_file(path);
        Ok(ServerListener::Unix(UnixListener::bind(path)?))
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            ServerListener::Tcp(l) => l.set_nonblocking(nonblocking),
            #[cfg(unix)]
            ServerListener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }

    /// Non-blocking accept: `Ok(None)` when no connection is pending.
    fn poll_accept(&self) -> io::Result<Option<ConnStream>> {
        match self {
            ServerListener::Tcp(l) => match l.accept() {
                Ok((stream, _)) => Ok(Some(ConnStream::Tcp(stream))),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            #[cfg(unix)]
            ServerListener::Unix(l) => match l.accept() {
                Ok((stream, _)) => Ok(Some(ConnStream::Unix(stream))),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

/// One connection's request side: a [`READ_BUFFER_BYTES`] reader, the
/// line buffer every read reuses, and the [`FrameDecoder`] that
/// remembers the connection's previous number array.
struct RequestReader<R> {
    reader: io::BufReader<R>,
    line: Vec<u8>,
    decoder: FrameDecoder,
}

impl<R: io::Read> RequestReader<R> {
    fn new(reader: R) -> Self {
        RequestReader {
            reader: io::BufReader::with_capacity(READ_BUFFER_BYTES, reader),
            line: Vec::new(),
            decoder: FrameDecoder::new(),
        }
    }

    /// Reads and decodes the next non-blank line of at most `max`
    /// bytes: its frame, or the error line that answers an unreadable
    /// or over-long line. `None` at the end of the stream, or once the
    /// server is shutting down.
    fn next(
        &mut self,
        max: usize,
        shutdown: &AtomicBool,
    ) -> io::Result<Option<Result<RequestFrame, String>>> {
        loop {
            let line = match read_bounded_line(&mut self.reader, max, shutdown, &mut self.line)? {
                LineRead::Eof | LineRead::Shutdown => return Ok(None),
                LineRead::TooLong => {
                    let refusal = Response::error(format!("request line exceeds {max} bytes"));
                    return Ok(Some(Err(refusal.to_json_line())));
                }
                LineRead::Line(line) => line,
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let frame = self.decoder.decode(line).map_err(|e| {
                Response::error(e.to_string()).to_json_line_with_id(extract_id(line).as_deref())
            });
            return Ok(Some(frame));
        }
    }
}

/// Result of one bounded line read.
enum LineRead<'a> {
    /// A complete line (without its newline), with U+FFFD in place of
    /// each invalid UTF-8 sequence.
    Line(Cow<'a, str>),
    /// The line exceeded the byte bound; it was discarded up to the
    /// next newline.
    TooLong,
    /// Clean end of stream.
    Eof,
    /// The server's shutdown flag was observed while waiting for input.
    Shutdown,
}

/// Reads one newline-terminated line of at most `max` bytes into `buf`
/// (cleared first). The newline search is `read_until`'s `memchr`.
/// Longer lines are consumed and discarded up to their newline and
/// reported as [`LineRead::TooLong`]. Read timeouts (used by socket
/// connections to stay responsive) re-check `shutdown` and otherwise
/// keep accumulating — a partially received line survives the poll.
fn read_bounded_line<'a, R: BufRead>(
    reader: &mut R,
    max: usize,
    shutdown: &AtomicBool,
    buf: &'a mut Vec<u8>,
) -> io::Result<LineRead<'a>> {
    buf.clear();
    let mut overflow = false;
    loop {
        // One byte past the bound tells a line of `max` bytes from a
        // longer one, whose bytes are then dropped as they arrive.
        let room = max.saturating_add(1) - buf.len();
        match reader.by_ref().take(room as u64).read_until(b'\n', buf) {
            Ok(_) if buf.last() == Some(&b'\n') => {
                buf.pop();
                break;
            }
            Ok(_) if buf.len() > max => {
                overflow = true;
                buf.clear();
            }
            // EOF. A trailing unterminated line still counts.
            Ok(_) if buf.is_empty() && !overflow => return Ok(LineRead::Eof),
            Ok(_) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.load(Ordering::Relaxed) {
                    return Ok(LineRead::Shutdown);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(if overflow {
        LineRead::TooLong
    } else {
        LineRead::Line(String::from_utf8_lossy(buf))
    })
}

/// Writes `line` and its newline with one `write_all` — one syscall,
/// not two, per line on an unbuffered socket — then flushes.
fn write_line<W: io::Write>(writer: &mut W, mut line: String) -> io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// A minimal blocking protocol client — one framed request out, one
/// response line in. The integration tests and the CI smoke script
/// drive servers through this (or mirror it in python).
#[derive(Debug)]
pub struct LineClient<S: io::Read + io::Write> {
    reader: io::BufReader<S>,
    writer: S,
}

impl LineClient<TcpStream> {
    /// Connects over TCP (with `TCP_NODELAY` — the protocol sends one
    /// small flushed line at a time, the exact pattern Nagle delays).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = io::BufReader::new(writer.try_clone()?);
        Ok(LineClient { reader, writer })
    }

    /// Connects over TCP with a bound on connection establishment —
    /// the load-harness / batch-driver variant that must not hang on
    /// an unresponsive host. Every resolved address is tried in turn
    /// with the same per-attempt timeout.
    pub fn connect_timeout<A: ToSocketAddrs>(addr: A, timeout: Duration) -> io::Result<Self> {
        let mut last_err = None;
        for sock in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sock, timeout) {
                Ok(writer) => {
                    writer.set_nodelay(true)?;
                    let reader = io::BufReader::new(writer.try_clone()?);
                    return Ok(LineClient { reader, writer });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    /// Bounds every subsequent [`LineClient::recv`]: a server stalled
    /// past the timeout surfaces as a `WouldBlock`/`TimedOut` error
    /// instead of hanging the caller forever. `None` restores
    /// unbounded blocking reads.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }
}

#[cfg(unix)]
impl LineClient<UnixStream> {
    /// Connects over a Unix-domain socket.
    pub fn connect_unix(path: &std::path::Path) -> io::Result<Self> {
        let writer = UnixStream::connect(path)?;
        let reader = io::BufReader::new(writer.try_clone()?);
        Ok(LineClient { reader, writer })
    }
}

impl<S: io::Read + io::Write> LineClient<S> {
    /// Sends one framed request line (no response is read — pipelined
    /// callers [`LineClient::recv`] later and match on the `id`).
    pub fn send(&mut self, frame: &RequestFrame) -> io::Result<()> {
        write_line(&mut self.writer, frame.to_json_line())
    }

    /// Sends one raw protocol line.
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        write_line(&mut self.writer, buf)
    }

    /// Receives one response line (without its newline); `None` on a
    /// clean EOF.
    pub fn recv(&mut self) -> io::Result<Option<String>> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(Some(line))
    }

    /// One synchronous request/response exchange.
    pub fn call(&mut self, frame: &RequestFrame) -> io::Result<String> {
        self.send(frame)?;
        self.recv()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    /// [`LineClient::call`] with bounded exponential backoff on
    /// `busy`: an overloaded server's admission rejection is retried
    /// up to `max_attempts` times, sleeping `base_backoff`, then 2×,
    /// 4×, … (capped at one second) between attempts. Every other
    /// response — success or error — returns immediately; so does the
    /// final `busy` once the attempts are spent, so the caller always
    /// sees the server's real answer.
    pub fn send_with_retry(
        &mut self,
        frame: &RequestFrame,
        max_attempts: usize,
        base_backoff: Duration,
    ) -> io::Result<String> {
        const BACKOFF_CAP: Duration = Duration::from_secs(1);
        let mut backoff = base_backoff;
        let mut line = self.call(frame)?;
        for _ in 1..max_attempts.max(1) {
            if extract_error_code(&line).as_deref() != Some("busy") {
                break;
            }
            thread::sleep(backoff);
            backoff = (backoff * 2).min(BACKOFF_CAP);
            line = self.call(frame)?;
        }
        Ok(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mft_circuit::C17_BENCH;
    use mft_delay::Technology;
    use std::sync::Condvar;

    /// The one-shot gate of [`ServerConfig::hold_writer`]: closed when
    /// made, open for good once [`released`](WriterHold::release).
    #[derive(Debug, Clone, Default)]
    pub(crate) struct WriterHold(Arc<(Mutex<bool>, Condvar)>);

    impl WriterHold {
        /// Opens the gate: held writers resume, and later ones pass.
        fn release(&self) {
            let (open, opened) = &*self.0;
            *open.lock().expect("hold lock") = true;
            opened.notify_all();
        }

        /// Blocks until the gate is open.
        fn wait(&self) {
            let (open, opened) = &*self.0;
            let mut guard = open.lock().expect("hold lock");
            while !*guard {
                guard = opened.wait(guard).expect("hold lock");
            }
        }
    }

    impl Writer {
        /// The configured faults: wait on the hold, then panic on the
        /// poisoned spec.
        pub(super) fn inject_faults(&self, request: &Request) {
            if let Some(hold) = &self.hold {
                hold.wait();
            }
            if let (Some(bad), Request::Size { spec: Some(s), .. }) = (self.panic_on_spec, request)
            {
                assert!(
                    *s != bad,
                    "injected fault: size spec {s} panics by configuration"
                );
            }
        }
    }

    /// The whole service stack must be `Send` so sessions can live on
    /// worker threads (the issue's "Send-able session handles").
    #[test]
    fn sessions_and_frames_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SizingSession>();
        assert_send::<SizingProblem>();
        assert_send::<RequestFrame>();
        assert_send::<Response>();
        assert_send::<CircuitServer>();
    }

    fn load_c17_frame(name: &str) -> RequestFrame {
        RequestFrame::new(Request::Load(LoadRequest {
            bench: Some(C17_BENCH.to_owned()),
            ..Default::default()
        }))
        .for_circuit(name)
    }

    /// Drives a server through an in-memory connection: feed `input`
    /// lines, collect output lines (order within = completion order).
    fn drive(server: &CircuitServer, input: &str) -> Vec<String> {
        struct SharedWriter(Arc<Mutex<Vec<u8>>>);
        impl io::Write for SharedWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let bytes = Arc::new(Mutex::new(Vec::new()));
        server
            .serve_connection(input.as_bytes(), SharedWriter(Arc::clone(&bytes)))
            .unwrap();
        let text = String::from_utf8(bytes.lock().unwrap().clone()).unwrap();
        text.lines().map(str::to_owned).collect()
    }

    #[test]
    fn registry_load_list_unload_cycle() {
        let server = CircuitServer::new(ServerConfig::default());
        let (tx, _rx) = mpsc::channel();
        server.dispatch(load_c17_frame("c17"), &tx);
        assert_eq!(server.circuit_names(), vec!["c17".to_owned()]);
        let Response::CircuitList { circuits } = server.list() else {
            panic!("list response");
        };
        assert_eq!(circuits.len(), 1);
        assert_eq!(circuits[0].name, "c17");
        assert_eq!(circuits[0].gates, 6);
        assert!(circuits[0].dmin > 0.0);
        let Response::Unloaded { circuit } = server.unload(Some("c17")) else {
            panic!("unload response");
        };
        assert_eq!(circuit, "c17");
        assert!(server.circuit_names().is_empty());
        assert!(matches!(server.unload(Some("c17")), Response::Error { .. }));
        server.join_workers();
    }

    /// No configured default deadline panics admission: a negative or
    /// NaN default reads as already expired, an infinite one as
    /// unbounded.
    #[test]
    fn any_default_deadline_is_admitted_without_a_panic() {
        for (ms, expired) in [
            (-1.0, true),
            (f64::NAN, true),
            (f64::NEG_INFINITY, true),
            (f64::INFINITY, false),
        ] {
            let server = CircuitServer::new(ServerConfig {
                default_deadline_ms: Some(ms),
                ..ServerConfig::default()
            });
            let (tx, rx) = mpsc::channel();
            server.dispatch(load_c17_frame("c17"), &tx);
            assert!(rx.recv().unwrap().contains("\"type\":\"loaded\""));
            let lines = drive(&server, "{\"type\":\"stats\"}\n");
            assert_eq!(lines.len(), 1, "{ms}: {lines:?}");
            if expired {
                assert!(
                    lines[0].contains("\"code\":\"expired\""),
                    "{ms}: {}",
                    lines[0]
                );
            } else {
                assert!(
                    lines[0].starts_with("{\"type\":\"stats\""),
                    "{ms}: {}",
                    lines[0]
                );
            }
            server.join_workers();
        }
    }

    /// Hostile circuit names (NUL bytes would panic the thread-name
    /// builder and poison the registry lock) answer an error and leave
    /// the server fully serviceable — the remote-DoS regression test.
    #[test]
    fn hostile_circuit_names_are_rejected_without_wedging_the_registry() {
        let server = CircuitServer::new(ServerConfig::default());
        let lines = drive(
            &server,
            concat!(
                "{\"type\":\"load\",\"circuit\":\"x\\u0000\",\"bench\":\"i\",\"id\":1}\n",
                "{\"type\":\"load\",\"circuit\":\"a\\nb\",\"bench\":\"i\",\"id\":2}\n",
                "{\"type\":\"load\",\"circuit\":\"\",\"bench\":\"i\",\"id\":3}\n",
                "{\"type\":\"list\",\"id\":4}\n",
            ),
        );
        assert_eq!(lines.len(), 4, "{lines:#?}");
        for line in &lines[..3] {
            assert!(
                line.contains("\"type\":\"error\"") && line.contains("circuit names"),
                "{line}"
            );
        }
        // The registry lock is not poisoned: list still answers.
        assert_eq!(lines[3], "{\"id\":4,\"type\":\"list\",\"circuits\":[]}");
        // And a good load still works afterwards.
        let (tx, rx) = mpsc::channel();
        server.dispatch(load_c17_frame("c17"), &tx);
        assert!(rx.recv().unwrap().contains("\"type\":\"loaded\""));
        server.join_workers();
    }

    /// The `load` request's `flow` field accepts only `simplex`; an
    /// unknown or removed name answers an error without installing the
    /// circuit.
    #[test]
    fn load_flow_field_accepts_only_simplex() {
        let server = CircuitServer::new(ServerConfig::default());
        let lines = drive(
            &server,
            concat!(
                "{\"type\":\"load\",\"circuit\":\"bad\",\"bench\":\"i\",\"flow\":\"nope\",\"id\":1}\n",
                "{\"type\":\"load\",\"circuit\":\"bad\",\"bench\":\"i\",\"flow\":\"ssp\",\"id\":2}\n",
            ),
        );
        assert!(lines[0].contains("unknown flow backend"), "{}", lines[0]);
        assert!(lines[1].contains("`ssp` was removed"), "{}", lines[1]);
        assert!(server.circuit_names().is_empty());
        // `simplex` loads, serves a size request, and reports itself
        // (plus its pivot counters) in the stats.
        let frame = RequestFrame::new(Request::Load(LoadRequest {
            bench: Some(C17_BENCH.to_owned()),
            preset: Some("cold".into()),
            flow: Some("simplex".into()),
            ..Default::default()
        }))
        .for_circuit("c17");
        let (tx, rx) = mpsc::channel();
        server.dispatch(frame, &tx);
        assert!(rx.recv().unwrap().contains("\"type\":\"loaded\""));
        let lines = drive(
            &server,
            concat!(
                "{\"type\":\"size\",\"circuit\":\"c17\",\"spec\":0.8,\"id\":2}\n",
                "{\"type\":\"stats\",\"circuit\":\"c17\",\"id\":3}\n",
            ),
        );
        let stats = lines
            .iter()
            .find(|l| l.contains("\"type\":\"stats\""))
            .expect("stats answered");
        assert!(
            stats.contains("\"dphase_backend\":\"network-simplex\""),
            "{stats}"
        );
        assert!(stats.contains("\"dphase_pivots\":"), "{stats}");
        assert!(stats.contains("\"dphase_scanned_arcs\":"), "{stats}");
        server.join_workers();
    }

    /// A `load` accepts the presets `warm` and `cold` and applies
    /// neither: circuits loaded under `warm`, `cold` and no preset
    /// serve the same bytes. Any other name, the removed `shared_exact`
    /// included, answers an error listing the two and installs nothing.
    #[test]
    fn load_preset_accepts_only_warm_and_cold() {
        let server = CircuitServer::new(ServerConfig::default());
        let lines = drive(
            &server,
            concat!(
                "{\"type\":\"load\",\"circuit\":\"c17\",\"bench\":\"i\",\"preset\":\"shared_exact\",\"id\":1}\n",
                "{\"type\":\"list\",\"id\":2}\n",
            ),
        );
        assert_eq!(
            lines[0],
            "{\"id\":1,\"type\":\"error\",\"message\":\"unknown preset `shared_exact` (warm | cold)\"}"
        );
        assert_eq!(lines[1], "{\"id\":2,\"type\":\"list\",\"circuits\":[]}");
        assert!(server.circuit_names().is_empty());
        let served: Vec<Vec<String>> = [Some("warm"), Some("cold"), None]
            .into_iter()
            .enumerate()
            .map(|(k, preset)| {
                let name = format!("c17_{k}");
                let mut frame = load_c17_frame(&name);
                if let Request::Load(load) = &mut frame.request {
                    load.preset = preset.map(str::to_owned);
                }
                let (tx, rx) = mpsc::channel();
                server.dispatch(frame, &tx);
                assert!(rx.recv().unwrap().contains("\"type\":\"loaded\""));
                let script = [
                    "{\"type\":\"size\",\"spec\":0.7}",
                    "{\"type\":\"size_power\",\"spec\":0.6}",
                    "{\"type\":\"sweep\",\"specs\":[0.9,0.5]}",
                    "{\"type\":\"size\",\"spec\":0.8,\"return_sizes\":true}",
                ]
                .map(|line| line.replacen('{', &format!("{{\"circuit\":\"{name}\","), 1));
                drive(&server, &(script.join("\n") + "\n"))
            })
            .collect();
        assert_eq!(served[0].len(), 4, "{:?}", served[0]);
        assert_eq!(served[1], served[0], "cold vs warm");
        assert_eq!(served[2], served[0], "no preset vs warm");
        server.join_workers();
    }

    #[test]
    fn duplicate_and_overflow_loads_are_rejected() {
        let server = CircuitServer::new(ServerConfig {
            max_circuits: 1,
            ..Default::default()
        });
        let netlist = parse_bench("c17", C17_BENCH).unwrap();
        let problem =
            SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap();
        assert!(matches!(
            server.install("a", problem.clone()),
            Response::Loaded { .. }
        ));
        let Response::Error { message, .. } = server.install("a", problem.clone()) else {
            panic!("duplicate load must fail");
        };
        assert!(message.contains("already loaded"), "{message}");
        let Response::Error { message, .. } = server.install("b", problem) else {
            panic!("overflow load must fail");
        };
        assert!(message.contains("full"), "{message}");
        server.join_workers();
    }

    #[test]
    fn connection_survives_every_error_path() {
        let server = CircuitServer::new(ServerConfig {
            max_line_bytes: 2048,
            ..Default::default()
        });
        let long = format!("{{\"type\":\"stats\",\"pad\":\"{}\"}}", "x".repeat(4000));
        let input = [
            // 1: no circuit loaded yet.
            r#"{"id":"q1","type":"size","spec":0.9}"#.to_owned(),
            // 2: unknown request type (id still echoed).
            r#"{"id":"q2","type":"resize"}"#.to_owned(),
            // 3: oversized line (discarded; no id recoverable).
            long,
            // 4: malformed JSON.
            "{\"type\":".to_owned(),
            // 5: load succeeds — the connection is still healthy.
            load_c17_frame("c17").with_id("q5").to_json_line(),
            // 6: unload of a missing circuit.
            r#"{"id":"q6","type":"unload","circuit":"nope"}"#.to_owned(),
            // 7: request for an unloaded circuit.
            r#"{"id":"q7","type":"stats","circuit":"nope"}"#.to_owned(),
            // 8: a served request against the loaded circuit.
            r#"{"id":"q8","type":"stats"}"#.to_owned(),
        ]
        .join("\n");
        let lines = drive(&server, &input);
        assert_eq!(lines.len(), 8, "{lines:#?}");
        // Registry ops + errors answer inline, in request order; the
        // worker-served line (q8) is last because it is the only
        // queued one. Match by id to stay order-agnostic anyway.
        let by_id = |id: &str| -> &str {
            lines
                .iter()
                .find(|l| l.starts_with(&format!("{{\"id\":\"{id}\"")))
                .map(String::as_str)
                .unwrap_or_else(|| panic!("no response for {id}: {lines:#?}"))
        };
        assert!(by_id("q1").contains("\"type\":\"error\""));
        assert!(by_id("q1").contains("no circuit loaded"));
        assert!(by_id("q2").contains("unknown request type"));
        assert!(
            lines
                .iter()
                .any(|l| l.contains("exceeds 2048 bytes") && !l.contains("\"id\"")),
            "{lines:#?}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.contains("\"type\":\"error\"") && l.contains("unexpected end")),
            "{lines:#?}"
        );
        assert!(by_id("q5").contains("\"type\":\"loaded\""));
        assert!(by_id("q6").contains("unknown circuit `nope`"));
        assert!(by_id("q7").contains("unknown circuit `nope`"));
        assert!(by_id("q8").contains("\"type\":\"stats\""));
        server.join_workers();
    }

    #[test]
    fn ambiguous_circuit_requests_need_the_field() {
        let server = CircuitServer::new(ServerConfig::default());
        let (tx, rx) = mpsc::channel();
        server.dispatch(load_c17_frame("a"), &tx);
        server.dispatch(load_c17_frame("b"), &tx);
        server.dispatch(RequestFrame::new(Request::Stats).with_id("q"), &tx);
        let mut lines: Vec<String> = Vec::new();
        while let Ok(line) = rx.try_recv() {
            lines.push(line);
        }
        let err = lines
            .iter()
            .find(|l| l.contains("\"type\":\"error\""))
            .expect("ambiguous request must error");
        assert!(err.contains("2 circuits loaded"), "{err}");
        // Naming the circuit resolves it.
        server.dispatch(
            RequestFrame::new(Request::Stats)
                .with_id("ok")
                .for_circuit("a"),
            &tx,
        );
        let line = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(line.contains("\"type\":\"stats\""), "{line}");
        server.join_workers();
    }

    /// The stdin-mode contract: response *k* answers request *k*, even
    /// when inline-answered parse errors sit between queued circuit
    /// requests (on the pipelined path those may overtake; the ordered
    /// path must never let them).
    #[test]
    fn ordered_connection_keeps_strict_request_order() {
        let server = CircuitServer::new(ServerConfig::default());
        let (tx, _rx) = mpsc::channel();
        server.dispatch(load_c17_frame("c17"), &tx);
        let input = [
            r#"{"type":"size","spec":0.8,"id":1}"#,
            r#"{"type":"size","spec":0.75,"id":2}"#,
            r#"{"type":"stats","id":3}"#,
            "not json",
            r#"{"type":"stats","id":5}"#,
        ]
        .join("\n");
        let mut out = Vec::new();
        server
            .serve_connection_ordered(input.as_bytes(), &mut out)
            .unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 5, "{lines:#?}");
        assert!(
            lines[0].starts_with("{\"id\":1,\"type\":\"size\""),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].starts_with("{\"id\":2,\"type\":\"size\""),
            "{}",
            lines[1]
        );
        assert!(
            lines[2].starts_with("{\"id\":3,\"type\":\"stats\""),
            "{}",
            lines[2]
        );
        assert!(
            lines[3].starts_with("{\"type\":\"error\""),
            "parse error must answer in place: {}",
            lines[3]
        );
        assert!(
            lines[4].starts_with("{\"id\":5,\"type\":\"stats\""),
            "{}",
            lines[4]
        );
        server.join_workers();
    }

    /// The framing with a new buffer per line, the text owned.
    fn read_bounded_line<R: BufRead>(
        reader: &mut R,
        max: usize,
        shutdown: &AtomicBool,
    ) -> io::Result<LineRead<'static>> {
        let mut buf = Vec::new();
        Ok(
            match super::read_bounded_line(reader, max, shutdown, &mut buf)? {
                LineRead::Line(line) => LineRead::Line(Cow::Owned(line.into_owned())),
                LineRead::TooLong => LineRead::TooLong,
                LineRead::Eof => LineRead::Eof,
                LineRead::Shutdown => LineRead::Shutdown,
            },
        )
    }

    /// Every line of `data` as the framing reads it through a reader of
    /// `capacity` bytes and one reused buffer: `Some(text)` per line,
    /// `None` per over-long line.
    fn framed(data: &[u8], capacity: usize, max: usize) -> Vec<Option<String>> {
        let shutdown = AtomicBool::new(false);
        let mut reader = io::BufReader::with_capacity(capacity, data);
        let mut buf = Vec::new();
        let mut lines = Vec::new();
        loop {
            match super::read_bounded_line(&mut reader, max, &shutdown, &mut buf).unwrap() {
                LineRead::Line(line) => lines.push(Some(line.into_owned())),
                LineRead::TooLong => lines.push(None),
                LineRead::Eof => return lines,
                LineRead::Shutdown => unreachable!("the flag is never set"),
            }
        }
    }

    #[test]
    fn newlines_at_every_word_offset_and_reader_edge_are_found() {
        for capacity in [8, READ_BUFFER_BYTES] {
            // Lines of 0..=17 bytes put a newline at every offset of an
            // 8-byte word, and each shifts the next line's alignment;
            // the long ones end just before, at and past a fill.
            let mut lengths: Vec<usize> = (0..=17).collect();
            for edge in [capacity, 2 * capacity] {
                lengths.extend([edge - 2, edge - 1, edge, edge + 1]);
            }
            lengths.extend((1..=9).rev());
            let want: Vec<String> = lengths
                .iter()
                .enumerate()
                .map(|(i, &len)| {
                    let fill = char::from(b'a' + (i % 26) as u8);
                    std::iter::repeat_n(fill, len).collect()
                })
                .collect();
            let data = want
                .iter()
                .map(|line| format!("{line}\n"))
                .collect::<String>();
            let got = framed(data.as_bytes(), capacity, usize::MAX);
            assert_eq!(
                got,
                want.iter().cloned().map(Some).collect::<Vec<_>>(),
                "capacity {capacity}"
            );
            // The last line unterminated at EOF still counts.
            let got = framed(&data.as_bytes()[..data.len() - 1], capacity, usize::MAX);
            assert_eq!(got.len(), want.len(), "capacity {capacity}");
        }
    }

    #[test]
    fn a_line_of_max_bytes_is_read_and_one_byte_more_is_too_long() {
        for capacity in [8, READ_BUFFER_BYTES] {
            for max in [
                0,
                1,
                7,
                8,
                9,
                16,
                READ_BUFFER_BYTES,
                3 * READ_BUFFER_BYTES + 5,
            ] {
                let full = "x".repeat(max);
                let data = format!("{full}\n{}y\nnext\n{full}", "y".repeat(max));
                let mut want = vec![Some(full.clone()), None];
                want.push((max >= 4).then(|| "next".to_owned()));
                // The last line, unterminated, counts unless empty.
                want.extend((max > 0).then(|| Some(full.clone())));
                assert_eq!(
                    framed(data.as_bytes(), capacity, max),
                    want,
                    "capacity {capacity}, max {max}"
                );
                // Over-long and unterminated at EOF.
                let data = format!("{full}z");
                assert_eq!(framed(data.as_bytes(), capacity, max), vec![None]);
            }
        }
    }

    #[test]
    fn crlf_lines_frame_with_their_cr_and_serve_like_lf_lines() {
        let got = framed(b"ab\r\n\r\nc\n", 8, 16);
        assert_eq!(
            got,
            vec![
                Some("ab\r".to_owned()),
                Some("\r".to_owned()),
                Some("c".to_owned())
            ]
        );
        let server = CircuitServer::new(ServerConfig::default());
        let lf = "{\"type\":\"list\",\"id\":1}\nnot json\n\n{\"type\":\"list\"}\n";
        let crlf = lf.replace('\n', "\r\n");
        let serve = |input: &str| {
            let mut out = Vec::new();
            server
                .serve_connection_ordered(input.as_bytes(), &mut out)
                .unwrap();
            String::from_utf8(out).unwrap()
        };
        let want = serve(lf);
        assert_eq!(want.lines().count(), 3, "{want}");
        assert_eq!(serve(&crlf), want);
    }

    #[test]
    fn what_if_sized_lines_frame_and_decode_like_the_stateless_reader() {
        // ~270 KB, the size of a rand10k `what_if` line.
        let sizes: Vec<f64> = (0..16_500).map(|i| 1.0 + f64::from(i) / 7.0).collect();
        let edits = sizes.len().div_ceil(100) as u64;
        let mut edited = sizes.clone();
        for i in (0..edited.len()).step_by(100) {
            edited[i] *= 1.5;
        }
        let line = |sizes: &[f64]| {
            RequestFrame::new(Request::WhatIf {
                sizes: sizes.to_vec(),
                spec: Some(0.8),
                target: None,
            })
            .to_json_line()
        };
        let lines = [line(&sizes), line(&edited), line(&sizes)];
        assert!(lines[0].len() > 267_000, "{} bytes", lines[0].len());
        let data = lines.iter().map(|l| format!("{l}\n")).collect::<String>();
        let got = framed(data.as_bytes(), READ_BUFFER_BYTES, 1 << 20);
        assert_eq!(got, lines.iter().cloned().map(Some).collect::<Vec<_>>());
        let shutdown = AtomicBool::new(false);
        let mut requests = RequestReader::new(data.as_bytes());
        for line in &lines {
            let Ok(Some(Ok(frame))) = requests.next(1 << 20, &shutdown) else {
                panic!("a what_if frame");
            };
            assert_eq!(
                format!("{frame:?}"),
                format!("{:?}", RequestFrame::from_json_line(line).unwrap())
            );
        }
        assert!(matches!(requests.next(1 << 20, &shutdown), Ok(None)));
        // The second line parses its edits, the third the same sizes
        // back; every other size is taken from the line before.
        let n = sizes.len() as u64;
        assert_eq!(requests.decoder.tokens(), (3 * n, 2 * (n - edits)));
    }

    #[test]
    fn bounded_line_reader_recovers_mid_stream() {
        let shutdown = AtomicBool::new(false);
        let data = format!("short\n{}\nafter\n", "y".repeat(64));
        let mut reader = io::BufReader::with_capacity(8, data.as_bytes());
        let Ok(LineRead::Line(a)) = read_bounded_line(&mut reader, 16, &shutdown) else {
            panic!("first line");
        };
        assert_eq!(a, "short");
        assert!(matches!(
            read_bounded_line(&mut reader, 16, &shutdown),
            Ok(LineRead::TooLong)
        ));
        let Ok(LineRead::Line(b)) = read_bounded_line(&mut reader, 16, &shutdown) else {
            panic!("line after overflow");
        };
        assert_eq!(b, "after");
        assert!(matches!(
            read_bounded_line(&mut reader, 16, &shutdown),
            Ok(LineRead::Eof)
        ));
    }

    /// Counts the `write` calls that reach the transport.
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_line_is_one_write() {
        let server = CircuitServer::new(ServerConfig::default());
        let input = "{\"type\":\"list\",\"id\":1}\nnot json\n{\"type\":\"list\"}\n";
        for pipelined in [false, true] {
            let mut out = CountingWriter {
                bytes: Vec::new(),
                writes: 0,
            };
            if pipelined {
                server.serve_connection(input.as_bytes(), &mut out).unwrap();
            } else {
                server
                    .serve_connection_ordered(input.as_bytes(), &mut out)
                    .unwrap();
            }
            let text = String::from_utf8(out.bytes).unwrap();
            assert_eq!(text.lines().count(), 3, "{text}");
            assert_eq!(out.writes, 3, "{text}");
        }
    }

    #[test]
    fn invalid_utf8_lines_read_as_replacement_characters() {
        let shutdown = AtomicBool::new(false);
        let data: &[u8] = b"ok\xe9\n\xff\xfe";
        let mut reader = io::BufReader::with_capacity(4, data);
        for want in ["ok\u{fffd}", "\u{fffd}\u{fffd}"] {
            let Ok(LineRead::Line(line)) = read_bounded_line(&mut reader, 16, &shutdown) else {
                panic!("line {want:?}");
            };
            assert_eq!(line, want);
        }
    }

    /// `circuit_stats` reads the snapshot the writer publishes after
    /// every job, with and without replicas: after a size/what_if/stats
    /// script it equals the session counters of the final `stats`
    /// response (which a replica answers from that same snapshot on
    /// the replica'd circuit, appending its pool's roll-up).
    #[test]
    fn circuit_stats_match_the_final_stats_response() {
        let netlist = parse_bench("c17", C17_BENCH).unwrap();
        let problem =
            SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap();
        let n = problem.dag().num_vertices();
        let ones = vec!["1"; n].join(",");
        let wider = vec!["1.5"; n].join(",");
        let input = [
            r#"{"type":"size","spec":0.8}"#.to_owned(),
            format!(r#"{{"type":"what_if","sizes":[{ones}],"spec":0.8}}"#),
            format!(r#"{{"type":"what_if","sizes":[{wider}]}}"#),
            r#"{"type":"stats"}"#.to_owned(),
        ]
        .join("\n");
        for replicas in [0, 2] {
            let server = CircuitServer::new(ServerConfig {
                replicas,
                ..Default::default()
            });
            let loaded = server.install("c17", problem.clone());
            assert!(matches!(loaded, Response::Loaded { .. }));
            let mut out = Vec::new();
            server
                .serve_connection_ordered(input.as_bytes(), &mut out)
                .unwrap();
            let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
            assert_eq!(lines.len(), 4, "{lines:#?}");
            assert!(lines[0].starts_with("{\"type\":\"size\""), "{}", lines[0]);
            for line in &lines[1..3] {
                assert!(line.starts_with("{\"type\":\"what_if\""), "{line}");
            }
            let stats = server.circuit_stats("c17").expect("loaded");
            assert_eq!(stats.size_requests, 1);
            let expected = Response::stats(stats).to_json_line();
            if replicas == 0 {
                assert_eq!(lines[3], expected);
            } else {
                let head = expected.strip_suffix('}').unwrap();
                let rest = lines[3].strip_prefix(head).unwrap_or_else(|| {
                    panic!(
                        "replica stats must carry the published counters: {}",
                        lines[3]
                    )
                });
                assert!(rest.starts_with(",\"replicas\":2,"), "{rest}");
            }
            server.join_workers();
        }
    }

    /// Starts a server on an ephemeral TCP port, returning the handle to
    /// join after a `shutdown` request.
    fn start_tcp(
        config: ServerConfig,
    ) -> (
        Arc<CircuitServer>,
        std::net::SocketAddr,
        thread::JoinHandle<io::Result<()>>,
    ) {
        let server = CircuitServer::new(config);
        let (listener, addr) = ServerListener::bind_tcp("127.0.0.1:0").unwrap();
        let runner = {
            let server = Arc::clone(&server);
            thread::spawn(move || server.run(vec![listener]))
        };
        (server, addr, runner)
    }

    fn shut_down(
        addr: std::net::SocketAddr,
        server: &CircuitServer,
        runner: thread::JoinHandle<io::Result<()>>,
    ) {
        let mut client = LineClient::connect(addr).unwrap();
        let ack = client.call(&RequestFrame::new(Request::Shutdown)).unwrap();
        assert_eq!(ack, "{\"type\":\"shutdown\"}");
        runner.join().unwrap().unwrap();
        server.join_workers();
    }

    /// Reads `n` responses and returns them keyed by their echoed `id`.
    fn recv_by_id(client: &mut LineClient<TcpStream>, n: usize) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for _ in 0..n {
            let line = client.recv().unwrap().expect("connection must stay open");
            let id = extract_id(&line)
                .expect("pipelined responses echo ids")
                .trim_matches('"')
                .to_owned();
            out.push((id, line));
        }
        out
    }

    fn line_for<'a>(responses: &'a [(String, String)], id: &str) -> &'a str {
        &responses
            .iter()
            .find(|(got, _)| got == id)
            .unwrap_or_else(|| panic!("no response with id `{id}`"))
            .1
    }

    /// A full weighted queue answers `busy` immediately — without blocking
    /// the reader or dropping the connection — and drains back to healthy.
    #[test]
    fn full_queue_answers_busy_and_recovers() {
        // The test holds the writer, so the admitted sweep stays in flight
        // until the reader has answered the line behind it.
        let hold = WriterHold::default();
        let (server, addr, runner) = start_tcp(ServerConfig {
            max_queue_depth: 1,
            session: SessionConfig::warm(),
            hold_writer: Some(hold.clone()),
            ..Default::default()
        });
        let mut client = LineClient::connect(addr).unwrap();
        let line = client.call(&load_c17_frame("c17")).unwrap();
        assert!(line.contains("\"type\":\"loaded\""), "{line}");

        // An idle circuit admits one request of any weight (a sweep weighs
        // 8 per spec, far over the bound of 1)…
        let sweep = RequestFrame::new(Request::Sweep {
            specs: vec![0.9, 0.8, 0.7],
        })
        .for_circuit("c17")
        .with_id("admitted");
        // …and everything behind it is rejected, not queued, while the
        // held sweep occupies the writer.
        let size = RequestFrame::new(Request::Size {
            spec: Some(0.8),
            target: None,
            return_sizes: false,
        })
        .for_circuit("c17");
        let rejected = size.clone().with_id("rejected");
        client
            .send_raw(&format!(
                "{}\n{}",
                sweep.to_json_line(),
                rejected.to_json_line()
            ))
            .unwrap();

        let responses = recv_by_id(&mut client, 1);
        let busy = line_for(&responses, "rejected");
        assert_eq!(extract_error_code(busy).as_deref(), Some("busy"), "{busy}");
        assert!(busy.contains("queue_depth"), "{busy}");
        hold.release();
        let responses = recv_by_id(&mut client, 1);
        let swept = line_for(&responses, "admitted");
        assert!(swept.contains("\"type\":\"sweep\""), "{swept}");

        // The queue drained: the same request is now admitted and served.
        let line = client.call(&size.with_id("retry")).unwrap();
        assert!(line.contains("\"type\":\"size\""), "{line}");
        shut_down(addr, &server, runner);
    }

    /// A panicking request answers `internal`, poisons only its circuit,
    /// answers queued clients cleanly, and `unload` + `load` recovers —
    /// all over one surviving connection.
    #[test]
    fn worker_panic_poisons_circuit_and_reload_recovers() {
        let (server, addr, runner) = start_tcp(ServerConfig {
            panic_on_spec: Some(0.123),
            session: SessionConfig::warm(),
            ..Default::default()
        });
        let mut client = LineClient::connect(addr).unwrap();
        let line = client.call(&load_c17_frame("c17")).unwrap();
        assert!(line.contains("\"type\":\"loaded\""), "{line}");

        // The fault and an innocent request queued right behind it.
        let boom = RequestFrame::new(Request::Size {
            spec: Some(0.123),
            target: None,
            return_sizes: false,
        })
        .for_circuit("c17");
        let fine = RequestFrame::new(Request::Size {
            spec: Some(0.8),
            target: None,
            return_sizes: false,
        })
        .for_circuit("c17");
        client.send(&boom.clone().with_id("boom")).unwrap();
        client.send(&fine.clone().with_id("behind")).unwrap();

        let responses = recv_by_id(&mut client, 2);
        let crashed = line_for(&responses, "boom");
        assert_eq!(
            extract_error_code(crashed).as_deref(),
            Some("internal"),
            "{crashed}"
        );
        assert!(crashed.contains("panicked"), "{crashed}");
        let behind = line_for(&responses, "behind");
        assert_eq!(
            extract_error_code(behind).as_deref(),
            Some("poisoned"),
            "{behind}"
        );

        // New requests are rejected at admission, and `list` reports it.
        let line = client.call(&fine.clone().with_id("after")).unwrap();
        assert_eq!(
            extract_error_code(&line).as_deref(),
            Some("poisoned"),
            "{line}"
        );
        let line = client.call(&RequestFrame::new(Request::List)).unwrap();
        assert!(line.contains("\"state\":\"poisoned\""), "{line}");

        // unload + load recovers the circuit completely.
        let line = client
            .call(&RequestFrame::new(Request::Unload).for_circuit("c17"))
            .unwrap();
        assert!(line.contains("\"type\":\"unloaded\""), "{line}");
        let line = client.call(&load_c17_frame("c17")).unwrap();
        assert!(line.contains("\"type\":\"loaded\""), "{line}");
        let line = client.call(&fine.with_id("healed")).unwrap();
        assert!(line.contains("\"type\":\"size\""), "{line}");
        shut_down(addr, &server, runner);
    }
}
