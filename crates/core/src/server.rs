//! The concurrent multi-circuit sizing server behind `mft serve` — a
//! registry of warm [`SizingSession`]s answering the line protocol
//! ([`crate::protocol`]) for a whole fleet of circuits from one
//! process.
//!
//! # Process model: shared-nothing sessions, one worker per circuit
//!
//! Requests *within* one circuit are serial by design — a session is
//! one warm state (trajectory, flow network, SMP solver, timing
//! engine), and serializing its requests is what makes every served
//! value bit-identical to a one-shot run. Requests *across* circuits
//! share nothing, so they run fully in parallel. The server maps that
//! directly onto threads:
//!
//! ```text
//!             ┌──────────────┐   accept    ┌─────────────────────┐
//!  clients ──▶│ TCP / Unix   │────────────▶│ connection thread   │──┐
//!             │ listeners    │   (1/conn)  │ read → parse →      │  │ mpsc (per
//!             └──────────────┘             │ dispatch            │  │  circuit)
//!                                          └────────┬────────────┘  ▼
//!                                                   │      ┌──────────────────┐
//!                                    registry ops   │      │ circuit worker   │
//!                                    (load/unload/  │      │ (SizingSession,  │
//!                                    list) answered │      │  FIFO queue)     │
//!                                    inline         │      └────────┬─────────┘
//!                                                   ▼               │ response
//!                                          ┌─────────────────────┐  │ lines
//!                                          │ writer thread       │◀─┘
//!                                          │ (one per connection)│   mpsc
//!                                          └─────────────────────┘
//! ```
//!
//! Each loaded circuit owns a dedicated worker thread holding its
//! [`SizingSession`]; jobs arrive over an mpsc queue and are served
//! strictly in arrival order, so responses for one circuit are FIFO
//! even when several connections interleave requests to it. Responses
//! for *different* circuits complete independently and may interleave
//! on a connection in any order — pipelined clients set the `id`
//! envelope field ([`crate::RequestFrame`]) to correlate them.
//!
//! # Read replicas: single writer, many readers
//!
//! A circuit loaded with `replicas: N` (or a server started with
//! [`ServerConfig::replicas`]) additionally runs N replica threads
//! behind one shared read queue. Pure reads (`what_if`, `stats`) are
//! fanned across the replicas — an idle replica steals the next job —
//! while every mutation (`size`/`size_power`/`sweep`) stays on the
//! single writer, which republishes its stats snapshot after each
//! request and bumps a publish epoch per mutation *before* sending
//! the mutation's response. Each replica answers `what_if` through a
//! [`ReadView`]: a private diff cache over the shared problem that
//! re-times only the gates changed since the replica's *previous*
//! candidate (`delays_diff` + scoped rebase), so near-identical
//! candidate streams cost O(changed gates) per request. A what-if
//! answer is a pure function of the candidate, so replica-served
//! responses are bit-identical to single-worker serving; replica-
//! served reads bump the replica counters reported by `stats` rather
//! than the session counters the writer owns.
//!
//! # Exactness
//!
//! The server adds no numeric behavior of its own: every response body
//! is produced by [`SizingSession::serve`] exactly as in single-session
//! stdin mode, so socket-served values are bit-identical to in-process
//! runs (pinned by `tests/session_golden.rs` over interleaved
//! connections). The wire specification lives in `docs/PROTOCOL.md`;
//! the layer map in `docs/ARCHITECTURE.md`.

use crate::cancel::{is_read_request, read_request_weight, request_weight, CancelToken};
use crate::pipeline::SizingProblem;
use crate::protocol::{
    extract_error_code, extract_id, CircuitSummary, ErrorCode, LoadRequest, ReplicaStatsReport,
    Request, RequestFrame, Response,
};
use crate::session::{error_response, ReadView, SessionConfig, SessionStats, SizingSession};
use mft_circuit::{parse_bench, SizingMode};
use mft_flow::FlowAlgorithm;
use mft_tech::TechLibrary;
use std::collections::HashMap;
use std::io::{self, BufRead};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How long a blocked connection read waits before re-checking the
/// shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);

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
    /// The session configuration applied to `load` requests that do
    /// not name a `preset`.
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
    /// Fault injection for the panic-isolation tests: a `size` request
    /// whose `spec` equals this value panics inside the worker instead
    /// of sizing. Never set outside tests.
    pub panic_on_spec: Option<f64>,
    /// Fault injection for the admission tests: until this gate is
    /// released, every circuit writer waits on it before serving a
    /// request, so a test decides how long a request stays in flight.
    /// Never set outside tests.
    pub hold_writer: Option<WriterHold>,
    /// Default read replicas per circuit: `what_if`/`stats` requests
    /// are fanned across this many reader threads over a shared read
    /// queue while mutations stay on the single writer. `0` (the
    /// default) keeps the legacy single-worker path; a `load` request
    /// can override per circuit via its `replicas` field.
    pub replicas: usize,
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
            panic_on_spec: None,
            hold_writer: None,
            replicas: 0,
        }
    }
}

/// The one-shot gate of [`ServerConfig::hold_writer`]: closed when
/// made, open for good once [`released`](WriterHold::release).
#[derive(Debug, Clone, Default)]
pub struct WriterHold(Arc<(Mutex<bool>, Condvar)>);

impl WriterHold {
    /// A closed gate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens the gate: held writers resume, and later ones pass.
    pub fn release(&self) {
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

/// The session-configuration preset names a `load` request accepts —
/// the single source for both the match and its error message, so the
/// list cannot drift out of the error text.
const SESSION_PRESETS: [&str; 3] = ["warm", "shared_exact", "cold"];

/// A unit of work queued to a circuit worker.
#[allow(clippy::large_enum_variant)]
enum Job {
    /// Serve one protocol request and send the finished response line
    /// (with the id already spliced in) to the connection's writer.
    Serve {
        id: Option<String>,
        request: Request,
        reply: mpsc::Sender<String>,
        /// Absolute deadline (from `deadline_ms` or the server
        /// default): checked at dequeue (expired work is shed without
        /// sizing) and polled inside the sizing loops.
        deadline: Option<Instant>,
        /// Admission weight charged when the job was queued; the
        /// worker refunds it after the job finishes (or is shed).
        weight: usize,
    },
    /// Read the session's cumulative stats without counting a request
    /// (the `--stats` CLI report and [`CircuitServer::aggregate_stats`]).
    Stats(mpsc::Sender<SessionStats>),
}

/// A unit of work queued to a circuit's shared read queue: always a
/// pure read (`what_if`/`stats`), weight 1, served by whichever
/// replica pulls it first.
struct ReadJob {
    id: Option<String>,
    request: Request,
    reply: mpsc::Sender<String>,
    /// Checked at dequeue only — a read is constant-time work, so
    /// there is nothing worth cancelling mid-flight.
    deadline: Option<Instant>,
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

/// The read side of one circuit: N replica threads pulling from one
/// shared queue (an idle replica steals the next job — work stealing
/// with no further machinery), plus the writer-published state the
/// replicas serve from.
struct ReadPool {
    tx: mpsc::Sender<ReadJob>,
    /// Queued read gauge — the `read_queue_depth` of `list` rows and
    /// the read-path admission bound.
    depth: Arc<AtomicUsize>,
    replicas: usize,
    handles: Vec<thread::JoinHandle<()>>,
}

/// The writer-side publish handles (present only when the circuit has
/// a replica pool): after each served request the writer republishes
/// its stats snapshot, and after each *mutation* bumps the epoch.
struct WriterPublish {
    epoch: Arc<AtomicU64>,
    published: Arc<Mutex<SessionStats>>,
}

/// A loaded circuit: its worker queue plus the static facts `list`
/// reports without bothering the worker.
struct CircuitEntry {
    tx: mpsc::Sender<Job>,
    worker: Option<thread::JoinHandle<()>>,
    gates: usize,
    vertices: usize,
    dmin: f64,
    requests: Arc<AtomicUsize>,
    /// Weighted queued-work gauge — incremented at admission,
    /// decremented by the worker after each job; the admission bound
    /// and the `list` row's `queue_depth` both read it.
    depth: Arc<AtomicUsize>,
    /// Set when a request panicked inside the worker. A poisoned
    /// circuit answers clean `poisoned` errors (never strands queued
    /// clients) until an `unload`+`load` cycle replaces it.
    poisoned: Arc<AtomicBool>,
    /// The circuit's read-replica pool, when it was loaded with
    /// `replicas > 0`.
    read: Option<ReadPool>,
}

/// The admission-relevant handles of one resolved circuit (cloned out
/// of the registry under its lock, used after the lock is released).
struct ResolvedCircuit {
    tx: mpsc::Sender<Job>,
    depth: Arc<AtomicUsize>,
    poisoned: Arc<AtomicBool>,
    read: Option<ResolvedReadPool>,
}

/// The admission-relevant handles of a resolved circuit's read pool.
struct ResolvedReadPool {
    tx: mpsc::Sender<ReadJob>,
    depth: Arc<AtomicUsize>,
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
    /// its worker — the in-process equivalent of a `load` request
    /// (used by the CLI to preload circuits given on the command
    /// line). Answers [`Response::Loaded`] or [`Response::Error`]
    /// (invalid name, duplicate name, registry full).
    pub fn install(&self, name: &str, problem: SizingProblem, session: SessionConfig) -> Response {
        self.install_inner(name, problem, session, false, self.config.replicas)
    }

    /// [`CircuitServer::install`] with hot-replace semantics: an
    /// existing circuit of the same name is atomically swapped out
    /// (its worker drains already-queued requests against the old
    /// session, then exits) — the `load` request's `replace:true`.
    pub fn install_replace(
        &self,
        name: &str,
        problem: SizingProblem,
        session: SessionConfig,
    ) -> Response {
        self.install_inner(name, problem, session, true, self.config.replicas)
    }

    fn install_inner(
        &self,
        name: &str,
        problem: SizingProblem,
        session: SessionConfig,
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
        let (tx, rx) = mpsc::channel();
        let requests = Arc::new(AtomicUsize::new(0));
        let depth = Arc::new(AtomicUsize::new(0));
        let poisoned = Arc::new(AtomicBool::new(false));
        let counter = Arc::clone(&requests);
        let worker_depth = Arc::clone(&depth);
        let worker_poisoned = Arc::clone(&poisoned);
        let panic_on_spec = self.config.panic_on_spec;
        let hold = self.config.hold_writer.clone();
        // The replicas share the (immutable) problem; the session
        // consumes its own copy.
        let shared = (replicas > 0).then(|| Arc::new(problem.clone()));
        let session = SizingSession::new(problem, session);
        // Build the read pool before spawning the writer so the writer
        // holds its publish handles from the first request on.
        let mut read = None;
        let mut publish = None;
        if let Some(shared) = shared {
            let (read_tx, read_rx) = mpsc::channel::<ReadJob>();
            let read_rx = Arc::new(Mutex::new(read_rx));
            let read_depth = Arc::new(AtomicUsize::new(0));
            let epoch = Arc::new(AtomicU64::new(0));
            let published = Arc::new(Mutex::new(session.stats()));
            let counters = Arc::new(ReplicaCounters::new(replicas));
            let mut handles = Vec::with_capacity(replicas);
            for index in 0..replicas {
                let view = ReadView::new(Arc::clone(&shared));
                let rx = Arc::clone(&read_rx);
                let counters = Arc::clone(&counters);
                let depth = Arc::clone(&read_depth);
                let epoch = Arc::clone(&epoch);
                let published = Arc::clone(&published);
                let requests = Arc::clone(&requests);
                let poisoned = Arc::clone(&poisoned);
                match thread::Builder::new()
                    .name(format!("mft-replica-{name}-{index}"))
                    .spawn(move || {
                        replica_loop(
                            view, rx, index, counters, depth, epoch, published, requests, poisoned,
                        )
                    }) {
                    Ok(handle) => handles.push(handle),
                    // Already-spawned replicas exit once `read_tx`
                    // drops with this early return.
                    Err(e) => return Response::error(format!("cannot spawn read replica: {e}")),
                }
            }
            publish = Some(WriterPublish { epoch, published });
            read = Some(ReadPool {
                tx: read_tx,
                depth: read_depth,
                replicas,
                handles,
            });
        }
        let worker = match thread::Builder::new()
            .name(format!("mft-circuit-{name}"))
            .spawn(move || {
                worker_loop(
                    session,
                    rx,
                    counter,
                    worker_depth,
                    worker_poisoned,
                    panic_on_spec,
                    hold,
                    publish,
                )
            }) {
            Ok(worker) => worker,
            // Resource exhaustion must answer an error, not unwind
            // (especially not while the registry lock is held).
            Err(e) => return Response::error(format!("cannot spawn circuit worker: {e}")),
        };
        let mut circuits = self.circuits.lock().expect("registry lock");
        if !replace && circuits.contains_key(name) {
            // The worker exits on its own once `tx` drops here.
            return Response::error(format!(
                "circuit `{name}` is already loaded (set `replace:true` to hot-swap it)"
            ));
        }
        if !circuits.contains_key(name) && circuits.len() >= self.config.max_circuits {
            return Response::error(format!(
                "registry is full ({} circuits; unload one or raise --max-circuits)",
                circuits.len()
            ));
        }
        let old = circuits.insert(
            name.to_owned(),
            CircuitEntry {
                tx,
                worker: Some(worker),
                gates,
                vertices,
                dmin,
                requests,
                depth,
                poisoned,
                read,
            },
        );
        drop(circuits);
        // Replaced entry (only under `replace:true`): dropping it
        // closes the old queue sender and detaches the old worker,
        // which drains its already-queued requests against the old
        // session and exits — exactly the unload semantics, with the
        // new session answering every request admitted from now on.
        drop(old);
        Response::Loaded {
            circuit: name.to_owned(),
            gates,
            vertices,
            dmin,
            min_area,
        }
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
        // Cheap duplicate/capacity precheck before the expensive
        // parse + problem preparation — a full registry must not let
        // clients burn seconds of prepare CPU per rejected load. Racy
        // by design; `install` re-checks under the lock at insert.
        {
            let circuits = self.circuits.lock().expect("registry lock");
            if !load.replace && circuits.contains_key(name) {
                return Response::error(format!(
                    "circuit `{name}` is already loaded (set `replace:true` to hot-swap it)"
                ));
            }
            if !circuits.contains_key(name) && circuits.len() >= self.config.max_circuits {
                return Response::error(format!(
                    "registry is full ({} circuits; unload one or raise --max-circuits)",
                    circuits.len()
                ));
            }
        }
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
        // `tech` (legacy, with short forms) and `corner` (the library
        // field) resolve through the same registry, so the accepted
        // names in the error message are always the registry's actual
        // contents — never a hardcoded list that can drift.
        let library = TechLibrary::standard();
        let requested = match (load.corner.as_deref(), load.tech.as_deref()) {
            (Some(corner), Some(tech)) if corner != canonical_tech(tech) => {
                return Response::error(format!(
                    "load request sets both `corner` (`{corner}`) and a conflicting \
                     `tech` (`{tech}`); pick one"
                ))
            }
            (Some(corner), _) => Some(corner),
            (None, Some(tech)) => Some(canonical_tech(tech)),
            (None, None) => None,
        };
        let corner = match library.resolve(requested, load.vt.as_deref()) {
            Ok(corner) => corner,
            // The error text enumerates the library's registered names.
            Err(e) => return Response::error(format!("unknown technology: {e}")),
        };
        let session = match load.preset.as_deref() {
            None => self.config.session.clone(),
            Some("warm") => SessionConfig::warm(),
            Some("shared_exact") => SessionConfig::shared_exact(),
            Some("cold") => SessionConfig::cold(),
            Some(other) => {
                return Response::error(format!(
                    "unknown preset `{other}` ({})",
                    SESSION_PRESETS.join(" | ")
                ))
            }
        };
        // `simplex` is the only backend, and every preset runs it: the
        // field is checked, not applied.
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
                session,
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
                // Dropping the entry drops the queue sender *and*
                // detaches the JoinHandle: the worker drains what is
                // already queued (in-flight responses still reach
                // their connections through the reply senders each
                // job carries), then exits on its own — nothing
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
                let write_queue_depth = entry.depth.load(Ordering::Relaxed);
                let (read_queue_depth, replicas) = entry
                    .read
                    .as_ref()
                    .map(|p| (p.depth.load(Ordering::Relaxed), p.replicas))
                    .unwrap_or((0, 0));
                let state = if entry.poisoned.load(Ordering::Relaxed) {
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
                    replicas,
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

    /// A snapshot of one circuit's cumulative [`SessionStats`]
    /// (queued behind in-flight requests; does not count as a request
    /// itself). `None` when the circuit is not loaded.
    pub fn circuit_stats(&self, name: &str) -> Option<SessionStats> {
        let tx = self
            .circuits
            .lock()
            .expect("registry lock")
            .get(name)?
            .tx
            .clone();
        let (reply, rx) = mpsc::channel();
        tx.send(Job::Stats(reply)).ok()?;
        rx.recv().ok()
    }

    /// The fleet view: every loaded circuit's stats rolled up with
    /// [`SessionStats::merged`].
    pub fn aggregate_stats(&self) -> SessionStats {
        self.circuit_names()
            .iter()
            .filter_map(|name| self.circuit_stats(name))
            .fold(SessionStats::default(), |acc, s| acc.merged(&s))
    }

    /// Resolves which circuit a request addresses: the named one, or
    /// the single loaded circuit when the field is absent.
    fn resolve(&self, name: Option<&str>) -> Result<ResolvedCircuit, String> {
        let circuits = self.circuits.lock().expect("registry lock");
        let resolved = |e: &CircuitEntry| ResolvedCircuit {
            tx: e.tx.clone(),
            depth: Arc::clone(&e.depth),
            poisoned: Arc::clone(&e.poisoned),
            read: e.read.as_ref().map(|p| ResolvedReadPool {
                tx: p.tx.clone(),
                depth: Arc::clone(&p.depth),
            }),
        };
        match name {
            Some(name) => circuits.get(name).map(resolved).ok_or_else(|| {
                format!("unknown circuit `{name}` (send a `load` request first, or `list` the registry)")
            }),
            None => match circuits.len() {
                0 => Err("no circuit loaded (send a `load` request first)".into()),
                1 => Ok(resolved(circuits.values().next().expect("len checked"))),
                n => Err(format!(
                    "{n} circuits loaded; set the `circuit` field to pick one"
                )),
            },
        }
    }

    /// Routes one framed request: registry operations are answered
    /// inline on the calling (connection) thread; circuit-bound
    /// requests are queued to the circuit's worker, which sends the
    /// finished response line to `reply` itself. Every path produces
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

    /// Admission control for one circuit-bound request: charges the
    /// request's weight against the circuit's queue gauge and either
    /// enqueues the job (returning `None` — the worker answers) or
    /// answers inline with a coded `busy`/`poisoned` error. Runs on
    /// the connection thread and never blocks: an over-bound queue is
    /// *rejected*, not waited on, so one slow circuit cannot stall the
    /// reader that other circuits' requests arrive through.
    fn admit(
        &self,
        target: ResolvedCircuit,
        id: Option<String>,
        request: Request,
        deadline_ms: Option<f64>,
        reply: &mpsc::Sender<String>,
    ) -> Option<Response> {
        if target.poisoned.load(Ordering::Relaxed) {
            return Some(Response::coded_error(
                ErrorCode::Poisoned,
                "circuit is poisoned by an earlier panic; unload and reload it",
            ));
        }
        // Pure reads bypass the writer entirely when the circuit has a
        // replica pool: they are admitted against the read queue's own
        // gauge and served by whichever replica steals them first.
        if let Some(pool) = &target.read {
            if is_read_request(&request) {
                return self.admit_read(pool, id, request, deadline_ms, reply);
            }
        }
        let weight = request_weight(&request);
        let deadline = match self.reserve(&target.depth, weight, "circuit queue", deadline_ms) {
            Ok(deadline) => deadline,
            Err(busy) => return Some(busy),
        };
        let job = Job::Serve {
            id,
            request,
            reply: reply.clone(),
            deadline,
            weight,
        };
        match target.tx.send(job) {
            Ok(()) => None,
            Err(_) => {
                target.depth.fetch_sub(weight, Ordering::Relaxed);
                Some(Response::error(
                    "circuit worker is gone; unload and reload it",
                ))
            }
        }
    }

    /// Read-path admission: like [`CircuitServer::admit`] but against
    /// the circuit's read-queue gauge (every read weighs 1), so a
    /// burst of what-ifs can never crowd mutations out of the writer
    /// queue — nor the other way around.
    fn admit_read(
        &self,
        pool: &ResolvedReadPool,
        id: Option<String>,
        request: Request,
        deadline_ms: Option<f64>,
        reply: &mpsc::Sender<String>,
    ) -> Option<Response> {
        let weight = read_request_weight(&request);
        let deadline = match self.reserve(&pool.depth, weight, "circuit read queue", deadline_ms) {
            Ok(deadline) => deadline,
            Err(busy) => return Some(busy),
        };
        let job = ReadJob {
            id,
            request,
            reply: reply.clone(),
            deadline,
        };
        match pool.tx.send(job) {
            Ok(()) => None,
            Err(_) => {
                pool.depth.fetch_sub(weight, Ordering::Relaxed);
                Some(Response::error(
                    "circuit replicas are gone; unload and reload it",
                ))
            }
        }
    }

    /// Charges `weight` against a queue's `depth` gauge and resolves the
    /// request's deadline, or answers a coded `busy` naming the `queue`
    /// (the gauge is left as it was). A request is admitted whenever
    /// the queue was empty — a single request heavier than the whole
    /// bound must still be servable — but once anything is queued,
    /// `max_queue_depth` is a hard ceiling.
    fn reserve(
        &self,
        depth: &AtomicUsize,
        weight: usize,
        queue: &str,
        deadline_ms: Option<f64>,
    ) -> Result<Option<Instant>, Response> {
        let prev = depth.fetch_add(weight, Ordering::Relaxed);
        if prev > 0 && prev + weight > self.config.max_queue_depth {
            depth.fetch_sub(weight, Ordering::Relaxed);
            return Err(Response::coded_error(
                ErrorCode::Busy { queue_depth: prev },
                format!(
                    "{queue} is full ({prev} of {} weighted units); retry with backoff",
                    self.config.max_queue_depth
                ),
            ));
        }
        // Clamp before converting: a hostile-but-valid `deadline_ms`
        // like 1e300 must not overflow the Duration/Instant arithmetic
        // (≈ 31 years is "unbounded" for any practical purpose).
        Ok(deadline_ms
            .or(self.config.default_deadline_ms)
            .map(|ms| Instant::now() + Duration::from_secs_f64(ms.min(1e12) / 1000.0)))
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
        let mut reader = io::BufReader::new(reader);
        loop {
            let response =
                match read_bounded_line(&mut reader, self.config.max_line_bytes, &self.shutdown)? {
                    LineRead::Eof | LineRead::Shutdown => return Ok(()),
                    LineRead::TooLong => Response::error(format!(
                        "request line exceeds {} bytes",
                        self.config.max_line_bytes
                    ))
                    .to_json_line(),
                    LineRead::Line(line) => {
                        let line = line.trim();
                        if line.is_empty() {
                            continue;
                        }
                        match RequestFrame::from_json_line(line) {
                            Err(e) => Response::error(e.to_string())
                                .to_json_line_with_id(extract_id(line).as_deref()),
                            Ok(frame) => {
                                // Rendezvous: exactly one response line per
                                // dispatch (inline or from the worker);
                                // wait for it before reading on.
                                let (tx, rx) = mpsc::channel::<String>();
                                self.dispatch(frame, &tx);
                                drop(tx);
                                match rx.recv() {
                                    Ok(line) => line,
                                    // Only reachable if a worker died
                                    // mid-request; keep the stream up.
                                    Err(_) => {
                                        Response::error("request was dropped by its circuit worker")
                                            .to_json_line()
                                    }
                                }
                            }
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
        let mut reader = io::BufReader::new(reader);
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
                match read_bounded_line(&mut reader, self.config.max_line_bytes, &self.shutdown) {
                    Err(e) => {
                        read_error = Some(e);
                        break;
                    }
                    Ok(LineRead::Eof) | Ok(LineRead::Shutdown) => break,
                    Ok(LineRead::TooLong) => {
                        let line = Response::error(format!(
                            "request line exceeds {} bytes",
                            self.config.max_line_bytes
                        ))
                        .to_json_line();
                        if tx.send(line).is_err() {
                            break;
                        }
                    }
                    Ok(LineRead::Line(line)) => {
                        let line = line.trim();
                        if line.is_empty() {
                            continue;
                        }
                        match RequestFrame::from_json_line(line) {
                            Ok(frame) => self.dispatch(frame, &tx),
                            Err(e) => {
                                let response = Response::error(e.to_string())
                                    .to_json_line_with_id(extract_id(line).as_deref());
                                if tx.send(response).is_err() {
                                    break;
                                }
                            }
                        }
                        // A shutdown request ends this connection too
                        // (its acknowledgement is already queued).
                        if self.is_shutting_down() {
                            break;
                        }
                    }
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

    /// Drops every circuit (closing the worker queues) and joins the
    /// loaded circuits' worker threads. (Workers of already-unloaded
    /// circuits were detached at unload and exit on their own.) Safe
    /// to call repeatedly.
    pub fn join_workers(&self) {
        let mut handles: Vec<thread::JoinHandle<()>> = Vec::new();
        {
            let mut circuits = self.circuits.lock().expect("registry lock");
            for (_, mut entry) in circuits.drain() {
                if let Some(handle) = entry.worker.take() {
                    handles.push(handle);
                }
                if let Some(pool) = entry.read.take() {
                    let ReadPool {
                        tx,
                        handles: read_handles,
                        ..
                    } = pool;
                    // The replicas exit once the queue sender is gone.
                    drop(tx);
                    handles.extend(read_handles);
                }
            }
        }
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Maps the legacy `tech` short forms onto registry corner names so
/// historical `{"tech":"130"}` loads keep resolving.
fn canonical_tech(name: &str) -> &str {
    match name {
        "130" => "130nm",
        "180" => "180nm",
        "65" => "65nm",
        other => other,
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

/// One circuit worker: owns the warm session, serves its queue in
/// FIFO order, and ships finished response lines straight to each
/// job's connection writer. Expired jobs are shed at dequeue without
/// touching the session; a panicking request poisons the circuit but
/// the loop keeps draining, so every queued client gets an answer.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    mut session: SizingSession,
    rx: mpsc::Receiver<Job>,
    requests: Arc<AtomicUsize>,
    depth: Arc<AtomicUsize>,
    poisoned: Arc<AtomicBool>,
    panic_on_spec: Option<f64>,
    hold: Option<WriterHold>,
    publish: Option<WriterPublish>,
) {
    while let Ok(job) = rx.recv() {
        match job {
            Job::Serve {
                id,
                request,
                reply,
                deadline,
                weight,
            } => {
                if let Some(hold) = &hold {
                    hold.wait();
                }
                let response =
                    serve_one(&mut session, &request, deadline, &poisoned, panic_on_spec);
                // Single-writer republish: fresh counters for
                // replica-served `stats`, and an epoch bump per
                // mutation *before* the mutation's response leaves —
                // a client that observed the response can never see a
                // replica still claiming the older epoch.
                if let Some(publish) = &publish {
                    *publish.published.lock().expect("publish lock") = session.stats();
                    if !is_read_request(&request) {
                        publish.epoch.fetch_add(1, Ordering::Release);
                    }
                }
                // Refund the admission weight only after the work is
                // done — queued *and running* work counts against the
                // bound, which is what keeps memory bounded.
                depth.fetch_sub(weight, Ordering::Relaxed);
                requests.fetch_add(1, Ordering::Relaxed);
                // The connection may already be gone; its responses
                // are simply dropped.
                let _ = reply.send(response.to_json_line_with_id(id.as_deref()));
            }
            Job::Stats(reply) => {
                let _ = reply.send(session.stats());
            }
        }
    }
}

/// One read replica: steals jobs off the circuit's shared read queue,
/// answers `what_if` through its [`ReadView`] (previous-candidate diff
/// cache) and `stats` from the writer's published snapshot. Shares the
/// writer's fault fences — poisoned short-circuit, expired-at-dequeue
/// shed, panic catch — byte-for-byte.
#[allow(clippy::too_many_arguments)]
fn replica_loop(
    mut view: ReadView,
    rx: Arc<Mutex<mpsc::Receiver<ReadJob>>>,
    index: usize,
    counters: Arc<ReplicaCounters>,
    depth: Arc<AtomicUsize>,
    epoch: Arc<AtomicU64>,
    published: Arc<Mutex<SessionStats>>,
    requests: Arc<AtomicUsize>,
    poisoned: Arc<AtomicBool>,
) {
    let mut seen_epoch = 0u64;
    loop {
        // One replica at a time waits on `recv`; the rest park on the
        // mutex. Pickup is serialized, the served work is not.
        let job = {
            let Ok(guard) = rx.lock() else { return };
            match guard.recv() {
                Ok(job) => job,
                Err(_) => return,
            }
        };
        let ReadJob {
            id,
            request,
            reply,
            deadline,
        } = job;
        let response = serve_read(
            &mut view,
            &request,
            deadline,
            &poisoned,
            &mut seen_epoch,
            &epoch,
            &published,
            &counters,
        );
        depth.fetch_sub(1, Ordering::Relaxed);
        requests.fetch_add(1, Ordering::Relaxed);
        counters.served[index].fetch_add(1, Ordering::Relaxed);
        let _ = reply.send(response.to_json_line_with_id(id.as_deref()));
    }
}

/// Serves one dequeued read on a replica inside the same [`fenced`]
/// fault fences as the writer's [`serve_one`].
#[allow(clippy::too_many_arguments)]
fn serve_read(
    view: &mut ReadView,
    request: &Request,
    deadline: Option<Instant>,
    poisoned: &AtomicBool,
    seen_epoch: &mut u64,
    epoch: &AtomicU64,
    published: &Mutex<SessionStats>,
    counters: &ReplicaCounters,
) -> Response {
    fenced(deadline, poisoned, || {
        // Epoch fence: a writer republish drops the previous-candidate
        // diff base. A what-if answer is a pure function of the
        // candidate, so this pins the republish contract rather than
        // correctness.
        let current = epoch.load(Ordering::Acquire);
        if current != *seen_epoch {
            *seen_epoch = current;
            view.invalidate();
            counters.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        match request {
            Request::WhatIf {
                sizes,
                spec,
                target,
            } => {
                let target = target.or_else(|| spec.map(|s| s * view.dmin()));
                match view.what_if(sizes, target) {
                    Ok((report, used_diff)) => {
                        if used_diff {
                            counters.diff_hits.fetch_add(1, Ordering::Relaxed);
                        } else {
                            counters.full_timings.fetch_add(1, Ordering::Relaxed);
                        }
                        Response::WhatIf(report)
                    }
                    Err(e) => error_response(&e),
                }
            }
            Request::Stats => Response::Stats {
                stats: Box::new(*published.lock().expect("publish lock")),
                replicas: Some(counters.report(current)),
            },
            // Unreachable: admission routes only reads here.
            _ => Response::error("replica received a non-read request"),
        }
    })
}

/// Serves one dequeued request on the writer: the [`fenced`] fault
/// fences around a deadline-token `serve`.
fn serve_one(
    session: &mut SizingSession,
    request: &Request,
    deadline: Option<Instant>,
    poisoned: &AtomicBool,
    panic_on_spec: Option<f64>,
) -> Response {
    fenced(deadline, poisoned, || {
        if let (Some(bad), Request::Size { spec: Some(s), .. }) = (panic_on_spec, request) {
            assert!(
                *s != bad,
                "injected fault: size spec {s} panics by configuration"
            );
        }
        let token = match deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        session.serve_with(request, &token)
    })
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

/// Result of one bounded line read.
enum LineRead {
    /// A complete line (without its newline).
    Line(String),
    /// The line exceeded the byte bound; it was discarded up to the
    /// next newline.
    TooLong,
    /// Clean end of stream.
    Eof,
    /// The server's shutdown flag was observed while waiting for input.
    Shutdown,
}

/// Reads one newline-terminated line of at most `max` bytes. Longer
/// lines are consumed and discarded up to their newline and reported
/// as [`LineRead::TooLong`]. Read timeouts (used by socket connections
/// to stay responsive) re-check `shutdown` and otherwise keep
/// accumulating — a partially received line survives the poll.
fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    max: usize,
    shutdown: &AtomicBool,
) -> io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflow = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.load(Ordering::Relaxed) {
                    return Ok(LineRead::Shutdown);
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            // EOF. A trailing unterminated line still counts.
            return Ok(if overflow {
                LineRead::TooLong
            } else if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(into_text(buf))
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                if !overflow && buf.len() + newline <= max {
                    buf.extend_from_slice(&chunk[..newline]);
                } else {
                    overflow = true;
                }
                reader.consume(newline + 1);
                return Ok(if overflow {
                    LineRead::TooLong
                } else {
                    LineRead::Line(into_text(buf))
                });
            }
            None => {
                if !overflow && buf.len() + chunk.len() <= max {
                    buf.extend_from_slice(chunk);
                } else {
                    overflow = true;
                    buf.clear();
                }
                let n = chunk.len();
                reader.consume(n);
            }
        }
    }
}

/// Writes `line` and its newline with one `write_all` — one syscall,
/// not two, per line on an unbuffered socket — then flushes.
fn write_line<W: io::Write>(writer: &mut W, mut line: String) -> io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// The line as text: its own bytes when they are valid UTF-8, else a
/// copy with U+FFFD in place of each invalid sequence.
fn into_text(buf: Vec<u8>) -> String {
    String::from_utf8(buf).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
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
            server.install("a", problem.clone(), SessionConfig::warm()),
            Response::Loaded { .. }
        ));
        let Response::Error { message, .. } =
            server.install("a", problem.clone(), SessionConfig::warm())
        else {
            panic!("duplicate load must fail");
        };
        assert!(message.contains("already loaded"), "{message}");
        let Response::Error { message, .. } = server.install("b", problem, SessionConfig::warm())
        else {
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
}
