//! The newline-delimited JSON line protocol of the sizing service —
//! the wire format behind `mft serve` (stdin/stdout and socket modes),
//! the multi-circuit server ([`crate::CircuitServer`]) and
//! [`SizingSession::serve`](crate::SizingSession::serve).
//!
//! One request per line in, one response per line out. The JSON is
//! hand-rolled both ways (a ~100-line recursive-descent reader and
//! plain string emitters, like the crate's CSV emitters) — no serde,
//! no dependencies. The complete wire specification — framing, field
//! tables for every request/response type, error semantics, ordering
//! guarantees, worked `nc`/python examples — lives in
//! `docs/PROTOCOL.md` at the repository root.
//!
//! # Requests
//!
//! ```json
//! {"type":"size","spec":0.7}
//! {"type":"size","target":850.0,"return_sizes":true}
//! {"type":"size_power","spec":0.7}
//! {"type":"sweep","specs":[0.9,0.8,0.7]}
//! {"type":"what_if","sizes":[1.0,2.0,1.5],"target":900.0}
//! {"type":"stats"}
//! {"type":"load","circuit":"c17","path":"bench/c17.bench"}
//! {"type":"unload","circuit":"c17"}
//! {"type":"list"}
//! {"type":"shutdown"}
//! ```
//!
//! `size` takes `spec` (a `T/D_min` fraction) or `target` (absolute
//! picoseconds; wins when both are given); `size_power` takes the same
//! fields but minimizes total power instead of area. `what_if` accepts
//! the same pair optionally, for slack reporting. `load`/`unload`/
//! `list`/`shutdown` drive the multi-circuit registry of
//! [`crate::CircuitServer`]; `load` optionally names a technology
//! `corner` and a `vt` flavor from the server's technology library.
//!
//! # The envelope: `id` and `circuit`
//!
//! Every request may carry two extra fields, parsed by
//! [`RequestFrame::from_json_line`]:
//!
//! * `"id"` — a client-chosen string or finite number, echoed on the
//!   response line as its first field. Pipelined clients (several
//!   requests in flight on one connection) need it to correlate
//!   responses, because responses for *different* circuits may return
//!   in any order (see the ordering notes in `docs/PROTOCOL.md`).
//! * `"circuit"` — which loaded circuit the request addresses (and the
//!   registration name of a `load`). Optional while exactly one
//!   circuit is loaded.
//!
//! [`Request::from_json_line`] ignores both (single-session mode has no
//! registry and answers strictly in order).
//!
//! # Responses
//!
//! Every response carries a matching `"type"` (`size`, `sweep`,
//! `what_if`, `stats`, `loaded`, `unloaded`, `list`, `shutdown`, or
//! `error`); request-level failures come back as
//! `{"type":"error","message":"…"}` lines, so a bad request never
//! tears down the stream.

use crate::codec::{parse_json, push_json_string, push_num, push_nums, Json};
use crate::curve::SweepOutcome;
use crate::error::MftError;
use crate::session::{SessionStats, WhatIfReport};
use std::fmt::Write as _;

/// The most read replicas one circuit may run (`load.replicas`, and
/// `mft serve --replicas`): each replica is one thread.
pub const MAX_REPLICAS: usize = 64;

/// The body of a `load` request: where the netlist comes from and how
/// to prepare it (see `docs/PROTOCOL.md` for the field table).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadRequest {
    /// Server-side path to a `.bench` file (exactly one of `path` /
    /// `bench` must be set).
    pub path: Option<String>,
    /// Inline `.bench` netlist text.
    pub bench: Option<String>,
    /// Sizing mode: `gate` (default) | `wire` | `transistor`.
    pub mode: Option<String>,
    /// Technology-library corner name: `130nm` (default, the library's
    /// first corner) | `180nm` | `65nm`.
    pub corner: Option<String>,
    /// Threshold-voltage flavor: `svt` (default) | `lvt` | `hvt`.
    pub vt: Option<String>,
    /// Session preset: `warm` | `cold`, checked but not applied (every
    /// circuit loads the server's one session configuration); kept for
    /// wire compatibility.
    pub preset: Option<String>,
    /// D-phase flow backend: only `simplex`, checked but not applied;
    /// the server answers the names of removed backends with an error.
    pub flow: Option<String>,
    /// Atomically replace an already-loaded circuit of the same name
    /// (hot reload): the old worker drains its in-flight requests on
    /// the old session while new requests go to the fresh one. Without
    /// it, loading over an existing name is an error.
    pub replace: bool,
    /// Read replicas for this circuit: `what_if`/`stats` requests are
    /// fanned across this many reader threads while mutating requests
    /// stay on the single writer. `None` falls back to the server's
    /// configured default (`0` — the legacy single-worker path).
    pub replicas: Option<usize>,
}

/// A typed service request (see the module docs for the wire shapes).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Request {
    /// Full MINFLOTRANSIT sizing to one delay target.
    Size {
        /// Delay target as a `T/D_min` fraction.
        spec: Option<f64>,
        /// Absolute delay target (wins over `spec` when both are set).
        target: Option<f64>,
        /// Whether the response should carry the full size vector.
        return_sizes: bool,
    },
    /// Full MINFLOTRANSIT sizing to one delay target, minimizing total
    /// power (leakage + activity-weighted switching) instead of area.
    SizePower {
        /// Delay target as a `T/D_min` fraction.
        spec: Option<f64>,
        /// Absolute delay target (wins over `spec` when both are set).
        target: Option<f64>,
        /// Whether the response should carry the full size vector.
        return_sizes: bool,
    },
    /// An area–delay sweep over `T/D_min` specifications.
    Sweep {
        /// The specifications, in the caller's order.
        specs: Vec<f64>,
    },
    /// Re-time a candidate size vector (no optimization).
    WhatIf {
        /// The candidate sizes (one per DAG vertex).
        sizes: Vec<f64>,
        /// Optional `T/D_min` fraction to report slack against.
        spec: Option<f64>,
        /// Optional absolute target (wins over `spec`).
        target: Option<f64>,
    },
    /// Cumulative session statistics.
    Stats,
    /// Load a circuit into the server's registry; the circuit's name
    /// is the enclosing frame's `circuit` field.
    Load(LoadRequest),
    /// Remove the frame's circuit from the registry (queued requests
    /// still complete; the warm session is dropped afterwards).
    Unload,
    /// List the registry: every loaded circuit with its per-circuit
    /// service roll-up.
    List,
    /// Ask the server to shut down gracefully (stop accepting, drain
    /// in-flight requests, exit).
    Shutdown,
}

impl Request {
    /// The wire `type` tags of every request variant, in declaration
    /// order. Kept in sync with the enum by the exhaustive match in
    /// [`Request::wire_type`]; the docs-coverage test asserts every
    /// tag is documented in `docs/PROTOCOL.md`.
    pub const WIRE_TYPES: &'static [&'static str] = &[
        "size",
        "size_power",
        "sweep",
        "what_if",
        "stats",
        "load",
        "unload",
        "list",
        "shutdown",
    ];

    /// The wire `type` tag of this request.
    pub fn wire_type(&self) -> &'static str {
        match self {
            Request::Size { .. } => "size",
            Request::SizePower { .. } => "size_power",
            Request::Sweep { .. } => "sweep",
            Request::WhatIf { .. } => "what_if",
            Request::Stats => "stats",
            Request::Load(_) => "load",
            Request::Unload => "unload",
            Request::List => "list",
            Request::Shutdown => "shutdown",
        }
    }

    /// Parses one protocol line, ignoring any envelope fields (`id`,
    /// `circuit`) — see [`RequestFrame::from_json_line`] for the
    /// envelope-aware parse used by the server.
    ///
    /// # Errors
    ///
    /// [`MftError::Protocol`] on malformed JSON, an unknown `type`, or
    /// missing/ill-typed fields.
    pub fn from_json_line(line: &str) -> Result<Request, MftError> {
        let mut value = parse_json(line).map_err(MftError::Protocol)?;
        Request::from_fields(&mut Fields::of_request(&mut value)?)
    }

    /// Parses the request payload out of an already-parsed JSON object
    /// (number arrays are moved out of it).
    fn from_fields(fields: &mut Fields) -> Result<Request, MftError> {
        let kind = fields
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| MftError::Protocol("missing string field `type`".into()))?;
        match kind {
            "size" => {
                let spec = fields.finite_opt("spec")?;
                let target = fields.finite_opt("target")?;
                if spec.is_none() && target.is_none() {
                    return Err(MftError::Protocol(
                        "size request needs `spec` or `target`".into(),
                    ));
                }
                let return_sizes = fields.bool_opt("return_sizes")?.unwrap_or(false);
                Ok(Request::Size {
                    spec,
                    target,
                    return_sizes,
                })
            }
            "size_power" => {
                let spec = fields.finite_opt("spec")?;
                let target = fields.finite_opt("target")?;
                if spec.is_none() && target.is_none() {
                    return Err(MftError::Protocol(
                        "size_power request needs `spec` or `target`".into(),
                    ));
                }
                let return_sizes = fields.bool_opt("return_sizes")?.unwrap_or(false);
                Ok(Request::SizePower {
                    spec,
                    target,
                    return_sizes,
                })
            }
            "sweep" => {
                let specs = fields.num_array("specs")?;
                if specs.iter().any(|x| !x.is_finite()) {
                    return Err(MftError::Protocol(
                        "field `specs` must contain only finite numbers".into(),
                    ));
                }
                Ok(Request::Sweep { specs })
            }
            "what_if" => Ok(Request::WhatIf {
                sizes: fields.num_array("sizes")?,
                spec: fields.finite_opt("spec")?,
                target: fields.finite_opt("target")?,
            }),
            "stats" => Ok(Request::Stats),
            "load" => {
                // A stale `tech` key must not silently load the default corner.
                if fields.get("tech").is_some() {
                    return Err(MftError::Protocol(
                        "load field `tech` was removed; use `corner`".into(),
                    ));
                }
                let load = LoadRequest {
                    path: fields.str_opt("path")?,
                    bench: fields.str_opt("bench")?,
                    mode: fields.str_opt("mode")?,
                    corner: fields.str_opt("corner")?,
                    vt: fields.str_opt("vt")?,
                    preset: fields.str_opt("preset")?,
                    flow: fields.str_opt("flow")?,
                    replace: fields.bool_opt("replace")?.unwrap_or(false),
                    replicas: match fields.num_opt("replicas")? {
                        None => None,
                        Some(n) => {
                            if !(0.0..=MAX_REPLICAS as f64).contains(&n) || n.fract() != 0.0 {
                                return Err(MftError::Protocol(format!(
                                    "load field `replicas` must be an integer in 0..={MAX_REPLICAS}"
                                )));
                            }
                            Some(n as usize)
                        }
                    },
                };
                if load.path.is_some() == load.bench.is_some() {
                    return Err(MftError::Protocol(
                        "load request takes exactly one of `path` or `bench`".into(),
                    ));
                }
                Ok(Request::Load(load))
            }
            "unload" => Ok(Request::Unload),
            "list" => Ok(Request::List),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(MftError::Protocol(format!(
                "unknown request type `{other}`"
            ))),
        }
    }

    /// Emits the request as one protocol line (the client side of the
    /// wire; round-trips through [`Request::from_json_line`]).
    pub fn to_json_line(&self) -> String {
        let mut s = String::from("{");
        self.push_fields(&mut s);
        s
    }

    /// Appends the request's fields and the closing brace: the line
    /// after its opening `{`, so an envelope can go in front.
    fn push_fields(&self, s: &mut String) {
        match self {
            Request::Size {
                spec,
                target,
                return_sizes,
            }
            | Request::SizePower {
                spec,
                target,
                return_sizes,
            } => {
                let _ = write!(s, "\"type\":\"{}\"", self.wire_type());
                push_opt_field(s, "spec", *spec);
                push_opt_field(s, "target", *target);
                if *return_sizes {
                    s.push_str(",\"return_sizes\":true");
                }
            }
            Request::Sweep { specs } => {
                s.push_str("\"type\":\"sweep\",\"specs\":");
                push_nums(s, specs);
            }
            Request::WhatIf {
                sizes,
                spec,
                target,
            } => {
                s.push_str("\"type\":\"what_if\",\"sizes\":");
                push_nums(s, sizes);
                push_opt_field(s, "spec", *spec);
                push_opt_field(s, "target", *target);
            }
            Request::Load(load) => {
                s.push_str("\"type\":\"load\"");
                for (key, value) in [
                    ("path", &load.path),
                    ("bench", &load.bench),
                    ("mode", &load.mode),
                    ("corner", &load.corner),
                    ("vt", &load.vt),
                    ("preset", &load.preset),
                    ("flow", &load.flow),
                ] {
                    if let Some(value) = value {
                        let _ = write!(s, ",\"{key}\":");
                        push_json_string(s, value);
                    }
                }
                if load.replace {
                    s.push_str(",\"replace\":true");
                }
                if let Some(replicas) = load.replicas {
                    let _ = write!(s, ",\"replicas\":{replicas}");
                }
            }
            Request::Stats | Request::Unload | Request::List | Request::Shutdown => {
                let _ = write!(s, "\"type\":\"{}\"", self.wire_type());
            }
        }
        s.push('}');
    }
}

/// One request plus its envelope: the client-chosen `id` (echoed on
/// the response) and the `circuit` the request addresses in a
/// multi-circuit server. This is what the server parses off the wire;
/// [`Request::from_json_line`] is the envelope-less single-session
/// parse.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Raw JSON fragment of the request's `id` in canonical form (a
    /// re-escaped JSON string with its quotes, or a canonical f64
    /// number), spliced as-is into the first field of the response
    /// line; `None` when the request carried no id. Clients should
    /// correlate by value, not raw bytes — a non-canonical source
    /// escape like `"\u0041"` echoes canonically as `"A"`.
    pub id: Option<String>,
    /// Which loaded circuit the request addresses (and the name under
    /// which a `load` request registers). Optional while exactly one
    /// circuit is loaded.
    pub circuit: Option<String>,
    /// Per-request deadline in milliseconds, measured from the moment
    /// the server parses the request. Expired-at-dequeue work is shed
    /// with `code:"expired"`; a deadline firing mid-computation answers
    /// `code:"timeout"` with partial stats. `None` falls back to the
    /// server's configured default (no deadline out of the box).
    pub deadline_ms: Option<f64>,
    /// The request payload.
    pub request: Request,
}

impl RequestFrame {
    /// Wraps a bare request (no id, no circuit, no deadline).
    pub fn new(request: Request) -> Self {
        RequestFrame {
            id: None,
            circuit: None,
            deadline_ms: None,
            request,
        }
    }

    /// Attaches a string id (escaped into its JSON form).
    pub fn with_id(mut self, id: &str) -> Self {
        let mut raw = String::new();
        push_json_string(&mut raw, id);
        self.id = Some(raw);
        self
    }

    /// Routes the request to a named circuit.
    pub fn for_circuit(mut self, circuit: impl Into<String>) -> Self {
        self.circuit = Some(circuit.into());
        self
    }

    /// Attaches a per-request deadline in milliseconds.
    pub fn with_deadline_ms(mut self, deadline_ms: f64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Parses one protocol line including the envelope fields.
    ///
    /// # Errors
    ///
    /// [`MftError::Protocol`] on malformed JSON, a non-string/number
    /// `id`, a non-string `circuit`, an unknown `type`, or
    /// missing/ill-typed payload fields.
    pub fn from_json_line(line: &str) -> Result<RequestFrame, MftError> {
        let mut value = parse_json(line).map_err(MftError::Protocol)?;
        let mut fields = Fields::of_request(&mut value)?;
        let id = match fields.get("id") {
            None => None,
            Some(v) => id_fragment(v)?,
        };
        let circuit = fields.str_opt("circuit")?;
        let deadline_ms = fields.num_opt("deadline_ms")?;
        if let Some(d) = deadline_ms {
            if !d.is_finite() || d < 0.0 {
                return Err(MftError::Protocol(
                    "field `deadline_ms` must be a finite number ≥ 0".into(),
                ));
            }
        }
        Ok(RequestFrame {
            id,
            circuit,
            deadline_ms,
            request: Request::from_fields(&mut fields)?,
        })
    }

    /// Emits the framed request as one protocol line (envelope fields
    /// first, then the payload; round-trips through
    /// [`RequestFrame::from_json_line`]).
    pub fn to_json_line(&self) -> String {
        let mut s = String::from("{");
        if let Some(id) = &self.id {
            let _ = write!(s, "\"id\":{id},");
        }
        if let Some(circuit) = &self.circuit {
            s.push_str("\"circuit\":");
            push_json_string(&mut s, circuit);
            s.push(',');
        }
        if let Some(deadline_ms) = self.deadline_ms {
            s.push_str("\"deadline_ms\":");
            push_num(&mut s, deadline_ms);
            s.push(',');
        }
        self.request.push_fields(&mut s);
        s
    }
}

/// Best-effort extraction of the `id` envelope field from a protocol
/// line (request or response). Used to echo the id on error responses
/// for lines whose payload failed to parse; returns `None` when the
/// line is not valid JSON or carries no usable id.
pub fn extract_id(line: &str) -> Option<String> {
    let mut value = parse_json(line).ok()?;
    let fields = Fields(value.as_object_mut()?);
    id_fragment(fields.get("id")?).ok().flatten()
}

/// Best-effort extraction of the error `code` from a response line
/// (`"busy"`, `"expired"`, `"timeout"`, `"internal"`, `"poisoned"`).
/// Returns `None` for non-error lines, uncoded errors, or non-JSON —
/// the retry predicate `LineClient::send_with_retry` builds on.
pub fn extract_error_code(line: &str) -> Option<String> {
    let mut value = parse_json(line).ok()?;
    let fields = Fields(value.as_object_mut()?);
    if fields.get("type").and_then(Json::as_str) != Some("error") {
        return None;
    }
    fields.get("code").and_then(Json::as_str).map(str::to_owned)
}

/// Renders an `id` value as its raw JSON fragment (`None` for JSON
/// `null`, which clients may send for "no id").
fn id_fragment(v: &Json) -> Result<Option<String>, MftError> {
    match v {
        Json::Str(s) => {
            let mut raw = String::new();
            push_json_string(&mut raw, s);
            Ok(Some(raw))
        }
        Json::Num(x) if x.is_finite() => {
            let mut raw = String::new();
            push_num(&mut raw, *x);
            Ok(Some(raw))
        }
        Json::Null => Ok(None),
        _ => Err(MftError::Protocol(
            "field `id` must be a string or finite number".into(),
        )),
    }
}

/// One registry row of a `list` response: a loaded circuit and its
/// per-circuit service roll-up.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitSummary {
    /// The circuit's registry name.
    pub name: String,
    /// Primitive gates in the (expanded) netlist.
    pub gates: usize,
    /// Sizing-DAG vertices (the size-vector length).
    pub vertices: usize,
    /// Critical-path delay of the minimum-sized circuit.
    pub dmin: f64,
    /// Requests served by this circuit's session so far.
    pub requests: usize,
    /// Weighted depth of the circuit's writer (mutation) queue right
    /// now; with replicas off this is the only queue.
    pub write_queue_depth: usize,
    /// Depth of the circuit's shared read queue right now (always `0`
    /// when the circuit has no read replicas).
    pub read_queue_depth: usize,
    /// Read replicas serving `what_if`/`stats` for this circuit (`0`
    /// means the legacy single-worker path).
    pub replicas: usize,
    /// Live circuit state: `ready` (idle), `busy` (queued or in-flight
    /// work), or `poisoned` (a worker panic; `unload`+`load` recovers).
    pub state: String,
}

/// Replica-pool roll-up appended to a `stats` response when the
/// circuit runs read replicas (absent on the legacy single-worker
/// path, which keeps the legacy wire bytes).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplicaStatsReport {
    /// Read replicas serving this circuit.
    pub replicas: usize,
    /// Writer publish epoch: bumped once per completed mutation
    /// (`size`/`size_power`/`sweep`) before its response is sent.
    pub epoch: u64,
    /// Requests served per replica, indexed by replica id.
    pub served: Vec<u64>,
    /// What-if requests answered via the previous-candidate diff path
    /// (`delays_diff` + scoped rebase).
    pub diff_hits: u64,
    /// What-if requests that re-timed from scratch (cold replica,
    /// churn cliff, or invalidated diff base).
    pub full_timings: u64,
    /// Diff-base invalidations observed on writer republish.
    pub invalidations: u64,
}

/// Machine-readable category of a coded error response, carried next
/// to the human-readable message as `"code":"…"` (plus code-specific
/// fields). Legacy errors (parse failures, infeasible targets, …)
/// carry no code; see `docs/PROTOCOL.md` for retry guidance per code.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// Admission control rejected the request: the circuit's weighted
    /// queue is at its bound. Retry with backoff.
    Busy {
        /// The weighted queue depth observed at rejection.
        queue_depth: usize,
    },
    /// The request's deadline had already passed when a worker dequeued
    /// it; no sizing work was done.
    Expired,
    /// The request's deadline fired mid-computation; the work was
    /// cancelled cooperatively. Carries partial progress.
    Timeout {
        /// D/W iterations completed before the stop.
        iterations: usize,
        /// TILOS bumps performed before the stop.
        tilos_bumps: usize,
    },
    /// The worker panicked while serving this request. The circuit is
    /// poisoned afterwards; `unload` + `load` recovers it.
    Internal,
    /// The circuit is poisoned by an earlier panic and serves no
    /// requests until it is unloaded and reloaded.
    Poisoned,
}

impl ErrorCode {
    /// The wire `code` value of this error category.
    pub fn wire_name(&self) -> &'static str {
        match self {
            ErrorCode::Busy { .. } => "busy",
            ErrorCode::Expired => "expired",
            ErrorCode::Timeout { .. } => "timeout",
            ErrorCode::Internal => "internal",
            ErrorCode::Poisoned => "poisoned",
        }
    }
}

/// A typed service response (see the module docs for the wire shapes).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Response {
    /// A completed sizing.
    Size {
        /// The target as a `T/D_min` fraction.
        spec: f64,
        /// The absolute delay target.
        target: f64,
        /// Final weighted area.
        area: f64,
        /// Area normalized to the minimum-sized circuit.
        area_ratio: f64,
        /// Critical-path delay of the final sizing.
        achieved_delay: f64,
        /// D/W iterations performed.
        iterations: usize,
        /// TILOS bumps in the seed.
        tilos_bumps: usize,
        /// Objective saving over the TILOS seed, percent (area saving
        /// for `size`, power saving for `size_power`).
        saving_percent: f64,
        /// Total power of the final sizing (leakage + switching).
        power: f64,
        /// Leakage component of `power`.
        leakage: f64,
        /// Activity-weighted switching component of `power`.
        switching: f64,
        /// The full size vector, when the request asked for it.
        sizes: Option<Vec<f64>>,
    },
    /// A completed sweep (one entry per requested spec, input order).
    Sweep {
        /// The per-spec outcomes.
        outcomes: Vec<SweepOutcome>,
    },
    /// A completed what-if re-time.
    WhatIf(WhatIfReport),
    /// Cumulative session statistics (plus a replica-pool roll-up when
    /// the circuit runs read replicas).
    Stats {
        /// The session's cumulative counters.
        stats: Box<SessionStats>,
        /// Replica-pool counters; `None` keeps the legacy wire bytes.
        replicas: Option<ReplicaStatsReport>,
    },
    /// A circuit was loaded into the registry.
    Loaded {
        /// The registry name.
        circuit: String,
        /// Primitive gates in the (expanded) netlist.
        gates: usize,
        /// Sizing-DAG vertices (the size-vector length).
        vertices: usize,
        /// Critical-path delay of the minimum-sized circuit.
        dmin: f64,
        /// Weighted area of the minimum-sized circuit.
        min_area: f64,
    },
    /// A circuit was removed from the registry.
    Unloaded {
        /// The registry name.
        circuit: String,
    },
    /// The registry listing (per-circuit roll-up), sorted by name.
    CircuitList {
        /// One row per loaded circuit.
        circuits: Vec<CircuitSummary>,
    },
    /// The server acknowledged a shutdown request.
    ShuttingDown,
    /// A request-level failure (the stream stays up).
    Error {
        /// Machine-readable category, present on overload/deadline/
        /// panic errors (`None` keeps the legacy wire bytes).
        code: Option<ErrorCode>,
        /// Human-readable failure description.
        message: String,
    },
}

impl Response {
    /// An uncoded error response (the legacy wire shape
    /// `{"type":"error","message":…}`).
    pub fn error(message: impl Into<String>) -> Response {
        Response::Error {
            code: None,
            message: message.into(),
        }
    }

    /// A coded error response (`{"type":"error","code":"…",…}`).
    pub fn coded_error(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::Error {
            code: Some(code),
            message: message.into(),
        }
    }

    /// A plain stats response with no replica roll-up (the legacy wire
    /// shape — identical bytes to the pre-replica protocol).
    pub fn stats(stats: SessionStats) -> Response {
        Response::Stats {
            stats: Box::new(stats),
            replicas: None,
        }
    }

    /// The wire `type` tags of every response variant, in declaration
    /// order. Kept in sync with the enum by the exhaustive match in
    /// [`Response::wire_type`]; the docs-coverage test asserts every
    /// tag is documented in `docs/PROTOCOL.md`.
    pub const WIRE_TYPES: &'static [&'static str] = &[
        "size", "sweep", "what_if", "stats", "loaded", "unloaded", "list", "shutdown", "error",
    ];

    /// The wire `type` tag of this response.
    pub fn wire_type(&self) -> &'static str {
        match self {
            Response::Size { .. } => "size",
            Response::Sweep { .. } => "sweep",
            Response::WhatIf(_) => "what_if",
            Response::Stats { .. } => "stats",
            Response::Loaded { .. } => "loaded",
            Response::Unloaded { .. } => "unloaded",
            Response::CircuitList { .. } => "list",
            Response::ShuttingDown => "shutdown",
            Response::Error { .. } => "error",
        }
    }

    /// Emits the response as one protocol line with the request's `id`
    /// (a raw JSON fragment, as stored on [`RequestFrame::id`]) echoed
    /// as the first field; identical to [`Response::to_json_line`]
    /// when `id` is `None`.
    pub fn to_json_line_with_id(&self, id: Option<&str>) -> String {
        let mut s = String::from("{");
        if let Some(raw) = id {
            let _ = write!(s, "\"id\":{raw},");
        }
        self.push_fields(&mut s);
        s
    }

    /// Emits the response as one protocol line.
    pub fn to_json_line(&self) -> String {
        self.to_json_line_with_id(None)
    }

    /// Appends the response's fields and the closing brace: the line
    /// after its opening `{`, so an `id` can go in front.
    fn push_fields(&self, s: &mut String) {
        let _ = write!(s, "\"type\":\"{}\"", self.wire_type());
        match self {
            Response::Size {
                spec,
                target,
                area,
                area_ratio,
                achieved_delay,
                iterations,
                tilos_bumps,
                saving_percent,
                power,
                leakage,
                switching,
                sizes,
            } => {
                push_field(s, "spec", *spec);
                push_field(s, "target", *target);
                push_field(s, "area", *area);
                push_field(s, "area_ratio", *area_ratio);
                push_field(s, "achieved_delay", *achieved_delay);
                let _ = write!(
                    s,
                    ",\"iterations\":{iterations},\"tilos_bumps\":{tilos_bumps}"
                );
                push_field(s, "saving_percent", *saving_percent);
                push_field(s, "power", *power);
                push_field(s, "leakage", *leakage);
                push_field(s, "switching", *switching);
                if let Some(sizes) = sizes {
                    s.push_str(",\"sizes\":");
                    push_nums(s, sizes);
                }
            }
            Response::Sweep { outcomes } => {
                s.push_str(",\"points\":[");
                for (i, o) in outcomes.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str("{\"spec\":");
                    match o {
                        SweepOutcome::Point(p) => {
                            push_num(s, p.spec);
                            s.push_str(",\"status\":\"ok\"");
                            push_field(s, "target", p.target);
                            push_field(s, "tilos_area_ratio", p.tilos_area_ratio);
                            push_field(s, "mft_area_ratio", p.mft_area_ratio);
                            push_field(s, "saving_percent", p.saving_percent);
                            let _ = write!(s, ",\"iterations\":{}}}", p.iterations);
                        }
                        SweepOutcome::Unreachable { spec, best_ratio } => {
                            push_num(s, *spec);
                            s.push_str(",\"status\":\"unreachable\"");
                            push_field(s, "best_delay_ratio", *best_ratio);
                            s.push('}');
                        }
                    }
                }
                s.push(']');
            }
            Response::WhatIf(r) => {
                push_field(s, "area", r.area);
                push_field(s, "area_ratio", r.area_ratio);
                push_field(s, "power", r.power);
                push_field(s, "critical_path", r.critical_path);
                push_opt_field(s, "target", r.target);
                push_opt_field(s, "slack", r.slack);
                if let Some(meets) = r.meets_target {
                    let _ = write!(s, ",\"meets_target\":{meets}");
                }
            }
            Response::Stats { stats, replicas } => {
                let timing = stats.timing();
                // `flow_reuses` is always 0; it stays so `stats` lines
                // keep their keys.
                let _ = write!(
                    s,
                    ",\"requests\":{},\"size_requests\":{},\
                     \"size_power_requests\":{},\
                     \"sweep_requests\":{},\"sweep_points\":{},\"what_if_requests\":{},\
                     \"trajectory_bumps\":{},\"trajectory_reused_bumps\":{},\
                     \"snapshot_hits\":{},\"sta_full_passes\":{},\
                     \"sta_incremental_passes\":{},\"sta_vertices_touched\":{},\
                     \"sta_rebase_sparse\":{},\"sta_rebase_full\":{},\
                     \"sens_hits\":{},\"sens_misses\":{},\"sens_invalidations\":{},\
                     \"dphase_backend\":\"{}\",\"dphase_cold_solves\":{},\
                     \"dphase_warm_solves\":{},\"dphase_pivots\":{},\
                     \"dphase_scanned_arcs\":{},\"flow_reuses\":0",
                    stats.requests,
                    stats.size_requests,
                    stats.size_power_requests,
                    stats.sweep_requests,
                    stats.sweep_points,
                    stats.what_if_requests,
                    stats.trajectory_bumps,
                    stats.trajectory_reused_bumps,
                    stats.snapshot_hits,
                    timing.full_passes,
                    timing.incremental_passes,
                    timing.vertices_touched,
                    timing.rebase_sparse,
                    timing.rebase_full,
                    stats.sensitivity.hits,
                    stats.sensitivity.misses,
                    stats.sensitivity.invalidations,
                    stats.dphase.backend,
                    stats.dphase.flow.cold_solves,
                    stats.dphase.flow.warm_solves,
                    stats.dphase.flow.pivots,
                    stats.dphase.flow.arcs_scanned,
                );
                push_field(s, "flow_seconds", stats.dphase.total_time.as_secs_f64());
                let _ = write!(
                    s,
                    ",\"smp_solves\":{},\"smp_seeded_solves\":{},\"smp_updates\":{}",
                    stats.wphase.solves, stats.wphase.seeded_solves, stats.wphase.updates,
                );
                if let Some(r) = replicas {
                    let _ = write!(
                        s,
                        ",\"replicas\":{},\"replica_epoch\":{},\"replica_served\":[",
                        r.replicas, r.epoch,
                    );
                    for (i, served) in r.served.iter().enumerate() {
                        if i > 0 {
                            s.push(',');
                        }
                        let _ = write!(s, "{served}");
                    }
                    let _ = write!(
                        s,
                        "],\"replica_diff_hits\":{},\"replica_full_timings\":{},\
                         \"replica_invalidations\":{}",
                        r.diff_hits, r.full_timings, r.invalidations,
                    );
                }
            }
            Response::Loaded {
                circuit,
                gates,
                vertices,
                dmin,
                min_area,
            } => {
                s.push_str(",\"circuit\":");
                push_json_string(s, circuit);
                let _ = write!(s, ",\"gates\":{gates},\"vertices\":{vertices}");
                push_field(s, "dmin", *dmin);
                push_field(s, "min_area", *min_area);
            }
            Response::Unloaded { circuit } => {
                s.push_str(",\"circuit\":");
                push_json_string(s, circuit);
            }
            Response::CircuitList { circuits } => {
                s.push_str(",\"circuits\":[");
                for (i, c) in circuits.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str("{\"circuit\":");
                    push_json_string(s, &c.name);
                    let _ = write!(s, ",\"gates\":{},\"vertices\":{}", c.gates, c.vertices);
                    push_field(s, "dmin", c.dmin);
                    let _ = write!(
                        s,
                        ",\"requests\":{},\"write_queue_depth\":{},\"read_queue_depth\":{},\
                         \"replicas\":{},\"state\":\"{}\"}}",
                        c.requests, c.write_queue_depth, c.read_queue_depth, c.replicas, c.state,
                    );
                }
                s.push(']');
            }
            Response::ShuttingDown => {}
            Response::Error { code, message } => {
                if let Some(code) = code {
                    let _ = write!(s, ",\"code\":\"{}\"", code.wire_name());
                    match code {
                        ErrorCode::Busy { queue_depth } => {
                            let _ = write!(s, ",\"queue_depth\":{queue_depth}");
                        }
                        ErrorCode::Timeout {
                            iterations,
                            tilos_bumps,
                        } => {
                            let _ = write!(
                                s,
                                ",\"iterations\":{iterations},\"tilos_bumps\":{tilos_bumps}"
                            );
                        }
                        _ => {}
                    }
                }
                s.push_str(",\"message\":");
                push_json_string(s, message);
            }
        }
        s.push('}');
    }
}

/// Appends `,"key":x` (`x` as a JSON number).
fn push_field(s: &mut String, key: &str, x: f64) {
    let _ = write!(s, ",\"{key}\":");
    push_num(s, x);
}

/// [`push_field`] when `x` is set; nothing otherwise.
fn push_opt_field(s: &mut String, key: &str, x: Option<f64>) {
    if let Some(x) = x {
        push_field(s, key, x);
    }
}

/// Field lookup over a parsed JSON object, with typed accessors that
/// produce [`MftError::Protocol`] diagnostics.
struct Fields<'a>(&'a mut [(String, Json)]);

impl<'a> Fields<'a> {
    /// The fields of a parsed request line, which must be an object.
    fn of_request(value: &'a mut Json) -> Result<Self, MftError> {
        value
            .as_object_mut()
            .map(Fields)
            .ok_or_else(|| MftError::Protocol("request must be a JSON object".into()))
    }

    fn get(&self, name: &str) -> Option<&Json> {
        self.0.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    fn num_opt(&self, name: &str) -> Result<Option<f64>, MftError> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .as_f64()
                .map(Some)
                .ok_or_else(|| MftError::Protocol(format!("field `{name}` must be a number"))),
        }
    }

    /// [`Fields::num_opt`] that also refuses ±∞ (`1e400` reads as ∞).
    fn finite_opt(&self, name: &str) -> Result<Option<f64>, MftError> {
        match self.num_opt(name)? {
            Some(x) if !x.is_finite() => Err(MftError::Protocol(format!(
                "field `{name}` must be a finite number"
            ))),
            x => Ok(x),
        }
    }

    fn bool_opt(&self, name: &str) -> Result<Option<bool>, MftError> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .as_bool()
                .map(Some)
                .ok_or_else(|| MftError::Protocol(format!("field `{name}` must be a boolean"))),
        }
    }

    fn str_opt(&self, name: &str) -> Result<Option<String>, MftError> {
        match self.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(Json::Str(s)) => Ok(Some(s.clone())),
            Some(_) => Err(MftError::Protocol(format!(
                "field `{name}` must be a string"
            ))),
        }
    }

    /// Moves a number array out of the object (the reader collected it
    /// into one vector already).
    fn num_array(&mut self, name: &str) -> Result<Vec<f64>, MftError> {
        let v = self
            .0
            .iter_mut()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| MftError::Protocol(format!("missing array field `{name}`")))?;
        match v {
            Json::Nums(xs) => Ok(std::mem::take(xs)),
            Json::Arr(_) => Err(MftError::Protocol(format!(
                "field `{name}` must contain only numbers"
            ))),
            _ => Err(MftError::Protocol(format!(
                "field `{name}` must be an array"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::MAX_JSON_DEPTH;

    #[test]
    fn parses_every_request_kind() {
        let r = Request::from_json_line(r#"{"type":"size","spec":0.7}"#).unwrap();
        assert_eq!(
            r,
            Request::Size {
                spec: Some(0.7),
                target: None,
                return_sizes: false
            }
        );
        let r =
            Request::from_json_line(r#"{"type":"size","target":850,"return_sizes":true}"#).unwrap();
        assert_eq!(
            r,
            Request::Size {
                spec: None,
                target: Some(850.0),
                return_sizes: true
            }
        );
        let r = Request::from_json_line(r#"{"type":"size_power","spec":0.7}"#).unwrap();
        assert_eq!(
            r,
            Request::SizePower {
                spec: Some(0.7),
                target: None,
                return_sizes: false
            }
        );
        let r = Request::from_json_line(r#"{"type":"sweep","specs":[0.9, 0.8, 0.7]}"#).unwrap();
        assert_eq!(
            r,
            Request::Sweep {
                specs: vec![0.9, 0.8, 0.7]
            }
        );
        let r =
            Request::from_json_line(r#"{"type":"what_if","sizes":[1.0,2.5],"spec":0.8}"#).unwrap();
        assert_eq!(
            r,
            Request::WhatIf {
                sizes: vec![1.0, 2.5],
                spec: Some(0.8),
                target: None
            }
        );
        let r = Request::from_json_line(r#" {"type" : "stats"} "#).unwrap();
        assert_eq!(r, Request::Stats);
        let r =
            Request::from_json_line(r#"{"type":"load","path":"c17.bench","mode":"gate"}"#).unwrap();
        assert_eq!(
            r,
            Request::Load(LoadRequest {
                path: Some("c17.bench".into()),
                mode: Some("gate".into()),
                ..Default::default()
            })
        );
        let r = Request::from_json_line(r#"{"type":"load","bench":"INPUT(a)\n"}"#).unwrap();
        assert_eq!(
            r,
            Request::Load(LoadRequest {
                bench: Some("INPUT(a)\n".into()),
                ..Default::default()
            })
        );
        assert_eq!(
            Request::from_json_line(r#"{"type":"unload"}"#).unwrap(),
            Request::Unload
        );
        assert_eq!(
            Request::from_json_line(r#"{"type":"list"}"#).unwrap(),
            Request::List
        );
        assert_eq!(
            Request::from_json_line(r#"{"type":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn requests_round_trip_through_their_own_emitter() {
        let requests = [
            Request::Size {
                spec: Some(0.75),
                target: None,
                return_sizes: true,
            },
            Request::SizePower {
                spec: None,
                target: Some(910.5),
                return_sizes: true,
            },
            Request::Sweep {
                specs: vec![0.9, 0.5],
            },
            Request::WhatIf {
                sizes: vec![1.0, 2.0, 4.0],
                spec: None,
                target: Some(123.5),
            },
            Request::Stats,
            Request::Load(LoadRequest {
                bench: Some("INPUT(a)\nOUTPUT(y)\ny = NAND(a, a)\n".into()),
                preset: Some("warm".into()),
                flow: Some("simplex".into()),
                ..Default::default()
            }),
            Request::Load(LoadRequest {
                bench: Some("INPUT(a)\nOUTPUT(y)\ny = NAND(a, a)\n".into()),
                corner: Some("65nm".into()),
                vt: Some("lvt".into()),
                ..Default::default()
            }),
            Request::Unload,
            Request::List,
            Request::Shutdown,
        ];
        for request in requests {
            let line = request.to_json_line();
            assert_eq!(Request::from_json_line(&line).unwrap(), request, "{line}");
        }
    }

    #[test]
    fn frames_round_trip_with_id_and_circuit() {
        let frames = [
            RequestFrame::new(Request::Stats),
            RequestFrame::new(Request::Stats).with_id("a-1"),
            RequestFrame::new(Request::Unload).for_circuit("c17"),
            RequestFrame::new(Request::Size {
                spec: Some(0.7),
                target: None,
                return_sizes: false,
            })
            .with_id("x \"quoted\"")
            .for_circuit("c432"),
        ];
        for frame in frames {
            let line = frame.to_json_line();
            assert_eq!(
                RequestFrame::from_json_line(&line).unwrap(),
                frame,
                "{line}"
            );
        }
        // Numeric ids survive as canonical JSON numbers.
        let f = RequestFrame::from_json_line(r#"{"type":"stats","id":17}"#).unwrap();
        assert_eq!(f.id.as_deref(), Some("17"));
        let f =
            RequestFrame::from_json_line(r#"{"type":"stats","id":2.5,"circuit":"c17"}"#).unwrap();
        assert_eq!(f.id.as_deref(), Some("2.5"));
        assert_eq!(f.circuit.as_deref(), Some("c17"));
        // A JSON null id means "no id".
        let f = RequestFrame::from_json_line(r#"{"type":"stats","id":null}"#).unwrap();
        assert_eq!(f.id, None);
        // Other id types are rejected.
        for bad in [
            r#"{"type":"stats","id":[1]}"#,
            r#"{"type":"stats","id":{"a":1}}"#,
            r#"{"type":"stats","id":true}"#,
            r#"{"type":"stats","circuit":7}"#,
        ] {
            assert!(RequestFrame::from_json_line(bad).is_err(), "{bad}");
        }
        // The bare-request parser ignores the envelope entirely.
        assert_eq!(
            Request::from_json_line(r#"{"type":"stats","id":[1],"circuit":7}"#).unwrap(),
            Request::Stats
        );
    }

    #[test]
    fn response_id_echo_is_the_first_field() {
        let resp = Response::error("nope");
        assert_eq!(
            resp.to_json_line_with_id(Some("\"r1\"")),
            "{\"id\":\"r1\",\"type\":\"error\",\"message\":\"nope\"}"
        );
        assert_eq!(
            resp.to_json_line_with_id(Some("3")).as_str(),
            "{\"id\":3,\"type\":\"error\",\"message\":\"nope\"}"
        );
        assert_eq!(resp.to_json_line_with_id(None), resp.to_json_line());
        // The echoed line still parses, and extract_id recovers the id.
        assert_eq!(
            extract_id(&resp.to_json_line_with_id(Some("\"r1\""))).as_deref(),
            Some("\"r1\"")
        );
    }

    #[test]
    fn extract_id_is_best_effort() {
        // Valid JSON with an unparseable payload still yields the id…
        assert_eq!(
            extract_id(r#"{"type":"resize","id":"x"}"#).as_deref(),
            Some("\"x\"")
        );
        assert_eq!(extract_id(r#"{"id":42}"#).as_deref(), Some("42"));
        // …while broken JSON, missing or malformed ids yield None.
        assert_eq!(extract_id("{\"id\":"), None);
        assert_eq!(extract_id(r#"{"type":"stats"}"#), None);
        assert_eq!(extract_id(r#"{"id":[1]}"#), None);
        assert_eq!(extract_id("not json"), None);
    }

    #[test]
    fn wire_types_enumerate_every_variant() {
        let requests = [
            Request::Size {
                spec: Some(0.7),
                target: None,
                return_sizes: false,
            },
            Request::SizePower {
                spec: Some(0.7),
                target: None,
                return_sizes: false,
            },
            Request::Sweep { specs: vec![] },
            Request::WhatIf {
                sizes: vec![],
                spec: None,
                target: None,
            },
            Request::Stats,
            Request::Load(LoadRequest::default()),
            Request::Unload,
            Request::List,
            Request::Shutdown,
        ];
        assert_eq!(requests.len(), Request::WIRE_TYPES.len());
        for (r, tag) in requests.iter().zip(Request::WIRE_TYPES) {
            assert_eq!(r.wire_type(), *tag);
            // Every payload line leads with its own tag.
            assert!(
                r.to_json_line()
                    .starts_with(&format!("{{\"type\":\"{tag}\"")),
                "{tag}"
            );
        }
        let responses = [
            Response::Size {
                spec: 0.7,
                target: 1.0,
                area: 1.0,
                area_ratio: 1.0,
                achieved_delay: 1.0,
                iterations: 0,
                tilos_bumps: 0,
                saving_percent: 0.0,
                power: 1.0,
                leakage: 0.5,
                switching: 0.5,
                sizes: None,
            },
            Response::Sweep { outcomes: vec![] },
            Response::WhatIf(WhatIfReport {
                area: 1.0,
                area_ratio: 1.0,
                power: 1.0,
                critical_path: 1.0,
                target: None,
                slack: None,
                meets_target: None,
            }),
            Response::stats(SessionStats::default()),
            Response::Loaded {
                circuit: "c".into(),
                gates: 1,
                vertices: 1,
                dmin: 1.0,
                min_area: 1.0,
            },
            Response::Unloaded {
                circuit: "c".into(),
            },
            Response::CircuitList { circuits: vec![] },
            Response::ShuttingDown,
            Response::error("m"),
        ];
        assert_eq!(responses.len(), Response::WIRE_TYPES.len());
        for (r, tag) in responses.iter().zip(Response::WIRE_TYPES) {
            assert_eq!(r.wire_type(), *tag);
            assert!(
                r.to_json_line()
                    .starts_with(&format!("{{\"type\":\"{tag}\"")),
                "{tag}"
            );
        }
    }

    #[test]
    fn registry_responses_emit_well_formed_lines() {
        let line = Response::Loaded {
            circuit: "c17".into(),
            gates: 6,
            vertices: 6,
            dmin: 123.5,
            min_area: 6.0,
        }
        .to_json_line();
        assert_eq!(
            line,
            "{\"type\":\"loaded\",\"circuit\":\"c17\",\"gates\":6,\
             \"vertices\":6,\"dmin\":123.5,\"min_area\":6}"
        );
        let line = Response::CircuitList {
            circuits: vec![
                CircuitSummary {
                    name: "a".into(),
                    gates: 1,
                    vertices: 2,
                    dmin: 3.0,
                    requests: 4,
                    write_queue_depth: 0,
                    read_queue_depth: 0,
                    replicas: 0,
                    state: "ready".into(),
                },
                CircuitSummary {
                    name: "b".into(),
                    gates: 5,
                    vertices: 6,
                    dmin: 7.5,
                    requests: 8,
                    write_queue_depth: 9,
                    read_queue_depth: 3,
                    replicas: 2,
                    state: "busy".into(),
                },
            ],
        }
        .to_json_line();
        assert_eq!(
            line,
            "{\"type\":\"list\",\"circuits\":[\
             {\"circuit\":\"a\",\"gates\":1,\"vertices\":2,\"dmin\":3,\"requests\":4,\
             \"write_queue_depth\":0,\"read_queue_depth\":0,\"replicas\":0,\
             \"state\":\"ready\"},\
             {\"circuit\":\"b\",\"gates\":5,\"vertices\":6,\"dmin\":7.5,\"requests\":8,\
             \"write_queue_depth\":9,\"read_queue_depth\":3,\"replicas\":2,\
             \"state\":\"busy\"}]}"
        );
        assert!(parse_json(&line).is_ok());
        assert_eq!(
            Response::Unloaded {
                circuit: "c17".into()
            }
            .to_json_line(),
            "{\"type\":\"unloaded\",\"circuit\":\"c17\"}"
        );
        assert_eq!(
            Response::ShuttingDown.to_json_line(),
            "{\"type\":\"shutdown\"}"
        );
    }

    #[test]
    fn coded_errors_carry_code_and_payload_fields() {
        // Uncoded errors keep the legacy byte shape exactly.
        assert_eq!(
            Response::error("nope").to_json_line(),
            "{\"type\":\"error\",\"message\":\"nope\"}"
        );
        let busy = Response::coded_error(ErrorCode::Busy { queue_depth: 17 }, "queue full");
        assert_eq!(
            busy.to_json_line(),
            "{\"type\":\"error\",\"code\":\"busy\",\"queue_depth\":17,\
             \"message\":\"queue full\"}"
        );
        let timeout = Response::coded_error(
            ErrorCode::Timeout {
                iterations: 3,
                tilos_bumps: 120,
            },
            "deadline exceeded",
        );
        assert_eq!(
            timeout.to_json_line(),
            "{\"type\":\"error\",\"code\":\"timeout\",\"iterations\":3,\
             \"tilos_bumps\":120,\"message\":\"deadline exceeded\"}"
        );
        for (code, name) in [
            (ErrorCode::Expired, "expired"),
            (ErrorCode::Internal, "internal"),
            (ErrorCode::Poisoned, "poisoned"),
        ] {
            let line = Response::coded_error(code, "m").to_json_line();
            assert!(parse_json(&line).is_ok(), "{line}");
            assert_eq!(extract_error_code(&line).as_deref(), Some(name));
        }
        assert_eq!(
            extract_error_code(&busy.to_json_line()).as_deref(),
            Some("busy")
        );
        // Non-error lines, uncoded errors and junk yield None.
        assert_eq!(extract_error_code("{\"type\":\"stats\"}"), None);
        assert_eq!(
            extract_error_code("{\"type\":\"error\",\"message\":\"m\"}"),
            None
        );
        assert_eq!(extract_error_code("not json"), None);
    }

    #[test]
    fn deadline_and_replace_round_trip() {
        let frame = RequestFrame::new(Request::Stats)
            .with_id("r")
            .for_circuit("c17")
            .with_deadline_ms(250.0);
        let line = frame.to_json_line();
        assert_eq!(
            RequestFrame::from_json_line(&line).unwrap(),
            frame,
            "{line}"
        );
        // Server-shaped input parses too.
        let f = RequestFrame::from_json_line(r#"{"type":"stats","deadline_ms":100}"#).unwrap();
        assert_eq!(f.deadline_ms, Some(100.0));
        // Negative, non-finite, or ill-typed deadlines are rejected.
        for bad in [
            r#"{"type":"stats","deadline_ms":-1}"#,
            r#"{"type":"stats","deadline_ms":"soon"}"#,
        ] {
            assert!(RequestFrame::from_json_line(bad).is_err(), "{bad}");
        }
        let load = Request::Load(LoadRequest {
            bench: Some("INPUT(a)\n".into()),
            replace: true,
            ..Default::default()
        });
        let line = load.to_json_line();
        assert!(line.ends_with(",\"replace\":true}"), "{line}");
        assert_eq!(Request::from_json_line(&line).unwrap(), load);
        // Absent replace defaults to false.
        let r = Request::from_json_line(r#"{"type":"load","bench":"x"}"#).unwrap();
        assert!(matches!(r, Request::Load(l) if !l.replace));
    }

    #[test]
    fn load_replicas_round_trips_and_validates() {
        let load = Request::Load(LoadRequest {
            bench: Some("INPUT(a)\n".into()),
            replicas: Some(2),
            ..Default::default()
        });
        let line = load.to_json_line();
        assert!(line.ends_with(",\"replicas\":2}"), "{line}");
        assert_eq!(Request::from_json_line(&line).unwrap(), load);
        // Absent replicas stays None (server default applies).
        let r = Request::from_json_line(r#"{"type":"load","bench":"x"}"#).unwrap();
        assert!(matches!(r, Request::Load(l) if l.replicas.is_none()));
        // Non-integer, negative, or oversized replica counts are rejected.
        for bad in [
            r#"{"type":"load","bench":"x","replicas":1.5}"#,
            r#"{"type":"load","bench":"x","replicas":-1}"#,
            r#"{"type":"load","bench":"x","replicas":65}"#,
            r#"{"type":"load","bench":"x","replicas":"two"}"#,
        ] {
            let err = Request::from_json_line(bad).unwrap_err();
            assert!(matches!(err, MftError::Protocol(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn stats_replica_rollup_extends_the_legacy_line() {
        let legacy = Response::stats(SessionStats::default()).to_json_line();
        assert!(!legacy.contains("replica"), "{legacy}");
        let extended = Response::Stats {
            stats: Box::default(),
            replicas: Some(ReplicaStatsReport {
                replicas: 2,
                epoch: 5,
                served: vec![3, 4],
                diff_hits: 6,
                full_timings: 1,
                invalidations: 2,
            }),
        }
        .to_json_line();
        // The replica roll-up appends after the legacy fields without
        // disturbing them.
        assert!(
            extended.starts_with(&legacy[..legacy.len() - 1]),
            "{extended}"
        );
        assert!(
            extended.ends_with(
                ",\"replicas\":2,\"replica_epoch\":5,\"replica_served\":[3,4],\
                 \"replica_diff_hits\":6,\"replica_full_timings\":1,\
                 \"replica_invalidations\":2}"
            ),
            "{extended}"
        );
        assert!(parse_json(&extended).is_ok());
    }

    #[test]
    fn malformed_requests_are_rejected_with_protocol_errors() {
        for bad in [
            "",
            "[1,2]",
            "{\"type\":\"size\"}",
            "{\"type\":\"resize\",\"spec\":0.7}",
            "{\"type\":\"sweep\",\"specs\":[0.9,\"x\"]}",
            "{\"type\":\"what_if\"}",
            "{\"type\":\"size\",\"spec\":0.7} trailing",
            "{\"type\":\"size\",\"spec\":}",
            // load takes exactly one source.
            "{\"type\":\"load\"}",
            "{\"type\":\"load\",\"path\":\"a\",\"bench\":\"b\"}",
            "{\"type\":\"load\",\"path\":7}",
        ] {
            let err = Request::from_json_line(bad).unwrap_err();
            assert!(matches!(err, MftError::Protocol(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn non_finite_targets_are_refused_by_field_name() {
        for (line, field) in [
            (r#"{"type":"size","spec":1e400}"#, "spec"),
            (r#"{"type":"size","spec":0.7,"target":-1e400}"#, "target"),
            (r#"{"type":"size_power","target":1e999}"#, "target"),
            (r#"{"type":"what_if","sizes":[1],"spec":1e400}"#, "spec"),
        ] {
            let err = Request::from_json_line(line).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("bad request: field `{field}` must be a finite number"),
                "{line}"
            );
        }
        let err = Request::from_json_line(r#"{"type":"sweep","specs":[0.9,1e400]}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad request: field `specs` must contain only finite numbers"
        );
        // Underflow to zero is finite; sizes are the session's to check.
        assert!(Request::from_json_line(r#"{"type":"size","spec":1e-400}"#).is_ok());
        assert!(Request::from_json_line(r#"{"type":"what_if","sizes":[1e400]}"#).is_ok());
    }

    /// A line of a million `[` (or `{"a":` pairs) is refused with a
    /// protocol error at the depth bound instead of overflowing the
    /// stack, on a thread with a small stack; nesting up to the bound
    /// still parses.
    #[test]
    fn deep_nesting_is_refused_at_the_depth_bound() {
        std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(|| {
                for deep in ["[".repeat(1_000_000), "{\"a\":".repeat(1_000_000)] {
                    let err = Request::from_json_line(&deep).unwrap_err();
                    assert!(
                        matches!(&err, MftError::Protocol(m) if m.contains("nesting deeper")),
                        "{err}"
                    );
                    assert!(RequestFrame::from_json_line(&deep).is_err());
                    assert_eq!(extract_id(&deep), None);
                }
                let inner = format!(
                    "{}{}",
                    "[".repeat(MAX_JSON_DEPTH - 1),
                    "]".repeat(MAX_JSON_DEPTH - 1)
                );
                let at_bound = format!("{{\"type\":\"stats\",\"x\":{inner}}}");
                assert!(parse_json(&at_bound).is_ok());
                let past = format!("{{\"type\":\"stats\",\"x\":[{inner}]}}");
                assert!(parse_json(&past).is_err());
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
