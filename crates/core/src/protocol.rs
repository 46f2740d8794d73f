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

use crate::curve::SweepOutcome;
use crate::error::MftError;
use crate::session::{SessionStats, WhatIfReport};
use std::fmt::Write as _;

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
    /// Technology: `130nm` (default) | `180nm` | `65nm`.
    pub tech: Option<String>,
    /// Technology-library corner name (defaults to the library's first
    /// corner; mutually exclusive with `tech`).
    pub corner: Option<String>,
    /// Threshold-voltage flavor: `svt` (default) | `lvt` | `hvt`.
    pub vt: Option<String>,
    /// Session preset: `warm` | `shared_exact` | `cold` (default: the
    /// server's configured preset).
    pub preset: Option<String>,
    /// D-phase flow backend: only `simplex`, which every preset runs;
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
        let value = parse_json(line).map_err(MftError::Protocol)?;
        let obj = value
            .as_object()
            .ok_or_else(|| MftError::Protocol("request must be a JSON object".into()))?;
        Request::from_object(obj)
    }

    /// Parses the request payload out of an already-parsed JSON object.
    fn from_object(obj: &[(String, Json)]) -> Result<Request, MftError> {
        let fields = Fields(obj);
        let kind = fields
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| MftError::Protocol("missing string field `type`".into()))?;
        match kind {
            "size" => {
                let spec = fields.num_opt("spec")?;
                let target = fields.num_opt("target")?;
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
                let spec = fields.num_opt("spec")?;
                let target = fields.num_opt("target")?;
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
            "sweep" => Ok(Request::Sweep {
                specs: fields.num_array("specs")?,
            }),
            "what_if" => Ok(Request::WhatIf {
                sizes: fields.num_array("sizes")?,
                spec: fields.num_opt("spec")?,
                target: fields.num_opt("target")?,
            }),
            "stats" => Ok(Request::Stats),
            "load" => {
                let load = LoadRequest {
                    path: fields.str_opt("path")?,
                    bench: fields.str_opt("bench")?,
                    mode: fields.str_opt("mode")?,
                    tech: fields.str_opt("tech")?,
                    corner: fields.str_opt("corner")?,
                    vt: fields.str_opt("vt")?,
                    preset: fields.str_opt("preset")?,
                    flow: fields.str_opt("flow")?,
                    replace: fields.bool_opt("replace")?.unwrap_or(false),
                    replicas: match fields.num_opt("replicas")? {
                        None => None,
                        Some(n) => {
                            if !n.is_finite() || n < 0.0 || n.fract() != 0.0 || n > 64.0 {
                                return Err(MftError::Protocol(
                                    "load field `replicas` must be an integer in 0..=64".into(),
                                ));
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
        let mut s = String::new();
        match self {
            Request::Size {
                spec,
                target,
                return_sizes,
            } => {
                s.push_str("{\"type\":\"size\"");
                if let Some(spec) = spec {
                    let _ = write!(s, ",\"spec\":{}", json_f64(*spec));
                }
                if let Some(target) = target {
                    let _ = write!(s, ",\"target\":{}", json_f64(*target));
                }
                if *return_sizes {
                    s.push_str(",\"return_sizes\":true");
                }
                s.push('}');
            }
            Request::SizePower {
                spec,
                target,
                return_sizes,
            } => {
                s.push_str("{\"type\":\"size_power\"");
                if let Some(spec) = spec {
                    let _ = write!(s, ",\"spec\":{}", json_f64(*spec));
                }
                if let Some(target) = target {
                    let _ = write!(s, ",\"target\":{}", json_f64(*target));
                }
                if *return_sizes {
                    s.push_str(",\"return_sizes\":true");
                }
                s.push('}');
            }
            Request::Sweep { specs } => {
                s.push_str("{\"type\":\"sweep\",\"specs\":");
                push_f64_array(&mut s, specs);
                s.push('}');
            }
            Request::WhatIf {
                sizes,
                spec,
                target,
            } => {
                s.push_str("{\"type\":\"what_if\",\"sizes\":");
                push_f64_array(&mut s, sizes);
                if let Some(spec) = spec {
                    let _ = write!(s, ",\"spec\":{}", json_f64(*spec));
                }
                if let Some(target) = target {
                    let _ = write!(s, ",\"target\":{}", json_f64(*target));
                }
                s.push('}');
            }
            Request::Stats => s.push_str("{\"type\":\"stats\"}"),
            Request::Load(load) => {
                s.push_str("{\"type\":\"load\"");
                for (key, value) in [
                    ("path", &load.path),
                    ("bench", &load.bench),
                    ("mode", &load.mode),
                    ("tech", &load.tech),
                    ("corner", &load.corner),
                    ("vt", &load.vt),
                    ("preset", &load.preset),
                    ("flow", &load.flow),
                ] {
                    if let Some(value) = value {
                        let _ = write!(s, ",\"{key}\":");
                        push_json_string(&mut s, value);
                    }
                }
                if load.replace {
                    s.push_str(",\"replace\":true");
                }
                if let Some(replicas) = load.replicas {
                    let _ = write!(s, ",\"replicas\":{replicas}");
                }
                s.push('}');
            }
            Request::Unload => s.push_str("{\"type\":\"unload\"}"),
            Request::List => s.push_str("{\"type\":\"list\"}"),
            Request::Shutdown => s.push_str("{\"type\":\"shutdown\"}"),
        }
        s
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
        let value = parse_json(line).map_err(MftError::Protocol)?;
        let obj = value
            .as_object()
            .ok_or_else(|| MftError::Protocol("request must be a JSON object".into()))?;
        let fields = Fields(obj);
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
            request: Request::from_object(obj)?,
        })
    }

    /// Emits the framed request as one protocol line (envelope fields
    /// first, then the payload; round-trips through
    /// [`RequestFrame::from_json_line`]).
    pub fn to_json_line(&self) -> String {
        let payload = self.request.to_json_line();
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
            let _ = write!(s, "\"deadline_ms\":{},", json_f64(deadline_ms));
        }
        if s.len() == 1 {
            return payload;
        }
        s.push_str(&payload[1..]);
        s
    }
}

/// Best-effort extraction of the `id` envelope field from a protocol
/// line (request or response). Used to echo the id on error responses
/// for lines whose payload failed to parse; returns `None` when the
/// line is not valid JSON or carries no usable id.
pub fn extract_id(line: &str) -> Option<String> {
    let value = parse_json(line).ok()?;
    let obj = value.as_object()?;
    let v = Fields(obj).get("id")?;
    id_fragment(v).ok().flatten()
}

/// Best-effort extraction of the error `code` from a response line
/// (`"busy"`, `"expired"`, `"timeout"`, `"internal"`, `"poisoned"`).
/// Returns `None` for non-error lines, uncoded errors, or non-JSON —
/// the retry predicate `LineClient::send_with_retry` builds on.
pub fn extract_error_code(line: &str) -> Option<String> {
    let value = parse_json(line).ok()?;
    let obj = value.as_object()?;
    let fields = Fields(obj);
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
        Json::Num(x) if x.is_finite() => Ok(Some(json_f64(*x))),
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
        let payload = self.to_json_line();
        match id {
            None => payload,
            Some(raw) => format!("{{\"id\":{raw},{}", &payload[1..]),
        }
    }

    /// Emits the response as one protocol line.
    pub fn to_json_line(&self) -> String {
        let mut s = String::new();
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
                let _ = write!(
                    s,
                    "{{\"type\":\"size\",\"spec\":{},\"target\":{},\"area\":{},\
                     \"area_ratio\":{},\"achieved_delay\":{},\"iterations\":{iterations},\
                     \"tilos_bumps\":{tilos_bumps},\"saving_percent\":{},\
                     \"power\":{},\"leakage\":{},\"switching\":{}",
                    json_f64(*spec),
                    json_f64(*target),
                    json_f64(*area),
                    json_f64(*area_ratio),
                    json_f64(*achieved_delay),
                    json_f64(*saving_percent),
                    json_f64(*power),
                    json_f64(*leakage),
                    json_f64(*switching),
                );
                if let Some(sizes) = sizes {
                    s.push_str(",\"sizes\":");
                    push_f64_array(&mut s, sizes);
                }
                s.push('}');
            }
            Response::Sweep { outcomes } => {
                s.push_str("{\"type\":\"sweep\",\"points\":[");
                for (i, o) in outcomes.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    match o {
                        SweepOutcome::Point(p) => {
                            let _ = write!(
                                s,
                                "{{\"spec\":{},\"status\":\"ok\",\"target\":{},\
                                 \"tilos_area_ratio\":{},\"mft_area_ratio\":{},\
                                 \"saving_percent\":{},\"iterations\":{}}}",
                                json_f64(p.spec),
                                json_f64(p.target),
                                json_f64(p.tilos_area_ratio),
                                json_f64(p.mft_area_ratio),
                                json_f64(p.saving_percent),
                                p.iterations,
                            );
                        }
                        SweepOutcome::Unreachable { spec, best_ratio } => {
                            let _ = write!(
                                s,
                                "{{\"spec\":{},\"status\":\"unreachable\",\
                                 \"best_delay_ratio\":{}}}",
                                json_f64(*spec),
                                json_f64(*best_ratio),
                            );
                        }
                    }
                }
                s.push_str("]}");
            }
            Response::WhatIf(r) => {
                let _ = write!(
                    s,
                    "{{\"type\":\"what_if\",\"area\":{},\"area_ratio\":{},\
                     \"power\":{},\"critical_path\":{}",
                    json_f64(r.area),
                    json_f64(r.area_ratio),
                    json_f64(r.power),
                    json_f64(r.critical_path),
                );
                if let Some(target) = r.target {
                    let _ = write!(s, ",\"target\":{}", json_f64(target));
                }
                if let Some(slack) = r.slack {
                    let _ = write!(s, ",\"slack\":{}", json_f64(slack));
                }
                if let Some(meets) = r.meets_target {
                    let _ = write!(s, ",\"meets_target\":{meets}");
                }
                s.push('}');
            }
            Response::Stats { stats, replicas } => {
                let timing = stats.timing();
                // `flow_reuses` is always 0; it stays so `stats` lines
                // keep their keys.
                let _ = write!(
                    s,
                    "{{\"type\":\"stats\",\"requests\":{},\"size_requests\":{},\
                     \"size_power_requests\":{},\
                     \"sweep_requests\":{},\"sweep_points\":{},\"what_if_requests\":{},\
                     \"trajectory_bumps\":{},\"trajectory_reused_bumps\":{},\
                     \"snapshot_hits\":{},\"sta_full_passes\":{},\
                     \"sta_incremental_passes\":{},\"sta_vertices_touched\":{},\
                     \"sta_rebase_sparse\":{},\"sta_rebase_full\":{},\
                     \"sens_hits\":{},\"sens_misses\":{},\"sens_invalidations\":{},\
                     \"dphase_backend\":\"{}\",\"dphase_cold_solves\":{},\
                     \"dphase_warm_solves\":{},\"dphase_pivots\":{},\
                     \"dphase_scanned_arcs\":{},\"flow_reuses\":0,\
                     \"flow_seconds\":{},\"smp_solves\":{},\"smp_seeded_solves\":{},\
                     \"smp_updates\":{}",
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
                    json_f64(stats.dphase.total_time.as_secs_f64()),
                    stats.wphase.solves,
                    stats.wphase.seeded_solves,
                    stats.wphase.updates,
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
                s.push('}');
            }
            Response::Loaded {
                circuit,
                gates,
                vertices,
                dmin,
                min_area,
            } => {
                s.push_str("{\"type\":\"loaded\",\"circuit\":");
                push_json_string(&mut s, circuit);
                let _ = write!(
                    s,
                    ",\"gates\":{gates},\"vertices\":{vertices},\"dmin\":{},\"min_area\":{}}}",
                    json_f64(*dmin),
                    json_f64(*min_area),
                );
            }
            Response::Unloaded { circuit } => {
                s.push_str("{\"type\":\"unloaded\",\"circuit\":");
                push_json_string(&mut s, circuit);
                s.push('}');
            }
            Response::CircuitList { circuits } => {
                s.push_str("{\"type\":\"list\",\"circuits\":[");
                for (i, c) in circuits.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str("{\"circuit\":");
                    push_json_string(&mut s, &c.name);
                    let _ = write!(
                        s,
                        ",\"gates\":{},\"vertices\":{},\"dmin\":{},\"requests\":{},\
                         \"write_queue_depth\":{},\"read_queue_depth\":{},\
                         \"replicas\":{},\"state\":\"{}\"}}",
                        c.gates,
                        c.vertices,
                        json_f64(c.dmin),
                        c.requests,
                        c.write_queue_depth,
                        c.read_queue_depth,
                        c.replicas,
                        c.state,
                    );
                }
                s.push_str("]}");
            }
            Response::ShuttingDown => s.push_str("{\"type\":\"shutdown\"}"),
            Response::Error { code, message } => {
                s.push_str("{\"type\":\"error\"");
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
                push_json_string(&mut s, message);
                s.push('}');
            }
        }
        s
    }
}

/// Field lookup over a parsed JSON object, with typed accessors that
/// produce [`MftError::Protocol`] diagnostics.
struct Fields<'a>(&'a [(String, Json)]);

impl<'a> Fields<'a> {
    fn get(&self, name: &str) -> Option<&'a Json> {
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

    fn num_array(&self, name: &str) -> Result<Vec<f64>, MftError> {
        let v = self
            .get(name)
            .ok_or_else(|| MftError::Protocol(format!("missing array field `{name}`")))?;
        let arr = v
            .as_array()
            .ok_or_else(|| MftError::Protocol(format!("field `{name}` must be an array")))?;
        arr.iter()
            .map(|x| {
                x.as_f64().ok_or_else(|| {
                    MftError::Protocol(format!("field `{name}` must contain only numbers"))
                })
            })
            .collect()
    }
}

/// Emits an f64 as a JSON number (`null` for non-finite values, which
/// JSON cannot represent).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

fn push_f64_array(s: &mut String, xs: &[f64]) {
    s.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&json_f64(*x));
    }
    s.push(']');
}

fn push_json_string(s: &mut String, raw: &str) {
    s.push('"');
    for c in raw.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// A parsed JSON value (the minimal reader behind
/// [`Request::from_json_line`]).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }
}

/// The deepest array/object nesting the JSON reader accepts. Requests
/// nest two levels (the request object and its arrays) and responses
/// three, so this only refuses hostile lines: the reader recurses once
/// per level, and an unbounded depth would let one line of `[`
/// overflow the connection thread's stack. A constant, not a knob.
const MAX_JSON_DEPTH: usize = 64;

fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> JsonParser<'a> {
    fn skip_ws(&mut self) {
        while matches!(
            self.bytes.get(self.pos),
            Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r')
        ) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_JSON_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_JSON_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    /// Reads four hex digits at `at` as a code unit.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|_| "non-ASCII \\u escape".to_owned())?;
        u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_owned())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex4(self.pos + 1)?;
                            if (0xDC00..=0xDFFF).contains(&code) {
                                return Err("unpaired low surrogate in \\u escape".into());
                            }
                            if (0xD800..=0xDBFF).contains(&code) {
                                // A high surrogate must be followed by
                                // an escaped low surrogate; the pair
                                // decodes to one supplementary scalar.
                                if self.bytes.get(self.pos + 5) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 6) != Some(&b'u')
                                {
                                    return Err("high surrogate not followed by \\u escape".into());
                                }
                                let low = self.hex4(self.pos + 7)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err("invalid low surrogate in \\u pair".into());
                                }
                                let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                out.push(
                                    char::from_u32(scalar)
                                        .expect("surrogate pairs decode to valid scalars"),
                                );
                                self.pos += 10;
                            } else {
                                out.push(
                                    char::from_u32(code)
                                        .expect("non-surrogate BMP values are valid scalars"),
                                );
                                self.pos += 4;
                            }
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or
                    // backslash at once. Both are ASCII, so the run ends
                    // on a char boundary of the input (a &str, valid
                    // UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(std::str::from_utf8(&rest[..len]).expect("input was a &str"));
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                tech: Some("130nm".into()),
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

    #[test]
    fn string_escapes_survive_both_directions() {
        let message = "a \"quoted\"\\ line\nwith\tcontrol \u{1} bytes";
        let line = Response::error(message).to_json_line();
        let value = parse_json(&line).unwrap();
        let obj = value.as_object().unwrap();
        let roundtripped = obj
            .iter()
            .find(|(k, _)| k == "message")
            .and_then(|(_, v)| v.as_str())
            .unwrap();
        assert_eq!(roundtripped, message);
    }

    #[test]
    fn non_finite_floats_emit_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn unicode_escapes_decode() {
        // Literal multibyte characters pass through…
        let v = parse_json("\"Aé\"").unwrap();
        assert_eq!(v, Json::Str("Aé".to_owned()));
        // …and \u escapes decode to the same scalar.
        let v = parse_json("\"A\\u00e9\"").unwrap();
        assert_eq!(v, Json::Str("Aé".to_owned()));
        // Surrogate pairs decode to one supplementary scalar (what
        // ensure_ascii serializers emit for non-BMP characters).
        let v = parse_json("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v, Json::Str("😀".to_owned()));
        // Broken pairs are rejected, not mis-decoded.
        for bad in [
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ude00\"",
            "\"\\ud83d\\u0041\"",
        ] {
            assert!(parse_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn multibyte_runs_around_escapes_decode_exactly() {
        // Multi-byte runs directly before and after escapes.
        let v = parse_json(r#""héllo\"wörld\\ñ\n日本\t語""#).unwrap();
        assert_eq!(v, Json::Str("héllo\"wörld\\ñ\n日本\t語".to_owned()));
        // A surrogate pair in the middle of literal runs.
        let v = parse_json(r#""αβ😀γδ😀ε""#).unwrap();
        assert_eq!(v, Json::Str("αβ😀γδ😀ε".to_owned()));
        // A run that is the whole string, and an empty one.
        assert_eq!(parse_json("\"ünï\"").unwrap(), Json::Str("ünï".into()));
        assert_eq!(parse_json("\"\"").unwrap(), Json::Str(String::new()));
    }

    #[test]
    fn unterminated_strings_are_rejected() {
        for bad in ["\"abc", "\"日本", "\"abc\\\"", "\"a\\", "{\"type\":\"siz"] {
            assert!(parse_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn long_strings_decode_in_linear_time() {
        // ~2 MB of mixed ASCII and multi-byte text with an escape every
        // few KB. The old per-character decode re-validated the rest of
        // the line for every character: quadratic, minutes at this size.
        let chunk = "abcdefghij→ünï".repeat(200);
        let mut text = String::from("\"");
        let mut want = String::new();
        while text.len() < 2_000_000 {
            text.push_str(&chunk);
            text.push_str("\\n");
            want.push_str(&chunk);
            want.push('\n');
        }
        text.push('"');
        let started = std::time::Instant::now();
        let v = parse_json(&text).unwrap();
        let took = started.elapsed();
        assert_eq!(v, Json::Str(want));
        assert!(took.as_secs_f64() < 5.0, "2 MB string took {took:?}");
    }
}
