//! Integration tests of the multi-circuit server's protocol surface:
//! error paths that must never drop a connection, the Unix-domain
//! transport, `path`-based loads, and the docs-coverage check that
//! keeps `docs/PROTOCOL.md` in sync with the wire types implemented
//! in `crates/core/src/protocol.rs`.

use minflotransit::circuit::C17_BENCH;
use minflotransit::core::{
    extract_error_code, extract_id, CircuitServer, LineClient, LoadRequest, Request, RequestFrame,
    Response, ServerConfig, ServerListener, SessionConfig,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Starts a server on an ephemeral TCP port, returning the handle to
/// join after a `shutdown` request.
fn start_tcp(
    config: ServerConfig,
) -> (
    Arc<CircuitServer>,
    SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = CircuitServer::new(config);
    let (listener, addr) = ServerListener::bind_tcp("127.0.0.1:0").unwrap();
    let runner = {
        let server = server.clone();
        std::thread::spawn(move || server.run(vec![listener]))
    };
    (server, addr, runner)
}

fn shut_down(
    addr: SocketAddr,
    server: &CircuitServer,
    runner: std::thread::JoinHandle<std::io::Result<()>>,
) {
    let mut client = LineClient::connect(addr).unwrap();
    let ack = client.call(&RequestFrame::new(Request::Shutdown)).unwrap();
    assert_eq!(ack, "{\"type\":\"shutdown\"}");
    runner.join().unwrap().unwrap();
    server.join_workers();
}

fn load_c17(name: &str) -> RequestFrame {
    RequestFrame::new(Request::Load(LoadRequest {
        bench: Some(C17_BENCH.to_owned()),
        ..Default::default()
    }))
    .for_circuit(name)
}

/// Every protocol error path answers an error response and leaves the
/// same connection fully serviceable afterwards.
#[test]
fn error_paths_never_drop_the_connection() {
    let (server, addr, runner) = start_tcp(ServerConfig {
        max_line_bytes: 4096,
        max_circuits: 1,
        session: SessionConfig::warm(),
        ..Default::default()
    });
    let mut client = LineClient::connect(addr).unwrap();

    // Unknown request type (id echoed on the error).
    client.send_raw(r#"{"type":"resize","id":"e1"}"#).unwrap();
    let line = client.recv().unwrap().unwrap();
    assert!(
        line.starts_with("{\"id\":\"e1\",\"type\":\"error\"") && line.contains("unknown request"),
        "{line}"
    );

    // Request with no circuit loaded.
    client
        .send_raw(r#"{"type":"size","spec":0.9,"id":"e2"}"#)
        .unwrap();
    let line = client.recv().unwrap().unwrap();
    assert!(line.contains("no circuit loaded"), "{line}");

    // Oversized line: discarded, answered, connection intact.
    let long = format!("{{\"type\":\"stats\",\"pad\":\"{}\"}}", "x".repeat(8192));
    client.send_raw(&long).unwrap();
    let line = client.recv().unwrap().unwrap();
    assert!(line.contains("exceeds 4096 bytes"), "{line}");

    // Malformed JSON.
    client.send_raw("{\"type\":").unwrap();
    let line = client.recv().unwrap().unwrap();
    assert!(line.contains("\"type\":\"error\""), "{line}");

    // Removed flow backends: each name answers an error naming it, and
    // nothing is registered (the healthy `c17` load below still fits).
    for name in [
        "ssp",
        "simplex-first",
        "simplex-block",
        "dual-simplex",
        "dual",
        "reference",
        "auto",
    ] {
        let frame = RequestFrame::new(Request::Load(LoadRequest {
            bench: Some(C17_BENCH.to_owned()),
            flow: Some(name.to_owned()),
            ..Default::default()
        }))
        .for_circuit("c17");
        let line = client.call(&frame).unwrap();
        assert!(
            line.contains("\"type\":\"error\"")
                && line.contains(&format!("`{name}` was removed"))
                && line.contains("`simplex` (network simplex) is the only backend"),
            "{line}"
        );
    }

    // A healthy load on the very same connection.
    let line = client.call(&load_c17("c17").with_id("ok")).unwrap();
    assert!(line.contains("\"type\":\"loaded\""), "{line}");

    // Duplicate name and registry overflow.
    let line = client.call(&load_c17("c17")).unwrap();
    assert!(line.contains("already loaded"), "{line}");
    let line = client.call(&load_c17("other")).unwrap();
    assert!(line.contains("registry is full"), "{line}");

    // Unload of a missing circuit…
    let line = client
        .call(&RequestFrame::new(Request::Unload).for_circuit("nope"))
        .unwrap();
    assert!(line.contains("unknown circuit `nope`"), "{line}");

    // …then a real unload, and requests for the now-unloaded circuit.
    let line = client
        .call(&RequestFrame::new(Request::Unload).for_circuit("c17"))
        .unwrap();
    assert_eq!(line, "{\"type\":\"unloaded\",\"circuit\":\"c17\"}");
    let line = client
        .call(&RequestFrame::new(Request::Stats).for_circuit("c17"))
        .unwrap();
    assert!(line.contains("unknown circuit `c17`"), "{line}");

    // The connection survived all of it.
    let line = client.call(&RequestFrame::new(Request::List)).unwrap();
    assert_eq!(line, "{\"type\":\"list\",\"circuits\":[]}");
    shut_down(addr, &server, runner);
}

/// A load by server-side `path`, driven over the wire, then served.
#[test]
fn path_loads_and_list_roll_up() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("mft_proto_{}.bench", std::process::id()));
    std::fs::write(&path, C17_BENCH).unwrap();

    let (server, addr, runner) = start_tcp(ServerConfig::default());
    let mut client = LineClient::connect(addr).unwrap();
    let line = client
        .call(
            &RequestFrame::new(Request::Load(LoadRequest {
                path: Some(path.display().to_string()),
                ..Default::default()
            }))
            .for_circuit("c17"),
        )
        .unwrap();
    assert!(line.contains("\"type\":\"loaded\""), "{line}");
    assert!(line.contains("\"gates\":6"), "{line}");

    // A nonexistent path answers an error, not a dropped connection.
    let line = client
        .call(
            &RequestFrame::new(Request::Load(LoadRequest {
                path: Some("/nonexistent/nowhere.bench".into()),
                ..Default::default()
            }))
            .for_circuit("ghost"),
        )
        .unwrap();
    assert!(line.contains("cannot read"), "{line}");

    // Serve something, then check the list roll-up counts it.
    let line = client
        .call(
            &RequestFrame::new(Request::Size {
                spec: Some(0.8),
                target: None,
                return_sizes: false,
            })
            .for_circuit("c17")
            .with_id("s"),
        )
        .unwrap();
    assert!(
        line.starts_with("{\"id\":\"s\",\"type\":\"size\""),
        "{line}"
    );
    let line = client.call(&RequestFrame::new(Request::List)).unwrap();
    assert!(
        line.contains("\"circuit\":\"c17\"") && line.contains("\"requests\":1"),
        "{line}"
    );

    std::fs::remove_file(&path).ok();
    shut_down(addr, &server, runner);
}

/// The Unix-domain transport serves the same bytes as TCP.
#[cfg(unix)]
#[test]
fn unix_socket_matches_tcp() {
    let dir = std::env::temp_dir();
    let sock = dir.join(format!("mft_proto_{}.sock", std::process::id()));
    let server = CircuitServer::new(ServerConfig::default());
    let listener = ServerListener::bind_unix(&sock).unwrap();
    let (tcp, addr) = ServerListener::bind_tcp("127.0.0.1:0").unwrap();
    let runner = {
        let server = server.clone();
        std::thread::spawn(move || server.run(vec![listener, tcp]))
    };

    let mut unix_client = LineClient::connect_unix(&sock).unwrap();
    let line = unix_client.call(&load_c17("c17").with_id("u")).unwrap();
    assert!(
        line.starts_with("{\"id\":\"u\",\"type\":\"loaded\""),
        "{line}"
    );

    let size = Request::Size {
        spec: Some(0.75),
        target: None,
        return_sizes: true,
    };
    let over_unix = unix_client
        .call(&RequestFrame::new(size.clone()).with_id("q"))
        .unwrap();
    let mut tcp_client = LineClient::connect(addr).unwrap();
    let over_tcp = tcp_client
        .call(&RequestFrame::new(size).with_id("q"))
        .unwrap();
    assert_eq!(over_unix, over_tcp, "transports must serve identical bytes");
    assert_eq!(extract_id(&over_unix).as_deref(), Some("\"q\""));

    shut_down(addr, &server, runner);
    std::fs::remove_file(&sock).ok();
}

/// The acceptance check for the protocol docs: `docs/PROTOCOL.md` must
/// document every request and response variant implemented in
/// `protocol.rs` (enumerated through the `WIRE_TYPES` tables, which an
/// exhaustive match in `wire_type()` keeps in sync with the enums),
/// plus the envelope fields and the line-protocol pieces the spec
/// promises.
#[test]
fn protocol_doc_documents_every_wire_variant() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/PROTOCOL.md"))
        .expect("docs/PROTOCOL.md must exist");
    for tag in Request::WIRE_TYPES {
        assert!(
            doc.contains(&format!("{{\"type\":\"{tag}\"")),
            "docs/PROTOCOL.md lacks a request example for `{tag}`"
        );
    }
    for tag in Response::WIRE_TYPES {
        assert!(
            doc.contains(&format!("\"type\":\"{tag}\"")) || doc.contains(&format!("### `{tag}`")),
            "docs/PROTOCOL.md lacks a response section for `{tag}`"
        );
    }
    for required in [
        "\"id\"",
        "\"circuit\"",
        "Ordering guarantees",
        "Error semantics",
        "FIFO",
        "\"write_queue_depth\"",
        "\"read_queue_depth\"",
        "\"replicas\"",
        "\"replica_epoch\"",
    ] {
        assert!(
            doc.contains(required),
            "docs/PROTOCOL.md lacks `{required}`"
        );
    }
    // The architecture doc and README exist and cross-link the spec.
    let arch =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/ARCHITECTURE.md"))
            .expect("docs/ARCHITECTURE.md must exist");
    assert!(arch.contains("PROTOCOL.md"));
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md must exist");
    assert!(readme.contains("docs/PROTOCOL.md"));
    assert!(readme.contains("docs/ARCHITECTURE.md"));
}

/// Reads `n` responses and returns them keyed by their echoed `id`.
fn recv_by_id(client: &mut LineClient<std::net::TcpStream>, n: usize) -> Vec<(String, String)> {
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

/// A line nested far past the JSON reader's depth bound (200 KB of `[`,
/// well under `max_line_bytes`) answers an error instead of overflowing
/// the connection thread's stack, and the same connection goes on
/// serving the loaded circuit.
#[test]
fn deeply_nested_line_answers_an_error_and_the_connection_survives() {
    let (server, addr, runner) = start_tcp(ServerConfig::default());
    let mut client = LineClient::connect(addr).unwrap();
    let line = client.call(&load_c17("c17")).unwrap();
    assert!(line.contains("\"type\":\"loaded\""), "{line}");
    client.send_raw(&"[".repeat(200_000)).unwrap();
    let line = client.recv().unwrap().expect("connection must stay open");
    assert!(
        line.starts_with("{\"type\":\"error\"") && line.contains("nesting deeper"),
        "{line}"
    );
    let line = client
        .call(&RequestFrame::new(Request::Stats).for_circuit("c17"))
        .unwrap();
    assert!(line.contains("\"type\":\"stats\""), "{line}");
    shut_down(addr, &server, runner);
}

/// A request whose deadline passes while it waits in the queue is shed
/// with `expired` before any sizing work, and the connection survives.
#[test]
fn expired_deadline_sheds_queued_work() {
    let (server, addr, runner) = start_tcp(ServerConfig::default());
    let mut client = LineClient::connect(addr).unwrap();
    let line = client.call(&load_c17("c17")).unwrap();
    assert!(line.contains("\"type\":\"loaded\""), "{line}");

    // Occupy the worker, then queue a request that is already expired
    // by the time the worker can dequeue it.
    client
        .send(
            &RequestFrame::new(Request::Sweep {
                specs: vec![0.9, 0.8],
            })
            .for_circuit("c17")
            .with_id("slow"),
        )
        .unwrap();
    client
        .send(
            &RequestFrame::new(Request::Size {
                spec: Some(0.7),
                target: None,
                return_sizes: false,
            })
            .for_circuit("c17")
            .with_id("late")
            .with_deadline_ms(0.0),
        )
        .unwrap();

    let responses = recv_by_id(&mut client, 2);
    let shed = line_for(&responses, "late");
    assert_eq!(
        extract_error_code(shed).as_deref(),
        Some("expired"),
        "{shed}"
    );
    let swept = line_for(&responses, "slow");
    assert!(swept.contains("\"type\":\"sweep\""), "{swept}");

    // A generous deadline is honored normally on the same connection.
    let line = client
        .call(
            &RequestFrame::new(Request::Size {
                spec: Some(0.8),
                target: None,
                return_sizes: false,
            })
            .for_circuit("c17")
            .with_id("ok")
            .with_deadline_ms(60_000.0),
        )
        .unwrap();
    assert!(line.contains("\"type\":\"size\""), "{line}");
    shut_down(addr, &server, runner);
}

/// The hardened client: `connect_timeout`, a read timeout, and
/// `send_with_retry` riding out a `busy` burst with backoff.
#[test]
fn client_retry_rides_out_busy() {
    let (server, addr, runner) = start_tcp(ServerConfig {
        max_queue_depth: 1,
        session: SessionConfig::warm(),
        ..Default::default()
    });
    let mut client = LineClient::connect_timeout(addr, Duration::from_secs(5)).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let line = client.call(&load_c17("c17")).unwrap();
    assert!(line.contains("\"type\":\"loaded\""), "{line}");

    // A second connection keeps the worker occupied so the first
    // retry attempts see `busy`, then the queue drains and the retry
    // succeeds without the caller doing anything.
    let mut other = LineClient::connect(addr).unwrap();
    other
        .send(
            &RequestFrame::new(Request::Sweep {
                specs: vec![0.9, 0.8, 0.7],
            })
            .for_circuit("c17")
            .with_id("occupy"),
        )
        .unwrap();
    // Wait until the sweep is visibly holding the queue so the first
    // size attempt deterministically sees `busy` (if the sweep already
    // finished, the retry simply succeeds on its first attempt).
    for _ in 0..1000 {
        let line = client.call(&RequestFrame::new(Request::List)).unwrap();
        if line.contains("\"state\":\"busy\"") {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let size = RequestFrame::new(Request::Size {
        spec: Some(0.8),
        target: None,
        return_sizes: false,
    })
    .for_circuit("c17")
    .with_id("patient");
    let line = client
        .send_with_retry(&size, 200, Duration::from_millis(2))
        .unwrap();
    assert!(
        line.contains("\"type\":\"size\""),
        "retry must outlast the burst: {line}"
    );
    let swept = other.recv().unwrap().unwrap();
    assert!(swept.contains("\"type\":\"sweep\""), "{swept}");
    shut_down(addr, &server, runner);
}

/// `load` with `replace:true` hot-swaps a circuit under live traffic:
/// in-flight requests against the old session are all answered, the
/// swap is acknowledged, and later requests hit the fresh session.
#[test]
fn replace_load_hot_swaps_under_traffic() {
    let (server, addr, runner) = start_tcp(ServerConfig::default());
    let mut client = LineClient::connect(addr).unwrap();
    let line = client.call(&load_c17("c17")).unwrap();
    assert!(line.contains("\"type\":\"loaded\""), "{line}");

    // Without `replace`, the duplicate is still rejected (and points
    // at the escape hatch).
    let line = client.call(&load_c17("c17").with_id("dup")).unwrap();
    assert!(line.contains("already loaded"), "{line}");
    assert!(line.contains("replace"), "{line}");

    // Pipeline live traffic, swap mid-stream, then keep going.
    let size = RequestFrame::new(Request::Size {
        spec: Some(0.8),
        target: None,
        return_sizes: false,
    })
    .for_circuit("c17");
    for id in ["t0", "t1", "t2"] {
        client.send(&size.clone().with_id(id)).unwrap();
    }
    let swap = RequestFrame::new(Request::Load(LoadRequest {
        bench: Some(C17_BENCH.to_owned()),
        replace: true,
        ..Default::default()
    }))
    .for_circuit("c17")
    .with_id("swap");
    client.send(&swap).unwrap();
    client.send(&size.clone().with_id("t3")).unwrap();

    let responses = recv_by_id(&mut client, 5);
    assert!(line_for(&responses, "swap").contains("\"type\":\"loaded\""));
    for id in ["t0", "t1", "t2", "t3"] {
        let line = line_for(&responses, id);
        assert!(line.contains("\"type\":\"size\""), "{id}: {line}");
    }

    // Exactly one registered circuit, fresh counters on the new session.
    let line = client.call(&RequestFrame::new(Request::List)).unwrap();
    assert_eq!(line.matches("\"circuit\":\"c17\"").count(), 1, "{line}");
    shut_down(addr, &server, runner);
}

/// A finite `spec` whose target `spec · D_min` overflows answers one
/// error naming the field, on the writer (`size`, `size_power`,
/// `sweep`) and on a read replica (`what_if`), and the circuit keeps
/// serving. Each used to answer a success with a `null` target, or a
/// D-phase flow error.
#[test]
fn overflowing_specs_answer_an_error_naming_the_field() {
    let (server, addr, runner) = start_tcp(ServerConfig {
        session: SessionConfig::warm(),
        ..Default::default()
    });
    let mut client = LineClient::connect(addr).unwrap();
    let load = RequestFrame::new(Request::Load(LoadRequest {
        bench: Some(C17_BENCH.to_owned()),
        replicas: Some(1),
        ..Default::default()
    }))
    .for_circuit("c17");
    let line = client.call(&load).unwrap();
    assert!(line.contains("\"type\":\"loaded\""), "{line}");
    for (request, named) in [
        (r#"{"type":"size","spec":1e308}"#, "`spec` = 1e308"),
        (r#"{"type":"size_power","spec":-1e308}"#, "`spec` = -1e308"),
        (
            r#"{"type":"sweep","specs":[0.9,1e308]}"#,
            "`specs[1]` = 1e308",
        ),
        (
            r#"{"type":"what_if","sizes":[1,1,1,1,1,1],"spec":1e308}"#,
            "`spec` = 1e308",
        ),
    ] {
        let request = request.replacen('{', r#"{"circuit":"c17","#, 1);
        client.send_raw(&request).unwrap();
        let line = client.recv().unwrap().unwrap();
        assert_eq!(
            line,
            format!(
                "{{\"type\":\"error\",\"message\":\"bad request: {named} overflows the \
                 target spec · D_min\"}}"
            ),
            "{request}"
        );
    }
    // The circuit still serves.
    client
        .send_raw(r#"{"circuit":"c17","type":"size","spec":0.9}"#)
        .unwrap();
    let line = client.recv().unwrap().unwrap();
    assert!(
        line.starts_with("{\"type\":\"size\",\"spec\":0.9"),
        "{line}"
    );
    shut_down(addr, &server, runner);
}

/// A bare `SizingSession` answers registry requests with an error
/// pointing at the server (they are server-level operations).
#[test]
fn bare_sessions_reject_registry_requests() {
    use minflotransit::circuit::{parse_bench, SizingMode};
    use minflotransit::core::{SizingProblem, SizingSession};
    use minflotransit::delay::Technology;
    let netlist = parse_bench("c17", C17_BENCH).unwrap();
    let problem =
        SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap();
    let mut session = SizingSession::new(problem, SessionConfig::warm());
    for request in [
        Request::Load(LoadRequest::default()),
        Request::Unload,
        Request::List,
        Request::Shutdown,
    ] {
        let response = session.serve(&request);
        let Response::Error { message, .. } = response else {
            panic!("registry request must error in a bare session");
        };
        assert!(message.contains("multi-circuit server"), "{message}");
    }
}

/// With a replica pool, reads are admission-controlled by their own
/// gauge: a pipelined what-if burst saturates the read queue and
/// answers `busy` (naming the read queue) without crowding a mutation
/// out of the writer, the connection survives, and `list` reports the
/// write/read depth split.
#[test]
fn read_queue_full_answers_busy_without_crowding_the_writer() {
    use minflotransit::circuit::write_bench;
    use minflotransit::gen::array_multiplier;

    let (server, addr, runner) = start_tcp(ServerConfig {
        max_queue_depth: 1,
        replicas: 1,
        session: SessionConfig::warm(),
        ..Default::default()
    });
    let mut client = LineClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    // A circuit large enough that one read takes real time, so the
    // burst below reliably finds the lone replica still occupied.
    let bench = write_bench(&array_multiplier(16).unwrap()).unwrap();
    let loaded = client
        .call(
            &RequestFrame::new(Request::Load(LoadRequest {
                bench: Some(bench),
                ..Default::default()
            }))
            .for_circuit("mult"),
        )
        .unwrap();
    assert!(loaded.contains("\"type\":\"loaded\""), "{loaded}");
    let pat = "\"vertices\":";
    let at = loaded.find(pat).expect("loaded reports vertices") + pat.len();
    let n: usize = loaded[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap();

    // Pipeline a read burst plus one mutation behind it. The first
    // read is admitted (an idle queue takes anything), later ones
    // bounce off the saturated read gauge — while the size sails onto
    // the untouched writer queue.
    const BURST: usize = 20;
    let what_if = RequestFrame::new(Request::WhatIf {
        sizes: vec![1.0; n],
        spec: None,
        target: None,
    })
    .for_circuit("mult");
    for k in 0..BURST {
        client
            .send(&what_if.clone().with_id(&format!("b{k}")))
            .unwrap();
    }
    let size = RequestFrame::new(Request::Size {
        spec: Some(0.9),
        target: None,
        return_sizes: false,
    })
    .for_circuit("mult")
    .with_id("write");
    client.send(&size).unwrap();

    let responses = recv_by_id(&mut client, BURST + 1);
    let sized = line_for(&responses, "write");
    assert!(
        sized.contains("\"type\":\"size\""),
        "a read burst must not crowd out the writer: {sized}"
    );
    let first = line_for(&responses, "b0");
    assert!(first.contains("\"type\":\"what_if\""), "{first}");
    let (mut served, mut bounced) = (0usize, 0usize);
    for k in 0..BURST {
        let line = line_for(&responses, &format!("b{k}"));
        if line.contains("\"type\":\"what_if\"") {
            served += 1;
        } else {
            assert_eq!(extract_error_code(line).as_deref(), Some("busy"), "{line}");
            assert!(line.contains("read queue is full"), "{line}");
            bounced += 1;
        }
    }
    assert_eq!(served + bounced, BURST);
    assert!(
        bounced > 0,
        "a {BURST}-deep burst against one replica and a depth bound of 1 must bounce"
    );

    // Drained: the same read succeeds, and `list` reports the split
    // gauges back at zero alongside the replica count.
    let line = client.call(&what_if.with_id("retry")).unwrap();
    assert!(line.contains("\"type\":\"what_if\""), "{line}");
    let list = client.call(&RequestFrame::new(Request::List)).unwrap();
    for field in [
        "\"write_queue_depth\":0",
        "\"read_queue_depth\":0",
        "\"replicas\":1",
    ] {
        assert!(list.contains(field), "{list}");
    }
    let stats = client
        .call(&RequestFrame::new(Request::Stats).for_circuit("mult"))
        .unwrap();
    assert!(
        stats.contains("\"replica_epoch\":1"),
        "one mutation bumps the epoch once: {stats}"
    );
    shut_down(addr, &server, runner);
}
