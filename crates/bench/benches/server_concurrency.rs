//! Criterion bench of the multi-circuit server: N circuits' request
//! streams served (a) serially through back-to-back fresh sessions —
//! the "N serial processes" baseline — and (b) concurrently by one
//! [`CircuitServer`] over TCP loopback with one pipelined connection
//! per circuit. On multi-core hardware the server approaches `min(N,
//! cores)`-way speedup because circuits share nothing; on the 1-CPU CI
//! container it measures the full wire + threading overhead instead
//! (expect ~1x against the same workload).
//!
//! Setup asserts a socket-served response is byte-identical to the
//! in-process session line, so the bench also guards the exactness
//! contract. Set `MFT_BENCH_SMOKE=1` for the single-sample CI run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mft_bench::smoke;
use mft_circuit::SizingMode;
use mft_core::{
    CircuitServer, LineClient, Request, RequestFrame, ServerConfig, SessionConfig, SizingProblem,
    SizingSession,
};
use mft_delay::Technology;
use mft_gen::Benchmark;
use std::hint::black_box;

/// The per-circuit request stream (ids double as response labels).
fn requests() -> Vec<RequestFrame> {
    [0.85, 0.75, 0.8]
        .iter()
        .enumerate()
        .map(|(i, &spec)| {
            RequestFrame::new(Request::Size {
                spec: Some(spec),
                target: None,
                return_sizes: false,
            })
            .with_id(&format!("r{i}"))
        })
        .collect()
}

/// Serial baseline: one fresh warm session per circuit, streams served
/// back to back on the calling thread (what N one-circuit processes
/// would do, minus their process overhead).
fn serve_serially(problems: &[(String, SizingProblem)]) -> usize {
    let mut served = 0;
    for (_, problem) in problems {
        let mut session = SizingSession::new(problem.clone(), SessionConfig::warm());
        for frame in requests() {
            let line = session
                .serve(&frame.request)
                .to_json_line_with_id(frame.id.as_deref());
            served += line.len();
        }
    }
    served
}

/// The server: fresh registry per iteration (new sessions each time,
/// matching the serial baseline), one pipelined TCP connection per
/// circuit, driven concurrently.
fn serve_concurrently(problems: &[(String, SizingProblem)]) -> usize {
    let server = CircuitServer::new(ServerConfig::default());
    for (name, problem) in problems {
        let response = server.install(name, problem.clone());
        assert!(
            matches!(response, mft_core::Response::Loaded { .. }),
            "install failed"
        );
    }
    let (listener, addr) = mft_core::ServerListener::bind_tcp("127.0.0.1:0").expect("bind");
    let served = std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run(vec![listener]));
        let drivers: Vec<_> = problems
            .iter()
            .map(|(name, _)| {
                scope.spawn(move || {
                    let mut client = LineClient::connect(addr).expect("connect");
                    let frames: Vec<RequestFrame> = requests()
                        .into_iter()
                        .map(|f| f.for_circuit(name.clone()))
                        .collect();
                    for frame in &frames {
                        client.send(frame).expect("send");
                    }
                    let mut served = 0;
                    for _ in &frames {
                        served += client.recv().expect("recv").expect("line").len();
                    }
                    served
                })
            })
            .collect();
        let served: usize = drivers.into_iter().map(|d| d.join().expect("driver")).sum();
        let mut client = LineClient::connect(addr).expect("connect");
        client
            .call(&RequestFrame::new(Request::Shutdown))
            .expect("shutdown");
        runner.join().expect("runner").expect("run");
        served
    });
    server.join_workers();
    served
}

fn bench_server(c: &mut Criterion) {
    let tech = Technology::cmos_130nm();
    let problems: Vec<(String, SizingProblem)> = [Benchmark::C432, Benchmark::C880]
        .iter()
        .map(|bench| {
            let netlist = bench.generate().expect("generator valid");
            let problem =
                SizingProblem::prepare(&netlist, &tech, SizingMode::Gate).expect("prepares");
            (bench.name().trim_end_matches("-like").to_owned(), problem)
        })
        .collect();

    // Exactness self-check: the socket must serve the same bytes as an
    // in-process session for the same request.
    {
        let (name, problem) = &problems[0];
        let mut session = SizingSession::new(problem.clone(), SessionConfig::warm());
        let frame = requests().remove(0);
        let expected = session
            .serve(&frame.request)
            .to_json_line_with_id(frame.id.as_deref());
        let server = CircuitServer::new(ServerConfig::default());
        server.install(name, problem.clone());
        let (listener, addr) = mft_core::ServerListener::bind_tcp("127.0.0.1:0").expect("bind");
        let got = std::thread::scope(|scope| {
            let runner = scope.spawn(|| server.run(vec![listener]));
            let mut client = LineClient::connect(addr).expect("connect");
            let got = client
                .call(&frame.clone().for_circuit(name.clone()))
                .expect("call");
            client
                .call(&RequestFrame::new(Request::Shutdown))
                .expect("shutdown");
            runner.join().expect("runner").expect("run");
            got
        });
        server.join_workers();
        assert_eq!(
            got, expected,
            "socket bytes must match the in-process session"
        );
    }

    let mut group = c.benchmark_group("server_concurrency");
    group.sample_size(if smoke() { 1 } else { 10 });
    let n = problems.len();
    group.bench_with_input(
        BenchmarkId::new("serial_sessions", n),
        &problems,
        |b, problems| b.iter(|| black_box(serve_serially(problems))),
    );
    group.bench_with_input(
        BenchmarkId::new("tcp_server_concurrent", n),
        &problems,
        |b, problems| b.iter(|| black_box(serve_concurrently(problems))),
    );
    group.finish();
}

criterion_group!(benches, bench_server);
criterion_main!(benches);
