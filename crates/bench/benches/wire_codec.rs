//! Bench of the line protocol's number codec on the two heaviest lines
//! the service handles: a `what_if` request carrying one size per
//! vertex of the rand10k ladder rung (10k floats), and a c6288-like
//! `size` response with `return_sizes`. Each side is timed twice: the
//! `mft-core` codec (`RequestFrame`/`Response` emitters,
//! `RequestFrame::from_json_line`, `extract_id`) and the
//! `format!`-per-number writer and tree reader it replaced
//! (`mft_bench::legacy_json`). The table gives the median time per
//! line and per float; setup asserts both writers emit the same bytes
//! and that every float reads back bit for bit.
//!
//! The e2ebench `what_if_10k` workload times the server side of a
//! `what_if`; the client's encode of the request line shows only here.
//! Set `MFT_BENCH_SMOKE=1` for the CI run (c432-like lines, few
//! samples).

use mft_bench::legacy_json::{self, Json};
use mft_circuit::{Netlist, SizingMode};
use mft_core::{
    extract_id, Request, RequestFrame, Response, SessionConfig, SizingProblem, SizingSession,
};
use mft_delay::Technology;
use mft_gen::{ladder_rung, Benchmark};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn smoke() -> bool {
    std::env::var_os("MFT_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// Median wall time of one call of `f` over `samples` calls, after one
/// warm-up call.
fn median_time<T>(samples: usize, mut f: impl FnMut() -> T) -> Duration {
    black_box(f());
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[samples / 2]
}

/// Prints one old-vs-new row: time per line and per float.
fn report(label: &str, floats: usize, old: Duration, new: Duration) {
    let per_float = |d: Duration| d.as_secs_f64() * 1e9 / floats as f64;
    println!(
        "wire_codec/{label:<18} old {:>9.1?} {:>7.1} ns/float   new {:>9.1?} {:>7.1} ns/float   {:.2}x",
        old,
        per_float(old),
        new,
        per_float(new),
        old.as_secs_f64() / new.as_secs_f64()
    );
}

/// The fields of a parsed legacy object.
fn legacy_field<'a>(value: &'a Json, name: &str) -> Option<&'a Json> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
}

/// A number array read the legacy way: one tree node per element, then
/// collected.
fn legacy_numbers(value: &Json, name: &str) -> Vec<f64> {
    legacy_field(value, name)
        .and_then(Json::as_array)
        .expect("number array")
        .iter()
        .map(|x| x.as_f64().expect("number"))
        .collect()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn prepare(netlist: &Netlist) -> SizingProblem {
    SizingProblem::prepare(netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap()
}

/// The client side of a `what_if`: encode the framed request line, and
/// the server side: decode it.
fn bench_what_if(samples: usize) {
    let (name, netlist) = if smoke() {
        ("c432", Benchmark::C432.generate().unwrap())
    } else {
        (
            "rand10k",
            ladder_rung("rand10k").unwrap().generate().unwrap(),
        )
    };
    let n = prepare(&netlist).dag().num_vertices();
    // Candidate sizes drawn like the e2ebench stream's fresh draws.
    let mut rng = StdRng::seed_from_u64(7);
    let sizes: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..3.0)).collect();
    let frame = RequestFrame::new(Request::WhatIf {
        sizes: sizes.clone(),
        spec: Some(0.8),
        target: None,
    })
    .for_circuit(name);
    let legacy_encode = || {
        let mut payload = String::from("{\"type\":\"what_if\",\"sizes\":");
        legacy_json::push_f64_array(&mut payload, &sizes);
        let _ = write!(payload, ",\"spec\":{}}}", legacy_json::json_f64(0.8));
        format!("{{\"circuit\":\"{name}\",{}", &payload[1..])
    };
    let line = frame.to_json_line();
    assert_eq!(line, legacy_encode(), "both writers emit the same bytes");
    let decoded = RequestFrame::from_json_line(&line).unwrap();
    let Request::WhatIf { sizes: got, .. } = &decoded.request else {
        panic!("decoded {:?}", decoded.request.wire_type());
    };
    assert_eq!(bits(got), bits(&sizes), "sizes read back bit for bit");
    let legacy = legacy_json::parse_json(&line).unwrap();
    assert_eq!(bits(&legacy_numbers(&legacy, "sizes")), bits(&sizes));
    println!(
        "what_if line: {name}, {n} sizes, {} bytes, median of {samples}",
        line.len()
    );
    report(
        "what_if encode",
        n,
        median_time(samples, legacy_encode),
        median_time(samples, || frame.to_json_line()),
    );
    report(
        "what_if decode",
        n,
        median_time(samples, || {
            legacy_numbers(&legacy_json::parse_json(&line).unwrap(), "sizes")
        }),
        median_time(samples, || RequestFrame::from_json_line(&line).unwrap()),
    );
}

/// The server side of a `size` with `return_sizes`: encode the response
/// line with its echoed id, and the client side: parse it.
fn bench_size_response(samples: usize) {
    let (benchmark, spec) = if smoke() {
        (Benchmark::C432, 0.6)
    } else {
        (Benchmark::C6288, 0.45)
    };
    let mut session = SizingSession::new(
        prepare(&benchmark.generate().unwrap()),
        SessionConfig::warm(),
    );
    let response = session.serve(&Request::Size {
        spec: Some(spec),
        target: None,
        return_sizes: true,
    });
    let Response::Size {
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
        sizes: Some(sizes),
    } = &response
    else {
        panic!("size failed: {}", response.to_json_line());
    };
    let id = "\"r1\"";
    let legacy_encode = || {
        let f = legacy_json::json_f64;
        let mut payload = format!(
            "{{\"type\":\"size\",\"spec\":{},\"target\":{},\"area\":{},\
             \"area_ratio\":{},\"achieved_delay\":{},\"iterations\":{iterations},\
             \"tilos_bumps\":{tilos_bumps},\"saving_percent\":{},\
             \"power\":{},\"leakage\":{},\"switching\":{}",
            f(*spec),
            f(*target),
            f(*area),
            f(*area_ratio),
            f(*achieved_delay),
            f(*saving_percent),
            f(*power),
            f(*leakage),
            f(*switching),
        );
        payload.push_str(",\"sizes\":");
        legacy_json::push_f64_array(&mut payload, sizes);
        payload.push('}');
        format!("{{\"id\":{id},{}", &payload[1..])
    };
    let line = response.to_json_line_with_id(Some(id));
    assert_eq!(line, legacy_encode(), "both writers emit the same bytes");
    assert_eq!(extract_id(&line).as_deref(), Some(id));
    let legacy = legacy_json::parse_json(&line).unwrap();
    assert_eq!(bits(&legacy_numbers(&legacy, "sizes")), bits(sizes));
    println!(
        "size response: {} at spec {spec}, {} sizes, {} bytes, median of {samples}",
        benchmark.name(),
        sizes.len(),
        line.len()
    );
    report(
        "size encode",
        sizes.len(),
        median_time(samples, legacy_encode),
        median_time(samples, || response.to_json_line_with_id(Some(id))),
    );
    report(
        "size decode",
        sizes.len(),
        median_time(samples, || legacy_json::parse_json(&line).unwrap()),
        median_time(samples, || extract_id(&line)),
    );
}

fn main() {
    let samples = if smoke() { 5 } else { 201 };
    bench_what_if(samples);
    bench_size_response(samples);
}
