//! Seeded fuzzing of the hand-rolled readers: the JSON request reader
//! (`RequestFrame::from_json_line`, plus the best-effort `extract_id` /
//! `extract_error_code` scanners) and the `.bench` netlist reader
//! (`parse_bench`) must answer `Ok` or `Err` on any input and never
//! panic.
//!
//! The vendored proptest samples only integer ranges, so the inputs are
//! built from seeded `rand` draws: random bytes, truncations and byte
//! mutations of every JSON example line in `docs/PROTOCOL.md`, array and
//! object nesting up to the server's default `max_line_bytes`, number
//! arrays with lax, non-finite and misplaced elements, and mutated
//! `.bench` text. Every JSON line is also decoded by the tree reader the
//! codec replaced (`mft_bench::legacy_json`, the oracle) under the
//! protocol's field rules; both must give the same frame bit for bit or
//! the same error text. The number writer is compared with
//! `format!("{x}")` on ten million values. Two more `.bench` checks
//! ride along: a reversed 40k-gate chain must parse in bounded time,
//! and shuffled definitions must get the gate ids of the historical
//! pass-by-pass reader (kept here as the oracle).

use mft_bench::legacy_json::{self, Json};
use minflotransit::circuit::{
    parse_bench, write_bench, GateKind, NetId, Netlist, NetlistBuilder, C17_BENCH,
};
use minflotransit::core::{
    extract_error_code, extract_id, LoadRequest, MftError, Request, RequestFrame, ServerConfig,
};
use minflotransit::gen::Benchmark;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Feeds one line to every JSON reader; fails with a preview of the
/// input if any of them panics or disagrees with the tree oracle.
fn read_line(line: &[u8]) {
    let text = String::from_utf8_lossy(line);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        (
            format!("{:?}", RequestFrame::from_json_line(&text)),
            extract_id(&text),
            extract_error_code(&text),
        )
    }));
    let Ok(got) = outcome else {
        panic!("a JSON reader panicked on {}", preview(&text));
    };
    // `{:?}` tells every f64 bit pattern the reader can produce apart
    // (-0 from 0 included), so equal text is a bit-exact match.
    let want = (
        format!("{:?}", oracle::frame(&text)),
        oracle::extract_id(&text),
        oracle::extract_error_code(&text),
    );
    assert_eq!(
        got,
        want,
        "the reader and the tree oracle disagree on {}",
        preview(&text)
    );
}

/// Request decoding over the tree reader the codec replaced: the field
/// rules of `docs/PROTOCOL.md` (the first occurrence of a key wins),
/// written against `legacy_json::Json` one element per node.
mod oracle {
    use super::*;

    fn bad(message: impl Into<String>) -> MftError {
        MftError::Protocol(message.into())
    }

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
                    .ok_or_else(|| bad(format!("field `{name}` must be a number"))),
            }
        }

        fn finite_opt(&self, name: &str) -> Result<Option<f64>, MftError> {
            match self.num_opt(name)? {
                Some(x) if !x.is_finite() => {
                    Err(bad(format!("field `{name}` must be a finite number")))
                }
                x => Ok(x),
            }
        }

        fn bool_opt(&self, name: &str) -> Result<Option<bool>, MftError> {
            match self.get(name) {
                None => Ok(None),
                Some(v) => v
                    .as_bool()
                    .map(Some)
                    .ok_or_else(|| bad(format!("field `{name}` must be a boolean"))),
            }
        }

        fn str_opt(&self, name: &str) -> Result<Option<String>, MftError> {
            match self.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(Json::Str(s)) => Ok(Some(s.clone())),
                Some(_) => Err(bad(format!("field `{name}` must be a string"))),
            }
        }

        fn num_array(&self, name: &str) -> Result<Vec<f64>, MftError> {
            let v = self
                .get(name)
                .ok_or_else(|| bad(format!("missing array field `{name}`")))?;
            let arr = v
                .as_array()
                .ok_or_else(|| bad(format!("field `{name}` must be an array")))?;
            arr.iter()
                .map(|x| {
                    x.as_f64()
                        .ok_or_else(|| bad(format!("field `{name}` must contain only numbers")))
                })
                .collect()
        }
    }

    fn id_fragment(v: &Json) -> Result<Option<String>, MftError> {
        match v {
            // The string escaper is unchanged; reach it through `with_id`.
            Json::Str(s) => Ok(RequestFrame::new(Request::Stats).with_id(s).id),
            Json::Num(x) if x.is_finite() => Ok(Some(legacy_json::json_f64(*x))),
            Json::Null => Ok(None),
            _ => Err(bad("field `id` must be a string or finite number")),
        }
    }

    fn request(f: &Fields) -> Result<Request, MftError> {
        let kind = f
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing string field `type`"))?;
        Ok(match kind {
            "size" | "size_power" => {
                let spec = f.finite_opt("spec")?;
                let target = f.finite_opt("target")?;
                if spec.is_none() && target.is_none() {
                    return Err(bad(format!("{kind} request needs `spec` or `target`")));
                }
                let return_sizes = f.bool_opt("return_sizes")?.unwrap_or(false);
                if kind == "size" {
                    Request::Size {
                        spec,
                        target,
                        return_sizes,
                    }
                } else {
                    Request::SizePower {
                        spec,
                        target,
                        return_sizes,
                    }
                }
            }
            "sweep" => {
                let specs = f.num_array("specs")?;
                if specs.iter().any(|x| !x.is_finite()) {
                    return Err(bad("field `specs` must contain only finite numbers"));
                }
                Request::Sweep { specs }
            }
            "what_if" => Request::WhatIf {
                sizes: f.num_array("sizes")?,
                spec: f.finite_opt("spec")?,
                target: f.finite_opt("target")?,
            },
            "stats" => Request::Stats,
            "load" => {
                let load = LoadRequest {
                    path: f.str_opt("path")?,
                    bench: f.str_opt("bench")?,
                    mode: f.str_opt("mode")?,
                    tech: f.str_opt("tech")?,
                    corner: f.str_opt("corner")?,
                    vt: f.str_opt("vt")?,
                    preset: f.str_opt("preset")?,
                    flow: f.str_opt("flow")?,
                    replace: f.bool_opt("replace")?.unwrap_or(false),
                    replicas: match f.num_opt("replicas")? {
                        None => None,
                        Some(n) if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= 64.0 => {
                            Some(n as usize)
                        }
                        Some(_) => {
                            return Err(bad("load field `replicas` must be an integer in 0..=64"))
                        }
                    },
                };
                if load.path.is_some() == load.bench.is_some() {
                    return Err(bad("load request takes exactly one of `path` or `bench`"));
                }
                Request::Load(load)
            }
            "unload" => Request::Unload,
            "list" => Request::List,
            "shutdown" => Request::Shutdown,
            other => return Err(bad(format!("unknown request type `{other}`"))),
        })
    }

    pub fn frame(line: &str) -> Result<RequestFrame, MftError> {
        let value = legacy_json::parse_json(line).map_err(MftError::Protocol)?;
        let obj = value
            .as_object()
            .ok_or_else(|| bad("request must be a JSON object"))?;
        let f = Fields(obj);
        let id = match f.get("id") {
            None => None,
            Some(v) => id_fragment(v)?,
        };
        let circuit = f.str_opt("circuit")?;
        let deadline_ms = f.num_opt("deadline_ms")?;
        if deadline_ms.is_some_and(|d| !d.is_finite() || d < 0.0) {
            return Err(bad("field `deadline_ms` must be a finite number ≥ 0"));
        }
        Ok(RequestFrame {
            id,
            circuit,
            deadline_ms,
            request: request(&f)?,
        })
    }

    pub fn extract_id(line: &str) -> Option<String> {
        let value = legacy_json::parse_json(line).ok()?;
        id_fragment(Fields(value.as_object()?).get("id")?)
            .ok()
            .flatten()
    }

    pub fn extract_error_code(line: &str) -> Option<String> {
        let value = legacy_json::parse_json(line).ok()?;
        let f = Fields(value.as_object()?);
        if f.get("type").and_then(Json::as_str) != Some("error") {
            return None;
        }
        f.get("code").and_then(Json::as_str).map(str::to_owned)
    }
}

/// Feeds one text to the `.bench` reader; fails with a preview of the
/// input if it panics.
fn read_bench(text: &[u8]) {
    let text = String::from_utf8_lossy(text);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _ = parse_bench("fuzz", &text);
    }));
    assert!(
        outcome.is_ok(),
        "parse_bench panicked on {}",
        preview(&text)
    );
}

fn preview(text: &str) -> String {
    let head: String = text.chars().take(300).collect();
    format!("{head:?} ({} bytes)", text.len())
}

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0..=255u8)).collect()
}

/// One random edit: flip, overwrite, insert or delete a byte, splice in
/// a token, or duplicate a slice.
fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>, tokens: &[&str]) {
    if bytes.is_empty() {
        bytes.push(rng.gen_range(0..=255u8));
        return;
    }
    let at = rng.gen_range(0..bytes.len());
    match rng.gen_range(0..6) {
        0 => bytes[at] ^= 1u8 << rng.gen_range(0..8u32),
        1 => bytes[at] = rng.gen_range(0..=255u8),
        2 => bytes.insert(at, rng.gen_range(0..=255u8)),
        3 => {
            bytes.remove(at);
        }
        4 => {
            let token = tokens[rng.gen_range(0..tokens.len())];
            bytes.splice(at..at, token.bytes());
        }
        _ => {
            let end = rng.gen_range(at..bytes.len()) + 1;
            let slice = bytes[at..end].to_vec();
            bytes.splice(at..at, slice);
        }
    }
}

/// Every line of `docs/PROTOCOL.md` that is a JSON object example.
fn doc_examples() -> Vec<String> {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/PROTOCOL.md"))
        .expect("docs/PROTOCOL.md must exist");
    doc.lines()
        .filter(|line| line.starts_with("{\""))
        .map(str::to_owned)
        .collect()
}

const JSON_TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\ud83d",
    "-",
    "1e999",
    "0.",
    "null",
    "true",
    "\"type\"",
    "\"size\"",
    "\"spec\"",
    "\"id\"",
    "\"circuit\"",
    "é",
    "\u{0}",
];

#[test]
fn random_bytes_never_panic_the_json_readers() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    for _ in 0..3000 {
        let len = rng.gen_range(0..200);
        read_line(&random_bytes(&mut rng, len));
    }
    // Random draws from the JSON alphabet reach deeper into the reader
    // than uniform bytes do.
    for _ in 0..3000 {
        let mut line = Vec::new();
        for _ in 0..rng.gen_range(1..40) {
            line.extend_from_slice(JSON_TOKENS[rng.gen_range(0..JSON_TOKENS.len())].as_bytes());
        }
        read_line(&line);
    }
}

#[test]
fn truncated_and_mutated_doc_examples_never_panic_the_json_readers() {
    let examples = doc_examples();
    assert!(
        examples.len() >= 20,
        "only {} JSON examples found in docs/PROTOCOL.md",
        examples.len()
    );
    let parsed = examples
        .iter()
        .filter(|line| RequestFrame::from_json_line(line).is_ok())
        .count();
    assert!(parsed >= 10, "only {parsed} doc examples parse as requests");
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    for example in &examples {
        let bytes = example.as_bytes();
        for cut in 0..=bytes.len() {
            read_line(&bytes[..cut]);
        }
        for _ in 0..300 {
            let mut line = bytes.to_vec();
            for _ in 0..rng.gen_range(1..6) {
                mutate(&mut rng, &mut line, JSON_TOKENS);
            }
            read_line(&line);
        }
    }
}

#[test]
fn nesting_up_to_max_line_bytes_never_panics_the_json_readers() {
    let max = ServerConfig::default().max_line_bytes;
    // A small stack: the readers' stack use must not grow with depth.
    std::thread::Builder::new()
        .stack_size(512 << 10)
        .spawn(move || {
            let mut rng = StdRng::seed_from_u64(0x5eed_0003);
            for depth in [1, 2, 63, 64, 65, 1000, max / 8, max] {
                read_line("[".repeat(depth).as_bytes());
                read_line("{\"a\":".repeat(depth / 5).as_bytes());
                let closed = format!("{}{}", "[".repeat(depth / 2), "]".repeat(depth / 2));
                read_line(closed.as_bytes());
                let request = format!("{{\"type\":\"sweep\",\"specs\":{closed}}}");
                read_line(request.as_bytes());
            }
            // Random interleavings of openers, closers and scalars.
            for _ in 0..20 {
                let len = rng.gen_range(1..max);
                let mut line = Vec::with_capacity(len + 8);
                while line.len() < len {
                    let token: &[u8] = match rng.gen_range(0..8) {
                        0..=3 => b"[",
                        4 => b"{\"k\":",
                        5 => b"]",
                        6 => b"}",
                        _ => b"1,",
                    };
                    line.extend_from_slice(token);
                }
                read_line(&line);
            }
        })
        .unwrap()
        .join()
        .unwrap();
}

/// Number spellings, well-formed, lax (`01`, `1.`, `-.5`), non-finite
/// (`1e400`), underflowing, malformed, and non-numbers in number slots.
const NUMBER_TOKENS: &[&str] = &[
    "0",
    "-0",
    "1",
    "01",
    "1.",
    "-.5",
    ".5",
    "00.0",
    "2.5e-3",
    "1E+5",
    "1e400",
    "-1e400",
    "1e-400",
    "4.9e-324",
    "1.7976931348623157e308",
    "123456789012345678901234567890",
    "1e",
    "--1",
    "1-2",
    "+1",
    "-",
    "1.2.3",
    "null",
    "true",
    "\"a\"",
    "[]",
    "[1,2]",
    "{}",
    "",
];

/// One array of numbers: mostly printed doubles, some tokens, random
/// spacing, sometimes nested (`depth` more levels at most), mixed or
/// with a trailing comma.
fn number_array(rng: &mut StdRng, depth: usize) -> String {
    let mut line = String::from("[");
    for i in 0..rng.gen_range(0..40) {
        if i > 0 {
            line.push_str([",", ", ", " ,", ",\n"][rng.gen_range(0..4usize)]);
        }
        match rng.gen_range(0..10) {
            0..=5 => line.push_str(&format!("{}", rng.gen_range(-2.0..20.0))),
            6 => line.push_str(&format!("{:e}", rng.gen_range(0.0..1e6))),
            7 if depth > 0 => line.push_str(&number_array(rng, depth - 1)),
            _ => line.push_str(NUMBER_TOKENS[rng.gen_range(0..NUMBER_TOKENS.len())]),
        }
    }
    if rng.gen_range(0..8) == 0 {
        line.push(',');
    }
    line.push(']');
    line
}

#[test]
fn number_array_lines_decode_like_the_tree_oracle() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0006);
    let token = |rng: &mut StdRng| NUMBER_TOKENS[rng.gen_range(0..NUMBER_TOKENS.len())];
    for _ in 0..4000 {
        let line = match rng.gen_range(0..6) {
            0 => format!(
                "{{\"type\":\"what_if\",\"sizes\":{},\"spec\":{}}}",
                number_array(&mut rng, 2),
                token(&mut rng)
            ),
            1 => format!(
                "{{\"type\":\"sweep\",\"specs\":{}}}",
                number_array(&mut rng, 2)
            ),
            2 => format!(
                "{{\"type\":\"size\",\"spec\":{},\"target\":{}}}",
                token(&mut rng),
                token(&mut rng)
            ),
            3 => format!(
                "{{\"type\":\"size_power\",\"target\":{},\"return_sizes\":true}}",
                token(&mut rng)
            ),
            4 => format!(
                "{{\"id\":{},\"type\":\"stats\",\"deadline_ms\":{}}}",
                token(&mut rng),
                token(&mut rng)
            ),
            _ => format!(
                "{{\"type\":\"load\",\"bench\":\"x\",\"replicas\":{},\"x\":{}}}",
                token(&mut rng),
                number_array(&mut rng, 2)
            ),
        };
        read_line(line.as_bytes());
        let mut mutated = line.into_bytes();
        for _ in 0..rng.gen_range(1..4) {
            mutate(&mut rng, &mut mutated, NUMBER_TOKENS);
        }
        read_line(&mutated);
    }
}

/// The codec's number writer (reached through `Request::to_json_line`)
/// gives `format!("{x}")`'s bytes, `null` for non-finite values, on ten
/// million doubles: random bit patterns, doubles in [1, 16), short
/// decimals, ±2 ulps around every power of two and around 10^k for
/// |k| ≤ 30, integers near 2^53, subnormals, ±0, `MIN_POSITIVE` and
/// `MAX`, each also negated.
#[test]
fn number_writer_matches_display_on_ten_million_values() {
    const CHUNK: usize = 1 << 14;
    let mut rng = StdRng::seed_from_u64(0x5eed_0007);
    let mut values: Vec<f64> = Vec::with_capacity(CHUNK);
    let mut checked = 0usize;
    let mut check = |values: &mut Vec<f64>| {
        let line = Request::Sweep {
            specs: values.clone(),
        }
        .to_json_line();
        let mut want = String::from("{\"type\":\"sweep\",\"specs\":[");
        for (i, x) in values.iter().enumerate() {
            if i > 0 {
                want.push(',');
            }
            want.push_str(&legacy_json::json_f64(*x));
        }
        want.push_str("]}");
        if line != want {
            // Split at commas, field 0 holds the type and field i + 1
            // element i.
            let (got, want): (Vec<&str>, Vec<&str>) =
                (line.split(',').collect(), want.split(',').collect());
            let first = (0..values.len())
                .find(|&i| got[i + 1] != want[i + 1])
                .expect("lines differ");
            panic!(
                "writer differs from format! on {:?} (bits {:#x}): {} vs {}",
                values[first],
                values[first].to_bits(),
                got[first + 1],
                want[first + 1]
            );
        }
        checked += values.len();
        values.clear();
    };
    let mut push = |x: f64, values: &mut Vec<f64>| {
        values.push(x);
        values.push(-x);
        if values.len() >= CHUNK {
            check(values);
        }
    };
    for x in [0.0, f64::MIN_POSITIVE, f64::MAX, f64::NAN, f64::INFINITY] {
        push(x, &mut values);
    }
    let nudge = |x: f64, d: i64| f64::from_bits((x.to_bits() as i64 + d) as u64);
    for k in -1074..=1023 {
        let p = 2.0f64.powi(k);
        for d in -2..=2 {
            push(nudge(p, d), &mut values);
        }
    }
    for k in -30..=30 {
        let p: f64 = format!("1e{k}").parse().unwrap();
        for d in -2..=2 {
            push(nudge(p, d), &mut values);
        }
    }
    let two53 = 2.0f64.powi(53);
    for i in 0..5000 {
        push(two53 - i as f64, &mut values);
        push(two53 + 2.0 * i as f64, &mut values);
    }
    for _ in 0..1_300_000 {
        // Random bits (NaN and ∞ patterns included), a double drawn
        // from [1, 16) bit-uniformly within each binade, a short
        // decimal, and either a subnormal or a double whose binary
        // exponent lies near −120, where the fast path ends.
        push(f64::from_bits(rng.next_u64()), &mut values);
        let binade = (1023 + rng.gen_range(0..4u64)) << 52;
        push(f64::from_bits(binade | (rng.next_u64() >> 12)), &mut values);
        let digits = rng.gen_range(0..10_000_000u64) as f64;
        push(digits / 10f64.powi(rng.gen_range(0..12i32)), &mut values);
        let biased = if rng.gen_bool(0.5) {
            0
        } else {
            rng.gen_range(945..965u64) << 52
        };
        push(f64::from_bits(biased | (rng.next_u64() >> 12)), &mut values);
    }
    check(&mut values);
    assert!(checked >= 10_000_000, "only {checked} values checked");
}

const BENCH_TOKENS: &[&str] = &[
    "\n",
    "(",
    ")",
    ",",
    "=",
    "#",
    " ",
    "INPUT(",
    "OUTPUT(",
    "NAND(",
    "NOR(",
    "NOT(",
    "AND(",
    "XOR(",
    "BUFF(",
    "DFF(",
    "G1",
    "G22",
    "= NAND(G1, G1)\n",
    "\u{feff}",
    "é",
];

#[test]
fn mutated_bench_text_never_panics_the_bench_reader() {
    let tiny = "INPUT(a)\nOUTPUT(y)\ny = NAND(a, a)\n";
    let mut rng = StdRng::seed_from_u64(0x5eed_0004);
    for seed_text in [C17_BENCH, tiny] {
        assert!(parse_bench("fuzz", seed_text).is_ok());
        let bytes = seed_text.as_bytes();
        for cut in 0..=bytes.len() {
            read_bench(&bytes[..cut]);
        }
        for _ in 0..3000 {
            let mut text = bytes.to_vec();
            for _ in 0..rng.gen_range(1..8) {
                mutate(&mut rng, &mut text, BENCH_TOKENS);
            }
            read_bench(&text);
        }
    }
    for _ in 0..1000 {
        let len = rng.gen_range(0..300);
        read_bench(&random_bytes(&mut rng, len));
    }
    for _ in 0..2000 {
        let mut text = Vec::new();
        for _ in 0..rng.gen_range(1..60) {
            text.extend_from_slice(BENCH_TOKENS[rng.gen_range(0..BENCH_TOKENS.len())].as_bytes());
        }
        read_bench(&text);
    }
}

/// A chain of `gates` inverters written outputs-first, so every
/// definition names a signal defined on a later line.
fn reversed_chain(gates: usize) -> String {
    let mut text = format!("INPUT(n0)\nOUTPUT(n{gates})\n");
    for k in (1..=gates).rev() {
        text.push_str(&format!("n{k} = NOT(n{})\n", k - 1));
    }
    text
}

/// The `.bench` reader is linear in out-of-order definitions: a
/// reversed 40k-gate chain (one 1 MiB `load` line's worth) parses in
/// bounded time, with its gates in chain order.
#[test]
fn reversed_40k_chain_parses_in_bounded_time() {
    let text = reversed_chain(40_000);
    let start = Instant::now();
    let netlist = parse_bench("chain", &text).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(netlist.num_gates(), 40_000);
    assert!(
        elapsed < Duration::from_secs(5),
        "reversed 40k chain took {elapsed:?}"
    );
    // The last line defines n1, the first gate of the chain.
    let first = netlist.gates().next().unwrap();
    assert_eq!(netlist.net(first.output()).name(), Some("n1"));
}

/// The historical reader, kept as the oracle of gate creation order:
/// resolve every definition whose arguments are known, in file order,
/// pass after pass until quiescent. Knows the cells `write_bench`
/// emits.
fn quiescent_parse(text: &str) -> Netlist {
    let mut b = NetlistBuilder::new("oracle");
    let mut signal: HashMap<String, NetId> = HashMap::new();
    let mut outputs = Vec::new();
    let mut remaining = Vec::new();
    for line in text.lines().map(str::trim) {
        if let Some(name) = line.strip_prefix("INPUT(") {
            let name = name.trim_end_matches(')');
            signal.insert(name.to_owned(), b.input(name));
        } else if let Some(name) = line.strip_prefix("OUTPUT(") {
            outputs.push(name.trim_end_matches(')').to_owned());
        } else if let Some((out, rhs)) = line.split_once(" = ") {
            let (cell, args) = rhs.trim_end_matches(')').split_once('(').unwrap();
            let args: Vec<String> = args.split(", ").map(str::to_owned).collect();
            remaining.push((out.to_owned(), cell.to_owned(), args));
        }
    }
    while !remaining.is_empty() {
        let before = remaining.len();
        let mut next = Vec::new();
        for (out, cell, args) in remaining {
            let Some(nets) = args
                .iter()
                .map(|a| signal.get(a).copied())
                .collect::<Option<Vec<NetId>>>()
            else {
                next.push((out, cell, args));
                continue;
            };
            let kind = match cell.as_str() {
                "NOT" => GateKind::Inv,
                "BUFF" => GateKind::Buf,
                "NAND" => GateKind::nand(nets.len()).unwrap(),
                "NOR" => GateKind::nor(nets.len()).unwrap(),
                "AND" => GateKind::and(nets.len()).unwrap(),
                "OR" => GateKind::or(nets.len()).unwrap(),
                "XOR" => GateKind::Xor2,
                "XNOR" => GateKind::Xnor2,
                other => panic!("oracle: unexpected cell {other}"),
            };
            let net = b.named_gate(kind, &nets, Some(out.clone())).unwrap();
            signal.insert(out, net);
        }
        assert!(next.len() < before, "oracle: unresolvable text");
        remaining = next;
    }
    for output in outputs {
        b.output(signal[&output], output);
    }
    b.finish().unwrap()
}

/// Shuffled definitions of a c432-like netlist get exactly the gate
/// ids of the historical pass-by-pass reader: same gate per id, same
/// `write_bench` bytes.
#[test]
fn shuffled_definitions_match_the_quiescent_reader() {
    let text = write_bench(&Benchmark::C432.generate().unwrap()).unwrap();
    let (header, defs): (Vec<&str>, Vec<&str>) = text
        .lines()
        .partition(|l| l.starts_with("INPUT(") || l.starts_with("OUTPUT("));
    let mut rng = StdRng::seed_from_u64(0x5eed_0005);
    for round in 0..6 {
        let mut defs = defs.clone();
        // Round 0 keeps the written (topological) order.
        for i in (1..defs.len()).rev().filter(|_| round > 0) {
            defs.swap(i, rng.gen_range(0..=i));
        }
        let shuffled = format!("{}\n{}\n", header.join("\n"), defs.join("\n"));
        let got = parse_bench("oracle", &shuffled).unwrap();
        let want = quiescent_parse(&shuffled);
        assert_eq!(got.num_gates(), want.num_gates(), "round {round}");
        for (g, w) in got.gates().zip(want.gates()) {
            assert_eq!(g.kind(), w.kind(), "round {round}");
            assert_eq!(
                got.net(g.output()).name(),
                want.net(w.output()).name(),
                "round {round}"
            );
        }
        assert_eq!(
            write_bench(&got).unwrap(),
            write_bench(&want).unwrap(),
            "round {round}"
        );
    }
}
