//! Seeded fuzzing of the hand-rolled readers: the JSON request reader
//! (`RequestFrame::from_json_line`, plus the best-effort `extract_id` /
//! `extract_error_code` scanners) and the `.bench` netlist reader
//! (`parse_bench`) must answer `Ok` or `Err` on any input and never
//! panic.
//!
//! The vendored proptest samples only integer ranges, so the inputs are
//! built from seeded `rand` draws: random bytes, truncations and byte
//! mutations of every JSON example line in `docs/PROTOCOL.md`, array and
//! object nesting up to the server's default `max_line_bytes`, and
//! mutated `.bench` text. Two more `.bench` checks ride along: a
//! reversed 40k-gate chain must parse in bounded time, and shuffled
//! definitions must get the gate ids of the historical pass-by-pass
//! reader (kept here as the oracle).

use minflotransit::circuit::{
    parse_bench, write_bench, GateKind, NetId, Netlist, NetlistBuilder, C17_BENCH,
};
use minflotransit::core::{extract_error_code, extract_id, RequestFrame, ServerConfig};
use minflotransit::gen::Benchmark;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Feeds one line to every JSON reader; fails with a preview of the
/// input if any of them panics.
fn read_line(line: &[u8]) {
    let text = String::from_utf8_lossy(line);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _ = RequestFrame::from_json_line(&text);
        let _ = extract_id(&text);
        let _ = extract_error_code(&text);
    }));
    assert!(
        outcome.is_ok(),
        "a JSON reader panicked on {}",
        preview(&text)
    );
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
