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
//! mutated `.bench` text.

use minflotransit::circuit::{parse_bench, C17_BENCH};
use minflotransit::core::{extract_error_code, extract_id, RequestFrame, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

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
