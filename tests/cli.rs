//! Command-line output checks for the `mft` binary.

use minflotransit::circuit::{parse_bench, write_bench, SizingMode, C17_BENCH};
use minflotransit::core::{SessionConfig, SizingProblem};
use minflotransit::gen::Benchmark;
use minflotransit::tech::TechLibrary;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn c17_file() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("cli_c17.bench");
    // Write, then rename over the shared path: the tests run in parallel
    // and read this file while others rewrite it, so no reader may see
    // it truncated.
    let tmp = dir.join(format!("cli_c17.{:?}.tmp", std::thread::current().id()));
    std::fs::write(&tmp, C17_BENCH).unwrap();
    std::fs::rename(&tmp, &path).unwrap();
    path
}

/// `mft size` prints the timing-engine line exactly once, with or
/// without `--report` (the report carries it) and for both objectives.
#[test]
fn size_prints_the_timing_engine_line_once() {
    let bench = c17_file();
    for extra in [
        &[][..],
        &["--report"][..],
        &["--objective", "power"][..],
        &["--objective", "power", "--report"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mft"))
            .arg("size")
            .arg(&bench)
            .args(["--spec", "0.7"])
            .args(extra)
            .output()
            .unwrap();
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(out.status.success(), "{extra:?}: {stdout}");
        assert_eq!(
            stdout.matches("timing engine:").count(),
            1,
            "{extra:?}:\n{stdout}"
        );
    }
}

/// `mft size --sizes` writes, bit for bit, the sizes of a request on
/// a new in-process session over the same file: `size_to` for the area
/// objective, `size_to_power` for `--objective power` and `tilos_to`
/// for `--tilos-only`.
#[test]
fn size_writes_the_sizes_of_a_cold_session() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let c432 = dir.join("cli_c432.bench");
    let c432_text = write_bench(&Benchmark::C432.generate().unwrap()).unwrap();
    std::fs::write(&c432, c432_text).unwrap();
    let corner = TechLibrary::standard().resolve(None, None).unwrap();
    for bench in [c17_file(), c432] {
        let text = std::fs::read_to_string(&bench).unwrap();
        let netlist = parse_bench(bench.to_str().unwrap(), &text).unwrap();
        let problem = SizingProblem::prepare_corner(&netlist, &corner, SizingMode::Gate).unwrap();
        let target = 0.7 * problem.dmin();
        let fresh = || problem.session(SessionConfig::warm());
        let cases: [(&[&str], Vec<f64>); 3] = [
            (&[], fresh().size_to(target).unwrap().sizes),
            (
                &["--objective", "power"],
                fresh().size_to_power(target).unwrap().solution.sizes,
            ),
            (&["--tilos-only"], fresh().tilos_to(target).unwrap().sizes),
        ];
        for (extra, want) in cases {
            let sizes_file = dir.join("cli_sizes.csv");
            let out = Command::new(env!("CARGO_BIN_EXE_mft"))
                .arg("size")
                .arg(&bench)
                .args(["--spec", "0.7", "--sizes"])
                .arg(&sizes_file)
                .args(extra)
                .output()
                .unwrap();
            let what = format!("{} {extra:?}", bench.display());
            assert!(
                out.status.success(),
                "{what}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let csv = std::fs::read_to_string(&sizes_file).unwrap();
            let got: Vec<f64> = csv
                .lines()
                .skip(1)
                .map(|line| line.split_once(',').unwrap().1.parse().unwrap())
                .collect();
            assert_eq!(got.len(), want.len(), "{what}");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{what}: size[{i}]");
            }
        }
    }
}

/// `mft serve` on stdin answers a line nested far past the JSON
/// reader's depth bound (200 KB of `[`) with an error, serves the next
/// request, and exits 0 at EOF.
#[test]
fn serve_answers_a_deeply_nested_line_and_keeps_serving() {
    let bench = c17_file();
    let mut child = Command::new(env!("CARGO_BIN_EXE_mft"))
        .arg("serve")
        .arg(&bench)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let input = format!("{}\n{{\"type\":\"stats\"}}\n", "[".repeat(200_000));
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(
        lines[0].starts_with("{\"type\":\"error\"") && lines[0].contains("nesting deeper"),
        "{}",
        lines[0]
    );
    assert!(lines[1].starts_with("{\"type\":\"stats\""), "{}", lines[1]);
}

/// `--corner 65nm` on the command line and `"corner":"65nm"` on a
/// `load` answer a size request with the same bytes, and the default
/// corner with other bytes. The removed `tech` alias is refused: a
/// `load` that still carries it answers an error naming `corner`
/// instead of loading the default corner.
#[test]
fn corner_flag_matches_the_load_corner_and_tech_is_refused() {
    let bench = c17_file();
    let path = bench.display().to_string();
    assert!(!path.contains(['"', '\\']), "{path}");
    let size =
        |circuit: &str| format!("{{\"type\":\"size\",\"circuit\":\"{circuit}\",\"spec\":0.7}}");
    let load = |circuit: &str, field: &str| {
        format!("{{\"type\":\"load\",\"circuit\":\"{circuit}\",\"path\":\"{path}\"{field}}}")
    };
    let input = [
        size("cli_c17"),
        load("named", ",\"corner\":\"65nm\""),
        size("named"),
        load("default", ""),
        size("default"),
        load("stale", ",\"tech\":\"65nm\""),
    ]
    .join("\n");
    let mut child = Command::new(env!("CARGO_BIN_EXE_mft"))
        .arg("serve")
        .arg(&bench)
        .args(["--corner", "65nm"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(format!("{input}\n").as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 6, "{stdout}");
    assert!(lines[0].starts_with("{\"type\":\"size\""), "{}", lines[0]);
    for i in [1, 3] {
        assert!(lines[i].starts_with("{\"type\":\"loaded\""), "{}", lines[i]);
    }
    assert_eq!(lines[2], lines[0], "--corner 65nm vs load corner 65nm");
    assert_ne!(lines[4], lines[0], "65nm vs the default corner");
    assert!(
        lines[5].starts_with("{\"type\":\"error\"") && lines[5].contains("`corner`"),
        "{}",
        lines[5]
    );
}

/// Each command rejects a flag it does not read, naming it, before any
/// output: neither a typo (`spce` for `spec`), the removed `tech` alias
/// of `corner`, nor the removed `cold` switch may size at the defaults.
#[test]
fn unknown_flags_are_rejected() {
    let bench = c17_file();
    for (command, name, rest) in [
        ("size", "spce", &["0.4", "--tilos-only"][..]),
        ("size", "tech", &["65"][..]),
        ("sweep", "tech", &["65"][..]),
        ("serve", "tech", &["65"][..]),
        ("sweep", "cold", &[][..]),
        ("serve", "cold", &[][..]),
    ] {
        let flag = format!("--{name}");
        let out = Command::new(env!("CARGO_BIN_EXE_mft"))
            .arg(command)
            .arg(&bench)
            .arg(&flag)
            .args(rest)
            .stdin(Stdio::null())
            .output()
            .unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{command} {flag}");
        assert!(out.stdout.is_empty(), "{command} {flag}: output");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{command} {flag}: {stderr}"
        );
    }
}

/// Every command but `serve` takes at most one positional: a second
/// one fails with exit 1 before any output, and the error names it.
#[test]
fn extra_positionals_are_rejected() {
    let bench = c17_file();
    let bench = bench.to_str().unwrap();
    for args in [
        &["size", bench, "extra.bench", "--spec", "0.7"][..],
        &["report", bench, "extra.bench"][..],
        &["sweep", bench, "--specs", "0.9", "extra.bench"][..],
        &["generate", "c17", "extra.bench"][..],
        &["list", "extra.bench"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mft"))
            .args(args)
            .stdin(Stdio::null())
            .output()
            .unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: output");
        assert!(
            stderr.contains(&format!(
                "unexpected argument `extra.bench` for `mft {}`",
                args[0]
            )),
            "{args:?}: {stderr}"
        );
    }
}

/// A reader that closes stdout early (`mft size ... | head -1`) stops
/// the command quietly: no panic, no exit code 101.
#[test]
fn size_stops_quietly_when_stdout_closes() {
    let bench = c17_file();
    let mut child = Command::new(env!("CARGO_BIN_EXE_mft"))
        .arg("size")
        .arg(&bench)
        .args(["--spec", "0.7", "--report"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}

/// `simplex` is the only flow backend, so `mft size` takes no `--flow`:
/// the flag fails as unknown with exit 1 before any output, whatever
/// backend it names.
#[test]
fn size_rejects_removed_flow_backends() {
    let bench = c17_file();
    for name in [
        "simplex",
        "ssp",
        "simplex-first",
        "simplex-block",
        "dual-simplex",
        "dual",
        "reference",
        "auto",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mft"))
            .arg("size")
            .arg(&bench)
            .args(["--spec", "0.7", "--flow", name])
            .output()
            .unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{name}");
        assert!(
            out.stdout.is_empty(),
            "{name}: sizing output before the error"
        );
        assert!(
            stderr.contains("unknown flag `--flow` for `mft size`"),
            "{name}: {stderr}"
        );
    }
}

/// `--spec`, `--target` and `--specs` refuse NaN and ±inf, as the wire
/// protocol refuses them: exit 1 with an error naming the flag, before
/// any output.
#[test]
fn size_and_sweep_reject_non_finite_targets() {
    let bench = c17_file();
    for (command, flag, value) in [
        ("size", "--spec", "nan"),
        ("size", "--spec", "inf"),
        ("size", "--target", "NaN"),
        ("size", "--target", "-inf"),
        ("sweep", "--specs", "0.9,nan"),
        ("sweep", "--specs", "1e400,0.7"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mft"))
            .arg(command)
            .arg(&bench)
            .args([flag, value])
            .output()
            .unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{command} {flag} {value}");
        assert!(
            out.stdout.is_empty(),
            "{command} {flag} {value}: output before the error"
        );
        assert!(
            stderr.contains(&format!("`{flag}` must be a finite number")),
            "{command} {flag} {value}: {stderr}"
        );
    }
}

/// A finite spec whose target `spec · D_min` overflows fails like a
/// non-finite one: exit 1, no output, an error naming the flag (or the
/// sweep's entry). It used to size to an infinite target (`size`) or
/// fail inside the D-phase flow solve (`sweep`).
#[test]
fn size_and_sweep_reject_overflowing_specs() {
    let bench = c17_file();
    for (command, flag, value, named) in [
        ("size", "--spec", "1e308", "`--spec` = 1e308 overflows"),
        ("size", "--spec", "-1e308", "`--spec` = -1e308 overflows"),
        (
            "sweep",
            "--specs",
            "0.9,1e308",
            "`specs[1]` = 1e308 overflows",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mft"))
            .arg(command)
            .arg(&bench)
            .args([flag, value])
            .output()
            .unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{command} {flag} {value}");
        assert!(
            out.stdout.is_empty(),
            "{command} {flag} {value}: output before the error"
        );
        assert!(
            stderr.contains(named) && !stderr.contains("panicked"),
            "{command} {flag} {value}: {stderr}"
        );
    }
}

/// `mft serve` applies the wire's rules to its flags: `--deadline-ms`
/// must be finite and ≥ 0 (a negative value used to panic the
/// connection thread), and `--replicas` at most 64. A bad value exits 1
/// before serving anything, without a panic.
#[test]
fn serve_rejects_out_of_range_deadline_and_replicas() {
    let bench = c17_file();
    for (flag, value, message) in [
        (
            "--deadline-ms",
            "-1",
            "`--deadline-ms` must be a finite number ≥ 0",
        ),
        (
            "--deadline-ms",
            "NaN",
            "`--deadline-ms` must be a finite number ≥ 0",
        ),
        (
            "--deadline-ms",
            "inf",
            "`--deadline-ms` must be a finite number ≥ 0",
        ),
        (
            "--replicas",
            "65",
            "`--replicas` must be an integer in 0..=64",
        ),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mft"))
            .arg("serve")
            .arg(&bench)
            .args([flag, value])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // The process may exit before reading its input: ignore EPIPE.
        let _ = child
            .stdin
            .take()
            .unwrap()
            .write_all(b"{\"type\":\"size\",\"spec\":0.9}\n");
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{flag} {value}: output before the error"
        );
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
        assert!(stderr.contains(message), "{flag} {value}: {stderr}");
    }
}

/// `mft sweep` gives the same curve with one worker and with
/// `--jobs 2`: per row, the spec, both area ratios, the saving and the
/// iteration count agree (the other columns are timings and work
/// counters), unreachable rows included. Bad input exits 1 before any
/// output.
#[test]
fn sweep_outputs_agree_across_jobs() {
    let bench = c17_file();
    let sweep = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_mft"))
            .arg("sweep")
            .arg(&bench)
            .args(extra)
            .output()
            .unwrap()
    };
    let curve = |extra: &[&str]| -> Vec<String> {
        let out = sweep(&[&["--specs", "0.9,0.7,0.5,0.05"][..], extra].concat());
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(out.status.success(), "{extra:?}: {stdout}");
        let rows: Vec<String> = stdout
            .lines()
            .skip(2)
            .filter(|l| !l.is_empty())
            .map(|row| {
                if row.contains("unreachable") {
                    return row.to_owned();
                }
                let cols: Vec<&str> = row.split_whitespace().collect();
                [0, 1, 2, 4, 7].map(|i| cols[i]).join(" ")
            })
            .collect();
        assert_eq!(rows.len(), 4, "{extra:?}:\n{stdout}");
        assert!(rows[3].contains("unreachable by TILOS"), "{extra:?}");
        rows
    };
    assert_eq!(curve(&["--jobs", "2"]), curve(&[]));
    for bad in [
        &["--specs", "0.9,fast"][..],
        &["--jobs", "many"][..],
        &["--flow", "ssp"][..],
        &["--mode", "analog"][..],
    ] {
        let out = sweep(bad);
        assert_eq!(out.status.code(), Some(1), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?}: output before the error");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_mft"))
        .args(["sweep", "no-such-file.bench"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
}

/// The README quickstart's `console` block is real output: each `$ mft`
/// command, re-run in a scratch directory, prints the block's lines
/// under it as its first lines.
#[test]
fn readme_quickstart_block_matches_real_output() {
    let readme =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap();
    let marker = "Size a circuit to 60 % of its minimum-sized delay:";
    let after = &readme[readme.find(marker).expect("quickstart marker") + marker.len()..];
    let body = after
        .split("```console\n")
        .nth(1)
        .and_then(|rest| rest.split("\n```").next())
        .expect("console block");
    // (command argv, expected leading output lines)
    let mut steps: Vec<(Vec<&str>, Vec<&str>)> = Vec::new();
    for line in body.lines() {
        if let Some(cmd) = line.strip_prefix("$ ./target/release/mft ") {
            steps.push((cmd.split_whitespace().collect(), Vec::new()));
        } else {
            steps
                .last_mut()
                .expect("block opens with a command")
                .1
                .push(line);
        }
    }
    assert_eq!(steps.len(), 2, "generate + size");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("readme_quickstart");
    std::fs::create_dir_all(&dir).unwrap();
    for (argv, want) in steps {
        let out = Command::new(env!("CARGO_BIN_EXE_mft"))
            .args(&argv)
            .current_dir(&dir)
            .output()
            .unwrap();
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(out.status.success(), "{argv:?}: {stdout}");
        let got: Vec<&str> = stdout.lines().take(want.len()).collect();
        assert_eq!(got, want, "README output of `mft {}`", argv.join(" "));
    }
}
