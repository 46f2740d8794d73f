//! Command-line output checks for the `mft` binary.

use minflotransit::circuit::C17_BENCH;
use std::path::PathBuf;
use std::process::Command;

fn c17_file() -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_c17.bench");
    std::fs::write(&path, C17_BENCH).unwrap();
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
