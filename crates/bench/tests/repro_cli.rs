//! `repro` rejects bad command lines before it runs anything: a typo'd
//! flag or a non-numeric `--frames` exits 1 naming the problem, and
//! `--help` prints the usage line and exits 0. None of them may start
//! a sweep.
//!
//! Each case also names the cheap `table1` section, so a parser that
//! wrongly accepted the arguments would print that table (and fail the
//! assertions) instead of running the full figure sweep.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `repro` with `args` in a fresh scratch directory, returning its
/// output and the directory (where a run would drop `BENCH_repro.json`).
fn repro(case: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("repro_cli_{case}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .env_remove("PIMGFX_THREADS")
        .output()
        .expect("spawn repro");
    (out, dir)
}

fn assert_no_sweep(out: &Output, dir: &std::path::Path) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("[repro] precomputed"),
        "a sweep started:\n{stderr}"
    );
    assert!(!stdout.contains("Table I"), "a section ran:\n{stdout}");
    assert!(
        !dir.join("BENCH_repro.json").exists(),
        "a run manifest was written"
    );
}

#[test]
fn unknown_flag_is_rejected() {
    let (out, dir) = repro("bogus", &["--bogus", "table1"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--bogus`"), "{stderr}");
    assert_no_sweep(&out, &dir);
}

#[test]
fn non_numeric_frames_is_rejected() {
    let (out, dir) = repro("frames", &["--frames", "x", "table1"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`--frames` expects a count"), "{stderr}");
    assert_no_sweep(&out, &dir);
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let (out, dir) = repro("help", &["--help", "table1"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("usage: repro"), "{stdout}");
    assert_no_sweep(&out, &dir);
}
