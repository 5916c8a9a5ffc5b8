//! Black-box pins for the `mla-serve` binary: every bad value prints the
//! usage and exits 2 before any workload is built, and a reader that
//! closes stdout early changes neither the exit status nor the dump.

use std::process::{Command, Output, Stdio};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mla-serve"))
        .args(args)
        .output()
        .expect("mla-serve runs")
}

fn assert_usage_error(args: &[&str]) {
    let out = run(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("USAGE: mla-serve"),
        "{args:?} must print the usage, got: {stderr}"
    );
}

#[test]
fn empty_or_degenerate_loads_are_usage_errors() {
    for args in [
        ["--sessions", "0"],
        ["--txns", "0"],
        ["--accounts", "1"],
        ["--accounts", "0"],
    ] {
        assert_usage_error(&args);
    }
}

/// Retired flags: the sharding knobs and the windowed-audit sampler.
#[test]
fn retired_shard_flags_are_unknown() {
    assert_usage_error(&["--shards", "4"]);
    assert_usage_error(&["--wait-shards", "4"]);
    assert_usage_error(&["--audit-window", "256"]);
}

#[test]
fn help_names_no_shard_flag() {
    let out = run(&["--help"]);
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(help.contains("--sessions"));
    for retired in ["--shards", "--wait-shards", "--audit-window"] {
        assert!(!help.contains(retired), "help still names {retired}");
    }
}

/// A closed stdout is not an error: the drain's verdict sets the exit
/// status, and the dump is written before the first report line.
#[test]
fn closed_stdout_still_dumps_and_exits_clean() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("closed-stdout.hist");
    let _ = std::fs::remove_file(&path);
    let mut child = Command::new(env!("CARGO_BIN_EXE_mla-serve"))
        .args([
            "--sessions",
            "8",
            "--txns",
            "8",
            "--accounts",
            "4",
            "--workers",
            "2",
        ])
        .arg("--dump-history")
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mla-serve runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("mla-serve exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let dump = std::fs::read_to_string(&path).expect("the dump was written");
    let history = mla_check::parse(&dump).expect("the dump parses");
    assert!(!history.exec().is_empty());
    assert!(mla_check::check(&history).passed());
}
