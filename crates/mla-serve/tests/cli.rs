//! Black-box pins for the `mla-serve` binary's argument handling: every
//! bad value prints the usage and exits 2 before any workload is built.

use std::process::{Command, Output};

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

#[test]
fn retired_shard_flags_are_unknown() {
    assert_usage_error(&["--shards", "4"]);
    assert_usage_error(&["--wait-shards", "4"]);
}

#[test]
fn help_names_no_shard_flag() {
    let out = run(&["--help"]);
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(help.contains("--sessions"));
    assert!(!help.contains("--shards") && !help.contains("--wait-shards"));
}
