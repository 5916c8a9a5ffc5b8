//! Black-box pins for the `mla-lint` binary (mirrors
//! `crates/mla-check/tests/cli.rs`).
//!
//! * **Snapshot pins.** The `--json` output is machine-read by the CI
//!   lint gate, and the table rendering is the human contract — both
//!   are pinned byte-for-byte against checked-in snapshots for one
//!   workload per verdict class: `partitioned` (certified), `banking`
//!   (condemned everywhere), and `mixed` (partially certified, the
//!   lattice's reason to exist). Any drift — a new diagnostic, a
//!   changed cycle witness, different universe attribution — is a
//!   deliberate format bump, re-recorded by running the binary over
//!   the snapshot paths, never an accident.
//! * **Exit statuses.** 0 on every shipped workload (none carries an
//!   `error`-severity finding — those require an ill-formed nest or
//!   breakpoint table, which only a code change can introduce; the
//!   exit-1 wiring is `Report::has_errors`, unit-pinned in
//!   `src/diag.rs`), and 2 with a usage message on an unknown target.
//!   A stdout that closes early changes none of them.

use std::process::{Command, Output, Stdio};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mla-lint"))
        .args(args)
        .output()
        .expect("mla-lint runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

#[test]
fn certified_report_matches_the_snapshot() {
    // Fully certified: MLA020 plus one MLA023 per universe, all notes.
    let out = run(&["partitioned"]);
    assert!(out.status.success(), "partitioned lint failed: {out:?}");
    assert_eq!(stdout(&out), include_str!("snapshots/partitioned.txt"));

    let out = run(&["partitioned", "--json"]);
    assert!(out.status.success());
    assert_eq!(stdout(&out), include_str!("snapshots/partitioned.json"));
}

#[test]
fn condemned_report_matches_the_snapshot() {
    // Every universe condemned: the global MLA021 witness plus one
    // MLA024 per universe naming the condemning cycle, and an empty
    // certified_universes list in the JSON.
    let out = run(&["banking"]);
    assert!(out.status.success(), "banking lint failed: {out:?}");
    assert_eq!(stdout(&out), include_str!("snapshots/banking.txt"));

    let out = run(&["banking", "--json"]);
    assert!(out.status.success());
    assert_eq!(stdout(&out), include_str!("snapshots/banking.json"));
}

#[test]
fn partially_certified_report_matches_the_snapshot() {
    // The lattice's headline: mixed renders "partially certified
    // (1/3 universes)", condemns universes 1 and 2 with their cycles,
    // and certifies universe 0.
    let out = run(&["mixed"]);
    assert!(out.status.success(), "mixed lint failed: {out:?}");
    let text = stdout(&out);
    assert_eq!(text, include_str!("snapshots/mixed.txt"));
    assert!(text.contains("partially certified (1/3 universes)"));

    let out = run(&["mixed", "--json"]);
    assert!(out.status.success());
    assert_eq!(stdout(&out), include_str!("snapshots/mixed.json"));
}

#[test]
fn all_json_is_the_gate_contract() {
    // The CI lint gate runs `mla-lint all --json`: one array holding
    // every shipped workload in canonical order, exit 0 because no
    // shipped spec carries an error-severity finding. The per-target
    // snapshots pin the bytes; here we pin the composition.
    let out = run(&["all", "--json"]);
    assert!(out.status.success(), "the lint gate would fail: {out:?}");
    let text = stdout(&out);
    for frag in [
        "[{\"workload\":\"banking(",
        "{\"workload\":\"cad(",
        "{\"workload\":\"mixed(",
        "{\"workload\":\"partitioned(",
        "\"severity\":\"warning\"",
    ] {
        assert!(text.contains(frag), "missing {frag} in: {text}");
    }
    assert!(
        !text.contains("\"severity\":\"error\""),
        "a shipped workload grew an error-severity diagnostic"
    );
    // One JSON array, not four.
    assert!(text.starts_with('[') && text.ends_with("]\n"));
}

#[test]
fn unknown_target_exits_2_with_usage() {
    let out = run(&["no-such-workload"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stdout(&out).is_empty());
    let err = String::from_utf8(out.stderr.clone()).expect("utf-8 stderr");
    assert_eq!(
        err,
        "mla-lint: unknown workload 'no-such-workload' \
         (expected banking, cad, mixed, partitioned, or all)\n"
    );
}

#[test]
fn a_closed_stdout_keeps_the_gate_exit_status() {
    for args in [&["all", "--json"][..], &["all"], &["--help"]] {
        // The reading end closes before the binary starts, so every
        // write to its stdout fails.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let status = Command::new(env!("CARGO_BIN_EXE_mla-lint"))
            .args(args)
            .stdout(writer)
            .stderr(Stdio::null())
            .status()
            .expect("mla-lint runs");
        assert_eq!(status.code(), Some(0), "{args:?}");
    }
}
