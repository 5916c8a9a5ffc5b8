//! Black-box pins for the `mla-check` binary.
//!
//! * **Corpus determinism.** `gen --seed N` is a reproducibility
//!   contract: two runs with the same seed must produce byte-identical
//!   corpora (same file names, same bucket split, same bytes), so a
//!   corpus can be regenerated from its seed instead of checked in.
//! * **Diagnostic snapshot.** `check --json` output is machine-read by
//!   CI tooling; the object shape — field names, verdict strings, the
//!   witness/cycle step encoding — and the human rendering's
//!   `t<txn>#<seq>(@<global>)` cycle naming are pinned exactly, so any
//!   drift is a deliberate format bump, not an accident.
//! * **Exit statuses.** A stdout that closes early changes no verdict,
//!   and out-of-range `gen` dimensions are usage errors (exit 2), not
//!   a crash.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mla-check"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mla-check-cli-{}-{name}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(args: &[&str], cwd: &Path) -> Output {
    bin()
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("mla-check runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

/// Every `.hist` file under `dir`, keyed by path relative to it.
fn corpus_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for bucket in ["valid", "invalid"] {
        let sub = dir.join(bucket);
        if !sub.is_dir() {
            continue;
        }
        let mut entries: Vec<_> = std::fs::read_dir(&sub)
            .expect("read bucket dir")
            .map(|e| e.expect("dir entry").path())
            .collect();
        entries.sort();
        for path in entries {
            assert_eq!(
                path.extension().and_then(|e| e.to_str()),
                Some("hist"),
                "unexpected corpus file {}",
                path.display()
            );
            let rel = format!(
                "{bucket}/{}",
                path.file_name().expect("file name").to_string_lossy()
            );
            files.insert(rel, std::fs::read(&path).expect("read corpus file"));
        }
    }
    files
}

#[test]
fn gen_corpus_is_byte_identical_across_reruns() {
    let root = scratch("gen-determinism");
    let args = |out: &str| {
        vec![
            "gen".to_string(),
            "--out".to_string(),
            out.to_string(),
            "--seed".to_string(),
            "42".to_string(),
            "--count".to_string(),
            "12".to_string(),
            "--mutate".to_string(),
        ]
    };
    for out in ["a", "b"] {
        let argv = args(out);
        let argv: Vec<&str> = argv.iter().map(|s| s.as_str()).collect();
        let run = run(&argv, &root);
        assert!(run.status.success(), "gen failed: {run:?}");
        // The summary line is part of the contract (counts are seed-
        // determined); only the directory differs.
        assert_eq!(
            stdout(&run),
            format!("wrote 5 valid + 42 invalid histories under {out}\n")
        );
    }

    let a = corpus_files(&root.join("a"));
    let b = corpus_files(&root.join("b"));
    assert!(!a.is_empty(), "corpus came out empty");
    assert!(
        a.keys().any(|p| p.starts_with("valid/")) && a.keys().any(|p| p.starts_with("invalid/")),
        "seed 42 must populate both buckets"
    );
    assert!(
        a.keys().any(|p| p.contains('-')),
        "--mutate must emit tagged mutant files"
    );
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "rerun changed the corpus file set"
    );
    for (path, bytes) in &a {
        assert_eq!(bytes, &b[path], "rerun changed the bytes of {path}");
    }

    // A different seed must actually move the corpus — otherwise the
    // comparison above is vacuous.
    let argv = [
        "gen", "--out", "c", "--seed", "43", "--count", "12", "--mutate",
    ];
    assert!(run(&argv, &root).status.success());
    let c = corpus_files(&root.join("c"));
    assert!(
        a.keys().collect::<Vec<_>>() != c.keys().collect::<Vec<_>>()
            || a.iter().any(|(p, bytes)| bytes != &c[p]),
        "seed 43 reproduced the seed-42 corpus"
    );

    std::fs::remove_dir_all(&root).expect("clean scratch dir");
}

const PASS_HIST: &str = "\
mla-history v1
nest k 2
txn t0
txn t1
step t0 0 x0 0 1
step t0 1 x0 1 2
step t1 0 x0 2 3
";

/// Two atomic (k=2) transactions weaving on one entity: the coherent
/// closure forces t0 < t1 (t1's first read) and t1 < t0 (t0's second),
/// a cycle.
const FAIL_HIST: &str = "\
mla-history v1
nest k 2
txn t0
txn t1
step t0 0 x0 0 1
step t1 0 x0 1 2
step t0 1 x0 2 3
step t1 1 x0 3 4
";

#[test]
fn check_json_diagnostics_match_the_snapshot() {
    let root = scratch("json-snapshot");
    std::fs::write(root.join("pass.hist"), PASS_HIST).expect("write fixture");
    std::fs::write(root.join("fail.hist"), FAIL_HIST).expect("write fixture");

    // Strong pass: file/mode/report envelope, pass verdict, witness as
    // {"txn","seq"} pairs. The serial history admits exactly one
    // equivalent order, so the witness is pinned too.
    let out = run(&["check", "--json", "pass.hist"], &root);
    assert!(out.status.success(), "pass fixture rejected: {out:?}");
    assert_eq!(
        stdout(&out),
        "[{\"file\":\"pass.hist\",\"mode\":\"strong\",\"report\":{\
         \"verdict\":\"pass\",\"clusters\":1,\"witness\":[\
         {\"txn\":0,\"seq\":0},{\"txn\":0,\"seq\":1},{\"txn\":1,\"seq\":0}]}}]\n"
    );

    // Strong fail: fail verdict, offending cluster, cycle steps as
    // {"txn","seq","global"} with global indexing the recorded
    // execution.
    let out = run(&["check", "--json", "--expect", "fail", "fail.hist"], &root);
    assert!(out.status.success(), "--expect fail not honored: {out:?}");
    assert_eq!(
        stdout(&out),
        "[{\"file\":\"fail.hist\",\"mode\":\"strong\",\"report\":{\
         \"verdict\":\"fail\",\"cluster\":[0,1],\"cycle\":[\
         {\"txn\":1,\"seq\":1,\"global\":3},{\"txn\":0,\"seq\":1,\"global\":2}]}}]\n"
    );

    // Weak mode keeps its distinct envelope.
    let out = run(&["check", "--json", "--weak", "pass.hist"], &root);
    assert!(out.status.success());
    assert_eq!(
        stdout(&out),
        "[{\"file\":\"pass.hist\",\"mode\":\"weak\",\"verdict\":\"pass\"}]\n"
    );

    // Human rendering: the cycle is named t<txn>#<seq>(@<global>) and
    // the overall run exits 1 when a file misses its expectation.
    let out = run(&["check", "pass.hist", "fail.hist"], &root);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        stdout(&out),
        "pass.hist: pass: witness total order over 3 steps (1 cluster)\n\
         fail.hist: FAIL: coherent-closure cycle t1#1(@3) t0#1(@2) in cluster {t0 t1}\n"
    );

    std::fs::remove_dir_all(&root).expect("clean scratch dir");
}

/// Runs `mla-check` with a stdout whose reading end is already closed,
/// so every write to it fails; returns the exit code.
fn code_with_stdout_closed(args: &[&str], cwd: &Path) -> Option<i32> {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    bin()
        .args(args)
        .current_dir(cwd)
        .stdout(writer)
        .stderr(Stdio::null())
        .status()
        .expect("mla-check runs")
        .code()
}

#[test]
fn a_closed_stdout_changes_no_exit_status() {
    let root = scratch("closed-stdout");
    std::fs::write(root.join("pass.hist"), PASS_HIST).expect("write fixture");
    std::fs::write(root.join("fail.hist"), FAIL_HIST).expect("write fixture");
    for (args, code) in [
        (&["check", "pass.hist"][..], 0),
        (&["check", "pass.hist", "fail.hist"], 1),
        (&["check", "--json", "fail.hist"], 1),
        (&["check", "--json", "--expect", "fail", "fail.hist"], 0),
        (&["gen", "--out", "corpus", "--count", "2"], 0),
        (&["--help"], 0),
    ] {
        assert_eq!(code_with_stdout_closed(args, &root), Some(code), "{args:?}");
    }
    std::fs::remove_dir_all(&root).expect("clean scratch dir");
}

#[test]
fn out_of_range_gen_dimensions_are_usage_errors() {
    let root = scratch("gen-bounds");
    for args in [
        &["gen", "--k", "1"][..],
        &["gen", "--min-len", "5", "--max-len", "2"],
        &["gen", "--min-len", "0"],
        &["gen", "--density", "101"],
    ] {
        let out = run(args, &root);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(stderr.contains("USAGE: mla-check"), "{args:?}: {stderr}");
    }
    assert!(
        !root.join("corpus").exists(),
        "a rejected gen must write nothing"
    );
    std::fs::remove_dir_all(&root).expect("clean scratch dir");
}
