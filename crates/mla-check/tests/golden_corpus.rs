//! Golden verdicts for the checked-in corpus: the checker's corpus
//! gate.
//!
//! The committed corpus is seeded (`mla-check gen --out corpus --seed 42
//! --count 40 --density 70 --mutate`) and bucketed by the checker's own
//! verdict at generation time, plus one planted file,
//! `invalid/serve-cross-window.hist`: a cycle that straddles a 256-step
//! window boundary. Every valid history must still pass and every
//! invalid one must still fail with its cycle witness (`--expect`); any
//! drift means the checker changed semantics.
//!
//! `golden/corpus_check.jsonl` holds, one line per file, the exact
//! stdout of `mla-check check --json <file>` for every history under
//! `corpus/valid` and `corpus/invalid`, run from the workspace root in
//! byte order of the path. A strong-mode change that moves any witness
//! order or any violation cycle shows up here as a per-file diff, not
//! only as a flipped verdict.
//!
//! Regenerate (only for a deliberate output change) from the workspace
//! root with:
//!
//! ```text
//! for f in $(ls corpus/valid/*.hist corpus/invalid/*.hist | LC_ALL=C sort); do
//!   ./target/release/mla-check check --json "$f"
//! done > crates/mla-check/tests/golden/corpus_check.jsonl
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

const GOLDEN: &str = include_str!("golden/corpus_check.jsonl");

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every corpus file as a root-relative path, in byte order.
fn corpus_paths(root: &Path) -> Vec<String> {
    let mut paths = Vec::new();
    for bucket in ["valid", "invalid"] {
        for entry in std::fs::read_dir(root.join("corpus").join(bucket)).expect("read corpus dir") {
            let name = entry.expect("dir entry").file_name();
            paths.push(format!("corpus/{bucket}/{}", name.to_string_lossy()));
        }
    }
    paths.sort();
    paths
}

#[test]
fn corpus_check_output_matches_the_golden_fixture() {
    let root = workspace_root();
    let paths = corpus_paths(&root);
    let golden: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(
        paths.len(),
        golden.len(),
        "corpus has {} files but the fixture pins {}",
        paths.len(),
        golden.len()
    );
    for (path, want) in paths.iter().zip(&golden) {
        let expect = if path.starts_with("corpus/valid/") {
            "pass"
        } else {
            "fail"
        };
        let out = Command::new(env!("CARGO_BIN_EXE_mla-check"))
            .args(["check", "--json", "--expect", expect, path])
            .current_dir(&root)
            .output()
            .expect("mla-check runs");
        assert!(out.status.success(), "{path} did not {expect}: {out:?}");
        let got = String::from_utf8(out.stdout).expect("utf-8 stdout");
        assert_eq!(
            got.trim_end_matches('\n'),
            *want,
            "output drifted on {path}"
        );
    }
}
