//! The benchmark's own checks: quick runs emit exactly the metrics
//! `BENCHMARK.json` names, with their units and no failures; the input
//! generators are deterministic for a seed; replays repeat their counts.

use mla_cc::{MlaDetect, VictimPolicy};
use mla_perfbench::layers;
use mla_perfbench::loads;
use mla_perfbench::workloads::{self, Sizes, Which};

/// `(name, unit)` pairs of one section of `BENCHMARK.json`, in order.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    let field = |chunk: &str, key: &str| -> String {
        let at = chunk
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        chunk[at..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    body[..end]
        .split('{')
        .skip(1)
        .map(|chunk| (field(chunk, "name"), field(chunk, "unit")))
        .collect()
}

fn emitted(metrics: &[mla_perfbench::report::Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn quick_runs_emit_every_declared_metric_without_failures() {
    let mut end_to_end = declared("end_to_end");
    // The driver script adds the peak RSS, read from the process's
    // resource usage when it exits.
    end_to_end.retain(|(name, _)| name != "peak_rss_mb");
    let per_layer = declared("per_layer");
    for which in Which::ALL {
        let out = workloads::run(which, 7, 0.0, true, Sizes::QUICK);
        assert_eq!(out.failed, 0, "{}: {:?}", which.name(), out.failures);
        assert!(out.attempted > 0);
        let mut got = emitted(&out.end_to_end);
        got.sort();
        let mut want = end_to_end.clone();
        want.sort();
        assert_eq!(got, want, "{} end-to-end metrics", which.name());
        let mut got = emitted(&out.per_layer);
        got.sort();
        let mut want = per_layer.clone();
        want.sort();
        assert_eq!(got, want, "{} per-layer metrics", which.name());
        for m in &out.end_to_end {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                which.name(),
                m.name,
                m.value
            );
        }
        if which == Which::ReplayAudit {
            // Every seed of the pool is replayed at least twice, so the
            // check that counts repeat always compares something.
            let replays = 2 * Sizes::QUICK.replay_seeds;
            let seeds = format!("over {} workload seeds", Sizes::QUICK.replay_seeds);
            assert!(
                out.notes
                    .iter()
                    .any(|n| n.starts_with(&format!("{replays} replays")) && n.contains(&seeds)),
                "{:?}",
                out.notes
            );
        }
        let line = out.json(false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

fn footprints(load: &mla_serve::ServeLoad) -> Vec<Vec<u32>> {
    load.workload
        .profiles()
        .iter()
        .map(|p| p.footprint().iter().map(|e| e.0).collect())
        .collect()
}

#[test]
fn generators_are_deterministic_for_a_seed() {
    let a = loads::certified_load(8, 12, 5);
    let b = loads::certified_load(8, 12, 5);
    assert_eq!(footprints(&a), footprints(&b));
    assert_eq!(a.session_txns, b.session_txns);
    assert_ne!(
        footprints(&a),
        footprints(&loads::certified_load(8, 12, 6)),
        "the seed must vary the layout"
    );

    let r: Vec<usize> = loads::rotations(5, 16).take(32).collect();
    assert_eq!(r, loads::rotations(5, 16).take(32).collect::<Vec<_>>());
    let mut cycle = r[..16].to_vec();
    cycle.sort_unstable();
    assert_eq!(
        cycle,
        (0..16).collect::<Vec<_>>(),
        "every rotation once per cycle"
    );
    assert_eq!(
        footprints(&loads::contended_load(4, 8, 16, 8, 3)),
        footprints(&loads::contended_load(4, 8, 16, 8, 3))
    );

    let x = loads::banking(96, 9);
    let y = loads::banking(96, 9);
    assert_eq!(footprints_of(&x.workload), footprints_of(&y.workload));
    assert_eq!(x.workload.arrivals, y.workload.arrivals);
}

fn footprints_of(w: &mla_workload::Workload) -> Vec<Vec<u32>> {
    w.profiles()
        .iter()
        .map(|p| p.footprint().iter().map(|e| e.0).collect())
        .collect()
}

#[test]
fn two_replays_give_identical_counts() {
    let b = loads::banking(96, 11);
    let w = &b.workload;
    let run = || {
        layers::replay(
            w,
            MlaDetect::new(w.spec(), VictimPolicy::FewestSteps),
            11,
            false,
        )
    };
    let (p, q) = (run(), run());
    let key = |r: &layers::Replay<MlaDetect>| {
        let m = &r.outcome.metrics;
        (
            m.committed,
            m.aborts,
            m.defers,
            m.makespan,
            m.steps_performed,
            m.commit_latencies.clone(),
            r.control.grants,
            r.control.defers,
            r.control.aborts,
        )
    };
    assert_eq!(key(&p), key(&q));
    assert_eq!(p.outcome.execution.steps(), q.outcome.execution.steps());
}
