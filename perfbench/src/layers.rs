//! Calls into each crate's public API, timed from outside. Nothing here
//! changes the crates; every number is a wall-clock span around a public
//! call or a counter the crate already reports.

use std::collections::HashMap;
use std::time::Instant;

use mla_check::{check, communication_clusters, History, Verdict};
use mla_core::nest::Nest;
use mla_core::ClosureEngine;
use mla_model::{EntityId, Execution, Step, Value};
use mla_sim::{Control, SimConfig, SimOutcome};
use mla_storage::{LatchMode, LatchTree, MvccStore};
use mla_txn::RuntimeSpec;
use mla_workload::Workload;

use crate::adapter::Timed;

/// One timed `mla-sim` replay.
pub struct Replay<C> {
    /// The simulator's outcome (metrics, surviving execution, store).
    pub outcome: SimOutcome,
    /// The wrapped scheduler and what the wrapper observed.
    pub control: Timed<C>,
    /// Wall time of building the simulator instances, seconds.
    pub prep_s: f64,
    /// Wall time of `mla_sim::run`, seconds.
    pub wall_s: f64,
}

/// The wall-clock figures of one replay: all a run keeps of each replay
/// but its first, so the run's memory stays the program's own.
#[derive(Clone, Copy, Debug)]
pub struct ReplayTimes {
    /// Wall time of `mla_sim::run`, seconds.
    pub wall_s: f64,
    /// Mean nanoseconds per `decide` call (0 when not tracing).
    pub decide_ns: f64,
    /// Mean nanoseconds per hook call (0 when not tracing).
    pub hooks_ns: f64,
    /// Replay wall minus the time inside the wrapped scheduler, seconds.
    pub self_s: f64,
}

impl<C> Replay<C> {
    /// This replay's wall-clock figures.
    pub fn times(&self) -> ReplayTimes {
        let c = &self.control;
        ReplayTimes {
            wall_s: self.wall_s,
            decide_ns: c.decide.mean_ns(),
            hooks_ns: c.hooks.mean_ns(),
            self_s: self.wall_s - (c.decide.ns + c.hooks.ns) as f64 * 1e-9,
        }
    }
}

/// Replays `w` under `control` on the simulated clock.
pub fn replay<C: Control>(w: &Workload, control: C, seed: u64, trace: bool) -> Replay<C> {
    let started = Instant::now();
    let instances = w.instances();
    let mut control = Timed::new(control, w.txn_count(), trace);
    let config = SimConfig::seeded(seed);
    let prep_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let outcome = mla_sim::run(
        w.nest.clone(),
        instances,
        w.initial.iter().copied(),
        &w.arrivals,
        &config,
        &mut control,
    );
    let wall_s = started.elapsed().as_secs_f64();
    Replay {
        outcome,
        control,
        prep_s,
        wall_s,
    }
}

/// An `mla-check` strong-mode audit, with the communication-graph
/// decomposition timed on its own.
pub struct Audit {
    /// The verdict.
    pub passed: bool,
    /// Steps audited.
    pub steps: usize,
    /// Wall time of `mla_check::check`, seconds.
    pub check_s: f64,
    /// Wall time of `mla_check::communication_clusters` alone, seconds.
    pub decompose_s: f64,
    /// Communication clusters.
    pub clusters: usize,
    /// Steps in the largest cluster.
    pub max_cluster_steps: usize,
}

/// Captures `steps` as an `mla-check` history over `nest`/`spec`.
pub fn history(steps: Vec<Step>, nest: &Nest, spec: &RuntimeSpec) -> History {
    let exec = Execution::new(steps).expect("recorded histories are seq-contiguous");
    History::from_execution(&exec, nest, spec).expect("history matches its nest and spec")
}

/// Audits `h`, timing `check` and, separately, the decomposition.
pub fn audit(h: &History) -> Audit {
    let started = Instant::now();
    let clusters = communication_clusters(h.exec());
    let decompose_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let verdict = check(h);
    let check_s = started.elapsed().as_secs_f64();
    Audit {
        passed: matches!(verdict, Verdict::Pass { .. }),
        steps: h.exec().len(),
        check_s,
        decompose_s,
        clusters: clusters.len(),
        max_cluster_steps: clusters
            .step_indices
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0),
    }
}

/// Mean wall time per call of each `mla-storage` operation, replayed
/// over a history's (entity, ticket) stream.
pub struct StorageTimes {
    /// `MvccStore::install`, ns per call.
    pub install_ns: f64,
    /// `MvccStore::read_at`, ns per call.
    pub read_at_ns: f64,
    /// `MvccStore::gc_before`, ns per call.
    pub gc_before_ns: f64,
    /// `LatchTree::acquire_point` plus the guard's release, ns per call.
    pub latch_point_ns: f64,
    /// Reads that did not return the value just installed.
    pub bad_reads: u64,
}

/// Versions installed between two `gc_before` calls; the frontier trails
/// the newest ticket by half a batch, so every pass folds a batch.
const GC_BATCH: usize = 64;

/// Replays the (entity, ticket) stream of `steps` (ticket = position + 1,
/// the ticket order `mla-serve` installs in) through the storage layer:
/// an exclusive point latch per step, then an install; each batch of
/// [`GC_BATCH`] installs is read back at its tickets, then folded by
/// `gc_before`.
pub fn storage_drive(steps: &[Step], initial: &[(EntityId, Value)]) -> StorageTimes {
    let latches = LatchTree::new();
    let started = Instant::now();
    for s in steps {
        drop(std::hint::black_box(
            latches.acquire_point(s.entity, LatchMode::Exclusive),
        ));
    }
    let latch_ns = started.elapsed().as_nanos() as f64;

    let store = MvccStore::new(16, initial.iter().copied());
    let (mut install_ns, mut read_ns, mut gc_ns, mut gc_calls) = (0.0, 0.0, 0.0, 0u64);
    let mut bad_reads = 0;
    for (b, batch) in steps.chunks(GC_BATCH).enumerate() {
        let first = (b * GC_BATCH) as u64 + 1;
        let t = Instant::now();
        for (i, s) in batch.iter().enumerate() {
            store.install(s.entity, first + i as u64, s.txn, s.wrote);
        }
        install_ns += t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        let mut mismatches = 0u64;
        for (i, s) in batch.iter().enumerate() {
            // The newest version at or below this ticket is this step's
            // unless a later step of the batch wrote the same entity at a
            // higher ticket — read_at must still return this step's value.
            if std::hint::black_box(store.read_at(s.entity, first + i as u64)) != s.wrote {
                mismatches += 1;
            }
        }
        read_ns += t.elapsed().as_nanos() as f64;
        bad_reads += mismatches;
        let frontier = first + (batch.len() / 2) as u64;
        let t = Instant::now();
        std::hint::black_box(store.gc_before(frontier));
        gc_ns += t.elapsed().as_nanos() as f64;
        gc_calls += 1;
    }
    let n = steps.len().max(1) as f64;
    StorageTimes {
        install_ns: install_ns / n,
        read_at_ns: read_ns / n,
        gc_before_ns: gc_ns / gc_calls.max(1) as f64,
        latch_point_ns: latch_ns / n,
        bad_reads,
    }
}

/// Steps offered to the closure-engine drive. The engine keeps one
/// frontier row per step over every transaction column it has seen (no
/// window eviction outside a scheduler), so its memory grows with
/// steps × transactions; the prefix bounds it to a few MB.
pub const ENGINE_DRIVE_STEPS: usize = 2048;

/// Mean wall time of `ClosureEngine::apply_step` + `commit_step` over the
/// first [`ENGINE_DRIVE_STEPS`] steps of a correctable execution, and how
/// many offers the engine rejected (must be 0: the history passed
/// `mla-check`).
pub fn engine_drive(steps: &[Step], nest: &Nest, spec: &RuntimeSpec) -> (f64, u64) {
    let steps = &steps[..steps.len().min(ENGINE_DRIVE_STEPS)];
    let mut engine = ClosureEngine::new(nest.clone(), spec.clone());
    let mut rejected = 0;
    let started = Instant::now();
    for &s in steps {
        match engine.apply_step(s) {
            Ok(()) => engine.commit_step(),
            Err(_) => rejected += 1,
        }
    }
    let ns = started.elapsed().as_nanos() as f64 / steps.len().max(1) as f64;
    (ns, rejected)
}

/// The value each entity holds after `steps`: its last write, or its
/// initial value when no step touched it.
pub fn final_values(steps: &[Step], initial: &[(EntityId, Value)]) -> HashMap<EntityId, Value> {
    let mut values: HashMap<EntityId, Value> = initial.iter().copied().collect();
    for s in steps {
        values.insert(s.entity, s.wrote);
    }
    values
}
