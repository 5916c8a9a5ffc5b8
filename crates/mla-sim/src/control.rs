//! The concurrency-control interface plugged into every processor.

use mla_core::{EngineCounters, ParallelStats};
use mla_model::TxnId;
use mla_storage::StepRecord;

use crate::world::World;

/// What a control tells the processor to do with an arriving step
/// request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Perform the step now.
    Grant,
    /// Hold the request; the simulator retries after a fixed delay of
    /// 8 ticks.
    Defer,
    /// Roll back the named transactions (the simulator expands the set
    /// with every transaction reached by the undo cascade), restart them
    /// after a backoff, and retry the requesting step afterwards (unless
    /// the requester itself was a victim).
    Abort(Vec<TxnId>),
}

/// A §6 concurrency control: decides step admission, observes performed
/// steps, commits, and rollbacks. One control instance serves the whole
/// simulated network (the paper's controls are described globally; a
/// distributed implementation would replicate the same state — modelling
/// that replication's cost is outside this reproduction's scope and
/// noted in DESIGN.md).
pub trait Control {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// A step request of `txn` (for `world.instance(txn).next_entity()`)
    /// has reached its entity's processor. Decide its fate.
    fn decide(&mut self, txn: TxnId, world: &World) -> Decision;

    /// `record` was just performed.
    fn performed(&mut self, record: &StepRecord, world: &World) {
        let _ = (record, world);
    }

    /// `txn` performed its last step and is now (tentatively) committed.
    fn committed(&mut self, txn: TxnId, world: &World) {
        let _ = (txn, world);
    }

    /// `txn` was rolled back (as victim or cascade member) and will
    /// restart. Its journal records are already undone.
    fn aborted(&mut self, txn: TxnId, world: &World) {
        let _ = (txn, world);
    }

    /// The control's closure decision-cost counters, if it maintains an
    /// incremental closure engine. The simulator merges the result into
    /// [`crate::Metrics::decision_cost`] at the end of the run; classical
    /// controls keep the default `None`.
    fn decision_cost(&self) -> Option<EngineCounters> {
        None
    }

    /// A placeholder: the closure engine is not sharded, so no control
    /// overrides this and the simulator never reads it. The forwarder
    /// in `perfbench/src/adapter.rs` is its only reason to exist; it
    /// goes together with that forwarder.
    fn shard_decision_cost(&self) -> Vec<EngineCounters> {
        Vec::new()
    }

    /// A placeholder: every closure backend is serial, so no control
    /// overrides this and the simulator never reads it. The forwarder
    /// in `perfbench/src/adapter.rs` is its only reason to exist; it
    /// goes together with that forwarder and [`ParallelStats`].
    fn parallel_stats(&self) -> Option<ParallelStats> {
        None
    }

    /// Decisions granted on a static-certificate fast path without
    /// consulting a closure engine (controls holding an `mla-lint`
    /// `StaticCert`). The simulator records the count in
    /// [`crate::Metrics::certified_skips`] at the end of the run;
    /// uncertified and classical controls keep the default 0.
    fn certified_skips(&self) -> u64 {
        0
    }

    /// Fast-path grants split per universe (top-level nest class), for
    /// controls holding a per-universe certificate lattice. Recorded in
    /// [`crate::Metrics::certified_skips_per_universe`]; empty for
    /// controls without a certificate.
    fn certified_skips_per_universe(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Universes re-armed after an off-footprint void once the foreign
    /// transactions blamed drained (`MlaPrevent`'s re-arm protocol).
    /// Recorded in [`crate::Metrics::cert_re_arms`].
    fn cert_re_arms(&self) -> u64 {
        0
    }
}

/// The trivial control: grants everything. Produces arbitrary
/// interleavings — the "unconstrained" extreme of §1. Useful as a
/// baseline and for exercising the simulator itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct FreeForAll;

impl Control for FreeForAll {
    fn name(&self) -> &'static str {
        "free-for-all"
    }

    fn decide(&mut self, _txn: TxnId, _world: &World) -> Decision {
        Decision::Grant
    }
}
