//! A [`Control`] adapter that wraps a scheduler from outside: it stamps
//! each transaction's first decision and final commit (wall-clock commit
//! latency of a replay), counts decisions by outcome, and — when tracing
//! — times every call into the wrapped scheduler.

use std::time::Instant;

use mla_core::{EngineCounters, ParallelStats};
use mla_model::TxnId;
use mla_sim::{Control, Decision, World};
use mla_storage::StepRecord;

/// Call count and busy time of one group of calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct Busy {
    /// Calls made.
    pub calls: u64,
    /// Wall time spent inside them, nanoseconds (0 when not tracing).
    pub ns: u64,
}

impl Busy {
    /// Mean nanoseconds per call.
    pub fn mean_ns(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }
}

/// The wrapped scheduler plus what the wrapper observed.
pub struct Timed<C> {
    /// The scheduler under test.
    pub inner: C,
    trace: bool,
    first_decide: Vec<Option<Instant>>,
    committed_at: Vec<Option<Instant>>,
    /// `decide` calls.
    pub decide: Busy,
    /// `performed`, `committed` and `aborted` calls together.
    pub hooks: Busy,
    /// Decisions by outcome.
    pub grants: u64,
    /// Deferred decisions.
    pub defers: u64,
    /// Abort decisions (each may roll back several transactions).
    pub aborts: u64,
}

impl<C: Control> Timed<C> {
    /// Wraps `inner` for a run over `txns` transactions; `trace` times
    /// every call.
    pub fn new(inner: C, txns: usize, trace: bool) -> Self {
        Timed {
            inner,
            trace,
            first_decide: vec![None; txns],
            committed_at: vec![None; txns],
            decide: Busy::default(),
            hooks: Busy::default(),
            grants: 0,
            defers: 0,
            aborts: 0,
        }
    }

    /// Wall-clock microseconds from each committed transaction's first
    /// decision to its final commit.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.first_decide
            .iter()
            .zip(&self.committed_at)
            .filter_map(|(a, b)| Some(b.as_ref()?.duration_since(*a.as_ref()?)))
            .map(|d| d.as_secs_f64() * 1e6)
            .collect()
    }

    fn hook(&mut self, f: impl FnOnce(&mut C)) {
        self.hooks.calls += 1;
        if self.trace {
            let t = Instant::now();
            f(&mut self.inner);
            self.hooks.ns += t.elapsed().as_nanos() as u64;
        } else {
            f(&mut self.inner);
        }
    }
}

impl<C: Control> Control for Timed<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, txn: TxnId, world: &World) -> Decision {
        let first = &mut self.first_decide[txn.index()];
        if first.is_none() {
            *first = Some(Instant::now());
        }
        self.decide.calls += 1;
        let decision = if self.trace {
            let t = Instant::now();
            let d = self.inner.decide(txn, world);
            self.decide.ns += t.elapsed().as_nanos() as u64;
            d
        } else {
            self.inner.decide(txn, world)
        };
        match decision {
            Decision::Grant => self.grants += 1,
            Decision::Defer => self.defers += 1,
            Decision::Abort(_) => self.aborts += 1,
        }
        decision
    }

    fn performed(&mut self, record: &StepRecord, world: &World) {
        self.hook(|c| c.performed(record, world));
    }

    fn committed(&mut self, txn: TxnId, world: &World) {
        self.hook(|c| c.committed(txn, world));
        self.committed_at[txn.index()] = Some(Instant::now());
    }

    fn aborted(&mut self, txn: TxnId, world: &World) {
        self.hook(|c| c.aborted(txn, world));
        self.committed_at[txn.index()] = None;
    }

    fn decision_cost(&self) -> Option<EngineCounters> {
        self.inner.decision_cost()
    }

    fn shard_decision_cost(&self) -> Vec<EngineCounters> {
        self.inner.shard_decision_cost()
    }

    fn parallel_stats(&self) -> Option<ParallelStats> {
        self.inner.parallel_stats()
    }

    fn certified_skips(&self) -> u64 {
        self.inner.certified_skips()
    }

    fn certified_skips_per_universe(&self) -> Vec<u64> {
        self.inner.certified_skips_per_universe()
    }

    fn cert_re_arms(&self) -> u64 {
        self.inner.cert_re_arms()
    }
}
