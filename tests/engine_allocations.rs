//! Allocation budget of the closure engine's decision path: replaying
//! the `replay_audit` banking shape under `MlaDetect`, the heap
//! allocations made inside `Control::decide` and the scheduler hooks
//! stay at or below two per applied engine step. Appends extend each
//! breakpoint description in place, and rollback, removal, eviction and
//! Pearce–Kelly reordering reuse buffers the engine owns, so what is
//! left is amortised growth plus the per-abort witness and victim list.
//!
//! Release builds only: debug builds re-describe every transaction on
//! every append to check the in-place extension, which allocates.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use multilevel_atomicity::cc::{MlaDetect, VictimPolicy};
use multilevel_atomicity::core::EngineCounters;
use multilevel_atomicity::model::TxnId;
use multilevel_atomicity::sim::{run, Control, Decision, SimConfig, World};
use multilevel_atomicity::storage::StepRecord;

/// Counts allocations (fresh, zeroed and resized) made by a thread while
/// its `COUNTING` flag is set; otherwise the system allocator, untouched.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn tally() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the wrapper only bumps an atomic counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's allocations counted.
fn counted<R>(f: impl FnOnce() -> R) -> R {
    COUNTING.set(true);
    let r = f();
    COUNTING.set(false);
    r
}

/// Forwards to the wrapped control, counting the allocations its
/// decision and hooks make.
struct Counted<C>(C);

impl<C: Control> Control for Counted<C> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn decide(&mut self, txn: TxnId, world: &World) -> Decision {
        counted(|| self.0.decide(txn, world))
    }

    fn performed(&mut self, record: &StepRecord, world: &World) {
        counted(|| self.0.performed(record, world));
    }

    fn committed(&mut self, txn: TxnId, world: &World) {
        counted(|| self.0.committed(txn, world));
    }

    fn aborted(&mut self, txn: TxnId, world: &World) {
        counted(|| self.0.aborted(txn, world));
    }

    fn decision_cost(&self) -> Option<EngineCounters> {
        self.0.decision_cost()
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn decide_allocates_at_most_two_per_applied_step() {
    let (mut allocs, mut applied) = (0u64, 0u64);
    for seed in 1..=4 {
        let banking = common::replay_audit_banking(512, seed);
        let w = &banking.workload;
        let mut control = Counted(MlaDetect::new(w.spec(), VictimPolicy::FewestSteps));
        ALLOCS.store(0, Ordering::Relaxed);
        let out = run(
            w.nest.clone(),
            w.instances(),
            w.initial.iter().copied(),
            &w.arrivals,
            &SimConfig::seeded(seed),
            &mut control,
        );
        assert!(!out.metrics.timed_out, "seed {seed}: timed out");
        allocs += ALLOCS.load(Ordering::Relaxed);
        applied += control.0.core().cost().steps_applied;
    }
    let per_step = allocs as f64 / applied as f64;
    println!("{allocs} allocations over {applied} applied steps: {per_step:.2} per step");
    assert!(
        per_step <= 2.0,
        "{per_step:.2} allocations per applied engine step (budget 2)"
    );
}
