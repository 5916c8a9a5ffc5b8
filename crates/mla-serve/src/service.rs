//! The transaction service: OS threads racing through MVCC storage with
//! a §6 scheduler gating every step's admission.
//!
//! # Architecture
//!
//! ```text
//!  worker 0 ──┐                      ┌── GC thread (epoch frontier)
//!  worker 1 ──┤   ┌─────────────┐    │
//!    ...      ├──▶│ Gate (mutex) │◀──┴── snapshot readers (pins)
//!  worker W ──┘   │  scheduler   │
//!      │          │  slots       │          ┌───────────┐
//!      └─ latch ─▶│  history     │─ install▶│ MvccStore │
//!                 └─────────────┘           └───────────┘
//! ```
//!
//! * Each **worker** (thread-per-core front-end) owns the sessions with
//!   `session % workers == worker`, round-robinning one step attempt per
//!   session per pass, plus the shared retry queue of cascade-undone
//!   transactions.
//! * A step attempt first takes the **entity latch** (exclusive, FIFO),
//!   then the **gate** — a single mutex holding the scheduler, the
//!   per-transaction slots, and the live ticket-ordered history. The
//!   scheduler decides through [`AdmissionView`]; a grant assigns the
//!   next global ticket and installs the version *before* the gate is
//!   released, so per-entity tickets are monotone (the latch serializes
//!   same-entity attempts, the gate serializes ticket draws).
//! * An **abort** rolls back the victims plus every transaction with a
//!   version installed above a victim's version — the cascading-undo
//!   closure, version-chain edition. Cascade-undone transactions whose
//!   sessions already moved on (they had tentatively committed — the §6
//!   commit hazard) go to the retry queue.
//! * The **GC thread** folds versions below
//!   `min(first ticket of any running transaction, reader pins)` — below
//!   that, no snapshot read and no undo can ever look.
//! * **Snapshot readers** pin a ticket and verify the snapshot there is
//!   stable while GC runs underneath them.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mla_cc::{AdmissionView, Decision, MlaDetect, MlaPrevent};
use mla_core::nest::Nest;
use mla_model::{EntityId, Step, TxnId, Value};
use mla_storage::{EpochRegistry, LatchMode, LatchTree, MvccStore};
use mla_txn::{TxnInstance, TxnProfile};

use crate::workload::ServeLoad;

/// Which §6 scheduler gates admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedKind {
    /// Optimistic: closure-cycle detection with rollback.
    Detect,
    /// Pessimistic: step delay at breakpoints plus waits-for deadlock
    /// resolution.
    Prevent,
}

/// The scheduler behind the gate. Both variants expose the same
/// `*_view` admission surface; [`MlaDetect`] has no commit bookkeeping.
pub enum Sched {
    /// [`MlaDetect`] (§6 detection).
    Detect(MlaDetect),
    /// [`MlaPrevent`] (§6 prevention).
    Prevent(MlaPrevent),
}

impl Sched {
    fn decide<V: AdmissionView + ?Sized>(&mut self, t: TxnId, view: &V) -> Decision {
        match self {
            Sched::Detect(s) => s.decide_view(t, view),
            Sched::Prevent(s) => s.decide_view(t, view),
        }
    }

    fn performed(&mut self, step: &Step) {
        match self {
            Sched::Detect(s) => s.performed_view(step),
            Sched::Prevent(s) => s.performed_view(step),
        }
    }

    fn committed(&mut self, t: TxnId) {
        match self {
            Sched::Detect(_) => {}
            Sched::Prevent(s) => s.committed_view(t),
        }
    }

    fn aborted(&mut self, t: TxnId) {
        match self {
            Sched::Detect(s) => s.aborted_view(t),
            Sched::Prevent(s) => s.aborted_view(t),
        }
    }

    fn certified_skips(&self) -> u64 {
        match self {
            Sched::Detect(s) => s.certified_skips(),
            Sched::Prevent(s) => s.certified_skips(),
        }
    }

    fn certified_skips_per_universe(&self) -> Vec<u64> {
        match self {
            Sched::Detect(s) => s.certified_skips_per_universe(),
            Sched::Prevent(s) => s.certified_skips_per_universe(),
        }
    }

    fn cert_re_arms(&self) -> u64 {
        match self {
            Sched::Detect(_) => 0,
            Sched::Prevent(s) => s.cert_re_arms(),
        }
    }
}

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Which scheduler gates admission.
    pub sched: SchedKind,
    /// Worker threads (thread-per-core front-end; sessions are dealt
    /// round-robin across them).
    pub workers: usize,
    /// A placeholder that must stay 0: the closure engine is not
    /// sharded. `perfbench/src/workloads.rs` reads it; that is its only
    /// reason to exist.
    pub shards: usize,
    /// A placeholder that must stay 1: the waits-for graph is not
    /// partitioned. `perfbench/src/workloads.rs` reads it; that is its
    /// only reason to exist.
    pub wait_shards: usize,
    /// Attach the workload's static certificate (when it earns one) so
    /// grants ride the certified fast path.
    pub certified: bool,
    /// MVCC lock shards.
    pub store_shards: usize,
    /// Concurrent snapshot-stability reader threads.
    pub snapshot_readers: usize,
    /// GC cadence; `None` disables the GC thread.
    pub gc_interval: Option<Duration>,
    /// Abandon the run after this long (a liveness backstop for tests;
    /// the report marks the timeout).
    pub deadline: Duration,
    /// Force-abort one running transaction when no commit lands for this
    /// long. Sessions execute their streams in order, so a deferred
    /// transaction can transitively wait on one whose *session* is stuck
    /// behind another deferred transaction — a cross-session deadlock the
    /// scheduler's transaction-level waits-for graph cannot see. The
    /// stall breaker is the classic timeout answer.
    pub stall_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            sched: SchedKind::Prevent,
            workers: 4,
            shards: 0,
            wait_shards: 1,
            certified: false,
            store_shards: 16,
            snapshot_readers: 2,
            gc_interval: Some(Duration::from_millis(1)),
            deadline: Duration::from_secs(60),
            stall_timeout: Duration::from_millis(250),
        }
    }
}

/// Lifecycle of a transaction slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlotState {
    /// Not yet attempted (or rolled back, awaiting restart).
    Idle,
    /// Mid-program: holds an instance with performed steps.
    Running,
    /// All steps performed. Still undoable by a cascade until the run
    /// drains (the §6 commit hazard); final once nothing is running.
    Committed,
}

/// Per-transaction state behind the gate.
struct Slot {
    instance: Option<TxnInstance>,
    /// Installed versions of the current incarnation, in ticket order.
    records: Vec<(EntityId, u64)>,
    /// Ticket of the incarnation's first installed version.
    first_ticket: Option<u64>,
    state: SlotState,
    /// Committed and provably beyond the reach of any future cascade
    /// (GC's sealing pass); undo records are dropped at that point.
    sealed: bool,
    /// First attempt of the first incarnation (latency measurement).
    started: Option<Instant>,
    restarts: u32,
}

impl Slot {
    fn new() -> Self {
        Slot {
            instance: None,
            records: Vec::new(),
            first_ticket: None,
            state: SlotState::Idle,
            sealed: false,
            started: None,
            restarts: 0,
        }
    }
}

/// Everything the single gate mutex protects.
struct Gate {
    nest: Nest,
    sched: Sched,
    slots: Vec<Slot>,
    /// Live history in ticket order: steps of running and
    /// tentatively-committed transactions (undone steps are retained out).
    history: Vec<Step>,
    /// Next global admission ticket (starts at 1; fresh MVCC chains have
    /// head ticket 0).
    next_ticket: u64,
    /// Transactions undone after tentatively committing, awaiting re-run.
    retries: VecDeque<TxnId>,
    /// Transactions currently in [`SlotState::Committed`] (net of
    /// cascade undo; equals the final commit count on a clean drain).
    commits: u64,
    aborts: u64,
    cascade_undone_commits: u64,
    defers: u64,
    /// Bumped once per cascade (snapshot readers use it to tell GC
    /// instability from abort instability).
    undo_epoch: u64,
    /// When the last commit landed (the stall breaker's clock).
    last_commit: Instant,
    /// Cross-session deadlocks broken by the stall watchdog.
    stall_breaks: u64,
    latencies_us: Vec<u64>,
}

/// The scheduler's read-only view of the gate: disjoint borrows so
/// `sched` stays mutably borrowed while the view reads slots and
/// history.
struct GateView<'a> {
    nest: &'a Nest,
    slots: &'a [Slot],
    history: &'a [Step],
}

impl AdmissionView for GateView<'_> {
    fn nest(&self) -> &Nest {
        self.nest
    }

    fn is_committed(&self, t: TxnId) -> bool {
        self.slots[t.index()].state == SlotState::Committed
    }

    fn is_finished(&self, t: TxnId) -> bool {
        self.slots[t.index()]
            .instance
            .as_ref()
            .is_some_and(TxnInstance::is_finished)
    }

    fn performed_seq(&self, t: TxnId) -> u32 {
        self.slots[t.index()]
            .instance
            .as_ref()
            .map_or(0, TxnInstance::seq)
    }

    fn at_breakpoint(&self, t: TxnId, level: usize) -> bool {
        // An idle transaction sits before its first step — a breakpoint
        // of every level.
        self.slots[t.index()]
            .instance
            .as_ref()
            .is_none_or(|i| i.at_breakpoint(level))
    }

    fn candidate(&self, t: TxnId) -> Step {
        let inst = self.slots[t.index()]
            .instance
            .as_ref()
            .expect("candidate of a transaction without a live instance");
        Step {
            txn: t,
            seq: inst.seq(),
            entity: inst.next_entity().expect("candidate for a live step"),
            observed: 0,
            wrote: 0,
        }
    }

    fn history_steps(&self) -> Vec<Step> {
        self.history.to_vec()
    }
}

/// Outcome of one step attempt (worker scheduling feedback).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Attempt {
    /// Step performed; transaction still has more.
    Progressed,
    /// Step performed and it was the last: tentatively committed.
    Committed,
    /// Scheduler said wait; retry later.
    Deferred,
    /// The transaction was rolled back (as requester-victim or by a
    /// concurrent cascade); it restarts from scratch.
    Aborted,
    /// Already committed (a stale retry-queue entry).
    Done,
}

/// Run summary.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Workload label.
    pub load: String,
    /// Scheduler label (`mla-detect` / `mla-prevent`).
    pub sched: String,
    /// Worker threads.
    pub workers: usize,
    /// Client sessions.
    pub sessions: usize,
    /// Transactions committed (== workload size on a clean drain).
    pub committed: u64,
    /// Rollbacks (scheduler victims plus cascade).
    pub aborts: u64,
    /// Tentative commits undone by a later cascade (§6 commit hazard).
    pub commit_hazards: u64,
    /// Deferred step attempts.
    pub defers: u64,
    /// Wall-clock of the drain.
    pub wall: Duration,
    /// Wall-clock of static certification (zero when not requested).
    pub cert_wall: Duration,
    /// Whether a static certificate was attached.
    pub certified: bool,
    /// Admissions granted on the certificate fast path.
    pub certified_skips: u64,
    /// The same fast-path grants split per universe of the certificate
    /// lattice (empty without a certificate).
    pub certified_skips_per_universe: Vec<u64>,
    /// Universes re-armed after an off-footprint void (`MlaPrevent`
    /// only).
    pub cert_re_arms: u64,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Commit latency percentiles, microseconds (first attempt → final
    /// commit).
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Latch acquisitions and waits.
    pub latch_acquisitions: u64,
    /// Latch acquisitions that blocked.
    pub latch_waits: u64,
    /// Versions folded by epoch GC.
    pub gc_folded: u64,
    /// GC passes run.
    pub gc_passes: u64,
    /// Snapshot-stability checks performed.
    pub snapshot_checks: u64,
    /// Snapshot-stability violations (must be 0).
    pub snapshot_violations: u64,
    /// Cross-session deadlocks broken by the stall watchdog.
    pub stall_breaks: u64,
    /// Live (unfolded) versions left at drain.
    pub live_versions: usize,
    /// Whether the drain finished before the deadline.
    pub clean: bool,
    /// The final ticket-ordered committed history (oracle audits).
    pub history: Vec<Step>,
}

impl ServeReport {
    /// One human-readable summary block.
    pub fn render(&self) -> String {
        format!(
            "{load} via {sched} — {workers} workers, {sessions} sessions\n\
             committed   {committed} txns in {wall:.3?} ({tp:.0} txn/s){dirty}\n\
             latency     p50 {p50} µs, p95 {p95} µs, p99 {p99} µs\n\
             conflicts   {aborts} rollbacks ({hazards} undone commits), {defers} defers, \
             {stalls} stall breaks\n\
             latches     {lacq} acquisitions, {lw} blocked\n\
             gc          {folded} versions folded in {passes} passes, {live} live at drain\n\
             snapshots   {checks} checks, {viol} violations\n\
             certificate {skips} fast-path grants{per}, {rearms} re-arms",
            load = self.load,
            sched = self.sched,
            workers = self.workers,
            sessions = self.sessions,
            committed = self.committed,
            wall = self.wall,
            tp = self.throughput,
            dirty = if self.clean { "" } else { "  [DEADLINE HIT]" },
            p50 = self.p50_us,
            p95 = self.p95_us,
            p99 = self.p99_us,
            aborts = self.aborts,
            hazards = self.commit_hazards,
            defers = self.defers,
            stalls = self.stall_breaks,
            lacq = self.latch_acquisitions,
            lw = self.latch_waits,
            folded = self.gc_folded,
            passes = self.gc_passes,
            live = self.live_versions,
            checks = self.snapshot_checks,
            viol = self.snapshot_violations,
            skips = self.certified_skips,
            per = if self.certified_skips_per_universe.is_empty() {
                String::new()
            } else {
                format!(
                    " (per universe: {})",
                    self.certified_skips_per_universe
                        .iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join("/")
                )
            },
            rearms = self.cert_re_arms,
        )
    }
}

/// The shared service state all threads operate on.
struct Service {
    gate: Mutex<Gate>,
    latches: LatchTree,
    mvcc: MvccStore,
    epochs: EpochRegistry,
    profiles: Vec<TxnProfile>,
    /// Set once every transaction has committed (or the deadline hit).
    shutdown: AtomicBool,
    gc_folded: AtomicU64,
    gc_passes: AtomicU64,
    snapshot_checks: AtomicU64,
    snapshot_violations: AtomicU64,
}

impl Service {
    /// One admission attempt for transaction `t`: latch its next entity,
    /// consult the scheduler under the gate, and on a grant install the
    /// version at a fresh ticket.
    fn step_once(&self, t: TxnId) -> Attempt {
        // Phase 1 (gate): materialize the incarnation and find the next
        // entity.
        let entity = {
            let mut g = self.gate.lock().expect("gate poisoned");
            let slot = &mut g.slots[t.index()];
            match slot.state {
                SlotState::Committed => return Attempt::Done,
                SlotState::Idle => {
                    slot.instance = Some(self.profiles[t.index()].instantiate());
                    slot.state = SlotState::Running;
                    slot.started.get_or_insert_with(Instant::now);
                }
                SlotState::Running => {}
            }
            let inst = slot.instance.as_ref().expect("running slot has instance");
            inst.next_entity().expect("running slot has a next step")
        };

        // Phase 2: exclusive entity latch — serializes same-entity
        // admission so ticket order is per-entity monotone. Taken
        // *outside* the gate: latch waits must not block the gate.
        let _latch = self.latches.acquire_point(entity, LatchMode::Exclusive);

        // Phase 3 (gate): decide and, on grant, ticket + install.
        let mut g = self.gate.lock().expect("gate poisoned");
        {
            // Revalidate: a cascade may have rolled `t` back while we
            // waited on the latch.
            let slot = &g.slots[t.index()];
            if slot.state != SlotState::Running
                || slot.instance.as_ref().and_then(TxnInstance::next_entity) != Some(entity)
            {
                return Attempt::Aborted;
            }
        }
        // Decide loop: an Abort decision rolls its victims back and
        // *immediately* re-decides under the same gate lock. Dropping the
        // gate between the cascade and the retry is a livelock — the
        // restarted victim's session re-admits its steps first (it polls
        // tightly) and the next decide names the same victim again. The
        // gate is held, so nothing can re-enter between cascade and
        // re-decide; each iteration either grants, defers, kills the
        // requester, or strictly shrinks the set of live victim records,
        // so the loop is bounded by the slot count.
        for _round in 0..=g.slots.len() {
            let decision = {
                let Gate {
                    sched,
                    nest,
                    slots,
                    history,
                    ..
                } = &mut *g;
                let view = GateView {
                    nest,
                    slots,
                    history,
                };
                sched.decide(t, &view)
            };
            match decision {
                Decision::Grant => {
                    let ticket = g.next_ticket;
                    g.next_ticket += 1;
                    let observed = self.mvcc.latest(entity).1;
                    let slot = &mut g.slots[t.index()];
                    let step = slot
                        .instance
                        .as_mut()
                        .expect("revalidated above")
                        .perform(observed);
                    debug_assert_eq!(step.entity, entity);
                    self.mvcc.install(entity, ticket, t, step.wrote);
                    slot.records.push((entity, ticket));
                    slot.first_ticket.get_or_insert(ticket);
                    let finished = slot
                        .instance
                        .as_ref()
                        .expect("just performed")
                        .is_finished();
                    g.history.push(step);
                    g.sched.performed(&step);
                    return if finished {
                        let slot = &mut g.slots[t.index()];
                        slot.state = SlotState::Committed;
                        let latency = slot
                            .started
                            .expect("started at first attempt")
                            .elapsed()
                            .as_micros() as u64;
                        g.sched.committed(t);
                        g.commits += 1;
                        g.last_commit = Instant::now();
                        g.latencies_us.push(latency);
                        Attempt::Committed
                    } else {
                        Attempt::Progressed
                    };
                }
                Decision::Defer => {
                    g.defers += 1;
                    return Attempt::Deferred;
                }
                Decision::Abort(victims) => {
                    if self.cascade_abort(&mut g, &victims, t) {
                        return Attempt::Aborted;
                    }
                    // Victims are gone and the gate never dropped:
                    // re-decide now, before their sessions can re-admit.
                }
            }
        }
        // The scheduler kept naming fresh victims past the bound —
        // treat as a defer and let the session re-poll.
        g.defers += 1;
        Attempt::Deferred
    }

    /// Rolls back `victims` plus the full undo cascade: any transaction
    /// holding a version above a rolled-back version must roll back too
    /// (it read through that version). Removal runs in descending global
    /// ticket order, so every removal is a chain-head pop. Returns
    /// whether `requester` was rolled back.
    fn cascade_abort(&self, g: &mut Gate, victims: &[TxnId], requester: TxnId) -> bool {
        let mut doomed: Vec<bool> = vec![false; g.slots.len()];
        let mut frontier: Vec<TxnId> = Vec::new();
        for &v in victims {
            // A sealed transaction's versions are folded into the chain
            // base: its commit is permanent and there is nothing left to
            // undo. The scheduler may still name it (its steps can sit in
            // the live window past GC's floor), but it cannot be a victim.
            if g.slots[v.index()].sealed {
                continue;
            }
            if !doomed[v.index()] {
                doomed[v.index()] = true;
                frontier.push(v);
            }
        }
        // Every named victim was sealed: break the cycle from the other
        // end by rolling back the requester, which is running and
        // therefore always undoable.
        if frontier.is_empty() {
            doomed[requester.index()] = true;
            frontier.push(requester);
        }
        // Fixpoint over "has a version above a doomed version".
        while let Some(v) = frontier.pop() {
            for &(e, ticket) in &g.slots[v.index()].records {
                for (i, slot) in g.slots.iter().enumerate() {
                    if doomed[i] {
                        continue;
                    }
                    if slot.records.iter().any(|&(oe, ot)| oe == e && ot > ticket) {
                        doomed[i] = true;
                        frontier.push(TxnId(i as u32));
                    }
                }
            }
        }
        // Undo every doomed version, newest first across all entities.
        let mut removals: Vec<(EntityId, u64)> = Vec::new();
        for (i, slot) in g.slots.iter().enumerate() {
            if doomed[i] {
                removals.extend_from_slice(&slot.records);
            }
        }
        removals.sort_unstable_by_key(|r| std::cmp::Reverse(r.1));
        for (e, ticket) in removals {
            self.mvcc.remove(e, ticket);
        }
        g.history.retain(|s| !doomed[s.txn.index()]);
        g.undo_epoch += 1;
        // Reset the doomed slots; tentatively-committed victims re-run
        // via the retry queue (their sessions have moved on).
        for (i, d) in doomed.iter().enumerate() {
            if !*d {
                continue;
            }
            let t = TxnId(i as u32);
            let was_committed = g.slots[i].state == SlotState::Committed;
            if was_committed {
                g.commits -= 1;
                g.cascade_undone_commits += 1;
                g.retries.push_back(t);
            }
            let slot = &mut g.slots[i];
            slot.instance = None;
            slot.records.clear();
            slot.first_ticket = None;
            slot.state = SlotState::Idle;
            slot.restarts += 1;
            g.aborts += 1;
            g.sched.aborted(t);
        }
        doomed[requester.index()]
    }

    /// One epoch-GC pass: fold versions no snapshot and no undo can
    /// reach. The frontier is computed under the gate (serializing with
    /// reader pins, which are also taken under the gate); the fold runs
    /// outside it.
    ///
    /// Taint analysis for the undo floor: doom roots at versions of
    /// running transactions, climbs same-entity chains upward in ticket
    /// order, and jumps to *all* versions of any transaction it reaches —
    /// including low-ticket versions on other entities (the §6 commit
    /// hazard, version-chain edition). So the floor starts at the
    /// smallest running first ticket and drags down through every
    /// committed transaction straddling it, to a fixpoint. A committed
    /// transaction wholly below the final floor can never be reached by a
    /// future cascade *climb* (new doom roots only appear at higher
    /// tickets), so it is **sealed**: its undo records drop and versions
    /// below the floor become foldable. The one remaining reach — the
    /// scheduler naming it as an explicit victim while its steps still
    /// sit in the live window — is closed on the other side:
    /// [`cascade_abort`](Service::cascade_abort) refuses sealed victims.
    fn gc_pass(&self) {
        let frontier = {
            let mut g = self.gate.lock().expect("gate poisoned");
            let mut floor = g
                .slots
                .iter()
                .filter(|s| s.state == SlotState::Running)
                .filter_map(|s| s.first_ticket)
                .min()
                .unwrap_or(g.next_ticket);
            loop {
                let mut changed = false;
                for s in &g.slots {
                    if s.state != SlotState::Committed || s.sealed {
                        continue;
                    }
                    if let (Some(first), Some(&(_, last))) = (s.first_ticket, s.records.last()) {
                        if last >= floor && first < floor {
                            floor = first;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            for s in &mut g.slots {
                if s.state == SlotState::Committed
                    && !s.sealed
                    && s.records.last().is_none_or(|&(_, last)| last < floor)
                {
                    s.sealed = true;
                    s.records = Vec::new();
                    s.first_ticket = None;
                }
            }
            self.epochs.frontier(floor)
        };
        let folded = self.mvcc.gc_before(frontier);
        self.gc_folded.fetch_add(folded as u64, Ordering::Relaxed);
        self.gc_passes.fetch_add(1, Ordering::Relaxed);
    }

    /// The stall breaker: when no commit has landed for `timeout`,
    /// force-abort the running transaction with the fewest installed
    /// versions (cheapest undo). Sessions run their streams in order, so
    /// deferred transactions can deadlock *through* sessions in a way the
    /// scheduler's transaction-level waits-for graph cannot observe; one
    /// forced rollback restarts the cheapest participant and the rest
    /// drain.
    fn break_stall(&self, timeout: Duration) {
        let mut g = self.gate.lock().expect("gate poisoned");
        if g.last_commit.elapsed() < timeout {
            return;
        }
        let victim = g
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state == SlotState::Running)
            .min_by_key(|(_, s)| s.records.len())
            .map(|(i, _)| TxnId(i as u32));
        if std::env::var_os("MLA_SERVE_DEBUG_STALL").is_some() {
            let g = &mut *g;
            let mut lines = Vec::new();
            for (i, slot) in g.slots.iter().enumerate() {
                if slot.state == SlotState::Committed && slot.restarts == 0 {
                    continue;
                }
                lines.push(format!(
                    "  t{i}: {:?} seq={:?} records={:?} restarts={} sealed={}",
                    slot.state,
                    slot.instance.as_ref().map(TxnInstance::seq),
                    slot.records,
                    slot.restarts,
                    slot.sealed,
                ));
            }
            let running: Vec<usize> = g
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.state == SlotState::Running)
                .map(|(i, _)| i)
                .collect();
            let mut decisions: Vec<String> = Vec::new();
            for i in running {
                let Gate {
                    sched,
                    nest,
                    slots,
                    history,
                    ..
                } = &mut *g;
                let view = GateView {
                    nest,
                    slots,
                    history,
                };
                decisions.push(format!(
                    "  t{i} -> {:?}",
                    sched.decide(TxnId(i as u32), &view)
                ));
            }
            eprintln!(
                "STALL @ commits={} retries={:?}\n{}\ndecisions:\n{}",
                g.commits,
                g.retries,
                lines.join("\n"),
                decisions.join("\n")
            );
        }
        if let Some(v) = victim {
            self.cascade_abort(&mut g, &[v], v);
            g.stall_breaks += 1;
        }
        // Restart the clock either way: one stall, one break.
        g.last_commit = Instant::now();
    }

    /// One snapshot-stability probe: pin a ticket, read every entity at
    /// it twice with GC running in between, and require identical values
    /// unless an undo cascade intervened (uncommitted data is visible by
    /// design, so aborts legitimately change history — GC never may).
    fn snapshot_probe(&self, entities: &[EntityId]) {
        let (pin, epoch_before) = {
            let g = self.gate.lock().expect("gate poisoned");
            // Always exact: every fold keeps `base_ticket < frontier ≤
            // next_ticket`, so the newest already-drawn ticket reads
            // correctly no matter how much GC has folded — and strictly
            // below `next_ticket`, no later install can land at it.
            let t = g.next_ticket - 1;
            (self.epochs.pin(t), g.undo_epoch)
        };
        let at = pin.ticket();
        let first: Vec<Value> = entities.iter().map(|&e| self.mvcc.read_at(e, at)).collect();
        std::thread::yield_now();
        let second: Vec<Value> = entities.iter().map(|&e| self.mvcc.read_at(e, at)).collect();
        let epoch_after = self.gate.lock().expect("gate poisoned").undo_epoch;
        drop(pin);
        self.snapshot_checks.fetch_add(1, Ordering::Relaxed);
        if epoch_before == epoch_after && first != second {
            self.snapshot_violations.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Worker main loop: drain the retry queue first, then round-robin this
/// worker's sessions, one step attempt each.
fn worker_loop(service: &Service, sessions: &[Vec<TxnId>], total_txns: u64) {
    // Per-session cursor into its transaction stream, plus a backoff
    // horizon: a session whose transaction was rolled back sits out for
    // an exponentially growing interval, so abort storms drain instead
    // of re-colliding at full speed.
    let mut cursor: Vec<usize> = vec![0; sessions.len()];
    let mut resume_at: Vec<Option<Instant>> = vec![None; sessions.len()];
    let mut strikes: Vec<u32> = vec![0; sessions.len()];
    while !service.shutdown.load(Ordering::Acquire) {
        let mut progressed = false;

        // Cascade-undone commits first: their sessions already moved on.
        let retry = service
            .gate
            .lock()
            .expect("gate poisoned")
            .retries
            .pop_front();
        if let Some(t) = retry {
            match service.step_once(t) {
                Attempt::Committed | Attempt::Done => {}
                // Not finished: requeue so any worker can keep driving it.
                _ => service
                    .gate
                    .lock()
                    .expect("gate poisoned")
                    .retries
                    .push_back(t),
            }
            progressed = true;
        }

        for (s, stream) in sessions.iter().enumerate() {
            // Skip transactions that already committed (possibly driven
            // by the retry queue).
            while cursor[s] < stream.len() {
                let t = stream[cursor[s]];
                let committed = {
                    let g = service.gate.lock().expect("gate poisoned");
                    g.slots[t.index()].state == SlotState::Committed
                };
                if committed {
                    cursor[s] += 1;
                } else {
                    break;
                }
            }
            if cursor[s] >= stream.len() {
                continue;
            }
            if resume_at[s].is_some_and(|at| Instant::now() < at) {
                continue;
            }
            resume_at[s] = None;
            progressed = true;
            let t = stream[cursor[s]];
            match service.step_once(t) {
                Attempt::Committed => {
                    cursor[s] += 1;
                    strikes[s] = 0;
                    let g = service.gate.lock().expect("gate poisoned");
                    if g.commits == total_txns && g.retries.is_empty() {
                        drop(g);
                        service.shutdown.store(true, Ordering::Release);
                        return;
                    }
                }
                Attempt::Progressed | Attempt::Done => strikes[s] = 0,
                Attempt::Deferred | Attempt::Aborted => {
                    strikes[s] = (strikes[s] + 1).min(7);
                    let backoff = Duration::from_micros(50 << strikes[s]);
                    resume_at[s] = Some(Instant::now() + backoff);
                }
            }
        }

        if !progressed {
            // All own sessions drained: stay alive for retry-queue work
            // until the drain completes, and close the shutdown race
            // where the final commit lands on another worker's retry
            // drive.
            let g = service.gate.lock().expect("gate poisoned");
            if g.commits == total_txns && g.retries.is_empty() {
                drop(g);
                service.shutdown.store(true, Ordering::Release);
                return;
            }
            drop(g);
            std::thread::yield_now();
        }
    }
}

/// Runs `load` to completion under `config` and reports.
///
/// Panics if `config.shards` or `config.wait_shards` is not at its
/// default.
pub fn run(load: &ServeLoad, config: &ServeConfig) -> ServeReport {
    assert!(
        config.shards == 0 && config.wait_shards == 1,
        "shards and wait_shards are placeholders: keep them at 0 and 1"
    );
    let workload = &load.workload;
    let txn_count = workload.txn_count();
    let sessions = load.session_txns.len();
    let workers = config.workers.max(1).min(sessions.max(1));
    let spec = workload.spec();
    let nest = workload.nest.clone();

    let cert_started = Instant::now();
    let cert = if config.certified {
        load.certify()
    } else {
        None
    };
    let cert_wall = cert_started.elapsed();
    let certified = cert.is_some();
    let sched = match config.sched {
        SchedKind::Detect => {
            let mut s = MlaDetect::new(spec, mla_cc::VictimPolicy::FewestSteps);
            if let Some(c) = cert.clone() {
                s = s.with_static_cert(c);
            }
            Sched::Detect(s)
        }
        SchedKind::Prevent => {
            let mut s = MlaPrevent::new(txn_count, spec, mla_cc::VictimPolicy::FewestSteps);
            if let Some(c) = cert.clone() {
                s = s.with_static_cert(c);
            }
            Sched::Prevent(s)
        }
    };
    let sched_name = match config.sched {
        SchedKind::Detect => "mla-detect",
        SchedKind::Prevent => "mla-prevent",
    };

    let service = Service {
        gate: Mutex::new(Gate {
            nest,
            sched,
            slots: (0..txn_count).map(|_| Slot::new()).collect(),
            history: Vec::new(),
            next_ticket: 1,
            retries: VecDeque::new(),
            commits: 0,
            aborts: 0,
            cascade_undone_commits: 0,
            defers: 0,
            undo_epoch: 0,
            last_commit: Instant::now(),
            stall_breaks: 0,
            latencies_us: Vec::with_capacity(txn_count),
        }),
        latches: LatchTree::new(),
        mvcc: MvccStore::new(config.store_shards, workload.initial.iter().copied()),
        epochs: EpochRegistry::new(config.snapshot_readers + 2),
        profiles: workload.profiles(),
        shutdown: AtomicBool::new(false),
        gc_folded: AtomicU64::new(0),
        gc_passes: AtomicU64::new(0),
        snapshot_checks: AtomicU64::new(0),
        snapshot_violations: AtomicU64::new(0),
    };

    // The entity universe (snapshot probes scan it).
    let mut entities: Vec<EntityId> = service
        .profiles
        .iter()
        .flat_map(|p| p.footprint().iter().copied())
        .chain(workload.initial.iter().map(|&(e, _)| e))
        .collect();
    entities.sort_unstable_by_key(|e| e.0);
    entities.dedup();

    let started = Instant::now();
    let deadline = config.deadline;
    let clean = std::thread::scope(|scope| {
        for w in 0..workers {
            let service = &service;
            let session_slice: Vec<Vec<TxnId>> = load
                .session_txns
                .iter()
                .enumerate()
                .filter(|(s, _)| s % workers == w)
                .map(|(_, v)| v.clone())
                .collect();
            scope.spawn(move || worker_loop(service, &session_slice, txn_count as u64));
        }
        if let Some(interval) = config.gc_interval {
            let service = &service;
            scope.spawn(move || {
                while !service.shutdown.load(Ordering::Acquire) {
                    service.gc_pass();
                    std::thread::sleep(interval);
                }
            });
        }
        for _ in 0..config.snapshot_readers {
            let service = &service;
            let entities = entities.clone();
            scope.spawn(move || {
                while !service.shutdown.load(Ordering::Acquire) {
                    service.snapshot_probe(&entities);
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
        }
        // Deadline watchdog: force shutdown so the scope can join, and
        // break cross-session deadlocks the schedulers cannot see.
        let service = &service;
        let mut clean = true;
        let mut ticks = 0u32;
        while !service.shutdown.load(Ordering::Acquire) {
            if started.elapsed() > deadline {
                clean = false;
                service.shutdown.store(true, Ordering::Release);
                break;
            }
            ticks = ticks.wrapping_add(1);
            if ticks.is_multiple_of(32) {
                service.break_stall(config.stall_timeout);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        clean
    });
    let wall = started.elapsed();

    let mut g = service.gate.lock().expect("gate poisoned");
    let mut latencies = std::mem::take(&mut g.latencies_us);
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() as f64) * p).ceil() as usize;
        latencies[idx.clamp(1, latencies.len()) - 1]
    };
    let (latch_acquisitions, latch_waits) = service.latches.stats();
    ServeReport {
        load: workload.name.clone(),
        sched: sched_name.to_string(),
        workers,
        sessions,
        committed: g.commits,
        aborts: g.aborts,
        commit_hazards: g.cascade_undone_commits,
        defers: g.defers,
        wall,
        cert_wall,
        certified,
        certified_skips: g.sched.certified_skips(),
        certified_skips_per_universe: g.sched.certified_skips_per_universe(),
        cert_re_arms: g.sched.cert_re_arms(),
        throughput: g.commits as f64 / wall.as_secs_f64().max(1e-9),
        p50_us: pct(0.50),
        p95_us: pct(0.95),
        p99_us: pct(0.99),
        latch_acquisitions,
        latch_waits,
        gc_folded: service.gc_folded.load(Ordering::Relaxed),
        gc_passes: service.gc_passes.load(Ordering::Relaxed),
        snapshot_checks: service.snapshot_checks.load(Ordering::Relaxed),
        snapshot_violations: service.snapshot_violations.load(Ordering::Relaxed),
        stall_breaks: g.stall_breaks,
        live_versions: service.mvcc.version_count(),
        clean,
        history: std::mem::take(&mut g.history),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{contended_load, partitioned_load};

    fn quick(sched: SchedKind, load: &ServeLoad, workers: usize) -> ServeReport {
        let config = ServeConfig {
            sched,
            workers,
            deadline: Duration::from_secs(30),
            ..ServeConfig::default()
        };
        run(load, &config)
    }

    #[test]
    fn partitioned_drains_cleanly_under_both_schedulers() {
        for sched in [SchedKind::Detect, SchedKind::Prevent] {
            let load = partitioned_load(8, 6);
            let report = quick(sched, &load, 4);
            assert!(report.clean, "{}", report.render());
            assert_eq!(report.committed, 48, "{}", report.render());
            assert_eq!(report.snapshot_violations, 0, "{}", report.render());
            assert_eq!(report.history.len(), 48 * 2);
        }
    }

    #[test]
    fn contended_drains_and_conserves_money() {
        let load = contended_load(6, 8, 4, 4);
        let report = quick(SchedKind::Prevent, &load, 3);
        assert!(report.clean, "{}", report.render());
        assert_eq!(report.committed, 48, "{}", report.render());
        // Replay the committed history: the final value of each account
        // is the last write in ticket order. Every step is an atomic
        // read-modify-write, so a drained run conserves the total.
        let entities = (0..4).map(EntityId);
        let mut finals = std::collections::HashMap::new();
        for s in &report.history {
            finals.insert(s.entity, s.wrote);
        }
        let total: Value = entities.map(|e| *finals.get(&e).unwrap_or(&100)).sum();
        assert_eq!(total, load.initial_total, "{}", report.render());
    }

    #[test]
    fn detect_survives_contention_with_rollbacks() {
        let load = contended_load(4, 6, 3, 3);
        let report = quick(SchedKind::Detect, &load, 2);
        assert!(report.clean, "{}", report.render());
        assert_eq!(report.committed, 24, "{}", report.render());
    }

    #[test]
    fn certified_partitioned_run_gc_reclaims_versions() {
        let load = partitioned_load(4, 32);
        let config = ServeConfig {
            sched: SchedKind::Prevent,
            workers: 4,
            certified: true,
            gc_interval: Some(Duration::from_micros(100)),
            deadline: Duration::from_secs(30),
            ..ServeConfig::default()
        };
        let report = run(&load, &config);
        assert!(report.clean, "{}", report.render());
        assert_eq!(report.committed, 128, "{}", report.render());
        assert_eq!(report.aborts, 0, "{}", report.render());
        assert_eq!(report.snapshot_violations, 0, "{}", report.render());
        // Every grant rode the certificate fast path, and the report
        // splits them per universe.
        assert!(report.certified_skips > 0, "{}", report.render());
        assert_eq!(
            report.certified_skips_per_universe.iter().sum::<u64>(),
            report.certified_skips,
            "{}",
            report.render()
        );
        assert!(report.render().contains("fast-path grants"));
    }

    #[test]
    fn history_is_ticket_ordered_and_seq_contiguous() {
        let load = contended_load(4, 5, 3, 0);
        let report = quick(SchedKind::Prevent, &load, 2);
        assert!(report.clean);
        // Per-transaction seqs are 0..n in history order — Execution
        // accepts it.
        assert!(mla_model::Execution::new(report.history.clone()).is_ok());
    }
}
