//! The transaction service: OS threads racing through MVCC storage with
//! a §6 scheduler gating every step's admission.
//!
//! # Architecture
//!
//! ```text
//!  worker 0 ──┐                      ┌── GC thread (epoch frontier)
//!  worker 1 ──┤   ┌─────────────┐    │
//!    ...      ├──▶│ Gate (mutex) │◀──┴── snapshot readers (pins)
//!  worker W ──┘   │  control     │
//!                 │  world       │          ┌───────────┐
//!                 │  slots       │─ install▶│ MvccStore │
//!                 └─────────────┘           └───────────┘
//! ```
//!
//! * Each **worker** (thread-per-core front-end) owns the sessions with
//!   `session % workers == worker`, round-robinning one step attempt per
//!   session per pass, plus the shared retry queue of cascade-undone
//!   transactions. A session whose attempt was deferred or rolled back
//!   sits out a timed backoff. When a pass finds nothing to attempt,
//!   the worker takes the deferred session due first early, provided
//!   some step was performed or rolled back since it deferred: only
//!   those change what the scheduler would decide (see `worker_loop`).
//! * A step attempt is one hold of the **gate** — a single mutex holding
//!   the scheduler as a [`Control`], the simulator's host state
//!   [`World`] (instances, status, nest, and the live history as a
//!   journal [`Store`]), and the service's own per-transaction slots.
//!   The scheduler decides through [`Control::decide`]; a grant performs
//!   the step through [`World::perform`], whose journal id + 1 is the
//!   step's ticket, and installs a version — only if the step changed
//!   the value — *before* the gate is released. Ticket draws and installs
//!   are serialized by the gate alone, so per-entity tickets are
//!   monotone, exactly as in the simulator's one global step order.
//! * An **abort** rolls back through [`World::roll_back`] — the
//!   journal's undo cascade and the scheduler's hooks, as in the
//!   simulator — and pops the undone versions from their chains.
//!   Cascade-undone transactions whose sessions already moved on (they
//!   had tentatively committed — the §6 commit hazard) go to the retry
//!   queue.
//! * The **GC thread** folds versions below the older of the reader
//!   pins and the journal's undo floor ([`Store::undo_floor`]): the
//!   first record of any running transaction or of anything their undo
//!   cascade reaches. Below that, no snapshot read and no undo can ever
//!   look. The drain ends with one last pass.
//! * **Snapshot readers** pin a ticket and verify the snapshot there is
//!   stable while GC runs underneath them.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, TryLockError};
use std::time::{Duration, Instant};

use mla_cc::{MlaDetect, MlaPrevent};
use mla_model::{EntityId, Step, TxnId, Value};
use mla_sim::{Control, Decision, TxnStatus, World};
use mla_storage::{EpochRegistry, MvccStore, Store};

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
    /// GC cadence; `None` disables the GC thread.
    pub gc_interval: Option<Duration>,
    /// Abandon the run after this long (a liveness backstop for tests;
    /// the report marks the timeout).
    pub deadline: Duration,
}

/// MVCC lock shards.
const STORE_SHARDS: usize = 16;

/// Concurrent snapshot-stability reader threads.
const SNAPSHOT_READERS: usize = 2;

/// Force-abort one running transaction when no commit lands for this
/// long. Sessions execute their streams in order, so a deferred
/// transaction can transitively wait on one whose *session* is stuck
/// behind another deferred transaction — a cross-session deadlock the
/// scheduler's transaction-level waits-for graph cannot see. The stall
/// breaker is the classic timeout answer.
const STALL_TIMEOUT: Duration = Duration::from_millis(250);

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            sched: SchedKind::Prevent,
            workers: 4,
            shards: 0,
            wait_shards: 1,
            certified: false,
            gc_interval: Some(Duration::from_millis(1)),
            deadline: Duration::from_secs(60),
        }
    }
}

/// The service's own per-transaction state behind the gate; the
/// transaction's instance and status live in the gate's [`World`].
#[derive(Default)]
struct Slot {
    /// First attempt of the first incarnation (latency measurement).
    started: Option<Instant>,
    /// First attempt → commit, microseconds; a cascade clears it.
    latency_us: Option<u64>,
}

/// Everything the single gate mutex protects.
struct Gate {
    /// The host state the scheduler reads: instances, status, nest and
    /// the live history — every step of a running or committed
    /// transaction. A step's ticket is its journal id + 1 (fresh MVCC
    /// chains have head ticket 0), and the journal's values are the MVCC
    /// chain heads.
    world: World,
    /// The §6 scheduler.
    control: Box<dyn Control + Send>,
    slots: Vec<Slot>,
    /// Transactions undone after tentatively committing, awaiting re-run.
    retries: VecDeque<TxnId>,
    /// Transactions currently [`TxnStatus::Committed`] (net of cascade
    /// undo; equals the final commit count on a clean drain).
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
    /// The undo floor of GC's latest pass: no rollback undoes a record
    /// below it.
    undo_floor: u64,
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
    /// The decision's cascade rolled the requester back; it restarts
    /// from scratch on its next attempt.
    Aborted,
    /// Already committed.
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
    /// Deferred sessions attempted before their backoff ended, because
    /// their worker had nothing else to attempt (summed across workers).
    pub early_takes: u64,
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
    /// A placeholder that stays 0: the service takes no entity latch,
    /// the gate alone orders steps. `perfbench/src/workloads.rs` reads
    /// it; that is its only reason to exist.
    pub latch_acquisitions: u64,
    /// A placeholder that stays 0, for the same reason as
    /// [`ServeReport::latch_acquisitions`].
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
             conflicts   {aborts} rollbacks ({hazards} undone commits), {defers} defers \
             ({early} taken early), {stalls} stall breaks\n\
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
            early = self.early_takes,
            stalls = self.stall_breaks,
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
    mvcc: MvccStore,
    epochs: EpochRegistry,
    /// Set once every transaction has committed (or the deadline hit).
    shutdown: AtomicBool,
    /// Mirrors `!gate.retries.is_empty()`, stored (Release) under the gate
    /// and loaded (Acquire) by workers to skip an empty queue without the
    /// gate. A stale read costs one pass; the gate orders the queue.
    retry_pending: AtomicBool,
    /// Bumped under the gate by every grant and every cascade: the only
    /// gate changes that can turn a deferral into another decision.
    /// Workers read it without the gate to see whether re-deciding a
    /// deferred session can be worth a hold (`Backoff::early_take`).
    changes: AtomicU64,
    gc_folded: AtomicU64,
    gc_passes: AtomicU64,
    snapshot_checks: AtomicU64,
    snapshot_violations: AtomicU64,
}

impl Service {
    /// One step attempt for session transaction `t`, in one gate hold.
    /// Also returns the change counter as the hold left it.
    fn step_once(&self, t: TxnId) -> (Attempt, u64) {
        let mut g = self.gate.lock().expect("gate poisoned");
        let attempt = self.attempt(&mut g, t);
        self.note_drained(&g);
        (attempt, self.changes.load(Ordering::Relaxed))
    }

    /// One step attempt for the oldest retry-queue entry, in one gate
    /// hold; the entry goes to the back of the queue unless it
    /// committed. Returns whether the queue had an entry.
    fn retry_once(&self) -> bool {
        let mut g = self.gate.lock().expect("gate poisoned");
        let Some(t) = g.retries.pop_front() else {
            return false;
        };
        if !matches!(self.attempt(&mut g, t), Attempt::Committed | Attempt::Done) {
            g.retries.push_back(t);
        }
        self.note_drained(&g);
        true
    }

    /// Publishes the retry queue's state and ends the drain once every
    /// transaction is committed and nothing waits for a retry. Called at
    /// the end of every gate hold that changes either.
    fn note_drained(&self, g: &Gate) {
        self.retry_pending
            .store(!g.retries.is_empty(), Ordering::Release);
        if g.commits == g.slots.len() as u64 && g.retries.is_empty() {
            self.shutdown.store(true, Ordering::Release);
        }
    }

    /// The body of a step attempt for `t`, under the held gate: start
    /// its incarnation, consult the scheduler, and on a grant journal
    /// its next step at a fresh ticket and install the step's version.
    fn attempt(&self, g: &mut Gate, t: TxnId) -> Attempt {
        match g.world.status[t.index()] {
            TxnStatus::Committed => return Attempt::Done,
            TxnStatus::Idle => {
                g.world.status[t.index()] = TxnStatus::Running;
                g.slots[t.index()].started.get_or_insert_with(Instant::now);
            }
            TxnStatus::Running => {}
        }
        // Decide loop: an Abort decision rolls its victims back and
        // *immediately* re-decides under the same gate lock. Dropping the
        // gate between the cascade and the retry is a livelock — the
        // restarted victim's session re-admits its steps first (it polls
        // tightly) and the next decide names the same victim again. The
        // gate is held, so nothing can re-enter between cascade and
        // re-decide; each iteration either grants, defers, kills the
        // requester, or strictly shrinks the set of live victim records,
        // so the loop is bounded by the slot count. Each decide can be
        // costly, so a set `shutdown` ends the loop before the next one.
        for _round in 0..=g.slots.len() {
            if self.shutdown.load(Ordering::Acquire) {
                return Attempt::Deferred;
            }
            match g.control.decide(t, &g.world) {
                Decision::Grant => {
                    let record = g.world.perform(t, g.control.as_mut());
                    self.changes.fetch_add(1, Ordering::Release);
                    debug_assert_eq!(self.mvcc.latest(record.entity).1, record.observed);
                    let ticket = record.id + 1;
                    if record.wrote != record.observed {
                        self.mvcc.install(record.entity, ticket, t, record.wrote);
                    }
                    if !g.world.is_committed(t) {
                        return Attempt::Progressed;
                    }
                    let slot = &mut g.slots[t.index()];
                    let started = slot.started.expect("started at first attempt");
                    slot.latency_us = Some(started.elapsed().as_micros() as u64);
                    g.commits += 1;
                    g.last_commit = Instant::now();
                    return Attempt::Committed;
                }
                Decision::Defer => {
                    g.defers += 1;
                    return Attempt::Deferred;
                }
                Decision::Abort(victims) => {
                    if self.cascade_abort(g, &victims, t) {
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

    /// Rolls back `victims` through the journal's undo cascade and pops
    /// every undone version, newest first, so each removal is a
    /// chain-head pop. Returns whether `requester` was rolled back.
    fn cascade_abort(&self, g: &mut Gate, victims: &[TxnId], requester: TxnId) -> bool {
        // The schedulers name only uncommitted victims and the stall
        // breaker only running ones. A cascade from them undoes nothing
        // below GC's undo floor (DESIGN §9.3), so no pop below meets a
        // folded version.
        debug_assert!(
            victims.iter().all(|&v| !g.world.is_committed(v)),
            "a committed transaction was named as a victim"
        );
        let (rollback, had_committed) = g
            .world
            .roll_back(victims.iter().copied(), g.control.as_mut());
        self.changes.fetch_add(1, Ordering::Release);
        debug_assert!(
            rollback.undone.iter().all(|r| r.id >= g.undo_floor),
            "the undo cascade reached below GC's undo floor {}",
            g.undo_floor
        );
        for r in rollback.undone.iter().filter(|r| r.wrote != r.observed) {
            self.mvcc.remove(r.entity, r.id + 1);
        }
        g.undo_epoch += 1;
        for &(t, _) in &rollback.victims {
            g.slots[t.index()].latency_us = None;
        }
        g.aborts += rollback.victims.len() as u64;
        // Tentatively-committed victims re-run via the retry queue
        // (their sessions have moved on).
        g.commits -= had_committed.len() as u64;
        g.cascade_undone_commits += had_committed.len() as u64;
        g.retries.extend(had_committed);
        rollback.contains(requester)
    }

    /// One epoch-GC pass: fold versions no snapshot and no undo can
    /// reach. The frontier is computed under the gate (serializing with
    /// reader pins, which are also taken under the gate); the fold runs
    /// outside it. The undo floor is record ids, tickets are ids + 1.
    fn gc_pass(&self) {
        let frontier = {
            let mut g = self.gate.lock().expect("gate poisoned");
            let g = &mut *g;
            let running: Vec<TxnId> = g.world.txns_with_status(TxnStatus::Running).collect();
            g.undo_floor = g.world.store.undo_floor(running);
            self.epochs.frontier(g.undo_floor + 1)
        };
        let folded = self.mvcc.gc_before(frontier);
        self.gc_folded.fetch_add(folded as u64, Ordering::Relaxed);
        self.gc_passes.fetch_add(1, Ordering::Relaxed);
    }

    /// The stall breaker: when no commit has landed for `timeout`,
    /// force-abort the running transaction with the fewest performed
    /// steps (cheapest undo). Sessions run their streams in order, so
    /// deferred transactions can deadlock *through* sessions in a way the
    /// scheduler's transaction-level waits-for graph cannot observe; one
    /// forced rollback restarts the cheapest participant and the rest
    /// drain.
    fn break_stall(&self) {
        // A held gate means a worker is mid-decision: try again on a
        // later tick. Queueing behind its decide loop would also hold
        // up the watchdog's deadline check.
        let mut g = match self.gate.try_lock() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => return,
            Err(TryLockError::Poisoned(_)) => panic!("gate poisoned"),
        };
        if g.last_commit.elapsed() < STALL_TIMEOUT {
            return;
        }
        let victim = g
            .world
            .txns_with_status(TxnStatus::Running)
            .min_by_key(|&t| g.world.instance(t).seq());
        if let Some(v) = victim {
            self.cascade_abort(&mut g, &[v], v);
            g.stall_breaks += 1;
            self.note_drained(&g);
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
            // next ticket`, so the newest already-drawn ticket reads
            // correctly no matter how much GC has folded — and strictly
            // below the next ticket, no later install can land at it.
            let t = g.world.store.next_id();
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

/// One worker's per-session backoff: when each of its sessions may be
/// attempted again, and whether re-deciding a deferred one before then
/// can be worth a gate hold.
struct Backoff {
    /// Horizons: a session is not attempted in a pass before its entry
    /// (`None` when it is not backing off).
    resume_at: Vec<Option<Instant>>,
    /// Consecutive deferred or rolled-back attempts, capped at 7.
    strikes: Vec<u32>,
    /// Deferral stamps: the change counter as the hold of the session's
    /// last attempt left it, `None` unless that attempt deferred.
    deferred_at: Vec<Option<u64>>,
}

impl Backoff {
    fn new(sessions: usize) -> Self {
        Backoff {
            resume_at: vec![None; sessions],
            strikes: vec![0; sessions],
            deferred_at: vec![None; sessions],
        }
    }

    /// Whether session `s` is still inside its backoff.
    fn backing_off(&self, s: usize) -> bool {
        self.resume_at[s].is_some_and(|at| Instant::now() < at)
    }

    /// Records how an attempt of session `s` ended, with the change
    /// counter as its hold left it. Progress clears the backoff. A
    /// deferral or a rollback starts one of `50 µs << strikes` (up to
    /// 6.4 ms) from `now()`, so abort storms drain instead of
    /// re-colliding at full speed; a deferral also stamps `changes`.
    fn record(&mut self, s: usize, attempt: Attempt, changes: u64, now: impl FnOnce() -> Instant) {
        self.deferred_at[s] = None;
        match attempt {
            Attempt::Progressed | Attempt::Committed | Attempt::Done => {
                self.strikes[s] = 0;
                self.resume_at[s] = None;
            }
            Attempt::Deferred | Attempt::Aborted => {
                self.strikes[s] = (self.strikes[s] + 1).min(7);
                self.resume_at[s] = Some(now() + Duration::from_micros(50 << self.strikes[s]));
                if attempt == Attempt::Deferred {
                    self.deferred_at[s] = Some(changes);
                }
            }
        }
    }

    /// The session to attempt when a pass attempted nothing: of the
    /// sessions whose last attempt deferred before the change counter
    /// reached `changes()`, the one whose backoff ends first. A session
    /// rolled back is never taken early, and neither is one deferred at
    /// `changes()`: no step has been performed or rolled back since, so
    /// re-deciding it could only defer again (see [`worker_loop`]).
    ///
    /// The counter is read only when some session carries a stamp: every
    /// grant writes it, so an idle worker with nothing deferred (say, one
    /// whose sessions drained) leaves its cache line to the workers
    /// still granting, as it did before early takes existed.
    fn early_take(&self, changes: impl FnOnce() -> u64) -> Option<usize> {
        if self.deferred_at.iter().all(Option::is_none) {
            return None;
        }
        let changes = changes();
        (0..self.deferred_at.len())
            .filter(|&s| self.deferred_at[s].is_some_and(|c| c != changes))
            .min_by_key(|&s| self.resume_at[s])
    }
}

/// Worker main loop: drain the retry queue first, then round-robin this
/// worker's sessions, one step attempt each. Every attempt is one gate
/// hold; a session in backoff takes none. Returns the worker's early
/// takes.
///
/// A deferral is a wait for other transactions to reach breakpoints
/// (§6), but its backoff is a timer that holds the session out even
/// when the worker has nothing else to do. So when a pass attempts
/// nothing, the worker attempts the session [`Backoff::early_take`]
/// names, if any, and otherwise yields. The guard is exact. A deferral's
/// blockers are read off the closure and the transactions' performed
/// steps, which only a grant or a cascade changes, and both bump
/// `changes` under the gate. The waits-for edges the deferral left
/// kept the waits-for graph acyclic, and re-deciding swaps them for the
/// same edges. So a deferred session re-decided on an unchanged counter
/// can only defer again. Timed backoff still orders the sessions while
/// some are due, and a rolled-back session keeps its full backoff.
fn worker_loop(service: &Service, sessions: &[Vec<TxnId>]) -> u64 {
    // Per-session cursor into its transaction stream.
    let mut cursor: Vec<usize> = vec![0; sessions.len()];
    let mut backoff = Backoff::new(sessions.len());
    let mut early_takes = 0;
    let step = |s: usize, cursor: &mut [usize], backoff: &mut Backoff| {
        let (attempt, changes) = service.step_once(sessions[s][cursor[s]]);
        if matches!(attempt, Attempt::Committed | Attempt::Done) {
            cursor[s] += 1;
        }
        backoff.record(s, attempt, changes, Instant::now);
    };
    while !service.shutdown.load(Ordering::Acquire) {
        // Cascade-undone commits first: their sessions already moved on.
        let mut progressed = service.retry_pending.load(Ordering::Acquire) && service.retry_once();

        for (s, stream) in sessions.iter().enumerate() {
            if service.shutdown.load(Ordering::Acquire) {
                return early_takes;
            }
            if cursor[s] == stream.len() || backoff.backing_off(s) {
                continue;
            }
            progressed = true;
            step(s, &mut cursor, &mut backoff);
        }

        if !progressed {
            // Every own session is drained or backing off. Stay alive for
            // retry-queue work; the gate hold of the drain's last commit
            // sets `shutdown`, whichever worker makes it.
            match backoff.early_take(|| service.changes.load(Ordering::Acquire)) {
                Some(s) => {
                    early_takes += 1;
                    step(s, &mut cursor, &mut backoff);
                }
                None => std::thread::yield_now(),
            }
        }
    }
    early_takes
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

    let cert_started = Instant::now();
    let cert = if config.certified {
        load.certify()
    } else {
        None
    };
    let cert_wall = cert_started.elapsed();
    let certified = cert.is_some();
    let control: Box<dyn Control + Send> = match config.sched {
        SchedKind::Detect => {
            let s = MlaDetect::new(spec, mla_cc::VictimPolicy::FewestSteps);
            Box::new(match cert {
                Some(c) => s.with_static_cert(c),
                None => s,
            })
        }
        SchedKind::Prevent => {
            let s = MlaPrevent::new(txn_count, spec, mla_cc::VictimPolicy::FewestSteps);
            Box::new(match cert {
                Some(c) => s.with_static_cert(c),
                None => s,
            })
        }
    };

    // The entity universe (snapshot probes scan it).
    let mut entities: Vec<EntityId> = workload
        .programs
        .iter()
        .flat_map(|p| p.footprint())
        .chain(workload.initial.iter().map(|&(e, _)| e))
        .collect();
    entities.sort_unstable();
    entities.dedup();

    let service = Service {
        gate: Mutex::new(Gate {
            world: World {
                store: Store::new(workload.initial.iter().copied()),
                instances: workload.instances(),
                status: vec![TxnStatus::Idle; txn_count],
                nest: workload.nest.clone(),
            },
            control,
            slots: (0..txn_count).map(|_| Slot::default()).collect(),
            retries: VecDeque::new(),
            commits: 0,
            aborts: 0,
            cascade_undone_commits: 0,
            defers: 0,
            undo_epoch: 0,
            last_commit: Instant::now(),
            stall_breaks: 0,
            undo_floor: 0,
        }),
        mvcc: MvccStore::new(STORE_SHARDS, workload.initial.iter().copied()),
        epochs: EpochRegistry::new(SNAPSHOT_READERS + 2),
        shutdown: AtomicBool::new(false),
        retry_pending: AtomicBool::new(false),
        changes: AtomicU64::new(0),
        gc_folded: AtomicU64::new(0),
        gc_passes: AtomicU64::new(0),
        snapshot_checks: AtomicU64::new(0),
        snapshot_violations: AtomicU64::new(0),
    };

    let started = Instant::now();
    let deadline = config.deadline;
    let (clean, early_takes) = std::thread::scope(|scope| {
        let mut worker_threads = Vec::with_capacity(workers);
        for w in 0..workers {
            let service = &service;
            let session_slice: Vec<Vec<TxnId>> = load
                .session_txns
                .iter()
                .enumerate()
                .filter(|(s, _)| s % workers == w)
                .map(|(_, v)| v.clone())
                .collect();
            worker_threads.push(scope.spawn(move || worker_loop(service, &session_slice)));
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
        for _ in 0..SNAPSHOT_READERS {
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
                service.break_stall();
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let early_takes: u64 = worker_threads
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .sum();
        (clean, early_takes)
    });
    let wall = started.elapsed();
    if config.gc_interval.is_some() {
        service.gc_pass();
    }

    let g = service.gate.lock().expect("gate poisoned");
    let mut latencies: Vec<u64> = g.slots.iter().filter_map(|s| s.latency_us).collect();
    debug_assert_eq!(latencies.len() as u64, g.commits);
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() as f64) * p).ceil() as usize;
        latencies[idx.clamp(1, latencies.len()) - 1]
    };
    ServeReport {
        load: workload.name.clone(),
        sched: g.control.name().to_string(),
        workers,
        sessions,
        committed: g.commits,
        aborts: g.aborts,
        commit_hazards: g.cascade_undone_commits,
        defers: g.defers,
        early_takes,
        wall,
        cert_wall,
        certified,
        certified_skips: g.control.certified_skips(),
        certified_skips_per_universe: g.control.certified_skips_per_universe(),
        cert_re_arms: g.control.cert_re_arms(),
        throughput: g.commits as f64 / wall.as_secs_f64().max(1e-9),
        p50_us: pct(0.50),
        p95_us: pct(0.95),
        p99_us: pct(0.99),
        latch_acquisitions: 0,
        latch_waits: 0,
        gc_folded: service.gc_folded.load(Ordering::Relaxed),
        gc_passes: service.gc_passes.load(Ordering::Relaxed),
        snapshot_checks: service.snapshot_checks.load(Ordering::Relaxed),
        snapshot_violations: service.snapshot_violations.load(Ordering::Relaxed),
        stall_breaks: g.stall_breaks,
        live_versions: service.mvcc.version_count(),
        clean,
        history: g.world.history_steps(),
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
    fn an_unchanged_counter_takes_nothing_early() {
        let now = Instant::now();
        let mut backoff = Backoff::new(3);
        backoff.record(0, Attempt::Deferred, 7, || now);
        backoff.record(2, Attempt::Deferred, 7, || now);
        assert_eq!(backoff.early_take(|| 7), None);
    }

    #[test]
    fn a_moved_counter_takes_the_deferred_session_due_first() {
        let now = Instant::now();
        let mut backoff = Backoff::new(4);
        // Session 0 deferred twice, so its backoff ends later than
        // session 2's; session 1 progressed and session 3 never ran.
        backoff.record(0, Attempt::Deferred, 3, || now);
        backoff.record(0, Attempt::Deferred, 4, || now);
        backoff.record(1, Attempt::Progressed, 4, || now);
        backoff.record(2, Attempt::Deferred, 5, || now);
        assert_eq!(backoff.early_take(|| 6), Some(2));
        // At 5, nothing changed since session 2 deferred.
        assert_eq!(backoff.early_take(|| 5), Some(0));
    }

    #[test]
    fn a_rolled_back_session_is_never_taken_early() {
        let now = Instant::now();
        let mut backoff = Backoff::new(2);
        backoff.record(0, Attempt::Aborted, 1, || now);
        assert_eq!(backoff.early_take(|| 2), None);
        // A rollback backs off exactly as long as a deferral:
        // `50 µs << strikes`, capped at 6.4 ms.
        backoff.record(1, Attempt::Deferred, 1, || now);
        assert_eq!(backoff.resume_at[0], Some(now + Duration::from_micros(100)));
        assert_eq!(backoff.resume_at[0], backoff.resume_at[1]);
        assert_eq!(backoff.early_take(|| 2), Some(1));
        // A rollback after a deferral drops the deferral's stamp.
        for _ in 0..9 {
            backoff.record(1, Attempt::Aborted, 2, || now);
        }
        assert_eq!(
            backoff.resume_at[1],
            Some(now + Duration::from_micros(6_400))
        );
        assert_eq!(backoff.early_take(|| 9), None);
    }

    #[test]
    fn a_session_past_its_horizon_runs_in_the_pass_whatever_the_counter_says() {
        let long_ago = Instant::now() - Duration::from_secs(1);
        let mut backoff = Backoff::new(2);
        backoff.record(0, Attempt::Deferred, 4, || long_ago);
        backoff.record(1, Attempt::Deferred, 4, || {
            Instant::now() + Duration::from_secs(60)
        });
        // The counter has not moved, so nothing is taken early, yet the
        // pass attempts session 0: its backoff is over.
        assert_eq!(backoff.early_take(|| 4), None);
        assert!(!backoff.backing_off(0));
        assert!(backoff.backing_off(1));
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
    fn a_missed_deadline_returns_promptly() {
        // The contended detect smoke takes seconds to drain; a short
        // deadline must cut it off within a bound, not after the
        // in-gate decide loop and every session's next attempt. A worker
        // blocks only on the gate and its backoff sleep; debug builds
        // overshoot by tens of milliseconds.
        let load = contended_load(64, 16, 16, 8);
        let deadline = Duration::from_millis(300);
        let config = ServeConfig {
            sched: SchedKind::Detect,
            workers: 4,
            deadline,
            ..ServeConfig::default()
        };
        let report = run(&load, &config);
        assert!(!report.clean, "{}", report.render());
        assert!(
            report.wall < deadline + Duration::from_secs(1),
            "overshoot {:?}: {}",
            report.wall - deadline,
            report.render()
        );
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
        // The drain ends with a GC pass; with nothing left running the
        // undo floor is the journal's end and every version folds.
        assert!(report.gc_folded > 0, "{}", report.render());
        assert_eq!(report.live_versions, 0, "{}", report.render());
    }
}
