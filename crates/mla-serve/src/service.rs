//! The transaction service: OS threads racing through MVCC storage with
//! a §6 scheduler gating every step's admission.
//!
//! # Architecture
//!
//! ```text
//!  worker 0 ──┐                      ┌── GC thread (frontier)
//!  worker 1 ──┤   ┌─────────────┐    │
//!    ...      ├──▶│ Gate (mutex) │◀──┴── snapshot readers (pins)
//!  worker W ──┘   │  control     │
//!                 │  world       │          ┌───────────┐
//!                 │  run queue   │─ install▶│ MvccStore │
//!                 └─────────────┘           └───────────┘
//! ```
//!
//! * The gate's **run queue** holds one item per session (its current
//!   transaction) and per cascade-undone commit. A **worker** keeps its
//!   item while the transaction progresses, one step attempt per gate
//!   hold, and gives it up on a commit (to the back of the queue, with
//!   the session's next transaction), a deferral (parked on the blocker
//!   [`Control::blockers`] names until [`World::blocks`] turns false or
//!   anything rolls back) or a rollback (backed off on a timer). With
//!   nothing ready or due, it waits on the gate's condition variable.
//! * A step attempt is one hold of the **gate** — a single mutex holding
//!   the scheduler as a [`Control`], the simulator's host state
//!   [`World`] (instances, status, nest, and the live history as a
//!   journal [`Store`]), the run queue and the service's own
//!   per-transaction slots. The scheduler decides through
//!   [`Control::decide`]; a grant performs the step through
//!   [`World::perform`], whose journal id + 1 is the step's ticket, and
//!   installs a version — only if the step changed the value — *before*
//!   the gate is released. Ticket draws and installs are serialized by
//!   the gate alone, so per-entity tickets are monotone, exactly as in
//!   the simulator's one global step order.
//! * An **abort** rolls back through [`World::roll_back`] — the
//!   journal's undo cascade and the scheduler's hooks, as in the
//!   simulator — and pops the undone versions from their chains.
//!   Cascade-undone transactions whose sessions already moved on (they
//!   had tentatively committed — the §6 commit hazard) join the run
//!   queue as items of their own.
//! * The **GC thread** folds versions below the older of the reader
//!   pins and the journal's undo floor ([`Store::undo_floor`]): the
//!   first record of any running transaction or of anything their undo
//!   cascade reaches. Below that, no snapshot read and no undo can ever
//!   look. The drain ends with one last pass.
//! * **Snapshot readers** pin a ticket and verify the snapshot there is
//!   stable while GC runs underneath them. A pin is an entry of the
//!   gate's pin list, pushed and removed in the two gate holds a probe
//!   takes anyway; GC reads the list in the hold that computes its
//!   frontier.
//! * The GC thread, the snapshot readers and the deadline **watchdog**
//!   wait out their ticks on the service's shutdown signal, not in a
//!   sleep: the hold that lands the last commit (or the watchdog, at the
//!   deadline) notifies it and the workers' condition variable, so every
//!   thread wakes and the drain ends without waiting out a tick.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

use mla_cc::{MlaDetect, MlaPrevent};
use mla_model::{EntityId, Step, TxnId, Value};
use mla_sim::{Control, Decision, TxnStatus, World};
use mla_storage::{MvccStore, Store};

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
    /// Worker threads (thread-per-core front-end). Each takes one item
    /// at a time off the shared run queue and keeps it while its
    /// transaction progresses.
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
/// long: the liveness backstop for any wait the scheduler's waits-for
/// graph cannot see (DESIGN §9.4).
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

/// A unit of work: a transaction and its place in its session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Item {
    txn: TxnId,
    /// The session and `txn`'s position in its stream; `None` for a
    /// cascade-undone commit, whose session has moved on.
    session: Option<(usize, usize)>,
    /// Rollbacks and blocker-less deferrals since the item last
    /// progressed, capped at 7.
    strikes: u32,
}

/// Transaction `i` of session `s`, as a work item.
fn session_item(sessions: &[Vec<TxnId>], s: usize, i: usize) -> Option<Item> {
    let txn = *sessions[s].get(i)?;
    Some(Item {
        txn,
        session: Some((s, i)),
        strikes: 0,
    })
}

/// Every item no worker holds, under the gate.
#[derive(Default)]
struct RunQueue {
    ready: VecDeque<Item>,
    /// Deferred items, under the transaction each one waits for.
    parked: BTreeMap<TxnId, Vec<Item>>,
    /// Items backing off, earliest horizon first.
    horizons: BinaryHeap<Reverse<(Instant, Item)>>,
    /// Workers waiting on [`Service::work`].
    idle: usize,
    /// Deferrals parked on a blocker.
    parks: u64,
    /// Waits on [`Service::work`].
    waits: u64,
}

impl RunQueue {
    /// The oldest ready item, else the item whose horizon passed first
    /// (reading the clock only then). Otherwise how long until the
    /// earliest horizon, `None` when none is set.
    fn take(&mut self, clock: impl FnOnce() -> Instant) -> Result<Item, Option<Duration>> {
        if let Some(item) = self.ready.pop_front() {
            return Ok(item);
        }
        let Some(&Reverse((at, item))) = self.horizons.peek() else {
            return Err(None);
        };
        let now = clock();
        if at > now {
            return Err(Some(at - now));
        }
        self.horizons.pop();
        Ok(item)
    }

    /// Backs `item` off for `50 µs << strikes` (up to 6.4 ms) from `now`,
    /// so abort storms drain instead of re-colliding at full speed.
    /// Returns whether its horizon is now the earliest.
    fn back_off(&mut self, mut item: Item, now: Instant) -> bool {
        item.strikes = (item.strikes + 1).min(7);
        let at = now + Duration::from_micros(50 << item.strikes);
        let earliest = self.horizons.peek().is_none_or(|h| at < h.0 .0);
        self.horizons.push(Reverse((at, item)));
        earliest
    }

    /// Readies the items parked on `blocker` that it no longer blocks
    /// (after each grant to it: only its steps change what it blocks).
    fn wake(&mut self, world: &World, blocker: TxnId) {
        let Some(waiters) = self.parked.get_mut(&blocker) else {
            return;
        };
        self.ready
            .extend(waiters.extract_if(.., |item| !world.blocks(blocker, item.txn)));
        if waiters.is_empty() {
            self.parked.remove(&blocker);
        }
    }

    /// Readies every parked item (after a rollback, which can dissolve
    /// any closure path).
    fn wake_all(&mut self) {
        for (_, waiters) in std::mem::take(&mut self.parked) {
            self.ready.extend(waiters);
        }
    }
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
    /// The work no worker holds.
    queue: RunQueue,
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
    /// Deadlocks broken by the stall watchdog.
    stall_breaks: u64,
    /// The undo floor of GC's latest pass: no rollback undoes a record
    /// below it.
    undo_floor: u64,
    /// The tickets live snapshot probes read at (one entry per probe in
    /// flight). GC folds nothing at or above the smallest.
    pins: Vec<u64>,
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
    /// Deferrals parked on a blocker the scheduler named; the rest
    /// backed off on a timer.
    pub parks: u64,
    /// Times a worker found nothing ready or due and waited (summed
    /// across workers).
    pub waits: u64,
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
    /// Versions folded by GC.
    pub gc_folded: u64,
    /// GC passes run.
    pub gc_passes: u64,
    /// Snapshot-stability checks performed.
    pub snapshot_checks: u64,
    /// Snapshot-stability violations (must be 0).
    pub snapshot_violations: u64,
    /// Deadlocks broken by the stall watchdog.
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
             ({parks} parked), {stalls} stall breaks\n\
             workers     {waits} waits for work\n\
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
            parks = self.parks,
            waits = self.waits,
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
struct Service<'a> {
    gate: Mutex<Gate>,
    /// Workers with nothing ready or due wait here, on the gate, until
    /// [`Service::nudge`], a new earliest horizon or [`Service::stop`].
    work: Condvar,
    /// Per-session transaction streams, executed in order.
    sessions: &'a [Vec<TxnId>],
    mvcc: MvccStore,
    /// Set once every transaction has committed (or the deadline hit).
    shutdown: AtomicBool,
    /// The shutdown signal: [`Service::stop`] notifies it, and the GC
    /// thread, the snapshot readers and the watchdog wait on it between
    /// their ticks ([`Service::idle`]), so none sleeps past the drain.
    /// The mutex guards nothing but the wait.
    stopped: (Mutex<()>, Condvar),
    gc_folded: AtomicU64,
    gc_passes: AtomicU64,
    snapshot_checks: AtomicU64,
    snapshot_violations: AtomicU64,
}

impl<'a> Service<'a> {
    /// A service over `load`'s fresh instances, gated by `control`,
    /// before any thread starts. Every session's first transaction is
    /// ready, in session order.
    fn new(load: &'a ServeLoad, control: Box<dyn Control + Send>) -> Self {
        let workload = &load.workload;
        let txn_count = workload.txn_count();
        let sessions = &load.session_txns;
        let ready = (0..sessions.len())
            .filter_map(|s| session_item(sessions, s, 0))
            .collect();
        Service {
            gate: Mutex::new(Gate {
                world: World {
                    store: Store::new(workload.initial.iter().copied()),
                    instances: workload.instances(),
                    status: vec![TxnStatus::Idle; txn_count],
                    nest: workload.nest.clone(),
                },
                control,
                slots: (0..txn_count).map(|_| Slot::default()).collect(),
                queue: RunQueue {
                    ready,
                    ..RunQueue::default()
                },
                commits: 0,
                aborts: 0,
                cascade_undone_commits: 0,
                defers: 0,
                undo_epoch: 0,
                last_commit: Instant::now(),
                stall_breaks: 0,
                undo_floor: 0,
                pins: Vec::with_capacity(SNAPSHOT_READERS),
            }),
            work: Condvar::new(),
            sessions,
            mvcc: MvccStore::new(STORE_SHARDS, workload.initial.iter().copied()),
            shutdown: AtomicBool::new(false),
            stopped: (Mutex::new(()), Condvar::new()),
            gc_folded: AtomicU64::new(0),
            gc_passes: AtomicU64::new(0),
            snapshot_checks: AtomicU64::new(0),
            snapshot_violations: AtomicU64::new(0),
        }
    }

    /// One step attempt for `item` in the worker's gate hold. Returns the
    /// item if the step was granted and its transaction is still open:
    /// the worker keeps it. Otherwise the item goes back to the queue:
    /// after a commit, as its session's next transaction; after a
    /// deferral, parked on the blocker the scheduler named; after a
    /// rollback, or a deferral naming none, onto the backoff heap.
    fn step(&self, g: &mut Gate, item: Item) -> Option<Item> {
        let t = item.txn;
        if g.world.status[t.index()] == TxnStatus::Idle {
            g.world.status[t.index()] = TxnStatus::Running;
            g.slots[t.index()].started.get_or_insert_with(Instant::now);
        }
        // Decide loop: an Abort decision rolls its victims back and
        // *immediately* re-decides under the same gate lock. Dropping the
        // gate between the cascade and the retry is a livelock — the
        // restarted victim's worker re-admits its steps first and the
        // next decide names the same victim again. The gate is held, so
        // nothing can re-enter between cascade and re-decide; each
        // iteration either grants, defers, kills the requester, or
        // strictly shrinks the set of live victim records, so the loop
        // is bounded by the slot count. Each decide can be costly, so a
        // set `shutdown` ends the loop before the next one.
        for _round in 0..=g.slots.len() {
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            match g.control.decide(t, &g.world) {
                Decision::Grant => return self.grant(g, item),
                Decision::Defer => {
                    g.defers += 1;
                    let Some(&blocker) = g.control.blockers(t).first() else {
                        break;
                    };
                    debug_assert!(g.world.blocks(blocker, t), "a blocker that does not block");
                    g.queue.parks += 1;
                    g.queue.parked.entry(blocker).or_default().push(item);
                    return None;
                }
                Decision::Abort(victims) => {
                    if self.cascade_abort(g, &victims, t) {
                        break;
                    }
                    // Victims are gone and the gate never dropped:
                    // re-decide now, before their workers can re-admit.
                }
            }
        }
        if g.queue.back_off(item, Instant::now()) && g.queue.idle > 0 {
            // A waiting worker may be timed for a later horizon.
            self.work.notify_one();
        }
        None
    }

    /// Performs `item`'s granted step at a fresh ticket, installs its
    /// version and wakes the items its transaction no longer blocks.
    /// Returns the item unless the transaction committed.
    fn grant(&self, g: &mut Gate, mut item: Item) -> Option<Item> {
        let t = item.txn;
        let record = g.world.perform(t, g.control.as_mut());
        debug_assert_eq!(self.mvcc.latest(record.entity).1, record.observed);
        if record.wrote != record.observed {
            self.mvcc
                .install(record.entity, record.id + 1, t, record.wrote);
        }
        g.queue.wake(&g.world, t);
        if !g.world.is_committed(t) {
            item.strikes = 0;
            return Some(item);
        }
        // One clock read serves the latency sample and the stall
        // breaker's clock.
        let now = Instant::now();
        let slot = &mut g.slots[t.index()];
        let started = slot.started.expect("started at first attempt");
        slot.latency_us = Some(now.duration_since(started).as_micros() as u64);
        g.commits += 1;
        g.last_commit = now;
        let next = item
            .session
            .and_then(|(s, i)| session_item(self.sessions, s, i + 1));
        g.queue.ready.extend(next);
        if g.commits == g.slots.len() as u64 {
            self.stop(g);
        }
        None
    }

    /// Wakes one waiting worker if work is ready. Called at the end of
    /// every hold that can make work ready; the woken worker calls it
    /// again after taking its item, so each ready item finds a worker.
    fn nudge(&self, g: &Gate) {
        if g.queue.idle > 0 && !g.queue.ready.is_empty() {
            self.work.notify_one();
        }
    }

    /// Takes the next item for a worker that holds none: the oldest
    /// ready one, else the first whose backoff ended. With neither, the
    /// worker waits on `work` until a hold makes one ready, the earliest
    /// horizon passes or the drain ends. `None` once `shutdown` is set.
    fn next_item<'g>(
        &'g self,
        mut g: MutexGuard<'g, Gate>,
    ) -> Option<(MutexGuard<'g, Gate>, Item)> {
        loop {
            // Checked under the gate, which `stop` holds while it
            // notifies: a shutdown between this check and the wait below
            // is not missed.
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            let timeout = match g.queue.take(Instant::now) {
                Ok(item) => return Some((g, item)),
                Err(timeout) => timeout,
            };
            g.queue.idle += 1;
            g.queue.waits += 1;
            g = match timeout {
                Some(t) => self.work.wait_timeout(g, t).expect("gate poisoned").0,
                None => self.work.wait(g).expect("gate poisoned"),
            };
            g.queue.idle -= 1;
        }
    }

    /// Sets `shutdown` and wakes every waiting thread: the helpers in
    /// [`Service::idle`] and the workers on `work`, whose wait the held
    /// gate orders after their check of the flag.
    fn stop(&self, _held: &Gate) {
        self.shutdown.store(true, Ordering::Release);
        let _wait = self.stopped.0.lock().expect("shutdown lock poisoned");
        self.stopped.1.notify_all();
        self.work.notify_all();
    }

    /// Waits out one helper tick of `timeout`, returning early at
    /// shutdown.
    fn idle(&self, timeout: Duration) {
        let wait = self.stopped.0.lock().expect("shutdown lock poisoned");
        // The flag is checked under the lock that `stop` notifies under,
        // so a shutdown between the check and the wait is not missed.
        let _wait = self
            .stopped
            .1
            .wait_timeout_while(wait, timeout, |_| !self.shutdown.load(Ordering::Acquire))
            .expect("shutdown lock poisoned");
    }

    /// Rolls back `victims` through the journal's undo cascade, pops
    /// every undone version, newest first, so each removal is a
    /// chain-head pop, and wakes every parked item. Returns whether
    /// `requester` was rolled back.
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
        g.commits -= had_committed.len() as u64;
        g.cascade_undone_commits += had_committed.len() as u64;
        g.queue.wake_all();
        // Tentatively-committed victims re-run as items of their own
        // (their sessions have moved on).
        g.queue
            .ready
            .extend(had_committed.into_iter().map(|txn| Item {
                txn,
                session: None,
                strikes: 0,
            }));
        rollback.contains(requester)
    }

    /// One GC pass: fold versions no snapshot and no undo can reach.
    /// The frontier is computed under the gate, which also guards the
    /// reader pins; the fold runs outside it. The undo floor is record
    /// ids, tickets are ids + 1.
    fn gc_pass(&self) {
        let frontier = {
            let mut g = self.gate.lock().expect("gate poisoned");
            let g = &mut *g;
            let running: Vec<TxnId> = g.world.txns_with_status(TxnStatus::Running).collect();
            g.undo_floor = g.world.store.undo_floor(running);
            g.pins.iter().copied().fold(g.undo_floor + 1, u64::min)
        };
        let folded = self.mvcc.gc_before(frontier);
        self.gc_folded.fetch_add(folded as u64, Ordering::Relaxed);
        self.gc_passes.fetch_add(1, Ordering::Relaxed);
    }

    /// The stall breaker: when no commit has landed for `timeout`,
    /// force-abort the running transaction with the fewest performed
    /// steps (cheapest undo), which also wakes every parked item. It is
    /// the backstop for a wait the scheduler's waits-for graph cannot
    /// see (DESIGN §9.4).
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
            self.nudge(&g);
        }
        // Restart the clock either way: one stall, one break.
        g.last_commit = Instant::now();
    }

    /// One snapshot-stability probe: pin a ticket, read every entity at
    /// it twice with GC running in between, and require identical values
    /// unless an undo cascade intervened (uncommitted data is visible by
    /// design, so aborts legitimately change history — GC never may).
    fn snapshot_probe(&self, entities: &[EntityId]) {
        let (at, epoch_before) = self.pin();
        let first: Vec<Value> = entities.iter().map(|&e| self.mvcc.read_at(e, at)).collect();
        std::thread::yield_now();
        let second: Vec<Value> = entities.iter().map(|&e| self.mvcc.read_at(e, at)).collect();
        let epoch_after = self.unpin(at);
        self.snapshot_checks.fetch_add(1, Ordering::Relaxed);
        if epoch_before == epoch_after && first != second {
            self.snapshot_violations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Pins the newest drawn ticket in one gate hold. Returns it with
    /// the undo epoch at the pin.
    fn pin(&self) -> (u64, u64) {
        let mut g = self.gate.lock().expect("gate poisoned");
        // Always exact: every fold keeps `base_ticket < frontier ≤ next
        // ticket`, so the newest already-drawn ticket reads correctly no
        // matter how much GC has folded — and strictly below the next
        // ticket, no later install can land at it.
        let at = g.world.store.next_id();
        g.pins.push(at);
        (at, g.undo_epoch)
    }

    /// Releases one pin at `at` in one gate hold. Returns the undo epoch
    /// at the release.
    fn unpin(&self, at: u64) -> u64 {
        let mut g = self.gate.lock().expect("gate poisoned");
        let i = g
            .pins
            .iter()
            .position(|&p| p == at)
            .expect("unpin without a pin");
        g.pins.swap_remove(i);
        g.undo_epoch
    }
}

/// Worker main loop: one step attempt per gate hold, on the item the
/// worker keeps while its transaction progresses, or else on the next
/// item [`Service::next_item`] hands it (waiting for one if need be).
///
/// Keeping a progressing item is what makes a lone worker run each
/// transaction start to finish: with one worker, one transaction is
/// open at a time and nothing defers. Giving the item up on a deferral
/// is what lets a blocker's worker run; the item parks on the blocker
/// and returns to the ready queue when the blocker's grant, commit or
/// rollback ends the block (DESIGN §9.1 argues the wake rule).
fn worker_loop(service: &Service) {
    let mut kept = None;
    loop {
        let g = service.gate.lock().expect("gate poisoned");
        let (mut g, item) = match kept {
            Some(item) if !service.shutdown.load(Ordering::Acquire) => (g, item),
            _ => match service.next_item(g) {
                Some(next) => next,
                None => return,
            },
        };
        kept = service.step(&mut g, item);
        service.nudge(&g);
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
    ServeReport {
        cert_wall,
        certified,
        ..serve(load, config, control)
    }
}

/// The drain behind [`run`], gated by `control`.
fn serve(load: &ServeLoad, config: &ServeConfig, control: Box<dyn Control + Send>) -> ServeReport {
    let workload = &load.workload;
    let sessions = load.session_txns.len();
    let workers = config.workers.max(1).min(sessions.max(1));

    // The entity universe (snapshot probes scan it).
    let mut entities: Vec<EntityId> = workload
        .programs
        .iter()
        .flat_map(|p| p.footprint())
        .chain(workload.initial.iter().map(|&(e, _)| e))
        .collect();
    entities.sort_unstable();
    entities.dedup();

    let service = Service::new(load, control);

    let started = Instant::now();
    let deadline = config.deadline;
    let clean = std::thread::scope(|scope| {
        let service = &service;
        let worker_threads: Vec<_> = (0..workers)
            .map(|_| scope.spawn(move || worker_loop(service)))
            .collect();
        if let Some(interval) = config.gc_interval {
            scope.spawn(move || {
                while !service.shutdown.load(Ordering::Acquire) {
                    service.gc_pass();
                    service.idle(interval);
                }
            });
        }
        for _ in 0..SNAPSHOT_READERS {
            let entities = entities.clone();
            scope.spawn(move || {
                while !service.shutdown.load(Ordering::Acquire) {
                    service.snapshot_probe(&entities);
                    service.idle(Duration::from_micros(200));
                }
            });
        }
        // Deadline watchdog: force shutdown so the scope can join, and
        // break stalls. It ticks every millisecond and wakes at once
        // when the drain ends.
        let mut clean = true;
        let mut ticks = 0u32;
        while !service.shutdown.load(Ordering::Acquire) {
            if started.elapsed() > deadline {
                clean = false;
                // Raised before queueing for the gate, so a long decide
                // loop ends at its next round.
                service.shutdown.store(true, Ordering::Release);
                service.stop(&service.gate.lock().expect("gate poisoned"));
                break;
            }
            ticks = ticks.wrapping_add(1);
            if ticks.is_multiple_of(32) {
                service.break_stall();
            }
            service.idle(Duration::from_millis(1));
        }
        for w in worker_threads {
            w.join().expect("worker panicked");
        }
        clean
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
        parks: g.queue.parks,
        waits: g.queue.waits,
        wall,
        cert_wall: Duration::ZERO,
        certified: false,
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

    fn prevent_service(load: &ServeLoad) -> Service<'_> {
        let wl = &load.workload;
        let control = MlaPrevent::new(wl.txn_count(), wl.spec(), mla_cc::VictimPolicy::FewestSteps);
        Service::new(load, Box::new(control))
    }

    /// Takes every ready item, which must number `N`, oldest first.
    fn take_ready<const N: usize>(service: &Service) -> [Item; N] {
        let mut g = service.gate.lock().unwrap();
        let ready: Vec<Item> = g.queue.ready.drain(..).collect();
        ready.try_into().expect("ready items")
    }

    /// One step attempt on `item` in one gate hold, as a worker makes
    /// it. Returns the item if the worker keeps it.
    fn hold(service: &Service, item: Item) -> Option<Item> {
        service.step(&mut service.gate.lock().unwrap(), item)
    }

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
    fn a_backoff_doubles_to_6_4_ms_and_reads_the_clock_only_when_nothing_is_ready() {
        let now = Instant::now();
        let us = Duration::from_micros;
        let item = |t| Item {
            txn: TxnId(t),
            session: None,
            strikes: 0,
        };
        let mut queue = RunQueue::default();
        // Each rollback or blocker-less deferral doubles the backoff,
        // from 100 µs up to 6.4 ms.
        let mut backing = item(0);
        let mut spans = Vec::new();
        for _ in 0..9 {
            queue.back_off(backing, now);
            let Reverse((at, again)) = queue.horizons.pop().unwrap();
            spans.push(at - now);
            backing = again;
        }
        let doubled = [100, 200, 400, 800, 1_600, 3_200, 6_400, 6_400, 6_400];
        assert_eq!(spans, doubled.map(us));
        // Ready items come first, without a clock read; then the
        // earliest horizon, once it has passed.
        assert!(queue.back_off(item(1), now));
        assert!(!queue.back_off(item(2), now + us(1_000)));
        queue.ready.push_back(item(3));
        assert_eq!(queue.take(|| unreachable!("an item is ready")), Ok(item(3)));
        assert_eq!(queue.take(|| now), Err(Some(us(100))));
        let due = Item {
            strikes: 1,
            ..item(1)
        };
        assert_eq!(queue.take(|| now + us(100)), Ok(due));
        assert_eq!(queue.take(|| now + us(100)), Err(Some(us(1_000))));
        queue.horizons.clear();
        assert_eq!(queue.take(|| unreachable!("no horizon")), Err(None));
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

    /// Grants every step except those after the first of the two
    /// transactions in `pair`, which wait for each other once both have
    /// started: a standoff that no grant ends, so a drain under it can
    /// never finish.
    struct Standoff {
        pair: [TxnId; 2],
        named: Vec<TxnId>,
    }

    impl Control for Standoff {
        fn name(&self) -> &'static str {
            "standoff"
        }

        fn decide(&mut self, txn: TxnId, world: &World) -> Decision {
            if !self.pair.contains(&txn) || world.instance(txn).seq() == 0 {
                return Decision::Grant;
            }
            let other = self.pair[usize::from(self.pair[0] == txn)];
            self.named = Vec::from_iter(Some(other).filter(|&o| world.blocks(o, txn)));
            Decision::Defer
        }

        fn blockers(&self, _txn: TxnId) -> Vec<TxnId> {
            self.named.clone()
        }
    }

    #[test]
    fn a_missed_deadline_returns_promptly() {
        // Sessions 0 and 1 stall at two audits (transactions 1 and 4)
        // parked on each other; sessions 2 and 3 drain. With nothing
        // ready or backing off, both workers wait on the gate's
        // condition variable with no timeout, and the stall breaker's
        // rollbacks only re-run the standoff. So the drain misses its
        // deadline by construction, and `run` returns only if stopping
        // the service wakes the waiting workers.
        let deadline = Duration::from_millis(300);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let load = contended_load(4, 4, 4, 2);
            let config = ServeConfig {
                workers: 2,
                deadline,
                ..ServeConfig::default()
            };
            let standoff = Standoff {
                pair: [TxnId(1), TxnId(4)],
                named: Vec::new(),
            };
            tx.send(serve(&load, &config, Box::new(standoff))).ok();
        });
        let report = rx
            .recv_timeout(deadline + Duration::from_secs(10))
            .expect("the service never returned: a worker slept through the deadline");
        assert!(!report.clean, "{}", report.render());
        assert!(
            report.wall < deadline + Duration::from_secs(1),
            "overshoot {:?}: {}",
            report.wall - deadline,
            report.render()
        );
        assert_eq!(report.committed, 9, "{}", report.render());
        assert!(report.parks > 0 && report.waits > 0, "{}", report.render());
    }

    #[test]
    fn a_drain_ends_without_waiting_out_a_helper_tick() {
        // The GC thread ticks every 2 s, far longer than this drain. It
        // waits on the shutdown signal, so `run` returns when the last
        // commit lands, not at the GC thread's next tick.
        let load = contended_load(16, 64, 16, 8);
        let config = ServeConfig {
            sched: SchedKind::Prevent,
            workers: 1,
            gc_interval: Some(Duration::from_secs(2)),
            deadline: Duration::from_secs(30),
            ..ServeConfig::default()
        };
        let report = run(&load, &config);
        assert!(report.clean, "{}", report.render());
        assert_eq!(report.committed, 16 * 64, "{}", report.render());
        assert!(report.wall < Duration::from_secs(1), "{}", report.render());
        // A lone worker keeps each transaction until it commits, so one
        // is open at a time: nothing defers and the queue is never empty
        // before the last commit.
        assert_eq!(
            (report.defers, report.parks, report.waits),
            (0, 0, 0),
            "{}",
            report.render()
        );
        assert!(report.render().contains("waits for work"));
    }

    #[test]
    fn a_live_pin_holds_the_fold_at_its_ticket() {
        // One session of four transfers over two accounts: every step
        // changes a value, so each of the 8 tickets installs a version.
        let load = contended_load(1, 4, 2, 0);
        let service = prevent_service(&load);
        let commit = |t: u32| {
            let [mut item] = take_ready(&service);
            assert_eq!(item.txn, TxnId(t));
            while let Some(kept) = hold(&service, item) {
                item = kept;
            }
        };
        let accounts = [EntityId(0), EntityId(1)];
        commit(0);
        commit(1);
        let (at, _) = service.pin();
        assert_eq!(at, 4);
        let pinned: Vec<Value> = accounts
            .iter()
            .map(|&e| service.mvcc.read_at(e, at))
            .collect();
        commit(2);
        commit(3);
        // Nothing runs, so the undo floor alone would fold all 8
        // versions; the pin stops the fold at its ticket.
        service.gc_pass();
        assert_eq!(service.gc_folded.load(Ordering::Relaxed), 3);
        assert_eq!(service.mvcc.version_count(), 5, "tickets 4..=8 stay");
        for (&e, &v) in accounts.iter().zip(&pinned) {
            assert_eq!(service.mvcc.read_at(e, at), v);
        }
        // Released, the pin no longer holds the next pass back.
        service.unpin(at);
        service.gc_pass();
        assert_eq!(service.gc_folded.load(Ordering::Relaxed), 8);
        assert_eq!(service.mvcc.version_count(), 0);
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

    #[test]
    fn a_transfer_parked_behind_an_audit_wakes_once_at_its_commit() {
        // Session 0 runs one transfer out of account 0, session 1 one
        // audit of all four accounts, atomic against everything.
        let load = contended_load(2, 1, 4, 2);
        let service = prevent_service(&load);
        let [transfer, audit] = take_ready(&service);
        assert_eq!((transfer.txn, audit.txn), (TxnId(0), TxnId(1)));
        // Once the audit has read account 0, the transfer's withdrawal
        // from it must wait for the audit's end.
        let mut audit = hold(&service, audit).expect("a read progresses");
        assert_eq!(hold(&service, transfer), None);
        {
            let g = service.gate.lock().unwrap();
            assert_eq!(g.queue.parks, 1);
            assert_eq!(g.queue.parked.get(&audit.txn), Some(&vec![transfer]));
        }
        // The next two reads leave the audit open and the transfer
        // parked.
        for _ in 0..2 {
            audit = hold(&service, audit).expect("a read progresses");
            let g = service.gate.lock().unwrap();
            assert!(g.queue.ready.is_empty());
            assert_eq!(g.queue.parked.get(&audit.txn), Some(&vec![transfer]));
        }
        // The last read commits the audit and wakes the transfer, once.
        assert_eq!(hold(&service, audit), None);
        {
            let g = service.gate.lock().unwrap();
            assert!(g.queue.parked.is_empty());
            assert_eq!(g.queue.ready, [transfer]);
        }
        let [transfer] = take_ready(&service);
        let transfer = hold(&service, transfer).expect("the withdrawal is granted");
        assert_eq!(hold(&service, transfer), None);
        let g = service.gate.lock().unwrap();
        assert_eq!((g.commits, g.defers, g.queue.parks), (2, 1, 1));
    }

    /// Two sessions of one three-step transfer each, over accounts 0, 1
    /// and 2 in one π(2) class, with a level-2 breakpoint after the
    /// second step.
    fn relay_load() -> ServeLoad {
        use mla_model::program::{ScriptOp::Add, ScriptProgram};
        use mla_txn::{PhaseTable, RuntimeBreakpoints};
        use std::sync::Arc;
        let k = 3;
        let bp: Arc<dyn RuntimeBreakpoints> = Arc::new(PhaseTable::new(k, [(2, 2)]));
        let relay = Arc::new(ScriptProgram::new(vec![
            Add(EntityId(0), -1),
            Add(EntityId(1), 1),
            Add(EntityId(2), 1),
        ]));
        ServeLoad {
            workload: mla_workload::Workload {
                name: "relay".into(),
                nest: mla_core::nest::Nest::new(k, vec![vec![0], vec![0]]).unwrap(),
                programs: vec![relay.clone(), relay],
                breakpoints: vec![bp.clone(), bp],
                initial: (0..3).map(|a| (EntityId(a), 100)).collect(),
                arrivals: vec![0, 0],
            },
            session_txns: vec![vec![TxnId(0)], vec![TxnId(1)]],
            initial_total: 300,
        }
    }

    /// Drives [`relay_load`] until transaction 1 is parked behind
    /// transaction 0's first step; returns transaction 0's kept item.
    fn park_behind_a_first_step(service: &Service) -> (Item, Item) {
        let [first, second] = take_ready(service);
        let first = hold(service, first).expect("the first step is granted");
        assert_eq!(hold(service, second), None);
        let g = service.gate.lock().unwrap();
        assert_eq!(g.queue.parked.get(&first.txn), Some(&vec![second]));
        (first, second)
    }

    #[test]
    fn a_transfer_parked_behind_a_first_step_wakes_at_the_level_2_breakpoint() {
        let load = relay_load();
        let service = prevent_service(&load);
        let (first, second) = park_behind_a_first_step(&service);
        // The second step ends the blocker's level-2 segment: the
        // waiter wakes there, before the blocker commits.
        let first = hold(&service, first).expect("the second step is granted");
        {
            let g = service.gate.lock().unwrap();
            assert!(g.queue.parked.is_empty());
            assert_eq!(g.queue.ready, [second]);
            assert_eq!(g.commits, 0);
        }
        let [second] = take_ready(&service);
        assert!(
            hold(&service, second).is_some(),
            "the woken step is granted"
        );
        assert_eq!(hold(&service, first), None);
        assert_eq!(service.gate.lock().unwrap().commits, 1);
    }

    #[test]
    fn rolling_the_blocker_back_wakes_its_waiter() {
        let load = relay_load();
        let service = prevent_service(&load);
        let (first, second) = park_behind_a_first_step(&service);
        let mut g = service.gate.lock().unwrap();
        assert!(service.cascade_abort(&mut g, &[first.txn], first.txn));
        assert!(g.queue.parked.is_empty());
        assert_eq!(g.queue.ready, [second]);
    }

    #[test]
    fn a_lone_worker_runs_each_transaction_start_to_finish() {
        let load = contended_load(16, 16, 16, 8);
        for sched in [SchedKind::Detect, SchedKind::Prevent] {
            let report = quick(sched, &load, 1);
            assert!(report.clean, "{}", report.render());
            assert_eq!(report.committed, 256, "{}", report.render());
            // Every transaction's steps are contiguous in ticket order.
            let mut runs: Vec<TxnId> = report.history.iter().map(|s| s.txn).collect();
            runs.dedup();
            assert_eq!(runs.len(), 256, "{}", report.render());
        }
    }
}
