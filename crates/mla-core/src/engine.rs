//! Online maintenance of the coherent closure — the incremental engine
//! behind the §6 schedulers.
//!
//! [`CoherentClosure::compute`](crate::closure::CoherentClosure::compute)
//! rebuilds the whole frontier matrix from scratch for every execution it
//! is handed; a scheduler calling it once per decision pays `O(n² · T)`
//! *per step*. [`ClosureEngine`] maintains the same fixpoint *across*
//! decisions and charges each decision only for the rows its new step
//! actually disturbs:
//!
//! * [`ClosureEngine::apply_step`] appends one tentative step and runs a
//!   worklist fixpoint seeded with exactly the rows the append can
//!   affect. It returns `Ok(())` — leaving the step pending — or a
//!   concrete [`CycleWitness`] after rolling the attempt back.
//! * [`ClosureEngine::commit_step`] / [`ClosureEngine::rollback_step`]
//!   resolve a pending step. Rollback replays an undo journal, so a
//!   deferred or rejected candidate costs only the work its own fixpoint
//!   did.
//! * [`ClosureEngine::evict`] projects a committed transaction out of the
//!   maintained state, touching only the rows that hold its column.
//!   [`ClosureEngine::retire_unreachable`] runs the eviction pass and
//!   shows its caller the retired batch's rows first, so `mla-check`
//!   reads each batch's Lemma 1 witness off the maintained closure.
//! * [`ClosureEngine::remove_txns`] handles aborts by *delete and
//!   rederive* (Gupta, Mumick and Subrahmanian, "Maintaining Views
//!   Incrementally", SIGMOD 1993): only the rows that held the victim's
//!   column are reset to their base pairs and re-closed.
//!
//! No maintenance path recomputes the window. [`ClosureEngine::rebuild`]
//! rederives every live row at once; it is the reference the engine
//! tests compare the incremental paths against, and nothing else calls
//! it.
//!
//! # How incrementality stays sound
//!
//! The engine keeps two structures in lockstep:
//!
//! 1. the **frontier matrix** `m[v][t]` of
//!    [`CoherentClosure`](crate::closure::CoherentClosure), updated
//!    monotonically by the same three rules (base edges, condition-(b)
//!    segment lift, transitivity through the frontier step);
//! 2. an [`IncrementalTopo`] holding one edge per maintained frontier
//!    entry plus each transaction's intra chain. Reachability in this
//!    graph equals the closure relation at fixpoint, so Pearce–Kelly edge
//!    insertion is an *authoritative online acyclicity check*: the first
//!    frontier increment that would relate a step before itself is
//!    rejected with a real cycle path, which becomes the
//!    [`CycleWitness`].
//!
//! The topo is also the dependency index. A row's topo predecessors are
//! exactly the rows it unions (its frontier steps and its intra
//! predecessor), so when a row grows the worklist re-runs its topo
//! successors in other transactions. Its successor in its own chain needs
//! no re-run: a row gains only what an append brings in, through the new
//! row (the last of its chain), a segment extension (below, which seeds
//! every row that sat at the old segment end, later rows of a chain
//! included) or a grown cross-transaction frontier step, and the later
//! rows of the chain hold that transaction at the same step or a later
//! one, whose growth re-triggers them. The topo is exact under rollback,
//! removal, eviction and compaction. A row whose frontier on `t` moved
//! from `u` to a later step `u'` of `t` is no longer `u`'s successor, and
//! need not be: what reaches `u` reaches `u'`, and `u'` re-triggers the
//! row.
//!
//! The only other cross-row trigger an append needs is the
//! condition-(b) *segment extension*: when transaction `t'` performs step
//! `s`, a row `v` of another transaction can gain `(t', s)` only if its
//! frontier already sat at `s - 1` — the previous end of `t'`'s last
//! segment (the §6 breakpoint-compatibility condition guarantees earlier
//! segments never change). Those rows are exactly the topo successors of
//! `t'`'s previous step, which seed the worklist together with the new
//! row.
//!
//! # Invariants
//!
//! * Committed engine state is always acyclic; cyclic candidates never
//!   commit (they are rolled back inside [`ClosureEngine::apply_step`]).
//! * For every live row `v` and transaction column `t` with
//!   `m[v][t] != NONE`, the topo contains the edge
//!   `steps_of(t)[m[v][t]] -> v` (or `v` is that step itself). So the
//!   rows holding column `t` are the topo successors of `t`'s rows.
//! * **Rederive.** The maintained frontier is always the batch closure of
//!   the live steps. Removing transaction `x` only shrinks it, and a row
//!   without column `x` keeps its row: every rule it used read rows that
//!   lack `x` too. So [`ClosureEngine::remove_txns`] resets the rows that
//!   hold a victim's column to their base pairs (their same-entity
//!   predecessor recomputed without the victims' rows), detaches the
//!   victims' topo nodes and reruns the worklist fixpoint from those rows
//!   alone; a rollback cascade's victims go together. The old
//!   topological order stays valid for the smaller relation, so
//!   re-closing inserts no edge against it.
//! * **Compaction.** A dead row or column is emptied at once: its cells
//!   are cleared, it leaves its entity's list and its topo node is
//!   detached. Once dead rows outnumber live ones (and 64), the arena is
//!   renumbered in place, no recomputation: rows keep performance order,
//!   columns first-appearance order, the topo its edge-list order and
//!   relative order. Every fixpoint and search then visits the same steps
//!   in the same order as before, so compaction never moves a decision,
//!   and decisions do not depend on which dead rows an engine happens to
//!   hold — an engine that never saw a certified transaction decides as
//!   one that did. (Reusing freed slots instead made witnesses, and the
//!   victims they name, depend on maintenance history.)
//! * **Finish.** A new column is an eviction source until its host calls
//!   [`ClosureEngine::finish_txn`] (a commit, or the last recorded step of
//!   an audited history). After an eviction pass every live column is a
//!   source or reached from one; only a lost source — a finish or a
//!   removal — can break that, so [`ClosureEngine::evict_unreachable`]
//!   returns at once unless one happened since the last pass.
//! * Breakpoint descriptions are *extended* per append, never rebuilt.
//!   By the §6 compatibility condition the description of a prefix is a
//!   prefix of the description of every extension, so appending step `s`
//!   adds only the boundary before `s`: one
//!   [`boundary_level`](BreakpointSpecification::boundary_level) call
//!   on the *stored* steps, whose values [`ClosureEngine::performed`]
//!   keeps in sync with the store, so a position-based specification
//!   sees exactly what the batch checker would. A rollback pops the step
//!   again. Specifications that break compatibility, or whose
//!   description depends on the last step's values, are outside the
//!   engine's contract: debug builds check every extension against
//!   `describe`, and every backfill too.
//! * Appends, rollbacks, removals and eviction passes allocate nothing of
//!   their own in steady state. Columns, rows and entity lists keep their
//!   buffers when they are rolled back or emptied, and so do the worklist,
//!   the eviction pass (its evicted set and a retired batch's rows
//!   included) and the topo's
//!   Pearce–Kelly searches. What is left is amortised growth and the
//!   witness of a rejected step: `tests/engine_allocations.rs` holds a
//!   banking replay under `MlaDetect` to two allocations per applied step
//!   in release builds.
//! * Every frontier row keeps an occupancy mask beside its cells: bit
//!   `t` is set iff `m[v][t] != NONE`. The one cell writer keeps the two
//!   in step, so journal rollback, removals and eviction keep it too, and
//!   debug builds check it after each of them. The closure pass over a
//!   row, the pointwise union, the eviction pass, [`ClosureEngine::evict`]
//!   and [`ClosureEngine::pending_predecessors`] walk rows through their
//!   masks, so a row costs O(its non-empty cells), not O(columns).

use std::collections::{HashMap, VecDeque};

use mla_graph::topo::Cycle;
use mla_graph::{DenseMap, IncrementalTopo};
use mla_model::{Execution, Step, TxnId};

use crate::breakpoints::BreakpointDescription;
use crate::extend::FrontierView;
use crate::nest::Nest;
use crate::spec::BreakpointSpecification;

/// Sentinel for "no related predecessor from this transaction".
const NONE: i64 = -1;

/// The frontier matrix `m[v][t]` in one flat buffer: row `v` starts at
/// `v * stride`, and the stride doubles when a new column does not fit,
/// so appending a row or a column allocates only on growth. Cells past
/// the column count hold `NONE`.
///
/// Each row also keeps an occupancy mask of `words` `u64`s at
/// `v * words`: bit `t` is set iff `m[v][t] != NONE`. [`set`](Self::set)
/// keeps the two in step, so the undo journal restores both. The
/// closure passes walk a row through its mask and pay for its non-empty
/// cells only; the cells stay dense, so a lookup is still one load.
#[derive(Clone, Debug, PartialEq)]
struct Frontier {
    cells: Vec<i64>,
    masks: Vec<u64>,
    stride: usize,
    words: usize,
    cols: usize,
}

impl Default for Frontier {
    fn default() -> Self {
        Frontier {
            cells: Vec::new(),
            masks: Vec::new(),
            stride: 8,
            words: 1,
            cols: 0,
        }
    }
}

impl Frontier {
    fn row(&self, v: usize) -> &[i64] {
        &self.cells[v * self.stride..][..self.cols]
    }

    fn get(&self, v: usize, t: usize) -> i64 {
        self.cells[v * self.stride + t]
    }

    fn set(&mut self, v: usize, t: usize, s: i64) {
        self.cells[v * self.stride + t] = s;
        let word = &mut self.masks[v * self.words + t / 64];
        if s == NONE {
            *word &= !(1 << (t % 64));
        } else {
            *word |= 1 << (t % 64);
        }
    }

    /// Row `v`'s occupancy mask.
    fn mask(&self, v: usize) -> &[u64] {
        &self.masks[v * self.words..][..self.words]
    }

    /// Whether `m[v][t] != NONE`, read from the mask.
    fn has(&self, v: usize, t: usize) -> bool {
        self.mask(v)[t / 64] >> (t % 64) & 1 == 1
    }

    /// The first column at or after `from` where row `v` is not `NONE`,
    /// read from the row as it is now.
    fn next_col(&self, v: usize, from: usize) -> Option<usize> {
        let mask = self.mask(v);
        let mut w = from / 64;
        let mut bits = *mask.get(w)? & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *mask.get(w)?;
        }
    }

    fn push_row(&mut self) {
        self.cells.resize(self.cells.len() + self.stride, NONE);
        self.masks.resize(self.masks.len() + self.words, 0);
    }

    fn pop_row(&mut self) {
        self.cells.truncate(self.cells.len() - self.stride);
        self.masks.truncate(self.masks.len() - self.words);
    }

    fn push_col(&mut self) {
        if self.cols == self.stride {
            let stride = 2 * self.stride;
            let mut cells = vec![NONE; self.cells.len() * 2];
            for (old, new) in self.cells.chunks(self.stride).zip(cells.chunks_mut(stride)) {
                new[..self.stride].copy_from_slice(old);
            }
            self.cells = cells;
            self.stride = stride;
            let words = stride.div_ceil(64);
            if words != self.words {
                let mut masks = vec![0; self.masks.len() / self.words * words];
                for (old, new) in self.masks.chunks(self.words).zip(masks.chunks_mut(words)) {
                    new[..self.words].copy_from_slice(old);
                }
                self.masks = masks;
                self.words = words;
            }
        }
        self.cols += 1;
    }

    /// Drops the last column, whose raises the journal already undid.
    fn pop_col(&mut self) {
        self.cols -= 1;
        debug_assert!(self.cells.chunks(self.stride).all(|r| r[self.cols] == NONE));
    }

    /// Moves every row `v` to `rows[v]` and every column `t` to
    /// `cols[t]`, in place, keeping `live` rows and `kept` columns.
    /// Both maps are increasing onto their kept range, and dropped rows
    /// and columns hold no cells, so a cell only ever moves to a slot
    /// already emptied.
    fn renumber(&mut self, rows: &[u32], cols: &[u32], live: usize, kept: usize) {
        for (v, &to) in rows.iter().enumerate() {
            if to == u32::MAX {
                continue;
            }
            let to = to as usize;
            for w in 0..self.words {
                let bits = std::mem::take(&mut self.masks[v * self.words + w]);
                for t in ones(&[bits]).map(|t| w * 64 + t) {
                    let s = std::mem::replace(&mut self.cells[v * self.stride + t], NONE);
                    self.set(to, cols[t] as usize, s);
                }
            }
        }
        self.cols = kept;
        self.cells.truncate(live * self.stride);
        self.masks.truncate(live * self.words);
    }

    /// Empties row `v`, whose undone or dropped raises left no journal
    /// entry to restore.
    fn clear_row(&mut self, v: usize) {
        let cells = &mut self.cells[v * self.stride..];
        for (w, word) in self.masks[v * self.words..][..self.words]
            .iter_mut()
            .enumerate()
        {
            while *word != 0 {
                cells[w * 64 + word.trailing_zeros() as usize] = NONE;
                *word &= *word - 1;
            }
        }
    }

    /// Debug builds: every row's mask mirrors its cells.
    fn debug_check_masks(&self) {
        if cfg!(debug_assertions) {
            for (v, row) in self.cells.chunks(self.stride).enumerate() {
                for (t, &s) in row.iter().enumerate() {
                    assert_eq!(
                        self.has(v, t),
                        s != NONE,
                        "frontier mask out of step at [{v}][{t}]"
                    );
                }
            }
        }
    }
}

/// The set bits of a mask, ascending.
fn ones(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let t = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                t
            })
        })
    })
}

/// Work counters the engine accumulates; schedulers surface these as
/// decision-cost metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Steps offered via [`ClosureEngine::apply_step`] (including
    /// rejected and rolled-back ones, excluding rebuild replays).
    pub steps_applied: u64,
    /// Closure edges inserted into the incremental topological order
    /// (frontier increments), including those re-inserted by removals
    /// and rebuilds.
    pub edges_inserted: u64,
    /// Worklist rows processed across all fixpoints — the per-decision
    /// work measure.
    pub rows_touched: u64,
    /// Full rebuilds performed. Only [`ClosureEngine::rebuild`] counts
    /// one, and no scheduler calls it, so this is zero outside the
    /// engine tests.
    pub rebuilds: u64,
    /// Tentative steps rolled back (cycle rejections and scheduler
    /// defers).
    pub rollbacks: u64,
    /// Full reachability passes of
    /// [`ClosureEngine::evict_unreachable`]; the other calls returned
    /// early because no source was lost since the last pass.
    pub evict_scans: u64,
}

/// A placeholder with no producer: the closure engine is serial, so no
/// engine reports worker-pool statistics. It exists only because the
/// `parallel_stats` forwarder in `perfbench/src/adapter.rs` names it;
/// it goes together with that forwarder and
/// `mla_sim::Control::parallel_stats`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParallelStats;

/// A stable-identity snapshot of the maintained relation: for each live
/// step `(txn, seq)`, the frontier entries `(other_txn, frontier_seq)`
/// over columns that still have live rows, everything sorted. Two
/// engines hold the same relation iff their signatures are equal —
/// regardless of arena row order or column creation order, which differ
/// legitimately between schedules that perform the same steps.
pub type RelationSignature = Vec<((u32, u32), Vec<(u32, i64)>)>;

/// Outcome of a two-step commutativity probe
/// ([`ClosureEngine::probe_pair`]). The probe is fully rolled back
/// before this is returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairProbe {
    /// Whether the first step was granted.
    pub first_ok: bool,
    /// Whether the second step was granted (after the first).
    pub second_ok: bool,
    /// The relation signature after both steps, when both were granted.
    pub signature: Option<RelationSignature>,
}

/// A concrete closure cycle reported by [`ClosureEngine::apply_step`],
/// already translated from arena rows to stable step identities (the
/// tentative row is rolled back before this is returned).
#[derive(Clone, Debug)]
pub struct CycleWitness {
    /// The cycle as `(transaction, seq)` pairs in path order; consecutive
    /// entries (wrapping around) are related by the closure.
    pub steps: Vec<(TxnId, u32)>,
    /// Distinct transactions on the cycle, ascending — the scheduler's
    /// victim candidates.
    pub txns: Vec<TxnId>,
}

/// Undo-journal entries for one tentative [`ClosureEngine::apply_step`].
/// Replayed in reverse by [`ClosureEngine::rollback_step`].
#[derive(Clone)]
enum Op {
    /// `txns`/`local` grew by one, the column took its (empty) step list
    /// and description, and every frontier row gained a trailing column.
    NewTxn,
    /// The step arena (and all row-parallel vectors) grew by one.
    NewRow,
    /// A transaction's breakpoint description gained its new last step.
    BdPushed { txn: usize },
    /// `m[row][col]` was raised from `old`.
    Frontier { row: u32, col: u32, old: i64 },
    /// Edge inserted into the topo.
    EdgeInserted { from: u32, to: u32 },
    /// Superseded frontier edge removed from the topo.
    EdgeRemoved { from: u32, to: u32 },
}

/// Buffers of one [`ClosureEngine::evict_unreachable`] pass.
#[derive(Clone, Default)]
struct EvictBufs {
    /// Live columns, as a bitset.
    live: Vec<u64>,
    /// Columns a source reaches (sources included), as a bitset.
    keep: Vec<u64>,
    evicted: Vec<usize>,
    /// The evicted transactions the last call returned.
    ids: Vec<TxnId>,
    /// [`ClosureEngine::retire_unreachable`] only: the evicted columns'
    /// rows in arena order, and each evicted column's index among
    /// `evicted` (other columns' entries are stale).
    rows: Vec<usize>,
    col_at: Vec<u32>,
}

/// A batch [`ClosureEngine::retire_unreachable`] is about to evict, read
/// in place as a [`FrontierView`]: its rows in arena order are the steps
/// `0..n`, its columns in column order the transactions `0..txn_count`,
/// and a cell is the engine's frontier cell.
///
/// Those cells are exactly the coherent closure of the batch's own
/// projection (DESIGN.md §10.2): no kept column precedes a batch row
/// (the pass would have kept that row's transaction too), columns
/// evicted earlier were cleared from every row, and so no path between
/// two batch steps leaves the batch.
/// Arena order is performance order and columns keep first-appearance
/// order, so steps and transactions are numbered as
/// [`ExecContext`](crate::spec::ExecContext) numbers the projection.
pub struct RetiredBatch<'a, S> {
    engine: &'a ClosureEngine<S>,
    rows: &'a [usize],
    cols: &'a [usize],
    col_at: &'a [u32],
}

impl<S> FrontierView for RetiredBatch<'_, S> {
    fn k(&self) -> usize {
        self.engine.nest.k()
    }

    fn n(&self) -> usize {
        self.rows.len()
    }

    fn txn_count(&self) -> usize {
        self.cols.len()
    }

    fn step(&self, v: usize) -> Step {
        self.engine.steps[self.rows[v]]
    }

    fn txn_of(&self, v: usize) -> usize {
        self.col_at[self.engine.step_txn[self.rows[v]]] as usize
    }

    fn seq_of(&self, v: usize) -> usize {
        self.engine.steps[self.rows[v]].seq as usize
    }

    fn bd(&self, t: usize) -> &BreakpointDescription {
        &self.engine.bds[self.cols[t]]
    }

    fn level(&self, a: usize, b: usize) -> usize {
        let txns = &self.engine.txns;
        self.engine
            .nest
            .level(txns[self.cols[a]], txns[self.cols[b]])
    }

    fn frontier(&self, v: usize, t: usize) -> i32 {
        self.engine.m.get(self.rows[v], self.cols[t]) as i32
    }

    /// Committed engine state is always acyclic.
    fn is_partial_order(&self) -> bool {
        true
    }
}

/// Incremental coherent-closure maintenance: per-step delta cost instead
/// of per-step full recomputation. See the [module docs](self) for the
/// architecture and soundness argument.
#[derive(Clone)]
pub struct ClosureEngine<S> {
    nest: Nest,
    spec: S,
    /// Column index -> TxnId, in order of first appearance. A dead
    /// column keeps its TxnId until the next compaction drops it.
    txns: Vec<TxnId>,
    /// Inverse of `txns` for transactions that may still grow. Dense
    /// (`TxnId`s are arena-style): one indexed load per decision-loop
    /// lookup instead of a hash probe.
    local: DenseMap,
    /// Step arena in performance order. Dead (evicted or aborted) rows
    /// stay, emptied, until the next compaction drops them.
    steps: Vec<Step>,
    step_txn: Vec<usize>,
    /// Column -> its arena rows, ascending. Dead columns and slots past
    /// the column count are empty and keep their capacity for the next
    /// new column.
    txn_steps: Vec<Vec<usize>>,
    /// Column -> current breakpoint description of its subsequence,
    /// extended in place per append. Spare slots past the column count
    /// are empty, as for `txn_steps`.
    bds: Vec<BreakpointDescription>,
    /// The frontier matrix (see `closure.rs`).
    m: Frontier,
    /// One node per arena row; edges mirror the maintained frontier plus
    /// intra chains. Rejecting an insertion = closure cycle; a row's
    /// successors are the rows to re-run when it grows.
    topo: IncrementalTopo,
    /// Entity -> the live arena rows that touched it, in performance
    /// order; a row leaves its list when it dies. Indexed by
    /// `EntityId` — entity spaces are dense, so the per-append lookup is
    /// a load.
    entity_rows: Vec<Vec<u32>>,
    dead: Vec<bool>,
    dead_count: usize,
    tentative: bool,
    journal: Vec<Op>,
    queue: VecDeque<u32>,
    in_queue: Vec<bool>,
    /// Reused buffers: the subsequence an append hands to
    /// `spec.boundary_level`, and the rows a removal or rebuild rederives.
    sub: Vec<Step>,
    seeds: Vec<u32>,
    /// [`evict_unreachable`](ClosureEngine::evict_unreachable)'s buffers,
    /// kept between passes.
    evict_bufs: EvictBufs,
    /// Column -> whether it is an eviction source: true from its first
    /// step until [`finish_txn`](ClosureEngine::finish_txn).
    source: Vec<bool>,
    /// Whether a source was finished or removed since the last eviction
    /// pass.
    sources_lost: bool,
    counters: EngineCounters,
}

impl<S: BreakpointSpecification> ClosureEngine<S> {
    /// An empty engine for the given nest and specification.
    pub fn new(nest: Nest, spec: S) -> Self {
        ClosureEngine {
            nest,
            spec,
            txns: Vec::new(),
            local: DenseMap::new(),
            steps: Vec::new(),
            step_txn: Vec::new(),
            txn_steps: Vec::new(),
            bds: Vec::new(),
            m: Frontier::default(),
            topo: IncrementalTopo::new(0),
            entity_rows: Vec::new(),
            dead: Vec::new(),
            dead_count: 0,
            tentative: false,
            journal: Vec::new(),
            queue: VecDeque::new(),
            in_queue: Vec::new(),
            sub: Vec::new(),
            seeds: Vec::new(),
            evict_bufs: EvictBufs::default(),
            source: Vec::new(),
            sources_lost: false,
            counters: EngineCounters::default(),
        }
    }

    /// Offers one step, tentatively. On `Ok` the step is *pending*:
    /// resolve it with [`commit_step`](Self::commit_step) (the scheduler
    /// granted it) or [`rollback_step`](Self::rollback_step) (deferred).
    /// On `Err` the engine has already rolled the attempt back and
    /// returns the closure cycle the step would have created.
    ///
    /// Steps must arrive in per-transaction sequence order (the
    /// scheduler's performance order).
    pub fn apply_step(&mut self, step: Step) -> Result<(), CycleWitness> {
        assert!(!self.tentative, "previous tentative step not resolved");
        self.counters.steps_applied += 1;
        self.tentative = true;
        match self.apply_inner(step) {
            Ok(()) => Ok(()),
            Err(cycle) => {
                let witness = self.witness_from(&cycle);
                self.rollback_step();
                Err(witness)
            }
        }
    }

    /// Makes the pending step permanent.
    pub fn commit_step(&mut self) {
        assert!(self.tentative, "no pending step to commit");
        self.journal.clear();
        self.tentative = false;
    }

    /// Decides a whole stream under the batch poison rule: grants
    /// auto-commit; a denial poisons its transaction for the rest of the
    /// batch (later steps are denied with the same witness, never
    /// applied — the transaction's `seq` chain is broken anyway).
    pub fn decide_batch(&mut self, steps: &[Step]) -> Vec<Result<(), CycleWitness>> {
        let mut poisoned: HashMap<TxnId, CycleWitness> = HashMap::new();
        let mut verdicts = Vec::with_capacity(steps.len());
        for &step in steps {
            if let Some(w) = poisoned.get(&step.txn) {
                verdicts.push(Err(w.clone()));
                continue;
            }
            match self.apply_step(step) {
                Ok(()) => {
                    self.commit_step();
                    verdicts.push(Ok(()));
                }
                Err(w) => {
                    poisoned.insert(step.txn, w.clone());
                    verdicts.push(Err(w));
                }
            }
        }
        verdicts
    }

    /// Closure predecessors of the *pending* step: live columns (other
    /// than the requester's) whose last live step is related before the
    /// tentative row in the maintained closure. This is the §6
    /// prevention probe — one O(1) frontier lookup per non-empty cell of
    /// the pending row (an empty cell relates nothing, and a dead
    /// column has no cells). Returned ascending by `TxnId` so the answer
    /// is independent of column numbering.
    pub fn pending_predecessors(&self) -> Vec<TxnId> {
        assert!(self.tentative, "no pending step to probe");
        let beta = self.steps.len() - 1;
        let requester = self.step_txn[beta];
        let mut preds: Vec<TxnId> = ones(self.m.mask(beta))
            .filter(|&lt| lt != requester)
            .filter(|&lt| self.related(*self.txn_steps[lt].last().expect("live"), beta))
            .map(|lt| self.txns[lt])
            .collect();
        preds.sort_unstable_by_key(|t| t.0);
        preds
    }

    /// Marks transaction `t` as no longer an eviction source: it
    /// committed (the §6 schedulers) or performed its last recorded step
    /// (`mla-check`). The next
    /// [`evict_unreachable`](Self::evict_unreachable) call then runs its
    /// pass. A transaction with no live column is ignored.
    pub fn finish_txn(&mut self, t: TxnId) {
        if let Some(lt) = self.local_of(t) {
            self.sources_lost |= std::mem::replace(&mut self.source[lt], false);
        }
    }

    /// Applies the live-window eviction rule directly on the maintained
    /// state: forward-reach, over the transaction-level pair relation of
    /// the live frontier, from every source (a column not yet
    /// [finished](Self::finish_txn)), and [`evict`](Self::evict) each
    /// live column that is neither a source nor reached. Returns the
    /// evicted `TxnId`s in column order, in a buffer the next call
    /// reuses.
    ///
    /// Soundness: a committed transaction `C` no live one reaches can
    /// join no new cycle. A *new* pair into `C` can only arise by (i)
    /// lifting an existing pair `(α, c)` when `α`'s live owner continues
    /// a breakpoint-free segment — but then that owner already has a
    /// pair into `C` and keeps it; or (ii) transitivity `(w, u), (u, c)`
    /// — if `u` is live it already keeps `C`, and if `u` is committed the
    /// new pair `(w, u)` must itself come from a live transaction whose
    /// pair into `C` the (fully transitive) closure already contains.
    /// Reachability, not just a direct live predecessor, is required: a
    /// committed transaction can carry a live one's influence between a
    /// late in-pair and an early out-pair once condition-(b) lifts extend
    /// the out-pair across its segment (the CAD shape pinned by
    /// `eviction_preserves_carrier_chains_cad_regression`). An earlier
    /// cohort rule ("evict once everyone uncommitted at `C`'s commit has
    /// committed") was unsound when restricted to started transactions
    /// and never fired in steady state otherwise.
    ///
    /// After a pass every live column is a source or reached from one,
    /// and only a lost source can break that: grants only add pairs and
    /// sources, rollbacks restore a state that already held it, and an
    /// eviction drops only pairs out of unreached columns. So the call
    /// returns at once, evicting nothing, unless
    /// [`finish_txn`](Self::finish_txn) or
    /// [`remove_txns`](Self::remove_txns) lost a source since the last
    /// pass. Passes are counted in [`EngineCounters::evict_scans`].
    pub fn evict_unreachable(&mut self) -> &[TxnId] {
        self.evict_pass(None::<fn(&RetiredBatch<'_, S>)>)
    }

    /// [`evict_unreachable`](Self::evict_unreachable), handing `visit`
    /// the batch the pass retires after choosing it and before evicting
    /// it, so a caller can read the batch's closure in place (a
    /// [`RetiredBatch`]). `visit` is not called when nothing retires.
    pub fn retire_unreachable(&mut self, visit: impl FnOnce(&RetiredBatch<'_, S>)) -> &[TxnId] {
        self.evict_pass(Some(visit))
    }

    fn evict_pass<F: FnOnce(&RetiredBatch<'_, S>)>(&mut self, visit: Option<F>) -> &[TxnId] {
        assert!(!self.tentative, "resolve the pending step before eviction");
        self.evict_bufs.ids.clear();
        if !std::mem::take(&mut self.sources_lost) {
            return &self.evict_bufs.ids;
        }
        self.counters.evict_scans += 1;
        // A column's predecessors in the pair relation are the columns of
        // its last row's mask: a frontier only grows along its
        // transaction's intra chain, so the last row holds the pairs of
        // all its rows. Only live columns have cells. The kept set grows
        // from the sources until no live column outside it has a
        // predecessor inside it.
        let tc = self.txns.len();
        let words = tc.div_ceil(64);
        let b = &mut self.evict_bufs;
        b.live.clear();
        b.live.resize(words, 0);
        b.keep.clear();
        b.keep.resize(words, 0);
        for lt in (0..tc).filter(|&lt| !self.txn_steps[lt].is_empty()) {
            b.live[lt / 64] |= 1 << (lt % 64);
            if self.source[lt] {
                b.keep[lt / 64] |= 1 << (lt % 64);
            }
        }
        let mut grew = true;
        while grew {
            grew = false;
            for w in 0..words {
                let mut open = b.live[w] & !b.keep[w];
                while open != 0 {
                    let u = w * 64 + open.trailing_zeros() as usize;
                    open &= open - 1;
                    let last = *self.txn_steps[u].last().expect("a live column has rows");
                    let preds = self.m.mask(last);
                    if preds.iter().zip(&b.keep).any(|(p, k)| p & k != 0) {
                        b.keep[w] |= 1 << (u % 64);
                        grew = true;
                    }
                }
            }
        }
        b.evicted.clear();
        b.evicted
            .extend(ones(&b.live).filter(|&lt| b.keep[lt / 64] & (1 << (lt % 64)) == 0));
        if let Some(visit) = visit.filter(|_| !b.evicted.is_empty()) {
            b.rows.clear();
            b.col_at.resize(tc, 0);
            for (i, &lt) in b.evicted.iter().enumerate() {
                b.rows.extend_from_slice(&self.txn_steps[lt]);
                b.col_at[lt] = i as u32;
            }
            b.rows.sort_unstable();
            let b = &self.evict_bufs;
            visit(&RetiredBatch {
                engine: self,
                rows: &b.rows,
                cols: &b.evicted,
                col_at: &b.col_at,
            });
        }
        for i in 0..self.evict_bufs.evicted.len() {
            let lt = self.evict_bufs.evicted[i];
            self.evict_bufs.ids.push(self.txns[lt]);
            self.evict(lt);
        }
        self.compact();
        &self.evict_bufs.ids
    }

    /// Undoes the pending step by replaying the journal in reverse. The
    /// engine returns exactly to its pre-[`apply_step`](Self::apply_step)
    /// state (work counters excepted — they measure work done).
    pub fn rollback_step(&mut self) {
        assert!(self.tentative, "no pending step to roll back");
        self.counters.rollbacks += 1;
        while let Some(op) = self.journal.pop() {
            match op {
                Op::Frontier { row, col, old } => self.m.set(row as usize, col as usize, old),
                Op::EdgeInserted { from, to } => {
                    let removed = self.topo.remove_edge(from, to);
                    debug_assert!(removed, "journaled edge vanished");
                }
                Op::EdgeRemoved { from, to } => {
                    let re = self.topo.add_edge(from, to);
                    debug_assert!(
                        matches!(re, Ok(true)),
                        "re-adding a journaled edge must succeed"
                    );
                }
                Op::BdPushed { txn } => self.bds[txn].pop_step(),
                Op::NewRow => {
                    let step = self.steps.pop().expect("journal/arena desync");
                    let lt = self.step_txn.pop().expect("journal/arena desync");
                    self.txn_steps[lt].pop();
                    self.m.pop_row();
                    self.dead.pop();
                    let rows = &mut self.entity_rows[step.entity.index()];
                    debug_assert_eq!(rows.last().copied(), Some(self.steps.len() as u32));
                    rows.pop();
                    // All incident edges were journaled and already undone.
                    debug_assert!(self.topo.successors(self.steps.len() as u32).is_empty());
                    debug_assert!(self.topo.predecessors(self.steps.len() as u32).is_empty());
                }
                Op::NewTxn => {
                    let t = self.txns.pop().expect("journal/txn desync");
                    self.source.pop();
                    self.local.remove(t.0);
                    // The column's rows and description steps were
                    // undone before it; its slots stay as spares.
                    let lt = self.txns.len();
                    debug_assert!(self.txn_steps[lt].is_empty());
                    debug_assert_eq!(self.bds[lt].step_count(), 0);
                    self.m.pop_col();
                }
            }
        }
        self.m.debug_check_masks();
        self.tentative = false;
    }

    /// Records the store-observed values of the just-performed step (the
    /// scheduler's `performed` hook). Keeps the stored subsequence equal
    /// to what a batch checker reading the journal would see, so the next
    /// breakpoint-description refresh matches.
    pub fn performed(&mut self, step: &Step) {
        let Some(lt) = self.local.get(step.txn.0).map(|v| v as usize) else {
            return;
        };
        let Some(&row) = self.txn_steps[lt].last() else {
            return;
        };
        if self.steps[row].seq != step.seq {
            return;
        }
        self.steps[row].observed = step.observed;
        self.steps[row].wrote = step.wrote;
        #[cfg(debug_assertions)]
        {
            let sub: Vec<Step> = self.txn_steps[lt].iter().map(|&i| self.steps[i]).collect();
            debug_assert_eq!(
                self.spec.describe(step.txn, &sub),
                self.bds[lt],
                "value-dependent breakpoint specifications are outside the \
                 incremental engine's contract"
            );
        }
    }

    /// Removes aborted transactions — a rollback cascade's victims — by
    /// one delete and rederive (see the [module docs](self)). The rows
    /// holding a victim's column are the other ends of its rows' topo
    /// edges; they include every later same-entity row whose base
    /// conflict was a victim row. The victims' rows and columns die, and
    /// those rows are rederived: emptied, reseeded with their base pairs
    /// and re-closed by the worklist fixpoint. Costs the work of
    /// re-closing those rows, not a recomputation of the window. Victims
    /// stop being eviction sources; unknown or already evicted ones are
    /// skipped.
    pub fn remove_txns(&mut self, victims: &[TxnId]) {
        assert!(!self.tentative, "resolve the pending step before removal");
        let mut cols = std::mem::take(&mut self.evict_bufs.evicted);
        cols.clear();
        for lt in victims.iter().filter_map(|&t| self.local_of(t)) {
            if !cols.contains(&lt) {
                cols.push(lt);
            }
        }
        if cols.is_empty() {
            self.evict_bufs.evicted = cols;
            return;
        }
        let mut rows = std::mem::take(&mut self.seeds);
        rows.clear();
        if self.in_queue.len() < self.steps.len() {
            self.in_queue.resize(self.steps.len(), false);
        }
        for &lt in &cols {
            for &x in &self.txn_steps[lt] {
                for &v in self.topo.successors(x as u32) {
                    if !cols.contains(&self.step_txn[v as usize])
                        && !std::mem::replace(&mut self.in_queue[v as usize], true)
                    {
                        rows.push(v);
                    }
                }
            }
        }
        for &lt in &cols {
            self.kill_col(lt);
        }
        self.rederive(&mut rows);
        self.seeds = rows;
        self.evict_bufs.evicted = cols;
        self.sources_lost = true;
        self.compact();
    }

    /// Projects a *committed* transaction (by column index) out of the
    /// maintained state: the rows holding its column forget it, and its
    /// rows and column are emptied. Sound when no live pair can ever again
    /// relate through the transaction — exactly the live-window eviction
    /// rule (nothing uncommitted reaches it in the closure). Costs
    /// O(its rows' out-edges), no recomputation.
    pub fn evict(&mut self, lt: usize) {
        assert!(!self.tentative, "resolve the pending step before eviction");
        for i in 0..self.txn_steps[lt].len() {
            let x = self.txn_steps[lt][i] as u32;
            for j in 0..self.topo.successors(x).len() {
                let v = self.topo.successors(x)[j] as usize;
                if self.step_txn[v] != lt {
                    self.m.set(v, lt, NONE);
                }
            }
        }
        self.kill_col(lt);
        self.m.debug_check_masks();
    }

    /// Full rebuild, now: every live row is rederived in place from its
    /// base pairs. Rows, columns, topo order and adjacency keep their
    /// numbers and order (an edge the closure still holds is re-found
    /// where it is), so the rebuilt engine decides exactly as the
    /// incremental one. This is the reference the engine tests compare
    /// the incremental paths against; no scheduler calls it. Counted in
    /// [`EngineCounters::rebuilds`].
    pub fn rebuild(&mut self) {
        assert!(!self.tentative, "resolve the pending step first");
        self.counters.rebuilds += 1;
        let mut rows = std::mem::take(&mut self.seeds);
        rows.clear();
        rows.extend((0..self.steps.len() as u32).filter(|&v| !self.dead[v as usize]));
        self.rederive(&mut rows);
        self.seeds = rows;
    }

    /// Accumulated work counters.
    pub fn counters(&self) -> &EngineCounters {
        &self.counters
    }

    /// Number of live steps.
    pub fn live_count(&self) -> usize {
        self.steps.len() - self.dead_count
    }

    /// Number of transaction columns, dead ones included until a compaction.
    pub fn txn_count(&self) -> usize {
        self.txns.len()
    }

    /// The TxnId of a column.
    pub fn txn_id(&self, lt: usize) -> TxnId {
        self.txns[lt]
    }

    /// The column of a transaction, if it has live state.
    pub fn local_of(&self, t: TxnId) -> Option<usize> {
        self.local.get(t.0).map(|v| v as usize)
    }

    /// Arena rows of a column in seq order (empty for a dead column).
    pub fn steps_of(&self, lt: usize) -> &[usize] {
        &self.txn_steps[lt]
    }

    /// The breakpoint description of a column's subsequence, as the
    /// engine extends it per append.
    pub fn description(&self, lt: usize) -> &BreakpointDescription {
        &self.bds[lt]
    }

    /// Whether an arena row is live.
    pub fn is_live(&self, row: usize) -> bool {
        !self.dead[row]
    }

    /// The stored step at an arena row.
    pub fn step(&self, row: usize) -> &Step {
        &self.steps[row]
    }

    /// Column of an arena row.
    pub fn txn_of(&self, row: usize) -> usize {
        self.step_txn[row]
    }

    /// Sequence number of an arena row within its transaction.
    pub fn seq_of(&self, row: usize) -> usize {
        self.steps[row].seq as usize
    }

    /// The frontier row of a step (largest related seq per column, `-1`
    /// if none) — same encoding as
    /// [`CoherentClosure::frontier`](crate::closure::CoherentClosure::frontier).
    pub fn frontier(&self, row: usize) -> &[i64] {
        self.m.row(row)
    }

    /// Whether row `u` is related strictly before row `v` in the
    /// maintained closure.
    pub fn related(&self, u: usize, v: usize) -> bool {
        self.m.get(v, self.step_txn[u]) >= self.steps[u].seq as i64
    }

    /// The live steps as an [`Execution`], in performance order. For
    /// oracles and equivalence tests; the scheduling hot path never
    /// materializes this.
    pub fn execution(&self) -> Execution {
        let live: Vec<Step> = (0..self.steps.len())
            .filter(|&v| !self.dead[v])
            .map(|v| self.steps[v])
            .collect();
        Execution::new(live).expect("engine arena holds per-txn ordered steps")
    }

    /// The maintained relation as a [`RelationSignature`] — stable step
    /// identities, no arena or column order. Reflects the current state
    /// including a pending tentative step.
    pub fn relation_signature(&self) -> RelationSignature {
        let mut sig: RelationSignature = Vec::with_capacity(self.live_count());
        for v in (0..self.steps.len()).filter(|&v| !self.dead[v]) {
            let mut row: Vec<(u32, i64)> = ones(self.m.mask(v))
                .map(|t| (self.txns[t].0, self.m.get(v, t)))
                .collect();
            row.sort_unstable();
            sig.push(((self.txns[self.step_txn[v]].0, self.steps[v].seq), row));
        }
        sig.sort_unstable();
        sig
    }

    /// Applies `a` then `b` tentatively (two steps of *different*
    /// transactions, each its transaction's next step), captures the
    /// relation signature when both are granted, and rolls the whole
    /// attempt back — the engine returns exactly to its prior state
    /// (work counters excepted). This is the DPOR commutativity probe:
    /// `a` and `b` commute in the current state iff `probe_pair(a, b)`
    /// and `probe_pair(b, a)` both grant fully and produce equal
    /// signatures (see [`steps_commute`](Self::steps_commute)).
    pub fn probe_pair(&mut self, a: Step, b: Step) -> PairProbe {
        assert!(!self.tentative, "previous tentative step not resolved");
        assert_ne!(a.txn, b.txn, "probe steps must belong to different txns");
        self.tentative = true;
        let (first_ok, second_ok, signature) = match self.apply_inner(a) {
            Ok(()) => match self.apply_inner(b) {
                Ok(()) => (true, true, Some(self.relation_signature())),
                Err(_) => (true, false, None),
            },
            Err(_) => (false, false, None),
        };
        // The journal holds both steps' ops; one reverse replay undoes
        // the pair.
        self.rollback_step();
        PairProbe {
            first_ok,
            second_ok,
            signature,
        }
    }

    /// Whether `a` and `b` (next steps of two different transactions)
    /// commute in the current state: both orders fully granted with
    /// identical resulting relations. Any denial in either order makes
    /// the pair dependent — conservative, since a verdict that differs
    /// by order is itself an observable difference.
    pub fn steps_commute(&mut self, a: Step, b: Step) -> bool {
        let ab = self.probe_pair(a, b);
        if ab.signature.is_none() {
            return false;
        }
        let ba = self.probe_pair(b, a);
        ab.signature == ba.signature
    }

    /// A deep copy of the committed state — the DFS backtracking hook
    /// for exhaustive schedule exploration (`mla-explore`). Panics if a
    /// tentative step is pending.
    pub fn snapshot(&self) -> Self
    where
        S: Clone,
    {
        assert!(!self.tentative, "resolve the pending step before snapshot");
        debug_assert!(self.journal.is_empty() && self.queue.is_empty());
        self.clone()
    }

    // ---- internals ------------------------------------------------------

    /// Empties the live `rows` and re-closes them: base pairs, then the
    /// worklist fixpoint in performance order. Their old in-edges stay
    /// through the fixpoint — they encode a superset of the relation the
    /// rows rejoin, so the order still holds and re-inserting one is a
    /// no-op — and the ones the new rows no longer hold are dropped
    /// after it.
    fn rederive(&mut self, rows: &mut [u32]) {
        rows.sort_unstable();
        if self.in_queue.len() < self.steps.len() {
            self.in_queue.resize(self.steps.len(), false);
        }
        for &v in rows.iter() {
            self.m.clear_row(v as usize);
        }
        for &v in rows.iter() {
            self.in_queue[v as usize] = true;
            self.queue.push_back(v);
            let seeded = self.seed_base(v as usize);
            debug_assert!(seeded.is_ok(), "rederiving only shrinks the closure");
        }
        let closed = self.drain_queue();
        debug_assert!(closed.is_ok(), "rederiving only shrinks the closure");
        self.journal.clear();
        for &v in rows.iter() {
            let mut i = 0;
            while let Some(&u) = self.topo.predecessors(v).get(i) {
                let (tu, su) = (self.step_txn[u as usize], self.steps[u as usize].seq);
                if self.m.get(v as usize, tu) == su as i64 {
                    i += 1;
                } else {
                    self.topo.remove_edge(u, v);
                }
            }
        }
        self.m.debug_check_masks();
        self.debug_check_topo();
    }

    fn apply_inner(&mut self, step: Step) -> Result<(), Cycle> {
        let lt = match self.local.get(step.txn.0) {
            Some(lt) => lt as usize,
            None => {
                let lt = self.txns.len();
                self.txns.push(step.txn);
                self.source.push(true);
                self.local.insert(step.txn.0, lt as u32);
                if lt == self.txn_steps.len() {
                    self.txn_steps.push(Vec::new());
                    self.bds
                        .push(BreakpointDescription::atomic(self.nest.k(), 0));
                }
                self.m.push_col();
                self.journal.push(Op::NewTxn);
                lt
            }
        };
        let s = self.txn_steps[lt].len();
        debug_assert_eq!(
            step.seq as usize, s,
            "steps must arrive in per-transaction order"
        );
        let w = self.steps.len();
        self.steps.push(step);
        self.step_txn.push(lt);
        self.txn_steps[lt].push(w);
        self.m.push_row();
        self.dead.push(false);
        self.topo.ensure_nodes(w + 1);
        let e = step.entity.index();
        if e >= self.entity_rows.len() {
            self.entity_rows.resize_with(e + 1, Vec::new);
        }
        self.entity_rows[e].push(w as u32);
        self.journal.push(Op::NewRow);

        // Extend the transaction's breakpoint description by the new step.
        // §6 compatibility: the description of the grown subsequence
        // keeps the prefix's breakpoints and adds only the boundary before
        // the new step, so only the last segment can change (which the
        // trigger seeding below relies on too).
        self.sub.clear();
        self.sub
            .extend(self.txn_steps[lt].iter().map(|&i| self.steps[i]));
        let level = self.spec.boundary_level(step.txn, &self.sub);
        self.bds[lt].push_step(level);
        self.journal.push(Op::BdPushed { txn: lt });
        debug_assert_eq!(
            self.bds[lt],
            self.spec.describe(step.txn, &self.sub),
            "the specification breaks the §6 compatibility condition, or its \
             depth does not match the nest"
        );

        self.seed_base(w)?;

        // Worklist seeds: the new row, plus every row whose frontier sat
        // at the previous end of this transaction's last segment (they
        // are exactly the topo successors of the previous step).
        self.push_queue(w);
        if s > 0 {
            self.push_successors(self.txn_steps[lt][s - 1], false);
        }
        self.drain_queue()
    }

    /// Debug builds: the topo's in-edges of every live row are exactly
    /// its frontier entries.
    fn debug_check_topo(&self) {
        if cfg!(debug_assertions) {
            for v in (0..self.steps.len()).filter(|&v| !self.dead[v]) {
                let preds = self.topo.predecessors(v as u32);
                for t in ones(self.m.mask(v)) {
                    let u = self.txn_steps[t][self.m.get(v, t) as usize] as u32;
                    assert!(preds.contains(&u), "frontier entry [{v}][{t}] has no edge");
                }
                assert_eq!(
                    preds.len(),
                    ones(self.m.mask(v)).count(),
                    "stale edge into {v}"
                );
            }
        }
    }

    /// Raises row `w`, empty or fresh, to its base relation: its intra
    /// predecessor and the previous live step on its entity (mirrors
    /// `Execution::dependency_graph`).
    fn seed_base(&mut self, w: usize) -> Result<(), Cycle> {
        let (lt, s) = (self.step_txn[w], self.steps[w].seq as i64);
        if s > 0 {
            self.raise(w, lt, s - 1)?;
        }
        let rows = &self.entity_rows[self.steps[w].entity.index()];
        let at = rows
            .iter()
            .rposition(|&r| r as usize == w)
            .expect("a live row is on its entity's list");
        if let Some(&u) = at.checked_sub(1).map(|i| &rows[i]) {
            let (tu, su) = (self.step_txn[u as usize], self.steps[u as usize].seq as i64);
            if self.m.get(w, tu) < su {
                self.raise(w, tu, su)?;
            }
        }
        Ok(())
    }

    /// Kills column `lt` and its rows: each row's cells are cleared, its
    /// topo node detached and it leaves its entity's list; the column
    /// forgets its steps. The caller has already cleared the column's
    /// cells in other rows. [`compact`](Self::compact) drops them later.
    fn kill_col(&mut self, lt: usize) {
        for &r in &self.txn_steps[lt] {
            self.dead[r] = true;
            self.topo.detach_node(r as u32);
            self.m.clear_row(r);
            let rows = &mut self.entity_rows[self.steps[r].entity.index()];
            let at = rows
                .iter()
                .rposition(|&x| x as usize == r)
                .expect("a live row is on its entity's list");
            rows.remove(at);
        }
        self.dead_count += self.txn_steps[lt].len();
        self.txn_steps[lt].clear();
        self.bds[lt].reset();
        self.local.remove(self.txns[lt].0);
    }

    /// Once dead rows outnumber live ones (and 64), drops the dead rows
    /// and columns by renumbering the live ones in place, in order: rows
    /// keep performance order and columns first-appearance order, the
    /// topo keeps its edge-list order and relative topological order.
    /// Every later fixpoint and search visits the same steps in the same
    /// order as it would have before, so a compaction can never move a
    /// decision; it costs one pass over the live window, no
    /// recomputation.
    fn compact(&mut self) {
        if self.dead_count > 64 && self.dead_count > self.steps.len() - self.dead_count {
            self.renumber();
        }
    }

    /// The renumbering behind [`compact`](Self::compact).
    fn renumber(&mut self) {
        let live = self.steps.len() - self.dead_count;
        let mut row_map = vec![u32::MAX; self.steps.len()];
        for (n, v) in (0..self.steps.len()).filter(|&v| !self.dead[v]).enumerate() {
            row_map[v] = n as u32;
        }
        let mut col_map = vec![u32::MAX; self.txns.len()];
        let live_cols = (0..self.txns.len()).filter(|&lt| !self.txn_steps[lt].is_empty());
        for (n, lt) in live_cols.enumerate() {
            col_map[lt] = n as u32;
        }
        let cols = col_map.iter().filter(|&&c| c != u32::MAX).count();
        self.m.renumber(&row_map, &col_map, live, cols);
        for v in (0..self.steps.len()).filter(|&v| !self.dead[v]) {
            let to = row_map[v] as usize;
            self.steps[to] = self.steps[v];
            self.step_txn[to] = col_map[self.step_txn[v]] as usize;
        }
        for lt in 0..self.txns.len() {
            let to = col_map[lt];
            if to == u32::MAX {
                continue;
            }
            for r in &mut self.txn_steps[lt] {
                *r = row_map[*r] as usize;
            }
            let to = to as usize;
            self.txn_steps.swap(to, lt);
            self.bds.swap(to, lt);
            self.txns.swap(to, lt);
            self.source.swap(to, lt);
            self.local.insert(self.txns[to].0, to as u32);
        }
        for rows in &mut self.entity_rows {
            rows.iter_mut().for_each(|r| *r = row_map[*r as usize]);
        }
        self.topo.compact(&row_map);
        self.txns.truncate(cols);
        self.source.truncate(cols);
        self.steps.truncate(live);
        self.step_txn.truncate(live);
        self.dead.clear();
        self.dead.resize(live, false);
        self.dead_count = 0;
        self.m.debug_check_masks();
        self.debug_check_topo();
    }

    /// Raises `m[v][col]` to `new_s`, maintaining the topo mirror: the
    /// superseded frontier edge is dropped (the pair it encoded is
    /// implied by the new edge plus the intra chain) and the new edge
    /// inserted. A rejected insertion *is* the closure cycle.
    fn raise(&mut self, v: usize, col: usize, new_s: i64) -> Result<(), Cycle> {
        let old = self.m.get(v, col);
        debug_assert!(new_s > old);
        self.journal.push(Op::Frontier {
            row: v as u32,
            col: col as u32,
            old,
        });
        self.m.set(v, col, new_s);
        let u_new = self.txn_steps[col][new_s as usize];
        if u_new == v {
            // The step would precede itself (m[v][tv] = seq(v)).
            return Err(Cycle(vec![v as u32]));
        }
        if old != NONE {
            let u_old = self.txn_steps[col][old as usize];
            if u_old != v && self.topo.remove_edge(u_old as u32, v as u32) {
                self.journal.push(Op::EdgeRemoved {
                    from: u_old as u32,
                    to: v as u32,
                });
            }
        }
        match self.topo.add_edge(u_new as u32, v as u32) {
            Ok(true) => {
                self.journal.push(Op::EdgeInserted {
                    from: u_new as u32,
                    to: v as u32,
                });
                self.counters.edges_inserted += 1;
                Ok(())
            }
            Ok(false) => Ok(()),
            Err(cycle) => Err(cycle),
        }
    }

    fn push_queue(&mut self, v: usize) {
        if v >= self.in_queue.len() {
            self.in_queue.resize(v + 1, false);
        }
        if !std::mem::replace(&mut self.in_queue[v], true) {
            self.queue.push_back(v as u32);
        }
    }

    /// Queues row `u`'s topo successors, in edge-list order; with
    /// `across`, only those of other transactions.
    fn push_successors(&mut self, u: usize, across: bool) {
        for i in 0..self.topo.successors(u as u32).len() {
            let v = self.topo.successors(u as u32)[i] as usize;
            if !(across && self.step_txn[v] == self.step_txn[u]) {
                self.push_queue(v);
            }
        }
    }

    fn drain_queue(&mut self) -> Result<(), Cycle> {
        while let Some(v) = self.queue.pop_front() {
            let v = v as usize;
            self.in_queue[v] = false;
            // A dead row's topo node is detached, so no trigger names it.
            debug_assert!(!self.dead[v], "queued dead row {v}");
            self.counters.rows_touched += 1;
            match self.process(v) {
                Ok(false) => {}
                Ok(true) => {
                    // The row grew: re-run it (pending lifts) and the rows
                    // of other transactions that union it. Its intra-chain
                    // successor needs no re-run: it is re-queued by the
                    // cross-transaction edge of whatever made this row grow,
                    // or was seeded with it.
                    self.push_queue(v);
                    self.push_successors(v, true);
                }
                Err(cycle) => {
                    self.queue.clear();
                    self.in_queue.iter_mut().for_each(|f| *f = false);
                    return Err(cycle);
                }
            }
        }
        Ok(())
    }

    /// One pass of the closure rules over row `v` (the batch fixpoint's
    /// inner loop), over its non-empty cells in ascending column order.
    /// Returns whether the row grew.
    ///
    /// The row grows during the pass, so each next cell is looked up on
    /// the row as it is then: a cell to the right raised mid-pass is
    /// visited, exactly as a dense left-to-right scan would see it.
    fn process(&mut self, v: usize) -> Result<bool, Cycle> {
        let tv = self.step_txn[v];
        let sv = self.steps[v].seq as usize;
        let mut changed = false;
        let mut next = self.m.next_col(v, 0);
        while let Some(t) = next {
            let s = self.m.get(v, t);
            if t == tv {
                // Own transaction: keep the row monotone along the intra
                // chain. (A frontier at or past v itself is impossible
                // here — `raise` rejects it as a cycle.)
                if sv > 0 {
                    let u = self.txn_steps[t][sv - 1];
                    changed |= self.union_from(v, u)?;
                }
            } else {
                // Condition (b): lift the frontier to its segment end at
                // level(t, tv).
                let level = self.nest.level(self.txns[t], self.txns[tv]);
                let end = self.bds[t].segment_end(level, s as usize) as i64;
                if end > s {
                    self.raise(v, t, end)?;
                    changed = true;
                }
                // Transitivity through t's frontier step.
                let u = self.txn_steps[t][end as usize];
                changed |= self.union_from(v, u)?;
            }
            next = self.m.next_col(v, t + 1);
        }
        Ok(changed)
    }

    /// `m[v] |= m[u]` pointwise over `u`'s non-empty cells. `raise`
    /// writes row `v` only, so `u`'s mask can be read a word at a time.
    fn union_from(&mut self, v: usize, u: usize) -> Result<bool, Cycle> {
        debug_assert_ne!(u, v);
        let mut changed = false;
        for w in 0..self.m.words {
            let mut bits = self.m.mask(u)[w];
            while bits != 0 {
                let t = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let uw = self.m.get(u, t);
                if uw > self.m.get(v, t) {
                    self.raise(v, t, uw)?;
                    changed = true;
                }
            }
        }
        Ok(changed)
    }

    /// Translates a topo cycle (arena rows) into stable step identities.
    fn witness_from(&self, cycle: &Cycle) -> CycleWitness {
        let steps: Vec<(TxnId, u32)> = cycle
            .nodes()
            .iter()
            .map(|&r| {
                let r = r as usize;
                (self.txns[self.step_txn[r]], self.steps[r].seq)
            })
            .collect();
        let mut txns: Vec<TxnId> = steps.iter().map(|&(t, _)| t).collect();
        txns.sort_unstable_by_key(|t| t.0);
        txns.dedup();
        CycleWitness { steps, txns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::CoherentClosure;
    use crate::spec::{AtomicSpec, ExecContext, FreeSpec};
    use mla_model::EntityId;
    use std::collections::HashMap;

    fn step(txn: u32, seq: u32, entity: u32) -> Step {
        Step {
            txn: TxnId(txn),
            seq,
            entity: EntityId(entity),
            observed: 0,
            wrote: 0,
        }
    }

    /// A positional per-transaction breakpoint spec usable on prefixes
    /// (FixedSpec asserts exact lengths and so cannot drive an engine).
    #[derive(Clone)]
    struct PrefixSpec {
        k: usize,
        /// txn -> mid-level breakpoint positions, per mid level.
        mids: HashMap<u32, Vec<Vec<usize>>>,
    }

    impl BreakpointSpecification for PrefixSpec {
        fn k(&self) -> usize {
            self.k
        }

        fn describe(&self, t: TxnId, steps: &[Step]) -> BreakpointDescription {
            let n = steps.len();
            match self.mids.get(&t.0) {
                Some(mids) => {
                    let clipped: Vec<Vec<usize>> = mids
                        .iter()
                        .map(|level| level.iter().copied().filter(|&p| p < n).collect())
                        .collect();
                    BreakpointDescription::from_mid_levels(self.k, n, &clipped).unwrap()
                }
                None => BreakpointDescription::atomic(self.k, n),
            }
        }
    }

    /// Asserts the engine (fed step by step) agrees with the batch
    /// closure on every acyclic prefix, and that a rejected step is
    /// exactly a batch-cyclic prefix. Returns how many steps were
    /// accepted.
    fn check_against_batch(
        nest: &Nest,
        spec: &(impl BreakpointSpecification + Clone),
        order: &[(u32, u32, u32)],
    ) -> usize {
        check_against_batch_churned(nest, spec, order, None).0
    }

    /// [`check_against_batch`] with churn when `rng` is given, each with
    /// probability 1/3: a granted step is first rolled back (a scheduler
    /// defer) and offered again; after a grant,
    /// [`ClosureEngine::evict_unreachable`] projects out every finished
    /// transaction no unfinished one reaches; a rejected transaction is
    /// aborted, which rederives the rows that held it. The batch closure
    /// is taken over the surviving steps.
    /// Returns the accepted step count and the engine.
    fn check_against_batch_churned<S: BreakpointSpecification + Clone>(
        nest: &Nest,
        spec: &S,
        order: &[(u32, u32, u32)],
        mut rng: Option<&mut rand::rngs::SmallRng>,
    ) -> (usize, ClosureEngine<S>) {
        use rand::Rng;
        let mut churn = || rng.as_mut().is_some_and(|r| r.gen_range(0..3) == 0);
        let batch_of = |steps: &[Step]| {
            let exec = Execution::new(steps.to_vec()).unwrap();
            let batch = CoherentClosure::compute(&ExecContext::new(&exec, nest, spec).unwrap());
            (exec, batch)
        };
        let assert_matches = |engine: &ClosureEngine<S>, (exec, batch): &(Execution, _)| {
            assert_engine_matches(engine, &ExecContext::new(exec, nest, spec).unwrap(), batch);
        };
        let last_seq: HashMap<u32, u32> = order.iter().map(|&(t, s, _)| (t, s)).collect();
        let mut engine = ClosureEngine::new(nest.clone(), spec.clone());
        // The steps the engine should hold, tracked apart from it.
        let mut live: Vec<Step> = Vec::new();
        let mut accepted = 0;
        let mut blocked: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for &(t, s, x) in order {
            if blocked.contains(&t) {
                // A real scheduler would defer or abort; for equivalence
                // checking, a rejected transaction stops contributing
                // (its seq chain is broken).
                continue;
            }
            let candidate = step(t, s, x);
            live.push(candidate);
            let with = batch_of(&live);
            match engine.apply_step(candidate) {
                Ok(()) => {
                    assert!(
                        with.1.is_partial_order(),
                        "engine accepted a step the batch closure rejects"
                    );
                    if churn() {
                        engine.rollback_step();
                        assert_matches(&engine, &batch_of(&live[..live.len() - 1]));
                        engine
                            .apply_step(candidate)
                            .expect("a deferred grant grants again");
                    }
                    engine.commit_step();
                    accepted += 1;
                    assert_matches(&engine, &with);
                    if last_seq[&t] == s {
                        engine.finish_txn(TxnId(t));
                    }
                    if churn() {
                        let evicted = engine.evict_unreachable().to_vec();
                        live.retain(|s| !evicted.contains(&s.txn));
                        assert_matches(&engine, &batch_of(&live));
                    }
                }
                Err(witness) => {
                    live.pop();
                    blocked.insert(t);
                    assert!(
                        !with.1.is_partial_order(),
                        "engine rejected a step the batch closure accepts"
                    );
                    assert!(!witness.txns.is_empty());
                    // The engine rolled back: it must still match the
                    // batch closure of the accepted prefix. Under churn
                    // the rejected transaction is aborted instead.
                    if churn() {
                        engine.remove_txns(&[TxnId(t)]);
                        live.retain(|s| s.txn != TxnId(t));
                    }
                    assert_matches(&engine, &batch_of(&live));
                }
            }
        }
        (accepted, engine)
    }

    /// Frontier-for-frontier comparison keyed by stable identities
    /// (engine columns and batch locals can be ordered differently).
    fn assert_engine_matches<S: BreakpointSpecification>(
        engine: &ClosureEngine<S>,
        ctx: &ExecContext<'_>,
        batch: &CoherentClosure,
    ) {
        assert!(batch.is_partial_order());
        // Map (TxnId, seq) -> batch global index.
        let mut batch_of: HashMap<(u32, u32), usize> = HashMap::new();
        for v in 0..ctx.n() {
            let t = ctx.txn_id(ctx.txn_of(v));
            batch_of.insert((t.0, ctx.seq_of(v) as u32), v);
        }
        let mut live = 0;
        for row in 0..engine.steps.len() {
            if !engine.is_live(row) {
                continue;
            }
            live += 1;
            let key = (
                engine.txn_id(engine.txn_of(row)).0,
                engine.seq_of(row) as u32,
            );
            let bv = *batch_of
                .get(&key)
                .expect("live engine row missing in batch");
            let bf = batch.frontier(bv);
            for (col, &ef) in engine.frontier(row).iter().enumerate() {
                if engine.steps_of(col).is_empty() {
                    assert_eq!(ef, NONE, "frontier into a dead column");
                    continue;
                }
                let t = engine.txn_id(col);
                // Find the batch column for this TxnId, if any.
                let bcol = (0..ctx.txn_count()).find(|&c| ctx.txn_id(c) == t);
                match bcol {
                    Some(c) => {
                        assert_eq!(
                            ef,
                            i64::from(bf[c]),
                            "frontier mismatch at step {key:?} column {t}"
                        )
                    }
                    None => assert_eq!(ef, NONE, "engine frontier into absent txn {t}"),
                }
            }
        }
        assert_eq!(live, ctx.n(), "live row count != batch steps");
    }

    #[test]
    fn agrees_on_serializable_pattern() {
        let nest = Nest::flat(2);
        let n = check_against_batch(
            &nest,
            &AtomicSpec { k: 2 },
            &[(0, 0, 7), (0, 1, 8), (1, 0, 7), (1, 1, 8)],
        );
        assert_eq!(n, 4);
    }

    #[test]
    fn rejects_classic_weave_where_batch_is_cyclic() {
        let nest = Nest::flat(2);
        // The last step closes t0 -> t1 -> t0; the engine must reject
        // exactly it.
        let n = check_against_batch(
            &nest,
            &AtomicSpec { k: 2 },
            &[(0, 0, 7), (1, 0, 7), (1, 1, 8), (0, 1, 8)],
        );
        assert_eq!(n, 3);
    }

    #[test]
    fn free_breakpoints_admit_the_same_weave() {
        let nest = Nest::new(3, vec![vec![0], vec![0]]).unwrap();
        let n = check_against_batch(
            &nest,
            &FreeSpec { k: 3 },
            &[(0, 0, 7), (1, 0, 7), (1, 1, 8), (0, 1, 8)],
        );
        assert_eq!(n, 4);
    }

    #[test]
    fn paper_r3_cycle_is_caught_online() {
        // §4.2's R3 realization from closure.rs: cyclic at the end.
        let order = [
            (2u32, 0u32, 100u32),
            (0, 0, 100),
            (0, 1, 101),
            (1, 0, 102),
            (1, 1, 101),
            (0, 2, 102),
            (0, 3, 103),
            (1, 2, 104),
            (1, 3, 105),
            (2, 1, 106),
            (2, 2, 105),
            (2, 3, 107),
        ];
        let nest = Nest::new(3, vec![vec![0], vec![0], vec![1]]).unwrap();
        let spec = PrefixSpec {
            k: 3,
            mids: [(0, vec![vec![2]]), (1, vec![vec![2]]), (2, vec![vec![2]])]
                .into_iter()
                .collect(),
        };
        let accepted = check_against_batch(&nest, &spec, &order);
        assert!(accepted < order.len(), "R3 must be rejected somewhere");
    }

    #[test]
    fn frontier_masks_span_a_second_word() {
        // 70 two-step transactions whose first steps all come first, so
        // the frontier holds 70 columns and each row's mask two words;
        // then the second steps in random order, with defers and
        // evictions mixed in. Odd transactions break between their
        // steps at level 2.
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x6_4B17);
        let txns = 70u32;
        let nest = Nest::new(3, (0..txns).map(|t| vec![t % 4]).collect()).unwrap();
        let spec = PrefixSpec {
            k: 3,
            mids: (1..txns).step_by(2).map(|t| (t, vec![vec![1]])).collect(),
        };
        let mut order: Vec<(u32, u32, u32)> =
            (0..txns).map(|t| (t, 0, rng.gen_range(0..12))).collect();
        let mut seconds: Vec<(u32, u32, u32)> =
            (0..txns).map(|t| (t, 1, rng.gen_range(0..12))).collect();
        for i in (1..seconds.len()).rev() {
            seconds.swap(i, rng.gen_range(0..=i));
        }
        order.extend(seconds);
        let (accepted, engine) = check_against_batch_churned(&nest, &spec, &order, Some(&mut rng));
        assert!(engine.m.words >= 2, "the masks never needed a second word");
        assert!(accepted > order.len() / 2);
        let c = engine.counters();
        assert!(c.rollbacks > 0 && c.evict_scans > 0, "{c:?}");
        assert_eq!(c.rebuilds, 0, "aborts and evictions never rebuild");
        engine.m.debug_check_masks();
    }

    #[test]
    fn row_lifted_past_a_grown_step_still_gains_its_pairs() {
        // t0 is alone in its class; t1 and t2 share one, and t2 breaks at
        // level 2 before its second step. t1's row v first pulls t0's
        // first step u (entity 7), then t0's second step u' extends the
        // segment and lifts v's frontier on t0 to u'. Then t2's second
        // step extends t2's level-1 segment: u and u' lift onto it, v
        // does not (t2's breakpoint), so v gains (t2, 1) only through u'.
        let nest = Nest::new(3, vec![vec![0], vec![1], vec![1]]).unwrap();
        let spec = PrefixSpec {
            k: 3,
            mids: [(2, vec![vec![1]])].into_iter().collect(),
        };
        let order = [(2, 0, 7), (0, 0, 7), (1, 0, 7), (0, 1, 8), (2, 1, 9)];
        let (accepted, engine) = check_against_batch_churned(&nest, &spec, &order, None);
        assert_eq!(accepted, order.len());
        let [u, u1] = [0, 1].map(|s| engine.steps_of(engine.local_of(TxnId(0)).unwrap())[s]);
        let v = engine.steps_of(engine.local_of(TxnId(1)).unwrap())[0];
        let col = |t| engine.local_of(TxnId(t)).unwrap();
        assert_eq!(engine.frontier(v)[col(0)], 1, "v's frontier moved to u'");
        assert!(!engine.topo.successors(u as u32).contains(&(v as u32)));
        assert!(engine.topo.successors(u1 as u32).contains(&(v as u32)));
        assert_eq!(engine.frontier(u)[col(2)], 1, "u grew by the extension");
        assert_eq!(engine.frontier(v)[col(2)], 1, "v gained the pair");
    }

    #[test]
    fn witness_names_the_conflicting_transactions() {
        let nest = Nest::flat(2);
        let mut engine = ClosureEngine::new(nest, AtomicSpec { k: 2 });
        for st in [step(0, 0, 7), step(1, 0, 7), step(1, 1, 8)] {
            engine.apply_step(st).unwrap();
            engine.commit_step();
        }
        let witness = engine.apply_step(step(0, 1, 8)).unwrap_err();
        assert_eq!(witness.txns, vec![TxnId(0), TxnId(1)]);
        assert!(witness.steps.len() >= 2);
        // Rolled back: the same step set minus the offender is intact.
        assert_eq!(engine.live_count(), 3);
        assert!(!engine.tentative);
    }

    #[test]
    fn rollback_restores_pre_step_state_exactly() {
        let nest = Nest::flat(3);
        let mut engine = ClosureEngine::new(nest.clone(), AtomicSpec { k: 2 });
        let prefix = [step(0, 0, 1), step(1, 0, 1), step(1, 1, 2)];
        for st in prefix {
            engine.apply_step(st).unwrap();
            engine.commit_step();
        }
        let edges_before = engine.topo.edge_count();
        let m_before = engine.m.clone();
        // A fresh transaction's step, applied then rolled back (defer).
        engine.apply_step(step(2, 0, 2)).unwrap();
        engine.rollback_step();
        assert_eq!(engine.topo.edge_count(), edges_before);
        assert_eq!(engine.m, m_before);
        assert_eq!(engine.txn_count(), 2, "tentative txn fully retracted");
        // And the same step can come back later.
        engine.apply_step(step(2, 0, 2)).unwrap();
        engine.commit_step();
        assert_eq!(engine.txn_count(), 3);
    }

    #[test]
    fn probe_pair_rolls_back_exactly_and_detects_commutation() {
        let nest = Nest::flat(3);
        let mut engine = ClosureEngine::new(nest, AtomicSpec { k: 2 });
        for st in [step(0, 0, 1), step(1, 0, 2)] {
            engine.apply_step(st).unwrap();
            engine.commit_step();
        }
        let m_before = engine.m.clone();
        let edges_before = engine.topo.edge_count();
        let sig_before = engine.relation_signature();
        // Disjoint entities: both orders grant with the same relation.
        assert!(engine.steps_commute(step(0, 1, 3), step(1, 1, 4)));
        // Shared entity: both orders grant but the relations differ
        // (the base edge flips), so the pair is dependent.
        assert!(!engine.steps_commute(step(0, 1, 5), step(1, 1, 5)));
        // Either way the probes left no trace.
        assert_eq!(engine.m, m_before);
        assert_eq!(engine.topo.edge_count(), edges_before);
        assert_eq!(engine.relation_signature(), sig_before);
        assert!(!engine.tentative);
    }

    #[test]
    fn probe_pair_reports_denials_without_applying() {
        // Atomic t0 and t1 crossed on two entities: after the prefix,
        // t0's next step is denied outright in one order.
        let nest = Nest::flat(2);
        let mut engine = ClosureEngine::new(nest, AtomicSpec { k: 2 });
        for st in [step(0, 0, 7), step(1, 0, 7), step(1, 1, 8)] {
            engine.apply_step(st).unwrap();
            engine.commit_step();
        }
        let live_before = engine.live_count();
        let probe = engine.probe_pair(step(0, 1, 8), step(2, 0, 9));
        assert!(!probe.first_ok);
        assert!(!probe.second_ok);
        assert_eq!(probe.signature, None);
        // Second-position denial: the fresh step grants, then the weave
        // closes the cycle.
        let probe = engine.probe_pair(step(2, 0, 9), step(0, 1, 8));
        assert!(probe.first_ok);
        assert!(!probe.second_ok);
        assert_eq!(engine.live_count(), live_before);
        assert!(!engine.tentative);
        // A denial in either order means dependence.
        assert!(!engine.steps_commute(step(0, 1, 8), step(2, 0, 9)));
    }

    #[test]
    fn snapshot_is_a_deep_independent_copy() {
        let nest = Nest::flat(3);
        let mut engine = ClosureEngine::new(nest, AtomicSpec { k: 2 });
        for st in [step(0, 0, 1), step(1, 0, 1)] {
            engine.apply_step(st).unwrap();
            engine.commit_step();
        }
        let mut copy = engine.snapshot();
        assert_eq!(copy.relation_signature(), engine.relation_signature());
        // Diverge the copy; the original must not move.
        copy.apply_step(step(0, 1, 2)).unwrap();
        copy.commit_step();
        assert_eq!(copy.live_count(), 3);
        assert_eq!(engine.live_count(), 2);
        assert_ne!(copy.relation_signature(), engine.relation_signature());
        // And the original still decides independently.
        engine.apply_step(step(1, 1, 2)).unwrap();
        engine.commit_step();
        assert_eq!(engine.live_count(), 3);
    }

    #[test]
    fn signature_is_arena_order_independent() {
        // The same step set reached through different schedules (and
        // hence different column creation orders) must sign identically
        // when the closure relations coincide: two disjoint txns.
        let nest = Nest::flat(3);
        let spec = AtomicSpec { k: 2 };
        let mut e1 = ClosureEngine::new(nest.clone(), spec);
        for st in [step(0, 0, 1), step(0, 1, 1), step(1, 0, 2), step(1, 1, 2)] {
            e1.apply_step(st).unwrap();
            e1.commit_step();
        }
        let mut e2 = ClosureEngine::new(nest, spec);
        for st in [step(1, 0, 2), step(1, 1, 2), step(0, 0, 1), step(0, 1, 1)] {
            e2.apply_step(st).unwrap();
            e2.commit_step();
        }
        assert_eq!(e1.relation_signature(), e2.relation_signature());
    }

    #[test]
    fn remove_txn_rederives_and_unblocks() {
        let nest = Nest::flat(3);
        let mut engine = ClosureEngine::new(nest, AtomicSpec { k: 2 });
        // t2's step on entity 7 sits after t1's, which sits after t0's:
        // its base conflict is t1's row.
        for st in [step(0, 0, 7), step(1, 0, 7), step(1, 1, 8), step(2, 0, 7)] {
            engine.apply_step(st).unwrap();
            engine.commit_step();
        }
        assert!(engine.apply_step(step(0, 1, 8)).is_err());
        // Abort t1: t2's row is reseeded onto t0's step, and nothing is
        // rebuilt.
        engine.remove_txns(&[TxnId(1)]);
        assert_eq!(engine.live_count(), 3 - 1);
        let t2 = engine.steps_of(engine.local_of(TxnId(2)).unwrap())[0];
        let t0 = engine.steps_of(engine.local_of(TxnId(0)).unwrap())[0];
        assert!(engine.related(t0, t2));
        engine.apply_step(step(0, 1, 8)).unwrap();
        engine.commit_step();
        assert_eq!(engine.counters().rebuilds, 0);
        // t1 restarts from seq 0 as a fresh incarnation.
        engine.apply_step(step(1, 0, 9)).unwrap();
        engine.commit_step();
        assert_eq!(engine.live_count(), 4);
        // A fresh engine fed the live steps relates them the same way.
        let mut reference = ClosureEngine::new(Nest::flat(3), AtomicSpec { k: 2 });
        for &st in engine.execution().steps() {
            reference.apply_step(st).unwrap();
            reference.commit_step();
        }
        assert_eq!(reference.relation_signature(), engine.relation_signature());
    }

    #[test]
    fn eviction_projects_without_rebuild() {
        let nest = Nest::flat(3);
        let mut engine = ClosureEngine::new(nest.clone(), AtomicSpec { k: 2 });
        // t0 fully before t1; t0 commits and is unreachable from t1's
        // future (t1 already saw it) — evictable.
        for st in [step(0, 0, 1), step(0, 1, 2), step(1, 0, 1), step(1, 1, 2)] {
            engine.apply_step(st).unwrap();
            engine.commit_step();
        }
        let lt0 = engine.local_of(TxnId(0)).unwrap();
        engine.evict(lt0);
        assert_eq!(engine.counters().rebuilds, 0);
        assert_eq!(engine.live_count(), 2);
        // Post-eviction state matches the batch closure of the filtered
        // execution.
        let exec = engine.execution();
        let spec = AtomicSpec { k: 2 };
        let ctx = ExecContext::new(&exec, &nest, &spec).unwrap();
        let batch = CoherentClosure::compute(&ctx);
        assert_engine_matches(&engine, &ctx, &batch);
        // A step that would have conflicted with t0 no longer can: t2
        // reusing t0's entities against the execution order is now fine.
        engine.apply_step(step(2, 0, 1)).unwrap();
        engine.commit_step();
        assert_eq!(engine.counters().rebuilds, 0);
    }

    #[test]
    fn grant_path_inserts_edges_without_rebuilds() {
        let nest = Nest::flat(4);
        let mut engine = ClosureEngine::new(nest, AtomicSpec { k: 2 });
        for st in [
            step(0, 0, 1),
            step(1, 0, 2),
            step(2, 0, 3),
            step(0, 1, 2),
            step(1, 1, 3),
            step(2, 1, 4),
        ] {
            engine.apply_step(st).unwrap();
            engine.commit_step();
        }
        let c = engine.counters();
        assert_eq!(c.rebuilds, 0, "pure grants must never rebuild");
        assert!(c.edges_inserted > 0);
        assert!(c.rows_touched >= 6);
    }

    #[test]
    fn compaction_keeps_the_arena_at_the_window() {
        // A window of two transactions slides over sixty: each finishes
        // and is evicted once the next one no longer needs it, and
        // compaction drops the dead rows and columns.
        let nest = Nest::flat(60);
        let mut engine = ClosureEngine::new(nest, AtomicSpec { k: 2 });
        for t in 0..60u32 {
            for seq in 0..3 {
                engine.apply_step(step(t, seq, seq)).unwrap();
                engine.commit_step();
            }
            engine.finish_txn(TxnId(t));
            engine.evict_unreachable();
        }
        assert!(engine.steps.len() <= 2 * 64, "{} rows", engine.steps.len());
        assert!(
            engine.txn_count() <= 2 * 64 / 3,
            "{} columns",
            engine.txn_count()
        );
        assert_eq!(engine.counters().rebuilds, 0);
    }

    #[test]
    fn renumbering_moves_no_decision() {
        // Twelve slots of four-step transactions over five entities; a
        // slot that finishes takes a fresh transaction, one aborted
        // restarts. The churn leaves dead rows and columns; a renumbered
        // copy must then decide, witness and relate exactly as the
        // original does.
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xC0);
        let txns = 600u32;
        let nest = Nest::new(3, (0..txns).map(|t| vec![t % 3]).collect()).unwrap();
        let spec = PrefixSpec {
            k: 3,
            mids: (1..txns).step_by(2).map(|t| (t, vec![vec![1]])).collect(),
        };
        let mut engine = ClosureEngine::new(nest, spec);
        let mut slots: Vec<(u32, u32)> = (0..12).map(|t| (t, 0)).collect();
        let mut fresh = 12;
        let mut copy: Option<ClosureEngine<PrefixSpec>> = None;
        for round in 0..400 {
            let slot = rng.gen_range(0..slots.len());
            let (t, seq) = slots[slot];
            let candidate = step(t, seq, rng.gen_range(0..5));
            let verdict = engine.apply_step(candidate).map_err(|w| (w.steps, w.txns));
            if let Some(c) = copy.as_mut() {
                let copied = c.apply_step(candidate).map_err(|w| (w.steps, w.txns));
                assert_eq!(verdict, copied, "round {round}");
            }
            if verdict.is_err() {
                engine.remove_txns(&[TxnId(t)]);
                if let Some(c) = copy.as_mut() {
                    c.remove_txns(&[TxnId(t)]);
                }
                slots[slot].1 = 0;
                continue;
            }
            engine.commit_step();
            if let Some(c) = copy.as_mut() {
                c.commit_step();
            }
            slots[slot].1 += 1;
            if slots[slot].1 == 4 {
                slots[slot] = (fresh, 0);
                fresh += 1;
                engine.finish_txn(TxnId(t));
                let evicted = engine.evict_unreachable().to_vec();
                if let Some(c) = copy.as_mut() {
                    c.finish_txn(TxnId(t));
                    assert_eq!(c.evict_unreachable(), evicted);
                    assert_eq!(c.relation_signature(), engine.relation_signature());
                }
            }
            if round == 200 {
                assert!(engine.dead_count > 0, "the churn must leave dead rows");
                let mut c = engine.snapshot();
                c.renumber();
                assert!(c.steps.len() < engine.steps.len());
                assert_eq!(c.relation_signature(), engine.relation_signature());
                copy = Some(c);
            }
        }
        assert!(engine.counters().rollbacks > 0);
    }

    #[test]
    fn randomized_engine_matches_batch() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(4242);
        for _trial in 0..120 {
            let txns = rng.gen_range(2..4usize);
            let entities = rng.gen_range(1..4u32);
            let k = rng.gen_range(2..4usize);
            let nest = Nest::new(
                k,
                (0..txns)
                    .map(|_| (0..k - 2).map(|_| rng.gen_range(0..2u32)).collect())
                    .collect(),
            )
            .unwrap();
            let lens: Vec<u32> = (0..txns).map(|_| rng.gen_range(1..4)).collect();
            let total: u32 = lens.iter().sum();
            let mut order: Vec<(u32, u32, u32)> = Vec::new();
            let mut next_seq = vec![0u32; txns];
            for _ in 0..total {
                loop {
                    let t = rng.gen_range(0..txns);
                    if next_seq[t] < lens[t] {
                        order.push((t as u32, next_seq[t], rng.gen_range(0..entities)));
                        next_seq[t] += 1;
                        break;
                    }
                }
            }
            // Random refining mid-level breakpoints, positional.
            let mut mids: HashMap<u32, Vec<Vec<usize>>> = HashMap::new();
            for (t, &len) in lens.iter().enumerate() {
                let mut levels: Vec<Vec<usize>> = Vec::new();
                let mut prev: Vec<usize> = Vec::new();
                for _ in 0..k.saturating_sub(2) {
                    let mut cur = prev.clone();
                    for p in 1..len as usize {
                        if rng.gen_bool(0.4) && !cur.contains(&p) {
                            cur.push(p);
                        }
                    }
                    cur.sort_unstable();
                    levels.push(cur.clone());
                    prev = cur;
                }
                mids.insert(t as u32, levels);
            }
            let spec = PrefixSpec { k, mids };
            check_against_batch(&nest, &spec, &order);
        }
    }

    #[test]
    fn retired_batches_extend_as_their_projections_do() {
        // Random executions fed step by step with finishes and eviction
        // (a rejected transaction is aborted and its later steps
        // dropped). Lemma 1 over each retired batch's engine rows must
        // give the order it gives over the batch closure of the batch's
        // projection of the performed steps.
        use crate::extend::{extend_to_total_order, Extender};
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xBA7C);
        let mut lemma1 = Extender::default();
        let (mut batches, mut shared) = (0, 0);
        for _trial in 0..300 {
            let txns = rng.gen_range(2..7usize);
            let entities = rng.gen_range(1..5u32);
            let k = rng.gen_range(2..5usize);
            let nest = Nest::new(
                k,
                (0..txns)
                    .map(|_| (0..k - 2).map(|_| rng.gen_range(0..2u32)).collect())
                    .collect(),
            )
            .unwrap();
            let lens: Vec<u32> = (0..txns).map(|_| rng.gen_range(1..5)).collect();
            let mut mids: HashMap<u32, Vec<Vec<usize>>> = HashMap::new();
            for (t, &len) in lens.iter().enumerate() {
                let mut levels: Vec<Vec<usize>> = Vec::new();
                let mut prev: Vec<usize> = Vec::new();
                for _ in 0..k.saturating_sub(2) {
                    let mut cur = prev.clone();
                    for p in 1..len as usize {
                        if rng.gen_bool(0.4) && !cur.contains(&p) {
                            cur.push(p);
                        }
                    }
                    cur.sort_unstable();
                    levels.push(cur.clone());
                    prev = cur;
                }
                mids.insert(t as u32, levels);
            }
            let spec = PrefixSpec { k, mids };
            let mut engine = ClosureEngine::new(nest.clone(), spec.clone());
            let mut next = vec![0u32; txns];
            let mut aborted = vec![false; txns];
            let mut performed: Vec<Step> = Vec::new();
            while let Some(t) = {
                let open: Vec<usize> = (0..txns)
                    .filter(|&t| !aborted[t] && next[t] < lens[t])
                    .collect();
                (!open.is_empty()).then(|| open[rng.gen_range(0..open.len())])
            } {
                let candidate = step(t as u32, next[t], rng.gen_range(0..entities));
                if engine.apply_step(candidate).is_err() {
                    aborted[t] = true;
                    engine.remove_txns(&[TxnId(t as u32)]);
                    performed.retain(|s| s.txn != candidate.txn);
                } else {
                    engine.commit_step();
                    performed.push(candidate);
                    next[t] += 1;
                    if next[t] < lens[t] {
                        continue;
                    }
                    engine.finish_txn(TxnId(t as u32));
                }
                engine.retire_unreachable(|batch| {
                    let order = lemma1.total_order(batch).unwrap();
                    let got: Vec<Step> = order.iter().map(|&v| batch.step(v)).collect();
                    let retired: Vec<TxnId> = got.iter().map(|s| s.txn).collect();
                    let proj = Execution::new(
                        performed
                            .iter()
                            .filter(|s| retired.contains(&s.txn))
                            .copied()
                            .collect(),
                    )
                    .unwrap();
                    let ctx = ExecContext::new(&proj, &nest, &spec).unwrap();
                    let closure = CoherentClosure::compute(&ctx);
                    let want: Vec<Step> = extend_to_total_order(&(&ctx, &closure))
                        .unwrap()
                        .iter()
                        .map(|&v| proj.steps()[v])
                        .collect();
                    assert_eq!(got, want, "batch {proj}");
                    batches += 1;
                    shared += usize::from(batch.txn_count() > 1);
                });
            }
        }
        assert!(
            shared > 100,
            "{shared} of {batches} batches span transactions"
        );
    }

    #[test]
    fn randomized_with_aborts_matches_batch() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        for _trial in 0..60 {
            let txns = rng.gen_range(2..5usize);
            let nest = Nest::flat(txns);
            let spec = AtomicSpec { k: 2 };
            let mut engine = ClosureEngine::new(nest.clone(), spec);
            let mut accepted: Vec<Step> = Vec::new();
            let mut next_seq = vec![0u32; txns];
            for _ in 0..rng.gen_range(4..16) {
                if rng.gen_bool(0.15) && !accepted.is_empty() {
                    // Abort a random present transaction.
                    let t = accepted[rng.gen_range(0..accepted.len())].txn;
                    engine.remove_txns(&[t]);
                    accepted.retain(|s| s.txn != t);
                    next_seq[t.index()] = 0;
                    continue;
                }
                let t = rng.gen_range(0..txns);
                let candidate = step(t as u32, next_seq[t], rng.gen_range(0..3u32));
                match engine.apply_step(candidate) {
                    Ok(()) => {
                        engine.commit_step();
                        accepted.push(candidate);
                        next_seq[t] += 1;
                    }
                    Err(_) => {
                        // Deny: state unchanged; nothing to track.
                    }
                }
                // Cross-check the maintained state against batch.
                let exec = Execution::new(accepted.clone()).unwrap();
                let ctx = ExecContext::new(&exec, &nest, &spec).unwrap();
                let batch = CoherentClosure::compute(&ctx);
                assert_engine_matches(&engine, &ctx, &batch);
            }
        }
    }

    #[test]
    fn decide_batch_poisons_denied_transactions() {
        // Eight transactions of four steps over six entities in clashing
        // orders, randomly interleaved: genuine denials, with later
        // offers from the denied transactions still in the stream. Even
        // transactions are atomic; odd ones carry a level-2 breakpoint
        // after their first step, so both grant rules are in play.
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xD57);
        let nest = Nest::new(3, (0..8).map(|t| vec![t % 3]).collect()).expect("depth k-2");
        let scripts: Vec<Vec<u32>> = (0..8)
            .map(|_| (0..4).map(|_| rng.gen_range(0..6u32)).collect())
            .collect();
        let mut next = [0u32; 8];
        let mut schedule = Vec::new();
        while schedule.len() < 32 {
            let t = rng.gen_range(0..8usize);
            if let Some(&x) = scripts[t].get(next[t] as usize) {
                schedule.push(step(t as u32, next[t], x));
                next[t] += 1;
            }
        }

        let spec = PrefixSpec {
            k: 3,
            mids: (1..8).step_by(2).map(|t| (t, vec![vec![1]])).collect(),
        };
        let mut engine = ClosureEngine::new(nest, spec);
        let verdicts = engine.decide_batch(&schedule);
        let mut first: HashMap<TxnId, &CycleWitness> = HashMap::new();
        let mut repeats = 0;
        for (s, v) in schedule.iter().zip(&verdicts) {
            let Err(w) = v else {
                assert!(!first.contains_key(&s.txn), "{s:?} granted after a denial");
                continue;
            };
            match first.get(&s.txn) {
                Some(w0) => {
                    assert_eq!((&w.steps, &w.txns), (&w0.steps, &w0.txns));
                    repeats += 1;
                }
                None => {
                    first.insert(s.txn, w);
                }
            }
        }
        assert!(repeats > 0, "a denied transaction must offer again");
        // Denied offers were never applied: the history is exactly the
        // granted offers, in offer order.
        let granted: Vec<Step> = schedule
            .iter()
            .zip(&verdicts)
            .filter_map(|(&s, v)| v.is_ok().then_some(s))
            .collect();
        assert_eq!(engine.execution().steps(), granted.as_slice());
    }
}
