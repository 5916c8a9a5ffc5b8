//! Runtime transactions: programs paired with *online* breakpoint
//! structure, ready to be driven by a §6 concurrency control.
//!
//! The offline theory (`mla-core`) describes breakpoints per completed
//! execution. A scheduler needs them *online*: after each performed step
//! it must know, immediately, at which levels the transaction now sits at
//! a breakpoint. §6 makes this well-defined via the **compatibility
//! condition**: if two executions of a transaction share a prefix, either
//! both have a breakpoint right after that prefix or neither does. The
//! [`RuntimeBreakpoints`] trait enforces compatibility *by construction* —
//! its only input is the performed prefix.
//!
//! Because each level's breakpoint set refines the previous level's, the
//! breakpoint structure after a given prefix is fully described by one
//! number: the *minimum* level at which a breakpoint occurs there (it then
//! occurs at every deeper level too). [`RuntimeBreakpoints::min_level_after`]
//! returns exactly that.
//!
//! [`TxnInstance`] is the runtime object schedulers drive: program state,
//! performed steps, breakpoint queries, and reset-for-retry after an
//! abort. [`RuntimeSpec`] adapts a set of runtime breakpoint definitions
//! back into an offline [`BreakpointSpecification`], which is how every
//! simulation's final history is re-checked against Theorem 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::Arc;

use mla_core::breakpoints::BreakpointDescription;
use mla_core::spec::BreakpointSpecification;
use mla_model::{EntityId, LocalState, Program, Step, TxnId, Value};

/// Online breakpoint structure for one transaction. Implementations see
/// only the performed prefix, so the §6 compatibility condition holds by
/// construction.
pub trait RuntimeBreakpoints: Send + Sync {
    /// The nest depth `k`.
    fn k(&self) -> usize;

    /// The minimum level (in `2 ..= k-1`) at which a breakpoint follows
    /// the given performed prefix, or `None` if no mid-level breakpoint
    /// occurs there. (Level `k` trivially has breakpoints everywhere and
    /// level 1 nowhere; neither is reported.)
    fn min_level_after(&self, prefix: &[Step]) -> Option<usize>;

    /// Static introspection: the minimum breakpoint level **guaranteed**
    /// after a prefix of length `pos` in *every* run, or `None` when no
    /// level is guaranteed there (including value-dependent structures,
    /// which place breakpoints at run-dependent positions). Position-based
    /// implementations report exactly their [`min_level_after`]
    /// (which ignores values); the conservative default guarantees
    /// nothing, which is always sound for static analyses.
    ///
    /// [`min_level_after`]: RuntimeBreakpoints::min_level_after
    fn guaranteed_level_after(&self, pos: usize) -> Option<usize> {
        let _ = pos;
        None
    }

    /// Static introspection: a level `l` such that after **every**
    /// non-final prefix, every run has a breakpoint of level `<= l` —
    /// a uniform density guarantee. `None` when some prefix may lack a
    /// mid-level breakpoint entirely. The banking transfer's breakpoints
    /// are the motivating case: the level-2 phase boundary floats with
    /// observed values, but levels `<= 3` break after every step in
    /// every run.
    fn uniform_guarantee(&self) -> Option<usize> {
        None
    }

    /// Builds the offline description of a completed run.
    fn to_description(&self, steps: &[Step]) -> BreakpointDescription {
        let k = self.k();
        let n = steps.len();
        let mut mid: Vec<Vec<usize>> = vec![Vec::new(); k.saturating_sub(2)];
        for p in 1..n {
            if let Some(level) = self.min_level_after(&steps[..p]) {
                debug_assert!((2..k).contains(&level), "mid level out of range");
                for (j, level_bounds) in mid.iter_mut().enumerate() {
                    if j + 2 >= level {
                        level_bounds.push(p);
                    }
                }
            }
        }
        BreakpointDescription::from_mid_levels(k, n, &mid)
            .expect("prefix-derived breakpoints are well-formed and refining")
    }
}

/// No mid-level breakpoints: the transaction is atomic with respect to
/// everything but itself.
#[derive(Clone, Copy, Debug)]
pub struct NoBreakpoints {
    /// Nest depth.
    pub k: usize,
}

impl RuntimeBreakpoints for NoBreakpoints {
    fn k(&self) -> usize {
        self.k
    }

    fn min_level_after(&self, _prefix: &[Step]) -> Option<usize> {
        None
    }
}

/// A breakpoint at `level` (and deeper) after every step.
#[derive(Clone, Copy, Debug)]
pub struct EveryStep {
    /// Nest depth.
    pub k: usize,
    /// The minimum level broken after each step (`2 ..= k-1`).
    pub level: usize,
}

impl RuntimeBreakpoints for EveryStep {
    fn k(&self) -> usize {
        self.k
    }

    fn min_level_after(&self, _prefix: &[Step]) -> Option<usize> {
        Some(self.level)
    }

    fn guaranteed_level_after(&self, pos: usize) -> Option<usize> {
        (pos > 0).then_some(self.level)
    }

    fn uniform_guarantee(&self) -> Option<usize> {
        Some(self.level)
    }
}

/// Breakpoints at fixed step positions: `boundaries[p] = level` places a
/// breakpoint of that minimum level after the `p`-th performed step
/// (1-based position = prefix length).
#[derive(Clone, Debug, Default)]
pub struct PhaseTable {
    /// Nest depth.
    pub k: usize,
    /// Position (prefix length) -> minimum broken level.
    pub boundaries: HashMap<usize, usize>,
}

impl PhaseTable {
    /// Builds a phase table.
    pub fn new(k: usize, boundaries: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let boundaries: HashMap<usize, usize> = boundaries.into_iter().collect();
        assert!(
            boundaries.values().all(|&l| (2..k).contains(&l)),
            "phase levels must lie in 2..k"
        );
        PhaseTable { k, boundaries }
    }
}

impl RuntimeBreakpoints for PhaseTable {
    fn k(&self) -> usize {
        self.k
    }

    fn min_level_after(&self, prefix: &[Step]) -> Option<usize> {
        self.boundaries.get(&prefix.len()).copied()
    }

    fn guaranteed_level_after(&self, pos: usize) -> Option<usize> {
        // Purely position-based, so the runtime answer is the guarantee.
        self.boundaries.get(&pos).copied()
    }
}

/// A running transaction: program, local state, performed steps, and
/// breakpoint structure. Schedulers drive it step by step and reset it on
/// abort.
///
/// ```
/// use std::sync::Arc;
/// use mla_model::program::{ScriptOp, ScriptProgram};
/// use mla_model::{EntityId, TxnId};
/// use mla_txn::{PhaseTable, TxnInstance};
///
/// let program = Arc::new(ScriptProgram::new(vec![
///     ScriptOp::Add(EntityId(0), -5),
///     ScriptOp::Add(EntityId(1), 5),
/// ]));
/// let breakpoints = Arc::new(PhaseTable::new(3, [(1, 2)]));
/// let mut txn = TxnInstance::new(TxnId(0), program, breakpoints);
///
/// assert_eq!(txn.next_entity(), Some(EntityId(0)));
/// let step = txn.perform(100); // observe 100 at entity 0
/// assert_eq!(step.wrote, 95);
/// assert!(txn.at_breakpoint(2), "phase boundary after step 1");
/// ```
pub struct TxnInstance {
    id: TxnId,
    program: Arc<dyn Program + Send + Sync>,
    breakpoints: Arc<dyn RuntimeBreakpoints>,
    state: LocalState,
    steps: Vec<Step>,
    attempts: u32,
}

impl TxnInstance {
    /// Creates a fresh instance at its program's start state.
    pub fn new(
        id: TxnId,
        program: Arc<dyn Program + Send + Sync>,
        breakpoints: Arc<dyn RuntimeBreakpoints>,
    ) -> Self {
        let state = program.start();
        TxnInstance {
            id,
            program,
            breakpoints,
            state,
            steps: Vec::new(),
            attempts: 1,
        }
    }

    /// The transaction id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The entity the next step will access, or `None` when finished.
    pub fn next_entity(&self) -> Option<EntityId> {
        self.program.next_entity(&self.state)
    }

    /// Whether the program has reached a final state.
    pub fn is_finished(&self) -> bool {
        self.next_entity().is_none()
    }

    /// Number of steps performed in the current attempt.
    pub fn seq(&self) -> u32 {
        self.steps.len() as u32
    }

    /// Steps performed in the current attempt.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// How many attempts (1 + aborts) this instance has made.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// The instance's breakpoint structure.
    pub fn breakpoints(&self) -> &Arc<dyn RuntimeBreakpoints> {
        &self.breakpoints
    }

    /// Performs the next step, observing `observed` at the entity returned
    /// by [`TxnInstance::next_entity`]. Returns the completed [`Step`].
    ///
    /// # Panics
    /// Panics if the transaction is finished.
    pub fn perform(&mut self, observed: Value) -> Step {
        let entity = self
            .next_entity()
            .expect("perform called on a finished transaction");
        let (next_state, wrote) = self.program.apply(&self.state, observed);
        let step = Step {
            txn: self.id,
            seq: self.seq(),
            entity,
            observed,
            wrote,
        };
        self.state = next_state;
        self.steps.push(step);
        step
    }

    /// Whether the transaction currently sits at a breakpoint of the given
    /// level (1-based, `1 ..= k-1`): true before its first step, after its
    /// last, and wherever the breakpoint structure says so.
    ///
    /// This is exactly the §6 scheduling predicate: "a level(t, t')
    /// breakpoint immediately follows `α` in `t`'s execution subsequence".
    pub fn at_breakpoint(&self, level: usize) -> bool {
        if self.steps.is_empty() || self.is_finished() {
            return true;
        }
        self.breakpoints
            .min_level_after(&self.steps)
            .is_some_and(|l| l <= level)
    }

    /// Abandons the current attempt: back to the start state with no
    /// performed steps (the store undo is the caller's job).
    pub fn reset(&mut self) {
        self.state = self.program.start();
        self.steps.clear();
        self.attempts += 1;
    }

    /// The offline breakpoint description of the performed steps.
    pub fn description(&self) -> BreakpointDescription {
        self.breakpoints.to_description(&self.steps)
    }
}

/// A transaction program as *declared* to a service front-end: the
/// recipe for minting runtime [`TxnInstance`]s (one per attempt), plus
/// the static facts a scheduler wants before the first step runs — the
/// declared entity footprint (what a certificate must cover, and the
/// entities a service's snapshot probes scan) and the transaction's
/// nest path (its position in the k-nest, hence its atomicity levels
/// against everyone else).
///
/// The simulator builds instances directly; `mla-serve` builds profiles,
/// because a live session retries after an abort and every attempt needs
/// a fresh instance from the same declaration.
#[derive(Clone)]
pub struct TxnProfile {
    id: TxnId,
    program: Arc<dyn Program + Send + Sync>,
    breakpoints: Arc<dyn RuntimeBreakpoints>,
    /// Declared footprint: sorted, deduplicated entities any attempt may
    /// touch. Empty only for the empty program.
    footprint: Vec<EntityId>,
    /// The transaction's path in the k-nest.
    nest_path: Vec<u32>,
}

impl TxnProfile {
    /// Declares a transaction with an explicit footprint (must cover
    /// every entity any run touches; this is trusted, the way a declared
    /// workload is).
    pub fn new(
        id: TxnId,
        program: Arc<dyn Program + Send + Sync>,
        breakpoints: Arc<dyn RuntimeBreakpoints>,
        mut footprint: Vec<EntityId>,
        nest_path: Vec<u32>,
    ) -> Self {
        footprint.sort_unstable_by_key(|e| e.0);
        footprint.dedup();
        TxnProfile {
            id,
            program,
            breakpoints,
            footprint,
            nest_path,
        }
    }

    /// Declares a transaction whose footprint is derived from the
    /// program's own static description ([`Program::step_entities`]).
    ///
    /// # Panics
    /// Panics if the program cannot describe its accesses statically —
    /// declare such programs with an explicit footprint via
    /// [`TxnProfile::new`].
    pub fn from_program(
        id: TxnId,
        program: Arc<dyn Program + Send + Sync>,
        breakpoints: Arc<dyn RuntimeBreakpoints>,
        nest_path: Vec<u32>,
    ) -> Self {
        let footprint = program
            .step_entities()
            .expect("program has no static step list; declare a footprint explicitly");
        Self::new(id, program, breakpoints, footprint, nest_path)
    }

    /// The transaction id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The declared footprint (sorted, deduplicated).
    pub fn footprint(&self) -> &[EntityId] {
        &self.footprint
    }

    /// Whether the declaration covers `e`.
    pub fn declares(&self, e: EntityId) -> bool {
        self.footprint.binary_search_by_key(&e.0, |x| x.0).is_ok()
    }

    /// The transaction's nest path.
    pub fn nest_path(&self) -> &[u32] {
        &self.nest_path
    }

    /// The breakpoint structure (register it in a [`RuntimeSpec`] for
    /// post-hoc Theorem 2 checking).
    pub fn breakpoints(&self) -> &Arc<dyn RuntimeBreakpoints> {
        &self.breakpoints
    }

    /// Mints a fresh instance at the program start — one per attempt.
    pub fn instantiate(&self) -> TxnInstance {
        TxnInstance::new(
            self.id,
            Arc::clone(&self.program),
            Arc::clone(&self.breakpoints),
        )
    }
}

/// Adapts per-transaction runtime breakpoints into an offline
/// [`BreakpointSpecification`] for post-hoc Theorem 2 checking. Unmapped
/// transactions default to atomic (no mid-level breakpoints).
#[derive(Clone, Default)]
pub struct RuntimeSpec {
    k: usize,
    map: HashMap<TxnId, Arc<dyn RuntimeBreakpoints>>,
}

impl RuntimeSpec {
    /// Creates an empty spec of depth `k`.
    pub fn new(k: usize) -> Self {
        RuntimeSpec {
            k,
            map: HashMap::new(),
        }
    }

    /// Registers a transaction's breakpoints.
    pub fn insert(&mut self, t: TxnId, bp: Arc<dyn RuntimeBreakpoints>) {
        assert_eq!(bp.k(), self.k, "breakpoint depth must match spec depth");
        self.map.insert(t, bp);
    }

    /// Builder-style [`RuntimeSpec::insert`].
    pub fn with(mut self, t: TxnId, bp: Arc<dyn RuntimeBreakpoints>) -> Self {
        self.insert(t, bp);
        self
    }
}

impl BreakpointSpecification for RuntimeSpec {
    fn k(&self) -> usize {
        self.k
    }

    fn describe(&self, t: TxnId, steps: &[Step]) -> BreakpointDescription {
        match self.map.get(&t) {
            Some(bp) => bp.to_description(steps),
            None => BreakpointDescription::atomic(self.k, steps.len()),
        }
    }

    /// One [`RuntimeBreakpoints::min_level_after`] call on the prefix
    /// before the last step: exactly what
    /// [`RuntimeBreakpoints::to_description`] records at that position
    /// (a level outside `2..k` breaks there as its nearest mid level
    /// would, `None` only at level `k`).
    fn boundary_level(&self, t: TxnId, steps: &[Step]) -> usize {
        match (self.map.get(&t), steps.len().checked_sub(1)) {
            (Some(bp), Some(last)) if last > 0 => bp
                .min_level_after(&steps[..last])
                .map_or(self.k, |level| level.clamp(2, self.k)),
            _ => self.k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_model::program::{ScriptOp::*, ScriptProgram};

    fn e(x: u32) -> EntityId {
        EntityId(x)
    }

    fn transfer_program() -> Arc<dyn Program + Send + Sync> {
        // w w | d d with the phase boundary after step 2.
        Arc::new(ScriptProgram::new(vec![
            Add(e(0), -10),
            Add(e(1), -5),
            Add(e(2), 10),
            Add(e(3), 5),
        ]))
    }

    fn transfer_breakpoints() -> Arc<dyn RuntimeBreakpoints> {
        Arc::new(PhaseTable::new(4, [(2, 2), (1, 3), (3, 3)]))
    }

    #[test]
    fn instance_lifecycle() {
        let mut txn = TxnInstance::new(TxnId(0), transfer_program(), transfer_breakpoints());
        assert!(!txn.is_finished());
        assert_eq!(txn.next_entity(), Some(e(0)));
        assert!(txn.at_breakpoint(1), "not yet started: interruptible");

        let s0 = txn.perform(100);
        assert_eq!(s0.wrote, 90);
        assert_eq!(s0.seq, 0);
        // After 1 step: PhaseTable says min level 3.
        assert!(!txn.at_breakpoint(1));
        assert!(!txn.at_breakpoint(2));
        assert!(txn.at_breakpoint(3));

        let _s1 = txn.perform(50);
        // After 2 steps: phase boundary, level 2.
        assert!(txn.at_breakpoint(2));
        assert!(!txn.at_breakpoint(1));

        txn.perform(0);
        txn.perform(0);
        assert!(txn.is_finished());
        assert!(txn.at_breakpoint(1), "finished: interruptible at any level");
        assert_eq!(txn.seq(), 4);
    }

    #[test]
    fn reset_restores_start() {
        let mut txn = TxnInstance::new(TxnId(0), transfer_program(), transfer_breakpoints());
        txn.perform(100);
        txn.perform(50);
        assert_eq!(txn.attempts(), 1);
        txn.reset();
        assert_eq!(txn.seq(), 0);
        assert_eq!(txn.attempts(), 2);
        assert_eq!(txn.next_entity(), Some(e(0)));
        let s = txn.perform(100);
        assert_eq!(s.seq, 0);
    }

    #[test]
    fn description_matches_runtime_breakpoints() {
        let mut txn = TxnInstance::new(TxnId(0), transfer_program(), transfer_breakpoints());
        for v in [100, 50, 0, 0] {
            txn.perform(v);
        }
        let bd = txn.description();
        assert_eq!(bd.k(), 4);
        assert_eq!(bd.step_count(), 4);
        // Level 2: only position 2 (the phase boundary).
        assert_eq!(bd.boundaries(2), vec![2]);
        // Level 3: positions 1, 2, 3.
        assert_eq!(bd.boundaries(3), vec![1, 2, 3]);
        assert_eq!(bd.segments(2), vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn no_breakpoints_is_atomic() {
        let bp = NoBreakpoints { k: 3 };
        let steps: Vec<Step> = (0..3)
            .map(|i| Step {
                txn: TxnId(0),
                seq: i,
                entity: e(i),
                observed: 0,
                wrote: 0,
            })
            .collect();
        assert_eq!(
            bp.to_description(&steps),
            BreakpointDescription::atomic(3, 3)
        );
        assert_eq!(bp.min_level_after(&steps[..1]), None);
    }

    #[test]
    fn every_step_is_free_at_its_level() {
        let bp = EveryStep { k: 4, level: 3 };
        let steps: Vec<Step> = (0..3)
            .map(|i| Step {
                txn: TxnId(0),
                seq: i,
                entity: e(i),
                observed: 0,
                wrote: 0,
            })
            .collect();
        let bd = bp.to_description(&steps);
        assert_eq!(bd.boundaries(2), Vec::<usize>::new());
        assert_eq!(bd.boundaries(3), vec![1, 2]);
    }

    #[test]
    fn compatibility_by_construction() {
        // Two runs sharing a prefix agree on the breakpoint after it —
        // trivially, because min_level_after sees only the prefix.
        let bp = transfer_breakpoints();
        let mk = |n: usize, salt: i64| -> Vec<Step> {
            (0..n)
                .map(|i| Step {
                    txn: TxnId(0),
                    seq: i as u32,
                    entity: e(i as u32),
                    observed: salt,
                    wrote: salt + 1,
                })
                .collect()
        };
        let run_a = mk(4, 0);
        let run_b = mk(4, 99);
        for p in 1..4 {
            assert_eq!(
                bp.min_level_after(&run_a[..p]),
                bp.min_level_after(&run_a[..p]),
            );
            // Same prefix length, different observations: PhaseTable is
            // position-based so they agree (value-dependent impls would
            // only agree when the actual prefixes coincide).
            assert_eq!(
                bp.min_level_after(&run_a[..p]),
                bp.min_level_after(&run_b[..p]),
            );
        }
    }

    #[test]
    fn runtime_spec_adapts_for_offline_checking() {
        use mla_core::nest::Nest;
        use mla_core::spec::ExecContext;
        let mut t0 = TxnInstance::new(TxnId(0), transfer_program(), transfer_breakpoints());
        for v in [100, 50, 0, 0] {
            t0.perform(v);
        }
        let exec = mla_model::Execution::new(t0.steps().to_vec()).unwrap();
        let spec = RuntimeSpec::new(4).with(TxnId(0), transfer_breakpoints());
        let nest = Nest::new(4, vec![vec![0, 0]]).unwrap();
        let ctx = ExecContext::new(&exec, &nest, &spec).unwrap();
        assert_eq!(ctx.bd(0).boundaries(2), vec![2]);
    }

    #[test]
    fn profile_mints_fresh_instances_with_declared_facts() {
        let profile = TxnProfile::from_program(
            TxnId(3),
            transfer_program(),
            transfer_breakpoints(),
            vec![0, 1],
        );
        assert_eq!(profile.id(), TxnId(3));
        assert_eq!(
            profile.footprint(),
            &[e(0), e(1), e(2), e(3)],
            "sorted, deduplicated"
        );
        assert!(profile.declares(e(2)));
        assert!(!profile.declares(e(7)));
        assert_eq!(profile.nest_path(), &[0, 1]);
        // Each attempt gets an independent instance.
        let mut a = profile.instantiate();
        a.perform(100);
        let b = profile.instantiate();
        assert_eq!(a.seq(), 1);
        assert_eq!(b.seq(), 0);
        assert_eq!(b.id(), TxnId(3));
    }

    #[test]
    fn explicit_footprint_overrides_program() {
        let profile = TxnProfile::new(
            TxnId(0),
            transfer_program(),
            transfer_breakpoints(),
            vec![e(9), e(1), e(9)],
            vec![0],
        );
        assert_eq!(profile.footprint(), &[e(1), e(9)]);
    }

    #[test]
    #[should_panic(expected = "phase levels must lie in 2..k")]
    fn phase_table_rejects_bad_level() {
        PhaseTable::new(3, [(1, 3)]);
    }

    #[test]
    #[should_panic(expected = "finished")]
    fn perform_after_finish_panics() {
        let mut txn = TxnInstance::new(
            TxnId(0),
            Arc::new(ScriptProgram::new(vec![Read(e(0))])),
            Arc::new(NoBreakpoints { k: 2 }),
        );
        txn.perform(0);
        txn.perform(0);
    }

    /// Random position-based runtime breakpoints of depth `k`.
    fn random_breakpoints(rng: &mut impl rand::Rng, k: usize) -> Arc<dyn RuntimeBreakpoints> {
        if k == 2 {
            return Arc::new(NoBreakpoints { k });
        }
        match rng.gen_range(0..3) {
            0 => Arc::new(NoBreakpoints { k }),
            1 => Arc::new(EveryStep {
                k,
                level: rng.gen_range(2..k),
            }),
            _ => {
                let mut table = Vec::new();
                for p in 1..8 {
                    if rng.gen_bool(0.5) {
                        table.push((p, rng.gen_range(2..k)));
                    }
                }
                Arc::new(PhaseTable::new(k, table))
            }
        }
    }

    /// Every column's in-place description equals `RuntimeSpec::describe`
    /// of the subsequence the engine stores for it.
    fn assert_descriptions_match(
        engine: &mla_core::ClosureEngine<RuntimeSpec>,
        spec: &RuntimeSpec,
    ) {
        for lt in 0..engine.txn_count() {
            let sub: Vec<Step> = engine
                .steps_of(lt)
                .iter()
                .map(|&r| *engine.step(r))
                .collect();
            assert_eq!(
                engine.description(lt),
                &spec.describe(engine.txn_id(lt), &sub),
                "column {lt} after {} steps",
                sub.len()
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The closure engine extends a description by one step per
        /// append (through `boundary_level`) and pops it on rollback.
        /// Random appends, single and paired rollbacks and abort
        /// rebuilds over random `PhaseTable` / `EveryStep` /
        /// `NoBreakpoints` transactions: after every operation each
        /// description equals `describe` of its prefix, and a rollback
        /// restores the previous description exactly. Transactions touch
        /// disjoint entities, so no step is ever denied.
        #[test]
        fn in_place_descriptions_match_describe(seed in proptest::prelude::any::<u64>()) {
            use mla_core::nest::Nest;
            use mla_core::ClosureEngine;
            use rand::{rngs::SmallRng, Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            let k = rng.gen_range(2..6usize);
            let txns = rng.gen_range(1..4u32);
            let mut spec = RuntimeSpec::new(k);
            for t in 0..txns {
                // The last transaction sometimes stays unmapped (atomic).
                if t + 1 < txns || rng.gen_bool(0.7) {
                    spec.insert(TxnId(t), random_breakpoints(&mut rng, k));
                }
            }
            let nest = Nest::new(k, vec![vec![0; k - 2]; txns as usize]).unwrap();
            let mut engine = ClosureEngine::new(nest, spec.clone());
            let mut next = vec![0u32; txns as usize];
            let step_of = |t: u32, seq: u32| Step {
                txn: TxnId(t),
                seq,
                entity: EntityId(t),
                observed: 0,
                wrote: 0,
            };
            for _ in 0..40 {
                let t = rng.gen_range(0..txns);
                let lt = engine.local_of(TxnId(t));
                let before = lt.map(|lt| engine.description(lt).clone());
                match rng.gen_range(0..10) {
                    0..=4 => {
                        engine.apply_step(step_of(t, next[t as usize])).unwrap();
                        engine.commit_step();
                        next[t as usize] += 1;
                    }
                    5..=6 => {
                        engine.apply_step(step_of(t, next[t as usize])).unwrap();
                        assert_descriptions_match(&engine, &spec);
                        engine.rollback_step();
                    }
                    7..=8 if txns > 1 => {
                        let u = (t + 1) % txns;
                        let probe =
                            engine.probe_pair(step_of(t, next[t as usize]), step_of(u, next[u as usize]));
                        assert!(probe.first_ok && probe.second_ok);
                    }
                    _ => {
                        engine.remove_txns(&[TxnId(t)]);
                        next[t as usize] = 0;
                        assert_descriptions_match(&engine, &spec);
                        continue;
                    }
                }
                assert_descriptions_match(&engine, &spec);
                // A rollback left the previous description, and a first
                // step rolled back left no column at all.
                if let (Some(lt), Some(before)) = (lt, &before) {
                    if engine.steps_of(lt).len() == before.step_count() {
                        assert_eq!(engine.description(lt), before);
                    }
                }
                if lt.is_none() && next[t as usize] == 0 {
                    assert_eq!(engine.local_of(TxnId(t)), None);
                }
            }
        }
    }
}
