//! Transactions as automata, and systems of transactions (§3.1).
//!
//! A transaction "can rely on its memory of previous processing to
//! determine its later processing" — it is an automaton whose local state
//! persists across steps, and whose next access may depend on every value
//! observed so far (the paper's conditional branching). [`Program`] is
//! that automaton; [`System`] bundles programs with entity initial values
//! and implements the §3.1 consistency requirements: replay-validation of
//! executions and generation of executions from interleaving schedules.

use std::collections::HashMap;
use std::sync::Arc;

use crate::execution::Execution;
use crate::ids::{EntityId, TxnId, Value};
use crate::step::Step;

/// Local state of a transaction automaton: a program counter plus a small
/// register file. Programs are free to encode anything they like in the
/// registers (amount still to withdraw, running totals, ...).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalState {
    /// Program counter; [`Program`] implementations define its meaning.
    pub pc: u32,
    /// General-purpose registers.
    pub regs: Vec<Value>,
}

impl LocalState {
    /// The all-zero start state with `n` registers.
    pub fn zeroed(n: usize) -> Self {
        LocalState {
            pc: 0,
            regs: vec![0; n],
        }
    }
}

/// A transaction program: a deterministic automaton over observed entity
/// values.
///
/// The paper allows nondeterministic automata; every workload in this
/// reproduction is deterministic *given its observations* (the banking
/// transfer's behaviour "depends on the amounts encountered in the various
/// accounts" — that is observation-dependence, not nondeterminism), and
/// determinism is what makes replay-validation meaningful. Randomized
/// workloads obtain their variety from generation-time randomness baked
/// into the program, not from run-time nondeterminism.
pub trait Program {
    /// The automaton's start state.
    fn start(&self) -> LocalState;

    /// The entity the automaton accesses next from `state`, or `None` if it
    /// has reached a final state.
    fn next_entity(&self, state: &LocalState) -> Option<EntityId>;

    /// Performs the access: from `state`, observe `observed` at the entity
    /// announced by [`Program::next_entity`]; returns the successor state
    /// and the value left in the entity.
    fn apply(&self, state: &LocalState, observed: Value) -> (LocalState, Value);

    /// Static introspection: the exact entity sequence every run touches,
    /// in step order, when the program's access pattern is
    /// observation-independent (straight-line). `None` for branching
    /// programs whose step sequence depends on observed values.
    ///
    /// Consumers (the `mla-lint` static certifier) treat `Some` as a
    /// promise: *every* run performs exactly these accesses in exactly
    /// this order.
    fn step_entities(&self) -> Option<Vec<EntityId>> {
        None
    }

    /// Static introspection: an over-approximation of the entities *any*
    /// run may touch, in no particular order, each accessed **at most
    /// once** per run. Branching programs whose step order is
    /// value-dependent but whose entity universe is fixed implement this;
    /// straight-line programs inherit it from
    /// [`Program::step_entities`] (only when no entity repeats — a
    /// repeated entity is not an "at most once" footprint). `None` means
    /// the program cannot describe itself and static analyses must treat
    /// its footprint as unknown.
    fn may_footprint(&self) -> Option<Vec<EntityId>> {
        let entities = self.step_entities()?;
        let mut sorted = entities.clone();
        sorted.sort_unstable();
        sorted.dedup();
        (sorted.len() == entities.len()).then_some(sorted)
    }

    /// The declared footprint, sorted and deduplicated: the
    /// [`Program::step_entities`], else the [`Program::may_footprint`],
    /// else nothing. A service's snapshot probes scan the union of these.
    fn footprint(&self) -> Vec<EntityId> {
        let mut entities = self
            .step_entities()
            .or_else(|| self.may_footprint())
            .unwrap_or_default();
        entities.sort_unstable();
        entities.dedup();
        entities
    }
}

/// A straight-line script program: a fixed list of operations, one per
/// step. Sufficient for unconditional workloads and most tests; branching
/// programs implement [`Program`] directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScriptProgram {
    ops: Vec<ScriptOp>,
}

/// One straight-line operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScriptOp {
    /// Read the entity, leaving it unchanged.
    Read(EntityId),
    /// Overwrite the entity with a constant.
    Write(EntityId, Value),
    /// Add a (possibly negative) constant to the entity.
    Add(EntityId, Value),
    /// Read the entity into register 0 (accumulating: `r0 += value`),
    /// leaving the entity unchanged. Used by audit-style programs.
    Accumulate(EntityId),
}

impl ScriptProgram {
    /// Builds a script from operations.
    pub fn new(ops: Vec<ScriptOp>) -> Self {
        ScriptProgram { ops }
    }

    /// Number of steps the script takes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the script is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl Program for ScriptProgram {
    fn start(&self) -> LocalState {
        LocalState::zeroed(1)
    }

    fn next_entity(&self, state: &LocalState) -> Option<EntityId> {
        self.ops.get(state.pc as usize).map(|op| match op {
            ScriptOp::Read(e)
            | ScriptOp::Write(e, _)
            | ScriptOp::Add(e, _)
            | ScriptOp::Accumulate(e) => *e,
        })
    }

    fn apply(&self, state: &LocalState, observed: Value) -> (LocalState, Value) {
        let op = self.ops[state.pc as usize];
        let mut next = state.clone();
        next.pc += 1;
        let wrote = match op {
            ScriptOp::Read(_) => observed,
            ScriptOp::Write(_, v) => v,
            ScriptOp::Add(_, d) => observed + d,
            ScriptOp::Accumulate(_) => {
                next.regs[0] += observed;
                observed
            }
        };
        (next, wrote)
    }

    fn step_entities(&self) -> Option<Vec<EntityId>> {
        // Straight-line by construction: every run performs exactly the
        // script, whatever it observes.
        Some(
            self.ops
                .iter()
                .map(|op| match op {
                    ScriptOp::Read(e)
                    | ScriptOp::Write(e, _)
                    | ScriptOp::Add(e, _)
                    | ScriptOp::Accumulate(e) => *e,
                })
                .collect(),
        )
    }
}

/// A system of transactions (§3.1): programs plus entity initial values.
/// All variables are internal — entities are only touched via the
/// programs' steps. The programs are shared `Arc`s, so a generated
/// workload hands the system the very programs its runtime instances
/// drive.
pub struct System {
    programs: Vec<Arc<dyn Program + Send + Sync>>,
    initial: HashMap<EntityId, Value>,
}

/// Why an execution failed replay-validation against a [`System`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// A step named a transaction the system does not contain.
    UnknownTxn(TxnId),
    /// A transaction took a step after reaching a final state.
    StepAfterCompletion(TxnId),
    /// A step accessed a different entity than the program dictates.
    WrongEntity {
        /// The offending step (global index in the execution).
        at: usize,
        /// What the program would access.
        expected: EntityId,
        /// What the step recorded.
        found: EntityId,
    },
    /// A step observed a value different from the entity's current value.
    WrongObserved {
        /// The offending step index.
        at: usize,
        /// The entity's actual value at that point.
        expected: Value,
        /// What the step recorded.
        found: Value,
    },
    /// A step wrote a value different from what the program computes.
    WrongWrote {
        /// The offending step index.
        at: usize,
        /// The value the program computes.
        expected: Value,
        /// What the step recorded.
        found: Value,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::UnknownTxn(t) => write!(f, "unknown transaction {t}"),
            ValidationError::StepAfterCompletion(t) => {
                write!(f, "transaction {t} stepped after completion")
            }
            ValidationError::WrongEntity {
                at,
                expected,
                found,
            } => write!(
                f,
                "step {at}: program accesses {expected}, step has {found}"
            ),
            ValidationError::WrongObserved {
                at,
                expected,
                found,
            } => write!(
                f,
                "step {at}: entity holds {expected}, step observed {found}"
            ),
            ValidationError::WrongWrote {
                at,
                expected,
                found,
            } => write!(
                f,
                "step {at}: program writes {expected}, step wrote {found}"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Why [`System::run_schedule`] rejected a schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// The schedule named a transaction the system does not contain.
    UnknownTxn(TxnId),
    /// The schedule asked a finished transaction to step.
    TxnFinished(TxnId),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::UnknownTxn(t) => write!(f, "unknown transaction {t}"),
            ScheduleError::TxnFinished(t) => write!(f, "transaction {t} already finished"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl System {
    /// Builds a system. Transaction `i` runs `programs[i]`; entities not in
    /// `initial` start at 0.
    pub fn new(
        programs: Vec<Arc<dyn Program + Send + Sync>>,
        initial: impl IntoIterator<Item = (EntityId, Value)>,
    ) -> Self {
        System {
            programs,
            initial: initial.into_iter().collect(),
        }
    }

    /// Number of transactions.
    pub fn txn_count(&self) -> usize {
        self.programs.len()
    }

    /// The program of transaction `t`.
    pub fn program(&self, t: TxnId) -> Option<&(dyn Program + Send + Sync)> {
        self.programs.get(t.index()).map(|p| p.as_ref())
    }

    /// Initial value of an entity.
    pub fn initial_value(&self, e: EntityId) -> Value {
        self.initial.get(&e).copied().unwrap_or(0)
    }

    /// Replays `e`, checking the §3.1 consistency requirements: each
    /// internal variable starts at its initial value; each step of a
    /// process begins in the state the process had after its previous
    /// step; each step on a variable begins with the value the variable
    /// had after its previous access — and, additionally, that each step
    /// is exactly what the transaction's program dictates.
    pub fn validate(&self, e: &Execution) -> Result<(), ValidationError> {
        let mut states: HashMap<TxnId, LocalState> = HashMap::new();
        let mut values: HashMap<EntityId, Value> = HashMap::new();
        for (at, s) in e.steps().iter().enumerate() {
            let program = self
                .programs
                .get(s.txn.index())
                .ok_or(ValidationError::UnknownTxn(s.txn))?;
            let state = states
                .entry(s.txn)
                .or_insert_with(|| program.start())
                .clone();
            let expected_entity = program
                .next_entity(&state)
                .ok_or(ValidationError::StepAfterCompletion(s.txn))?;
            if expected_entity != s.entity {
                return Err(ValidationError::WrongEntity {
                    at,
                    expected: expected_entity,
                    found: s.entity,
                });
            }
            let current = *values
                .entry(s.entity)
                .or_insert_with(|| self.initial_value(s.entity));
            if current != s.observed {
                return Err(ValidationError::WrongObserved {
                    at,
                    expected: current,
                    found: s.observed,
                });
            }
            let (next_state, wrote) = program.apply(&state, current);
            if wrote != s.wrote {
                return Err(ValidationError::WrongWrote {
                    at,
                    expected: wrote,
                    found: s.wrote,
                });
            }
            values.insert(s.entity, wrote);
            states.insert(s.txn, next_state);
        }
        Ok(())
    }

    /// Runs the system under an explicit interleaving `schedule`: entry `k`
    /// names the transaction that performs the `k`-th step. Produces the
    /// (valid-by-construction) execution.
    pub fn run_schedule(&self, schedule: &[TxnId]) -> Result<Execution, ScheduleError> {
        let mut states: HashMap<TxnId, LocalState> = HashMap::new();
        let mut seqs: HashMap<TxnId, u32> = HashMap::new();
        let mut values: HashMap<EntityId, Value> = HashMap::new();
        let mut steps = Vec::with_capacity(schedule.len());
        for &t in schedule {
            let program = self
                .programs
                .get(t.index())
                .ok_or(ScheduleError::UnknownTxn(t))?;
            let state = states.entry(t).or_insert_with(|| program.start()).clone();
            let entity = program
                .next_entity(&state)
                .ok_or(ScheduleError::TxnFinished(t))?;
            let observed = *values
                .entry(entity)
                .or_insert_with(|| self.initial_value(entity));
            let (next_state, wrote) = program.apply(&state, observed);
            let seq = seqs.entry(t).or_insert(0);
            steps.push(Step {
                txn: t,
                seq: *seq,
                entity,
                observed,
                wrote,
            });
            *seq += 1;
            values.insert(entity, wrote);
            states.insert(t, next_state);
        }
        Ok(Execution::new(steps).expect("schedule-generated sequences are contiguous"))
    }

    /// Runs every transaction to completion, one after another, in the
    /// given order — producing a serial execution. Entity choice may depend
    /// on observed values, so the run is a real simulation, not a replay of
    /// precomputed step counts.
    pub fn run_serial(&self, order: &[TxnId]) -> Result<Execution, ScheduleError> {
        let mut states: HashMap<TxnId, LocalState> = HashMap::new();
        let mut seqs: HashMap<TxnId, u32> = HashMap::new();
        let mut values: HashMap<EntityId, Value> = HashMap::new();
        let mut steps = Vec::new();
        for &t in order {
            let program = self
                .programs
                .get(t.index())
                .ok_or(ScheduleError::UnknownTxn(t))?;
            loop {
                let state = states.entry(t).or_insert_with(|| program.start()).clone();
                let Some(entity) = program.next_entity(&state) else {
                    break;
                };
                let observed = *values
                    .entry(entity)
                    .or_insert_with(|| self.initial_value(entity));
                let (next_state, wrote) = program.apply(&state, observed);
                let seq = seqs.entry(t).or_insert(0);
                steps.push(Step {
                    txn: t,
                    seq: *seq,
                    entity,
                    observed,
                    wrote,
                });
                *seq += 1;
                values.insert(entity, wrote);
                states.insert(t, next_state);
            }
        }
        Ok(Execution::new(steps).expect("serial run produces contiguous sequences"))
    }

    /// Whether `e` runs every transaction of the system to completion.
    pub fn is_complete(&self, e: &Execution) -> bool {
        let mut states: HashMap<TxnId, LocalState> = HashMap::new();
        let mut values: HashMap<EntityId, Value> = HashMap::new();
        for s in e.steps() {
            let Some(program) = self.programs.get(s.txn.index()) else {
                return false;
            };
            let state = states
                .entry(s.txn)
                .or_insert_with(|| program.start())
                .clone();
            let (next_state, wrote) = program.apply(&state, s.observed);
            values.insert(s.entity, wrote);
            states.insert(s.txn, next_state);
        }
        (0..self.programs.len()).all(|i| {
            let t = TxnId(i as u32);
            let state = states
                .get(&t)
                .cloned()
                .unwrap_or_else(|| self.programs[i].start());
            self.programs[i].next_entity(&state).is_none()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ScriptOp::*;

    fn transfer_system() -> System {
        // t0: move 10 from x0 to x1. t1: move 5 from x2 to x3.
        System::new(
            vec![
                Arc::new(ScriptProgram::new(vec![
                    Add(EntityId(0), -10),
                    Add(EntityId(1), 10),
                ])),
                Arc::new(ScriptProgram::new(vec![
                    Add(EntityId(2), -5),
                    Add(EntityId(3), 5),
                ])),
            ],
            [(EntityId(0), 100), (EntityId(2), 50)],
        )
    }

    #[test]
    fn run_schedule_produces_valid_execution() {
        let sys = transfer_system();
        let e = sys
            .run_schedule(&[TxnId(0), TxnId(1), TxnId(0), TxnId(1)])
            .unwrap();
        assert_eq!(e.len(), 4);
        sys.validate(&e).expect("generated execution must validate");
        assert!(sys.is_complete(&e));
        // Check actual values.
        assert_eq!(e.steps()[0].observed, 100);
        assert_eq!(e.steps()[0].wrote, 90);
        assert_eq!(e.steps()[2].observed, 0);
        assert_eq!(e.steps()[2].wrote, 10);
    }

    #[test]
    fn run_serial_completes_each_txn() {
        let sys = transfer_system();
        let e = sys.run_serial(&[TxnId(1), TxnId(0)]).unwrap();
        assert!(e.is_serial());
        assert!(sys.is_complete(&e));
        sys.validate(&e).unwrap();
        assert_eq!(e.steps()[0].txn, TxnId(1));
    }

    #[test]
    fn schedule_rejects_finished_txn() {
        let sys = transfer_system();
        let err = sys
            .run_schedule(&[TxnId(0), TxnId(0), TxnId(0)])
            .unwrap_err();
        assert_eq!(err, ScheduleError::TxnFinished(TxnId(0)));
    }

    #[test]
    fn schedule_rejects_unknown_txn() {
        let sys = transfer_system();
        assert_eq!(
            sys.run_schedule(&[TxnId(7)]).unwrap_err(),
            ScheduleError::UnknownTxn(TxnId(7))
        );
    }

    #[test]
    fn validate_detects_wrong_observation() {
        let sys = transfer_system();
        let mut steps = sys
            .run_schedule(&[TxnId(0), TxnId(0)])
            .unwrap()
            .steps()
            .to_vec();
        steps[1].observed = 42;
        let e = Execution::new(steps).unwrap();
        match sys.validate(&e).unwrap_err() {
            ValidationError::WrongObserved { at: 1, .. } => {}
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn validate_detects_wrong_write() {
        let sys = transfer_system();
        let mut steps = sys.run_schedule(&[TxnId(0)]).unwrap().steps().to_vec();
        steps[0].wrote = 0;
        let e = Execution::new(steps).unwrap();
        match sys.validate(&e).unwrap_err() {
            ValidationError::WrongWrote { at: 0, .. } => {}
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn validate_detects_wrong_entity() {
        let sys = transfer_system();
        let mut steps = sys.run_schedule(&[TxnId(0)]).unwrap().steps().to_vec();
        steps[0].entity = EntityId(3);
        steps[0].observed = 0; // x3 starts at 0
        let e = Execution::new(steps).unwrap();
        match sys.validate(&e).unwrap_err() {
            ValidationError::WrongEntity { at: 0, .. } => {}
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn validate_detects_overrun() {
        let sys = transfer_system();
        let steps = vec![
            Step {
                txn: TxnId(0),
                seq: 0,
                entity: EntityId(0),
                observed: 100,
                wrote: 90,
            },
            Step {
                txn: TxnId(0),
                seq: 1,
                entity: EntityId(1),
                observed: 0,
                wrote: 10,
            },
            Step {
                txn: TxnId(0),
                seq: 2,
                entity: EntityId(0),
                observed: 90,
                wrote: 90,
            },
        ];
        let e = Execution::new(steps).unwrap();
        assert_eq!(
            sys.validate(&e).unwrap_err(),
            ValidationError::StepAfterCompletion(TxnId(0))
        );
    }

    #[test]
    fn equivalent_reorderings_stay_valid() {
        // The paper: "every total ordering of the steps of e which is
        // consistent with <=_e is also an execution of S". Check by
        // validating every equivalent reordering.
        let sys = transfer_system();
        let e = sys
            .run_schedule(&[TxnId(0), TxnId(1), TxnId(1), TxnId(0)])
            .unwrap();
        for e2 in e.equivalents() {
            sys.validate(&e2)
                .expect("equivalent reordering must remain a valid execution");
        }
    }

    #[test]
    fn accumulate_tracks_register() {
        let sys = System::new(
            vec![Arc::new(ScriptProgram::new(vec![
                Accumulate(EntityId(0)),
                Accumulate(EntityId(1)),
            ]))],
            [(EntityId(0), 7), (EntityId(1), 8)],
        );
        let e = sys.run_serial(&[TxnId(0)]).unwrap();
        assert!(e.steps().iter().all(|s| s.is_read()));
        sys.validate(&e).unwrap();
    }

    #[test]
    fn incomplete_execution_detected() {
        let sys = transfer_system();
        let e = sys.run_schedule(&[TxnId(0)]).unwrap();
        assert!(!sys.is_complete(&e));
    }
}
