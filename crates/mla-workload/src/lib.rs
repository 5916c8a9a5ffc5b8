//! Workload generators for the experiments: the paper's two running
//! applications and a fully synthetic nest.
//!
//! * [`banking`] — §2 Application 1: families of accounts, conditional
//!   transfer transactions (withdraw from several accounts until the
//!   target amount is gathered — the paper's branching example), bank
//!   audits (atomic with respect to everything), and per-family credit
//!   audits, under the paper's 4-nest.
//! * [`cad`] — §2 Application 2: Utopian Planning's plan database with
//!   specialties, teams, modification transactions, and public-relations
//!   snapshots, under the §4.2 5-nest.
//! * [`synthetic`] — parameterized nests (depth, fanout), transaction
//!   length, Zipf-skewed entity selection, and per-level breakpoint
//!   densities: the sweep axes of experiments E1–E3, E5, E8.
//! * [`partitioned`] — independent entity universes with long-lived
//!   scanners pinning each universe's live window: the certified fast
//!   path's showcase (A7).
//! * [`mixed`] — one 4-nest whose universes each carry a *different*
//!   k-level of interleaving freedom (atomic / subgroup-only / whole
//!   universe): the MLA analogue of mixed isolation levels.
//!
//! Every generator produces a [`Workload`]: nest + programs + runtime
//! breakpoints + initial values + arrival times, from which fresh
//! simulator instances, an offline [`System`], and a [`RuntimeSpec`] can
//! all be derived. Generation is fully determined by the config's seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod banking;
pub mod banking_escrow;
pub mod cad;
pub mod mixed;
pub mod partitioned;
pub mod synthetic;
pub mod util;

use std::sync::Arc;

use mla_core::nest::Nest;
use mla_model::program::System;
use mla_model::{EntityId, LocalState, Program, TxnId, Value};
use mla_txn::{RuntimeBreakpoints, RuntimeSpec, TxnInstance, TxnProfile};

/// A complete generated workload.
pub struct Workload {
    /// Human-readable label.
    pub name: String,
    /// The k-nest over the transactions.
    pub nest: Nest,
    /// One program per transaction.
    pub programs: Vec<Arc<dyn Program + Send + Sync>>,
    /// One runtime breakpoint structure per transaction.
    pub breakpoints: Vec<Arc<dyn RuntimeBreakpoints>>,
    /// Entity initial values.
    pub initial: Vec<(EntityId, Value)>,
    /// Injection time per transaction.
    pub arrivals: Vec<u64>,
}

impl Workload {
    /// Number of transactions.
    pub fn txn_count(&self) -> usize {
        self.programs.len()
    }

    /// Fresh simulator instances (consumable; call again for a rerun).
    pub fn instances(&self) -> Vec<TxnInstance> {
        self.programs
            .iter()
            .zip(&self.breakpoints)
            .enumerate()
            .map(|(i, (p, b))| TxnInstance::new(TxnId(i as u32), p.clone(), b.clone()))
            .collect()
    }

    /// Declared transaction profiles — what a service front-end consumes
    /// (each mints fresh instances per attempt). Footprints come from the
    /// programs' static step lists where available, falling back to a
    /// per-run probe of the branching programs' entity universe via
    /// [`Program::may_footprint`]; programs describing neither get an
    /// empty declared footprint, which simply declares nothing (no latch
    /// span, never certificate-covered).
    pub fn profiles(&self) -> Vec<TxnProfile> {
        self.programs
            .iter()
            .zip(&self.breakpoints)
            .enumerate()
            .map(|(i, (p, b))| {
                let t = TxnId(i as u32);
                let footprint = p
                    .step_entities()
                    .or_else(|| p.may_footprint())
                    .unwrap_or_default();
                TxnProfile::new(
                    t,
                    p.clone(),
                    b.clone(),
                    footprint,
                    self.nest.path(t).to_vec(),
                )
            })
            .collect()
    }

    /// The offline breakpoint specification matching the instances.
    pub fn spec(&self) -> RuntimeSpec {
        let mut spec = RuntimeSpec::new(self.nest.k());
        for (i, b) in self.breakpoints.iter().enumerate() {
            spec.insert(TxnId(i as u32), b.clone());
        }
        spec
    }

    /// The offline [`System`] (for schedule-driven generation and
    /// validation).
    pub fn system(&self) -> System {
        System::new(
            self.programs
                .iter()
                .map(|p| Box::new(ArcProgram(p.clone())) as Box<dyn Program + Send + Sync>)
                .collect(),
            self.initial.iter().copied(),
        )
    }
}

/// Adapter: share an `Arc`'d program where a `Box` is required.
struct ArcProgram(Arc<dyn Program + Send + Sync>);

impl Program for ArcProgram {
    fn start(&self) -> LocalState {
        self.0.start()
    }

    fn next_entity(&self, state: &LocalState) -> Option<EntityId> {
        self.0.next_entity(state)
    }

    fn apply(&self, state: &LocalState, observed: Value) -> (LocalState, Value) {
        self.0.apply(state, observed)
    }

    fn step_entities(&self) -> Option<Vec<EntityId>> {
        self.0.step_entities()
    }

    fn may_footprint(&self) -> Option<Vec<EntityId>> {
        self.0.may_footprint()
    }
}
