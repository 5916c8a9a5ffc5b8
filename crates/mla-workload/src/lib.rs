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
//! breakpoints + initial values + arrival times. Each program is held
//! once, as an `Arc`, and every consumer shares it: the runtime
//! instances that `mla-sim` and `mla-serve` drive, the offline
//! [`System`] that validates their histories, and the static analyses
//! that read the programs' footprints. The [`RuntimeSpec`] comes from
//! the breakpoints the same way. Generation is fully determined by the
//! config's seed.

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
use mla_model::{EntityId, Program, TxnId, Value};
use mla_txn::{NoBreakpoints, RuntimeBreakpoints, RuntimeSpec, TxnInstance};

/// A complete generated workload.
pub struct Workload {
    /// Human-readable label.
    pub name: String,
    /// The k-nest over the transactions.
    pub nest: Nest,
    /// One program per transaction: the one handle the runtime
    /// instances, the offline [`System`] and the static analyses share.
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

    /// Fresh runtime instances, one per program at its start (consumable;
    /// call again for a rerun). The simulator's callers and `mla-serve`
    /// both build their instances here.
    pub fn instances(&self) -> Vec<TxnInstance> {
        self.programs
            .iter()
            .zip(&self.breakpoints)
            .enumerate()
            .map(|(i, (p, b))| TxnInstance::new(TxnId(i as u32), p.clone(), b.clone()))
            .collect()
    }

    /// The programs, under the name `perfbench/tests/bench.rs` still
    /// calls them by; new code reads [`Workload::programs`] directly.
    pub fn profiles(&self) -> &[Arc<dyn Program + Send + Sync>] {
        &self.programs
    }

    /// The offline breakpoint specification matching the instances.
    pub fn spec(&self) -> RuntimeSpec {
        let mut spec = RuntimeSpec::new(self.nest.k());
        for (i, b) in self.breakpoints.iter().enumerate() {
            spec.insert(TxnId(i as u32), b.clone());
        }
        spec
    }

    /// The same programs (shared), initial values and arrivals under the
    /// flat 2-nest with no breakpoints, where multilevel atomicity is
    /// serializability (§4.3).
    pub fn flattened(&self) -> Workload {
        let n = self.txn_count();
        let none: Arc<dyn RuntimeBreakpoints> = Arc::new(NoBreakpoints { k: 2 });
        Workload {
            name: format!("{} (flat)", self.name),
            nest: Nest::flat(n),
            programs: self.programs.clone(),
            breakpoints: vec![none; n],
            initial: self.initial.clone(),
            arrivals: self.arrivals.clone(),
        }
    }

    /// The offline [`System`] over the same programs (for
    /// schedule-driven generation and validation).
    pub fn system(&self) -> System {
        System::new(self.programs.clone(), self.initial.iter().copied())
    }
}
