//! The Big Bucks Bank (§2, Application 1; §4.2–4.3 examples).
//!
//! * Accounts are grouped into **families** sharing control.
//! * **Transfer** transactions are the paper's conditional programs: a
//!   customer tries to gather a target amount from several of the
//!   family's accounts in sequence, stopping early once the amount is
//!   reached, then deposits the gathered money across target accounts.
//!   The number of withdrawal steps therefore depends on the balances
//!   *observed at run time*.
//! * **Bank audits** read every account and must be atomic with respect
//!   to everything ("the audit would miss counting the money in
//!   transit", §1).
//! * **Credit audits** read one family's accounts and relate to customer
//!   transactions at level 2 — they may interleave with transfers at the
//!   withdraw/deposit phase boundary.
//!
//! The 4-nest (§4.2): `π(2)` groups customers and creditors together and
//! isolates each bank audit; `π(3)` groups customer transactions of a
//! common family (and isolates each credit audit); transfers carry a
//! level-2 breakpoint exactly between the withdrawal and deposit phases
//! and level-3 breakpoints everywhere.

use std::sync::Arc;

use mla_core::nest::Nest;
use mla_model::program::{ScriptOp, ScriptProgram};
use mla_model::{EntityId, LocalState, Program, Step, TxnId, Value};
use mla_txn::{NoBreakpoints, RuntimeBreakpoints};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::util::Zipf;
use crate::Workload;

/// Parameters of the banking workload.
#[derive(Clone, Debug)]
pub struct BankingConfig {
    /// Number of families.
    pub families: usize,
    /// Accounts per family.
    pub accounts_per_family: usize,
    /// Number of transfer transactions.
    pub transfers: usize,
    /// Fraction of transfers staying within the originating family.
    pub intra_family_ratio: f64,
    /// Number of whole-bank audit transactions.
    pub bank_audits: usize,
    /// Number of per-family credit audit transactions.
    pub credit_audits: usize,
    /// Amount each transfer tries to move.
    pub amount: Value,
    /// Initial balance per account.
    pub initial_balance: Value,
    /// Zipf skew for account selection within a family (0 = uniform).
    pub zipf_theta: f64,
    /// Minimum withdrawal sources per transfer.
    pub sources_min: usize,
    /// Maximum withdrawal sources per transfer (clamped to the family
    /// size).
    pub sources_max: usize,
    /// Ticks between transaction injections.
    pub arrival_spacing: u64,
    /// Generation seed.
    pub seed: u64,
}

impl Default for BankingConfig {
    fn default() -> Self {
        BankingConfig {
            families: 4,
            accounts_per_family: 4,
            transfers: 16,
            intra_family_ratio: 0.5,
            bank_audits: 1,
            credit_audits: 2,
            amount: 100,
            initial_balance: 120,
            zipf_theta: 0.6,
            sources_min: 1,
            sources_max: 3,
            arrival_spacing: 5,
            seed: 0xBA2C,
        }
    }
}

/// The generated banking workload plus its bookkeeping.
pub struct Banking {
    /// The runnable workload.
    pub workload: Workload,
    /// All account entities.
    pub accounts: Vec<EntityId>,
    /// Transfer transaction ids.
    pub transfers: Vec<TxnId>,
    /// Bank audit transaction ids.
    pub bank_audits: Vec<TxnId>,
    /// Credit audit transaction ids (paired with their family).
    pub credit_audits: Vec<(TxnId, usize)>,
    /// The generating configuration.
    pub config: BankingConfig,
}

impl Banking {
    /// Total money initially in the bank.
    pub fn total_money(&self) -> Value {
        self.accounts.len() as Value * self.config.initial_balance
    }
}

/// The conditional transfer program of §4.3: withdraw from `sources` in
/// order until `amount` is gathered (taking whatever partial balances
/// allow), then deposit the gathered total across `targets` (half to each
/// non-final target, remainder to the last).
///
/// Registers: `r0` = amount still needed, `r1` = gathered-but-undeposited.
/// `pc < sources.len()` indexes the withdrawal phase; afterwards
/// `pc - sources.len()` indexes the deposit phase. Gathering zero (all
/// sources empty) skips the deposit phase entirely.
#[derive(Clone, Debug)]
pub struct TransferProgram {
    /// Accounts withdrawn from, in order.
    pub sources: Vec<EntityId>,
    /// Accounts deposited to, in order.
    pub targets: Vec<EntityId>,
    /// The amount the transfer tries to move.
    pub amount: Value,
}

impl Program for TransferProgram {
    fn start(&self) -> LocalState {
        LocalState {
            pc: 0,
            regs: vec![self.amount, 0],
        }
    }

    fn next_entity(&self, state: &LocalState) -> Option<EntityId> {
        let pc = state.pc as usize;
        if pc < self.sources.len() {
            return Some(self.sources[pc]);
        }
        let d = pc - self.sources.len();
        if d < self.targets.len() && state.regs[1] > 0 {
            return Some(self.targets[d]);
        }
        None
    }

    fn apply(&self, state: &LocalState, observed: Value) -> (LocalState, Value) {
        let mut next = state.clone();
        let pc = state.pc as usize;
        if pc < self.sources.len() {
            let needed = state.regs[0];
            let take = observed.max(0).min(needed);
            next.regs[0] -= take;
            next.regs[1] += take;
            next.pc = if next.regs[0] == 0 {
                self.sources.len() as u32 // early exit: amount gathered
            } else {
                state.pc + 1
            };
            (next, observed - take)
        } else {
            let d = pc - self.sources.len();
            let remaining = state.regs[1];
            let dep = if d + 1 == self.targets.len() {
                remaining
            } else {
                remaining / 2
            };
            next.regs[1] -= dep;
            next.pc = state.pc + 1;
            (next, observed + dep)
        }
    }

    fn may_footprint(&self) -> Option<Vec<EntityId>> {
        // The step *sequence* is value-dependent (early exit, skipped
        // deposits), but the entity universe is fixed: some prefix of the
        // sources then some prefix of the targets, each at most once
        // (generation keeps sources and targets disjoint and distinct).
        let mut all: Vec<EntityId> = self
            .sources
            .iter()
            .chain(self.targets.iter())
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        (all.len() == self.sources.len() + self.targets.len()).then_some(all)
    }
}

/// Runtime breakpoints for a transfer: a level-2 breakpoint exactly at
/// the (run-dependent!) boundary between the withdrawal and deposit
/// phases, level-3 breakpoints everywhere else. Prefix-determined: the
/// boundary is recomputed from the observed/written values in the prefix,
/// so the §6 compatibility condition holds even though different runs
/// place the boundary at different positions.
#[derive(Clone, Debug)]
pub struct TransferBreakpoints {
    /// The transfer's source accounts (to recognize withdrawal steps).
    pub sources: Vec<EntityId>,
    /// The transfer's target amount.
    pub amount: Value,
}

impl RuntimeBreakpoints for TransferBreakpoints {
    fn k(&self) -> usize {
        4
    }

    fn min_level_after(&self, prefix: &[Step]) -> Option<usize> {
        let last = prefix.last()?;
        let withdrawals = prefix
            .iter()
            .filter(|s| self.sources.contains(&s.entity))
            .count();
        let gathered: Value = prefix
            .iter()
            .filter(|s| self.sources.contains(&s.entity))
            .map(|s| s.observed - s.wrote)
            .sum();
        let boundary = self.sources.contains(&last.entity)
            && withdrawals == prefix.len() // still purely in phase one
            && (gathered >= self.amount || withdrawals == self.sources.len());
        if boundary {
            Some(2)
        } else {
            Some(3)
        }
    }

    fn uniform_guarantee(&self) -> Option<usize> {
        // Every run answers Some(2) or Some(3) after every step: level 3
        // (and deeper) breaks everywhere, whatever the values did to the
        // phase boundary's position.
        Some(3)
    }
}

/// Generates the banking workload.
pub fn generate(config: BankingConfig) -> Banking {
    assert!(config.families > 0 && config.accounts_per_family > 0);
    assert!(
        config.credit_audits == 0 || config.families > 0,
        "credit audits need families"
    );
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let zipf = Zipf::new(config.accounts_per_family, config.zipf_theta);
    let account = |f: usize, j: usize| EntityId((f * config.accounts_per_family + j) as u32);
    let accounts: Vec<EntityId> = (0..config.families)
        .flat_map(|f| (0..config.accounts_per_family).map(move |j| (f, j)))
        .map(|(f, j)| account(f, j))
        .collect();

    let mut programs: Vec<Arc<dyn Program + Send + Sync>> = Vec::new();
    let mut breakpoints: Vec<Arc<dyn RuntimeBreakpoints>> = Vec::new();
    let mut paths: Vec<Vec<u32>> = Vec::new();
    let mut transfers = Vec::new();
    let mut bank_audits = Vec::new();
    let mut credit_audits = Vec::new();

    // Level-3 class keys: families 0..F for customers; F + f for the
    // credit audit of family f; a fresh key per bank audit.
    let f_count = config.families as u32;

    for _ in 0..config.transfers {
        let origin = rng.gen_range(0..config.families);
        let intra = rng.gen_bool(config.intra_family_ratio.clamp(0.0, 1.0));
        let dest_family = if intra || config.families == 1 {
            origin
        } else {
            // A different family, uniformly.
            let mut g = rng.gen_range(0..config.families - 1);
            if g >= origin {
                g += 1;
            }
            g
        };
        let n_sources = rng
            .gen_range(config.sources_min.max(1)..=config.sources_max.max(config.sources_min))
            .min(config.accounts_per_family);
        let mut sources = Vec::new();
        while sources.len() < n_sources {
            let j = zipf.sample(&mut rng);
            let e = account(origin, j);
            if !sources.contains(&e) {
                sources.push(e);
            }
        }
        // 1-2 distinct targets from the destination family, disjoint from
        // the sources.
        let n_targets = rng.gen_range(1..=2usize).min(
            config
                .accounts_per_family
                .saturating_sub(if dest_family == origin { n_sources } else { 0 })
                .max(1),
        );
        let mut targets = Vec::new();
        let mut guard = 0;
        while targets.len() < n_targets && guard < 1000 {
            guard += 1;
            let j = zipf.sample(&mut rng);
            let e = account(dest_family, j);
            if !targets.contains(&e) && !sources.contains(&e) {
                targets.push(e);
            }
        }
        if targets.is_empty() {
            // Degenerate tiny configuration: fall back to any non-source
            // account in the bank.
            let e = accounts
                .iter()
                .copied()
                .find(|e| !sources.contains(e))
                .unwrap_or(accounts[0]);
            targets.push(e);
        }
        let t = TxnId(programs.len() as u32);
        programs.push(Arc::new(TransferProgram {
            sources: sources.clone(),
            targets,
            amount: config.amount,
        }));
        breakpoints.push(Arc::new(TransferBreakpoints {
            sources,
            amount: config.amount,
        }));
        paths.push(vec![0, origin as u32]);
        transfers.push(t);
    }

    for i in 0..config.credit_audits {
        let f = i % config.families;
        let ops: Vec<ScriptOp> = (0..config.accounts_per_family)
            .map(|j| ScriptOp::Accumulate(account(f, j)))
            .collect();
        let t = TxnId(programs.len() as u32);
        programs.push(Arc::new(ScriptProgram::new(ops)));
        breakpoints.push(Arc::new(NoBreakpoints { k: 4 }));
        paths.push(vec![0, f_count + f as u32]);
        credit_audits.push((t, f));
    }

    for i in 0..config.bank_audits {
        let ops: Vec<ScriptOp> = accounts.iter().map(|&a| ScriptOp::Accumulate(a)).collect();
        let t = TxnId(programs.len() as u32);
        programs.push(Arc::new(ScriptProgram::new(ops)));
        breakpoints.push(Arc::new(NoBreakpoints { k: 4 }));
        paths.push(vec![1, 2 * f_count + i as u32]);
        bank_audits.push(t);
    }

    let nest = Nest::new(4, paths).expect("banking paths have length 2");
    let arrivals: Vec<u64> = (0..programs.len() as u64)
        .map(|i| i * config.arrival_spacing)
        .collect();
    let initial: Vec<(EntityId, Value)> = accounts
        .iter()
        .map(|&a| (a, config.initial_balance))
        .collect();

    Banking {
        workload: Workload {
            name: format!(
                "banking(f={},a={},t={})",
                config.families, config.accounts_per_family, config.transfers
            ),
            nest,
            programs,
            breakpoints,
            initial,
            arrivals,
        },
        accounts,
        transfers,
        bank_audits,
        credit_audits,
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_model::TxnId;

    fn e(x: u32) -> EntityId {
        EntityId(x)
    }

    #[test]
    fn transfer_early_exit_on_rich_first_account() {
        let p = TransferProgram {
            sources: vec![e(0), e(1), e(2)],
            targets: vec![e(3), e(4)],
            amount: 100,
        };
        let mut state = p.start();
        // First account has plenty.
        assert_eq!(p.next_entity(&state), Some(e(0)));
        let (s1, wrote) = p.apply(&state, 500);
        assert_eq!(wrote, 400);
        state = s1;
        // Early exit: straight to deposits.
        assert_eq!(p.next_entity(&state), Some(e(3)));
        let (s2, wrote) = p.apply(&state, 10);
        assert_eq!(wrote, 60, "half of 100 deposited first");
        state = s2;
        assert_eq!(p.next_entity(&state), Some(e(4)));
        let (s3, wrote) = p.apply(&state, 0);
        assert_eq!(wrote, 50, "remainder deposited last");
        assert_eq!(p.next_entity(&s3), None);
    }

    #[test]
    fn transfer_partial_gathering() {
        let p = TransferProgram {
            sources: vec![e(0), e(1)],
            targets: vec![e(2)],
            amount: 100,
        };
        let mut state = p.start();
        let (s1, w) = p.apply(&state, 30);
        assert_eq!(w, 0, "drains the poor account");
        state = s1;
        assert_eq!(p.next_entity(&state), Some(e(1)));
        let (s2, w) = p.apply(&state, 40);
        assert_eq!(w, 0);
        state = s2;
        // Gathered 70 < 100, sources exhausted: deposit what we have.
        let (s3, w) = p.apply(&state, 5);
        assert_eq!(w, 75);
        assert_eq!(p.next_entity(&s3), None);
    }

    #[test]
    fn transfer_gathers_nothing_skips_deposits() {
        let p = TransferProgram {
            sources: vec![e(0)],
            targets: vec![e(1)],
            amount: 50,
        };
        let state = p.start();
        let (s1, w) = p.apply(&state, 0);
        assert_eq!(w, 0);
        assert_eq!(p.next_entity(&s1), None, "nothing gathered, no deposits");
    }

    #[test]
    fn breakpoint_at_run_dependent_phase_boundary() {
        let bp = TransferBreakpoints {
            sources: vec![e(0), e(1), e(2)],
            amount: 100,
        };
        let mk = |entity: u32, observed: Value, wrote: Value| Step {
            txn: TxnId(0),
            seq: 0,
            entity: e(entity),
            observed,
            wrote,
        };
        // Run A: rich first account -> boundary after one step.
        let run_a = [mk(0, 500, 400)];
        assert_eq!(bp.min_level_after(&run_a), Some(2));
        // Run B: poor first account -> still withdrawing.
        let run_b = [mk(0, 30, 0)];
        assert_eq!(bp.min_level_after(&run_b), Some(3));
        // Run B continues, second account completes the amount.
        let run_b2 = [mk(0, 30, 0), mk(1, 90, 20)];
        assert_eq!(bp.min_level_after(&run_b2), Some(2));
        // After a deposit step, only level-3 breakpoints.
        let run_b3 = [mk(0, 30, 0), mk(1, 90, 20), mk(5, 0, 50)];
        assert_eq!(bp.min_level_after(&run_b3), Some(3));
        // All sources exhausted without reaching the amount: boundary too.
        let run_c = [mk(0, 1, 0), mk(1, 2, 0), mk(2, 3, 0)];
        assert_eq!(bp.min_level_after(&run_c), Some(2));
    }

    #[test]
    fn generation_is_deterministic_and_well_formed() {
        let a = generate(BankingConfig::default());
        let b = generate(BankingConfig::default());
        assert_eq!(a.workload.txn_count(), b.workload.txn_count());
        assert_eq!(a.workload.arrivals, b.workload.arrivals);
        assert_eq!(a.workload.nest, b.workload.nest);
        let cfg = &a.config;
        assert_eq!(
            a.workload.txn_count(),
            cfg.transfers + cfg.bank_audits + cfg.credit_audits
        );
        assert_eq!(a.accounts.len(), cfg.families * cfg.accounts_per_family);
    }

    #[test]
    fn nest_levels_match_paper_structure() {
        let b = generate(BankingConfig {
            families: 3,
            transfers: 6,
            bank_audits: 1,
            credit_audits: 1,
            ..BankingConfig::default()
        });
        let nest = &b.workload.nest;
        let audit = b.bank_audits[0];
        for &t in &b.transfers {
            assert_eq!(nest.level(t, audit), 1, "audit isolated at level 2");
        }
        let (credit, f) = b.credit_audits[0];
        for &t in &b.transfers {
            let lvl = nest.level(t, credit);
            assert_eq!(lvl, 2, "credit audits relate to customers at level 2");
            let _ = f;
        }
    }

    #[test]
    fn serial_run_conserves_money_and_audit_sees_total() {
        let b = generate(BankingConfig {
            transfers: 8,
            bank_audits: 1,
            credit_audits: 0,
            ..BankingConfig::default()
        });
        let sys = b.workload.system();
        let order: Vec<TxnId> = (0..b.workload.txn_count() as u32).map(TxnId).collect();
        let exec = sys.run_serial(&order).expect("serial run completes");
        sys.validate(&exec).expect("serial run is valid");
        // Final balances sum to the initial total.
        let mut values: std::collections::HashMap<EntityId, Value> =
            b.workload.initial.iter().copied().collect();
        for s in exec.steps() {
            values.insert(s.entity, s.wrote);
        }
        let total: Value = b.accounts.iter().map(|a| values[a]).sum();
        assert_eq!(total, b.total_money());
        // The audit's accumulated reads equal the total at its point.
        let audit = b.bank_audits[0];
        let audit_sum: Value = exec
            .steps()
            .iter()
            .filter(|s| s.txn == audit)
            .map(|s| s.observed)
            .sum();
        assert_eq!(audit_sum, b.total_money());
    }

    #[test]
    fn tiny_configs_generate() {
        let b = generate(BankingConfig {
            families: 1,
            accounts_per_family: 2,
            transfers: 3,
            bank_audits: 1,
            credit_audits: 1,
            ..BankingConfig::default()
        });
        assert_eq!(b.workload.txn_count(), 5);
        // Instances can be constructed.
        assert_eq!(b.workload.instances().len(), 5);
        let _ = b.workload.spec();
    }
}
