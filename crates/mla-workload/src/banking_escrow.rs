//! The non-blocking audit (§1's citation of \[FGL\]), expressed *through*
//! multilevel atomicity.
//!
//! The paper notes that \[FGL\]'s audit "does not stop transactions in
//! progress". The trick translates directly into this framework: make
//! the in-transit money *visible* by passing it through an **escrow**
//! entity, and give the transfer a breakpoint exactly at the moment the
//! books balance:
//!
//! ```text
//! w1 .. wk            withdraw (money invisible, "in pocket")
//! E += g              bank the pocket into escrow     <- books balance!
//! | level-2 breakpoint here |
//! E -= g              take it back out
//! d1 .. dm            deposit
//! ```
//!
//! An audit that reads all accounts *plus the escrow* and nests with
//! transfers at level 2 — instead of level 1 as the blocking audit does —
//! may then interleave at exactly those balanced points, observing the
//! true total without ever delaying a transfer for long or being
//! delayed by one. No new machinery is needed: the k-nest and the
//! breakpoint specification already say everything.

use std::sync::Arc;

use mla_core::nest::Nest;
use mla_model::program::{ScriptOp, ScriptProgram};
use mla_model::{EntityId, LocalState, Program, Step, TxnId, Value};
use mla_txn::RuntimeBreakpoints;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::banking::{Banking, BankingConfig, INITIAL_BALANCE};
use crate::util::Zipf;
use crate::Workload;

/// The escrow transfer: withdrawals, escrow-credit, escrow-debit,
/// deposits. Registers: `r0` = still needed, `r1` = pocket (gathered,
/// not yet banked or deposited). Gathering nothing skips the rest.
#[derive(Clone, Debug)]
pub struct EscrowTransferProgram {
    /// Accounts withdrawn from, in order.
    pub sources: Vec<EntityId>,
    /// Accounts deposited to, in order.
    pub targets: Vec<EntityId>,
    /// The escrow entity the pocket passes through.
    pub escrow: EntityId,
    /// The amount the transfer tries to move.
    pub amount: Value,
}

impl EscrowTransferProgram {
    /// Phase of a state: number of withdrawal steps is `pc` while
    /// `pc < sources.len()`; then escrow-credit, escrow-debit, deposits.
    fn phase(&self, state: &LocalState) -> Phase {
        let pc = state.pc as usize;
        if pc < self.sources.len() {
            Phase::Withdraw(pc)
        } else if pc == self.sources.len() {
            Phase::EscrowCredit
        } else if pc == self.sources.len() + 1 {
            Phase::EscrowDebit
        } else {
            Phase::Deposit(pc - self.sources.len() - 2)
        }
    }
}

enum Phase {
    Withdraw(usize),
    EscrowCredit,
    EscrowDebit,
    Deposit(usize),
}

impl Program for EscrowTransferProgram {
    fn start(&self) -> LocalState {
        LocalState {
            pc: 0,
            regs: vec![self.amount, 0],
        }
    }

    fn next_entity(&self, state: &LocalState) -> Option<EntityId> {
        match self.phase(state) {
            Phase::Withdraw(i) => Some(self.sources[i]),
            Phase::EscrowCredit | Phase::EscrowDebit => {
                if state.regs[1] > 0 {
                    Some(self.escrow)
                } else {
                    None // nothing gathered: finish
                }
            }
            Phase::Deposit(d) => {
                if d < self.targets.len() && state.regs[1] > 0 {
                    Some(self.targets[d])
                } else {
                    None
                }
            }
        }
    }

    fn apply(&self, state: &LocalState, observed: Value) -> (LocalState, Value) {
        let mut next = state.clone();
        match self.phase(state) {
            Phase::Withdraw(_) => {
                let take = observed.max(0).min(state.regs[0]);
                next.regs[0] -= take;
                next.regs[1] += take;
                next.pc = if next.regs[0] == 0 {
                    self.sources.len() as u32
                } else {
                    state.pc + 1
                };
                (next, observed - take)
            }
            Phase::EscrowCredit => {
                // Bank the whole pocket: the books balance after this.
                next.pc += 1;
                (next, observed + state.regs[1])
            }
            Phase::EscrowDebit => {
                next.pc += 1;
                (next, observed - state.regs[1])
            }
            Phase::Deposit(d) => {
                let remaining = state.regs[1];
                let dep = if d + 1 == self.targets.len() {
                    remaining
                } else {
                    remaining / 2
                };
                next.regs[1] -= dep;
                next.pc += 1;
                (next, observed + dep)
            }
        }
    }
}

/// Breakpoints for the escrow transfer: level 2 **only** right after the
/// escrow-credit step (the balanced point), level 3 everywhere else.
/// Prefix-determined: the escrow-credit step is recognizable as the
/// first access to the escrow entity.
#[derive(Clone, Debug)]
pub struct EscrowBreakpoints {
    /// The escrow entity.
    pub escrow: EntityId,
}

impl RuntimeBreakpoints for EscrowBreakpoints {
    fn k(&self) -> usize {
        4
    }

    fn min_level_after(&self, prefix: &[Step]) -> Option<usize> {
        let last = prefix.last()?;
        let escrow_accesses = prefix.iter().filter(|s| s.entity == self.escrow).count();
        if last.entity == self.escrow && escrow_accesses == 1 {
            Some(2) // right after the credit: books balance
        } else {
            Some(3)
        }
    }
}

/// Generates the escrow-banking workload: like
/// [`crate::banking::generate`] but transfers pass through a global
/// escrow entity and every bank audit is the *non-blocking* kind —
/// reading accounts + escrow and nesting with customers at level 2.
pub fn generate_escrow(config: BankingConfig) -> Banking {
    assert!(config.families > 0 && config.accounts_per_family > 0);
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let zipf = Zipf::new(config.accounts_per_family, config.zipf_theta);
    let account = |f: usize, j: usize| EntityId((f * config.accounts_per_family + j) as u32);
    let accounts: Vec<EntityId> = (0..config.families)
        .flat_map(|f| (0..config.accounts_per_family).map(move |j| (f, j)))
        .map(|(f, j)| account(f, j))
        .collect();
    // One escrow per family, just past the accounts: a single global
    // escrow is a hotspot that relates every transfer to every other and
    // strangles the schedule.
    let escrow_of = |f: usize| EntityId((accounts.len() + f) as u32);

    let mut programs: Vec<Arc<dyn Program + Send + Sync>> = Vec::new();
    let mut breakpoints: Vec<Arc<dyn RuntimeBreakpoints>> = Vec::new();
    let mut paths: Vec<Vec<u32>> = Vec::new();
    let mut transfers = Vec::new();
    let mut bank_audits = Vec::new();
    let f_count = config.families as u32;

    for _ in 0..config.transfers {
        let origin = rng.gen_range(0..config.families);
        let intra = rng.gen_bool(config.intra_family_ratio.clamp(0.0, 1.0));
        let dest_family = if intra || config.families == 1 {
            origin
        } else {
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
            let e = account(origin, zipf.sample(&mut rng));
            if !sources.contains(&e) {
                sources.push(e);
            }
        }
        let mut targets = Vec::new();
        let mut guard = 0;
        while targets.is_empty() && guard < 1000 {
            guard += 1;
            let e = account(dest_family, zipf.sample(&mut rng));
            if !sources.contains(&e) {
                targets.push(e);
            }
        }
        if targets.is_empty() {
            targets.push(
                accounts
                    .iter()
                    .copied()
                    .find(|e| !sources.contains(e))
                    .unwrap_or(accounts[0]),
            );
        }
        let escrow = escrow_of(origin);
        let t = TxnId(programs.len() as u32);
        programs.push(Arc::new(EscrowTransferProgram {
            sources,
            targets,
            escrow,
            amount: config.amount,
        }));
        breakpoints.push(Arc::new(EscrowBreakpoints { escrow }));
        paths.push(vec![0, origin as u32]);
        transfers.push(t);
    }

    for i in 0..config.bank_audits {
        // The semi-blocking audit: accounts + every escrow, nested at
        // level 2 with the customers (path starts with 0, unlike the
        // fully-blocking audit's 1). The audit itself stays atomic
        // (NoBreakpoints): an interruptible audit would *legally* observe
        // torn sums, because a transfer may split at its balanced point
        // and land its deposit suffix between two audit reads. What the
        // escrow buys is that a transfer can *park* at its balanced
        // point — one or two steps away — instead of having to be
        // entirely finished or unstarted as the level-1 audit demands.
        let ops: Vec<ScriptOp> = accounts
            .iter()
            .copied()
            .chain((0..config.families).map(escrow_of))
            .map(ScriptOp::Accumulate)
            .collect();
        let t = TxnId(programs.len() as u32);
        programs.push(Arc::new(ScriptProgram::new(ops)));
        breakpoints.push(Arc::new(mla_txn::NoBreakpoints { k: 4 }));
        paths.push(vec![0, f_count + i as u32]);
        bank_audits.push(t);
    }

    let nest = Nest::new(4, paths).expect("escrow paths have length 2");
    let arrivals: Vec<u64> = (0..programs.len() as u64)
        .map(|i| i * config.arrival_spacing)
        .collect();
    let initial: Vec<(EntityId, Value)> = accounts.iter().map(|&a| (a, INITIAL_BALANCE)).collect();

    Banking {
        workload: Workload {
            name: format!(
                "banking-escrow(f={},a={},t={})",
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
        credit_audits: Vec::new(),
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(x: u32) -> EntityId {
        EntityId(x)
    }

    #[test]
    fn escrow_transfer_balances_at_credit() {
        let p = EscrowTransferProgram {
            sources: vec![e(0), e(1)],
            targets: vec![e(2)],
            escrow: e(9),
            amount: 50,
        };
        let mut state = p.start();
        // Withdraw 30 + 20.
        let (s, w) = p.apply(&state, 30);
        assert_eq!(w, 0);
        state = s;
        let (s, w) = p.apply(&state, 25);
        assert_eq!(w, 5, "takes only the remaining 20");
        state = s;
        // Escrow credit: +50.
        assert_eq!(p.next_entity(&state), Some(e(9)));
        let (s, w) = p.apply(&state, 0);
        assert_eq!(w, 50);
        state = s;
        // Escrow debit: -50.
        assert_eq!(p.next_entity(&state), Some(e(9)));
        let (s, w) = p.apply(&state, 50);
        assert_eq!(w, 0);
        state = s;
        // Deposit.
        assert_eq!(p.next_entity(&state), Some(e(2)));
        let (s, w) = p.apply(&state, 7);
        assert_eq!(w, 57);
        assert_eq!(p.next_entity(&s), None);
    }

    #[test]
    fn empty_pocket_skips_escrow_and_deposits() {
        let p = EscrowTransferProgram {
            sources: vec![e(0)],
            targets: vec![e(2)],
            escrow: e(9),
            amount: 50,
        };
        let state = p.start();
        let (s, _) = p.apply(&state, 0);
        assert_eq!(p.next_entity(&s), None);
    }

    #[test]
    fn breakpoint_exactly_after_escrow_credit() {
        let bp = EscrowBreakpoints { escrow: e(9) };
        let mk = |entity: u32| Step {
            txn: TxnId(0),
            seq: 0,
            entity: e(entity),
            observed: 0,
            wrote: 0,
        };
        let run = [mk(0), mk(1), mk(9), mk(9), mk(2)];
        assert_eq!(bp.min_level_after(&run[..1]), Some(3));
        assert_eq!(bp.min_level_after(&run[..2]), Some(3));
        assert_eq!(bp.min_level_after(&run[..3]), Some(2), "after credit");
        assert_eq!(
            bp.min_level_after(&run[..4]),
            Some(3),
            "after debit: unbalanced"
        );
        assert_eq!(bp.min_level_after(&run[..5]), Some(3));
    }

    #[test]
    fn serial_escrow_run_conserves_and_audits_exactly() {
        let b = generate_escrow(BankingConfig {
            transfers: 6,
            bank_audits: 1,
            credit_audits: 0,
            ..BankingConfig::default()
        });
        let sys = b.workload.system();
        let order: Vec<TxnId> = (0..b.workload.txn_count() as u32).map(TxnId).collect();
        let exec = sys.run_serial(&order).unwrap();
        sys.validate(&exec).unwrap();
        // Audit total (accounts + escrow) equals the bank total.
        let audit = b.bank_audits[0];
        let sum: Value = exec
            .steps()
            .iter()
            .filter(|s| s.txn == audit)
            .map(|s| s.observed)
            .sum();
        assert_eq!(sum, b.total_money());
    }

    #[test]
    fn nonblocking_audit_nests_at_level_two() {
        let b = generate_escrow(BankingConfig {
            transfers: 4,
            bank_audits: 1,
            ..BankingConfig::default()
        });
        let audit = b.bank_audits[0];
        for &t in &b.transfers {
            assert_eq!(
                b.workload.nest.level(t, audit),
                2,
                "escrow audit relates to transfers at level 2, not 1"
            );
        }
    }
}
