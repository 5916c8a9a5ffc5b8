//! Seeded inputs. The benchmark owns its generators so that the seed is
//! the only thing that varies an input; the program under test receives
//! only the generated workloads.

use std::sync::Arc;

use mla_core::nest::Nest;
use mla_model::program::{ScriptOp, ScriptProgram};
use mla_model::{EntityId, Program, TxnId, Value};
use mla_serve::ServeLoad;
use mla_txn::{NoBreakpoints, PhaseTable, RuntimeBreakpoints};
use mla_workload::banking::{self, Banking, BankingConfig};
use mla_workload::Workload;

/// SplitMix64: a tiny, well-mixed generator for layout choices.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Simulated-clock spacing between a session's consecutive transactions.
/// `mla-serve` ignores arrivals (its sessions are a closed loop); the
/// spacing only matters when the same load is replayed in `mla-sim`.
const SESSION_SPACING: u64 = 4;

fn serve_load(
    name: String,
    k: usize,
    txns: Vec<(
        Arc<dyn Program + Send + Sync>,
        Arc<dyn RuntimeBreakpoints>,
        u32,
    )>,
    session_txns: Vec<Vec<TxnId>>,
    initial: Vec<(EntityId, Value)>,
) -> ServeLoad {
    let mut arrivals = vec![0; txns.len()];
    for stream in &session_txns {
        for (i, t) in stream.iter().enumerate() {
            arrivals[t.index()] = i as u64 * SESSION_SPACING;
        }
    }
    let initial_total = initial.iter().map(|&(_, v)| v).sum();
    let (programs, (breakpoints, paths)): (Vec<_>, (Vec<_>, Vec<_>)) = txns
        .into_iter()
        .map(|(p, b, class)| (p, (b, vec![class])))
        .unzip();
    let nest = Nest::new(k, paths).expect("one non-empty path per transaction");
    ServeLoad {
        workload: Workload {
            name,
            nest,
            programs,
            breakpoints,
            initial,
            arrivals,
        },
        session_txns,
        initial_total,
    }
}

/// The `partitioned_load` shape with a seeded layout: session `s` owns
/// one block of `txns + 1` entities (which block is a seeded
/// permutation), and transaction `i` adds 1 to the block's shared entity
/// and then to private entity `(i + r_s) % txns` of the block, for a
/// seeded rotation `r_s`. Footprints of different sessions stay
/// disjoint, so `mla-lint` certifies every universe.
pub fn certified_load(sessions: usize, txns: usize, seed: u64) -> ServeLoad {
    assert!(sessions >= 1 && txns >= 1);
    let mut rng = SplitMix::new(seed ^ 0xCE57_1F1E_D000_0001);
    let mut block: Vec<usize> = (0..sessions).collect();
    for i in (1..sessions).rev() {
        block.swap(i, rng.below(i + 1));
    }
    let k = 3;
    let bp: Arc<dyn RuntimeBreakpoints> = Arc::new(PhaseTable::new(k, [(1, 2)]));
    let mut all = Vec::with_capacity(sessions * txns);
    let mut session_txns = vec![Vec::with_capacity(txns); sessions];
    for (s, stream) in session_txns.iter_mut().enumerate() {
        let base = block[s] * (txns + 1);
        let rot = rng.below(txns);
        for i in 0..txns {
            let program: Arc<dyn Program + Send + Sync> = Arc::new(ScriptProgram::new(vec![
                ScriptOp::Add(EntityId(base as u32), 1),
                ScriptOp::Add(EntityId((base + 1 + (i + rot) % txns) as u32), 1),
            ]));
            stream.push(TxnId(all.len() as u32));
            all.push((program, bp.clone(), s as u32));
        }
    }
    serve_load(
        format!("certified-{sessions}x{txns}"),
        k,
        all,
        session_txns,
        Vec::new(),
    )
}

/// The `contended_load` shape, rotated: every session transfers one
/// unit around one shared ring of `accounts` accounts (100 each),
/// transaction `i` of session `s` moving from account
/// `(s + rotation + i) % accounts` to the next, with a mid-transfer
/// phase breakpoint. Every `audit_every`-th transaction of a session
/// (staggered by session) is instead an atomic audit reading the whole
/// ring, in ring order, in a nest class of its own. `contended_load` is
/// rotation 0; the rotation moves where the transfers cross the audits'
/// scan start, and with it how often admission defers and cascades.
pub fn contended_load(
    sessions: usize,
    txns: usize,
    accounts: usize,
    audit_every: usize,
    rotation: usize,
) -> ServeLoad {
    assert!(sessions >= 1 && txns >= 1 && accounts >= 2 && audit_every >= 1);
    let k = 3;
    let transfer_bp: Arc<dyn RuntimeBreakpoints> = Arc::new(PhaseTable::new(k, [(1, 2)]));
    let audit_bp: Arc<dyn RuntimeBreakpoints> = Arc::new(NoBreakpoints { k });
    let audit: Arc<dyn Program + Send + Sync> = Arc::new(ScriptProgram::new(
        (0..accounts)
            .map(|a| ScriptOp::Accumulate(EntityId(a as u32)))
            .collect(),
    ));
    let mut all = Vec::with_capacity(sessions * txns);
    let mut session_txns = vec![Vec::with_capacity(txns); sessions];
    for (s, stream) in session_txns.iter_mut().enumerate() {
        for i in 0..txns {
            stream.push(TxnId(all.len() as u32));
            if (i + s) % audit_every == audit_every - 1 {
                all.push((audit.clone(), audit_bp.clone(), 1));
            } else {
                let from = (s + rotation + i) % accounts;
                let to = (from + 1) % accounts;
                let program: Arc<dyn Program + Send + Sync> = Arc::new(ScriptProgram::new(vec![
                    ScriptOp::Add(EntityId(from as u32), -1),
                    ScriptOp::Add(EntityId(to as u32), 1),
                ]));
                all.push((program, transfer_bp.clone(), 0));
            }
        }
    }
    serve_load(
        format!("contended-{sessions}x{txns}@{accounts}+{rotation}"),
        k,
        all,
        session_txns,
        (0..accounts).map(|a| (EntityId(a as u32), 100)).collect(),
    )
}

/// The ring rotations a `serve_contended` run cycles through: all
/// `accounts` of them, starting at one the seed picks. A single rotation
/// fixes a run's drain rate anywhere between 17k and 32k txn/s (16×128
/// drains, five seeds); cycling every rotation makes each run measure
/// the same mixture, so the seed varies the order, not the figure.
pub fn rotations(seed: u64, accounts: usize) -> impl Iterator<Item = usize> {
    let start = SplitMix::new(seed ^ 0xC047_E4DE_D000_0002).below(accounts);
    (0..).map(move |j| (start + j) % accounts)
}

/// The workload seeds a run draws from its seed.
pub fn sub_seeds(seed: u64) -> impl Iterator<Item = u64> {
    let mut rng = SplitMix::new(seed ^ 0xBA2C_5EED_D000_0003);
    std::iter::repeat_with(move || rng.next_u64())
}

/// The §2 banking workload: 4 families of 4 accounts, Zipf 0.6 account
/// choice, 1–3 withdrawal sources per transfer, plus bank and credit
/// audits. Audits scale with the transfer count (one bank audit and two
/// credit audits per 512 transfers).
pub fn banking(transfers: usize, seed: u64) -> Banking {
    let per = transfers.div_ceil(512);
    banking::generate(BankingConfig {
        families: 4,
        accounts_per_family: 4,
        transfers,
        zipf_theta: 0.6,
        sources_min: 1,
        sources_max: 3,
        bank_audits: per,
        credit_audits: 2 * per,
        seed,
        ..BankingConfig::default()
    })
}
