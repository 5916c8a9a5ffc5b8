//! Helpers shared by the root integration tests.

use multilevel_atomicity::workload::banking::{generate, Banking, BankingConfig};

/// The §2 banking shape `perfbench`'s `replay_audit` replays: 4 families
/// of 4 accounts, Zipf 0.6 account choice, 1–3 withdrawal sources per
/// transfer, and one bank audit plus two credit audits per 512
/// transfers.
pub fn replay_audit_banking(transfers: usize, seed: u64) -> Banking {
    let per = transfers.div_ceil(512);
    generate(BankingConfig {
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
