//! The three workloads. Each run measures end-to-end metrics; a traced
//! run additionally drives every layer's public calls from outside and
//! reports the per-layer metrics.
//!
//! * `serve_certified` — `mla-serve` drains of the partitioned shape,
//!   `MlaPrevent` armed with the `mla-lint` certificate, one worker:
//!   admission rides the `CertGuard` fast path, so the gate, MVCC
//!   install, latches and epoch GC set the drain time, and
//!   certification sets the set-up time. Every drain is audited.
//! * `serve_contended` — the same service on the shared-ring shape,
//!   uncertified: every step goes through the closure engine and the
//!   prevention rule, and defers plus session backoff set the tail.
//! * `replay_audit` — the §2 banking workload replayed in `mla-sim`
//!   under `MlaDetect` (one thread, no timers, counts repeat exactly),
//!   over many seeded workloads, plus strong-mode `mla-check` audits of
//!   smaller replays' surviving histories (one large cluster each).

use std::time::{Duration, Instant};

use mla_cc::{MlaDetect, MlaPrevent, VictimPolicy};
use mla_check::History;
use mla_model::{EntityId, Step, TxnId, Value};
use mla_serve::{SchedKind, ServeConfig, ServeLoad, ServeReport};
use mla_sim::Control;
use mla_workload::banking::Banking;

use crate::layers::{self, Replay};
use crate::loads;
use crate::report::{median, percentile, trimmed_mean, Outcome};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Which {
    /// Certified partitioned `mla-serve` drains.
    ServeCertified,
    /// Contended shared-ring `mla-serve` drains.
    ServeContended,
    /// Seeded banking replay under `MlaDetect` plus a one-cluster audit.
    ReplayAudit,
}

impl Which {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Which; 3] = [
        Which::ServeCertified,
        Which::ServeContended,
        Which::ReplayAudit,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Which::ServeCertified => "serve_certified",
            Which::ServeContended => "serve_contended",
            Which::ReplayAudit => "replay_audit",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Which> {
        Which::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. [`Sizes::FULL`] is what the benchmark measures;
/// [`Sizes::QUICK`] only exercises every code path (tests).
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `serve_certified`: sessions × transactions per session.
    pub certified: (usize, usize),
    /// `serve_contended`: sessions × transactions per session.
    pub contended: (usize, usize),
    /// `serve_contended`: the audited drain, sessions × transactions.
    pub contended_audit: (usize, usize),
    /// `replay_audit`: transfers in each timed replay.
    pub transfers: usize,
    /// `replay_audit`: transfers in each audited replay.
    pub audit_transfers: usize,
    /// `replay_audit`: workload seeds a run replays in rounds.
    pub replay_seeds: usize,
    /// `replay_audit`: the first this many of them are also audited, in
    /// turn, at `audit_transfers`.
    pub audit_seeds: usize,
    /// `replay_audit`: one audit after every this many timed replays, so
    /// the audits sample the host across the whole run.
    pub audit_every: usize,
    /// Traced runs only: small loads for the layers off a workload's
    /// path — the contended load (sessions × transactions) handed to
    /// `mla-lint`, whose conflict graph grows with the square of the
    /// transactions sharing an entity (a 32×16 contended load takes
    /// about 30 s), and also drained through `mla-serve` for
    /// `replay_audit`; and the banking load (transfers) handed to
    /// `mla-lint`.
    pub probe: ((usize, usize), usize),
    /// Timed iterations (drains or replays) a run makes at least.
    pub min_iters: usize,
}

impl Sizes {
    /// The measured configuration.
    pub const FULL: Sizes = Sizes {
        certified: (64, 50),
        contended: (16, 128),
        contended_audit: (8, 32),
        transfers: 512,
        audit_transfers: 192,
        replay_seeds: 640,
        audit_seeds: 32,
        audit_every: 10,
        probe: ((8, 8), 64),
        min_iters: 5,
    };

    /// Small inputs that still take every path.
    pub const QUICK: Sizes = Sizes {
        certified: (8, 12),
        contended: (8, 8),
        contended_audit: (4, 8),
        transfers: 96,
        audit_transfers: 48,
        replay_seeds: 2,
        audit_seeds: 2,
        audit_every: 1,
        probe: ((4, 4), 16),
        min_iters: 2,
    };
}

/// Shared ring accounts of the contended shape.
const RING: usize = 16;
/// One transaction in this many of a contended session is an audit.
const AUDIT_EVERY: usize = 8;
/// `serve_contended` audits one stored history after every this many
/// timed drains.
const DRAINS_PER_AUDIT: usize = 4;
/// `replay_audit` replays every seed of its pool at least this many
/// times, so every run checks that counts repeat.
const MIN_ROUNDS: usize = 2;

/// Runs one workload for about `seconds` of timed iterations.
pub fn run(which: Which, seed: u64, seconds: f64, trace: bool, sizes: Sizes) -> Outcome {
    let mut out = Outcome::default();
    let budget = Duration::from_secs_f64(seconds);
    match which {
        Which::ServeCertified => serve_certified(&mut out, seed, budget, trace, sizes),
        Which::ServeContended => serve_contended(&mut out, seed, budget, trace, sizes),
        Which::ReplayAudit => replay_audit(&mut out, seed, budget, trace, sizes),
    }
    out
}

fn serve_config(certified: bool) -> ServeConfig {
    ServeConfig {
        sched: SchedKind::Prevent,
        workers: 1,
        certified,
        deadline: Duration::from_secs(60),
        ..ServeConfig::default()
    }
}

/// One `mla-serve` drain's figures and the set-up before it. Its load
/// and history are handed back beside it, so that a run keeps only the
/// figures of its drains and its memory stays the service's.
struct Drain {
    /// The drain's report, its history taken out.
    report: ServeReport,
    gen_s: f64,
    /// Generation, certification (`ServeReport::cert_wall`) and the
    /// construction of the scheduler `mla_serve::run` builds before its
    /// drain clock starts. That construction cannot be told apart from
    /// the service's teardown from outside `run`, so the same scheduler
    /// is built and timed here, just before the drain.
    setup_s: f64,
    /// [`ticket_p99`] of the history.
    p99_ticks: f64,
}

fn drain(make: impl FnOnce() -> ServeLoad, config: &ServeConfig) -> (Drain, ServeLoad, Vec<Step>) {
    let started = Instant::now();
    let load = make();
    let gen_s = started.elapsed().as_secs_f64();
    let w = &load.workload;
    let started = Instant::now();
    let sched = std::hint::black_box(
        MlaPrevent::new(w.txn_count(), w.spec(), VictimPolicy::FewestSteps)
            .with_shards(config.shards)
            .with_wait_shards(config.wait_shards),
    );
    let sched_s = started.elapsed().as_secs_f64();
    drop(sched);
    let mut report = mla_serve::run(&load, config);
    let setup_s = gen_s + report.cert_wall.as_secs_f64() + sched_s;
    let history = std::mem::take(&mut report.history);
    let p99_ticks = ticket_p99(&history, load.workload.txn_count());
    let d = Drain {
        report,
        gen_s,
        setup_s,
        p99_ticks,
    };
    (d, load, history)
}

/// Checks a drain's outputs: drained before the deadline, every offered
/// transaction committed, no snapshot violation, and the entity total
/// read from the history's final writes equal to `expected_total`. When
/// `audit_total` is given, every committed audit transaction (nest class
/// 1) must also have observed exactly that ring total.
fn check_drain(
    out: &mut Outcome,
    (d, load, history): (&Drain, &ServeLoad, &[Step]),
    expected_total: Value,
    audit_total: Option<Value>,
) {
    let r = &d.report;
    let w = &load.workload;
    out.attempted += w.txn_count() as u64;
    out.fail(u64::from(!r.clean), "drain hit its deadline");
    out.fail(
        (w.txn_count() as u64).saturating_sub(r.committed),
        "transaction(s) not committed",
    );
    out.fail(r.snapshot_violations, "snapshot violation(s)");
    let total: Value = layers::final_values(history, &w.initial).values().sum();
    out.fail(
        u64::from(total != expected_total),
        format!("conservation break: final total {total}, expected {expected_total}"),
    );
    if let Some(ring) = audit_total {
        let mut seen = vec![0; w.txn_count()];
        for s in history {
            seen[s.txn.index()] += s.observed;
        }
        let bad = (0..w.txn_count())
            .filter(|&t| w.nest.path(TxnId(t as u32))[0] == 1 && seen[t] != ring)
            .count();
        out.fail(bad as u64, "audit(s) observed a torn ring total");
    }
}

/// p99 commit latency on the service's logical clock: admission tickets
/// (positions in the ticket-ordered history) from a transaction's first
/// step to its last.
fn ticket_p99(history: &[Step], txns: usize) -> f64 {
    let mut span = vec![(usize::MAX, 0usize); txns];
    for (i, s) in history.iter().enumerate() {
        let e = &mut span[s.txn.index()];
        e.0 = e.0.min(i);
        e.1 = i;
    }
    let lat: Vec<f64> = span
        .iter()
        .filter(|e| e.0 != usize::MAX)
        .map(|e| (e.1 - e.0 + 1) as f64)
        .collect();
    percentile(&lat, 0.99)
}

/// `steps`, recorded over `w`, as an `mla-check` history.
fn history_of(steps: Vec<Step>, w: &mla_workload::Workload) -> History {
    layers::history(steps, &w.nest, &w.spec())
}

/// Audits `h` (one attempt; a verdict other than Pass fails it).
fn audited(out: &mut Outcome, h: &History) -> layers::Audit {
    let a = layers::audit(h);
    out.attempted += 1;
    out.fail(u64::from(!a.passed), "mla-check verdict other than Pass");
    a
}

fn serve_certified(out: &mut Outcome, seed: u64, budget: Duration, trace: bool, sz: Sizes) {
    let (sessions, txns) = sz.certified;
    let config = serve_config(true);
    let expected = 2 * (sessions * txns) as Value;
    let make = || loads::certified_load(sessions, txns, seed);

    // Warm-up drain: checked and audited, not measured.
    let (warm, load, history) = drain(make, &config);
    check_drain(out, (&warm, &load, &history), expected, None);
    audited(out, &history_of(history, &load.workload));

    let mut drains = Vec::new();
    let mut audits = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while drains.len() < sz.min_iters || started.elapsed() < budget {
        let (d, load, history) = drain(make, &config);
        check_drain(out, (&d, &load, &history), expected, None);
        audits.push(audited(out, &history_of(history.clone(), &load.workload)));
        drains.push(d);
        last = Some((load, history));
    }
    let verify = mean_of(&audits, |a| a.steps as f64 / a.check_s);
    serve_end_to_end(out, &drains, verify);
    out.notes.push(format!(
        "{} drains of {sessions}x{txns}, each audited by mla-check",
        drains.len()
    ));

    if trace {
        let (load, h) = last.expect("at least one drain");
        let w = &load.workload;
        let cert = mla_lint::certify_workload(w)
            .cert
            .expect("the partitioned shape certifies");
        out.layer("workload.gen_s", "s", median_of(&drains, |d| d.gen_s));
        out.layer(
            "lint.certify_s",
            "s",
            median_of(&drains, |d| d.report.cert_wall.as_secs_f64()),
        );
        out.layer(
            "lint.universes_certified",
            "count",
            cert.certified_universes().len() as f64,
        );
        serve_layers(out, &drains);
        let sched = MlaPrevent::new(w.txn_count(), w.spec(), VictimPolicy::FewestSteps)
            .with_static_cert(cert);
        let rep = layers::replay(w, sched, seed, true);
        check_replay(out, &rep, w.txn_count(), None);
        sim_layers(out, &rep, &[rep.times()]);
        core_storage_check_layers(out, (&h, w), &h, &w.initial, &audits);
    }
}

fn serve_contended(out: &mut Outcome, seed: u64, budget: Duration, trace: bool, sz: Sizes) {
    let config = serve_config(false);
    let ring = 100 * RING as Value;

    // Audited drains, reduced so strong-mode checking stays well under
    // a second each: one per ring rotation, since check time depends on
    // the rotation as much as the drain rate does. They also warm up.
    // Their histories are audited again and again, in turn, between the
    // timed drains, so the audits sample the host across the whole run;
    // each history's fastest audit counts.
    let (a_sessions, a_txns) = sz.contended_audit;
    let mut histories = Vec::new();
    let mut small = None;
    for rotation in loads::rotations(seed, RING).take(RING) {
        let (d, load, history) = drain(
            || loads::contended_load(a_sessions, a_txns, RING, AUDIT_EVERY, rotation),
            &config,
        );
        check_drain(out, (&d, &load, &history), ring, Some(ring));
        histories.push(history_of(history.clone(), &load.workload));
        small = Some((load, history));
    }
    let small = small.expect("at least one audited drain");
    let audited_steps: usize = histories.iter().map(|h| h.exec().len()).sum();
    let mut best_check_s = vec![f64::INFINITY; histories.len()];
    let mut audits = Vec::new();

    let (sessions, txns) = sz.contended;
    let mut drains = Vec::new();
    let mut last = None;
    let mut rotations = loads::rotations(seed, RING);
    let started = Instant::now();
    while drains.len() < sz.min_iters
        || audits.len() < histories.len()
        || started.elapsed() < budget
    {
        let rotation = rotations.next().expect("rotations cycle forever");
        let (d, load, history) = drain(
            || loads::contended_load(sessions, txns, RING, AUDIT_EVERY, rotation),
            &config,
        );
        check_drain(out, (&d, &load, &history), ring, Some(ring));
        if drains.len() % DRAINS_PER_AUDIT == 0 {
            let k = audits.len() % histories.len();
            let a = audited(out, &histories[k]);
            best_check_s[k] = best_check_s[k].min(a.check_s);
            audits.push(a);
        }
        drains.push(d);
        last = Some((load, history));
    }
    let verify = audited_steps as f64 / best_check_s.iter().sum::<f64>();
    serve_end_to_end(out, &drains, verify);
    out.notes.push(format!(
        "{} drains of {sessions}x{txns}@{RING} over every rotation; \
         {} audits of {RING} {a_sessions}x{a_txns} drains ({audited_steps} steps)",
        drains.len(),
        audits.len(),
    ));

    if trace {
        let (small_load, small_history) = small;
        let w = &small_load.workload;
        let ((l_sessions, l_txns), _) = sz.probe;
        let rotation = loads::rotations(seed, RING)
            .next()
            .expect("rotations cycle");
        let probe = loads::contended_load(l_sessions, l_txns, RING, AUDIT_EVERY, rotation);
        let started = Instant::now();
        let cert = mla_lint::certify_workload(&probe.workload);
        let certify_s = started.elapsed().as_secs_f64();
        out.layer("workload.gen_s", "s", median_of(&drains, |d| d.gen_s));
        out.layer("lint.certify_s", "s", certify_s);
        out.layer(
            "lint.universes_certified",
            "count",
            cert.lattice.map_or(0, |c| c.certified_universes().len()) as f64,
        );
        serve_layers(out, &drains);
        let sched = MlaPrevent::new(w.txn_count(), w.spec(), VictimPolicy::FewestSteps);
        let rep = layers::replay(w, sched, seed, true);
        check_replay(out, &rep, w.txn_count(), None);
        sim_layers(out, &rep, &[rep.times()]);
        let (last_load, last_history) = last.expect("at least one drain");
        core_storage_check_layers(
            out,
            (&small_history, w),
            &last_history,
            &last_load.workload.initial,
            &audits,
        );
    }
}

fn replay_audit(out: &mut Outcome, seed: u64, budget: Duration, trace: bool, sz: Sizes) {
    // One banking seed fixes a replay's rollbacks (466–1,138 for 4,096
    // transfers over four seeds) and with them every figure, so a run
    // replays a pool of workload seeds drawn from its seed, round after
    // round. The work of a seed repeats exactly, so the counts of every
    // repeat are checked against its first replay, and each figure is the
    // seed's best over its repeats: the host's speed swings up to 2× for
    // seconds at a time, and a seed's repeats, a round apart, meet
    // different spells of it. Figures are then medians over the seeds.
    let pool: Vec<u64> = loads::sub_seeds(seed).take(sz.replay_seeds).collect();
    let checked_replay = |out: &mut Outcome, transfers: usize, s: u64| {
        let t = Instant::now();
        let banking = loads::banking(transfers, s);
        let gen_s = t.elapsed().as_secs_f64();
        let w = &banking.workload;
        let sched = MlaDetect::new(w.spec(), VictimPolicy::FewestSteps);
        let setup_s = t.elapsed().as_secs_f64();
        let replay = layers::replay(w, sched, s, trace);
        check_replay(
            out,
            &replay,
            w.txn_count(),
            Some((&banking.accounts, banking.total_money())),
        );
        let setup_s = setup_s + replay.prep_s;
        (banking, replay, gen_s, setup_s)
    };

    /// A seed's best figures over its repeats, and its first counts.
    struct Best {
        counts: [u64; 9],
        setup_s: f64,
        txn_per_s: f64,
        p50_us: f64,
        p99_us: f64,
        p99_ticks: f64,
    }
    let mut best: Vec<Option<Best>> = (0..pool.len()).map(|_| None).collect();
    // The best audit rate of each audited seed (the pool's first).
    let mut audit_rate = vec![0.0f64; sz.audit_seeds.min(pool.len())];
    // A run keeps its first replay and first audited replay (their
    // histories feed the traced layers) and only scalars of the rest.
    let mut first: Option<(Banking, Replay<MlaDetect>)> = None;
    let mut audited_one: Option<(Banking, Replay<MlaDetect>)> = None;
    let mut audits = Vec::new();
    let mut times = Vec::new();
    let mut gen = Vec::new();
    let (mut rollbacks, mut repeats_differ) = (0u64, 0u64);
    let min_replays = MIN_ROUNDS * pool.len();
    let started = Instant::now();
    while times.len() < min_replays || started.elapsed() < budget {
        let i = times.len();
        let s = pool[i % pool.len()];
        let (banking, replay, gen_s, setup_s) = checked_replay(out, sz.transfers, s);
        let m = &replay.outcome.metrics;
        let latencies = replay.control.latencies_us();
        let now = Best {
            counts: replay_counts(&replay),
            setup_s,
            txn_per_s: m.committed as f64 / replay.wall_s,
            p50_us: percentile(&latencies, 0.50),
            p99_us: percentile(&latencies, 0.99),
            p99_ticks: m.latency_percentile(0.99) as f64,
        };
        rollbacks += m.aborts;
        times.push(replay.times());
        gen.push(gen_s);
        match &mut best[i % pool.len()] {
            slot @ None => *slot = Some(now),
            Some(b) => {
                repeats_differ += u64::from(b.counts != now.counts);
                b.setup_s = b.setup_s.min(now.setup_s);
                b.txn_per_s = b.txn_per_s.max(now.txn_per_s);
                b.p50_us = b.p50_us.min(now.p50_us);
                b.p99_us = b.p99_us.min(now.p99_us);
            }
        }
        first.get_or_insert((banking, replay));
        // A smaller replay of an audited seed, audited: one cluster, whose
        // saturation grows about cubically with steps.
        if i % sz.audit_every == 0 {
            let k = audits.len() % audit_rate.len();
            let (b, rep, _, _) = checked_replay(out, sz.audit_transfers, pool[k]);
            let a = audited(
                out,
                &history_of(rep.outcome.execution.steps().to_vec(), &b.workload),
            );
            audit_rate[k] = audit_rate[k].max(a.steps as f64 / a.check_s);
            audits.push(a);
            audited_one.get_or_insert((b, rep));
        }
    }
    out.fail(
        repeats_differ,
        "replay(s) whose counts differ from the same seed's first replay",
    );
    let best: Vec<Best> = best.into_iter().flatten().collect();
    out.e2e("setup_s", "s", median_of(&best, |b| b.setup_s));
    out.e2e("commit_txn_per_s", "1/s", median_of(&best, |b| b.txn_per_s));
    out.e2e("txn_p50_us", "us", median_of(&best, |b| b.p50_us));
    out.e2e("txn_p99_us", "us", median_of(&best, |b| b.p99_us));
    out.e2e("txn_p99_ticks", "ticks", median_of(&best, |b| b.p99_ticks));
    out.e2e("verify_steps_per_s", "1/s", median(&audit_rate));
    out.notes.push(format!(
        "{} replays of {} transfers over {} workload seeds, each repeat's counts compared \
         with its seed's first, {:.0} rollbacks each on average; audited {} replays of {} \
         transfers over {} seeds ({} steps)",
        times.len(),
        sz.transfers,
        pool.len(),
        rollbacks as f64 / times.len() as f64,
        audits.len(),
        sz.audit_transfers,
        audit_rate.len(),
        audits.iter().map(|a| a.steps).sum::<usize>(),
    ));

    if trace {
        let probe = loads::banking(sz.probe.1, seed);
        let started = Instant::now();
        let cert = mla_lint::certify_workload(&probe.workload);
        let certify_s = started.elapsed().as_secs_f64();
        out.layer("workload.gen_s", "s", median(&gen));
        out.layer("lint.certify_s", "s", certify_s);
        out.layer(
            "lint.universes_certified",
            "count",
            cert.lattice.map_or(0, |c| c.certified_universes().len()) as f64,
        );
        // The service layer is not on this workload's path; its metrics
        // come from one drain of the small contended probe load. (The
        // banking load itself is not drained: in about one drain in a
        // hundred, 64 banking transfers in 16 sessions livelock the
        // service in an abort storm until its deadline — see README.md.)
        let ((l_sessions, l_txns), _) = sz.probe;
        let rotation = loads::rotations(seed, RING)
            .next()
            .expect("rotations cycle");
        let (d, load, history) = drain(
            || loads::contended_load(l_sessions, l_txns, RING, AUDIT_EVERY, rotation),
            &serve_config(false),
        );
        let ring = load.initial_total;
        check_drain(out, (&d, &load, &history), ring, Some(ring));
        serve_layers(out, std::slice::from_ref(&d));
        let (first, first_rep) = first.expect("at least one timed replay");
        let (small, small_rep) = audited_one.expect("at least one audited replay");
        sim_layers(out, &first_rep, &times);
        core_storage_check_layers(
            out,
            (small_rep.outcome.execution.steps(), &small.workload),
            first_rep.outcome.execution.steps(),
            &first.workload.initial,
            &audits,
        );
    }
}

/// The deterministic counts of a replay, compared across repeats.
fn replay_counts<C>(r: &Replay<C>) -> [u64; 9] {
    let m = &r.outcome.metrics;
    [
        m.committed,
        m.aborts,
        m.defers,
        m.makespan,
        m.steps_performed,
        m.commit_rollbacks,
        r.control.grants,
        r.control.defers,
        r.control.aborts,
    ]
}

/// Checks a replay: every transaction committed within the event budget,
/// and, for banking, the money in the accounts conserved.
fn check_replay<C>(
    out: &mut Outcome,
    r: &Replay<C>,
    txns: usize,
    money: Option<(&[mla_model::EntityId], Value)>,
) {
    let m = &r.outcome.metrics;
    out.attempted += txns as u64;
    out.fail(u64::from(m.timed_out), "replay exhausted its event budget");
    out.fail(
        (txns as u64).saturating_sub(m.committed),
        "replayed transaction(s) not committed",
    );
    if let Some((accounts, total)) = money {
        let end = r.outcome.store.total(accounts.iter().copied());
        out.fail(
            u64::from(end != total),
            format!("conservation break: {end} in the bank, expected {total}"),
        );
    }
}

fn median_of<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&xs.iter().map(f).collect::<Vec<_>>())
}

/// Share of iterations cut at each end before averaging an end-to-end
/// figure over a run's drains or replays.
const TRIM: f64 = 0.1;

/// The end-to-end aggregate over a run's iterations.
fn mean_of<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    trimmed_mean(&xs.iter().map(f).collect::<Vec<_>>(), TRIM)
}

fn serve_end_to_end(out: &mut Outcome, drains: &[Drain], verify_steps_per_s: f64) {
    out.e2e("setup_s", "s", mean_of(drains, |d| d.setup_s));
    out.e2e(
        "commit_txn_per_s",
        "1/s",
        mean_of(drains, |d| {
            d.report.committed as f64 / d.report.wall.as_secs_f64()
        }),
    );
    out.e2e(
        "txn_p50_us",
        "us",
        mean_of(drains, |d| d.report.p50_us as f64),
    );
    out.e2e(
        "txn_p99_us",
        "us",
        mean_of(drains, |d| d.report.p99_us as f64),
    );
    out.e2e("txn_p99_ticks", "ticks", mean_of(drains, |d| d.p99_ticks));
    out.e2e("verify_steps_per_s", "1/s", verify_steps_per_s);
}

fn serve_layers(out: &mut Outcome, drains: &[Drain]) {
    let sum = |f: &dyn Fn(&ServeReport) -> f64| drains.iter().map(|d| f(&d.report)).sum::<f64>();
    let walls: Vec<f64> = drains.iter().map(|d| d.report.wall.as_secs_f64()).collect();
    let wall = walls.iter().sum::<f64>();
    let commits = sum(&|r| r.committed as f64);
    let max = walls.iter().copied().fold(0.0, f64::max);
    let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
    out.layer("serve.drain_s", "s", median(&walls));
    out.layer(
        "serve.txn_p95_us",
        "us",
        median_of(drains, |d| d.report.p95_us as f64),
    );
    out.layer("serve.drain_spread", "ratio", max / min);
    out.layer(
        "serve.defers_per_commit",
        "ratio",
        sum(&|r| r.defers as f64) / commits,
    );
    out.layer(
        "serve.aborts_per_commit",
        "ratio",
        sum(&|r| r.aborts as f64) / commits,
    );
    out.layer(
        "serve.commit_hazards",
        "count",
        sum(&|r| r.commit_hazards as f64),
    );
    out.layer(
        "serve.stall_breaks",
        "count",
        sum(&|r| r.stall_breaks as f64),
    );
    out.layer(
        "serve.gc_passes_per_s",
        "1/s",
        sum(&|r| r.gc_passes as f64) / wall,
    );
    out.layer(
        "serve.gc_folded_per_pass",
        "count",
        sum(&|r| r.gc_folded as f64) / sum(&|r| r.gc_passes as f64).max(1.0),
    );
    out.layer(
        "serve.live_versions",
        "count",
        median_of(drains, |d| d.report.live_versions as f64),
    );
    out.layer(
        "serve.snapshot_checks_per_s",
        "1/s",
        sum(&|r| r.snapshot_checks as f64) / wall,
    );
    out.layer(
        "storage.latch_wait_frac",
        "ratio",
        sum(&|r| r.latch_waits as f64) / sum(&|r| r.latch_acquisitions as f64).max(1.0),
    );
}

/// `cc.*`, `core.*` engine counters and `sim.*` from traced replays:
/// counts from the first replay, times as medians over every replay's
/// `times`.
fn sim_layers<C: Control>(out: &mut Outcome, first: &Replay<C>, times: &[layers::ReplayTimes]) {
    let m = &first.outcome.metrics;
    let c = &first.control;
    let calls = c.decide.calls.max(1) as f64;
    let med =
        |f: &dyn Fn(&layers::ReplayTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    out.layer("cc.decide_ns", "ns", med(&|t| t.decide_ns));
    out.layer("cc.decide_calls", "count", c.decide.calls as f64);
    out.layer("cc.grant_frac", "ratio", c.grants as f64 / calls);
    out.layer("cc.defer_frac", "ratio", c.defers as f64 / calls);
    out.layer("cc.abort_decisions", "count", c.aborts as f64);
    out.layer("cc.hooks_ns", "ns", med(&|t| t.hooks_ns));
    out.layer("cc.useful_step_frac", "ratio", 1.0 - m.wasted_work());
    out.layer("cc.max_cascade", "count", m.max_cascade() as f64);
    out.layer("cc.commit_rollbacks", "count", m.commit_rollbacks as f64);
    out.layer(
        "cc.certified_skip_frac",
        "ratio",
        m.certified_skips as f64 / calls,
    );
    out.layer("cc.cert_re_arms", "count", m.cert_re_arms as f64);
    out.layer("core.rows_per_decision", "ratio", m.rows_per_decision());
    out.layer(
        "core.edges_inserted",
        "count",
        m.decision_cost.edges_inserted as f64,
    );
    out.layer("core.rebuilds", "count", m.decision_cost.rebuilds as f64);
    out.layer("core.rollbacks", "count", m.decision_cost.rollbacks as f64);
    out.layer("sim.replay_s", "s", med(&|t| t.wall_s));
    out.layer("sim.self_s", "s", med(&|t| t.self_s));
    out.layer("sim.makespan_ticks", "ticks", m.makespan as f64);
    out.layer(
        "sim.txn_p50_ticks",
        "ticks",
        m.latency_percentile(0.50) as f64,
    );
}

/// `core.apply_commit_ns` (engine drive over an audited history and its
/// workload), `storage.*` call times (over `stream`, starting from
/// `initial`) and `check.*` (from the audits).
fn core_storage_check_layers(
    out: &mut Outcome,
    audited: (&[Step], &mla_workload::Workload),
    stream: &[Step],
    initial: &[(EntityId, Value)],
    audits: &[layers::Audit],
) {
    let (steps, w) = audited;
    let (ns, rejected) = layers::engine_drive(steps, &w.nest, &w.spec());
    out.fail(
        rejected,
        "closure-engine rejection(s) replaying a passed history",
    );
    out.layer("core.apply_commit_ns", "ns", ns);
    let st = layers::storage_drive(stream, initial);
    out.fail(
        st.bad_reads,
        "MVCC read(s) that missed the version just installed",
    );
    out.layer("storage.install_ns", "ns", st.install_ns);
    out.layer("storage.read_at_ns", "ns", st.read_at_ns);
    out.layer("storage.gc_before_ns", "ns", st.gc_before_ns);
    out.layer("storage.latch_point_ns", "ns", st.latch_point_ns);
    let decompose: Vec<f64> = audits.iter().map(|a| a.decompose_s).collect();
    let saturate: Vec<f64> = audits.iter().map(|a| a.check_s - a.decompose_s).collect();
    let last = audits.last().expect("at least one audit");
    out.layer("check.decompose_s", "s", median(&decompose));
    out.layer("check.saturate_s", "s", median(&saturate));
    out.layer("check.clusters", "count", last.clusters as f64);
    out.layer(
        "check.max_cluster_steps",
        "count",
        last.max_cluster_steps as f64,
    );
}
