//! The `mla-serve` binary: boot the service on a generated workload,
//! drain it, audit the history, and report.

use std::time::Duration;

use mla_serve::{audit_full, audit_windowed, contended_load, partitioned_load};
use mla_serve::{run, SchedKind, ServeConfig};

const USAGE: &str = "mla-serve: concurrent transaction service demo

USAGE: mla-serve [OPTIONS]

  --load partitioned|contended   workload shape        [contended]
  --sessions N                   client sessions, >= 1 [64]
  --txns N                       txns per session, >= 1 [32]
  --accounts N                   shared accounts, >= 2 (contended) [16]
  --audit-every N                audit txn cadence, 0=off (contended) [8]
  --sched detect|prevent         admission scheduler   [prevent]
  --workers N                    worker threads        [4]
  --certified                    attach the static certificate if earned
  --no-gc                        disable the epoch GC thread
  --deadline-secs N              liveness backstop     [60]
  --audit-window N               oracle window, 0=full history [0]
  --dump-history PATH            write the drained history in
                                 mla-history v1 (mla-check) format
  --quiet                        suppress the report block
";

fn parse_or_die<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("bad or missing value for {flag}\n\n{USAGE}");
        std::process::exit(2);
    })
}

/// Parses a count flag's value, exiting with the usage unless it is at
/// least `min`.
fn count_or_die(flag: &str, v: Option<String>, min: usize) -> usize {
    let n: usize = parse_or_die(flag, v);
    if n < min {
        eprintln!("{flag} must be at least {min}\n\n{USAGE}");
        std::process::exit(2);
    }
    n
}

fn main() {
    let mut load_kind = "contended".to_string();
    let mut sessions = 64usize;
    let mut txns = 32usize;
    let mut accounts = 16usize;
    let mut audit_every = 8usize;
    let mut config = ServeConfig::default();
    let mut audit_window = 0usize;
    let mut dump_history: Option<String> = None;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--load" => load_kind = parse_or_die(&a, args.next()),
            "--sessions" => sessions = count_or_die(&a, args.next(), 1),
            "--txns" => txns = count_or_die(&a, args.next(), 1),
            "--accounts" => accounts = count_or_die(&a, args.next(), 2),
            "--audit-every" => audit_every = parse_or_die(&a, args.next()),
            "--sched" => {
                config.sched = match args.next().as_deref() {
                    Some("detect") => SchedKind::Detect,
                    Some("prevent") => SchedKind::Prevent,
                    other => {
                        eprintln!("unknown scheduler {other:?}\n\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            "--workers" => config.workers = parse_or_die(&a, args.next()),
            "--certified" => config.certified = true,
            "--no-gc" => config.gc_interval = None,
            "--deadline-secs" => {
                config.deadline = Duration::from_secs(parse_or_die(&a, args.next()))
            }
            "--audit-window" => audit_window = parse_or_die(&a, args.next()),
            "--dump-history" => dump_history = Some(parse_or_die(&a, args.next())),
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            other => {
                eprintln!("unknown flag {other}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let gen_started = std::time::Instant::now();
    let load = match load_kind.as_str() {
        "partitioned" => partitioned_load(sessions, txns),
        "contended" => contended_load(sessions, txns, accounts, audit_every),
        other => {
            eprintln!("unknown load {other}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let gen_wall = gen_started.elapsed();

    let report = run(&load, &config);
    if !quiet {
        println!("{}", report.render());
    }

    let nest = &load.workload.nest;
    let spec = load.workload.spec();
    let audit_started = std::time::Instant::now();
    let audit = if audit_window == 0 {
        audit_full(&report.history, nest, &spec)
    } else {
        audit_windowed(&report.history, nest, &spec, audit_window)
    };
    println!(
        "oracle      {} windows audited, {} violations ({} steps)",
        audit.windows, audit.violations, audit.steps_covered
    );
    if !quiet {
        println!(
            "phases      generate {gen_wall:.3?}, certify {:.3?}, drain {:.3?}, audit {:.3?}",
            report.cert_wall,
            report.wall,
            audit_started.elapsed()
        );
    }

    if let Some(path) = dump_history {
        let exec = mla_model::Execution::new(report.history.clone())
            .expect("service histories are seq-contiguous");
        let h = mla_check::History::from_execution(&exec, nest, &spec)
            .expect("service history matches its nest and spec");
        if let Err(e) = std::fs::write(&path, mla_check::format_history(&h)) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("history     wrote {} steps to {path}", exec.len());
    }

    if !report.clean {
        eprintln!("DEADLINE HIT: drain incomplete");
        std::process::exit(1);
    }
    if report.snapshot_violations > 0 {
        eprintln!("SNAPSHOT VIOLATIONS: {}", report.snapshot_violations);
        std::process::exit(1);
    }
    if !audit.passed() {
        eprintln!("ORACLE VIOLATIONS: history is not correctable");
        std::process::exit(1);
    }
}
