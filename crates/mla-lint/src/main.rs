//! The `mla-lint` CLI: run the analyzer over the shipped workloads.
//!
//! ```text
//! mla-lint [banking|cad|mixed|partitioned|all] [--json]
//! ```
//!
//! With `--json` the reports are emitted as a JSON array; otherwise as
//! human tables. Exit status 1 when any report contains an error-level
//! diagnostic, 2 on usage errors.

#![forbid(unsafe_code)]

use std::io::Write;

use mla_lint::analyze;
use mla_workload::{banking, cad, mixed, partitioned, Workload};

fn workload_by_name(name: &str) -> Option<Vec<Workload>> {
    match name {
        "banking" => Some(vec![
            banking::generate(banking::BankingConfig::default()).workload,
        ]),
        "cad" => Some(vec![cad::generate(cad::CadConfig::default()).workload]),
        "mixed" => Some(vec![
            mixed::generate(mixed::MixedConfig::default()).workload,
        ]),
        "partitioned" => Some(vec![
            partitioned::generate(partitioned::PartitionedConfig::default()).workload,
        ]),
        "all" => {
            let mut all = Vec::new();
            all.extend(workload_by_name("banking").unwrap());
            all.extend(workload_by_name("cad").unwrap());
            all.extend(workload_by_name("mixed").unwrap());
            all.extend(workload_by_name("partitioned").unwrap());
            Some(all)
        }
        _ => None,
    }
}

/// Prints to stdout, ignoring a stdout that has gone away: the exit
/// status carries the verdict either way.
fn say(text: std::fmt::Arguments) {
    let _ = std::io::stdout().lock().write_fmt(text);
}

fn main() {
    let mut json = false;
    let mut targets: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                say(format_args!(
                    "usage: mla-lint [banking|cad|mixed|partitioned|all] [--json]\n"
                ));
                return;
            }
            name => targets.push(name.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    let mut workloads = Vec::new();
    for t in &targets {
        match workload_by_name(t) {
            Some(w) => workloads.extend(w),
            None => {
                eprintln!(
                    "mla-lint: unknown workload '{t}' (expected banking, cad, mixed, partitioned, or all)"
                );
                std::process::exit(2);
            }
        }
    }
    let reports: Vec<_> = workloads.iter().map(analyze).collect();
    if json {
        let body: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
        say(format_args!("[{}]\n", body.join(",")));
    } else {
        for r in &reports {
            say(format_args!("{}", r.render()));
        }
    }
    if reports.iter().any(|r| r.has_errors()) {
        std::process::exit(1);
    }
}
