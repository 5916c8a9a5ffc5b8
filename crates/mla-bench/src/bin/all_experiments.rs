//! Runs the experiments (E1-E13, A3, A7, A8) and prints their
//! tables — the data behind EXPERIMENTS.md. `--quick` picks the reduced
//! sweeps, `--only E4,A8` a subset, and `--json <path>` also writes
//! machine-readable results. Bad arguments print the usage and exit 2.

use mla_bench::experiments::{parse_args, USAGE};

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|err| {
        eprintln!("all_experiments: {err}\n{USAGE}");
        std::process::exit(2);
    });
    let tables: Vec<_> = args
        .experiments
        .iter()
        .map(|(_, run)| run(args.quick))
        .collect();
    for table in &tables {
        println!("{}", table.render());
    }
    if let Some(path) = args.json {
        let body: Vec<String> = tables.iter().map(|t| t.to_json()).collect();
        let json = format!("[{}]", body.join(","));
        std::fs::write(&path, json).expect("write json results");
        eprintln!("wrote {path}");
    }
}
