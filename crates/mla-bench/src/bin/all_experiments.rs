//! Runs every experiment (E1-E13, A2-A8; A6 retired) and prints all tables — the data
//! behind EXPERIMENTS.md. Pass `--quick` for the reduced sweeps and
//! `--json <path>` to also write machine-readable results.

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned());
    let tables = mla_bench::experiments::run_all(quick);
    for table in &tables {
        println!("{}", table.render());
    }
    if let Some(path) = json_path {
        let body: Vec<String> = tables.iter().map(|t| t.to_json()).collect();
        let json = format!("[{}]", body.join(","));
        std::fs::write(&path, json).expect("write json results");
        eprintln!("wrote {path}");
    }
}
