//! `mla-perfbench --workload NAME --seed N --seconds S --trace 0|1`:
//! runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

use mla_perfbench::workloads::{self, Sizes, Which};

const USAGE: &str = "usage: mla-perfbench --workload serve_certified|serve_contended|replay_audit \
--seed N --seconds S --trace 0|1";

fn die(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut which = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| die(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => {
                let v = value();
                which =
                    Some(Which::parse(&v).unwrap_or_else(|| die(&format!("unknown workload {v}"))));
            }
            "--seed" => seed = Some(value().parse::<u64>().unwrap_or_else(|_| die("bad --seed"))),
            "--seconds" => {
                let s = value()
                    .parse::<f64>()
                    .unwrap_or_else(|_| die("bad --seconds"));
                if !(s.is_finite() && s >= 0.0) {
                    die("bad --seconds");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => die("--trace takes 0 or 1"),
                })
            }
            _ => die(&format!("unknown argument {a}")),
        }
    }
    let (Some(which), Some(seed), Some(seconds), Some(trace)) = (which, seed, seconds, trace)
    else {
        die("--workload, --seed, --seconds and --trace are required");
    };
    let out = workloads::run(which, seed, seconds, trace, Sizes::FULL);
    for note in &out.notes {
        println!("note: {note}");
    }
    for failure in &out.failures {
        println!("FAILED: {failure}");
    }
    if trace {
        println!(
            "traced end-to-end: {}",
            mla_perfbench::report::metrics_json(&out.end_to_end)
        );
    }
    println!("{}", out.json(trace));
}
