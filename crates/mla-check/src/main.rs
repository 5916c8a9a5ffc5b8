//! The `mla-check` binary: check recorded histories, or generate a
//! seeded corpus.

use std::io::Write;
use std::path::{Path, PathBuf};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use mla_check::{check, check_weak, format_history, generate, mutate, parse, GenConfig, MUTATIONS};

const USAGE: &str = "mla-check: black-box multilevel-atomicity history checker

USAGE: mla-check <COMMAND>

  check FILE...                  decide each history (mla-history v1)
    --json                       machine-readable diagnostics
    --weak                       constrained-linearization mode: trust
                                 values, search the interleaving
    --budget N                   weak-mode node budget        [200000]
    --expect pass|fail           exit 1 unless every file matches [pass]

  gen                            write a seeded corpus, verdict-sorted
                                 into <out>/valid and <out>/invalid
    --out DIR                    output directory             [corpus]
    --seed N                     RNG seed                     [1]
    --count N                    histories to draw            [16]
    --txns N --entities N --k N  generator dimensions         [4 3 3]
    --min-len N --max-len N      steps per transaction        [1 4]
    --density PCT                breakpoint density           [40]
    --mutate                     also emit each mutation of each draw

Exit status: 0 all verdicts match expectation, 1 otherwise, 2 on
usage/IO/parse errors.
";

/// Prints one line to stdout, ignoring a stdout that has gone away: the
/// exit status carries the verdict either way.
fn say(line: std::fmt::Arguments) {
    let _ = writeln!(std::io::stdout().lock(), "{line}");
}

fn parse_or_die<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("bad or missing value for {flag}\n\n{USAGE}");
        std::process::exit(2);
    })
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c => vec![c],
        })
        .collect()
}

fn cmd_check(mut args: std::env::Args) -> i32 {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut json = false;
    let mut weak = false;
    let mut budget = 200_000usize;
    let mut expect_pass = true;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--weak" => weak = true,
            "--budget" => budget = parse_or_die(&a, args.next()),
            "--expect" => {
                expect_pass = match args.next().as_deref() {
                    Some("pass") => true,
                    Some("fail") => false,
                    other => {
                        eprintln!("--expect takes pass|fail, got {other:?}\n\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            f if !f.starts_with('-') => files.push(PathBuf::from(f)),
            other => {
                eprintln!("unknown flag {other}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if files.is_empty() {
        eprintln!("no history files given\n\n{USAGE}");
        return 2;
    }

    let mut mismatches = 0usize;
    let mut objects: Vec<String> = Vec::new();
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{}: {e}", file.display());
                return 2;
            }
        };
        let history = match parse(&text) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("{}: {e}", file.display());
                return 2;
            }
        };
        let (passed, line, obj) = if weak {
            let v = check_weak(&history, budget);
            let obj = format!(
                "{{\"file\":\"{}\",\"mode\":\"weak\",\"verdict\":\"{}\"}}",
                json_escape(&file.display().to_string()),
                match &v {
                    mla_check::WeakVerdict::Realizable { .. } => "pass",
                    mla_check::WeakVerdict::Unrealizable => "fail",
                    mla_check::WeakVerdict::BudgetExhausted => "undecided",
                }
            );
            (v.realizable(), v.render(), obj)
        } else {
            let v = check(&history);
            let obj = format!(
                "{{\"file\":\"{}\",\"mode\":\"strong\",\"report\":{}}}",
                json_escape(&file.display().to_string()),
                v.to_json()
            );
            (v.passed(), v.render(), obj)
        };
        if !json {
            say(format_args!("{}: {line}", file.display()));
        }
        objects.push(obj);
        if passed != expect_pass {
            mismatches += 1;
        }
    }
    if json {
        say(format_args!("[{}]", objects.join(",")));
    }
    if mismatches > 0 {
        eprintln!(
            "{mismatches}/{} histories did not {} the check",
            files.len(),
            if expect_pass { "pass" } else { "fail" }
        );
        1
    } else {
        0
    }
}

fn write_sorted(out: &Path, name: &str, h: &mla_check::History) -> std::io::Result<&'static str> {
    let bucket = if check(h).passed() {
        "valid"
    } else {
        "invalid"
    };
    let dir = out.join(bucket);
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("{name}.hist")), format_history(h))?;
    Ok(bucket)
}

fn cmd_gen(mut args: std::env::Args) -> i32 {
    let mut out = PathBuf::from("corpus");
    let mut seed = 1u64;
    let mut count = 16usize;
    let mut cfg = GenConfig::default();
    let mut mutate_too = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = parse_or_die(&a, args.next()),
            "--seed" => seed = parse_or_die(&a, args.next()),
            "--count" => count = parse_or_die(&a, args.next()),
            "--txns" => cfg.txns = parse_or_die(&a, args.next()),
            "--entities" => cfg.entities = parse_or_die(&a, args.next()),
            "--k" => cfg.k = parse_or_die(&a, args.next()),
            "--min-len" => cfg.min_len = parse_or_die(&a, args.next()),
            "--max-len" => cfg.max_len = parse_or_die(&a, args.next()),
            "--density" => cfg.break_pct = parse_or_die(&a, args.next()),
            "--mutate" => mutate_too = true,
            other => {
                eprintln!("unknown flag {other}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    // `generate` asserts these bounds; a flag outside them is a usage
    // error, not a crash.
    if cfg.k < 2 || cfg.min_len < 1 || cfg.min_len > cfg.max_len || cfg.break_pct > 100 {
        eprintln!("need --k >= 2, 1 <= --min-len <= --max-len and --density <= 100\n\n{USAGE}");
        return 2;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut valid, mut invalid) = (0usize, 0usize);
    let mut bump = |bucket: &str| {
        if bucket == "valid" {
            valid += 1;
        } else {
            invalid += 1;
        }
    };
    for i in 0..count {
        let h = generate(&cfg, &mut rng);
        match write_sorted(&out, &format!("h{i:03}"), &h) {
            Ok(bucket) => bump(bucket),
            Err(e) => {
                eprintln!("{}: {e}", out.display());
                return 2;
            }
        }
        if mutate_too {
            for m in MUTATIONS {
                if let Some(mutant) = mutate(&h, m, &mut rng) {
                    match write_sorted(&out, &format!("h{i:03}-{}", m.tag()), &mutant) {
                        Ok(bucket) => bump(bucket),
                        Err(e) => {
                            eprintln!("{}: {e}", out.display());
                            return 2;
                        }
                    }
                }
            }
        }
    }
    say(format_args!(
        "wrote {valid} valid + {invalid} invalid histories under {}",
        out.display()
    ));
    0
}

fn main() {
    let mut args = std::env::args();
    let _argv0 = args.next();
    let code = match args.next().as_deref() {
        Some("check") => cmd_check(args),
        Some("gen") => cmd_gen(args),
        Some("--help") | Some("-h") => {
            let _ = std::io::stdout().lock().write_all(USAGE.as_bytes());
            0
        }
        other => {
            eprintln!("unknown command {other:?}\n\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}
