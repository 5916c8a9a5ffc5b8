//! Experiment implementations E1–E13 and A2–A8 (A5 and A6 retired). Each returns a [`Table`];
//! the `quick` flag shrinks sweeps for CI/tests.

pub mod a2;
pub mod a3;
pub mod a4;
pub mod a7;
pub mod a8;
pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;

use mla_model::{Execution, TxnId};
use mla_workload::Workload;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::table::Table;

/// Drives a workload's system under a uniformly random interleaving
/// (one random live transaction per step) until every transaction
/// finishes or `max_steps` is reached. Produces a genuine, value-correct
/// execution.
pub fn random_execution(wl: &Workload, rng: &mut SmallRng, max_steps: usize) -> Execution {
    let sys = wl.system();
    let mut schedule: Vec<TxnId> = Vec::new();
    let mut finished = vec![false; wl.txn_count()];
    let mut exec = Execution::empty();
    while schedule.len() < max_steps {
        let live: Vec<u32> = (0..wl.txn_count() as u32)
            .filter(|&t| !finished[t as usize])
            .collect();
        if live.is_empty() {
            break;
        }
        let t = live[rng.gen_range(0..live.len())];
        schedule.push(TxnId(t));
        match sys.run_schedule(&schedule) {
            Ok(e) => exec = e,
            Err(_) => {
                schedule.pop();
                finished[t as usize] = true;
            }
        }
    }
    exec
}

/// The seed set for a sweep.
pub fn seeds(quick: bool) -> Vec<u64> {
    if quick {
        vec![1, 2]
    } else {
        vec![1, 2, 3, 4, 5]
    }
}

/// One experiment: the id its table's title opens with, and its runner.
pub type Experiment = (&'static str, fn(bool) -> Table);

/// Every experiment, in the order `run_all` renders them.
pub const REGISTRY: &[Experiment] = &[
    ("E1", e1::run),
    ("E2", e2::run),
    ("E3", e3::run),
    ("E4", e4::run),
    ("E5", e5::run),
    ("E6", e6::run),
    ("E7", e7::run),
    ("E8", e8::run),
    ("E9", e9::run),
    ("E10", e10::run),
    ("E11", e11::run),
    ("E12", e12::run),
    ("E13", e13::run),
    ("A4", a4::run),
    ("A7", a7::run),
    ("A8", a8::run),
    ("A2", a2::run),
    ("A3", a3::run),
];

/// Every experiment, rendered in registry order. EXPERIMENTS.md is
/// regenerated from this.
pub fn run_all(quick: bool) -> Vec<Table> {
    REGISTRY.iter().map(|(_, run)| run(quick)).collect()
}

/// The `all_experiments` command line.
pub const USAGE: &str = "usage: all_experiments [--quick] [--only ID[,ID...]] [--json PATH]
  --quick        reduced sweeps
  --only IDS     run only these experiments, e.g. E4,A8 (case-insensitive;
                 ids E1-E13, A2-A4, A7, A8)
  --json PATH    also write the tables as JSON to PATH";

/// A parsed `all_experiments` command line.
#[derive(Debug)]
pub struct Args {
    /// Run the reduced sweeps.
    pub quick: bool,
    /// Also write the tables as JSON here.
    pub json: Option<String>,
    /// The experiments to run, in registry order.
    pub experiments: Vec<Experiment>,
}

/// Parses the `all_experiments` arguments (without the program name).
/// An unknown flag, a flag missing its value, or an unknown id is an
/// error naming the offender.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut parsed = Args {
        quick: false,
        json: None,
        experiments: REGISTRY.to_vec(),
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--json" => parsed.json = Some(args.next().ok_or("--json needs a path")?),
            "--only" => parsed.experiments = select(&args.next().ok_or("--only needs ids")?)?,
            _ => return Err(format!("unknown argument `{arg}`")),
        }
    }
    Ok(parsed)
}

/// The registry entries named in a comma-separated id list, in registry
/// order whatever the list's order. Ids match case-insensitively; an
/// unknown or empty id is an error.
pub fn select(ids: &str) -> Result<Vec<Experiment>, String> {
    let mut picked = ids
        .split(',')
        .map(|id| {
            REGISTRY
                .iter()
                .position(|(known, _)| known.eq_ignore_ascii_case(id.trim()))
                .ok_or_else(|| format!("unknown experiment `{id}`"))
        })
        .collect::<Result<Vec<usize>, String>>()?;
    picked.sort_unstable();
    picked.dedup();
    Ok(picked.into_iter().map(|i| REGISTRY[i]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    fn ids(args: &Args) -> Vec<&'static str> {
        args.experiments.iter().map(|(id, _)| *id).collect()
    }

    #[test]
    fn registry_has_eighteen_unique_ids() {
        let mut ids: Vec<&str> = REGISTRY.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), 18);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 18);
    }

    #[test]
    fn only_selects_named_entries_in_registry_order() {
        let args = parse(&["--quick", "--only", "e4,A8"]).unwrap();
        assert!(args.quick);
        assert_eq!(ids(&args), ["E4", "A8"]);
        assert_eq!(ids(&parse(&["--only", "A8,E4"]).unwrap()), ["E4", "A8"]);
        assert_eq!(ids(&parse(&[]).unwrap()).len(), REGISTRY.len());
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            &["--only", "X9"][..],
            &["--only", "E4,X9"],
            &["--only", ""],
            &["--only"],
            &["--json"],
            &["--bogus"],
            &["quick"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
