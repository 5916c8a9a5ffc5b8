//! Experiment implementations E1–E13, A3, A7 and A8 (A2, A4, A5 and A6
//! retired). Each returns a [`Table`]; the `quick` flag shrinks sweeps
//! for CI/tests.

pub mod a3;
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

use std::collections::HashMap;
use std::time::Instant;

use mla_model::{EntityId, Execution, Value};
use mla_workload::Workload;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::table::Table;

/// Drives a workload's system under a uniformly random interleaving
/// (one random live transaction per step) until every transaction
/// finishes or `max_steps` is reached. Produces a genuine, value-correct
/// execution: each pick steps that transaction's instance against one
/// running value map. A transaction leaves the draw only when a pick
/// finds it finished, so a finished transaction still costs a draw.
pub fn random_execution(wl: &Workload, rng: &mut SmallRng, max_steps: usize) -> Execution {
    let mut instances = wl.instances();
    let mut values: HashMap<EntityId, Value> = wl.initial.iter().copied().collect();
    let mut finished = vec![false; instances.len()];
    let mut steps = Vec::new();
    while steps.len() < max_steps {
        let live: Vec<usize> = (0..instances.len()).filter(|&t| !finished[t]).collect();
        if live.is_empty() {
            break;
        }
        let t = live[rng.gen_range(0..live.len())];
        let Some(entity) = instances[t].next_entity() else {
            finished[t] = true;
            continue;
        };
        let value = values.entry(entity).or_insert(0);
        let step = instances[t].perform(*value);
        *value = step.wrote;
        steps.push(step);
    }
    Execution::new(steps).expect("per-transaction sequences are contiguous")
}

/// Timed runs behind each microsecond cell of E3 and E10. A cell is
/// their median, so one cold run cannot set it.
pub const TIMED_RUNS: usize = 11;

/// The median wall-clock time of [`TIMED_RUNS`] calls of `f`, in
/// microseconds.
pub fn median_micros(mut f: impl FnMut()) -> f64 {
    let mut runs: Vec<f64> = (0..TIMED_RUNS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[TIMED_RUNS / 2]
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

/// Every experiment, in the order `all_experiments` renders them.
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
    ("A7", a7::run),
    ("A8", a8::run),
    ("A3", a3::run),
];

/// The `all_experiments` command line.
pub const USAGE: &str = "usage: all_experiments [--quick] [--only ID[,ID...]] [--json PATH]
  --quick        reduced sweeps
  --only IDS     run only these experiments, e.g. E4,A8 (case-insensitive;
                 ids E1-E13, A3, A7, A8)
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
    use mla_model::TxnId;
    use mla_workload::synthetic::{generate, SyntheticConfig};
    use rand::SeedableRng;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    fn ids(args: &Args) -> Vec<&'static str> {
        args.experiments.iter().map(|(id, _)| *id).collect()
    }

    /// The schedule-replay body `random_execution` had before it kept
    /// one value map: re-run the whole growing schedule after every pick.
    fn replayed_random_execution(wl: &Workload, rng: &mut SmallRng, max_steps: usize) -> Execution {
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

    #[test]
    fn random_execution_matches_schedule_replay() {
        // E3's shape (equal-length transactions) and a deeper nest of
        // uneven ones over few entities, as E1 draws; each with a cap
        // that cuts the run short and one that lets every transaction
        // finish.
        let shapes = [
            SyntheticConfig {
                txns: 8,
                k: 3,
                fanout: vec![2],
                densities: vec![0.5],
                len_min: 8,
                len_max: 8,
                entities: 16,
                seed: 0xE3,
                ..SyntheticConfig::default()
            },
            SyntheticConfig {
                txns: 6,
                k: 4,
                fanout: vec![2, 2],
                densities: vec![0.5, 0.5],
                len_min: 2,
                len_max: 5,
                entities: 5,
                seed: 0xE1,
                ..SyntheticConfig::default()
            },
        ];
        for config in shapes {
            let wl = generate(config).workload;
            for seed in 1..=4 {
                for max_steps in [16, 1_000] {
                    let mut a = SmallRng::seed_from_u64(seed);
                    let mut b = SmallRng::seed_from_u64(seed);
                    let fast = random_execution(&wl, &mut a, max_steps);
                    let replayed = replayed_random_execution(&wl, &mut b, max_steps);
                    assert_eq!(fast, replayed, "seed {seed}, cap {max_steps}");
                    // The two runs also leave their generators in step.
                    assert_eq!(a.gen::<u64>(), b.gen::<u64>());
                }
            }
        }
    }

    #[test]
    fn registry_has_sixteen_unique_ids() {
        let mut ids: Vec<&str> = REGISTRY.iter().map(|(id, _)| *id).collect();
        assert_eq!(
            ids,
            [
                "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13",
                "A7", "A8", "A3"
            ]
        );
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 16);
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
