//! Utopian Planning, Inc. (§2, Application 2; §4.2's 5-nest).
//!
//! The city-plan database: each specialty owns a pool of plan elements
//! and there is a pool of shared elements everyone touches. Experts
//! submit **modification** transactions (read-modify-write walks over
//! elements); the public relations department takes **snapshots**
//! (long reads) that must be atomic with respect to all modifications.
//!
//! The 5-nest: `π(2)` = modifications vs. snapshots; `π(3)` by specialty;
//! `π(4)` by team; `π(5)` singletons. Breakpoint structure mirrors the
//! paper's trust gradient: team-mates interleave after every step
//! (level 4), specialty colleagues at small consistency units (level 3),
//! strangers only at coarse consistency points (level 2) — and snapshots
//! never interleave with anything (level 1 has no breakpoints by
//! definition).

use std::sync::Arc;

use mla_core::nest::Nest;
use mla_model::program::{ScriptOp, ScriptProgram};
use mla_model::{EntityId, Program, Step, TxnId};
use mla_txn::{NoBreakpoints, RuntimeBreakpoints};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::util::Zipf;
use crate::Workload;

/// Probability a modification step touches a shared element.
const SHARED_TOUCH_PROB: f64 = 0.25;
/// Elements each snapshot reads (sampled across the whole plan).
const SNAPSHOT_BREADTH: usize = 12;

/// Parameters of the CAD workload.
#[derive(Clone, Debug)]
pub struct CadConfig {
    /// Number of specialties.
    pub specialties: usize,
    /// Teams per specialty.
    pub teams_per_specialty: usize,
    /// Modification transactions.
    pub modifications: usize,
    /// Snapshot transactions.
    pub snapshots: usize,
    /// Plan elements owned by each specialty.
    pub elements_per_specialty: usize,
    /// Globally shared plan elements.
    pub shared_elements: usize,
    /// Steps per modification transaction.
    pub steps_per_mod: usize,
    /// Level-3 breakpoints every this many steps (specialty consistency
    /// unit).
    pub level3_unit: usize,
    /// Level-2 breakpoints every this many steps (cross-specialty
    /// consistency point); 0 = never.
    pub level2_unit: usize,
    /// Zipf skew for element selection.
    pub zipf_theta: f64,
    /// Ticks between injections.
    pub arrival_spacing: u64,
    /// Generation seed.
    pub seed: u64,
}

impl Default for CadConfig {
    fn default() -> Self {
        CadConfig {
            specialties: 3,
            teams_per_specialty: 2,
            modifications: 12,
            snapshots: 2,
            elements_per_specialty: 8,
            shared_elements: 4,
            steps_per_mod: 6,
            level3_unit: 2,
            level2_unit: 4,
            zipf_theta: 0.8,
            arrival_spacing: 4,
            seed: 0xCAD5,
        }
    }
}

/// The generated CAD workload plus bookkeeping.
pub struct Cad {
    /// The runnable workload.
    pub workload: Workload,
    /// Modification transaction ids with their (specialty, team).
    pub modifications: Vec<(TxnId, usize, usize)>,
    /// Snapshot transaction ids.
    pub snapshots: Vec<TxnId>,
    /// The generating configuration.
    pub config: CadConfig,
}

/// Position-periodic breakpoints for modifications: level 4 after every
/// step, level 3 every `level3_unit` steps, level 2 every `level2_unit`
/// steps (if enabled). Purely position-based, hence trivially
/// prefix-compatible.
#[derive(Clone, Debug)]
pub struct ModificationBreakpoints {
    /// Specialty consistency unit.
    pub level3_unit: usize,
    /// Cross-specialty consistency unit (0 = never).
    pub level2_unit: usize,
}

impl RuntimeBreakpoints for ModificationBreakpoints {
    fn k(&self) -> usize {
        5
    }

    fn min_level_after(&self, prefix: &[Step]) -> Option<usize> {
        let p = prefix.len();
        if p == 0 {
            return None;
        }
        if self.level2_unit > 0 && p.is_multiple_of(self.level2_unit) {
            Some(2)
        } else if self.level3_unit > 0 && p.is_multiple_of(self.level3_unit) {
            Some(3)
        } else {
            Some(4)
        }
    }

    fn guaranteed_level_after(&self, pos: usize) -> Option<usize> {
        // Purely periodic in the prefix length, so the runtime answer is
        // the static guarantee.
        if pos == 0 {
            return None;
        }
        if self.level2_unit > 0 && pos.is_multiple_of(self.level2_unit) {
            Some(2)
        } else if self.level3_unit > 0 && pos.is_multiple_of(self.level3_unit) {
            Some(3)
        } else {
            Some(4)
        }
    }

    fn uniform_guarantee(&self) -> Option<usize> {
        Some(4)
    }
}

/// Generates the CAD workload.
pub fn generate(config: CadConfig) -> Cad {
    assert!(config.specialties > 0 && config.elements_per_specialty > 0);
    assert!(config.steps_per_mod > 0);
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let own_zipf = Zipf::new(config.elements_per_specialty, config.zipf_theta);
    let total_elements =
        config.specialties * config.elements_per_specialty + config.shared_elements;
    let shared_base = config.specialties * config.elements_per_specialty;
    let element = |s: usize, j: usize| EntityId((s * config.elements_per_specialty + j) as u32);
    let shared = |j: usize| EntityId((shared_base + j) as u32);

    let mut programs: Vec<Arc<dyn Program + Send + Sync>> = Vec::new();
    let mut breakpoints: Vec<Arc<dyn RuntimeBreakpoints>> = Vec::new();
    let mut paths: Vec<Vec<u32>> = Vec::new();
    let mut modifications = Vec::new();
    let mut snapshots = Vec::new();

    for i in 0..config.modifications {
        let s = i % config.specialties;
        let team = (i / config.specialties) % config.teams_per_specialty;
        let ops: Vec<ScriptOp> = (0..config.steps_per_mod)
            .map(|_| {
                let touch_shared = config.shared_elements > 0 && rng.gen_bool(SHARED_TOUCH_PROB);
                let e = if touch_shared {
                    shared(rng.gen_range(0..config.shared_elements))
                } else {
                    element(s, own_zipf.sample(&mut rng))
                };
                // Bump the element's version stamp.
                ScriptOp::Add(e, 1)
            })
            .collect();
        let t = TxnId(programs.len() as u32);
        programs.push(Arc::new(ScriptProgram::new(ops)));
        breakpoints.push(Arc::new(ModificationBreakpoints {
            level3_unit: config.level3_unit,
            level2_unit: config.level2_unit,
        }));
        paths.push(vec![
            0,
            s as u32,
            (s * config.teams_per_specialty + team) as u32,
        ]);
        modifications.push((t, s, team));
    }

    for i in 0..config.snapshots {
        let breadth = SNAPSHOT_BREADTH.min(total_elements);
        let mut chosen: Vec<usize> = Vec::new();
        while chosen.len() < breadth {
            let j = rng.gen_range(0..total_elements);
            if !chosen.contains(&j) {
                chosen.push(j);
            }
        }
        chosen.sort_unstable();
        let ops: Vec<ScriptOp> = chosen
            .into_iter()
            .map(|j| ScriptOp::Accumulate(EntityId(j as u32)))
            .collect();
        let t = TxnId(programs.len() as u32);
        programs.push(Arc::new(ScriptProgram::new(ops)));
        breakpoints.push(Arc::new(NoBreakpoints { k: 5 }));
        // Snapshots: own pi(2) class, isolated below.
        let key = 1000 + i as u32;
        paths.push(vec![1, key, key]);
        snapshots.push(t);
    }

    let nest = Nest::new(5, paths).expect("cad paths have length 3");
    let arrivals: Vec<u64> = (0..programs.len() as u64)
        .map(|i| i * config.arrival_spacing)
        .collect();

    Cad {
        workload: Workload {
            name: format!(
                "cad(s={},m={},snap={})",
                config.specialties, config.modifications, config.snapshots
            ),
            nest,
            programs,
            breakpoints,
            initial: Vec::new(), // version stamps start at 0
            arrivals,
        },
        modifications,
        snapshots,
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_model::{TxnId, Value};

    #[test]
    fn nest_matches_paper_five_levels() {
        let cad = generate(CadConfig::default());
        let nest = &cad.workload.nest;
        assert_eq!(nest.k(), 5);
        // Two mods of the same specialty & team.
        let same_team: Vec<TxnId> = cad
            .modifications
            .iter()
            .filter(|&&(_, s, team)| s == 0 && team == 0)
            .map(|&(t, _, _)| t)
            .collect();
        if same_team.len() >= 2 {
            assert_eq!(nest.level(same_team[0], same_team[1]), 4);
        }
        // Same specialty, different team.
        let (mut a, mut b) = (None, None);
        for &(t, s, team) in &cad.modifications {
            if s == 0 && team == 0 {
                a = Some(t);
            }
            if s == 0 && team == 1 {
                b = Some(t);
            }
        }
        if let (Some(a), Some(b)) = (a, b) {
            assert_eq!(nest.level(a, b), 3);
        }
        // Different specialties.
        let m0 = cad.modifications.iter().find(|m| m.1 == 0).unwrap().0;
        let m1 = cad.modifications.iter().find(|m| m.1 == 1).unwrap().0;
        assert_eq!(nest.level(m0, m1), 2);
        // Snapshot vs modification.
        assert_eq!(nest.level(m0, cad.snapshots[0]), 1);
        // Snapshot vs snapshot: pi(2) groups all snapshots together, and
        // their lack of breakpoints serializes them below that.
        if cad.snapshots.len() >= 2 {
            assert_eq!(nest.level(cad.snapshots[0], cad.snapshots[1]), 2);
        }
    }

    #[test]
    fn modification_breakpoint_pattern() {
        let bp = ModificationBreakpoints {
            level3_unit: 2,
            level2_unit: 4,
        };
        let step = |i: u32| Step {
            txn: TxnId(0),
            seq: i,
            entity: EntityId(0),
            observed: 0,
            wrote: 0,
        };
        let steps: Vec<Step> = (0..6).map(step).collect();
        assert_eq!(bp.min_level_after(&steps[..1]), Some(4));
        assert_eq!(bp.min_level_after(&steps[..2]), Some(3));
        assert_eq!(bp.min_level_after(&steps[..3]), Some(4));
        assert_eq!(bp.min_level_after(&steps[..4]), Some(2));
        assert_eq!(bp.min_level_after(&steps[..5]), Some(4));
        assert_eq!(bp.min_level_after(&steps[..6]), Some(3));
        assert_eq!(bp.min_level_after(&[]), None);
    }

    #[test]
    fn level2_disabled() {
        let bp = ModificationBreakpoints {
            level3_unit: 1,
            level2_unit: 0,
        };
        let steps = [Step {
            txn: TxnId(0),
            seq: 0,
            entity: EntityId(0),
            observed: 0,
            wrote: 0,
        }];
        assert_eq!(bp.min_level_after(&steps), Some(3));
    }

    #[test]
    fn generation_deterministic() {
        let a = generate(CadConfig::default());
        let b = generate(CadConfig::default());
        assert_eq!(a.workload.nest, b.workload.nest);
        assert_eq!(a.workload.txn_count(), b.workload.txn_count());
        // Programs produce identical serial executions.
        let ea = a
            .workload
            .system()
            .run_serial(
                &(0..a.workload.txn_count() as u32)
                    .map(TxnId)
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        let eb = b
            .workload
            .system()
            .run_serial(
                &(0..b.workload.txn_count() as u32)
                    .map(TxnId)
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        assert_eq!(ea, eb);
    }

    #[test]
    fn snapshots_read_only() {
        let cad = generate(CadConfig::default());
        let sys = cad.workload.system();
        let order: Vec<TxnId> = (0..cad.workload.txn_count() as u32).map(TxnId).collect();
        let exec = sys.run_serial(&order).unwrap();
        for s in exec.steps() {
            if cad.snapshots.contains(&s.txn) {
                assert!(s.is_read(), "snapshots must not modify the plan");
            }
        }
    }

    #[test]
    fn version_stamps_count_modification_steps() {
        let cad = generate(CadConfig {
            snapshots: 0,
            ..CadConfig::default()
        });
        let sys = cad.workload.system();
        let order: Vec<TxnId> = (0..cad.workload.txn_count() as u32).map(TxnId).collect();
        let exec = sys.run_serial(&order).unwrap();
        let total_writes: Value = exec.steps().iter().map(|s| s.wrote - s.observed).sum();
        assert_eq!(
            total_writes,
            (cad.config.modifications * cad.config.steps_per_mod) as Value
        );
    }
}
