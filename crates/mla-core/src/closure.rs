//! The coherent closure of the dependency relation `<=_e` (§4.2) and its
//! acyclicity test — the computational core of Theorem 2.
//!
//! # Definition
//!
//! The coherent closure of a relation `R` (containing each transaction's
//! own step order) is the smallest relation containing `R` that is closed
//! under transitivity and under condition (b):
//!
//! > if `level(t, t') = i`, `α <=_t α'` with `α, α'` in the same `B_t(i)`
//! > segment, and `(α, β) ∈ R` with `β ∈ X_t'`, then `(α', β) ∈ R`.
//!
//! `e` is correctable iff this closure of `<=_e` is a partial order
//! (Theorem 2) — equivalently, iff it is acyclic.
//!
//! # Two implementations
//!
//! * [`coherent_closure_exact`] follows the definition literally with one
//!   predecessor bitset per step and a global fixpoint. O(n³) time,
//!   O(n²) bits — the executable specification.
//! * [`CoherentClosure::compute`] exploits a structural invariant: the
//!   closure, restricted to predecessors from one transaction `t`, is
//!   always a *prefix* of `t`'s steps (if `(α, β)` is in the closure and
//!   `α'` precedes `α` in `t`, transitivity through `t`'s own chain puts
//!   `(α', β)` in too). So the full relation is captured by a *frontier
//!   matrix* `M[β][t]` = the largest sequence number of `t` related before
//!   `β`. Each closure axiom becomes a monotone update on `M`:
//!   - base: `M[β][txn(β)] >= seq(β) - 1`, and for each entity
//!     conflict edge `(α, β)`: `M[β][txn(α)] >= seq(α)`;
//!   - condition (b): `M[β][t] >= seg_end_t(level(t, txn(β)), M[β][t])`;
//!   - transitivity: with `u = t`'s step at `M[β][t]`, `M[β] >= M[u]`
//!     pointwise (the frontier step subsumes all earlier ones).
//!
//!   Rounds visit rows `β` in execution order, then `t` ascending, until
//!   a whole round changes nothing; values are bounded by per-transaction
//!   step counts, so this terminates. A cycle manifests as a step
//!   becoming its own predecessor (`M[β][txn(β)] >= seq(β)`).
//!
//! Both agree; the property tests in this module and in `tests/` check
//! them against each other and against the brute-force enumeration
//! oracle.
//!
//! # The frontier fixpoint's cost
//!
//! `M` is one flat row-major `Vec<i32>`, so a transitivity pull is an
//! elementwise max over two split-borrowed row slices, which vectorizes.
//! `level` and `segment_end` come from tables built once per context
//! (levels per pair of nest paths, segment-end steps per level and step),
//! not from a nest-path comparison and a breakpoint lookup per
//! (step, transaction) pair per round.
//!
//! Most pulls of a later round repeat one already made, so they are
//! skipped. Each row records the visit at which it last grew, and each
//! entry `(β, t)` the frontier seq of `t` it last pulled. A pull of row
//! `u` into `β` is skipped when the frontier is the one `β` already
//! pulled and `u` has not grown since `β`'s previous visit; the
//! intra-predecessor pull takes the same test. This is exact because
//! rows only grow: the earlier pull made `M[β] >= M[u]`, `M[u]` is
//! unchanged since, and `M[β]` has only grown, so the pull would change
//! nothing. Every skipped pull is a no-op, so after every visit each
//! entry — and the number of rounds — is what pulling everything gives.
//!
//! A round reads every entry once, O(n · T), and pays O(T) for each pull
//! it makes. Pulls happen only along frontiers that moved or rows that
//! grew since the previous round, so late rounds are mostly the scan; the
//! worst case stays O(rounds · n · T²). Memory is two `n × T` `i32`
//! matrices (frontiers and last pulls), the size of one `i64` matrix,
//! plus O(k · n + T) for the tables and clocks and a byte per pair of
//! distinct nest paths.

use std::collections::HashMap;

use mla_graph::topo::Cycle;
use mla_graph::{find_cycle, BitSet, DiGraph};

use crate::spec::ExecContext;

/// Sentinel for "no related predecessor from this transaction".
const NONE: i32 = -1;

/// `m[v] ⊔= m[u]` pointwise over rows of width `w` (transitivity);
/// returns whether row `v` grew. The rows are split-borrowed so the loop
/// is a plain elementwise max over two slices, which vectorizes.
fn union_row(m: &mut [i32], w: usize, v: usize, u: usize) -> bool {
    debug_assert_ne!(v, u);
    let (dst, src) = if v < u {
        let (lo, hi) = m.split_at_mut(u * w);
        (&mut lo[v * w..(v + 1) * w], &hi[..w])
    } else {
        let (lo, hi) = m.split_at_mut(v * w);
        (&mut hi[..w], &lo[u * w..(u + 1) * w])
    };
    let mut grew = false;
    for (d, &s) in dst.iter_mut().zip(src) {
        grew |= s > *d;
        *d = (*d).max(s);
    }
    grew
}

/// The context's `level` and `segment_end` answers as flat tables, built
/// once so the fixpoint's inner loop does a few indexed loads instead of
/// a nest-path comparison and a breakpoint lookup per (step, transaction)
/// pair per round.
struct Lookups {
    /// Local txn -> index of its nest path among the distinct paths.
    class: Vec<usize>,
    /// `level[a * classes + b]` = `level(t, t')` for txns of classes `a`
    /// and `b` (distinct transactions share a class only when their
    /// paths are equal).
    level: Vec<u8>,
    classes: usize,
    /// Local txn -> offset of its steps in the per-level tables below.
    offset: Vec<usize>,
    /// `end_step[(i - 1) * n + offset[t] + s]` = global index of the
    /// last step of the `B_t(i)` segment holding `t`'s step `s`, for
    /// every level `i < k` a cross-transaction pair can have.
    end_step: Vec<u32>,
    n: usize,
}

impl Lookups {
    fn new(ctx: &ExecContext<'_>) -> Self {
        let n = ctx.n();
        let tcount = ctx.txn_count();
        let k = ctx.nest().k();
        let mut first_of: HashMap<&[u32], usize> = HashMap::new();
        let mut reps: Vec<usize> = Vec::new();
        let class: Vec<usize> = (0..tcount)
            .map(|t| {
                *first_of
                    .entry(ctx.nest().path(ctx.txn_id(t)))
                    .or_insert_with(|| {
                        reps.push(t);
                        reps.len() - 1
                    })
            })
            .collect();
        let classes = reps.len();
        let mut level = Vec::with_capacity(classes * classes);
        for &a in &reps {
            for &b in &reps {
                // Equal paths give level k - 1 for distinct txns.
                let l = if a == b { k - 1 } else { ctx.level(a, b) };
                level.push(u8::try_from(l).expect("nest depth fits in u8"));
            }
        }
        let mut offset = Vec::with_capacity(tcount);
        let mut end_step = vec![0u32; n * (k - 1)];
        let mut at = 0;
        for t in 0..tcount {
            offset.push(at);
            let len = ctx.steps_of(t).len();
            for i in 1..k {
                for s in 0..len {
                    let end = ctx.segment_end(t, i, s);
                    end_step[(i - 1) * n + at + s] = ctx.global_of(t, end) as u32;
                }
            }
            at += len;
        }
        Lookups {
            class,
            level,
            classes,
            offset,
            end_step,
            n,
        }
    }

    /// The level of every txn against txns of class `c`.
    fn level_row(&self, c: usize) -> &[u8] {
        &self.level[c * self.classes..(c + 1) * self.classes]
    }

    /// Global index of the last step of the level-`level` segment of
    /// local txn `t` holding its step `seq`.
    fn segment_end_step(&self, t: usize, level: u8, seq: i32) -> usize {
        self.end_step[(level as usize - 1) * self.n + self.offset[t] + seq as usize] as usize
    }
}

/// The coherent closure of `<=_e`, in frontier-matrix form.
pub struct CoherentClosure {
    /// Row-major `n × tcount` frontier matrix: `m[v * tcount + t]` =
    /// largest seq of local txn `t` related strictly before step `v`, or
    /// [`NONE`].
    m: Vec<i32>,
    tcount: usize,
    /// Whether the closure relates some step to itself (not a partial
    /// order).
    cyclic: bool,
}

impl CoherentClosure {
    /// Computes the coherent closure of `<=_e` for the context.
    pub fn compute(ctx: &ExecContext<'_>) -> Self {
        let n = ctx.n();
        let w = ctx.txn_count();
        let lookups = Lookups::new(ctx);
        let mut m = vec![NONE; n * w];

        // Base relation <=_e: intra-transaction order plus per-entity
        // access order (the generating edges; transitivity is restored by
        // the fixpoint).
        for (u, v) in ctx.exec().dependency_graph().edges() {
            let (u, v) = (u as usize, v as usize);
            let e = &mut m[v * w + ctx.txn_of(u)];
            *e = (*e).max(ctx.seq_of(u) as i32);
        }

        // The skip rule (module docs). Visits are numbered by a clock;
        // `changed_at[u]` is the visit at which row u last grew, and
        // `pulled[v * w + t]` the frontier seq of t that v last pulled.
        // Every round visits every row, so v's previous visit was exactly
        // n visits ago.
        let mut pulled = vec![NONE; n * w];
        let mut changed_at = vec![0u64; n];
        let mut clock = 0u64;

        // Monotone fixpoint. Values only grow and are bounded by each
        // transaction's step count, so this terminates; `changed` tracking
        // stops it as soon as a full pass is quiescent.
        let mut cyclic = false;
        loop {
            let mut changed = false;
            for v in 0..n {
                clock += 1;
                // In the first round this is 0, so every pull happens.
                let prev = clock.saturating_sub(n as u64);
                let stale = |u: usize| changed_at[u] >= prev;
                let tv = ctx.txn_of(v);
                let sv = ctx.seq_of(v) as i32;
                let levels = lookups.level_row(lookups.class[tv]);
                let mut grew = false;
                for t in 0..w {
                    let s = m[v * w + t];
                    if s == NONE {
                        continue;
                    }
                    if t == tv {
                        // Own transaction. Always pull the immediate intra
                        // predecessor: this keeps rows monotone along each
                        // transaction's chain, which the cross-transaction
                        // frontier pulls below depend on (a frontier step
                        // must subsume every earlier step of its
                        // transaction).
                        if sv > 0 {
                            let u = ctx.global_of(t, (sv - 1) as usize);
                            if stale(u) {
                                grew |= union_row(&mut m, w, v, u);
                            }
                        }
                        // A frontier strictly beyond v (a cycle through v)
                        // contributes its row too.
                        if s > sv {
                            let u = ctx.global_of(t, s as usize);
                            if pulled[v * w + t] != s || stale(u) {
                                pulled[v * w + t] = s;
                                grew |= union_row(&mut m, w, v, u);
                            }
                        }
                        continue;
                    }
                    // Condition (b): lift the frontier to its segment end
                    // at level(t, tv).
                    let u = lookups.segment_end_step(t, levels[lookups.class[t]], s);
                    let end = ctx.seq_of(u) as i32;
                    if end > s {
                        m[v * w + t] = end;
                        grew = true;
                    }
                    // Transitivity through t's frontier step (which, by
                    // the intra-chain rule above, subsumes all earlier
                    // steps of t at fixpoint).
                    if pulled[v * w + t] != end || stale(u) {
                        pulled[v * w + t] = end;
                        grew |= union_row(&mut m, w, v, u);
                    }
                }
                // Cycle: v related before itself. Every entry is a seq of
                // its own transaction (a base edge, a segment end or a row
                // copy), so it stays within the transaction's steps.
                let own = m[v * w + tv];
                debug_assert!(own < ctx.steps_of(tv).len() as i32);
                if own >= sv {
                    cyclic = true;
                }
                if grew {
                    changed_at[v] = clock;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        CoherentClosure {
            m,
            tcount: w,
            cyclic,
        }
    }

    /// Whether the closure is a partial order (acyclic). By Theorem 2 this
    /// is exactly correctability of the underlying execution.
    pub fn is_partial_order(&self) -> bool {
        !self.cyclic
    }

    /// Whether step `u` is related strictly before step `v` in the
    /// closure.
    pub fn related(&self, ctx: &ExecContext<'_>, u: usize, v: usize) -> bool {
        self.frontier(v)[ctx.txn_of(u)] >= ctx.seq_of(u) as i32
    }

    /// The frontier row of step `v` (largest related seq per local txn,
    /// `-1` if none).
    pub fn frontier(&self, v: usize) -> &[i32] {
        &self.m[v * self.tcount..(v + 1) * self.tcount]
    }

    /// Materializes a graph whose reachability equals the closure
    /// relation: intra-transaction chains plus one edge per frontier
    /// entry. [`Self::witness_cycle`] searches the same graph without
    /// the own-transaction entries.
    pub fn relation_graph(&self, ctx: &ExecContext<'_>) -> DiGraph {
        self.frontier_graph(ctx, true)
    }

    /// Extracts a concrete dependency cycle (as global step indices) when
    /// the closure is not a partial order.
    ///
    /// The cycle is extracted from the *cross-transaction* witness graph
    /// (intra chains plus cross-transaction frontier edges): every cycle in
    /// the closure has a derivation through base and lift pairs alone, and
    /// those are all cross-transaction or forward-intra, so restricting the
    /// graph this way loses no cycles while guaranteeing the report spans
    /// at least two transactions — the shape a scheduler's victim picker
    /// and a human reader both want.
    pub fn witness_cycle(&self, ctx: &ExecContext<'_>) -> Option<Cycle> {
        if !self.cyclic {
            return None;
        }
        let cycle = find_cycle(&self.frontier_graph(ctx, false));
        debug_assert!(
            cycle.is_some(),
            "cyclic closure must materialize a cyclic witness graph"
        );
        cycle
    }

    /// Intra-transaction chains plus an edge from each frontier step into
    /// its row's step; own-transaction frontier entries only if `own`.
    ///
    /// No edge is added twice, so no duplicate check is needed: a row's
    /// entries name steps of distinct transactions, each row adds edges
    /// into its own step only, and the one own-transaction entry that can
    /// repeat a chain edge (the immediate predecessor) is left out.
    fn frontier_graph(&self, ctx: &ExecContext<'_>, own: bool) -> DiGraph {
        let mut g = DiGraph::new(ctx.n());
        for t in 0..ctx.txn_count() {
            for w in ctx.steps_of(t).windows(2) {
                g.add_edge(w[0] as u32, w[1] as u32);
            }
        }
        for v in 0..ctx.n() {
            let tv = ctx.txn_of(v);
            let sv = ctx.seq_of(v) as i32;
            for (t, &s) in self.frontier(v).iter().enumerate() {
                if s == NONE || (t == tv && (!own || s == sv || s + 1 == sv)) {
                    continue;
                }
                g.add_edge(ctx.global_of(t, s as usize) as u32, v as u32);
            }
        }
        g
    }
}

/// The literal reference implementation: one predecessor bitset per step,
/// closed under transitivity and condition (b) until fixpoint.
///
/// `preds[v].contains(u)` iff `(u, v)` is in the coherent closure of
/// `<=_e`. Quadratic memory — intended for validation and the A1 ablation
/// bench, not production checking.
pub fn coherent_closure_exact(ctx: &ExecContext<'_>) -> Vec<BitSet> {
    let n = ctx.n();
    let mut preds: Vec<BitSet> = {
        // Transitive closure of the base dependency graph.
        mla_graph::reach::predecessor_sets(&ctx.exec().dependency_graph())
    };
    loop {
        let mut changed = false;
        for v in 0..n {
            let tv = ctx.txn_of(v);
            // Snapshot to avoid aliasing while we mutate preds[v].
            let current: Vec<usize> = preds[v].iter().collect();
            for u in current {
                // Transitivity: preds[v] |= preds[u].
                if u != v {
                    let pu = preds[u].clone();
                    changed |= preds[v].union_with_returning_changed(&pu);
                }
                // Condition (b): all of u's segment-mates after u join.
                let tu = ctx.txn_of(u);
                if tu != tv {
                    let level = ctx.level(tu, tv);
                    let su = ctx.seq_of(u);
                    let end = ctx.segment_end(tu, level, su);
                    for s in su + 1..=end {
                        changed |= preds[v].insert(ctx.global_of(tu, s));
                    }
                }
            }
        }
        if !changed {
            return preds;
        }
    }
}

/// Whether the exact closure is a partial order (no step precedes itself).
pub fn exact_is_partial_order(preds: &[BitSet]) -> bool {
    preds.iter().enumerate().all(|(v, p)| !p.contains(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakpoints::BreakpointDescription;
    use crate::nest::Nest;
    use crate::spec::{AtomicSpec, ExecContext, FixedSpec, FreeSpec};
    use mla_model::{EntityId, Execution, Step, TxnId};

    fn step(txn: u32, seq: u32, entity: u32) -> Step {
        Step {
            txn: TxnId(txn),
            seq,
            entity: EntityId(entity),
            observed: 0,
            wrote: 0,
        }
    }

    fn exec(order: &[(u32, u32, u32)]) -> Execution {
        Execution::new(order.iter().map(|&(t, s, x)| step(t, s, x)).collect()).unwrap()
    }

    /// Asserts frontier and exact closures agree pairwise, and returns
    /// acyclicity.
    fn check_agreement(ctx: &ExecContext<'_>) -> bool {
        let fast = CoherentClosure::compute(ctx);
        let slow = coherent_closure_exact(ctx);
        let n = ctx.n();
        for v in 0..n {
            for u in 0..n {
                if u == v {
                    continue;
                }
                assert_eq!(
                    fast.related(ctx, u, v),
                    slow[v].contains(u),
                    "closures disagree on ({u}, {v}) in {}",
                    ctx.exec()
                );
            }
        }
        assert_eq!(
            fast.is_partial_order(),
            exact_is_partial_order(&slow),
            "acyclicity disagreement"
        );
        fast.is_partial_order()
    }

    #[test]
    fn serializable_conflict_pattern_is_acyclic() {
        // t0 before t1 on both entities: acyclic under k=2.
        let e = exec(&[(0, 0, 7), (0, 1, 8), (1, 0, 7), (1, 1, 8)]);
        let nest = Nest::flat(2);
        let ctx = ExecContext::new(&e, &nest, &AtomicSpec { k: 2 }).unwrap();
        assert!(check_agreement(&ctx));
    }

    #[test]
    fn classic_nonserializable_weave_is_cyclic_at_k2() {
        // t0 before t1 on x7, t1 before t0 on x8.
        let e = exec(&[(0, 0, 7), (1, 0, 7), (1, 1, 8), (0, 1, 8)]);
        let nest = Nest::flat(2);
        let ctx = ExecContext::new(&e, &nest, &AtomicSpec { k: 2 }).unwrap();
        assert!(!check_agreement(&ctx));
        let c = CoherentClosure::compute(&ctx);
        let cycle = c.witness_cycle(&ctx).expect("cycle witness");
        assert!(cycle.len() >= 2);
    }

    #[test]
    fn same_weave_is_acyclic_with_free_breakpoints() {
        // Identical step order, but the transactions are pi(2)-related
        // with breakpoints everywhere: no lift happens, closure = base
        // dependency order, which is acyclic.
        let e = exec(&[(0, 0, 7), (1, 0, 7), (1, 1, 8), (0, 1, 8)]);
        let nest = Nest::new(3, vec![vec![0], vec![0]]).unwrap();
        let ctx = ExecContext::new(&e, &nest, &FreeSpec { k: 3 }).unwrap();
        assert!(check_agreement(&ctx));
    }

    #[test]
    fn paper_4_2_example_r3_closure_is_cyclic() {
        // §4.2's R3: k = 3, T = {t1, t2, t3}, pi(2) classes {t1, t2} and
        // {t3}; each txn has 4 steps with a level-2 breakpoint after step
        // 2 (segments {a_i1, a_i2}, {a_i3, a_i4}).
        //
        // R3 = transitive closure of the per-transaction orders plus
        // (a11, a22), (a21, a13), (a31, a11), (a21, a33).
        //
        // The paper derives: (a31, a11) lifts to (a32, a11) [level(t3,t1)=1,
        // whole-txn segment]; (a11, a22) given; (a21, a33) lifts to
        // (a22, a33) [level(t2,t3)=1]; then a11 -> a22 -> a33, and
        // a31 <= a33 intra, a31 -> a11 ... closing a cycle through the
        // lifted pairs. We realize R3's cross pairs as entity conflicts at
        // exactly those order positions and confirm the closure is cyclic.
        //
        // Order construction: we need a total execution order whose
        // dependency relation includes exactly R3's cross pairs (as entity
        // conflicts). Steps in execution order with shared entities:
        //   a31 (e1), a11 (e1,e2), a21 (e3), a22 (e2? ...)
        // Pairs needed: (a11,a22): entity A; (a21,a13): entity B;
        // (a31,a11): entity C; (a21,a33): entity D.
        // Execution order: a31, a11, a12, a21, a22, a13, a14, a23, a24,
        //                  a32, a33, a34.
        // Entities: a31:C, a11:{C->? single entity per step!}
        // Each step touches ONE entity, so a11 cannot share C with a31
        // and A with a22 simultaneously. Use chains through intra order
        // instead: (a31, a11) via C on a31 and a11? Must be direct.
        //
        // Realizable alternative: (a31, a12) via C [implies (a31,a11)? no
        // -- implies only with transitivity via intra a11 -> a12, wrong
        // direction]. So instead give a11 entity C (conflict with a31),
        // a22 entity A with a12 (so (a12, a22) -- then (a11, a22) follows
        // by transitivity via a11 -> a12 -> a22). Similarly (a21, a13):
        // entity B on a21 and a13 directly. (a21, a33): via transitivity
        // (a21, a13)... no, a13 is t1. Put entity D on a24 and a33:
        // (a24, a33), and (a21, a24) intra: gives (a21, a33).
        let order = [
            (2u32, 0u32, 100u32), // a31: C
            (0, 0, 100),          // a11: C  -> (a31, a11)
            (0, 1, 101),          // a12: A
            (1, 0, 102),          // a21: B
            (1, 1, 101),          // a22: A  -> (a12, a22) => (a11, a22)
            (0, 2, 102),          // a13: B  -> (a21, a13)
            (0, 3, 103),          // a14
            (1, 2, 104),          // a23
            (1, 3, 105),          // a24: D
            (2, 1, 106),          // a32
            (2, 2, 105),          // a33: D  -> (a24, a33) => (a21, a33)
            (2, 3, 107),          // a34
        ];
        let e = exec(&order);
        let nest = Nest::new(3, vec![vec![0], vec![0], vec![1]]).unwrap();
        let bd = |n: usize| BreakpointDescription::from_mid_levels(3, n, &[vec![2]]).unwrap();
        let spec = FixedSpec::new(3)
            .set(TxnId(0), bd(4))
            .set(TxnId(1), bd(4))
            .set(TxnId(2), bd(4));
        let ctx = ExecContext::new(&e, &nest, &spec).unwrap();
        assert!(!check_agreement(&ctx), "R3's coherent closure has a cycle");
    }

    #[test]
    fn paper_4_2_example_r1_is_coherent() {
        // §4.2's R1 (coherent): cross pairs (a12, a22), (a22, a13),
        // (a14, a31), (a24, a33). t1, t2 in a common pi(2) class with a
        // breakpoint after step 2; t3 separate.
        // These pairs already respect segment ends, so the closure stays
        // acyclic. (Single-entity steps cannot realize (a22, a13) directly
        // alongside (a12, a22); (a23, a13) is the realizable stand-in and
        // the conclusion — acyclicity — is unchanged, as argued below.)
        let order = [
            (0u32, 0u32, 0u32), // a11
            (0, 1, 1),          // a12: P
            (1, 0, 2),          // a21
            (1, 1, 1),          // a22: P -> (a12, a22). a22 also... single
            (1, 2, 4),          // a23: R
            (0, 2, 4),          // a13: R -> (a23, a13)?? paper has (a22,a13)
            (0, 3, 5),          // a14: S
            (1, 3, 6),          // a24: T
            (2, 0, 5),          // a31: S -> (a14, a31)
            (2, 1, 7),          // a32
            (2, 2, 6),          // a33: T -> (a24, a33)
            (2, 3, 8),          // a34
        ];
        // (a23, a13) is a legal stand-in for (a22, a13): both lie in t2's
        // second... no: a22/a23 are in different level-2 segments (break
        // after step 2 means segments {0,1} and {2,3}). (a23, a13) has
        // a23 in segment 2. Coherence demands a13's predecessors from t2
        // extend to segment ends only when lifted; (a23, a13) lifts to
        // (a24, a13)? a24 occurs before... a24 is at position 7, a13 at 5:
        // (a24, a13) would contradict the execution order -- but closure
        // pairs need not follow execution order; cyclicity is what we
        // test. Lift of (a23, a13) at level(t2,t1)=2: segment of a23 is
        // {a23, a24}, so (a24, a13) joins. Then does (a13, ..., a24)
        // exist to close a cycle? a13 -> a14 (intra) -> a31 (S) ... t3
        // only; no path back to t2. Acyclic.
        let e = exec(&order);
        let nest = Nest::new(3, vec![vec![0], vec![0], vec![1]]).unwrap();
        let bd = |n: usize| BreakpointDescription::from_mid_levels(3, n, &[vec![2]]).unwrap();
        let spec = FixedSpec::new(3)
            .set(TxnId(0), bd(4))
            .set(TxnId(1), bd(4))
            .set(TxnId(2), bd(4));
        let ctx = ExecContext::new(&e, &nest, &spec).unwrap();
        assert!(check_agreement(&ctx));
    }

    #[test]
    fn lift_propagates_through_transitivity() {
        // t0 (atomic wrt t2, level 1) conflicts into t1, which conflicts
        // into t2 — the (b)-lift of the *derived* pair (t0, t2) matters:
        // the whole remainder of t0 must precede t2's step, pulling t0's
        // later steps (which occur after t2's step) before it => cycle.
        let order = [
            (0u32, 0u32, 1u32), // t0 step 0 touches x1
            (1, 0, 1),          // t1 touches x1 -> (t0#0, t1#0)
            (1, 1, 2),          // t1 touches x2
            (2, 0, 2),          // t2 touches x2 -> (t1#1, t2#0)
            (0, 1, 3),          // t0 step 1 (after t2's step!)
        ];
        let e = exec(&order);
        // All transactions mutually at level 1 (atomic): k=2 flat nest.
        let nest = Nest::flat(3);
        let ctx = ExecContext::new(&e, &nest, &AtomicSpec { k: 2 }).unwrap();
        // (t0#0, t2#0) by transitivity; lift at level 1 gives
        // (t0#1, t2#0); but t2#0 precedes t0#1 in execution and they...
        // t2#0 -> nothing to t0. Cycle needs (t2#0, t0#1) in relation:
        // not present (no shared entity, no transitive path). So this is
        // ACYCLIC?! t0#1 after t2#0 in time is fine unless related the
        // other way. Indeed serializable: t0 -> t1 -> t2 with t0's tail
        // reordered before t2. Serialization order t0, t1, t2 works.
        assert!(check_agreement(&ctx));

        // Now force the cycle: t2's second step conflicts back into t0's
        // tail.
        let order = [
            (0u32, 0u32, 1u32),
            (1, 0, 1),
            (1, 1, 2),
            (2, 0, 2),
            (2, 1, 3),
            (0, 1, 3), // (t2#1, t0#1): t2 before t0 on x3, t0 ->* t2 => cycle
        ];
        let e = exec(&order);
        let ctx = ExecContext::new(&e, &nest, &AtomicSpec { k: 2 }).unwrap();
        assert!(!check_agreement(&ctx));
    }

    #[test]
    fn empty_and_single_step() {
        let nest = Nest::flat(1);
        let e = Execution::empty();
        let ctx = ExecContext::new(&e, &nest, &AtomicSpec { k: 2 }).unwrap();
        assert!(check_agreement(&ctx));
        let e = exec(&[(0, 0, 0)]);
        let ctx = ExecContext::new(&e, &nest, &AtomicSpec { k: 2 }).unwrap();
        assert!(check_agreement(&ctx));
    }

    #[test]
    fn relation_graph_reachability_matches_relation() {
        let e = exec(&[(0, 0, 7), (1, 0, 7), (1, 1, 8), (0, 1, 9), (0, 2, 8)]);
        let nest = Nest::flat(2);
        let ctx = ExecContext::new(&e, &nest, &AtomicSpec { k: 2 }).unwrap();
        let c = CoherentClosure::compute(&ctx);
        let g = c.relation_graph(&ctx);
        let preds = mla_graph::reach::predecessor_sets(&g);
        for v in 0..ctx.n() {
            for u in 0..ctx.n() {
                if u == v {
                    continue;
                }
                assert_eq!(
                    c.related(&ctx, u, v),
                    preds[v].contains(u),
                    "graph reachability mismatch at ({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn randomized_agreement_small() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(2024);
        for trial in 0..150 {
            let txns = rng.gen_range(2..4usize);
            let entities = rng.gen_range(1..4u32);
            let k = rng.gen_range(2..4usize);
            let nest = Nest::new(
                k,
                (0..txns)
                    .map(|_| (0..k - 2).map(|_| rng.gen_range(0..2u32)).collect())
                    .collect(),
            )
            .unwrap();
            // Random interleaving of 2-3 steps per txn.
            let mut remaining: Vec<(u32, u32, u32)> = Vec::new();
            let mut next_seq = vec![0u32; txns];
            let lens: Vec<u32> = (0..txns).map(|_| rng.gen_range(1..4)).collect();
            let total: u32 = lens.iter().sum();
            for _ in 0..total {
                loop {
                    let t = rng.gen_range(0..txns);
                    if next_seq[t] < lens[t] {
                        remaining.push((t as u32, next_seq[t], rng.gen_range(0..entities)));
                        next_seq[t] += 1;
                        break;
                    }
                }
            }
            let e = exec(&remaining);
            // Random mid-level breakpoints, refining.
            let mut spec = FixedSpec::new(k);
            for (t, &len) in lens.iter().enumerate() {
                let mut mid: Vec<Vec<usize>> = Vec::new();
                let mut prev: Vec<usize> = Vec::new();
                for _ in 0..k.saturating_sub(2) {
                    let mut cur = prev.clone();
                    for p in 1..len as usize {
                        if rng.gen_bool(0.4) && !cur.contains(&p) {
                            cur.push(p);
                        }
                    }
                    mid.push(cur.clone());
                    prev = cur;
                }
                spec = spec.set(
                    TxnId(t as u32),
                    BreakpointDescription::from_mid_levels(k, len as usize, &mid).unwrap(),
                );
            }
            let ctx = ExecContext::new(&e, &nest, &spec).unwrap();
            let _ = check_agreement(&ctx);
            let _ = trial;
        }
    }

    /// Medium instances: 12-24 transactions of up to 6 steps, so the
    /// fixpoint takes several rounds and the skip rule decides most
    /// pulls. Each transaction runs in bursts of random length, which
    /// keeps a share of the instances acyclic.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn randomized_agreement_medium() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(2025);
        let (mut cyclic, mut acyclic) = (0, 0);
        for _ in 0..60 {
            let txns = rng.gen_range(12..=24usize);
            let entities = rng.gen_range(8..=96u32);
            let k = rng.gen_range(2..=4usize);
            let nest = Nest::new(
                k,
                (0..txns)
                    .map(|_| (0..k - 2).map(|_| rng.gen_range(0..3u32)).collect())
                    .collect(),
            )
            .unwrap();
            let lens: Vec<u32> = (0..txns).map(|_| rng.gen_range(1..=6)).collect();
            let total = lens.iter().sum::<u32>() as usize;
            let stay = rng.gen_range(0.5..0.98);
            let mut next_seq = vec![0u32; txns];
            let mut order: Vec<(u32, u32, u32)> = Vec::new();
            let mut cur = 0;
            while order.len() < total {
                if next_seq[cur] == lens[cur] || !rng.gen_bool(stay) {
                    cur = rng.gen_range(0..txns);
                    if next_seq[cur] == lens[cur] {
                        continue;
                    }
                }
                order.push((cur as u32, next_seq[cur], rng.gen_range(0..entities)));
                next_seq[cur] += 1;
            }
            let e = exec(&order);
            let density = rng.gen_range(0.0..0.8);
            let mut spec = FixedSpec::new(k);
            for (t, &len) in lens.iter().enumerate() {
                let mut mid: Vec<Vec<usize>> = Vec::new();
                let mut prev: Vec<usize> = Vec::new();
                for _ in 0..k.saturating_sub(2) {
                    let mut cur = prev.clone();
                    for p in 1..len as usize {
                        if !cur.contains(&p) && rng.gen_bool(density) {
                            cur.push(p);
                        }
                    }
                    mid.push(cur.clone());
                    prev = cur;
                }
                spec = spec.set(
                    TxnId(t as u32),
                    BreakpointDescription::from_mid_levels(k, len as usize, &mid).unwrap(),
                );
            }
            let ctx = ExecContext::new(&e, &nest, &spec).unwrap();
            if check_agreement(&ctx) {
                acyclic += 1;
            } else {
                cyclic += 1;
            }
        }
        assert!(
            cyclic >= 10 && acyclic >= 10,
            "want both kinds: {cyclic} cyclic, {acyclic} acyclic"
        );
    }
}

#[cfg(test)]
mod regression_tests {
    use super::*;
    use crate::nest::Nest;
    use crate::spec::{AtomicSpec, ExecContext};
    use mla_model::{EntityId, Execution, Step, TxnId};

    /// Regression: in a *cyclic* closure the frontier of a step's own
    /// transaction can jump to (or past) the step itself; an early version
    /// then skipped the transitivity pull entirely, losing the intra
    /// prefix's contributions and under-approximating the relation. The
    /// fix always pulls the immediate intra predecessor. This instance
    /// (all seven steps on one entity, conflicting directions between t0
    /// and t1) exposed it.
    #[test]
    fn cyclic_frontier_keeps_intra_prefix_contributions() {
        let mk = |t: u32, s: u32| Step {
            txn: TxnId(t),
            seq: s,
            entity: EntityId(0),
            observed: 0,
            wrote: 0,
        };
        let e = Execution::new(vec![
            mk(1, 0),
            mk(2, 0),
            mk(0, 0),
            mk(1, 1),
            mk(1, 2),
            mk(0, 1),
            mk(0, 2),
        ])
        .unwrap();
        let nest = Nest::flat(3);
        let ctx = ExecContext::new(&e, &nest, &AtomicSpec { k: 2 }).unwrap();
        let fast = CoherentClosure::compute(&ctx);
        let slow = coherent_closure_exact(&ctx);
        assert!(!fast.is_partial_order());
        assert!(!exact_is_partial_order(&slow));
        for v in 0..ctx.n() {
            for u in 0..ctx.n() {
                if u == v {
                    continue;
                }
                assert_eq!(
                    fast.related(&ctx, u, v),
                    slow[v].contains(u),
                    "closures disagree on ({u}, {v})"
                );
            }
        }
        // In this fully entangled instance every step relates to every
        // other (the cycle spreads through lifts and transitivity).
        assert!(fast.related(&ctx, 1, 3), "t2#0 must precede t1#1");
    }
}
