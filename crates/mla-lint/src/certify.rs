//! Pass 3 — static safety certification: discharging §5's Theorem 2 at
//! analysis time, for *every* interleaving at once.
//!
//! # The model
//!
//! Theorem 2 says a history is correctable iff the coherent closure of
//! its base order (program order + per-entity access order) is acyclic.
//! A closure cycle must alternate cross-transaction conflict edges with
//! within-transaction travel. Forward travel is program order; the only
//! *backward* travel the closure offers is condition (b)'s lift: an
//! outgoing conflict at access `α` toward a level-`ℓ` partner may be
//! taken from any later access `α'` in `α`'s level-`ℓ` segment — so a
//! path that has already reached `α'` can still exit "at" `α`, i.e.
//! travel backward across `α' .. α`, but never across a level-`ℓ`
//! breakpoint.
//!
//! We build a finite graph over *access slots* (exact step positions,
//! or footprint entities for branching programs — see
//! [`TxnProfile`]): an edge `(t, a_in) -> (u, b_in)` exists when, having
//! arrived at slot `a_in` of `t`, some run can exit through an access of
//! `t` on an entity shared with `u`, entering `u` at `b_in`. The edge is
//! *backward-capable* when that exit can be performed earlier than the
//! arrival. Every realizable closure cycle projects onto a cycle in this
//! graph, and a closed walk of purely forward traversals is
//! time-inconsistent (each hop follows performance order, so the walk
//! cannot return to its start). Hence:
//!
//! > **If no graph cycle passes through a backward-capable edge, no
//! > interleaving can close a closure cycle** — the workload is safe
//! > under *any* scheduler that keeps steps inside the profiled
//! > footprints, and a [`StaticCert`] is issued.
//!
//! Soundness leans on the profiles being conservative both ways: real
//! runs have *at least* the guaranteed breakpoints (segments only
//! shrink, so modeled backward travel covers every real lift) and *at
//! most* the may-footprint accesses (modeled conflict edges cover every
//! real conflict). The check itself is one strongly-connected-components
//! pass: a backward edge `u -> v` lies on a cycle iff `u` and `v` share
//! a component.
//!
//! # The per-universe lattice
//!
//! The pre-lattice pass stopped there: one realizable mixed cycle
//! anywhere condemned the whole workload. This pass refines the verdict
//! per **universe** — top-level nest class, `nest.path(t)[0]` — because
//! any cycle lives inside one strongly connected component of the
//! may-conflict graph, so a surviving backward edge condemns exactly
//! the universes owning a node of its component (every component node
//! lies on some cycle through that edge). Universes owning no such node
//! are *certified*: no realizable closure cycle passes through their
//! transactions under any interleaving, so a scheduler may omit their
//! steps from closure maintenance without changing any verdict (see
//! `mla_core::cert` for the omission argument). The result is a
//! [`StaticCert`] lattice with one verdict per universe; the old
//! all-or-nothing certificate is the lattice's top element.
//!
//! # Orientation-consistency refinement
//!
//! Before condemning, each on-a-cycle backward edge gets a footprint
//! dataflow pass. A backward edge is generated by one *conflict pair*:
//! `t`'s access of entity `e` at slot `a_out` against `u`'s access at
//! slot `b_in`. In any single history that pair performs in exactly one
//! order, so a realizable cycle can never use both orientations of the
//! same pair: if the cycle takes `t → u` (the backward edge), the rest
//! of the cycle cannot lean on the reversed conflict `u → t` entering
//! `t` at `a_out`. We therefore search for a completion path
//! `(u, b_in) ⇝ (t, a_in)` with every edge generated *solely* by the
//! reversed pair removed; if none exists, the backward edge is spurious
//! and pruned (MLA025). The refinement is gated to Exact×Exact profile
//! pairs: an `Exact` slot is one access instance, so the pair/orient
//! argument is exact, while a `Blob` slot may stand for several
//! accesses of the same entity whose orientations can genuinely mix
//! within one history.

use mla_core::cert::StaticCert;
use mla_core::nest::Nest;
use mla_graph::digraph::NodeId;
use mla_graph::{tarjan, DiGraph};
use mla_model::{EntityId, TxnId};
use mla_workload::Workload;

use crate::diag::{Code, Diagnostic, Severity, Span};
use crate::profile::TxnProfile;

/// Upper bound on refinement path searches per workload. Refinement
/// only ever *prunes* condemnations, so skipping it (for adversarially
/// dense graphs) is sound — the verdict just stays more conservative.
const REFINE_BUDGET: usize = 4096;

/// The certification pass's outcome: the certificate lattice plus the
/// MLA02x diagnostics explaining the verdict.
pub struct Certification {
    /// The certificate when **at least one** universe certified —
    /// `None` means no transaction has a static fast path. Identical to
    /// [`lattice`](Self::lattice) when present.
    pub cert: Option<StaticCert>,
    /// The full per-universe lattice whenever the pass reached a
    /// verdict (even all-condemned); `None` only on abstention.
    pub lattice: Option<StaticCert>,
    /// MLA020 (fully certified), MLA021 (denied, with witness), MLA022
    /// (abstained: footprints unknown), MLA023/MLA024 (per-universe
    /// verdicts), MLA025 (refinement pruned spurious edges).
    pub diagnostics: Vec<Diagnostic>,
}

/// Runs static certification over a workload.
pub fn certify_workload(w: &Workload) -> Certification {
    let profiles: Vec<Option<TxnProfile>> = w
        .programs
        .iter()
        .zip(&w.breakpoints)
        .map(|(p, b)| TxnProfile::build(p.as_ref(), b.as_ref()))
        .collect();
    let mut diagnostics = Vec::new();
    if profiles.iter().any(Option::is_none) {
        for (t, _) in profiles.iter().enumerate().filter(|(_, p)| p.is_none()) {
            diagnostics.push(Diagnostic::new(
                Code::FootprintUnknown,
                Severity::Note,
                Span::Txn(TxnId(t as u32)),
                "entity footprint is not statically known; certification abstains",
            ));
        }
        return Certification {
            cert: None,
            lattice: None,
            diagnostics,
        };
    }
    let profiles: Vec<TxnProfile> = profiles.into_iter().map(Option::unwrap).collect();
    let graph = ConflictGraph::build(&w.nest, &profiles);

    // Dense universe ids from the top-level nest classes.
    let raw: Vec<u32> = (0..profiles.len())
        .map(|t| w.nest.path(TxnId(t as u32)).first().copied().unwrap_or(0))
        .collect();
    let mut classes: Vec<u32> = raw.clone();
    classes.sort_unstable();
    classes.dedup();
    let universe: Vec<u32> = raw
        .iter()
        .map(|r| classes.binary_search(r).unwrap() as u32)
        .collect();
    let universe_count = classes.len();

    let comp = tarjan(&graph.graph).comp_of;
    let mut condemned = vec![false; universe_count];
    let mut condemn_witness: Vec<Option<String>> = vec![None; universe_count];
    let mut global_witness: Option<String> = None;
    let mut pruned = 0usize;
    let mut budget = REFINE_BUDGET;
    for b in &graph.backward {
        if comp[b.from_node] != comp[b.to_node] {
            continue;
        }
        if b.exact_pair && budget > 0 {
            budget -= 1;
            if graph.refute(b, &comp) {
                pruned += 1;
                continue;
            }
        }
        let cycle = graph.cycle_label(b, &comp);
        if global_witness.is_none() {
            global_witness = Some(format!(
                "a mixed closure cycle is realizable: t{} can exit to t{} via x{} \
                 behind its own arrival (a condition-(b) lift inside a level-{} \
                 segment) and conflict edges lead back — some interleavings need \
                 runtime checking",
                b.from.0, b.to.0, b.entity.0, b.level,
            ));
            diagnostics.push(Diagnostic::new(
                Code::CertDenied,
                Severity::Warning,
                Span::Txn(b.from),
                global_witness.clone().unwrap(),
            ));
        }
        let cid = comp[b.from_node];
        for (node, &c) in comp.iter().enumerate() {
            if c != cid {
                continue;
            }
            let u = universe[graph.node_txn[node]] as usize;
            condemned[u] = true;
            condemn_witness[u].get_or_insert_with(|| cycle.clone());
        }
    }

    if pruned > 0 {
        diagnostics.push(Diagnostic::new(
            Code::EdgeRefined,
            Severity::Note,
            Span::Spec,
            format!(
                "orientation-consistency refinement pruned {pruned} spurious backward \
                 conflict(s): a realizable cycle cannot use both orientations of one \
                 access pair"
            ),
        ));
    }
    let certified: Vec<bool> = condemned.iter().map(|&c| !c).collect();
    if certified.iter().all(|&c| c) {
        diagnostics.push(Diagnostic::new(
            Code::CertIssued,
            Severity::Note,
            Span::Spec,
            format!(
                "static safety certificate: no interleaving of the {} transactions \
                 can close a coherent-closure cycle ({} may-conflict edges, \
                 {} backward-capable, none on a realizable cycle)",
                profiles.len(),
                graph.graph.edge_count(),
                graph.backward.len(),
            ),
        ));
    }
    for (u, &ok) in certified.iter().enumerate() {
        let members = universe.iter().filter(|&&x| x as usize == u).count();
        if ok {
            diagnostics.push(Diagnostic::new(
                Code::UniverseCertified,
                Severity::Note,
                Span::Universe(u as u32),
                format!(
                    "universe {u} ({members} txns) certified: no realizable closure \
                     cycle passes through its transactions — schedulers may skip \
                     closure maintenance for their steps"
                ),
            ));
        } else {
            diagnostics.push(Diagnostic::new(
                Code::UniverseCondemned,
                Severity::Warning,
                Span::Universe(u as u32),
                format!(
                    "universe {u} ({members} txns) condemned by the mixed cycle {} — \
                     its transactions need runtime closure checks",
                    condemn_witness[u].as_deref().unwrap_or("(unnamed)"),
                ),
            ));
        }
    }
    let footprints = profiles.iter().map(TxnProfile::footprint).collect();
    let lattice = StaticCert::per_universe(w.nest.k(), footprints, universe, certified);
    let cert = lattice.any_certified().then(|| lattice.clone());
    Certification {
        cert,
        lattice: Some(lattice),
        diagnostics,
    }
}

/// A backward-capable edge together with the conflict pair that
/// generated it, kept for refinement and witness reporting.
struct BackEdge {
    from_node: usize,
    to_node: usize,
    from: TxnId,
    to: TxnId,
    /// `from`'s exit slot in the generating conflict pair.
    a_out: usize,
    /// `to`'s slot in the generating conflict pair (`to_node`'s slot).
    b_in: usize,
    entity: EntityId,
    level: usize,
    /// Both endpoint profiles are `Exact` — each slot is one access
    /// instance, so orientation-consistency refinement applies.
    exact_pair: bool,
}

/// What generates an edge, collapsed to the only question refinement
/// ever asks: is the edge held up by a *single* conflict pair (and
/// which), or by several? Keeping the full generator sets costs one
/// heap set per edge — tens of millions on a large clique — for no
/// extra answer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EdgeGen {
    /// Exactly one generating pair: `(exit slot of the source
    /// transaction, entity)`.
    One(usize, EntityId),
    /// Two or more distinct generating pairs.
    Many,
}

/// The may-conflict graph over access slots.
struct ConflictGraph {
    /// Adjacency over dense node ids (`offsets[t] + slot`), each
    /// successor list ascending.
    graph: DiGraph,
    /// First node id of each transaction.
    offsets: Vec<usize>,
    /// Owning transaction index per node.
    node_txn: Vec<usize>,
    /// Per from-node: target → collapsed generator summary. An edge
    /// exists for as long as any of its generators does; queried only
    /// point-wise, never iterated, so hash order cannot leak into
    /// output.
    generators: Vec<std::collections::HashMap<usize, EdgeGen>>,
    backward: Vec<BackEdge>,
}

impl ConflictGraph {
    fn build(nest: &Nest, profiles: &[TxnProfile]) -> ConflictGraph {
        let n = profiles.len();
        let mut offsets = Vec::with_capacity(n);
        let mut total = 0usize;
        for p in profiles {
            offsets.push(total);
            total += p.slot_count();
        }
        let mut node_txn = vec![0usize; total];
        for (t, p) in profiles.iter().enumerate() {
            for s in 0..p.slot_count() {
                node_txn[offsets[t] + s] = t;
            }
        }
        let footprints: Vec<Vec<EntityId>> = profiles.iter().map(TxnProfile::footprint).collect();
        // Entity → transactions touching it: only pairs that actually
        // share an entity are visited (all-pairs over the transaction
        // count is quadratic and dominated by disjoint-footprint pairs
        // on partitioned workloads).
        let mut by_entity: std::collections::BTreeMap<EntityId, Vec<usize>> = Default::default();
        for (t, fp) in footprints.iter().enumerate() {
            for &e in fp {
                by_entity.entry(e).or_default().push(t);
            }
        }
        // One map per from-node carries both the adjacency (its key
        // set, sorted into `graph` below) and the generator summary.
        let mut edges: Vec<std::collections::HashMap<usize, EdgeGen>> =
            vec![Default::default(); total];
        let mut backward_set = std::collections::BTreeSet::new();
        let mut backward = Vec::new();
        for (&e, touching) in &by_entity {
            for &t in touching {
                for &u in touching {
                    if t == u {
                        continue;
                    }
                    let level = nest.level(TxnId(t as u32), TxnId(u as u32));
                    let exact_pair = matches!(profiles[t], TxnProfile::Exact { .. })
                        && matches!(profiles[u], TxnProfile::Exact { .. });
                    for &a_out in &profiles[t].slots_on(e) {
                        for &b_in in &profiles[u].slots_on(e) {
                            let to = offsets[u] + b_in;
                            for a_in in 0..profiles[t].slot_count() {
                                if !profiles[t].can_traverse(a_in, a_out, level) {
                                    continue;
                                }
                                let from = offsets[t] + a_in;
                                edges[from]
                                    .entry(to)
                                    .and_modify(|g| {
                                        if *g != EdgeGen::One(a_out, e) {
                                            *g = EdgeGen::Many;
                                        }
                                    })
                                    .or_insert(EdgeGen::One(a_out, e));
                                if profiles[t].backward_traverse(a_in, a_out, level)
                                    && backward_set.insert((from, to, a_out, e))
                                {
                                    backward.push(BackEdge {
                                        from_node: from,
                                        to_node: to,
                                        from: TxnId(t as u32),
                                        to: TxnId(u as u32),
                                        a_out,
                                        b_in,
                                        entity: e,
                                        level,
                                        exact_pair,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        let mut graph = DiGraph::new(total);
        for (v, m) in edges.iter().enumerate() {
            let mut outs: Vec<usize> = m.keys().copied().collect();
            outs.sort_unstable();
            for w in outs {
                graph.add_edge(v as NodeId, w as NodeId);
            }
        }
        ConflictGraph {
            graph,
            offsets,
            node_txn,
            generators: edges,
            backward,
        }
    }

    /// Tries to refute backward edge `b` (already known to sit on a
    /// cycle): searches a completion path `to_node ⇝ from_node` with
    /// every edge generated *solely* by the reversed orientation of
    /// `b`'s conflict pair removed. Returns `true` when no such path
    /// exists — the edge cannot sit on a *realizable* cycle, because a
    /// single history orders the pair one way only.
    fn refute(&self, b: &BackEdge, comp: &[u32]) -> bool {
        // The reversed pair enters `from`'s transaction at its
        // conflicting access, and is tagged on the source side with
        // `to`'s slot as the exit.
        let reversed_target = self.offsets[b.from.0 as usize] + b.a_out;
        let reversed_gen = (b.b_in, b.entity);
        let u_txn = b.to.0 as usize;
        let cid = comp[b.from_node];
        let mut seen = vec![false; self.graph.node_count()];
        let mut stack = vec![b.to_node];
        seen[b.to_node] = true;
        while let Some(v) = stack.pop() {
            if v == b.from_node {
                return false; // a completion path survives
            }
            for w in self.successors(v) {
                if seen[w] || comp[w] != cid {
                    continue;
                }
                if w == reversed_target
                    && self.node_txn[v] == u_txn
                    && self
                        .generators
                        .get(v)
                        .and_then(|m| m.get(&w))
                        .is_some_and(|&g| g == EdgeGen::One(reversed_gen.0, reversed_gen.1))
                {
                    continue; // exists only under the reversed orientation
                }
                seen[w] = true;
                stack.push(w);
            }
        }
        true
    }

    /// A human label for one cycle through backward edge `b`: shortest
    /// completion path by BFS inside the component, rendered as a txn
    /// sequence `t0 → t1 → … → t0 via xN`.
    fn cycle_label(&self, b: &BackEdge, comp: &[u32]) -> String {
        let n = self.graph.node_count();
        let cid = comp[b.from_node];
        let mut prev = vec![usize::MAX; n];
        prev[b.to_node] = b.to_node;
        let mut queue = std::collections::VecDeque::from([b.to_node]);
        'bfs: while let Some(v) = queue.pop_front() {
            for w in self.successors(v) {
                if comp[w] != cid || prev[w] != usize::MAX {
                    continue;
                }
                prev[w] = v;
                if w == b.from_node {
                    break 'bfs;
                }
                queue.push_back(w);
            }
        }
        let mut nodes = vec![b.from_node];
        let mut v = b.from_node;
        while v != b.to_node {
            v = prev[v];
            nodes.push(v);
        }
        nodes.reverse(); // to_node … from_node
        let mut txns: Vec<TxnId> = vec![b.from];
        for &nd in &nodes {
            let t = TxnId(self.node_txn[nd] as u32);
            if txns.last() != Some(&t) {
                txns.push(t);
            }
        }
        let path = txns
            .iter()
            .map(|t| format!("t{}", t.0))
            .collect::<Vec<_>>()
            .join(" → ");
        format!("{path} via x{}", b.entity.0)
    }

    /// The successors of node `v`, ascending.
    fn successors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.graph
            .successors(v as NodeId)
            .iter()
            .map(|&w| w as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_workload::{banking, cad, mixed, partitioned};

    #[test]
    fn partitioned_workload_certifies() {
        // Every cross-transaction conflict runs through a universe's
        // single shared slot, accessed exactly once per transaction at a
        // known position: no backward-capable edge can exist.
        let wl = partitioned::generate(partitioned::PartitionedConfig::default()).workload;
        let c = certify_workload(&wl);
        let cert = c.cert.expect("partitioned must earn a certificate");
        assert_eq!(cert.k(), 3);
        assert_eq!(cert.txn_count(), wl.txn_count());
        assert!(cert.fully_certified(), "every universe certifies");
        // One global MLA020 plus one MLA023 per universe.
        assert_eq!(c.diagnostics.len(), 1 + cert.universe_count());
        assert_eq!(c.diagnostics[0].code, Code::CertIssued);
        assert!(c.diagnostics[1..]
            .iter()
            .all(|d| d.code == Code::UniverseCertified));
        // The certificate's guard accepts exactly the profiled entities.
        assert!(cert.covers(TxnId(0), EntityId(0)), "scanner 0 reads slot 0");
        assert!(!cert.covers(TxnId(0), EntityId(1)), "foreign shared slot");
    }

    #[test]
    fn banking_workload_is_denied_with_witness() {
        // Atomic audits share many accounts with the transfers and carry
        // no guaranteed breakpoints: their whole run is one segment, so
        // backward exits (and thus mixed cycles) are realizable. Both
        // universes (transfers and audits) sit in the same mixed SCC, so
        // the lattice condemns them both and no certificate is issued.
        let wl = banking::generate(banking::BankingConfig::default()).workload;
        let c = certify_workload(&wl);
        assert!(c.cert.is_none(), "banking must not certify");
        let lattice = c.lattice.expect("verdict reached");
        assert!(!lattice.any_certified(), "both universes condemned");
        let denied = &c.diagnostics[0];
        assert_eq!(denied.code, Code::CertDenied);
        assert_eq!(denied.severity, Severity::Warning);
        assert!(denied.message.contains("mixed closure cycle"));
        assert!(c
            .diagnostics
            .iter()
            .any(|d| d.code == Code::UniverseCondemned && d.message.contains("via x")));
        assert!(!c
            .diagnostics
            .iter()
            .any(|d| d.code == Code::UniverseCertified));
    }

    #[test]
    fn cad_workload_is_denied() {
        let wl = cad::generate(cad::CadConfig::default()).workload;
        let c = certify_workload(&wl);
        assert!(c.cert.is_none(), "atomic snapshots forbid certification");
        assert_eq!(c.diagnostics[0].code, Code::CertDenied);
        assert!(!c.lattice.expect("verdict reached").any_certified());
    }

    #[test]
    fn mixed_workload_partially_certifies() {
        // The mixed family interleaves three entity-disjoint universes:
        // Free (level-2 breakpoints everywhere → singleton segments, no
        // backward travel), Atomic, and Classmates. Only Free certifies,
        // which is exactly what the lattice — unlike the all-or-nothing
        // certificate — can express.
        let wl = mixed::generate(mixed::MixedConfig::default()).workload;
        let c = certify_workload(&wl);
        let cert = c.cert.expect("some universe must certify");
        assert_eq!(cert.universe_count(), 3);
        assert!(!cert.fully_certified());
        let certified = cert.certified_universes();
        assert!(!certified.is_empty(), "the Free universe certifies");
        for d in &c.diagnostics {
            if d.code == Code::UniverseCondemned {
                assert!(d.message.contains("via x"), "denial names its cycle");
            }
        }
        // Certified universes really are entity-disjoint from condemned
        // transactions' footprints (the guard's soundness precondition).
        for &u in &certified {
            for t in 0..cert.txn_count() {
                if cert.universe_of(TxnId(t as u32)) != Some(u) {
                    for e in cert.footprint(TxnId(t as u32)) {
                        assert!(
                            !cert.universe_entities(u).contains(e),
                            "certified universe {u} must not share x{} with t{t}",
                            e.0
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn refinement_only_prunes_on_exact_pairs() {
        // Every pruned edge is reported; the pruning note only appears
        // when something was actually refuted.
        let wl = mixed::generate(mixed::MixedConfig::default()).workload;
        let c = certify_workload(&wl);
        let pruned = c.diagnostics.iter().any(|d| d.code == Code::EdgeRefined);
        // The mixed default family is entity-disjoint across universes,
        // so refinement may or may not fire — but if it does, the note
        // must carry the count.
        if pruned {
            assert!(c
                .diagnostics
                .iter()
                .find(|d| d.code == Code::EdgeRefined)
                .unwrap()
                .message
                .contains("pruned"));
        }
    }

    #[test]
    fn scc_finds_the_obvious_cycle() {
        let g = ConflictGraph {
            graph: DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 0)]),
            offsets: vec![0, 2],
            node_txn: vec![0, 0, 1, 1],
            generators: Default::default(),
            backward: vec![BackEdge {
                from_node: 2,
                to_node: 0,
                from: TxnId(1),
                to: TxnId(0),
                a_out: 0,
                b_in: 0,
                entity: EntityId(9),
                level: 1,
                exact_pair: false,
            }],
        };
        let comp = tarjan(&g.graph).comp_of;
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[0], comp[3]);
        let b = &g.backward[0];
        assert_eq!(comp[b.from_node], comp[b.to_node], "edge is on a cycle");
        let label = g.cycle_label(b, &comp);
        assert!(label.starts_with("t1 → t0"), "label was {label}");
        assert!(label.ends_with("via x9"));
    }

    #[test]
    fn refutation_prunes_a_two_txn_orientation_artifact() {
        // Two transactions, one shared entity, where the only way "back"
        // from u to t is the reversed orientation of the same conflict
        // pair: node 0 = t@0 (exit slot 1 on x7), node 1 = t@1, node
        // 2 = u@0. Backward edge (t@1 exits at slot 0... modelled
        // directly: from_node 1 → to_node 2 with a_out 0; the only
        // completion edge 2 → 0 is generated solely by the reversed
        // pair (u slot 0, x7).
        let mut generators: Vec<std::collections::HashMap<usize, EdgeGen>> =
            vec![Default::default(); 3];
        generators[1].insert(2, EdgeGen::One(0, EntityId(7)));
        generators[2].insert(0, EdgeGen::One(0, EntityId(7)));
        let g = ConflictGraph {
            graph: DiGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]),
            offsets: vec![0, 2],
            node_txn: vec![0, 0, 1],
            generators,
            backward: vec![BackEdge {
                from_node: 1,
                to_node: 2,
                from: TxnId(0),
                to: TxnId(1),
                a_out: 0,
                b_in: 0,
                entity: EntityId(7),
                level: 2,
                exact_pair: true,
            }],
        };
        let comp = tarjan(&g.graph).comp_of;
        let b = &g.backward[0];
        assert_eq!(comp[b.from_node], comp[b.to_node], "naively on a cycle");
        assert!(
            g.refute(b, &comp),
            "the only completion uses the reversed orientation"
        );
        // With a second, independent conflict feeding 2 → 0, the cycle
        // becomes realizable and refutation must fail.
        let mut g2 = g;
        g2.generators[2].insert(0, EdgeGen::Many);
        assert!(!g2.refute(&g2.backward[0], &comp));
    }
}
