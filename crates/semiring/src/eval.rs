//! Bottom-up annotation evaluation over provenance graphs (paper §2.1).
//!
//! Acyclic graphs are evaluated in one topological pass. Cyclic graphs
//! (recursive mappings — the paper's future-work case, which this
//! implementation supports) use Kleene fixpoint iteration, valid exactly
//! for the idempotent + absorptive semirings (Table 1's first five rows);
//! counting and polynomial annotations on cyclic graphs are reported as
//! divergent.

use crate::annotation::Annotation;
use crate::semiring::{MapFn, SemiringKind};
use proql_common::par::par_map;
use proql_common::{DerivationId, Error, Parallelism, Result, TupleId};
use proql_provgraph::{ProvGraph, TupleNode};
use std::collections::{HashMap, HashSet};

/// A boxed leaf-assignment closure. `Send + Sync` so the level-parallel
/// evaluator can call it from worker threads.
pub type LeafFn<'a> = Box<dyn Fn(&TupleNode, &str) -> Annotation + Send + Sync + 'a>;

/// The value/function assignment of an annotation computation: which
/// semiring, what each leaf gets, and each mapping's unary function.
pub struct Assignment<'a> {
    /// The semiring to evaluate in.
    pub kind: SemiringKind,
    /// Base value of a leaf tuple node. Receives the node and its label
    /// (`"R(k1,k2)"`). Defaults should fall back to
    /// [`SemiringKind::default_leaf`].
    pub leaf: LeafFn<'a>,
    /// Unary function of each mapping (by name); default is identity.
    pub map_fn: Box<dyn Fn(&str) -> MapFn + Send + Sync + 'a>,
    /// Value of *dangling* leaves — tuple nodes with no derivations at all
    /// in the (projected) graph. `None` (the default) applies the `leaf`
    /// assignment, per the paper's projected-subgraph semantics; update
    /// exchange sets this to the semiring zero so tuples that lost every
    /// derivation are recognized as underivable.
    pub dangling: Option<Annotation>,
    /// Derivations to evaluate **as if removed**: they contribute nothing
    /// to their targets' ⊕, and a tuple whose every derivation is masked
    /// counts as dangling. CDSS deletion uses this to ask "what remains
    /// derivable without these `+` derivations?" against a shared,
    /// unmodified graph instead of cloning or rebuilding it. Ids are only
    /// meaningful for the graph being evaluated.
    pub masked: Option<HashSet<DerivationId>>,
}

impl<'a> Assignment<'a> {
    /// The default assignment: every leaf gets the semiring's default base
    /// value, every mapping is neutral.
    pub fn default_for(kind: SemiringKind) -> Assignment<'static> {
        Assignment {
            kind,
            leaf: Box::new(move |_, label| kind.default_leaf(label)),
            map_fn: Box::new(|_| MapFn::Identity),
            dangling: None,
            masked: None,
        }
    }

    /// Override the leaf assignment.
    pub fn with_leaf(
        mut self,
        f: impl Fn(&TupleNode, &str) -> Annotation + Send + Sync + 'a,
    ) -> Assignment<'a> {
        self.leaf = Box::new(f);
        self
    }

    /// Override the mapping-function assignment.
    pub fn with_map_fn(mut self, f: impl Fn(&str) -> MapFn + Send + Sync + 'a) -> Assignment<'a> {
        self.map_fn = Box::new(f);
        self
    }

    /// Give dangling leaves (no derivations at all) a fixed value.
    pub fn with_dangling(mut self, v: Annotation) -> Assignment<'a> {
        self.dangling = Some(v);
        self
    }

    /// Evaluate as if the given derivations were removed from the graph.
    pub fn with_masked(mut self, masked: HashSet<DerivationId>) -> Assignment<'a> {
        self.masked = Some(masked);
        self
    }
}

/// The canonical label of a tuple node: `R(k1,k2)`.
pub fn leaf_label(node: &TupleNode) -> String {
    let keys: Vec<String> = node.key.iter().map(|v| v.to_string()).collect();
    format!("{}({})", node.relation, keys.join(","))
}

/// Evaluate annotations for every tuple node of `graph`.
///
/// Dispatches to the single-pass algorithm on acyclic graphs and to
/// fixpoint iteration otherwise.
pub fn evaluate(
    graph: &ProvGraph,
    assign: &Assignment<'_>,
) -> Result<HashMap<TupleId, Annotation>> {
    evaluate_with(graph, assign, Parallelism::Serial)
}

/// [`evaluate`] with a [`Parallelism`] knob. On acyclic graphs with
/// parallelism enabled, the bottom-up pass runs **level by level** over
/// the CSR adjacency: a tuple's level is one past its deepest source, so
/// tuples of one level are independent and evaluate on worker threads,
/// with results merged deterministically. Values are identical to the
/// serial walk — each tuple's fold still visits its derivations and
/// sources in the same order — and a failing evaluation re-runs serially
/// so even the surfaced error is the serial one. Cyclic graphs use the
/// (serial) fixpoint path under every knob.
pub fn evaluate_with(
    graph: &ProvGraph,
    assign: &Assignment<'_>,
    par: Parallelism,
) -> Result<HashMap<TupleId, Annotation>> {
    let par = par.resolved();
    match graph.topo_order() {
        Some(order) if par.is_parallel() => evaluate_by_levels(graph, assign, &order, par),
        Some(order) => evaluate_in_order(graph, assign, &order),
        None => evaluate_fixpoint(graph, assign),
    }
}

/// Incremental re-evaluation of an **acyclic** graph after a localized
/// change — the annotation half of incremental view maintenance.
///
/// `prior` is a complete evaluation of the graph *before* the change (as
/// returned by [`evaluate`]); `dirty` is the set of tuple ids whose
/// evaluation inputs changed: tuples that gained or lost a derivation,
/// tuples whose stored values (and hence leaf assignment) changed, and
/// every tuple newly added to the graph. Only the dirty tuples and the
/// consumers transitively downstream of an actually-changed value are
/// recomputed; a recomputed value equal to its prior one cuts propagation
/// there, so the cost is proportional to the affected region, not the
/// graph. Tuples outside that region keep their prior values verbatim.
///
/// Tuple ids must be stable between `prior` and `graph` (no compaction in
/// between). Cyclic graphs are rejected — fixpoint iteration has no sound
/// notion of a local boundary — and callers fall back to [`evaluate`].
pub fn evaluate_dirty(
    graph: &ProvGraph,
    assign: &Assignment<'_>,
    prior: &HashMap<TupleId, Annotation>,
    dirty: &HashSet<TupleId>,
) -> Result<HashMap<TupleId, Annotation>> {
    let order = graph.topo_order().ok_or_else(|| {
        Error::Semiring("dirty re-evaluation requires an acyclic provenance graph".into())
    })?;
    let mut vals: DenseVals = vec![None; graph.tuple_id_bound()];
    for t in graph.tuple_ids() {
        vals[t.index()] = prior.get(&t).cloned();
    }
    let mut needs: Vec<bool> = vec![false; graph.tuple_id_bound()];
    for t in dirty {
        if t.index() < needs.len() {
            needs[t.index()] = true;
        }
    }
    for &t in &order {
        // A live tuple with no prior value must be new: recompute it even
        // when the caller forgot to mark it dirty.
        if !needs[t.index()] && vals[t.index()].is_some() {
            continue;
        }
        let v = tuple_value(graph, assign, t, &vals)?;
        if vals[t.index()].as_ref() == Some(&v) {
            continue; // unchanged: downstream consumers keep their values
        }
        vals[t.index()] = Some(v);
        for &d in graph.consumers_of(t) {
            for target in &graph.derivation(d).targets {
                needs[target.index()] = true;
            }
        }
    }
    Ok(to_map(vals))
}

/// Dense value table for the bottom-up walk: tuple id → annotation. Flat
/// indexing matches the graph's CSR adjacency — the hot loop is two vector
/// walks, no hashing.
type DenseVals = Vec<Option<Annotation>>;

fn derivation_value(
    graph: &ProvGraph,
    assign: &Assignment<'_>,
    d: DerivationId,
    tuple_vals: &DenseVals,
) -> Result<Annotation> {
    let node = graph.derivation(d);
    let inner = if node.is_base {
        // A `+` derivation: its value is the leaf assignment of its target.
        let target = node
            .targets
            .first()
            .ok_or_else(|| Error::Semiring("base derivation without target".into()))?;
        let tn = graph.tuple(*target);
        let v = (assign.leaf)(tn, &leaf_label(tn));
        assign.kind.check_value(&v)?;
        v
    } else {
        let mut acc = assign.kind.one();
        for s in &node.sources {
            let sv = tuple_vals[s.index()]
                .clone()
                .unwrap_or_else(|| assign.kind.zero());
            acc = assign.kind.times(&acc, &sv)?;
        }
        acc
    };
    (assign.map_fn)(&node.mapping).apply(assign.kind, &inner)
}

fn tuple_value(
    graph: &ProvGraph,
    assign: &Assignment<'_>,
    t: TupleId,
    tuple_vals: &DenseVals,
) -> Result<Annotation> {
    let derivs = graph.derivations_of(t);
    let is_masked = |d: &DerivationId| assign.masked.as_ref().is_some_and(|m| m.contains(d));
    if derivs.iter().all(is_masked) {
        // Dangling leaf (possibly only after masking): gets the configured
        // value or a leaf assignment.
        if let Some(v) = &assign.dangling {
            return Ok(v.clone());
        }
        let tn = graph.tuple(t);
        let v = (assign.leaf)(tn, &leaf_label(tn));
        assign.kind.check_value(&v)?;
        return Ok(v);
    }
    let mut acc = assign.kind.zero();
    for &d in derivs {
        if is_masked(&d) {
            continue;
        }
        let dv = derivation_value(graph, assign, d, tuple_vals)?;
        acc = assign.kind.plus(&acc, &dv)?;
    }
    Ok(acc)
}

fn to_map(vals: DenseVals) -> HashMap<TupleId, Annotation> {
    vals.into_iter()
        .enumerate()
        .filter_map(|(i, v)| v.map(|v| (TupleId(i as u32), v)))
        .collect()
}

fn evaluate_in_order(
    graph: &ProvGraph,
    assign: &Assignment<'_>,
    order: &[TupleId],
) -> Result<HashMap<TupleId, Annotation>> {
    let mut vals: DenseVals = vec![None; graph.tuple_id_bound()];
    for &t in order {
        let v = tuple_value(graph, assign, t, &vals)?;
        vals[t.index()] = Some(v);
    }
    Ok(to_map(vals))
}

/// Levels below which a level evaluates serially anyway (thread handoff
/// costs more than a handful of folds).
const PAR_LEVEL_MIN: usize = 64;

/// Bucket an acyclic graph's tuples by **derivation depth**: a tuple's
/// level is one past the deepest source feeding any of its derivations
/// (base derivations contribute level 0), so tuples of one level depend
/// only on strictly lower levels. `order` must be a topological order (it
/// levels sources before their targets, and fixes the within-level
/// ordering). Shared by the level-parallel walk here and the
/// grouped-aggregation ⊕ evaluator in `proql`.
pub fn level_order(graph: &ProvGraph, order: &[TupleId]) -> Vec<Vec<TupleId>> {
    let mut level: Vec<u32> = vec![0; graph.tuple_id_bound()];
    let mut max_level = 0u32;
    for &t in order {
        let mut lvl = 0;
        for &d in graph.derivations_of(t) {
            for s in &graph.derivation(d).sources {
                lvl = lvl.max(level[s.index()] + 1);
            }
        }
        level[t.index()] = lvl;
        max_level = max_level.max(lvl);
    }
    let mut by_level: Vec<Vec<TupleId>> = vec![Vec::new(); max_level as usize + 1];
    for &t in order {
        by_level[level[t.index()] as usize].push(t);
    }
    by_level
}

/// Level-parallel bottom-up pass over an acyclic graph: group tuples by
/// derivation depth, then evaluate each level's tuples concurrently (they
/// only read values of strictly lower levels).
fn evaluate_by_levels(
    graph: &ProvGraph,
    assign: &Assignment<'_>,
    order: &[TupleId],
    par: Parallelism,
) -> Result<HashMap<TupleId, Annotation>> {
    let by_level = level_order(graph, order);
    let mut vals: DenseVals = vec![None; graph.tuple_id_bound()];
    for tuples in &by_level {
        if tuples.len() < PAR_LEVEL_MIN {
            for &t in tuples {
                match tuple_value(graph, assign, t, &vals) {
                    Ok(v) => vals[t.index()] = Some(v),
                    // Level order visits failures in a different order than
                    // the serial topo walk; re-run serially so the surfaced
                    // error is exactly the serial one (per-tuple folds are
                    // deterministic, so the serial pass must fail too).
                    Err(_) => return evaluate_in_order(graph, assign, order),
                }
            }
            continue;
        }
        let results = par_map(tuples.len(), par.threads(), |i| {
            tuple_value(graph, assign, tuples[i], &vals)
        });
        for (&t, v) in tuples.iter().zip(results) {
            match v {
                Ok(v) => vals[t.index()] = Some(v),
                Err(_) => return evaluate_in_order(graph, assign, order),
            }
        }
    }
    Ok(to_map(vals))
}

fn evaluate_fixpoint(
    graph: &ProvGraph,
    assign: &Assignment<'_>,
) -> Result<HashMap<TupleId, Annotation>> {
    if !assign.kind.converges_on_cycles() {
        return Err(Error::Semiring(format!(
            "the {} semiring may diverge on cyclic provenance graphs \
             (not idempotent/absorptive); the paper's Table 1 limits cycles \
             to the first five semirings",
            assign.kind
        )));
    }
    let n = graph.tuple_count() + graph.derivation_count() + 2;
    let mut vals: DenseVals = vec![Some(assign.kind.zero()); graph.tuple_id_bound()];
    for _ in 0..n {
        let mut changed = false;
        for t in graph.tuple_ids() {
            let v = tuple_value(graph, assign, t, &vals)?;
            if vals[t.index()].as_ref() != Some(&v) {
                vals[t.index()] = Some(v);
                changed = true;
            }
        }
        if !changed {
            return Ok(to_map(vals));
        }
    }
    Err(Error::Semiring(
        "fixpoint iteration did not converge (non-monotone assignment?)".into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::SecurityLevel;
    use proql_common::tup;
    use proql_provgraph::system::example_2_1;

    fn example_graph() -> ProvGraph {
        ProvGraph::from_system(&example_2_1().unwrap()).unwrap()
    }

    #[test]
    fn masked_derivations_evaluate_as_removed() {
        let g = example_graph();
        // Mask the `+` derivation grounding C(2,cn2): the C/N cycle loses
        // its only ground support, so the cn2 family becomes underivable
        // without mutating the shared graph.
        let c2 = g.find_tuple("C", &tup![2, "cn2"]).unwrap();
        let base = g
            .derivations_of(c2)
            .iter()
            .copied()
            .find(|&d| g.derivation(d).is_base)
            .expect("C(2,cn2) is locally grounded");
        let assign = Assignment::default_for(SemiringKind::Derivability)
            .with_dangling(Annotation::Bool(false))
            .with_masked([base].into_iter().collect());
        let vals = evaluate(&g, &assign).unwrap();
        assert_eq!(vals.get(&c2), Some(&Annotation::Bool(false)));
        let ocn2 = g.find_tuple("O", &tup!["cn2"]).unwrap();
        assert_eq!(vals.get(&ocn2), Some(&Annotation::Bool(false)));
        // Tuples grounded elsewhere survive the mask.
        let osn1 = g.find_tuple("O", &tup!["sn1"]).unwrap();
        assert_eq!(vals.get(&osn1), Some(&Annotation::Bool(true)));
        // The same graph unmasked still derives everything.
        let assign = Assignment::default_for(SemiringKind::Derivability)
            .with_dangling(Annotation::Bool(false));
        let vals = evaluate(&g, &assign).unwrap();
        assert_eq!(vals.get(&c2), Some(&Annotation::Bool(true)));
    }

    #[test]
    fn derivability_on_cyclic_example() {
        // The full Figure 1 graph is cyclic; derivability converges by
        // fixpoint and everything is derivable.
        let g = example_graph();
        let vals = evaluate(&g, &Assignment::default_for(SemiringKind::Derivability)).unwrap();
        for t in g.tuple_ids() {
            assert_eq!(
                vals[&t],
                Annotation::Bool(true),
                "{} should be derivable",
                leaf_label(g.tuple(t))
            );
        }
    }

    #[test]
    fn counting_errors_on_cyclic_graph() {
        let g = example_graph();
        let err = evaluate(&g, &Assignment::default_for(SemiringKind::Counting)).unwrap_err();
        assert!(err.to_string().contains("diverge"));
    }

    #[test]
    fn counting_on_acyclic_projection() {
        let g = example_graph();
        // Keep base + m4 + m5 derivations: acyclic, O tuples countable.
        let derivs: Vec<_> = g
            .derivation_ids()
            .filter(|&d| {
                let n = g.derivation(d);
                n.is_base || n.mapping == "m4" || n.mapping == "m5"
            })
            .collect();
        let sub = g.project(derivs);
        let vals = evaluate(&sub, &Assignment::default_for(SemiringKind::Counting)).unwrap();
        // O(sn1): only via m4 from A(1) => 1 derivation... but A(1) itself
        // has one base derivation, so count(O(sn1)) = 1.
        let osn1 = sub.find_tuple("O", &tup!["sn1"]).unwrap();
        assert_eq!(vals[&osn1], Annotation::Count(1));
        // O(cn2) via m5 from A(2) and C(2,cn2) (both base) = 1.
        let ocn2 = sub.find_tuple("O", &tup!["cn2"]).unwrap();
        assert_eq!(vals[&ocn2], Annotation::Count(1));
    }

    #[test]
    fn q7_trust_policy() {
        // Paper Q7: distrust A tuples with len >= 6, distrust mapping m4,
        // trust everything else. O(sn1,7) comes only via m4 (distrusted) or
        // from A(1) (len 7, distrusted): untrusted. O(cn2,5) via m5 from
        // A(2) (len 5, trusted) and C(2,cn2) (trusted): trusted.
        let g = example_graph();
        let assign = Assignment::default_for(SemiringKind::Trust)
            .with_leaf(|node, _| {
                if node.relation == "A" {
                    let len = node
                        .values
                        .as_ref()
                        .and_then(|v| v.get(2).as_int())
                        .unwrap_or(0);
                    Annotation::Bool(len < 6)
                } else {
                    Annotation::Bool(true)
                }
            })
            .with_map_fn(|m| {
                if m == "m4" {
                    MapFn::zero(SemiringKind::Trust)
                } else {
                    MapFn::Identity
                }
            });
        let vals = evaluate(&g, &assign).unwrap();
        let osn1 = g.find_tuple("O", &tup!["sn1"]).unwrap();
        assert_eq!(vals[&osn1], Annotation::Bool(false));
        let ocn2 = g.find_tuple("O", &tup!["cn2"]).unwrap();
        assert_eq!(vals[&ocn2], Annotation::Bool(true));
        // cn1 depends on A(1) (len 7): untrusted through every path.
        let ocn1 = g.find_tuple("O", &tup!["cn1"]).unwrap();
        assert_eq!(vals[&ocn1], Annotation::Bool(false));
    }

    #[test]
    fn lineage_collects_base_tuples() {
        let g = example_graph();
        let vals = evaluate(&g, &Assignment::default_for(SemiringKind::Lineage)).unwrap();
        let ocn2 = g.find_tuple("O", &tup!["cn2"]).unwrap();
        let lineage = vals[&ocn2].as_lineage().unwrap();
        assert!(lineage.contains("A(2)"));
        assert!(lineage.contains("C(2,cn2)"));
        assert!(!lineage.contains("A(1)"));
    }

    #[test]
    fn weight_takes_cheapest_path() {
        let g = example_graph();
        // Leaf weights: A tuples cost 10, others cost 1.
        let assign = Assignment::default_for(SemiringKind::Weight)
            .with_leaf(|node, _| Annotation::Weight(if node.relation == "A" { 10.0 } else { 1.0 }));
        let vals = evaluate(&g, &assign).unwrap();
        // O(cn2) via m5 needs A(2) + C(2,cn2): 10 + 1 = 11.
        let ocn2 = g.find_tuple("O", &tup!["cn2"]).unwrap();
        assert_eq!(vals[&ocn2], Annotation::Weight(11.0));
        // O(sn2) via m4 from A(2) alone: 10.
        let osn2 = g.find_tuple("O", &tup!["sn2"]).unwrap();
        assert_eq!(vals[&osn2], Annotation::Weight(10.0));
    }

    #[test]
    fn confidentiality_levels_combine() {
        let g = example_graph();
        let assign = Assignment::default_for(SemiringKind::Confidentiality).with_leaf(|node, _| {
            Annotation::Level(if node.relation == "A" {
                SecurityLevel::Secret
            } else {
                SecurityLevel::Public
            })
        });
        let vals = evaluate(&g, &assign).unwrap();
        // Every O tuple requires some A tuple: at least Secret.
        let ocn2 = g.find_tuple("O", &tup!["cn2"]).unwrap();
        assert_eq!(vals[&ocn2], Annotation::Level(SecurityLevel::Secret));
    }

    #[test]
    fn probability_events_compose() {
        let g = example_graph();
        let vals = evaluate(&g, &Assignment::default_for(SemiringKind::Probability)).unwrap();
        let ocn2 = g.find_tuple("O", &tup!["cn2"]).unwrap();
        let ev = vals[&ocn2].as_event().unwrap();
        // Single minimal conjunct {A(2), C(2,cn2)}.
        assert_eq!(ev.len(), 1);
        let conj = ev.iter().next().unwrap();
        assert!(conj.contains("A(2)") && conj.contains("C(2,cn2)"));
    }

    #[test]
    fn polynomial_how_provenance_on_acyclic_projection() {
        let g = example_graph();
        let derivs: Vec<_> = g
            .derivation_ids()
            .filter(|&d| {
                let n = g.derivation(d);
                n.is_base || n.mapping == "m4" || n.mapping == "m5"
            })
            .collect();
        let sub = g.project(derivs);
        let vals = evaluate(&sub, &Assignment::default_for(SemiringKind::Polynomial)).unwrap();
        let ocn2 = sub.find_tuple("O", &tup!["cn2"]).unwrap();
        assert_eq!(vals[&ocn2].to_string(), "A(2)·C(2,cn2)");
    }

    #[test]
    fn untrusted_leaf_breaks_derivability_chain() {
        let g = example_graph();
        // Distrust everything: nothing is derivable as trusted.
        let assign =
            Assignment::default_for(SemiringKind::Trust).with_leaf(|_, _| Annotation::Bool(false));
        let vals = evaluate(&g, &assign).unwrap();
        for t in g.tuple_ids() {
            assert_eq!(vals[&t], Annotation::Bool(false));
        }
    }

    #[test]
    fn leaf_type_mismatch_is_error() {
        let g = example_graph();
        let assign =
            Assignment::default_for(SemiringKind::Weight).with_leaf(|_, _| Annotation::Bool(true));
        assert!(evaluate(&g, &assign).is_err());
    }

    #[test]
    fn level_parallel_evaluation_matches_serial_walk() {
        // A wide acyclic DAG (> PAR_LEVEL_MIN tuples per level) so the
        // parallel path actually fans out.
        let mut g = ProvGraph::new();
        let width = super::PAR_LEVEL_MIN * 2;
        let mut prev: Vec<proql_common::TupleId> = (0..width as i64)
            .map(|i| {
                let t = g.add_tuple("L0", tup![i], None);
                g.add_derivation("base", tup![i], vec![], vec![t], true);
                t
            })
            .collect();
        for layer in 1..4 {
            let mut nodes = Vec::new();
            for j in 0..width as i64 {
                let t = g.add_tuple(&format!("L{layer}"), tup![j], None);
                let sources = vec![
                    prev[j as usize % prev.len()],
                    prev[(j as usize + 7) % prev.len()],
                ];
                g.add_derivation(&format!("m{layer}"), tup![j], sources, vec![t], false);
                nodes.push(t);
            }
            prev = nodes;
        }
        for kind in [
            SemiringKind::Counting,
            SemiringKind::Weight,
            SemiringKind::Derivability,
            SemiringKind::Polynomial,
        ] {
            let serial = evaluate(&g, &Assignment::default_for(kind)).unwrap();
            for par in [Parallelism::Threads(2), Parallelism::Threads(8)] {
                let parallel = evaluate_with(&g, &Assignment::default_for(kind), par).unwrap();
                assert_eq!(serial, parallel, "{kind} under {par:?}");
            }
        }
    }

    #[test]
    fn counting_overflow_errors_identically_in_serial_and_parallel() {
        // A doubling chain: count(L_k) = 2^k, overflowing u64 at k = 64.
        let mut g = ProvGraph::new();
        let mut prev = g.add_tuple("L", tup![0], None);
        g.add_derivation("base", tup![0], vec![], vec![prev], true);
        for k in 1..=70i64 {
            let t = g.add_tuple("L", tup![k], None);
            g.add_derivation(&format!("a{k}"), tup![k], vec![prev], vec![t], false);
            g.add_derivation(&format!("b{k}"), tup![k], vec![prev], vec![t], false);
            prev = t;
        }
        for par in [Parallelism::Serial, Parallelism::Threads(4)] {
            let err = evaluate_with(&g, &Assignment::default_for(SemiringKind::Counting), par)
                .unwrap_err();
            assert!(
                matches!(err, Error::Overflow(_)),
                "expected overflow under {par:?}, got {err}"
            );
        }
    }

    #[test]
    fn dirty_reevaluation_matches_full_evaluation() {
        // A diamond DAG: base a, b; mid m = a·b; top t = m. Weight
        // semiring so value changes propagate observably.
        let mut g = ProvGraph::new();
        let a = g.add_tuple("A", tup![1], None);
        g.add_derivation("base_a", tup![1], vec![], vec![a], true);
        let b = g.add_tuple("B", tup![1], None);
        g.add_derivation("base_b", tup![1], vec![], vec![b], true);
        let m = g.add_tuple("M", tup![1], None);
        g.add_derivation("mm", tup![1], vec![a, b], vec![m], false);
        let t = g.add_tuple("T", tup![1], None);
        g.add_derivation("mt", tup![1], vec![m], vec![t], false);

        let weights = std::sync::Mutex::new(HashMap::from([("A".to_string(), 1.0f64)]));
        let leaf = |node: &TupleNode, _: &str| {
            Annotation::Weight(
                *weights
                    .lock()
                    .unwrap()
                    .get(node.relation.as_str())
                    .unwrap_or(&2.0),
            )
        };
        let assign = Assignment::default_for(SemiringKind::Weight).with_leaf(leaf);
        let prior = evaluate(&g, &assign).unwrap();
        assert_eq!(prior[&t], Annotation::Weight(3.0)); // 1 + 2

        // Change A's leaf weight: only `a` is dirty at the boundary.
        weights.lock().unwrap().insert("A".into(), 5.0);
        let dirty: HashSet<TupleId> = [a].into_iter().collect();
        let patched = evaluate_dirty(&g, &assign, &prior, &dirty).unwrap();
        let full = evaluate(&g, &assign).unwrap();
        assert_eq!(patched, full);
        assert_eq!(patched[&t], Annotation::Weight(7.0));
    }

    #[test]
    fn dirty_reevaluation_handles_graph_growth() {
        let mut g = ProvGraph::new();
        let a = g.add_tuple("A", tup![1], None);
        g.add_derivation("base_a", tup![1], vec![], vec![a], true);
        let m = g.add_tuple("M", tup![1], None);
        g.add_derivation("mm", tup![1], vec![a], vec![m], false);
        let assign = Assignment::default_for(SemiringKind::Counting);
        let prior = evaluate(&g, &assign).unwrap();

        // Grow the graph: a second derivation of M from a new base tuple.
        let b = g.add_tuple("B", tup![1], None);
        g.add_derivation("base_b", tup![1], vec![], vec![b], true);
        g.add_derivation("mm2", tup![1], vec![b], vec![m], false);
        let dirty: HashSet<TupleId> = [b, m].into_iter().collect();
        let patched = evaluate_dirty(&g, &assign, &prior, &dirty).unwrap();
        assert_eq!(patched, evaluate(&g, &assign).unwrap());
        assert_eq!(patched[&m], Annotation::Count(2));

        // Shrink it again: removing the new support dirties only M.
        g.remove_derivation_row("mm2", &tup![1]);
        let prior = patched;
        let dirty: HashSet<TupleId> = [m].into_iter().collect();
        let patched = evaluate_dirty(&g, &assign, &prior, &dirty).unwrap();
        assert_eq!(patched[&m], Annotation::Count(1));
    }

    #[test]
    fn dirty_reevaluation_rejects_cycles() {
        let g = example_graph();
        let assign = Assignment::default_for(SemiringKind::Derivability);
        assert!(evaluate_dirty(&g, &assign, &HashMap::new(), &HashSet::new()).is_err());
    }

    #[test]
    fn dangling_leaves_in_projection_get_assignments() {
        let g = example_graph();
        // Project only m5 derivations (no base): sources A, C become
        // dangling leaves and receive leaf values.
        let derivs: Vec<_> = g
            .derivation_ids()
            .filter(|&d| g.derivation(d).mapping == "m5")
            .collect();
        let sub = g.project(derivs);
        let vals = evaluate(&sub, &Assignment::default_for(SemiringKind::Lineage)).unwrap();
        let a2 = sub.find_tuple("A", &tup![2]).unwrap();
        assert_eq!(vals[&a2].as_lineage().unwrap().len(), 1);
    }
}
