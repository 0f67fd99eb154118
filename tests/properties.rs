//! Property-based tests over the core data structures and invariants:
//!
//! * semiring laws for every Table 1 semiring,
//! * homomorphism commutation: evaluating the provenance-polynomial
//!   annotation and then applying a semiring homomorphism equals
//!   evaluating directly in that semiring (the fundamental theorem the
//!   whole design rests on),
//! * exchange invariants: provenance rows always decode to existing
//!   tuples,
//! * storage-engine invariants: optimizer output is plan-equivalent, and
//!   the columnar batch executor agrees with both row executors.
//!
//! The build environment has no registry access, so instead of proptest
//! these properties are driven by a seeded [`SplitMix64`] generator:
//! deterministic, reproducible runs with printed counterexample inputs.

use proql_common::rng::SplitMix64;
use proql_common::{tup, Parallelism, Tuple, Value};
use proql_provgraph::ProvGraph;
use proql_semiring::{evaluate, evaluate_with, Annotation, Assignment, Polynomial, SemiringKind};
use proql_storage::{
    execute, execute_with, optimize::optimize, optimize::optimize_with, Database, ExecMode, Expr,
    Plan,
};

const KINDS: [SemiringKind; 8] = [
    SemiringKind::Derivability,
    SemiringKind::Trust,
    SemiringKind::Confidentiality,
    SemiringKind::Weight,
    SemiringKind::Lineage,
    SemiringKind::Probability,
    SemiringKind::Counting,
    SemiringKind::Polynomial,
];

/// A random annotation value for a semiring, built from leaves/ops so the
/// value is always well-typed.
fn arb_annotation(kind: SemiringKind, rng: &mut SplitMix64) -> Annotation {
    let leaves = ["p", "q", "r", "s", "t", "u"];
    let leaf_idx = rng.gen_range_usize(0, 6);
    let shape = rng.gen_range_usize(0, 4);
    let a = kind.default_leaf(leaves[leaf_idx]);
    let b = kind.default_leaf(leaves[(leaf_idx + 1) % 6]);
    match shape {
        0 => kind.zero(),
        1 => kind.one(),
        2 => kind.plus(&a, &b).expect("typed"),
        _ => kind.times(&a, &b).expect("typed"),
    }
}

#[test]
fn semiring_laws_hold() {
    // Exhaustive over all seed/kind combinations the proptest version
    // sampled.
    for kind in KINDS {
        for seed in 0u8..8 {
            let v = |i: u8| {
                let names = ["x", "y", "z", "w"];
                kind.default_leaf(names[((seed + i) % 4) as usize])
            };
            let (a, b, c) = (v(0), v(1), v(2));
            // + commutative & associative, identity.
            assert_eq!(kind.plus(&a, &b).unwrap(), kind.plus(&b, &a).unwrap());
            assert_eq!(
                kind.plus(&kind.plus(&a, &b).unwrap(), &c).unwrap(),
                kind.plus(&a, &kind.plus(&b, &c).unwrap()).unwrap()
            );
            assert_eq!(kind.plus(&a, &kind.zero()).unwrap(), a.clone());
            // × associative, identity, annihilator.
            assert_eq!(
                kind.times(&kind.times(&a, &b).unwrap(), &c).unwrap(),
                kind.times(&a, &kind.times(&b, &c).unwrap()).unwrap()
            );
            assert_eq!(kind.times(&a, &kind.one()).unwrap(), a.clone());
            assert_eq!(kind.times(&kind.zero(), &a).unwrap(), kind.zero());
            // distributivity.
            assert_eq!(
                kind.times(&a, &kind.plus(&b, &c).unwrap()).unwrap(),
                kind.plus(&kind.times(&a, &b).unwrap(), &kind.times(&a, &c).unwrap())
                    .unwrap()
            );
        }
    }
}

#[test]
fn random_annotations_satisfy_distributivity() {
    let mut rng = SplitMix64::seed_from_u64(0xD157);
    for case in 0..256 {
        let kind = KINDS[rng.gen_range_usize(0, KINDS.len())];
        let a = arb_annotation(kind, &mut rng);
        let b = arb_annotation(kind, &mut rng);
        let c = arb_annotation(kind, &mut rng);
        assert_eq!(
            kind.times(&a, &kind.plus(&b, &c).unwrap()).unwrap(),
            kind.plus(&kind.times(&a, &b).unwrap(), &kind.times(&a, &c).unwrap())
                .unwrap(),
            "case {case}: {kind} a={a:?} b={b:?} c={c:?}"
        );
    }
}

/// A random acyclic provenance DAG: layered tuples, each non-leaf with 1-2
/// derivations from the previous layer.
fn arb_dag(rng: &mut SplitMix64) -> ProvGraph {
    let layers = rng.gen_range_usize(2, 5);
    let recipe: Vec<(usize, usize)> = (0..rng.gen_range_usize(2, 10))
        .map(|_| (rng.gen_range_usize(1, 3), rng.gen_range_usize(1, 4)))
        .collect();
    let mut g = ProvGraph::new();
    let mut layer_nodes: Vec<Vec<proql_common::TupleId>> = vec![vec![]];
    // Leaf layer.
    for i in 0..3 {
        let t = g.add_tuple("L0", tup![i as i64], None);
        g.add_derivation("base", tup![i as i64], vec![], vec![t], true);
        layer_nodes[0].push(t);
    }
    let mut key = 100i64;
    for layer in 1..layers {
        let mut nodes = vec![];
        for (j, &(nderiv, nsrc)) in recipe.iter().enumerate() {
            let t = g.add_tuple(&format!("L{layer}"), tup![key], None);
            key += 1;
            for d in 0..nderiv {
                let prev = &layer_nodes[layer - 1];
                let sources: Vec<_> = (0..nsrc.min(prev.len()))
                    .map(|s| prev[(j + s + d) % prev.len()])
                    .collect();
                g.add_derivation(
                    &format!("m{layer}"),
                    tup![key, d as i64],
                    sources,
                    vec![t],
                    false,
                );
            }
            nodes.push(t);
        }
        layer_nodes.push(nodes);
    }
    g
}

/// The fundamental property: N[X] is universal. Evaluating the polynomial
/// annotation and then mapping leaves through a valuation equals
/// evaluating the target semiring directly.
#[test]
fn polynomial_is_universal() {
    let mut rng = SplitMix64::seed_from_u64(0x90211);
    for case in 0..48 {
        let g = arb_dag(&mut rng);
        let weights: Vec<u8> = (0..3).map(|_| rng.gen_range_i64(1, 10) as u8).collect();
        let poly_vals = evaluate(&g, &Assignment::default_for(SemiringKind::Polynomial)).unwrap();

        // Counting homomorphism (all leaves -> 1).
        let count_vals = evaluate(&g, &Assignment::default_for(SemiringKind::Counting)).unwrap();
        for t in g.tuple_ids() {
            let p: &Polynomial = poly_vals[&t].as_poly().unwrap();
            assert_eq!(
                p.eval_counting(&|_| 1),
                count_vals[&t].as_count().unwrap(),
                "case {case}: counting mismatch"
            );
        }

        // Derivability homomorphism (all leaves -> true).
        let bool_vals = evaluate(&g, &Assignment::default_for(SemiringKind::Derivability)).unwrap();
        for t in g.tuple_ids() {
            let p = poly_vals[&t].as_poly().unwrap();
            assert_eq!(
                p.eval_bool(&|_| true),
                bool_vals[&t].as_bool().unwrap(),
                "case {case}: derivability mismatch"
            );
        }

        // Tropical homomorphism with per-leaf weights.
        let w = weights.clone();
        let weight_of = move |label: &str| {
            // labels are "L0(i)"
            let i = label.as_bytes()[3] - b'0';
            f64::from(w[(i as usize) % 3])
        };
        let wcopy = weight_of.clone();
        let assign = Assignment::default_for(SemiringKind::Weight)
            .with_leaf(move |_, label| Annotation::Weight(wcopy(label)));
        let trop_vals = evaluate(&g, &assign).unwrap();
        for t in g.tuple_ids() {
            let p = poly_vals[&t].as_poly().unwrap();
            let expect = p.eval_tropical(&|v| weight_of(v));
            let got = trop_vals[&t].as_weight().unwrap();
            assert!(
                (expect - got).abs() < 1e-9,
                "case {case}: tropical {expect} vs {got}"
            );
        }

        // Lineage = variables of the polynomial.
        let lin_vals = evaluate(&g, &Assignment::default_for(SemiringKind::Lineage)).unwrap();
        for t in g.tuple_ids() {
            let p = poly_vals[&t].as_poly().unwrap();
            let lineage = lin_vals[&t].as_lineage().unwrap();
            assert_eq!(&p.variables(), lineage, "case {case}: lineage mismatch");
        }
    }
}

/// Exchange invariant: every provenance row decodes to source/target
/// tuples that exist in the public relations.
#[test]
fn provenance_rows_decode_to_existing_tuples() {
    use proql_cdss::topology::{build_system, CdssConfig, Topology};
    let mut rng = SplitMix64::seed_from_u64(0xCD55);
    for case in 0..16 {
        let n_keys = rng.gen_range_usize(1, 12);
        let peers = rng.gen_range_usize(3, 6);
        let cfg = CdssConfig::upstream_data(peers, 2, n_keys);
        let sys = build_system(Topology::Chain, &cfg).unwrap();
        for (rule, spec) in sys.program().rules.iter().zip(sys.specs()) {
            let rows = execute(&sys.db, &Plan::scan(spec.prov_rel.clone())).unwrap();
            for row in &rows.rows {
                for recipe in &spec.atoms {
                    let key = recipe.key_of(row);
                    let table = sys.db.table(&recipe.relation).unwrap();
                    assert!(
                        table.get_by_key(&key).is_some(),
                        "case {case}: dangling provenance for {} in rule {:?}",
                        recipe.relation,
                        rule.name
                    );
                }
            }
        }
    }
}

/// Storage invariant: optimizing a plan never changes its result, and all
/// three executors (batch, row hash-join, row nested-loop) agree on both
/// the optimized and unoptimized plans.
#[test]
fn optimizer_and_executors_preserve_semantics() {
    let mut rng = SplitMix64::seed_from_u64(0x0917);
    for case in 0..32 {
        let mut db = Database::new();
        db.create_table(
            proql_common::Schema::build(
                "T",
                &[
                    ("a", proql_common::ValueType::Int),
                    ("b", proql_common::ValueType::Int),
                ],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..rng.gen_range_usize(0, 40) {
            let a = rng.gen_range_i64(0, 20);
            let b = rng.gen_range_i64(0, 20);
            if seen.insert((a, b)) {
                db.insert("T", tup![a, b]).unwrap();
            }
        }
        let probe = rng.gen_range_i64(0, 20);
        let hi = rng.gen_range_i64(0, 20);
        let plan = Plan::scan("T")
            .join(Plan::scan("T"), vec![0], vec![1])
            .filter(Expr::And(vec![
                Expr::col(0).eq(Expr::lit(probe)),
                Expr::cmp(proql_storage::BinOp::Le, Expr::col(3), Expr::lit(hi)),
            ]));
        let sort = |mut v: Vec<Tuple>| {
            v.sort();
            v
        };
        let plain = sort(execute(&db, &plan).unwrap().rows);
        for optimized in [
            plan.clone(),
            optimize(plan.clone()),
            optimize_with(&db, plan.clone()),
        ] {
            for mode in [ExecMode::Batch, ExecMode::Row, ExecMode::NestedLoop] {
                let got = sort(
                    execute_with(&db, &optimized, mode, Parallelism::Serial)
                        .unwrap()
                        .rows,
                );
                assert_eq!(plain, got, "case {case}: mode {mode:?} diverged");
            }
            // Morsel-parallel batch execution is result-identical too.
            for par in [
                Parallelism::Serial,
                Parallelism::Threads(2),
                Parallelism::Threads(8),
                Parallelism::Auto,
            ] {
                let got = sort(
                    execute_with(&db, &optimized, ExecMode::Batch, par)
                        .unwrap()
                        .rows,
                );
                assert_eq!(plain, got, "case {case}: parallelism {par:?} diverged");
            }
        }
    }
}

/// Tuple round trip: project-concat identities.
#[test]
fn tuple_project_concat_roundtrip() {
    let mut rng = SplitMix64::seed_from_u64(0x7017);
    for _ in 0..64 {
        let vals: Vec<Value> = (0..rng.gen_range_usize(1, 8))
            .map(|_| Value::Int(rng.gen_range_i64(-50, 50)))
            .collect();
        let t = Tuple::new(vals);
        let all: Vec<usize> = (0..t.arity()).collect();
        assert_eq!(t.project(&all), t.clone());
        let empty = Tuple::empty();
        assert_eq!(empty.concat(&t), t.clone());
        assert_eq!(t.concat(&empty), t);
    }
}

/// The level-parallel semiring evaluator is value-identical to the serial
/// bottom-up walk on random DAGs, for every semiring (floats included —
/// the per-tuple fold order is unchanged).
#[test]
fn parallel_semiring_evaluation_matches_serial_on_random_dags() {
    let mut rng = SplitMix64::seed_from_u64(0x9A12A11E1);
    for case in 0..12 {
        let g = arb_dag(&mut rng);
        for kind in KINDS {
            let serial = evaluate(&g, &Assignment::default_for(kind)).unwrap();
            for par in [
                Parallelism::Threads(2),
                Parallelism::Threads(8),
                Parallelism::Auto,
            ] {
                let parallel = evaluate_with(&g, &Assignment::default_for(kind), par).unwrap();
                assert_eq!(serial, parallel, "case {case}: {kind} under {par:?}");
            }
        }
    }
}

/// Deterministic helper used by the DAG strategy tests above.
#[test]
fn dag_strategy_produces_acyclic_graphs() {
    let mut rng = SplitMix64::seed_from_u64(42);
    for _ in 0..16 {
        let g = arb_dag(&mut rng);
        assert!(!g.is_cyclic());
        let vals = evaluate(&g, &Assignment::default_for(SemiringKind::Counting)).unwrap();
        let nonzero = vals
            .values()
            .filter(|v| **v != Annotation::Count(0))
            .count();
        assert!(nonzero > 0);
    }
}
