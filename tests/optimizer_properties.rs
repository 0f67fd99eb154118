//! PRNG-driven property suite for the cost-based optimizer.
//!
//! The contract under test: **no optimizer pass — and no combination of
//! passes — ever changes query results.** Random databases (skewed key
//! distributions, random secondary indexes, NULLs) and random plans
//! (join chains with every key topology the rule compiler emits, filters
//! above and below joins, aggregates) are executed unoptimized as the
//! oracle, then under every pass configuration × executor × parallelism
//! setting; the result multiset and the output schema must match
//! exactly. The sweep also checks that the join-reordering pass actually
//! fires (at least one plan in the run is restructured) so the property
//! is not vacuously true. Wide rounds add chains of up to 12 leaves in
//! left-deep, right-deep and bushy shapes, over `Project(Scan)` views and
//! colliding column names.

use proql_common::rng::SplitMix64;
use proql_common::{tup, Parallelism, Schema, Tuple, Value, ValueType};
use proql_storage::optimize::{
    optimize, optimize_with, optimize_with_config, OptimizerConfig, Pass,
};
use proql_storage::{execute, execute_with, Database, ExecMode, Expr, IndexKind, Plan};

/// Random 2-column int table with skewed second column.
fn random_db(rng: &mut SplitMix64) -> Database {
    let mut db = Database::new();
    for (name, key_range, val_range) in
        [("R", 40i64, 6i64), ("S", 40, 10), ("T", 12, 6), ("U", 6, 4)]
    {
        db.create_table(
            Schema::build(name, &[("a", ValueType::Int), ("b", ValueType::Int)], &[]).unwrap(),
        )
        .unwrap();
        let rows = rng.gen_range_usize(0, 50);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..rows {
            let a = rng.gen_range_i64(0, key_range);
            // Occasional NULLs exercise the join/filter NULL semantics.
            let b = if rng.gen_range_usize(0, 20) == 0 {
                Value::Null
            } else {
                Value::Int(rng.gen_range_i64(0, val_range))
            };
            if seen.insert((a, format!("{b:?}"))) {
                db.table_mut(name)
                    .unwrap()
                    .insert(Tuple::new(vec![Value::Int(a), b]))
                    .unwrap();
            }
        }
        if rng.gen_range_usize(0, 2) == 0 {
            let col = rng.gen_range_usize(0, 2);
            let kind = if rng.gen_range_usize(0, 2) == 0 {
                IndexKind::Hash
            } else {
                IndexKind::BTree
            };
            db.table_mut(name)
                .unwrap()
                .create_index("ix", vec![col], kind)
                .unwrap();
        }
    }
    db
}

/// A random join chain over 2–4 of the tables, with filters sprinkled
/// below and above the joins and an optional aggregate on top.
fn random_plan(rng: &mut SplitMix64) -> Plan {
    let names = ["R", "S", "T", "U"];
    let n = rng.gen_range_usize(2, 5);
    let leaf = |rng: &mut SplitMix64, i: usize| -> Plan {
        let mut p = Plan::scan(names[i % names.len()]);
        if rng.gen_range_usize(0, 3) == 0 {
            let col = rng.gen_range_usize(0, 2);
            let lit = rng.gen_range_i64(0, 8);
            p = p.filter(Expr::col(col).eq(Expr::lit(lit)));
        }
        p
    };
    let mut plan = leaf(rng, 0);
    let mut arity = 2;
    for i in 1..n {
        let next = leaf(rng, i);
        // Join on a random accumulated column vs a random leaf column;
        // sometimes keyless (cross product), sometimes two keys.
        let keys = rng.gen_range_usize(0, 5);
        let (acc_keys, leaf_keys) = match keys {
            0 => (vec![], vec![]),
            4 => (
                vec![rng.gen_range_usize(0, arity), rng.gen_range_usize(0, arity)],
                vec![0, 1],
            ),
            _ => (
                vec![rng.gen_range_usize(0, arity)],
                vec![rng.gen_range_usize(0, 2)],
            ),
        };
        // Grow left-deep or right-deep: right-deep/bushy shapes exercise
        // the reorder pass's flatten + bail-out rebuild paths, where
        // join-name disambiguation is order-sensitive.
        if rng.gen_range_usize(0, 3) == 0 {
            plan = next.join(plan, leaf_keys, acc_keys);
        } else {
            plan = plan.join(next, acc_keys, leaf_keys);
        }
        arity += 2;
    }
    if rng.gen_range_usize(0, 3) == 0 {
        let col = rng.gen_range_usize(0, arity);
        let op = match rng.gen_range_usize(0, 3) {
            0 => proql_storage::BinOp::Le,
            1 => proql_storage::BinOp::Gt,
            _ => proql_storage::BinOp::Ne,
        };
        plan = plan.filter(Expr::cmp(
            op,
            Expr::col(col),
            Expr::lit(rng.gen_range_i64(0, 6)),
        ));
    }
    if rng.gen_range_usize(0, 4) == 0 {
        plan = Plan::Aggregate {
            input: Box::new(plan),
            group_by: vec![rng.gen_range_usize(0, arity)],
            aggs: vec![
                proql_storage::Aggregate::new(proql_storage::AggFunc::Count, "n"),
                proql_storage::Aggregate::new(
                    proql_storage::AggFunc::Sum(rng.gen_range_usize(0, arity)),
                    "s",
                ),
            ],
            having: None,
        };
    }
    plan
}

/// Check `plan` against its unoptimized oracle under every pass
/// configuration × executor × parallelism setting; returns how many of
/// the optimized variants were restructured.
fn check_every_config(db: &Database, plan: &Plan, round: usize) -> usize {
    let configs = [
        OptimizerConfig::default(),
        OptimizerConfig::without(Pass::ReorderJoins),
        OptimizerConfig::without(Pass::PushFilters),
        OptimizerConfig::without(Pass::IndexScans),
        OptimizerConfig::without(Pass::PickBuildSides),
        OptimizerConfig {
            passes: vec![Pass::ReorderJoins],
        },
        OptimizerConfig {
            passes: vec![Pass::ReorderJoins, Pass::ReorderJoins],
        },
    ];
    // Oracle: the unoptimized plan under the row executor.
    let want = match execute(db, plan) {
        Ok(rel) => rel,
        // Randomized plans may be malformed (e.g. key vs arity);
        // every optimized variant must then fail too, not panic.
        Err(_) => {
            for cfg in &configs {
                let opt = optimize_with_config(db, plan.clone(), cfg);
                assert!(
                    execute(db, &opt).is_err(),
                    "round {round}: optimizer resurrected a failing plan"
                );
            }
            return 0;
        }
    };
    let catalog_free = optimize(plan.clone());
    assert_eq!(
        execute(db, &catalog_free).unwrap().sorted_rows(),
        want.sorted_rows(),
        "round {round}: catalog-free optimize changed results"
    );
    let mut reordered_plans = 0;
    for cfg in &configs {
        let opt = optimize_with_config(db, plan.clone(), cfg);
        if opt.count_joins() > 0 && format!("{opt:?}") != format!("{:?}", plan) {
            reordered_plans += 1;
        }
        for mode in [ExecMode::Batch, ExecMode::Row, ExecMode::NestedLoop] {
            for par in [Parallelism::Serial, Parallelism::Threads(4)] {
                let got = execute_with(db, &opt, mode, par).unwrap_or_else(|e| {
                    panic!("round {round} cfg {cfg:?} mode {mode:?} par {par:?}: {e}")
                });
                assert_eq!(
                    got.names, want.names,
                    "round {round} cfg {cfg:?} mode {mode:?}: schema changed"
                );
                assert_eq!(
                    got.sorted_rows(),
                    want.sorted_rows(),
                    "round {round} cfg {cfg:?} mode {mode:?} par {par:?}: rows changed"
                );
            }
        }
    }
    reordered_plans
}

#[test]
fn no_pass_configuration_ever_changes_results() {
    let mut rng = SplitMix64::seed_from_u64(0x0071_817E_5EED);
    let mut reordered_plans = 0usize;
    for round in 0..40 {
        let db = random_db(&mut rng);
        let plan = random_plan(&mut rng);
        reordered_plans += check_every_config(&db, &plan, round);
    }
    assert!(
        reordered_plans > 0,
        "the sweep never restructured a plan — the property is vacuous"
    );
}

/// Base tables of the wide rounds. Every relation names its columns
/// `k, v`, so any join of two collides and the executors disambiguate
/// (`k_1`, `v_1`, …) — the naming a reordering projection must restore.
const WIDE_TABLES: [&str; 4] = ["A", "B", "C", "D"];

/// `Project(Scan)` views over the wide tables, like the superfluous
/// provenance relations unfolding emits: `(name, base table, arity)`.
/// Column 0 stays the base table's unique `k`.
const WIDE_VIEWS: [(&str, &str, usize); 2] = [("VA", "A", 2), ("VB", "B", 1)];

/// Tables with a unique key column `k` (0..n, n random) and a skewed
/// `v`, plus the [`WIDE_VIEWS`].
fn wide_db(rng: &mut SplitMix64) -> Database {
    let mut db = Database::new();
    let kv = [("k", ValueType::Int), ("v", ValueType::Int)];
    for name in WIDE_TABLES {
        db.create_table(Schema::build(name, &kv, &[0]).unwrap())
            .unwrap();
        let rows = rng.gen_range_i64(5, 30);
        let skew = rng.gen_range_i64(1, 8);
        for k in 0..rows {
            db.insert(name, tup![k, rng.gen_range_i64(0, skew)])
                .unwrap();
        }
        if rng.gen_range_usize(0, 2) == 0 {
            db.table_mut(name)
                .unwrap()
                .create_index("ix", vec![1], IndexKind::Hash)
                .unwrap();
        }
    }
    for (view, table, arity) in WIDE_VIEWS {
        let exprs = (0..arity).map(Expr::col).collect();
        let names: Vec<String> = kv[..arity].iter().map(|(n, _)| n.to_string()).collect();
        let schema = Schema::build(view, &kv[..arity], &[]).unwrap();
        db.create_view(view, Plan::scan(table).project_named(exprs, names), schema)
            .unwrap();
    }
    db
}

/// Join-tree shapes of the wide rounds.
#[derive(Debug, Clone, Copy)]
enum Shape {
    LeftDeep,
    RightDeep,
    Bushy,
}

/// A subplan of the wide rounds: the plan, its arity and the positions
/// of its leaves' unique `k` columns.
type Sub = (Plan, usize, Vec<usize>);

/// A random inner-join tree over `leaves` in `shape`. Each join keys a
/// column of its left input — mostly some leaf's `k` — to column 0 of its
/// right input, which stays unique there (by induction from the unique
/// `k` leaves), so no intermediate outgrows its left input; a second key
/// pair sometimes filters further.
fn join_tree(rng: &mut SplitMix64, shape: Shape, leaves: &mut Vec<Sub>) -> Sub {
    if leaves.len() == 1 {
        return leaves.pop().unwrap();
    }
    let split = match shape {
        Shape::LeftDeep => leaves.len() - 1,
        Shape::RightDeep => 1,
        Shape::Bushy => rng.gen_range_usize(1, leaves.len()),
    };
    let mut right_leaves = leaves.split_off(split);
    let (left, la, mut ks) = join_tree(rng, shape, leaves);
    let (right, ra, right_ks) = join_tree(rng, shape, &mut right_leaves);
    let mut left_keys = vec![if rng.gen_range_usize(0, 4) == 0 {
        rng.gen_range_usize(0, la)
    } else {
        ks[rng.gen_range_usize(0, ks.len())]
    }];
    let mut right_keys = vec![0];
    if rng.gen_range_usize(0, 5) == 0 {
        left_keys.push(rng.gen_range_usize(0, la));
        right_keys.push(rng.gen_range_usize(0, ra));
    }
    ks.extend(right_ks.into_iter().map(|k| la + k));
    (left.join(right, left_keys, right_keys), la + ra, ks)
}

/// A chain of 3–12 leaves in a random shape, at least one of them a
/// view, with filters sprinkled on leaves and sometimes on top.
fn wide_plan(rng: &mut SplitMix64) -> (Plan, Shape) {
    let n = rng.gen_range_usize(3, 13);
    let view_at = rng.gen_range_usize(0, n);
    let le = |rng: &mut SplitMix64, arity: usize| {
        Expr::cmp(
            proql_storage::BinOp::Le,
            Expr::col(rng.gen_range_usize(0, arity)),
            Expr::lit(rng.gen_range_i64(2, 30)),
        )
    };
    let mut leaves: Vec<Sub> = (0..n)
        .map(|i| {
            let (mut p, arity) = if i == view_at || rng.gen_range_usize(0, 4) == 0 {
                let (view, _, arity) = WIDE_VIEWS[rng.gen_range_usize(0, WIDE_VIEWS.len())];
                (Plan::scan(view), arity)
            } else {
                (Plan::scan(WIDE_TABLES[rng.gen_range_usize(0, 4)]), 2)
            };
            // Equality filters become index lookups, on views too.
            match rng.gen_range_usize(0, 8) {
                0 => p = p.filter(le(rng, arity)),
                1 if arity == 2 => p = p.filter(Expr::col(1).eq(Expr::lit(0))),
                _ => {}
            }
            (p, arity, vec![0])
        })
        .collect();
    let shape = [Shape::LeftDeep, Shape::RightDeep, Shape::Bushy][rng.gen_range_usize(0, 3)];
    let (mut plan, arity, _) = join_tree(rng, shape, &mut leaves);
    if rng.gen_range_usize(0, 3) == 0 {
        plan = plan.filter(le(rng, arity));
    }
    (plan, shape)
}

/// The relations `plan` reads, left to right.
fn scan_order(plan: &Plan, out: &mut Vec<String>) {
    match plan {
        Plan::Scan { table } | Plan::IndexLookup { table, .. } => out.push(table.clone()),
        Plan::Join { left, right, .. } => {
            scan_order(left, out);
            scan_order(right, out);
        }
        Plan::Filter { input, .. } | Plan::Project { input, .. } => scan_order(input, out),
        other => panic!("wide plans hold no {other:?}"),
    }
}

/// Wide rounds: chains of up to 12 leaves, left-deep, right-deep and
/// bushy, over view leaves and colliding column names — the shapes where
/// the reorder pass derives names lazily (left-deep) or up front
/// (right-deep/bushy) and memoizes its greedy inputs per chain.
#[test]
fn wide_chains_with_views_and_colliding_names_keep_results() {
    let mut rng = SplitMix64::seed_from_u64(0x0071_817E_3A1D);
    let reorder_only = OptimizerConfig {
        passes: vec![Pass::ReorderJoins],
    };
    // Plans per shape whose leaves the greedy actually put in a new order.
    let mut reordered = [0usize; 3];
    for round in 0..48 {
        let db = wide_db(&mut rng);
        let (plan, shape) = wide_plan(&mut rng);
        check_every_config(&db, &plan, round);
        let (mut before, mut after) = (Vec::new(), Vec::new());
        scan_order(&plan, &mut before);
        scan_order(&optimize_with_config(&db, plan, &reorder_only), &mut after);
        if before != after {
            reordered[shape as usize] += 1;
        }
    }
    assert!(
        reordered.iter().all(|&n| n > 0),
        "some shape was never reordered ({reordered:?}) — the property is vacuous"
    );
}

#[test]
fn full_pipeline_equals_unoptimized_on_fk_shaped_chains() {
    // Deterministic FK-shaped 3-way chains (the shape rule compilation
    // emits) across every join-order choice the greedy can make.
    let mut db = Database::new();
    for name in ["P1", "P2", "P3"] {
        db.create_table(
            Schema::build(name, &[("x", ValueType::Int), ("y", ValueType::Int)], &[]).unwrap(),
        )
        .unwrap();
    }
    for i in 0..30 {
        db.insert("P1", tup![i, i % 5]).unwrap();
        db.insert("P2", tup![i % 5, i % 3]).unwrap();
    }
    for i in 0..3 {
        db.insert("P3", tup![i, i]).unwrap();
    }
    for (f1, f2) in [(0, 0), (2, 1), (4, 2)] {
        let plan = Plan::scan("P1")
            .join(Plan::scan("P2"), vec![1], vec![0])
            .join(
                Plan::scan("P3").filter(Expr::col(0).eq(Expr::lit(f1))),
                vec![3],
                vec![0],
            )
            .filter(Expr::cmp(
                proql_storage::BinOp::Ge,
                Expr::col(0),
                Expr::lit(f2),
            ));
        let want = execute(&db, &plan).unwrap();
        let opt = optimize_with(&db, plan);
        for mode in [ExecMode::Batch, ExecMode::Row, ExecMode::NestedLoop] {
            for par in [Parallelism::Serial, Parallelism::Threads(4)] {
                let got = execute_with(&db, &opt, mode, par).unwrap();
                assert_eq!(got.names, want.names);
                assert_eq!(got.sorted_rows(), want.sorted_rows());
            }
        }
    }
}
