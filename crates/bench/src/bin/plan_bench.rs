//! `plan_bench` — the cost-based optimizer's two headline wins.
//!
//! **Part 1 — join reordering.** A skewed 3-way provenance-shaped join
//! (`P_a ⋈ P_b ⋈ P_c`, with `P_c` filtered to a single row) where the
//! written join order computes a quadratic `P_a ⋈ P_b` intermediate
//! first. The cost-based reordering pass starts from the filtered leaf
//! instead. Both plans are executed (results asserted identical) and the
//! speedup is gated by `PROQL_MIN_REORDER_SPEEDUP`.
//!
//! **Part 2 — prepared plans.** The CDSS chain target query served
//! through [`ServiceCore`] under forced result-cache misses (every
//! iteration invalidates the result cache, as a write-heavy workload
//! would): with the prepared-plan cache, only execution runs per
//! request; with the plan cache disabled, every request re-runs
//! parse → translate → optimize. Digests are asserted identical and the
//! plan-cache hit rate is reported (and must be nonzero).
//!
//! `PROQL_JSON=1` emits one machine-readable line.

use proql::engine::EngineOptions;
use proql_bench::{banner, json_output, scaled};
use proql_cdss::topology::{build_system, target_query, CdssConfig, Topology};
use proql_common::{tup, Schema, ValueType};
use proql_service::proto::result_digest;
use proql_service::ServiceCore;
use proql_storage::optimize::{optimize_with, optimize_with_config, OptimizerConfig, Pass};
use proql_storage::{execute_batch, AggFunc, Aggregate, Database, Expr, Parallelism, Plan};
use std::time::Instant;

fn main() {
    banner(
        "plan_bench: cost-based join reordering + prepared-plan reuse",
        "beyond the paper; ROADMAP optimizer trajectory",
    );

    // ---- Part 1: skewed 3-way join, reordered vs written order. ----
    let n = scaled(3_000, 20_000) as i64;
    let groups = 15;
    let zs = 10;
    let mut db = Database::new();
    db.create_table(
        Schema::build("P_a", &[("x", ValueType::Int), ("g", ValueType::Int)], &[0]).unwrap(),
    )
    .unwrap();
    db.create_table(
        Schema::build(
            "P_b",
            &[
                ("g", ValueType::Int),
                ("z", ValueType::Int),
                ("id", ValueType::Int),
            ],
            &[2],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        Schema::build("P_c", &[("z", ValueType::Int), ("w", ValueType::Int)], &[0]).unwrap(),
    )
    .unwrap();
    for i in 0..n {
        db.insert("P_a", tup![i, i % groups]).unwrap();
        db.insert("P_b", tup![i % groups, i % zs, i]).unwrap();
    }
    for z in 0..zs {
        db.insert("P_c", tup![z, z * 7]).unwrap();
    }
    // Written order: (P_a ⋈ P_b) ⋈ σ(P_c) — quadratic first join.
    let plan = Plan::Aggregate {
        input: Box::new(
            Plan::scan("P_a")
                .join(Plan::scan("P_b"), vec![1], vec![0])
                .join(
                    Plan::scan("P_c").filter(Expr::col(0).eq(Expr::lit(3))),
                    vec![3],
                    vec![0],
                ),
        ),
        group_by: vec![],
        aggs: vec![
            Aggregate::new(AggFunc::Count, "n"),
            Aggregate::new(AggFunc::Sum(0), "sx"),
        ],
        having: None,
    };
    let with_reorder = optimize_with(&db, plan.clone());
    let without_reorder =
        optimize_with_config(&db, plan, &OptimizerConfig::without(Pass::ReorderJoins));

    let time_plan = |p: &Plan| -> (f64, Vec<proql_common::Tuple>) {
        let mut best = f64::INFINITY;
        let mut rows = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            let batch = execute_batch(&db, p, Parallelism::Serial, None).expect("plan executes");
            best = best.min(t0.elapsed().as_secs_f64());
            rows = batch.to_rows();
        }
        (best, rows)
    };
    let (reorder_s, reorder_rows) = time_plan(&with_reorder);
    let (noreorder_s, noreorder_rows) = time_plan(&without_reorder);
    assert_eq!(
        reorder_rows, noreorder_rows,
        "join reordering must not change results"
    );
    let reorder_speedup = noreorder_s / reorder_s.max(1e-9);

    println!(
        "{:>14} {:>14} {:>10}",
        "written (s)", "reordered (s)", "speedup"
    );
    println!("{noreorder_s:>14.4} {reorder_s:>14.4} {reorder_speedup:>9.1}x");

    // ---- Part 2: prepared-plan reuse under forced result misses. ----
    let peers = scaled(4, 8);
    let base = scaled(120, 1500);
    let cfg = CdssConfig::new(peers, vec![peers - 1], base);
    let iters = scaled(30, 200);
    let q = target_query();

    let run = |plan_capacity: usize| -> (f64, u64, f64) {
        let sys = build_system(Topology::Chain, &cfg).expect("topology builds");
        let core = ServiceCore::with_capacities(sys, EngineOptions::default(), 1024, plan_capacity);
        let mut digest = 0u64;
        let t0 = Instant::now();
        for _ in 0..iters {
            // A write-heavy workload keeps evicting results; model that
            // by clearing the result cache so only plans can be reused.
            core.invalidate();
            let resp = core.query(q).expect("query runs");
            digest = result_digest(&resp.output);
        }
        let qps = iters as f64 / t0.elapsed().as_secs_f64();
        (qps, digest, core.stats().plans.hit_rate())
    };
    let (unprepared_qps, unprepared_digest, _) = run(0);
    let (prepared_qps, prepared_digest, plan_hit_rate) = run(256);
    assert_eq!(
        prepared_digest, unprepared_digest,
        "prepared execution must be bit-identical to unprepared"
    );
    assert!(
        plan_hit_rate > 0.0,
        "plan cache must report a nonzero hit rate"
    );
    let prepared_speedup = prepared_qps / unprepared_qps.max(1e-9);

    println!();
    println!(
        "{:>16} {:>16} {:>10} {:>14}",
        "unprepared qps", "prepared qps", "speedup", "plan hit rate"
    );
    println!(
        "{unprepared_qps:>16.1} {prepared_qps:>16.1} {prepared_speedup:>9.2}x {plan_hit_rate:>14.3}"
    );

    if json_output() {
        println!(
            "{{\"fig\": \"plan_bench\", \"rows\": {n}, \"noreorder_s\": {noreorder_s:.6}, \
             \"reorder_s\": {reorder_s:.6}, \"reorder_speedup\": {reorder_speedup:.3}, \
             \"unprepared_qps\": {unprepared_qps:.2}, \"prepared_qps\": {prepared_qps:.2}, \
             \"prepared_speedup\": {prepared_speedup:.3}, \
             \"plan_cache_hit_rate\": {plan_hit_rate:.6}}}"
        );
    }

    if let Ok(min) = std::env::var("PROQL_MIN_REORDER_SPEEDUP") {
        let min: f64 = min.parse().expect("PROQL_MIN_REORDER_SPEEDUP parses");
        assert!(
            reorder_speedup >= min,
            "join-reorder speedup {reorder_speedup:.2}x below the \
             PROQL_MIN_REORDER_SPEEDUP={min} gate"
        );
        println!("   reorder gate passed: {reorder_speedup:.2}x >= {min}x");
    }
}
