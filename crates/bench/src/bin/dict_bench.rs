//! `dict_bench` — dictionary-encoded string columns on the batch hot path.
//!
//! Three workloads where interned `u32` codes replace per-row string work:
//!
//! * **selective filter** — an equality predicate over a string column
//!   whose values share a long common prefix (the worst case for string
//!   compares, the common case for provenance relation/mapping names):
//!   dictionary execution compares codes, one dictionary lookup total.
//! * **string-key join** — a hash join on a near-unique string key:
//!   dictionary execution hashes 4-byte codes and bridges the two tables'
//!   dictionaries with one precomputed translation table instead of
//!   hashing every string on both sides.
//! * **snapshot transfer** — the replication snapshot wire format ships
//!   each table's distinct strings once and 4-byte code references per
//!   row; reported as encoded bytes vs the inline-string layout.
//!
//! Results are asserted bit-identical between the two encodings (same
//! rows, same order). `PROQL_JSON=1` emits one machine-readable line and
//! `PROQL_MIN_DICT_SPEEDUP` gates the combined filter+join speedup.

use proql_bench::{banner, json_output, scaled};
use proql_common::{tup, Schema, Tuple, Value, ValueType};
use proql_provgraph::encode::wire::encode_snapshot_parts;
use proql_storage::optimize::optimize_with;
use proql_storage::{execute_batch, Database, Expr, Parallelism, Plan};
use std::time::Instant;

/// Strings in the shape provenance names take: a long shared prefix plus a
/// short distinguishing tail.
fn tag(i: usize) -> String {
    format!(
        "provenance-relation-shared-prefix-{}-{i:06}",
        "padding-".repeat(12)
    )
}

fn build(dict: bool, n: usize, m: usize, pool: usize) -> Database {
    let mut db = Database::new();
    db.set_dict_encoding(dict);
    db.create_table(
        Schema::build(
            "R",
            &[
                ("id", ValueType::Int),
                ("tag", ValueType::Str),
                ("key", ValueType::Str),
                ("w", ValueType::Int),
            ],
            &[0],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        Schema::build(
            "Q",
            &[
                ("qid", ValueType::Int),
                ("key", ValueType::Str),
                ("grp", ValueType::Int),
            ],
            &[0],
        )
        .unwrap(),
    )
    .unwrap();
    // `tag` repeats heavily (pool-sized dictionary); `key` repeats 8x, so
    // the join's dictionary translation amortizes over the repeats.
    for i in 0..n {
        db.insert(
            "R",
            tup![
                i as i64,
                tag((i * 31) % pool),
                tag(1_000_000 + i % (n / 8)),
                (i % 97) as i64
            ],
        )
        .unwrap();
    }
    // Every Q key hits 8 R rows, so the join output is 8*m rows.
    for j in 0..m {
        db.insert("Q", tup![j as i64, tag(1_000_000 + j), (j % 7) as i64])
            .unwrap();
    }
    db
}

/// Best-of-5 wall time plus the result rows (for identity assertions).
fn time_plan(db: &Database, p: &Plan) -> (f64, Vec<Tuple>) {
    let mut best = f64::INFINITY;
    let mut rows = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let batch = execute_batch(db, p, Parallelism::Serial, None).expect("plan executes");
        best = best.min(t0.elapsed().as_secs_f64());
        rows = batch.to_rows();
    }
    (best, rows)
}

/// Exact byte size of the pre-v2 inline-string snapshot layout, computed
/// from the same tables the v2 encoder sees.
fn inline_snapshot_bytes(tables: &[(String, Vec<Tuple>)]) -> usize {
    let value_size = |v: &Value| match v {
        Value::Null => 1,
        Value::Bool(_) => 2,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Str(s) => 1 + 4 + s.len(),
    };
    let mut size = 1 + 8 + 8 + 8 + 4; // header + table count
    for (name, rows) in tables {
        size += 4 + name.len() + 4;
        for row in rows {
            size += 4 + row.values().iter().map(value_size).sum::<usize>();
        }
    }
    size
}

fn main() {
    banner(
        "dict_bench: dictionary-encoded columns on the batch hot path",
        "beyond the paper; ROADMAP columnar-encoding trajectory",
    );

    let n = scaled(40_000, 400_000);
    let m = n / 8;
    let pool = 64;
    let db_on = build(true, n, m, pool);
    let db_off = build(false, n, m, pool);

    // ---- Selective string filter (1/pool of the rows survive). ----
    // Executed unoptimized on purpose: the optimizer's index-conversion
    // pass would rewrite this `Filter(Scan)` into an `IndexLookup` (a
    // row-path filtered scan), and this workload measures the *batch*
    // filter — code-keyed comparison over the dictionary column.
    let filter = Plan::scan("R").filter(Expr::col(1).eq(Expr::lit(tag(7))));
    let (filter_on_s, rows_on) = time_plan(&db_on, &filter);
    let (filter_off_s, rows_off) = time_plan(&db_off, &filter);
    assert_eq!(rows_on, rows_off, "filter results must be bit-identical");
    assert!(!rows_on.is_empty(), "filter must select something");
    let filter_speedup = filter_off_s / filter_on_s.max(1e-9);

    // ---- String-key hash join (near-unique keys, ~m output rows). ----
    let join = Plan::scan("R").join(Plan::scan("Q"), vec![2], vec![1]);
    let join_on = optimize_with(&db_on, join.clone());
    let join_off = optimize_with(&db_off, join);
    let (join_on_s, jrows_on) = time_plan(&db_on, &join_on);
    let (join_off_s, jrows_off) = time_plan(&db_off, &join_off);
    assert_eq!(jrows_on, jrows_off, "join results must be bit-identical");
    assert_eq!(jrows_on.len(), 8 * m, "every Q key matches 8 R rows");
    let join_speedup = join_off_s / join_on_s.max(1e-9);

    let speedup = (filter_off_s + join_off_s) / (filter_on_s + join_on_s).max(1e-9);

    println!(
        "{:>10} {:>14} {:>14} {:>10}",
        "workload", "plain (s)", "dict (s)", "speedup"
    );
    println!(
        "{:>10} {filter_off_s:>14.4} {filter_on_s:>14.4} {filter_speedup:>9.1}x",
        "filter"
    );
    println!(
        "{:>10} {join_off_s:>14.4} {join_on_s:>14.4} {join_speedup:>9.1}x",
        "join"
    );
    println!(
        "{:>10} {:>14.4} {:>14.4} {speedup:>9.1}x",
        "combined",
        filter_off_s + join_off_s,
        filter_on_s + join_on_s
    );

    // ---- Snapshot transfer bytes: v2 dictionary wire vs inline. ----
    let tables: Vec<(String, Vec<Tuple>)> = vec![
        ("R".into(), db_on.table("R").unwrap().scan()),
        ("Q".into(), db_on.table("Q").unwrap().scan()),
    ];
    let wire_bytes = encode_snapshot_parts(1, 0, 0, &tables).len();
    let inline_bytes = inline_snapshot_bytes(&tables);
    assert!(
        wire_bytes < inline_bytes,
        "dictionary snapshot ({wire_bytes} B) must beat inline ({inline_bytes} B)"
    );
    let byte_ratio = inline_bytes as f64 / wire_bytes as f64;
    println!();
    println!(
        "snapshot transfer: {wire_bytes} B dictionary-encoded vs {inline_bytes} B inline \
         ({byte_ratio:.2}x smaller)"
    );

    if json_output() {
        println!(
            "{{\"fig\": \"dict_bench\", \"rows\": {n}, \"filter_plain_s\": {filter_off_s:.6}, \
             \"filter_dict_s\": {filter_on_s:.6}, \"filter_speedup\": {filter_speedup:.3}, \
             \"join_plain_s\": {join_off_s:.6}, \"join_dict_s\": {join_on_s:.6}, \
             \"join_speedup\": {join_speedup:.3}, \"speedup\": {speedup:.3}, \
             \"snapshot_wire_bytes\": {wire_bytes}, \"snapshot_inline_bytes\": {inline_bytes}, \
             \"snapshot_byte_ratio\": {byte_ratio:.3}}}"
        );
    }

    if let Ok(min) = std::env::var("PROQL_MIN_DICT_SPEEDUP") {
        let min: f64 = min.parse().expect("PROQL_MIN_DICT_SPEEDUP parses");
        assert!(
            speedup >= min,
            "dictionary speedup {speedup:.2}x below the PROQL_MIN_DICT_SPEEDUP={min} gate"
        );
        println!("   dict gate passed: {speedup:.2}x >= {min}x");
    }
}
