//! Render plans as SQL-ish text.
//!
//! The paper's prototype emits actual SQL for DB2; we execute plans directly,
//! but this renderer reproduces the textual form for debugging, tests, and
//! the `EXPLAIN` output of the examples. It also exposes the paper's
//! scalability limit ("the resulting SQL queries were too large for DB2") as
//! a measurable artifact: generated-SQL length is reported by the benches.

use crate::expr::Expr;
use crate::plan::{JoinType, Plan};
use std::fmt::Write;

/// Render a plan as a SQL-like string (single line per block).
pub fn to_sql(plan: &Plan) -> String {
    let mut ctx = Ctx { next_alias: 0 };
    ctx.render(plan)
}

struct Ctx {
    next_alias: usize,
}

impl Ctx {
    fn alias(&mut self) -> String {
        let a = format!("t{}", self.next_alias);
        self.next_alias += 1;
        a
    }

    fn render(&mut self, plan: &Plan) -> String {
        match plan {
            Plan::Scan { table } => format!("SELECT * FROM {table}"),
            Plan::Values { rows, .. } => {
                let mut s = String::from("VALUES ");
                for (i, r) in rows.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    let _ = write!(s, "{r}");
                }
                s
            }
            Plan::Filter { input, predicate } => {
                let inner = self.render(input);
                let a = self.alias();
                format!("SELECT * FROM ({inner}) {a} WHERE {predicate}")
            }
            Plan::Project {
                input,
                exprs,
                names,
            } => {
                let inner = self.render(input);
                let a = self.alias();
                let cols = exprs
                    .iter()
                    .zip(names)
                    .map(|(e, n)| format!("{e} AS {n}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("SELECT {cols} FROM ({inner}) {a}")
            }
            Plan::Join {
                left,
                right,
                join_type,
                left_keys,
                right_keys,
                ..
            } => {
                let l = self.render(left);
                let r = self.render(right);
                let (la, ra) = (self.alias(), self.alias());
                let kind = match join_type {
                    JoinType::Inner => "JOIN",
                    JoinType::LeftOuter => "LEFT OUTER JOIN",
                    JoinType::RightOuter => "RIGHT OUTER JOIN",
                    JoinType::FullOuter => "FULL OUTER JOIN",
                };
                let on = left_keys
                    .iter()
                    .zip(right_keys)
                    .map(|(lk, rk)| format!("{la}.c{lk} = {ra}.c{rk}"))
                    .collect::<Vec<_>>()
                    .join(" AND ");
                let on = if on.is_empty() {
                    "TRUE".to_string()
                } else {
                    on
                };
                format!("SELECT * FROM ({l}) {la} {kind} ({r}) {ra} ON {on}")
            }
            Plan::Union { inputs, distinct } => {
                let sep = if *distinct { " UNION " } else { " UNION ALL " };
                inputs
                    .iter()
                    .map(|p| format!("({})", self.render(p)))
                    .collect::<Vec<_>>()
                    .join(sep)
            }
            Plan::Distinct { input } => {
                let inner = self.render(input);
                let a = self.alias();
                format!("SELECT DISTINCT * FROM ({inner}) {a}")
            }
            Plan::Aggregate {
                input,
                group_by,
                aggs,
                having,
            } => {
                let inner = self.render(input);
                let a = self.alias();
                let mut cols: Vec<String> = group_by.iter().map(|c| format!("c{c}")).collect();
                for agg in aggs {
                    let arg = agg
                        .func
                        .input_column()
                        .map(|c| format!("c{c}"))
                        .unwrap_or_else(|| "*".into());
                    cols.push(format!("{}({arg}) AS {}", agg.func.sql_name(), agg.name));
                }
                let mut s = format!("SELECT {} FROM ({inner}) {a}", cols.join(", "));
                if !group_by.is_empty() {
                    let _ = write!(
                        s,
                        " GROUP BY {}",
                        group_by
                            .iter()
                            .map(|c| format!("c{c}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                }
                if let Some(h) = having {
                    let _ = write!(s, " HAVING {}", render_having(h));
                }
                s
            }
            Plan::Sort { input, by } => {
                let inner = self.render(input);
                let a = self.alias();
                format!(
                    "SELECT * FROM ({inner}) {a} ORDER BY {}",
                    by.iter()
                        .map(|c| format!("c{c}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            }
            Plan::Limit { input, n } => {
                let inner = self.render(input);
                format!("{inner} FETCH FIRST {n} ROWS ONLY")
            }
            Plan::IndexLookup {
                table,
                columns,
                key,
                residual,
            } => {
                let mut conds: Vec<String> = columns
                    .iter()
                    .zip(key)
                    .map(|(c, v)| format!("c{c} = {v}"))
                    .collect();
                if let Some(r) = residual {
                    conds.push(r.to_string());
                }
                format!(
                    "SELECT * FROM {table} /* INDEX */ WHERE {}",
                    conds.join(" AND ")
                )
            }
        }
    }
}

fn render_having(h: &Expr) -> String {
    h.to_string()
}

/// Length in bytes of the SQL the plan would produce — the paper's proxy for
/// "query too large for the DBMS" (§6.3).
pub fn sql_len(plan: &Plan) -> usize {
    to_sql(plan).len()
}

/// Render a plan as an indented operator tree, one node per line, with the
/// cost-based optimizer's estimated output rows per operator — the body of
/// the ProQL `EXPLAIN` output.
///
/// `stats` are the actuals of a profiled
/// [`execute_batch`](crate::batch_exec::execute_batch) of the same plan,
/// for `EXPLAIN ANALYZE`: each operator line with a stat also carries its
/// actual rows and inclusive wall time. Lines without one (all of them
/// when `stats` is empty, or an operator short-circuited by an error)
/// render as estimates only.
pub fn explain_tree(
    db: &crate::database::Database,
    plan: &Plan,
    stats: &[crate::batch_exec::OpStat],
) -> String {
    let mut out = String::new();
    let mut idx = 0usize;
    render_node(db, plan, 0, stats, &mut idx, &mut out);
    out
}

/// One-line operator label of [`explain_tree`].
fn node_label(plan: &Plan) -> String {
    match plan {
        Plan::Scan { table } => format!("Scan {table}"),
        Plan::Values { rows, .. } => format!("Values ({} rows)", rows.len()),
        Plan::Filter { predicate, .. } => format!("Filter {predicate}"),
        Plan::Project { exprs, .. } => format!("Project [{} exprs]", exprs.len()),
        Plan::Join {
            join_type,
            left_keys,
            right_keys,
            build,
            ..
        } => {
            let on = left_keys
                .iter()
                .zip(right_keys)
                .map(|(l, r)| format!("l{l}=r{r}"))
                .collect::<Vec<_>>()
                .join(",");
            format!("{join_type:?}Join on [{on}] build={build:?}")
        }
        Plan::Union { inputs, distinct } => format!(
            "Union{} ({} inputs)",
            if *distinct { " DISTINCT" } else { " ALL" },
            inputs.len()
        ),
        Plan::Distinct { .. } => "Distinct".to_string(),
        Plan::Aggregate { group_by, aggs, .. } => format!(
            "Aggregate group_by={group_by:?} aggs=[{}]",
            aggs.iter()
                .map(|a| format!("{}({:?})", a.func.sql_name(), a.func.input_column()))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Plan::Sort { by, .. } => format!("Sort by {by:?}"),
        Plan::Limit { n, .. } => format!("Limit {n}"),
        Plan::IndexLookup {
            table,
            columns,
            key,
            residual,
        } => {
            let binds = columns
                .iter()
                .zip(key)
                .map(|(c, v)| format!("c{c}={v}"))
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "IndexLookup {table} [{binds}]{}",
                if residual.is_some() { " +residual" } else { "" }
            )
        }
    }
}

/// Visit the children the plan renderer descends into, in render order
/// (single input; Join: left then right; Union: inputs in order; leaves
/// and view bodies: none). The profiled executor reserves stat slots in
/// exactly this pre-order, which is what lets `stats[i]` annotate line
/// `i`.
fn for_each_rendered_child<'p>(plan: &'p Plan, mut f: impl FnMut(&'p Plan)) {
    match plan {
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Distinct { input }
        | Plan::Aggregate { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => f(input),
        Plan::Join { left, right, .. } => {
            f(left);
            f(right);
        }
        Plan::Union { inputs, .. } => {
            for p in inputs {
                f(p);
            }
        }
        Plan::Scan { .. } | Plan::Values { .. } | Plan::IndexLookup { .. } => {}
    }
}

/// Render `plan`'s line and then its subtree one level deeper; `idx` is
/// `plan`'s pre-order position, which indexes its stat in `stats`.
fn render_node(
    db: &crate::database::Database,
    plan: &Plan,
    indent: usize,
    stats: &[crate::batch_exec::OpStat],
    idx: &mut usize,
    out: &mut String,
) {
    let est = crate::optimize::estimate_rows(db, plan);
    let pad = "  ".repeat(indent);
    let line = format!("{pad}{}", node_label(plan));
    match stats.get(*idx) {
        Some(s) => {
            // Zone-map and selection-vector telemetry, when the operator
            // produced any: scans report morsels skipped without reading,
            // row-dropping operators report selection-vector density.
            let mut extra = String::new();
            if s.morsels_skipped > 0 {
                let _ = write!(extra, "  skipped {} morsels", s.morsels_skipped);
            }
            if let Some(d) = s.sel_density {
                let _ = write!(extra, "  sel {:.1}%", d * 100.0);
            }
            let _ = writeln!(
                out,
                "{line:<56} ~{est} rows  actual {} rows in {:.3} ms{extra}",
                s.rows,
                s.nanos as f64 / 1e6
            );
        }
        None => {
            let _ = writeln!(out, "{line:<56} ~{est} rows");
        }
    }
    *idx += 1;
    for_each_rendered_child(plan, |child| {
        render_node(db, child, indent + 1, stats, idx, out)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AggFunc, Aggregate};

    #[test]
    fn renders_scan_filter_join() {
        let p = Plan::scan("A").filter(Expr::col(0).eq(Expr::lit(1))).join(
            Plan::scan("B"),
            vec![0],
            vec![1],
        );
        let sql = to_sql(&p);
        assert!(sql.contains("FROM A"));
        assert!(sql.contains("JOIN"));
        assert!(sql.contains("WHERE (c0 = 1)"));
    }

    #[test]
    fn renders_union_all_group_by_having() {
        let p = Plan::Aggregate {
            input: Box::new(Plan::union_all(vec![Plan::scan("P1"), Plan::scan("P2")])),
            group_by: vec![0],
            aggs: vec![Aggregate::new(AggFunc::Sum(1), "prov")],
            having: Some(Expr::cmp(
                crate::expr::BinOp::Gt,
                Expr::col(1),
                Expr::lit(0),
            )),
        };
        let sql = to_sql(&p);
        assert!(sql.contains("UNION ALL"));
        assert!(sql.contains("GROUP BY c0"));
        assert!(sql.contains("HAVING"));
        assert!(sql.contains("SUM(c1) AS prov"));
    }

    #[test]
    fn outer_join_keywords() {
        let p = Plan::scan("A").join_as(Plan::scan("B"), JoinType::FullOuter, vec![0], vec![0]);
        assert!(to_sql(&p).contains("FULL OUTER JOIN"));
    }

    #[test]
    fn sql_len_grows_with_plan() {
        let small = Plan::scan("A");
        let big = Plan::union_all(vec![Plan::scan("A"); 10]);
        assert!(sql_len(&big) > sql_len(&small));
    }

    #[test]
    fn explain_tree_shows_operators_and_estimates() {
        use proql_common::{tup, Schema, ValueType};
        let mut db = crate::database::Database::new();
        db.create_table(
            Schema::build("A", &[("id", ValueType::Int), ("v", ValueType::Int)], &[0]).unwrap(),
        )
        .unwrap();
        for i in 0..8 {
            db.insert("A", tup![i, i]).unwrap();
        }
        let plan = Plan::scan("A")
            .join(Plan::scan("A"), vec![0], vec![0])
            .filter(Expr::col(0).eq(Expr::lit(1)));
        let text = explain_tree(&db, &plan, &[]);
        assert!(text.contains("Filter"), "{text}");
        assert!(text.contains("InnerJoin"), "{text}");
        assert!(text.contains("Scan A"), "{text}");
        assert!(text.contains("~8 rows"), "{text}");
        // Every line carries an estimate, and nothing else without stats.
        assert!(text.lines().all(|l| l.contains(" rows")), "{text}");
        assert!(!text.contains("actual"), "{text}");
    }

    #[test]
    fn analyzed_tree_aligns_actuals_with_operators() {
        use proql_common::{tup, Parallelism, Schema, ValueType};
        let mut db = crate::database::Database::new();
        db.create_table(
            Schema::build("A", &[("id", ValueType::Int), ("v", ValueType::Int)], &[0]).unwrap(),
        )
        .unwrap();
        for i in 0..8 {
            db.insert("A", tup![i, i]).unwrap();
        }
        let plan = Plan::scan("A")
            .join(Plan::scan("A"), vec![0], vec![0])
            .filter(Expr::col(0).eq(Expr::lit(1)));
        let mut stats = Vec::new();
        let batch =
            crate::batch_exec::execute_batch(&db, &plan, Parallelism::Serial, Some(&mut stats))
                .unwrap();
        // One stat per rendered line, in the same order.
        let text = explain_tree(&db, &plan, &stats);
        assert_eq!(stats.len(), text.lines().count(), "{text}");
        assert!(text.lines().all(|l| l.contains("actual")), "{text}");
        // The root line's actual row count is the query's result size.
        let root = text.lines().next().unwrap();
        assert!(root.starts_with("Filter"), "{text}");
        assert!(
            root.contains(&format!("actual {} rows", batch.len())),
            "{text}"
        );
        // The two scans each produced all 8 base rows.
        assert_eq!(
            text.lines()
                .filter(|l| l.trim_start().starts_with("Scan A") && l.contains("actual 8 rows"))
                .count(),
            2,
            "{text}"
        );
    }

    #[test]
    fn analyzed_tree_reports_zone_skips_and_selection_density() {
        use proql_common::{tup, Parallelism, Schema, ValueType};
        let mut db = crate::database::Database::new();
        db.create_table(
            Schema::build("A", &[("id", ValueType::Int), ("v", ValueType::Int)], &[0]).unwrap(),
        )
        .unwrap();
        // Three zones of ascending ids; `id < 10` prunes the last two.
        let n = crate::zone::ZONE_ROWS as i64 * 3;
        for i in 0..n {
            db.insert("A", tup![i, i % 7]).unwrap();
        }
        let plan = Plan::scan("A").filter(Expr::cmp(
            crate::expr::BinOp::Lt,
            Expr::col(0),
            Expr::lit(10),
        ));
        let mut stats = Vec::new();
        let batch =
            crate::batch_exec::execute_batch(&db, &plan, Parallelism::Serial, Some(&mut stats))
                .unwrap();
        assert_eq!(batch.len(), 10);
        let text = explain_tree(&db, &plan, &stats);
        assert_eq!(stats.len(), text.lines().count(), "{text}");
        let scan = text
            .lines()
            .find(|l| l.trim_start().starts_with("Scan A"))
            .unwrap();
        assert!(scan.contains("skipped 2 morsels"), "{text}");
        let filter = text.lines().find(|l| l.starts_with("Filter")).unwrap();
        assert!(filter.contains("sel "), "{text}");
    }
}
