//! The cost-based optimizer: an ordered pipeline of plan-rewrite passes.
//!
//! The paper relies on the backing DBMS for "goal-directed computation such
//! that we only evaluate provenance for the selected tuples … intuitively,
//! this resembles pushing selections through joins" (§4.2). This module is
//! that DBMS layer: a multi-pass framework
//!
//! 1. **Filter pushdown** — selections move through projections, unions,
//!    and inner joins down to the scans they constrain.
//! 2. **Index conversion** — `Filter(Scan)` with equality bindings becomes
//!    [`Plan::IndexLookup`] (executors fall back to a filtered scan when no
//!    physical index exists, so the rewrite is always safe).
//! 3. **Cost-based join reordering** — maximal chains of inner equi-joins
//!    are flattened, re-ordered greedily by estimated intermediate
//!    cardinality (the cardinality model below), rebuilt left-deep, and
//!    wrapped in a projection restoring the original column order, so the
//!    rewrite is invisible to every consumer.
//! 4. **Build-side selection** — each hash join builds on its estimated
//!    smaller input.
//!
//! Cardinalities come from the **statistics subsystem**
//! ([`crate::stats`]): per-table live row counts and per-column NDV/min-max
//! maintained incrementally on every insert/delete. Estimates order
//! performance-neutral choices only — they never affect correctness, which
//! is what makes cached plans safe to reuse across data changes.

use crate::database::Database;
use crate::expr::{BinOp, Expr};
use crate::plan::{BuildSide, JoinType, Plan};
use crate::stats::ColumnStats;
use crate::table::Table;
use proql_common::Value;

/// One optimizer pass. [`OptimizerConfig`] orders them; benchmarks ablate
/// individual passes (e.g. `plan_bench` measures join reordering alone).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Push selections through projections, unions, and inner joins.
    PushFilters,
    /// Convert `Filter(Scan)` equality bindings into [`Plan::IndexLookup`].
    IndexScans,
    /// Reorder inner equi-join chains by estimated cardinality.
    ReorderJoins,
    /// Build each hash join on its estimated smaller input.
    PickBuildSides,
}

/// An ordered pass pipeline.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Passes, applied in order.
    pub passes: Vec<Pass>,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            passes: vec![
                Pass::PushFilters,
                Pass::IndexScans,
                Pass::ReorderJoins,
                Pass::PickBuildSides,
            ],
        }
    }
}

impl OptimizerConfig {
    /// The default pipeline minus one pass (ablation).
    pub fn without(pass: Pass) -> Self {
        let mut cfg = OptimizerConfig::default();
        cfg.passes.retain(|&p| p != pass);
        cfg
    }
}

/// Catalog-free optimization: filter pushdown and index conversion only.
pub fn optimize(plan: Plan) -> Plan {
    index_scans(push_filters(plan))
}

/// The full default pipeline: [`optimize`] plus catalog-aware passes —
/// cost-based join reordering and hash-join build-side selection from the
/// stats-backed cardinality model.
pub fn optimize_with(db: &Database, plan: Plan) -> Plan {
    optimize_with_config(db, plan, &OptimizerConfig::default())
}

/// Run an explicit pass pipeline.
pub fn optimize_with_config(db: &Database, plan: Plan, cfg: &OptimizerConfig) -> Plan {
    let mut plan = plan;
    for pass in &cfg.passes {
        plan = match pass {
            Pass::PushFilters => push_filters(plan),
            Pass::IndexScans => index_scans(plan),
            Pass::ReorderJoins => reorder_joins(db, plan),
            Pass::PickBuildSides => pick_build_sides(db, plan),
        };
    }
    plan
}

// ---------------------------------------------------------------------------
// Cardinality model
// ---------------------------------------------------------------------------

/// Default selectivity of a predicate the model cannot analyze (the
/// historical "filters keep a third of their input" assumption).
const DEFAULT_SELECTIVITY: f64 = 1.0 / 3.0;

/// Estimated output rows of a plan, from the incrementally-maintained
/// table statistics. Heuristic, only used to order performance-neutral
/// choices — never for correctness.
pub fn estimate_rows(db: &Database, plan: &Plan) -> usize {
    whole_rows(card(db, plan, 0).rows)
}

/// A row estimate as the whole number [`estimate_rows`] reports.
fn whole_rows(rows: f64) -> usize {
    rows.round().min(u64::MAX as f64) as usize
}

/// Where the statistics of one output column come from.
#[derive(Clone, Copy)]
enum ColSource<'a> {
    /// Not traceable to a base table (computed, aggregated, unioned, or
    /// past the view-depth limit).
    Unknown,
    /// A projected literal: one distinct value, no histogram.
    Lit,
    /// A base-table column, traced through order- and column-preserving
    /// operators.
    ///
    /// For dictionary-encoded string columns the per-column stats key
    /// their value→count map by interned `u32` code instead of by owned
    /// [`Value`] ([`crate::stats`]), so the NDV **is** the dictionary
    /// cardinality — same number, cheaper bookkeeping, and estimates stay
    /// bit-identical whether or not `PROQL_DICT` encoding is enabled.
    Base(&'a ColumnStats),
}

/// The cardinality model's summary of a subplan, derived bottom-up from
/// its inputs' summaries so that no subtree is walked twice.
struct Card<'a> {
    /// Estimated output rows.
    rows: f64,
    /// Catalog-aware output arity, when derivable.
    arity: Option<usize>,
    /// Source of each output column; columns past the end are unknown.
    cols: Vec<ColSource<'a>>,
}

impl<'a> Card<'a> {
    /// Nothing known: an unknown relation, or past the view-depth limit.
    fn unknown() -> Self {
        Card {
            rows: 0.0,
            arity: None,
            cols: Vec::new(),
        }
    }

    /// The columns of base table `t`.
    fn table(t: &'a Table, rows: f64) -> Self {
        let stats = t.stats();
        Card {
            rows,
            arity: Some(t.schema().arity()),
            cols: (0..)
                .map_while(|c| stats.column(c))
                .map(ColSource::Base)
                .collect(),
        }
    }

    fn col(&self, c: usize) -> ColSource<'a> {
        self.cols.get(c).copied().unwrap_or(ColSource::Unknown)
    }

    /// Distinct values of output column `c`.
    fn ndv(&self, c: usize) -> Option<f64> {
        match self.col(c) {
            ColSource::Base(s) => Some(s.ndv() as f64),
            ColSource::Lit => Some(1.0),
            ColSource::Unknown => None,
        }
    }

    /// Base-table statistics of output column `c`.
    fn stats(&self, c: usize) -> Option<&'a ColumnStats> {
        match self.col(c) {
            ColSource::Base(s) => Some(s),
            _ => None,
        }
    }
}

/// The [`Card`] of `plan`. Views may reference views; a cyclic definition
/// (which the executors reject with an error) must not overflow the
/// estimator's stack, so past the depth limit nothing is known.
fn card<'a>(db: &'a Database, plan: &Plan, depth: usize) -> Card<'a> {
    if depth > crate::exec::MAX_VIEW_DEPTH {
        return Card::unknown();
    }
    let inputs = match plan {
        Plan::Scan { .. } | Plan::Values { .. } | Plan::IndexLookup { .. } => Vec::new(),
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Distinct { input }
        | Plan::Aggregate { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => vec![card(db, input, depth)],
        Plan::Join { left, right, .. } => vec![card(db, left, depth), card(db, right, depth)],
        Plan::Union { inputs, .. } => inputs.iter().map(|p| card(db, p, depth)).collect(),
    };
    derive_card(db, plan, inputs, depth)
}

/// The [`Card`] of `plan` from the cards of its inputs, in child order
/// (a join's left input first).
fn derive_card<'a>(
    db: &'a Database,
    plan: &Plan,
    mut inputs: Vec<Card<'a>>,
    depth: usize,
) -> Card<'a> {
    let mut input = || inputs.pop().expect("one card per plan input");
    match plan {
        Plan::Scan { table } => {
            if let Some(t) = db.find_table(table) {
                Card::table(t, t.len() as f64)
            } else if let Some(v) = db.view(table) {
                Card {
                    arity: Some(v.schema.arity()),
                    ..card(db, &v.plan, depth + 1)
                }
            } else {
                Card::unknown()
            }
        }
        Plan::Values { schema, rows } => Card {
            rows: rows.len() as f64,
            arity: Some(schema.arity()),
            cols: Vec::new(),
        },
        Plan::Filter { predicate, .. } => {
            let input = input();
            Card {
                rows: input.rows * selectivity(&input, predicate),
                ..input
            }
        }
        Plan::IndexLookup {
            table,
            columns,
            residual,
            ..
        } => {
            let Some(t) = db.find_table(table) else {
                return Card::unknown();
            };
            let rows = t.len() as f64;
            // A physical index knows its exact distinct-key count; without
            // one, the per-column NDVs from the stats subsystem stand in.
            let keys = match t.find_index(columns) {
                Some(ix) => ix.distinct_keys() as f64,
                None => columns
                    .iter()
                    .map(|&c| t.stats().column(c).map(|s| s.ndv()).unwrap_or(1).max(1) as f64)
                    .product::<f64>()
                    .min(rows),
            };
            let mut lookup = Card::table(t, rows / keys.max(1.0));
            if let Some(r) = residual {
                lookup.rows *= selectivity(&lookup, r);
            }
            lookup
        }
        Plan::Project { exprs, .. } => {
            let input = input();
            Card {
                rows: input.rows,
                arity: Some(exprs.len()),
                cols: exprs
                    .iter()
                    .map(|e| match e {
                        Expr::Col(i) => input.col(*i),
                        Expr::Lit(_) => ColSource::Lit,
                        _ => ColSource::Unknown,
                    })
                    .collect(),
            }
        }
        Plan::Distinct { .. } | Plan::Sort { .. } => input(),
        Plan::Limit { n, .. } => {
            let input = input();
            Card {
                rows: input.rows.min(*n as f64),
                ..input
            }
        }
        Plan::Join {
            left_keys,
            right_keys,
            join_type,
            ..
        } => {
            let r = input();
            let l = input();
            let inner = join_rows(&l, &r, left_keys, right_keys);
            // Outer joins additionally keep every unmatched padded row.
            let rows = match join_type {
                JoinType::Inner => inner,
                JoinType::LeftOuter => inner.max(l.rows),
                JoinType::RightOuter => inner.max(r.rows),
                JoinType::FullOuter => inner.max(l.rows).max(r.rows),
            };
            let arity = l.arity.zip(r.arity).map(|(a, b)| a + b);
            // Right-side columns start at the left arity; without it no
            // column is traceable.
            let cols = match l.arity {
                Some(la) => {
                    let mut cols = l.cols;
                    cols.resize(la, ColSource::Unknown);
                    cols.extend(r.cols);
                    cols
                }
                None => Vec::new(),
            };
            Card { rows, arity, cols }
        }
        Plan::Union { .. } => Card {
            rows: inputs.iter().map(|c| c.rows).sum(),
            arity: inputs.first().and_then(|c| c.arity),
            cols: Vec::new(),
        },
        Plan::Aggregate { group_by, aggs, .. } => {
            let input = input();
            let n = input.rows;
            let rows = if group_by.is_empty() {
                1.0
            } else {
                // Groups are bounded by the product of the grouping
                // columns' NDVs, when derivable.
                let groups: f64 = group_by
                    .iter()
                    .map(|&c| input.ndv(c).unwrap_or(n / 2.0).max(1.0))
                    .product();
                groups.min(n).max(1.0)
            };
            Card {
                rows,
                arity: Some(group_by.len() + aggs.len()),
                cols: Vec::new(),
            }
        }
    }
}

/// Estimated inner-equi-join output: |L|·|R| divided by the product over
/// key pairs of max(ndv(lk), ndv(rk)) — the classic containment-of-values
/// model. Unknown NDVs fall back to the side's row estimate.
fn join_rows(l: &Card, r: &Card, left_keys: &[usize], right_keys: &[usize]) -> f64 {
    let mut out = l.rows * r.rows;
    for (&lk, &rk) in left_keys.iter().zip(right_keys) {
        // Containment of values: divide by the larger key *domain*. The
        // domain size deliberately stays unclamped by the side's row
        // estimate, so the divisor is invariant under join reordering.
        let nl = l.ndv(lk).unwrap_or(l.rows);
        let nr = r.ndv(rk).unwrap_or(r.rows);
        out /= nl.max(nr).max(1.0);
    }
    out
}

/// Estimated fraction of `input`'s rows that satisfy `predicate`.
fn selectivity(input: &Card, predicate: &Expr) -> f64 {
    pred_selectivity(input, predicate).clamp(0.0, 1.0)
}

fn pred_selectivity(input: &Card, pred: &Expr) -> f64 {
    match pred {
        Expr::And(ps) => ps.iter().map(|p| pred_selectivity(input, p)).product(),
        Expr::Or(ps) => {
            // Independence assumption: 1 - Π(1 - sᵢ).
            1.0 - ps
                .iter()
                .map(|p| 1.0 - pred_selectivity(input, p))
                .product::<f64>()
        }
        Expr::Not(p) => 1.0 - pred_selectivity(input, p),
        Expr::Lit(Value::Bool(true)) => 1.0,
        Expr::Lit(Value::Bool(false)) => 0.0,
        Expr::Bin(op, a, b) => {
            let (col, lit) = match (a.as_ref(), b.as_ref()) {
                (Expr::Col(i), Expr::Lit(v)) => (*i, v),
                (Expr::Lit(v), Expr::Col(i)) => (*i, v),
                _ => return DEFAULT_SELECTIVITY,
            };
            let Some(stats) = input.stats(col) else {
                return DEFAULT_SELECTIVITY;
            };
            let ndv = stats.ndv().max(1) as f64;
            match op {
                BinOp::Eq => 1.0 / ndv,
                BinOp::Ne => 1.0 - 1.0 / ndv,
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let Some(below) = stats.fraction_below(lit) else {
                        return DEFAULT_SELECTIVITY;
                    };
                    match op {
                        BinOp::Lt | BinOp::Le => below.max(1.0 / ndv),
                        _ => (1.0 - below).max(1.0 / ndv),
                    }
                }
                _ => DEFAULT_SELECTIVITY,
            }
        }
        _ => DEFAULT_SELECTIVITY,
    }
}

/// Catalog-aware output arity of a plan.
fn plan_arity_cat(db: &Database, plan: &Plan) -> Option<usize> {
    match plan {
        Plan::Scan { table } => match db.find_table(table) {
            Some(t) => Some(t.schema().arity()),
            None => Some(db.view(table)?.schema.arity()),
        },
        Plan::IndexLookup { table, .. } => Some(db.find_table(table)?.schema().arity()),
        Plan::Values { schema, .. } => Some(schema.arity()),
        Plan::Project { exprs, .. } => Some(exprs.len()),
        Plan::Filter { input, .. }
        | Plan::Distinct { input }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => plan_arity_cat(db, input),
        Plan::Union { inputs, .. } => plan_arity_cat(db, inputs.first()?),
        Plan::Join { left, right, .. } => {
            Some(plan_arity_cat(db, left)? + plan_arity_cat(db, right)?)
        }
        Plan::Aggregate { group_by, aggs, .. } => Some(group_by.len() + aggs.len()),
    }
}

/// True when [`plan_names_cat`] can derive `plan`'s names (which implies
/// [`plan_arity_cat`] can derive its arity), without building them.
fn names_known(db: &Database, plan: &Plan) -> bool {
    match plan {
        Plan::Scan { table } => db.has_relation(table),
        Plan::IndexLookup { table, .. } => db.has_table(table),
        Plan::Values { .. } | Plan::Project { .. } => true,
        Plan::Filter { input, .. }
        | Plan::Distinct { input }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. }
        | Plan::Aggregate { input, .. } => names_known(db, input),
        Plan::Union { inputs, .. } => inputs.first().is_some_and(|p| names_known(db, p)),
        Plan::Join { left, right, .. } => names_known(db, left) && names_known(db, right),
    }
}

/// Catalog-aware output column names, replicating the executors' naming
/// (including the join `_N` duplicate disambiguation) so a reordering
/// projection can restore the exact original schema.
fn plan_names_cat(db: &Database, plan: &Plan) -> Option<Vec<String>> {
    let schema_names =
        |s: &proql_common::Schema| s.attributes().iter().map(|a| a.name.clone()).collect();
    match plan {
        Plan::Scan { table } => match db.find_table(table) {
            Some(t) => Some(schema_names(t.schema())),
            None => Some(schema_names(&db.view(table)?.schema)),
        },
        Plan::IndexLookup { table, .. } => Some(schema_names(db.find_table(table)?.schema())),
        Plan::Values { schema, .. } => Some(schema_names(schema)),
        Plan::Project { names, .. } => Some(names.clone()),
        Plan::Filter { input, .. }
        | Plan::Distinct { input }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => plan_names_cat(db, input),
        Plan::Union { inputs, .. } => plan_names_cat(db, inputs.first()?),
        Plan::Join { left, right, .. } => {
            let l = plan_names_cat(db, left)?;
            let r = plan_names_cat(db, right)?;
            Some(crate::exec::join_names(&l, &r))
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => {
            let inner = plan_names_cat(db, input)?;
            let mut names: Vec<String> = group_by
                .iter()
                .map(|&c| inner.get(c).cloned().unwrap_or_else(|| format!("c{c}")))
                .collect();
            names.extend(aggs.iter().map(|a| a.name.clone()));
            Some(names)
        }
    }
}

// ---------------------------------------------------------------------------
// Pass: cost-based join reordering
// ---------------------------------------------------------------------------

/// Reorder maximal inner-equi-join chains by estimated cardinality. The
/// rewrite preserves the output **multiset and schema** exactly (a final
/// projection restores the original column order); only row order within
/// the multiset may change, so subtrees under order-sensitive operators
/// (`Sort`, `Limit`) are left untouched.
fn reorder_joins(db: &Database, plan: Plan) -> Plan {
    match plan {
        // Order-sensitive operators freeze their whole subtree: reordering
        // below them could change which rows a LIMIT keeps or how ties
        // settle under a stable sort.
        frozen @ (Plan::Sort { .. } | Plan::Limit { .. }) => frozen,
        Plan::Join {
            join_type: JoinType::Inner,
            ..
        } => match try_reorder_chain(db, plan) {
            Ok(reordered) => reordered,
            Err(original) => descend(db, original),
        },
        other => descend(db, other),
    }
}

/// Apply [`reorder_joins`] to every child.
fn descend(db: &Database, plan: Plan) -> Plan {
    match plan {
        Plan::Filter { input, predicate } => Plan::Filter {
            input: Box::new(reorder_joins(db, *input)),
            predicate,
        },
        Plan::Project {
            input,
            exprs,
            names,
        } => Plan::Project {
            input: Box::new(reorder_joins(db, *input)),
            exprs,
            names,
        },
        Plan::Join {
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            build,
        } => Plan::Join {
            left: Box::new(reorder_joins(db, *left)),
            right: Box::new(reorder_joins(db, *right)),
            join_type,
            left_keys,
            right_keys,
            build,
        },
        Plan::Union { inputs, distinct } => Plan::Union {
            inputs: inputs.into_iter().map(|p| reorder_joins(db, p)).collect(),
            distinct,
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(reorder_joins(db, *input)),
        },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            having,
        } => Plan::Aggregate {
            input: Box::new(reorder_joins(db, *input)),
            group_by,
            aggs,
            having,
        },
        leaf => leaf,
    }
}

/// A flattened inner-equi-join chain.
struct Chain {
    /// The chain's base relations (non-inner-join subplans), in original
    /// left-to-right order.
    leaves: Vec<Plan>,
    /// Global output-column offset of each leaf.
    offsets: Vec<usize>,
    /// Arity of each leaf.
    arities: Vec<usize>,
    /// Equality predicates as pairs of global columns (left subtree col,
    /// right subtree col).
    preds: Vec<(usize, usize)>,
    /// Total output arity.
    total: usize,
    /// True while every flattened join node had a leaf right child. Only
    /// a left-deep original is structurally reproduced by an identity
    /// left-deep rebuild; right-deep/bushy originals need the restoring
    /// projection even on bail-out, because `join_names` duplicate
    /// disambiguation is not associative.
    left_deep: bool,
    /// The original's output names, derived up front only for a
    /// right-deep/bushy chain (flattening forgets its shape). A left-deep
    /// chain's names are the left fold of `join_names` over its leaves,
    /// derived only when a rebuild needs a restoring projection.
    names: Option<Vec<String>>,
}

/// One predicate seen from the leaf it connects: the key pair
/// `(global col of the other leaf, global col of this leaf)`.
#[derive(Clone, Copy)]
struct Link {
    /// The leaf at the other end.
    other: usize,
    /// Global column on the other leaf.
    from: usize,
    /// Global column on this leaf.
    to: usize,
}

impl Chain {
    /// The leaf owning global column `g`.
    fn leaf_of(&self, g: usize) -> usize {
        match self.offsets.binary_search(&g) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// Each leaf's links, ascending by key pair and deduplicated; a leaf's
    /// join keys with a set of placed leaves are the links whose `other`
    /// is placed, in this order.
    fn links(&self) -> Vec<Vec<Link>> {
        let mut links = vec![Vec::new(); self.leaves.len()];
        for &(a, b) in &self.preds {
            let (la, lb) = (self.leaf_of(a), self.leaf_of(b));
            links[la].push(Link {
                other: lb,
                from: b,
                to: a,
            });
            links[lb].push(Link {
                other: la,
                from: a,
                to: b,
            });
        }
        for l in &mut links {
            l.sort_unstable_by_key(|k| (k.from, k.to));
            l.dedup_by_key(|k| (k.from, k.to));
        }
        links
    }

    /// The original's output names (see [`Chain::names`]).
    fn output_names(&mut self, db: &Database) -> Vec<String> {
        self.names.take().unwrap_or_else(|| {
            self.leaves
                .iter()
                .map(|l| plan_names_cat(db, l).expect("checked by chain_shape"))
                .reduce(|acc, n| crate::exec::join_names(&acc, &n))
                .expect("chain has at least one leaf")
        })
    }
}

/// Estimated rows of joining `rows` rows with a leaf of `leaf_rows` rows
/// over `links` whose `other` end satisfies `placed`, by the
/// containment-of-values model of [`join_rows`] on per-column NDVs
/// (`ndv[g]` for global column `g`). `None` when no link connects them.
fn link_rows(
    rows: f64,
    leaf_rows: f64,
    links: &[Link],
    ndv: &[Option<f64>],
    placed: impl Fn(usize) -> bool,
) -> Option<f64> {
    let mut out = rows * leaf_rows;
    let mut connected = false;
    for k in links.iter().filter(|k| placed(k.other)) {
        let ns = ndv.get(k.from).copied().flatten().unwrap_or(rows);
        let nj = ndv.get(k.to).copied().flatten().unwrap_or(leaf_rows);
        out /= ns.max(nj).max(1.0);
        connected = true;
    }
    connected.then_some(out)
}

/// Attempt to flatten and reorder the inner-join chain rooted at `plan`.
/// Returns the original plan on any bail-out (underivable names, fewer
/// than three leaves, no connecting predicate).
fn try_reorder_chain(db: &Database, plan: Plan) -> Result<Plan, Plan> {
    // Flattening consumes the plan, so check first, on a borrow, that
    // every leaf's names (and hence arity) are derivable.
    let Some(left_deep) = chain_shape(db, &plan) else {
        return Err(plan);
    };
    let names = (!left_deep).then(|| plan_names_cat(db, &plan).expect("checked by chain_shape"));
    let mut chain = Chain {
        leaves: Vec::new(),
        offsets: Vec::new(),
        arities: Vec::new(),
        preds: Vec::new(),
        total: 0,
        left_deep,
        names,
    };
    flatten(db, plan, &mut chain);
    let links = chain.links();
    if chain.leaves.len() < 3 || chain.preds.is_empty() {
        return Err(rebuild_original(db, chain, &links));
    }

    // Greedy ordering: start from the connected pair with the smallest
    // estimated join output, then repeatedly add the connected leaf whose
    // join with the accumulated set is estimated cheapest. Leaf estimates
    // and per-column NDVs are derived once for the whole chain.
    let cards: Vec<Card> = chain.leaves.iter().map(|l| card(db, l, 0)).collect();
    let leaf_est: Vec<f64> = cards.iter().map(|c| c.rows).collect();
    let mut ndv = Vec::with_capacity(chain.total);
    for (c, &arity) in cards.iter().zip(&chain.arities) {
        ndv.extend((0..arity).map(|col| c.ndv(col)));
    }
    let n = chain.leaves.len();
    let mut best: Option<(f64, usize, usize)> = None;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            if let Some(e) = link_rows(leaf_est[i], leaf_est[j], &links[j], &ndv, |o| o == i) {
                if best.map(|b| e < b.0).unwrap_or(true) {
                    best = Some((e, i, j));
                }
            }
        }
    }
    let Some((mut set_est, first, second)) = best else {
        return Err(rebuild_original(db, chain, &links));
    };
    let mut order = vec![first, second];
    let mut placed = vec![false; n];
    placed[first] = true;
    placed[second] = true;
    while order.len() < n {
        let mut pick: Option<(f64, usize, bool)> = None; // (est, leaf, connected)
        for j in (0..n).filter(|&j| !placed[j]) {
            let joined = link_rows(set_est, leaf_est[j], &links[j], &ndv, |o| placed[o]);
            let connected = joined.is_some();
            let e = joined.unwrap_or(set_est * leaf_est[j]);
            let better = match pick {
                None => true,
                // Connected candidates always beat cross products.
                Some((pe, _, pc)) => (connected && !pc) || (connected == pc && e < pe),
            };
            if better {
                pick = Some((e, j, connected));
            }
        }
        let (e, j, _) = pick.expect("an unplaced leaf exists");
        set_est = e;
        order.push(j);
        placed[j] = true;
    }

    // Identity order: the original plan is already the greedy choice.
    if order.iter().enumerate().all(|(k, &l)| k == l) {
        return Err(rebuild_original(db, chain, &links));
    }

    Ok(build_ordered(db, chain, &links, &order, false))
}

/// `Some(left_deep)` for an inner-join chain whose every leaf has
/// derivable names (flattening will then succeed without consuming the
/// plan first), `None` otherwise.
fn chain_shape(db: &Database, plan: &Plan) -> Option<bool> {
    match plan {
        Plan::Join {
            join_type: JoinType::Inner,
            left,
            right,
            ..
        } => {
            let left_deep = chain_shape(db, left)?;
            let right_leaf = chain_shape(db, right)? && !is_inner_join(right);
            Some(left_deep && right_leaf)
        }
        leaf => names_known(db, leaf).then_some(true),
    }
}

fn is_inner_join(plan: &Plan) -> bool {
    matches!(
        plan,
        Plan::Join {
            join_type: JoinType::Inner,
            ..
        }
    )
}

/// Flatten `plan` into `chain`, assigning global column offsets in-order.
/// Non-inner-join nodes become leaves (recursively reordered themselves).
fn flatten(db: &Database, plan: Plan, chain: &mut Chain) {
    match plan {
        Plan::Join {
            join_type: JoinType::Inner,
            left,
            right,
            left_keys,
            right_keys,
            ..
        } => {
            let left_base = chain.total;
            flatten(db, *left, chain);
            let right_base = chain.total;
            flatten(db, *right, chain);
            for (lk, rk) in left_keys.into_iter().zip(right_keys) {
                chain.preds.push((left_base + lk, right_base + rk));
            }
        }
        leaf => {
            let arity = plan_arity_cat(db, &leaf).expect("checked by chain_shape");
            chain.offsets.push(chain.total);
            chain.arities.push(arity);
            chain.leaves.push(reorder_joins(db, leaf));
            chain.total += arity;
        }
    }
}

/// Rebuild the chain in its original order (used on bail-out after the
/// plan was already consumed by flattening). A left-deep original is
/// reproduced structurally (no projection needed); a right-deep/bushy
/// original gets the restoring projection, because a left-deep identity
/// rebuild would re-associate the joins and `join_names` duplicate
/// disambiguation is not associative.
fn rebuild_original(db: &Database, chain: Chain, links: &[Vec<Link>]) -> Plan {
    let order: Vec<usize> = (0..chain.leaves.len()).collect();
    let skip_projection = chain.left_deep;
    build_ordered(db, chain, links, &order, skip_projection)
}

/// Rebuild the chain joining leaves in `order`, then (unless
/// `skip_projection`) restore the original column order and
/// executor-visible names with a projection.
fn build_ordered(
    db: &Database,
    mut chain: Chain,
    links: &[Vec<Link>],
    order: &[usize],
    skip_projection: bool,
) -> Plan {
    let names = (!skip_projection).then(|| chain.output_names(db));
    let total = chain.total;
    // colmap[g] = current output position of original global column g.
    let mut colmap: Vec<Option<usize>> = vec![None; total];
    let mut placed = vec![false; chain.leaves.len()];
    let mut acc: Option<Plan> = None;
    let mut acc_arity = 0usize;
    let mut leaf_slots: Vec<Option<Plan>> = chain.leaves.drain(..).map(Some).collect();
    for &l in order {
        let leaf = leaf_slots[l].take().expect("each leaf placed once");
        let (off, ar) = (chain.offsets[l], chain.arities[l]);
        match acc.take() {
            None => {
                for (g, slot) in colmap.iter_mut().enumerate().skip(off).take(ar) {
                    *slot = Some(g - off);
                }
                acc = Some(leaf);
                acc_arity = ar;
            }
            Some(a) => {
                let (left_keys, right_keys) = links[l]
                    .iter()
                    .filter(|k| placed[k.other])
                    .map(|k| {
                        let pos = colmap[k.from].expect("placed column has a position");
                        (pos, k.to - off)
                    })
                    .unzip();
                for (g, slot) in colmap.iter_mut().enumerate().skip(off).take(ar) {
                    *slot = Some(acc_arity + (g - off));
                }
                acc = Some(Plan::Join {
                    left: Box::new(a),
                    right: Box::new(leaf),
                    join_type: JoinType::Inner,
                    left_keys,
                    right_keys,
                    build: BuildSide::Auto,
                });
                acc_arity += ar;
            }
        }
        placed[l] = true;
    }
    let joined = acc.expect("chain has at least one leaf");
    let Some(names) = names else {
        // Left-deep identity rebuild: positions are already 0..total and
        // the structure matches the original; no projection needed.
        return joined;
    };
    let exprs: Vec<Expr> = (0..total)
        .map(|g| Expr::Col(colmap[g].expect("every column placed")))
        .collect();
    Plan::Project {
        input: Box::new(joined),
        exprs,
        names,
    }
}

// ---------------------------------------------------------------------------
// Pass: build-side selection
// ---------------------------------------------------------------------------

/// Set each hash join's build side to its (estimated) smaller input.
fn pick_build_sides(db: &Database, mut plan: Plan) -> Plan {
    pick_build_sides_in(db, &mut plan);
    plan
}

/// [`pick_build_sides`] in place, returning `plan`'s [`Card`]: one
/// bottom-up pass, so each join compares its inputs' cards without
/// re-estimating their subtrees.
fn pick_build_sides_in<'a>(db: &'a Database, plan: &mut Plan) -> Card<'a> {
    let inputs = match plan {
        Plan::Scan { .. } | Plan::Values { .. } | Plan::IndexLookup { .. } => Vec::new(),
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Distinct { input }
        | Plan::Aggregate { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => vec![pick_build_sides_in(db, input)],
        Plan::Join {
            left, right, build, ..
        } => {
            let l = pick_build_sides_in(db, left);
            let r = pick_build_sides_in(db, right);
            if *build == BuildSide::Auto {
                *build = if whole_rows(l.rows) < whole_rows(r.rows) {
                    BuildSide::Left
                } else {
                    BuildSide::Right
                };
            }
            vec![l, r]
        }
        Plan::Union { inputs, .. } => inputs
            .iter_mut()
            .map(|p| pick_build_sides_in(db, p))
            .collect(),
    };
    derive_card(db, plan, inputs, 0)
}

// ---------------------------------------------------------------------------
// Pass: filter pushdown
// ---------------------------------------------------------------------------

/// Split a predicate into conjuncts.
fn conjuncts(pred: Expr) -> Vec<Expr> {
    match pred {
        Expr::And(ps) => ps.into_iter().flat_map(conjuncts).collect(),
        p => vec![p],
    }
}

/// Recombine conjuncts.
fn recombine(mut preds: Vec<Expr>) -> Option<Expr> {
    match preds.len() {
        0 => None,
        1 => Some(preds.pop().unwrap()),
        _ => Some(Expr::And(preds)),
    }
}

fn push_filters(plan: Plan) -> Plan {
    match plan {
        Plan::Filter { input, predicate } => {
            let input = push_filters(*input);
            push_pred_into(input, predicate)
        }
        Plan::Project {
            input,
            exprs,
            names,
        } => Plan::Project {
            input: Box::new(push_filters(*input)),
            exprs,
            names,
        },
        Plan::Join {
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            build,
        } => Plan::Join {
            left: Box::new(push_filters(*left)),
            right: Box::new(push_filters(*right)),
            join_type,
            left_keys,
            right_keys,
            build,
        },
        Plan::Union { inputs, distinct } => Plan::Union {
            inputs: inputs.into_iter().map(push_filters).collect(),
            distinct,
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(push_filters(*input)),
        },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            having,
        } => Plan::Aggregate {
            input: Box::new(push_filters(*input)),
            group_by,
            aggs,
            having,
        },
        Plan::Sort { input, by } => Plan::Sort {
            input: Box::new(push_filters(*input)),
            by,
        },
        Plan::Limit { input, n } => Plan::Limit {
            input: Box::new(push_filters(*input)),
            n,
        },
        leaf => leaf,
    }
}

/// Push `predicate` as deep as possible into `input`.
fn push_pred_into(input: Plan, predicate: Expr) -> Plan {
    match input {
        // Filter(Filter(x)) -> Filter(x) with merged predicate.
        Plan::Filter {
            input: inner,
            predicate: p2,
        } => {
            let merged = Expr::and(vec![p2, predicate]);
            push_pred_into(*inner, merged)
        }
        // Push through a union into every branch.
        Plan::Union { inputs, distinct } => Plan::Union {
            inputs: inputs
                .into_iter()
                .map(|p| push_pred_into(p, predicate.clone()))
                .collect(),
            distinct,
        },
        // Push each conjunct into the join side it references, when the
        // join is inner (outer joins change semantics under pushdown).
        Plan::Join {
            left,
            right,
            join_type: JoinType::Inner,
            left_keys,
            right_keys,
            build,
        } => {
            let left_arity = plan_arity_hint(&left);
            let mut left_preds = Vec::new();
            let mut right_preds = Vec::new();
            let mut keep = Vec::new();
            for c in conjuncts(predicate) {
                match (c.max_col(), left_arity) {
                    (Some(max), Some(la)) if max < la => left_preds.push(c),
                    (Some(_), Some(la)) => {
                        // References right side only if *all* cols >= la.
                        if min_col(&c).map(|m| m >= la).unwrap_or(false) {
                            right_preds.push(shift_down(&c, la));
                        } else {
                            keep.push(c);
                        }
                    }
                    (None, _) => keep.push(c), // constant predicate: keep on top
                    _ => keep.push(c),
                }
            }
            let mut new_left = *left;
            if let Some(p) = recombine(left_preds) {
                new_left = push_pred_into(new_left, p);
            }
            let mut new_right = *right;
            if let Some(p) = recombine(right_preds) {
                new_right = push_pred_into(new_right, p);
            }
            let joined = Plan::Join {
                left: Box::new(new_left),
                right: Box::new(new_right),
                join_type: JoinType::Inner,
                left_keys,
                right_keys,
                build,
            };
            match recombine(keep) {
                Some(p) => Plan::Filter {
                    input: Box::new(joined),
                    predicate: p,
                },
                None => joined,
            }
        }
        other => Plan::Filter {
            input: Box::new(other),
            predicate,
        },
    }
}

/// Smallest column index referenced by the expression.
fn min_col(e: &Expr) -> Option<usize> {
    match e {
        Expr::Col(i) => Some(*i),
        Expr::Lit(_) => None,
        Expr::Bin(_, a, b) => match (min_col(a), min_col(b)) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        },
        Expr::And(ps) | Expr::Or(ps) => ps.iter().filter_map(min_col).min(),
        Expr::Not(p) | Expr::IsNull(p) => min_col(p),
    }
}

/// Shift all columns down by `delta` (inverse of `shift_cols`).
fn shift_down(e: &Expr, delta: usize) -> Expr {
    match e {
        Expr::Col(i) => Expr::Col(i - delta),
        Expr::Lit(v) => Expr::Lit(v.clone()),
        Expr::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(shift_down(a, delta)),
            Box::new(shift_down(b, delta)),
        ),
        Expr::And(ps) => Expr::And(ps.iter().map(|p| shift_down(p, delta)).collect()),
        Expr::Or(ps) => Expr::Or(ps.iter().map(|p| shift_down(p, delta)).collect()),
        Expr::Not(p) => Expr::Not(Box::new(shift_down(p, delta))),
        Expr::IsNull(p) => Expr::IsNull(Box::new(shift_down(p, delta))),
    }
}

/// Static arity of a plan, when derivable without a catalog. Scans have
/// unknown arity (None): pushdown through joins over bare scans is skipped,
/// which is conservative but safe. Projects and Values fix the arity.
fn plan_arity_hint(plan: &Plan) -> Option<usize> {
    match plan {
        Plan::Project { exprs, .. } => Some(exprs.len()),
        Plan::Values { schema, .. } => Some(schema.arity()),
        Plan::Filter { input, .. }
        | Plan::Distinct { input }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => plan_arity_hint(input),
        Plan::Union { inputs, .. } => inputs.first().and_then(plan_arity_hint),
        Plan::Join { left, right, .. } => Some(plan_arity_hint(left)? + plan_arity_hint(right)?),
        Plan::Aggregate { group_by, aggs, .. } => Some(group_by.len() + aggs.len()),
        Plan::Scan { .. } | Plan::IndexLookup { .. } => None,
    }
}

// ---------------------------------------------------------------------------
// Pass: index conversion
// ---------------------------------------------------------------------------

/// Rewrite `Filter(Scan)` into `IndexLookup` when every equality-bound
/// column set could be served by an index (the executor falls back to a
/// filtered scan when no physical index exists, so this is always safe).
fn index_scans(plan: Plan) -> Plan {
    match plan {
        Plan::Filter { input, predicate } => {
            if let Plan::Scan { table } = input.as_ref() {
                let bindings = predicate.equality_bindings();
                if !bindings.is_empty() {
                    let columns: Vec<usize> = bindings.iter().map(|(c, _)| *c).collect();
                    let key: Vec<Value> = bindings.iter().map(|(_, v)| v.clone()).collect();
                    // Anything that is not a bare col=lit conjunct stays as a
                    // residual predicate.
                    let residual = residual_of(&predicate);
                    return Plan::IndexLookup {
                        table: table.clone(),
                        columns,
                        key,
                        residual,
                    };
                }
            }
            Plan::Filter {
                input: Box::new(index_scans(*input)),
                predicate,
            }
        }
        Plan::Project {
            input,
            exprs,
            names,
        } => Plan::Project {
            input: Box::new(index_scans(*input)),
            exprs,
            names,
        },
        Plan::Join {
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            build,
        } => Plan::Join {
            left: Box::new(index_scans(*left)),
            right: Box::new(index_scans(*right)),
            join_type,
            left_keys,
            right_keys,
            build,
        },
        Plan::Union { inputs, distinct } => Plan::Union {
            inputs: inputs.into_iter().map(index_scans).collect(),
            distinct,
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(index_scans(*input)),
        },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            having,
        } => Plan::Aggregate {
            input: Box::new(index_scans(*input)),
            group_by,
            aggs,
            having,
        },
        Plan::Sort { input, by } => Plan::Sort {
            input: Box::new(index_scans(*input)),
            by,
        },
        Plan::Limit { input, n } => Plan::Limit {
            input: Box::new(index_scans(*input)),
            n,
        },
        leaf => leaf,
    }
}

/// The conjuncts of `pred` that are *not* simple `col = literal` bindings.
fn residual_of(pred: &Expr) -> Option<Expr> {
    let parts: Vec<Expr> = match pred {
        Expr::And(ps) => ps.clone(),
        p => vec![p.clone()],
    };
    let residual: Vec<Expr> = parts
        .into_iter()
        .filter(|p| !is_simple_binding(p))
        .collect();
    recombine(residual)
}

fn is_simple_binding(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Bin(crate::expr::BinOp::Eq, a, b)
            if matches!((a.as_ref(), b.as_ref()),
                (Expr::Col(_), Expr::Lit(_)) | (Expr::Lit(_), Expr::Col(_)))
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::exec::execute;
    use crate::expr::BinOp;
    use crate::index::IndexKind;
    use proql_common::{tup, Schema, ValueType};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            Schema::build("T", &[("a", ValueType::Int), ("b", ValueType::Int)], &[0]).unwrap(),
        )
        .unwrap();
        for i in 0..10 {
            db.insert("T", tup![i, i * 10]).unwrap();
        }
        db
    }

    #[test]
    fn filter_scan_becomes_index_lookup() {
        let p = Plan::scan("T").filter(Expr::col(0).eq(Expr::lit(3)));
        let opt = optimize(p);
        match &opt {
            Plan::IndexLookup {
                table,
                columns,
                key,
                residual,
            } => {
                assert_eq!(table, "T");
                assert_eq!(columns, &[0]);
                assert_eq!(key, &[Value::Int(3)]);
                assert!(residual.is_none());
            }
            other => panic!("expected IndexLookup, got {other:?}"),
        }
        assert_eq!(execute(&db(), &opt).unwrap().rows, vec![tup![3, 30]]);
    }

    #[test]
    fn residual_predicate_preserved() {
        let p = Plan::scan("T").filter(Expr::And(vec![
            Expr::col(0).eq(Expr::lit(3)),
            Expr::cmp(BinOp::Gt, Expr::col(1), Expr::lit(100)),
        ]));
        let opt = optimize(p);
        match &opt {
            Plan::IndexLookup { residual, .. } => assert!(residual.is_some()),
            other => panic!("expected IndexLookup, got {other:?}"),
        }
        assert!(execute(&db(), &opt).unwrap().is_empty());
    }

    #[test]
    fn stacked_filters_merge() {
        let p = Plan::scan("T")
            .filter(Expr::col(0).eq(Expr::lit(3)))
            .filter(Expr::cmp(BinOp::Lt, Expr::col(1), Expr::lit(100)));
        let opt = optimize(p.clone());
        // Optimized and unoptimized agree.
        assert_eq!(
            execute(&db(), &opt).unwrap().sorted_rows(),
            execute(&db(), &p).unwrap().sorted_rows()
        );
    }

    #[test]
    fn pushdown_through_union() {
        let p = Plan::Union {
            inputs: vec![Plan::scan("T"), Plan::scan("T")],
            distinct: false,
        }
        .filter(Expr::col(0).eq(Expr::lit(1)));
        let opt = optimize(p.clone());
        // Both branches now index lookups under the union.
        match &opt {
            Plan::Union { inputs, .. } => {
                assert!(matches!(inputs[0], Plan::IndexLookup { .. }));
                assert!(matches!(inputs[1], Plan::IndexLookup { .. }));
            }
            other => panic!("expected Union, got {other:?}"),
        }
        assert_eq!(
            execute(&db(), &opt).unwrap().sorted_rows(),
            execute(&db(), &p).unwrap().sorted_rows()
        );
    }

    #[test]
    fn pushdown_through_projected_join_sides() {
        // Join of two projections (arity known), filter references left col.
        let left = Plan::scan("T").project(vec![Expr::col(0), Expr::col(1)]);
        let right = Plan::scan("T").project(vec![Expr::col(0)]);
        let p = left
            .join(right, vec![0], vec![0])
            .filter(Expr::col(2).eq(Expr::lit(5)));
        let opt = optimize(p.clone());
        assert_eq!(
            execute(&db(), &opt).unwrap().sorted_rows(),
            execute(&db(), &p).unwrap().sorted_rows()
        );
    }

    #[test]
    fn outer_join_filters_not_pushed() {
        let p = Plan::scan("T")
            .join_as(Plan::scan("T"), JoinType::LeftOuter, vec![0], vec![0])
            .filter(Expr::IsNull(Box::new(Expr::col(2))));
        let opt = optimize(p.clone());
        assert_eq!(
            execute(&db(), &opt).unwrap().sorted_rows(),
            execute(&db(), &p).unwrap().sorted_rows()
        );
    }

    #[test]
    fn build_side_picked_from_estimates() {
        let mut db = db(); // T has 10 rows
        db.create_table(
            proql_common::Schema::build("Small", &[("a", proql_common::ValueType::Int)], &[0])
                .unwrap(),
        )
        .unwrap();
        db.insert("Small", proql_common::tup![1]).unwrap();
        let opt = optimize_with(
            &db,
            Plan::scan("Small").join(Plan::scan("T"), vec![0], vec![0]),
        );
        match opt {
            Plan::Join { build, .. } => assert_eq!(build, BuildSide::Left),
            other => panic!("expected Join, got {other:?}"),
        }
        let opt = optimize_with(
            &db,
            Plan::scan("T").join(Plan::scan("Small"), vec![0], vec![0]),
        );
        match opt {
            Plan::Join { build, .. } => assert_eq!(build, BuildSide::Right),
            other => panic!("expected Join, got {other:?}"),
        }
    }

    #[test]
    fn estimator_survives_cyclic_views() {
        // The executors reject cyclic views with an error; the estimator
        // must not stack-overflow on them either.
        let mut db = db();
        let schema =
            proql_common::Schema::build("V", &[("id", proql_common::ValueType::Int)], &[]).unwrap();
        db.create_view("V", Plan::scan("W"), schema.clone())
            .unwrap();
        db.create_view("W", Plan::scan("V"), schema).unwrap();
        let plan = Plan::scan("V").join(Plan::scan("T"), vec![0], vec![0]);
        let opt = optimize_with(&db, plan);
        assert!(matches!(opt, Plan::Join { .. }));
        assert_eq!(estimate_rows(&db, &Plan::scan("V")), 0);
    }

    #[test]
    fn index_lookup_estimate_uses_distinct_keys() {
        // Regression for the fixed len/8 guess: a lookup on a 2-distinct-
        // value column of a 10-row table returns ~5 rows, not 10/8 = 2.
        let mut db = Database::new();
        db.create_table(
            Schema::build("S", &[("id", ValueType::Int), ("g", ValueType::Int)], &[0]).unwrap(),
        )
        .unwrap();
        for i in 0..10 {
            db.insert("S", tup![i, i % 2]).unwrap();
        }
        db.table_mut("S")
            .unwrap()
            .create_index("by_g", vec![1], IndexKind::Hash)
            .unwrap();
        let lookup = Plan::IndexLookup {
            table: "S".into(),
            columns: vec![1],
            key: vec![Value::Int(0)],
            residual: None,
        };
        assert_eq!(estimate_rows(&db, &lookup), 5);
        // And on the (unique) primary column, ~1 row.
        let pk_lookup = Plan::IndexLookup {
            table: "S".into(),
            columns: vec![0],
            key: vec![Value::Int(3)],
            residual: None,
        };
        // No physical index on column 0: the column-NDV fallback applies.
        assert_eq!(estimate_rows(&db, &pk_lookup), 1);
    }

    #[test]
    fn filter_estimates_use_column_stats() {
        let db = db(); // T: 10 rows, col 0 = 0..10 (NDV 10), col 1 = 0..90
                       // Equality on a unique column: ~1 row.
        let eq = Plan::scan("T").filter(Expr::col(0).eq(Expr::lit(3)));
        assert_eq!(estimate_rows(&db, &eq), 1);
        // Range: b < 45 covers half the 0..=90 domain.
        let half = Plan::scan("T").filter(Expr::cmp(BinOp::Lt, Expr::col(1), Expr::lit(45)));
        assert_eq!(estimate_rows(&db, &half), 5);
    }

    #[test]
    fn join_estimate_uses_key_ndv() {
        // FK-shaped join: Child has 100 rows over 10 parents.
        let mut db = Database::new();
        db.create_table(Schema::build("Parent", &[("id", ValueType::Int)], &[0]).unwrap())
            .unwrap();
        db.create_table(
            Schema::build(
                "Child",
                &[("id", ValueType::Int), ("pid", ValueType::Int)],
                &[0],
            )
            .unwrap(),
        )
        .unwrap();
        for i in 0..10 {
            db.insert("Parent", tup![i]).unwrap();
        }
        for i in 0..100 {
            db.insert("Child", tup![i, i % 10]).unwrap();
        }
        let j = Plan::scan("Child").join(Plan::scan("Parent"), vec![1], vec![0]);
        // 100 * 10 / max(10, 10) = 100: the FK join keeps the child side.
        assert_eq!(estimate_rows(&db, &j), 100);
    }

    #[test]
    fn reorder_picks_selective_leaf_first_and_preserves_results() {
        // big ⋈ big first is quadratic; the tiny filtered leaf should be
        // joined early by the cost-based pass.
        let mut db = Database::new();
        db.create_table(
            Schema::build("A", &[("x", ValueType::Int), ("y", ValueType::Int)], &[0]).unwrap(),
        )
        .unwrap();
        db.create_table(
            Schema::build("B", &[("y", ValueType::Int), ("z", ValueType::Int)], &[0]).unwrap(),
        )
        .unwrap();
        db.create_table(
            Schema::build("C", &[("z", ValueType::Int), ("w", ValueType::Int)], &[0]).unwrap(),
        )
        .unwrap();
        for i in 0..60 {
            db.insert("A", tup![i, i % 3]).unwrap();
            db.insert("B", tup![i, i % 4]).unwrap();
        }
        for i in 0..4 {
            db.insert("C", tup![i, i]).unwrap();
        }
        // ((A ⋈ B on A.y=B.y) ⋈ C on B.z=C.z) filtered to one C row.
        let plan = Plan::scan("A")
            .join(Plan::scan("B"), vec![1], vec![0])
            .join(
                Plan::scan("C").filter(Expr::col(0).eq(Expr::lit(2))),
                vec![3],
                vec![0],
            );
        let opt = optimize_with(&db, plan.clone());
        // The reordering pass must have restructured the chain (a
        // restoring projection appears at the top).
        assert!(
            matches!(opt, Plan::Project { .. }),
            "expected reordered chain, got {opt:?}"
        );
        let want = execute(&db, &plan).unwrap();
        let got = execute(&db, &opt).unwrap();
        assert_eq!(want.names, got.names);
        assert_eq!(want.sorted_rows(), got.sorted_rows());
        // And the reordered chain is estimated cheaper at the top.
        assert!(estimate_rows(&db, &opt) <= estimate_rows(&db, &plan));
    }

    #[test]
    fn reorder_skips_order_sensitive_subtrees() {
        let db = db();
        let chain = Plan::scan("T")
            .join(Plan::scan("T"), vec![0], vec![0])
            .join(Plan::scan("T"), vec![0], vec![0]);
        let plan = Plan::Limit {
            input: Box::new(chain.clone()),
            n: 3,
        };
        let opt = optimize_with_config(
            &db,
            plan.clone(),
            &OptimizerConfig {
                passes: vec![Pass::ReorderJoins],
            },
        );
        // The subtree under LIMIT is untouched.
        assert_eq!(opt, plan);
    }

    #[test]
    fn right_deep_chain_bailout_preserves_schema_names() {
        // Regression: `join_names` duplicate disambiguation is not
        // associative, so a right-deep original (`A ⋈ (B ⋈ C)`) rebuilt
        // left-deep on the bail-out path must keep the restoring
        // projection — the greedy lands on the identity order here
        // (all leaves the same size), which is exactly that path.
        let db = db();
        let plan = Plan::scan("T").join(
            Plan::scan("T").join(Plan::scan("T"), vec![0], vec![0]),
            vec![0],
            vec![0],
        );
        let want = execute(&db, &plan).unwrap();
        let opt = optimize_with_config(
            &db,
            plan,
            &OptimizerConfig {
                passes: vec![Pass::ReorderJoins],
            },
        );
        let got = execute(&db, &opt).unwrap();
        assert_eq!(want.names, got.names, "schema names must be preserved");
        assert_eq!(want.sorted_rows(), got.sorted_rows());
    }

    #[test]
    fn reorder_bails_without_connecting_predicates() {
        let db = db();
        // Pure cross products: nothing to reorder by.
        let plan = Plan::scan("T").join(Plan::scan("T"), vec![], vec![]).join(
            Plan::scan("T"),
            vec![],
            vec![],
        );
        let opt = optimize_with_config(
            &db,
            plan.clone(),
            &OptimizerConfig {
                passes: vec![Pass::ReorderJoins],
            },
        );
        assert_eq!(
            execute(&db, &opt).unwrap().sorted_rows(),
            execute(&db, &plan).unwrap().sorted_rows()
        );
    }

    #[test]
    fn pass_ablation_configs_agree_on_results() {
        let db = db();
        let plan = Plan::scan("T")
            .join(Plan::scan("T"), vec![0], vec![0])
            .join(Plan::scan("T"), vec![1], vec![0])
            .filter(Expr::cmp(BinOp::Le, Expr::col(0), Expr::lit(6)));
        let want = execute(&db, &plan).unwrap().sorted_rows();
        for cfg in [
            OptimizerConfig::default(),
            OptimizerConfig::without(Pass::ReorderJoins),
            OptimizerConfig::without(Pass::PushFilters),
            OptimizerConfig::without(Pass::IndexScans),
            OptimizerConfig::without(Pass::PickBuildSides),
            OptimizerConfig { passes: vec![] },
        ] {
            let opt = optimize_with_config(&db, plan.clone(), &cfg);
            assert_eq!(
                execute(&db, &opt).unwrap().sorted_rows(),
                want,
                "cfg {cfg:?}"
            );
        }
    }
}
