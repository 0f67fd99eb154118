//! Every call the traced run makes below the public end-to-end API.
//!
//! The end-to-end path calls only `Engine::{query, prepare, execute}`,
//! `ServiceCore`, `serve` and `Client`. The traced run attributes time to
//! layers by calling finer entry points directly; they are all gathered
//! here, so a change to those entry points edits this one file.

use proql::annotate::run_annotation_opts;
use proql::ast::Query;
use proql::engine::{EngineOptions, QueryOutput, QueryStats};
use proql::exec::{prepare_rules, run_projection_prepared, PreparedRule, ProjectionResult};
use proql::translate::{translate, Translation};
use proql::AnnotatedResult;
use proql_common::{Result, Tuple};
use proql_provgraph::{ProvGraph, ProvenanceSystem};
use std::collections::BTreeSet;

/// `core`: parse a ProQL text.
pub fn parse(text: &str) -> Result<Query> {
    proql::parse_query(text)
}

/// `core`: unfold a query into a union of conjunctive rules (no rewriter,
/// as `EngineOptions::default` has none).
pub fn unfold(sys: &ProvenanceSystem, q: &Query, opts: &EngineOptions) -> Result<Translation> {
    translate(sys, q, None, &opts.translate)
}

/// `datalog` compile plus `storage` optimize, once per unfolded rule.
pub fn prepare(sys: &ProvenanceSystem, tr: &Translation) -> Result<Vec<PreparedRule>> {
    prepare_rules(sys, tr)
}

/// `storage`: execute the prepared rules and merge their output.
pub fn exec(
    sys: &ProvenanceSystem,
    tr: &Translation,
    rules: &[PreparedRule],
    opts: &EngineOptions,
) -> Result<ProjectionResult> {
    run_projection_prepared(sys, tr, rules, opts.exec_mode, opts.parallelism)
}

/// `provgraph`: decode a projection's subgraph into a provenance graph.
pub fn to_graph(sys: &ProvenanceSystem, proj: &ProjectionResult) -> Result<ProvGraph> {
    proj.to_graph(sys)
}

/// `core` + `semiring`: annotate a projection as the query's `EVALUATE`
/// clause asks. The call decodes the subgraph first, so its time
/// includes [`to_graph`].
pub fn annotate(
    sys: &ProvenanceSystem,
    q: &Query,
    proj: &ProjectionResult,
    opts: &EngineOptions,
) -> Result<Option<AnnotatedResult>> {
    q.evaluate
        .as_ref()
        .map(|spec| run_annotation_opts(sys, proj, spec, opts.parallelism))
        .transpose()
}

/// Wrap the pieces as the engine would, so the answer can be digested.
pub fn output(projection: ProjectionResult, annotated: Option<AnnotatedResult>) -> QueryOutput {
    QueryOutput {
        projection,
        annotated,
        stats: QueryStats::default(),
        touched: BTreeSet::new(),
        plan: None,
    }
}

/// `provgraph`: a point insert into `relation`'s local table followed by
/// the (incremental) exchange.
pub fn insert_and_exchange(sys: &mut ProvenanceSystem, relation: &str, tuple: Tuple) -> Result<()> {
    sys.insert_local(relation, tuple)?;
    sys.run_exchange()?;
    Ok(())
}

/// `provgraph`: decode the whole system's provenance graph from scratch.
pub fn decode_graph(sys: &ProvenanceSystem) -> Result<ProvGraph> {
    ProvGraph::from_system(sys)
}

/// `provgraph`: delete a local tuple and everything no longer derivable,
/// against a graph decoded at the current version.
pub fn delete(
    sys: &mut ProvenanceSystem,
    graph: &ProvGraph,
    relation: &str,
    key: &Tuple,
) -> Result<()> {
    proql_cdss::update::delete_local_with_graph(sys, relation, key, graph).map(|_| ())
}
