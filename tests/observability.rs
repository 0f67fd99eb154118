//! End-to-end observability properties: span trees emitted by traced
//! query execution are well-formed across every executor × parallelism
//! combination on randomized instances, `EXPLAIN ANALYZE` actuals agree
//! exactly with digest-checked result sizes, a traced prepare splits
//! its time by phase, and a pipelined binary batch reconstructs as a
//! single trace retrievable over the `TRACE` wire verb.
//!
//! These tests only ever *enable* tracing (never disable it), so they
//! are safe under the parallel test harness: each asserts exclusively
//! on spans carrying its own trace id.

use proql::engine::{Engine, EngineOptions};
use proql::parse_query;
use proql_cdss::topology::{build_system, target_query, CdssConfig, Topology};
use proql_common::rng::SplitMix64;
use proql_common::{trace, Parallelism};
use proql_service::proto::{json_str_field, result_digest};
use proql_service::{serve, BinClient, ServiceCore};
use proql_storage::ExecMode;
use std::sync::Arc;

/// Every span in `spans` must form one sane forest: unique ids, no
/// dangling parents, and child intervals contained in their parents'.
fn assert_well_formed(spans: &[trace::SpanRecord], trace_id: u64) {
    assert!(!spans.is_empty(), "traced run must record spans");
    let mut ids = std::collections::HashSet::new();
    for s in spans {
        assert_eq!(s.trace_id, trace_id, "span {} leaked across traces", s.name);
        assert!(ids.insert(s.span_id), "duplicate span id {}", s.span_id);
        assert!(
            s.end_ns >= s.start_ns,
            "span {} ends before it starts",
            s.name
        );
    }
    for s in spans {
        if s.parent_id == 0 {
            continue;
        }
        let parent = spans
            .iter()
            .find(|p| p.span_id == s.parent_id)
            .unwrap_or_else(|| panic!("span {} has a dangling parent", s.name));
        assert!(
            s.start_ns >= parent.start_ns && s.end_ns <= parent.end_ns,
            "span {} [{}, {}] escapes its parent {} [{}, {}]",
            s.name,
            s.start_ns,
            s.end_ns,
            parent.name,
            parent.start_ns,
            parent.end_ns
        );
    }
}

/// Randomized CDSS instances swept across ExecMode × Parallelism: every
/// traced run yields a well-formed span tree under one root, and the
/// batch executor additionally records per-operator spans that survive
/// the morsel worker pool's context hand-off.
#[test]
fn span_trees_are_well_formed_across_executors_and_parallelism() {
    trace::set_enabled(true);
    let mut rng = SplitMix64::seed_from_u64(0x0B5E);
    const MODES: [ExecMode; 3] = [ExecMode::Batch, ExecMode::Row, ExecMode::NestedLoop];
    const PARS: [Parallelism; 2] = [Parallelism::Serial, Parallelism::Threads(4)];
    for _case in 0..3 {
        let peers = rng.gen_range_usize(3, 5);
        let base = rng.gen_range_usize(8, 30);
        let sys =
            build_system(Topology::Chain, &CdssConfig::upstream_data(peers, 2, base)).unwrap();
        for mode in MODES {
            for par in PARS {
                let engine = Engine::with_options(
                    sys.clone(),
                    EngineOptions {
                        exec_mode: mode,
                        parallelism: par,
                        ..EngineOptions::default()
                    },
                );
                let root = trace::span("test.case");
                let trace_id = root.trace_id().expect("tracing is enabled");
                let out = engine.query(target_query()).unwrap();
                assert!(!out.projection.bindings.is_empty());
                drop(root);
                let spans = trace::spans_for_trace(trace_id);
                assert_well_formed(&spans, trace_id);
                assert!(
                    spans.iter().any(|s| s.name == "execute"),
                    "engine must record an execute span ({mode:?}, {par:?})"
                );
                assert!(
                    spans.iter().any(|s| s.name == "rule"),
                    "unfold execution must record rule spans ({mode:?}, {par:?})"
                );
                if mode == ExecMode::Batch {
                    assert!(
                        spans.iter().any(|s| s.name.starts_with("op.")),
                        "batch execution must record operator spans ({par:?})"
                    );
                }
            }
        }
    }
}

/// A traced prepare carries its time split by phase as fields of the one
/// `prepare` span: translate, and compile and optimize summed over the
/// unfolded rules. The phases run inside the span, one after another, so
/// together they fit in its duration.
#[test]
fn prepare_span_splits_time_by_phase() {
    trace::set_enabled(true);
    let sys = build_system(Topology::Chain, &CdssConfig::all_data(4, 10)).unwrap();
    let engine = Engine::new(sys);
    let root = trace::span("test.prepare");
    let trace_id = root.trace_id().expect("tracing is enabled");
    engine.prepare(target_query()).unwrap();
    drop(root);
    let spans = trace::spans_for_trace(trace_id);
    let prepare = spans
        .iter()
        .find(|s| s.name == "prepare")
        .expect("prepare records a span");
    let field = |key: &str| -> u128 {
        let v = prepare
            .fields
            .iter()
            .find(|(k, _)| *k == key)
            .unwrap_or_else(|| panic!("prepare span lacks {key}"));
        v.1.parse()
            .unwrap_or_else(|_| panic!("{key} = {:?} is not a count", v.1))
    };
    let phases_us = field("translate_us") + field("compile_us") + field("optimize_us");
    let span_us = u128::from(prepare.end_ns - prepare.start_ns) / 1000;
    assert!(
        phases_us <= span_us,
        "phases take {phases_us} us of a {span_us} us span"
    );
    assert!(field("rules") > 0);
}

/// `EXPLAIN ANALYZE` actuals agree exactly with the result sizes of a
/// plain run — which itself is digest-checked against a second plain
/// run, so the counts being compared are the counts being served — under
/// every executor and parallelism setting. Only the batch executor
/// profiles operators; the row executors render estimate-only lines.
#[test]
fn explain_analyze_actuals_match_digest_checked_result_sizes() {
    let sys = build_system(Topology::Chain, &CdssConfig::upstream_data(4, 2, 20)).unwrap();
    let q = target_query();
    for mode in [ExecMode::Batch, ExecMode::Row, ExecMode::NestedLoop] {
        for par in [Parallelism::Serial, Parallelism::Threads(4)] {
            let engine = Engine::with_options(
                sys.clone(),
                EngineOptions {
                    exec_mode: mode,
                    parallelism: par,
                    ..EngineOptions::default()
                },
            );
            let a = engine.query(q).unwrap();
            let b = engine.query(q).unwrap();
            assert_eq!(
                result_digest(&a),
                result_digest(&b),
                "{mode:?}/{par:?}: plain runs must agree"
            );

            let analyzed = engine.query(&format!("EXPLAIN ANALYZE {q}")).unwrap();
            let plan = analyzed.plan.expect("EXPLAIN ANALYZE renders a plan");
            // Per-operator annotations: estimates, and for the batch
            // executor actuals side by side on every operator line.
            assert!(
                plan.contains("~"),
                "{mode:?}/{par:?}: estimates missing: {plan}"
            );
            let op_lines: Vec<&str> = plan
                .lines()
                .filter(|l| l.contains(" rows") && l.contains('~') && !l.starts_with("rule "))
                .collect();
            assert!(
                !op_lines.is_empty(),
                "{mode:?}/{par:?}: no operators: {plan}"
            );
            if mode == ExecMode::Batch {
                assert!(
                    plan.contains(" actual "),
                    "{par:?}: actuals missing: {plan}"
                );
                assert!(
                    op_lines.iter().all(|l| l.contains(" actual ")),
                    "{par:?}: an operator line lacks actuals: {plan}"
                );
            } else {
                assert!(
                    !plan.contains(" actual "),
                    "{mode:?}/{par:?}: row executors report no operator stats: {plan}"
                );
            }
            // The footer's totals must match the served result exactly.
            let footer = plan
                .lines()
                .find(|l| l.starts_with("actual: "))
                .unwrap_or_else(|| panic!("{mode:?}/{par:?}: no actual totals footer: {plan}"));
            let nums: Vec<u64> = footer
                .split(|c: char| !c.is_ascii_digit())
                .filter(|t| !t.is_empty())
                .take(2)
                .map(|t| t.parse().unwrap())
                .collect();
            assert_eq!(
                nums[0],
                a.projection.bindings.len() as u64,
                "{mode:?}/{par:?}: binding rows diverge: {footer}"
            );
            assert_eq!(
                nums[1],
                a.projection.derivation_count() as u64,
                "{mode:?}/{par:?}: derivation rows diverge: {footer}"
            );
            // ANALYZE is still an EXPLAIN: it must not serve result rows.
            assert!(analyzed.projection.bindings.is_empty());
        }
    }

    // Parsing accepts the keyword only after EXPLAIN.
    assert!(
        parse_query(&format!("EXPLAIN ANALYZE {q}"))
            .unwrap()
            .analyze
    );
    assert!(!parse_query(&format!("EXPLAIN {q}")).unwrap().analyze);
    assert!(parse_query(&format!("ANALYZE {q}")).is_err());
}

/// A pipelined binary batch — executed out of order on the worker pool
/// and reordered by the reorder buffer — must reconstruct as one span
/// tree under the connection's trace, retrievable via the TRACE verb.
#[test]
fn pipelined_binary_batch_reconstructs_as_one_trace() {
    trace::set_enabled(true);
    let sys = build_system(Topology::Chain, &CdssConfig::upstream_data(3, 2, 12)).unwrap();
    let core = Arc::new(ServiceCore::new(sys, EngineOptions::default()));
    let server = serve(Arc::clone(&core), "127.0.0.1:0", 4).unwrap();

    const PIPELINED: usize = 6;
    let mut client = BinClient::connect(server.addr()).unwrap();
    // Distinct WHERE bounds keep every request a genuine execution (no
    // result-cache hit), so each request span carries a full subtree.
    let queries: Vec<String> = (0..PIPELINED)
        .map(|i| format!("FOR [R0a $x] INCLUDE PATH [$x] <-+ [] WHERE $x.k >= {i} RETURN $x"))
        .collect();
    let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
    // One batched write; responses drain in request order, so by the
    // last recv every request span has been recorded.
    let payloads = client.pipeline_queries(&refs).unwrap();
    assert_eq!(payloads.len(), PIPELINED);
    for p in &payloads {
        assert_eq!(json_str_field(p, "cache").as_deref(), Some("miss"));
    }

    // The server runs in-process: find the connection's trace in the
    // ring — the one holding this batch's request spans — and check it
    // is a single well-formed tree with every request at the root.
    let all = trace::snapshot();
    let trace_id = all
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.trace_id)
        .find(|&t| {
            all.iter()
                .filter(|s| s.name == "request" && s.trace_id == t)
                .count()
                >= PIPELINED
        })
        .expect("the batch's requests must share one trace id");
    let spans = trace::spans_for_trace(trace_id);
    assert_well_formed(&spans, trace_id);
    let requests: Vec<_> = spans.iter().filter(|s| s.name == "request").collect();
    assert!(requests.len() >= PIPELINED);
    for r in &requests {
        assert_eq!(r.parent_id, 0, "request spans root at the connection");
        assert!(
            spans
                .iter()
                .any(|s| s.parent_id == r.span_id && s.name == "service.query"),
            "each request must nest its service.query span"
        );
    }

    // And the same tree is visible over the wire.
    let traces = client.trace(8).unwrap();
    assert!(traces.starts_with("{\"traces\": ["), "{traces}");
    assert!(traces.contains("\"name\": \"request\""), "{traces}");
    assert!(
        traces.contains(&format!("\"trace_id\": {trace_id}")),
        "{traces}"
    );
    drop(client);
    server.shutdown();
}
