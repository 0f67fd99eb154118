//! The in-process workloads: one closed-loop caller on an `Engine`.

use crate::layers;
use crate::report::{mean, peak_rss_mb, percentile, sorted, Outcome};
use crate::spans::{self, layer_times, Tracer};
use crate::{timed_setup, Args};
use proql::engine::{Engine, EngineOptions, PreparedQuery};
use proql_cdss::topology::{build_system, target_query, CdssConfig, Topology};
use proql_common::rng::SplitMix64;
use proql_common::{Parallelism, Result};
use proql_provgraph::ProvenanceSystem;
use proql_service::result_digest;
use proql_storage::ExecMode;
use std::time::Instant;

/// Unfolded rules of the target query on a 6-peer chain with data at every
/// peer (the paper's Figure 7 stress case).
const ADHOC_RULES: usize = 122;

/// The WHERE-filtered variants of the target query, with literals drawn
/// from the seed. Each keeps at least 95% of the keys, so every text costs
/// about as much as the target query and the latency distribution has no
/// gap for a percentile to straddle.
fn filtered_targets(rng: &mut SplitMix64, base: i64) -> [String; 3] {
    let lo = rng.gen_range_i64(1, base / 20);
    let hi = rng.gen_range_i64(base - base / 20, base);
    let ne = rng.gen_range_i64(0, base);
    [
        format!("FOR [R0a $x] INCLUDE PATH [$x] <-+ [] WHERE $x.k >= {lo} RETURN $x"),
        format!("FOR [R0a $x] INCLUDE PATH [$x] <-+ [] WHERE $x.k < {hi} RETURN $x"),
        format!("FOR [R0a $x] INCLUDE PATH [$x] <-+ [] WHERE $x.k <> {ne} RETURN $x"),
    ]
}

/// Digest of each text's answer under the oracle: a fresh engine over
/// `sys` with the serial row-at-a-time executor.
pub fn oracle_digests(sys: &ProvenanceSystem, texts: &[String]) -> Vec<u64> {
    let options = EngineOptions {
        exec_mode: ExecMode::Row,
        parallelism: Parallelism::Serial,
        ..EngineOptions::default()
    };
    let oracle = Engine::with_options(sys.clone(), options);
    texts
        .iter()
        .map(|t| result_digest(&oracle.query(t).expect("oracle answers every workload text")))
        .collect()
}

/// Samples a closed loop takes at least, so that ten lie beyond its p90.
const MIN_SAMPLES: usize = 100;

/// Latencies (ms) of one closed-loop caller that cycles through `n` texts
/// until `seconds` of call time have been spent and at least
/// `MIN_SAMPLES` calls made. `call(pass, text)` runs one text and returns
/// the answer's digest; checking it is not timed.
fn closed_loop(
    seconds: f64,
    n: usize,
    first: usize,
    expected: &[u64],
    out: &mut Outcome,
    mut call: impl FnMut(usize, usize) -> (f64, Result<u64>),
) -> Vec<f64> {
    let mut latencies = Vec::new();
    let mut busy = 0.0;
    let mut i = first;
    while busy < seconds * 1e3 || latencies.len() < MIN_SAMPLES {
        let text = i % n;
        let (ms, digest) = call(i / n, text);
        busy += ms;
        out.attempted += 1;
        match digest {
            Ok(d) => out.check(d == expected[text], || {
                format!(
                    "text {text}: digest {d} differs from the oracle's {}",
                    expected[text]
                )
            }),
            Err(e) => {
                out.failed += 1;
                out.mismatch(format!("text {text} failed: {e}"));
            }
        }
        latencies.push(ms);
        i += 1;
    }
    latencies
}

/// The end-to-end metrics of a closed loop with one caller.
fn report_loop(out: &mut Outcome, setup_s: f64, latencies: Vec<f64>) {
    let n = latencies.len();
    let busy_s = latencies.iter().sum::<f64>() / 1e3;
    let lat = sorted(latencies);
    out.set("setup_s", setup_s);
    out.set("qps", n as f64 / busy_s);
    out.set("query_p50_ms", percentile(&lat, 0.5));
    out.set("query_p90_ms", percentile(&lat, 0.9));
    out.set("peak_rss_mb", peak_rss_mb());
    println!("samples queries={n}");
}

/// Per-request mean self time of each layer in `tracer`, stored under the
/// metric names of `names` (span name → metric name).
fn report_layers(out: &mut Outcome, tracer: &Tracer, names: &[(&str, &'static str)]) {
    let times = layer_times(tracer.spans());
    let requests = times.get("request").map_or(1, |t| t.count.max(1));
    for (span, metric) in names {
        let self_ns = times.get(span).map_or(0, |t| t.self_ns);
        out.set(metric, self_ns as f64 / 1e6 / requests as f64);
    }
}

/// Finish a traced run: tracing overhead (the mean traced request minus
/// the mean untraced one), then the spans written out.
fn finish_trace(out: &mut Outcome, args: &Args, tracer: &Tracer, untraced_ms: &[f64]) {
    let times = layer_times(tracer.spans());
    let traced_ms = times
        .get("request")
        .map_or(0.0, |t| t.total_ns as f64 / 1e6 / t.count.max(1) as f64);
    out.set("trace.overhead_ms", traced_ms - mean(untraced_ms));
    spans::save(args, &[tracer]);
}

/// The query of one text, split into layers for the traced run.
struct Split {
    query: proql::Query,
    translation: proql::Translation,
    rules: Vec<proql::exec::PreparedRule>,
}

/// `adhoc_unfold` — the paper's §6 measurement: cold `Engine::query` of
/// the target query and its WHERE-filtered and `EVALUATE DERIVABILITY`
/// variants, on the Figure 7 stress case (6-peer chain, data at every
/// peer, base 100, 122 unfolded rules). One closed-loop caller, no result
/// or plan cache: every request pays unfolding, compile + optimize and
/// execution, so it isolates `core` prepare and `storage` exec.
pub fn adhoc_unfold(args: &Args) -> Outcome {
    let cfg = CdssConfig {
        seed: args.seed,
        ..CdssConfig::all_data(6, 100)
    };
    let (setup_s, engine) = timed_setup(|| {
        let sys = build_system(Topology::Chain, &cfg).expect("chain builds");
        Engine::with_options(sys, EngineOptions::default())
    });
    let mut rng = SplitMix64::seed_from_u64(args.seed);
    let mut texts = vec![target_query().to_string()];
    texts.extend(filtered_targets(&mut rng, cfg.base_size as i64));
    texts.push(format!("EVALUATE DERIVABILITY OF {{ {} }}", target_query()));
    let first = rng.gen_range_usize(0, texts.len());

    let mut out = Outcome::default();
    let expected = oracle_digests(&engine.sys, &texts);
    let target = engine.query(target_query()).expect("target query runs");
    out.check(target.stats.translate.rules == ADHOC_RULES, || {
        format!(
            "target query unfolds to {} rules, expected {ADHOC_RULES}",
            target.stats.translate.rules
        )
    });
    out.check(target.projection.bindings.len() == cfg.base_size, || {
        format!(
            "target query returns {} bindings, expected {}",
            target.projection.bindings.len(),
            cfg.base_size
        )
    });
    drop(target);

    if !args.trace {
        let latencies = closed_loop(
            args.seconds,
            texts.len(),
            first,
            &expected,
            &mut out,
            |_, i| {
                let t0 = Instant::now();
                let answer = engine.query(&texts[i]);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                (ms, answer.map(|a| result_digest(&a)))
            },
        );
        report_loop(&mut out, setup_s, latencies);
        return out;
    }

    // Traced run: every other pass over the texts makes the same requests
    // through the layers one call at a time, inside spans.
    let sys = &engine.sys;
    let opts = &engine.options;
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut untraced_ms = Vec::new();
    closed_loop(
        args.seconds,
        texts.len(),
        first,
        &expected,
        &mut out,
        |pass, i| {
            if pass % 2 == 0 {
                let t0 = Instant::now();
                let answer = engine.query(&texts[i]);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                untraced_ms.push(ms);
                return (ms, answer.map(|a| result_digest(&a)));
            }
            let answer = tracer.request("request", |tr| -> Result<u64> {
                let q = tr.span("core.parse", |_| layers::parse(&texts[i]))?;
                let translation = tr.span("core.translate", |_| layers::unfold(sys, &q, opts))?;
                let rules =
                    tr.span("core.prepare_rules", |_| layers::prepare(sys, &translation))?;
                let proj = tr.span("core.exec", |_| {
                    layers::exec(sys, &translation, &rules, opts)
                })?;
                let ann = tr.span("core.annotate", |_| layers::annotate(sys, &q, &proj, opts))?;
                Ok(result_digest(&layers::output(proj, ann)))
            });
            (tracer.last_root_ms(), answer)
        },
    );
    report_layers(
        &mut out,
        &tracer,
        &[
            ("core.parse", "core.parse_ms"),
            ("core.translate", "core.translate_ms"),
            ("core.prepare_rules", "core.prepare_rules_ms"),
            ("core.exec", "core.exec_ms"),
            ("core.annotate", "core.annotate_ms"),
        ],
    );
    // Work counts, one pass over the texts: they repeat exactly per seed.
    let splits: Vec<Split> = texts
        .iter()
        .map(|t| split(sys, opts, t).expect("workload text prepares"))
        .collect();
    let mut counts = [0.0f64; 4];
    for s in &splits {
        let proj = layers::exec(sys, &s.translation, &s.rules, opts).expect("workload text runs");
        counts[0] += s.translation.stats.rules as f64;
        counts[1] += s.translation.stats.dropped as f64;
        counts[2] += proj.metrics.total_joins as f64;
        counts[3] += proj.metrics.rows as f64;
    }
    let n = texts.len() as f64;
    out.set("core.rules", counts[0] / n);
    out.set("core.rules_dropped", counts[1] / n);
    out.set("storage.joins", counts[2] / n);
    out.set("storage.rows", counts[3] / n);
    graph_probe(&mut out, sys, opts, &splits);
    finish_trace(&mut out, args, &tracer, &untraced_ms);
    out
}

/// For the texts with an `EVALUATE` clause: the time to decode the
/// answer's subgraph, which `core.annotate` does first, on its own; and
/// the size of the graph the semiring walks.
fn graph_probe(out: &mut Outcome, sys: &ProvenanceSystem, opts: &EngineOptions, splits: &[Split]) {
    let mut decode_ms = Vec::new();
    let mut tuples = 0;
    for s in splits.iter().filter(|s| s.query.evaluate.is_some()) {
        let proj = layers::exec(sys, &s.translation, &s.rules, opts).expect("workload text runs");
        for _ in 0..3 {
            let t0 = Instant::now();
            let g = layers::to_graph(sys, &proj).expect("subgraph decodes");
            decode_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            tuples += g.tuple_count();
        }
    }
    out.set("provgraph.to_graph_ms", mean(&decode_ms));
    out.set(
        "semiring.graph_tuples",
        tuples as f64 / decode_ms.len().max(1) as f64,
    );
}

fn split(sys: &ProvenanceSystem, opts: &EngineOptions, text: &str) -> Result<Split> {
    let query = layers::parse(text)?;
    let translation = layers::unfold(sys, &query, opts)?;
    let rules = layers::prepare(sys, &translation)?;
    Ok(Split {
        query,
        translation,
        rules,
    })
}

/// `annotate_semiring` — annotation cost: the target query on a 5-peer
/// chain with data at every peer (base 200), evaluated in each of six
/// semirings. Every text is prepared once during set-up and then run with
/// `Engine::execute` round-robin by one closed-loop caller, so unfolding
/// and compile + optimize are absent and the time is `storage` exec plus
/// `provgraph` decoding plus `semiring` evaluation. A change to prepare
/// alone should read "no change" here.
pub fn annotate_semiring(args: &Args) -> Outcome {
    const SEMIRINGS: [&str; 6] = [
        "POLYNOMIAL",
        "PROBABILITY",
        "COUNT",
        "LINEAGE",
        "WEIGHT",
        "DERIVABILITY",
    ];
    let cfg = CdssConfig {
        seed: args.seed,
        ..CdssConfig::all_data(5, 200)
    };
    let texts: Vec<String> = SEMIRINGS
        .iter()
        .map(|s| format!("EVALUATE {s} OF {{ {} }}", target_query()))
        .collect();
    let (setup_s, (engine, prepared)) = timed_setup(|| {
        let sys = build_system(Topology::Chain, &cfg).expect("chain builds");
        let engine = Engine::with_options(sys, EngineOptions::default());
        let prepared: Vec<PreparedQuery> = texts
            .iter()
            .map(|t| engine.prepare(t).expect("workload text prepares"))
            .collect();
        (engine, prepared)
    });
    let first = SplitMix64::seed_from_u64(args.seed).gen_range_usize(0, texts.len());

    let mut out = Outcome::default();
    let expected = oracle_digests(&engine.sys, &texts);
    let mut untraced_ms = Vec::new();
    let mut execute = |i: usize| {
        let t0 = Instant::now();
        let answer = engine.execute(&prepared[i]);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        untraced_ms.push(ms);
        (ms, answer.map(|a| result_digest(&a)))
    };
    if !args.trace {
        let latencies = closed_loop(
            args.seconds,
            texts.len(),
            first,
            &expected,
            &mut out,
            |_, i| execute(i),
        );
        report_loop(&mut out, setup_s, latencies);
        return out;
    }

    let sys = &engine.sys;
    let opts = &engine.options;
    let splits: Vec<Split> = texts
        .iter()
        .map(|t| split(sys, opts, t).expect("workload text prepares"))
        .collect();
    let mut tracer = Tracer::new(Instant::now(), 0);
    closed_loop(
        args.seconds,
        texts.len(),
        first,
        &expected,
        &mut out,
        |pass, i| {
            if pass % 2 == 0 {
                return execute(i);
            }
            let s = &splits[i];
            let answer = tracer.request("request", |tr| -> Result<u64> {
                let proj = tr.span("core.exec", |_| {
                    layers::exec(sys, &s.translation, &s.rules, opts)
                })?;
                let ann = tr.span("core.annotate", |_| {
                    layers::annotate(sys, &s.query, &proj, opts)
                })?;
                Ok(result_digest(&layers::output(proj, ann)))
            });
            (tracer.last_root_ms(), answer)
        },
    );
    report_layers(
        &mut out,
        &tracer,
        &[
            ("core.exec", "core.exec_ms"),
            ("core.annotate", "core.annotate_ms"),
        ],
    );
    graph_probe(&mut out, sys, opts, &splits);
    finish_trace(&mut out, args, &tracer, &untraced_ms);
    out
}
