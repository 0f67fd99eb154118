//! The served workloads: a TCP `serve` front end with two workers, driven
//! by line-protocol `Client`s from this process (at most two client
//! threads, one connection each).

use crate::inproc::oracle_digests;
use crate::layers;
use crate::report::{mean, median, peak_rss_mb, percentile, sorted, tail_resolved, Outcome};
use crate::spans::{self, Tracer};
use crate::{timed_setup, Args};
use proql::engine::EngineOptions;
use proql_cdss::topology::{build_system_with_island, CdssConfig, Topology};
use proql_cdss::workload::SwissProtLike;
use proql_common::rng::SplitMix64;
use proql_common::{Tuple, Value};
use proql_provgraph::ProvenanceSystem;
use proql_service::proto::{json_str_field, json_u64_field};
use proql_service::{result_digest, serve, Client, ServerHandle, ServiceCore, ServiceStats};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PEERS: usize = 4;
const DATA_PEER: usize = 3;
const BASE: usize = 200;
const ISLAND: usize = 64;
const WORKERS: usize = 2;
/// Texts per template; `serve_hot` draws from all of them.
const LITERALS: usize = 16;
/// `serve_churn`'s hot set takes every `CHURN_STRIDE`-th literal of each
/// template: 16 texts.
const CHURN_STRIDE: usize = 4;
/// Writes per second offered by `serve_churn`'s open-loop writer: half of
/// the 22/s one closed-loop writer sustained beside the reader on a 2-core
/// x86-64 host.
const WRITE_RATE: f64 = 11.0;
/// Requests replayed in-process by the traced run's probes.
const PROBE_QUERIES: usize = 20_000;
const PROBE_WRITES: usize = 40;

/// The four query templates of the served workloads, each with one numeric
/// literal.
fn template(t: usize, n: i64) -> String {
    let target =
        |cond: &str| format!("FOR [R0a $x] INCLUDE PATH [$x] <-+ [] WHERE {cond} RETURN $x");
    match t {
        0 => target(&format!("$x.k >= {n}")),
        1 => target(&format!("$x.k < {n}")),
        2 => target(&format!("$x.k <> {n}")),
        _ => format!(
            "EVALUATE DERIVABILITY OF {{ {} }}",
            target(&format!("$x.k >= {n}"))
        ),
    }
}

/// `4 × LITERALS` texts, template-major. The literals of a template are
/// evenly spaced over the keys from a seeded offset, so every seed gets
/// the same spread of answer sizes.
fn texts(rng: &mut SplitMix64) -> Vec<String> {
    let step = (BASE / LITERALS) as i64;
    let mut out = Vec::with_capacity(4 * LITERALS);
    for t in 0..4 {
        let offset = rng.gen_range_i64(0, step);
        out.extend((0..LITERALS as i64).map(|j| template(t, j * step + offset)));
    }
    out
}

fn system(seed: u64) -> ProvenanceSystem {
    let cfg = CdssConfig {
        seed,
        ..CdssConfig::new(PEERS, vec![DATA_PEER], BASE)
    };
    build_system_with_island(Topology::Chain, &cfg, ISLAND).expect("chain builds")
}

/// A running server over a warmed core.
struct Served {
    core: Arc<ServiceCore>,
    server: ServerHandle,
}

impl Served {
    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }
}

/// Set-up: build and exchange, start the server, warm both caches with
/// `warm`.
fn start(sys: ProvenanceSystem, warm: &[String]) -> Served {
    let core = Arc::new(ServiceCore::new(sys, EngineOptions::default()));
    let server = serve(Arc::clone(&core), "127.0.0.1:0", WORKERS).expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    for text in warm {
        client.query(text).expect("warm-up query");
    }
    Served { core, server }
}

/// What one closed-loop reader saw.
#[derive(Default)]
struct Reads {
    /// Latencies of untraced requests.
    latencies_ms: Vec<f64>,
    /// Latencies of traced requests.
    traced_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    sent: Vec<usize>,
    failed: u64,
    wrong: Vec<String>,
}

/// One closed-loop reader: picks texts uniformly until `deadline`. When
/// `expected` is given, every reply's digest must match it. With a
/// tracer, every other request runs inside spans.
fn read_loop(
    addr: SocketAddr,
    texts: &[String],
    expected: Option<&[u64]>,
    seed: u64,
    deadline: Instant,
    mut tracer: Option<&mut Tracer>,
) -> Reads {
    let mut client = Client::connect(addr).expect("reader connects");
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut r = Reads::default();
    while Instant::now() < deadline {
        let i = rng.gen_range_usize(0, texts.len());
        let traced = r.sent.len() % 2 == 1;
        let t0 = Instant::now();
        let reply = match tracer.as_deref_mut() {
            Some(tr) if traced => tr.request("request", |tr| {
                tr.span("client.query", |_| client.query(&texts[i]))
            }),
            _ => client.query(&texts[i]),
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        r.sent.push(i);
        match reply {
            Ok(json) => {
                if traced && tracer.is_some() {
                    r.traced_ms.push(ms);
                } else {
                    r.latencies_ms.push(ms);
                }
                if json_str_field(&json, "cache").as_deref() == Some("miss") {
                    r.miss_ms.push(ms);
                }
                let digest = json_u64_field(&json, "digest");
                if let Some(want) = expected.map(|e| e[i]) {
                    if digest != Some(want) {
                        r.wrong.push(format!(
                            "text {i}: reply digest {digest:?}, expected {want}"
                        ));
                    }
                }
            }
            Err(e) => {
                r.failed += 1;
                if !shed(&e.to_string()) {
                    r.wrong.push(format!("text {i} failed: {e}"));
                }
            }
        }
    }
    r
}

/// Whether an error reply is the server shedding load. A shed request
/// counts as failed; any other error is also a wrong answer, since the
/// oracle answers every workload text.
fn shed(reply: &str) -> bool {
    reply.contains("overloaded")
}

fn merge(into: &mut Reads, r: Reads) {
    into.latencies_ms.extend(r.latencies_ms);
    into.traced_ms.extend(r.traced_ms);
    into.miss_ms.extend(r.miss_ms);
    into.sent.extend(r.sent);
    into.failed += r.failed;
    into.wrong.extend(r.wrong);
}

/// Query-latency metrics of a served run; `wall_s` is the window length.
fn report_reads(out: &mut Outcome, setup_s: f64, reads: &Reads, wall_s: f64) {
    let n = reads.latencies_ms.len();
    let lat = sorted(reads.latencies_ms.clone());
    out.set("setup_s", setup_s);
    out.set("qps", n as f64 / wall_s);
    out.set("query_p50_ms", percentile(&lat, 0.5));
    out.set("query_p90_ms", percentile(&lat, 0.9));
    if tail_resolved(n, 0.99) {
        out.extra("query_p99_ms", "ms", percentile(&lat, 0.99));
    }
    out.set("peak_rss_mb", peak_rss_mb());
    println!("samples queries={n}");
}

fn absorb(out: &mut Outcome, reads: &Reads) {
    out.attempted += (reads.latencies_ms.len() + reads.traced_ms.len()) as u64 + reads.failed;
    out.failed += reads.failed;
    for w in &reads.wrong {
        out.mismatch(w.clone());
    }
}

/// Counter deltas of the service between two stats snapshots.
struct StatsDelta {
    cache_hits: u64,
    cache_misses: u64,
    plan_hits: u64,
    plan_misses: u64,
    maint_hits: u64,
    maint_fallbacks: u64,
    writes: u64,
    shed: u64,
}

fn delta(a: &ServiceStats, b: &ServiceStats) -> StatsDelta {
    StatsDelta {
        cache_hits: b.cache.hits - a.cache.hits,
        cache_misses: b.cache.misses - a.cache.misses,
        plan_hits: b.plans.hits - a.plans.hits,
        plan_misses: b.plans.misses - a.plans.misses,
        maint_hits: b.cache.maint_hits - a.cache.maint_hits,
        maint_fallbacks: b.cache.maint_fallbacks - a.cache.maint_fallbacks,
        writes: b.writes - a.writes,
        shed: b.transport.shed_count - a.transport.shed_count,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `serve_hot` — cache-hit serving: two closed-loop clients pick uniformly
/// from 64 texts (4 templates × 16 literals) over a 4-peer chain with data
/// at peer 3 (base 200) plus the unrelated island. No writes. The working
/// set fits the result cache (1024) and the plan cache (256), so after
/// warm-up it measures only `transport` and the `service` result-cache
/// lookup; prepare, exec and write-path changes should not move it.
pub fn serve_hot(args: &Args) -> Outcome {
    let mut rng = SplitMix64::seed_from_u64(args.seed);
    let texts = texts(&mut rng);
    let (setup_s, served) = timed_setup(|| start(system(args.seed), &texts));
    let addr = served.addr();
    let mut out = Outcome::default();
    let expected = oracle_digests(&served.core.snapshot().engine.sys, &texts);

    let before = served.core.stats();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut tracers: Vec<Tracer> = (0..2u64).map(|c| Tracer::new(start, c << 40)).collect();
    let mut reads = Reads::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .enumerate()
            .map(|(c, tr)| {
                let (texts, expected) = (&texts, &expected);
                let seed = args.seed ^ (0x9e37_79b9 * (c as u64 + 1));
                let tr = args.trace.then_some(tr);
                s.spawn(move || read_loop(addr, texts, Some(expected), seed, deadline, tr))
            })
            .collect();
        for h in handles {
            merge(&mut reads, h.join().expect("reader thread"));
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    absorb(&mut out, &reads);
    if !args.trace {
        report_reads(&mut out, setup_s, &reads, wall_s);
        return out;
    }
    let d = delta(&before, &served.core.stats());
    let refs: Vec<&Tracer> = tracers.iter().collect();
    let tcp_p50_ms = median(reads.latencies_ms.clone());
    out.set(
        "trace.overhead_ms",
        mean(&reads.traced_ms) - mean(&reads.latencies_ms),
    );

    let mut probe = Tracer::new(Instant::now(), 1 << 50);
    let sent = &reads.sent;
    transport_probe(
        &mut out,
        &mut probe,
        &served.core,
        &texts,
        sent,
        &expected,
        tcp_p50_ms,
    );
    out.set(
        "service.cache_hit_ratio",
        ratio(d.cache_hits, d.cache_hits + d.cache_misses),
    );
    out.set("transport.shed", d.shed as f64);
    let mut all = refs;
    all.push(&probe);
    spans::save(args, &all);
    out
}

/// Replay the readers' text sequence in-process on the same warm core and
/// report `service.query_us` (its p50) and `transport.overhead_us` (the
/// TCP p50 minus it). Every answer must digest to `expected`.
fn transport_probe(
    out: &mut Outcome,
    probe: &mut Tracer,
    core: &ServiceCore,
    texts: &[String],
    sent: &[usize],
    expected: &[u64],
    tcp_p50_ms: f64,
) {
    let mut inproc_ms = Vec::new();
    for &i in sent.iter().take(PROBE_QUERIES) {
        let t0 = Instant::now();
        let answer = probe.request("service.query", |_| core.query(&texts[i]));
        inproc_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match answer {
            Ok(a) => out.check(result_digest(&a.output) == expected[i], || {
                format!("in-process text {i}: digest differs from the oracle")
            }),
            Err(e) => out.mismatch(format!("in-process text {i} failed: {e}")),
        }
    }
    let inproc_p50_ms = median(inproc_ms);
    out.set("service.query_us", inproc_p50_ms * 1e3);
    out.set("transport.overhead_us", (tcp_p50_ms - inproc_p50_ms) * 1e3);
}

/// One point write of `serve_churn`.
#[derive(Debug, Clone)]
enum Write {
    Insert(&'static str, Tuple),
    Delete(&'static str, Tuple),
}

impl Write {
    fn line(&self) -> String {
        let (verb, rel, t) = match self {
            Write::Insert(r, t) => ("INSERT", r, t),
            Write::Delete(r, t) => ("DELETE", r, t),
        };
        let values: Vec<String> = t
            .iter()
            .map(|v| match v {
                Value::Int(i) => i.to_string(),
                other => panic!("workload tuples hold integers, got {other:?}"),
            })
            .collect();
        format!("{verb} {rel} {}", values.join(","))
    }
}

/// The seeded write sequence: fresh entries at the data peer, each
/// inserted (both halves, each with its exchange) and then deleted again,
/// so table sizes stay steady.
fn write_plan(seed: u64, first_key: i64, n: usize) -> Vec<Write> {
    let mut gen = SwissProtLike::new(seed ^ 0x5eed_c4a7, SwissProtLike::ATTRS);
    let mut ops = Vec::with_capacity(n + 4);
    let mut key = first_key;
    while ops.len() < n {
        let (a, b) = gen.entry(key);
        let k = Tuple::new(vec![Value::Int(key)]);
        ops.push(Write::Insert("R3a", a));
        ops.push(Write::Insert("R3b", b));
        ops.push(Write::Delete("R3a", k.clone()));
        ops.push(Write::Delete("R3b", k));
        key += 1;
    }
    ops
}

/// What the open-loop writer saw: latency from when each write was due,
/// and how late each was sent.
#[derive(Default)]
struct Writes {
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    failed: u64,
    wrong: Vec<String>,
}

/// The open-loop writer: write `k` is due at `start + k / WRITE_RATE`,
/// sent as soon as it is due and the previous reply is in.
fn write_loop(
    addr: SocketAddr,
    plan: &[Write],
    start: Instant,
    deadline: Instant,
    mut tracer: Option<&mut Tracer>,
) -> Writes {
    let mut client = Client::connect(addr).expect("writer connects");
    let mut w = Writes::default();
    for (k, op) in plan.iter().enumerate() {
        let due = start + Duration::from_secs_f64(k as f64 / WRITE_RATE);
        if due >= deadline || Instant::now() >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        w.late_ms
            .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        let line = op.line();
        let reply = match tracer.as_deref_mut() {
            Some(tr) => tr.request("write", |tr| {
                tr.span("client.write", |_| client.request(&line))
            }),
            None => client.request(&line),
        };
        w.latencies_ms.push(due.elapsed().as_secs_f64() * 1e3);
        match reply {
            Ok(r) if r.starts_with("OK ") => {}
            Ok(r) => {
                w.failed += 1;
                if !shed(&r) {
                    w.wrong.push(format!("write {k} ({line}) answered {r}"));
                }
            }
            Err(e) => {
                w.failed += 1;
                w.wrong.push(format!("write {k} ({line}) failed: {e}"));
            }
        }
    }
    w
}

/// `serve_churn` — writes beside reads, on `serve_hot`'s server and data:
/// one closed-loop reader over 16 hot texts plus one open-loop writer at
/// `WRITE_RATE` that inserts fresh entries at peer 3 and deletes them
/// again. Every write touches every hot answer, so each runs `provgraph`
/// exchange, the graph patch and `service` maintenance of every cached
/// answer on the write path. Write latency counts from when each write
/// was due.
pub fn serve_churn(args: &Args) -> Outcome {
    let mut rng = SplitMix64::seed_from_u64(args.seed);
    let all = texts(&mut rng);
    let hot: Vec<String> = all.iter().step_by(CHURN_STRIDE).cloned().collect();
    let (setup_s, (initial, served)) = timed_setup(|| {
        let sys = system(args.seed);
        (sys.clone(), start(sys, &hot))
    });
    let addr = served.addr();
    let mut out = Outcome::default();
    let plan = write_plan(
        args.seed,
        BASE as i64,
        (args.seconds * WRITE_RATE) as usize + 4,
    );

    let before = served.core.stats();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut tracers: Vec<Tracer> = (0..2u64).map(|c| Tracer::new(start, c << 40)).collect();
    let (rt, wt) = tracers.split_at_mut(1);
    let (rt, wt) = (
        args.trace.then_some(&mut rt[0]),
        args.trace.then_some(&mut wt[0]),
    );
    let (reads, writes) = std::thread::scope(|s| {
        let (hot, plan) = (&hot, &plan);
        let reader = s.spawn(move || read_loop(addr, hot, None, args.seed, deadline, rt));
        let writer = s.spawn(move || write_loop(addr, plan, start, deadline, wt));
        (
            reader.join().expect("reader thread"),
            writer.join().expect("writer thread"),
        )
    });
    let wall_s = start.elapsed().as_secs_f64();
    let after = served.core.stats();
    let written = writes.latencies_ms.len();
    absorb(&mut out, &reads);
    absorb_writes(&mut out, &writes);
    let quiesced = check_quiesced(&mut out, &served, addr, &hot);

    if !args.trace {
        report_reads(&mut out, setup_s, &reads, wall_s);
        let lat = sorted(writes.latencies_ms.clone());
        out.extra("write_p50_ms", "ms", percentile(&lat, 0.5));
        if tail_resolved(lat.len(), 0.9) {
            out.extra("write_p90_ms", "ms", percentile(&lat, 0.9));
        }
        println!("samples writes={written} rate={WRITE_RATE}/s");
        return out;
    }

    let d = delta(&before, &after);
    let refs: Vec<&Tracer> = tracers.iter().collect();
    out.set(
        "trace.overhead_ms",
        mean(&reads.traced_ms) - mean(&reads.latencies_ms),
    );
    out.set(
        "service.maint_per_write",
        ratio(d.maint_hits + d.maint_fallbacks, d.writes),
    );
    out.set(
        "service.maint_fallback_ratio",
        ratio(d.maint_fallbacks, d.maint_hits + d.maint_fallbacks),
    );
    out.set(
        "service.cache_hit_ratio",
        ratio(d.cache_hits, d.cache_hits + d.cache_misses),
    );
    out.set(
        "service.plan_hit_ratio",
        ratio(d.plan_hits, d.plan_hits + d.plan_misses),
    );
    out.set("service.miss_ms", median(reads.miss_ms.clone()));
    out.set("load.write_late_ms", mean(&writes.late_ms));
    out.set("transport.shed", d.shed as f64);

    // The reader's sequence again, in-process on the quiesced core (every
    // answer a cache hit at the final version).
    let mut probe = Tracer::new(Instant::now(), 1 << 50);
    let tcp_p50_ms = median(reads.latencies_ms.clone());
    let sent = &reads.sent;
    transport_probe(
        &mut out,
        &mut probe,
        &served.core,
        &hot,
        sent,
        &quiesced,
        tcp_p50_ms,
    );

    // The write sequence again, in-process: on a warmed core, and on a bare
    // system where only the exchange (or the deletion cascade) runs.
    let replay = &plan[..written.min(PROBE_WRITES)];
    let core = ServiceCore::new(initial.clone(), EngineOptions::default());
    let mut sys = initial;
    for op in replay {
        for text in &hot {
            core.query(text).expect("probe warm-up query");
        }
        let applied = probe.request("service.write", |_| match op {
            Write::Insert(r, t) => core.insert_and_exchange(r, t.clone()).map(|_| ()),
            Write::Delete(r, k) => core.delete(r, k).map(|_| ()),
        });
        if let Err(e) = applied {
            out.mismatch(format!("in-process write {} failed: {e}", op.line()));
        }
        let graph = match op {
            Write::Delete(..) => Some(layers::decode_graph(&sys).expect("graph decodes")),
            Write::Insert(..) => None,
        };
        let exchanged = probe.request("provgraph.exchange", |_| match op {
            Write::Insert(r, t) => layers::insert_and_exchange(&mut sys, r, t.clone()),
            Write::Delete(r, k) => layers::delete(&mut sys, graph.as_ref().expect("decoded"), r, k),
        });
        if let Err(e) = exchanged {
            out.mismatch(format!("bare-system write {} failed: {e}", op.line()));
        }
    }
    let probe_ms = |name: &str| {
        let spans: Vec<f64> = probe
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        median(spans)
    };
    out.set("service.write_ms", probe_ms("service.write"));
    out.set("provgraph.exchange_ms", probe_ms("provgraph.exchange"));
    let mut all = refs;
    all.push(&probe);
    spans::save(args, &all);
    out
}

fn absorb_writes(out: &mut Outcome, w: &Writes) {
    out.attempted += w.latencies_ms.len() as u64;
    out.failed += w.failed;
    for e in &w.wrong {
        out.mismatch(e.clone());
    }
}

/// After the load stops: every hot answer served must equal a fresh
/// engine's answer over the published snapshot, and the maintained
/// provenance graph must equal one decoded from scratch.
fn check_quiesced(
    out: &mut Outcome,
    served: &Served,
    addr: SocketAddr,
    hot: &[String],
) -> Vec<u64> {
    let snap = served.core.snapshot();
    let expected = oracle_digests(&snap.engine.sys, hot);
    let mut client = Client::connect(addr).expect("checker connects");
    for (i, text) in hot.iter().enumerate() {
        let digest = client
            .query(text)
            .ok()
            .and_then(|j| json_u64_field(&j, "digest"));
        out.check(digest == Some(expected[i]), || {
            format!(
                "after quiescing, hot text {i} digest {digest:?} != fresh engine {}",
                expected[i]
            )
        });
    }
    let rebuilt = layers::decode_graph(&snap.engine.sys)
        .expect("graph decodes")
        .digest();
    let served_digest = served.core.graph_digest();
    out.check(served_digest == rebuilt, || {
        format!("graph digest {served_digest} != from-scratch graph {rebuilt}")
    });
    expected
}
