//! In-memory spans for the traced run.
//!
//! Each span records its name, start, end, parent span and request id.
//! Spans stay in memory while the run measures and are written out as
//! JSON lines when it ends. A layer's self time is its span's duration
//! minus the part of that interval its child spans cover.

use crate::Args;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same [`Tracer`].
    pub parent: Option<usize>,
    pub request: u64,
}

/// Span recorder for one thread of the benchmark.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`; request ids start
    /// at `first_request` so that recorders of several threads never share
    /// one.
    pub fn new(epoch: Instant, first_request: u64) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            request: first_request,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` as one request: a root span named `name` with a fresh
    /// request id, under which `f` opens the layer spans.
    pub fn request<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.request += 1;
        self.span(name, f)
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of the most recently finished root span, in ms.
    pub fn last_root_ms(&self) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .unwrap_or(0.0)
    }
}

/// Per span name: how many spans, their total duration and their total
/// self time, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Fold spans into per-name totals of duration and self time.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let total = s.end_ns - s.start_ns;
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += total;
        entry.self_ns += total.saturating_sub(covered_ns(kids, s.start_ns, s.end_ns));
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Write every span of every recorder, one JSON object per line, to
/// `perfbench/out/<workload>-seed<seed>.spans.jsonl`.
pub fn save(args: &Args, tracers: &[&Tracer]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    match write_jsonl(&path, tracers) {
        Ok(()) => println!("spans {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn write_jsonl(path: &std::path::Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, tracer) in tracers.iter().enumerate() {
        for (id, s) in tracer.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\": {thread}, \"id\": {id}, \"parent\": {parent}, \"request\": {}, \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            span("d", 12, 20, Some(1)),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["root"].self_ns, 100 - 40 - 10);
        assert_eq!(t["a"].self_ns, 30 - 8);
        assert_eq!(t["b"].self_ns, 20);
        assert_eq!(t["root"].total_ns, 100);
    }

    #[test]
    fn nested_spans_record_parents_and_requests() {
        let mut tr = Tracer::new(Instant::now(), 0);
        tr.request("req", |tr| tr.span("inner", |_| ()));
        tr.request("req", |_| ());
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[0].request, s[2].request), (1, 2));
    }
}
