//! Metric names, summary statistics and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run. A workload that makes
/// no call into a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.parse_ms", "ms"),
    ("core.translate_ms", "ms"),
    ("core.prepare_rules_ms", "ms"),
    ("core.exec_ms", "ms"),
    ("core.annotate_ms", "ms"),
    ("core.rules", "count"),
    ("core.rules_dropped", "count"),
    ("storage.joins", "count"),
    ("storage.rows", "count"),
    ("provgraph.to_graph_ms", "ms"),
    ("semiring.graph_tuples", "count"),
    ("service.query_us", "us"),
    ("transport.overhead_us", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("transport.shed", "count"),
    ("service.write_ms", "ms"),
    ("provgraph.exchange_ms", "ms"),
    ("service.maint_per_write", "count"),
    ("service.maint_fallback_ratio", "ratio"),
    ("service.plan_hit_ratio", "ratio"),
    ("service.miss_ms", "ms"),
    ("load.write_late_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed: an error reply, an overload shed or a
    /// timeout.
    pub failed: u64,
    /// Output checks that did not hold.
    pub mismatches: Vec<String>,
    /// Every measured value by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Metrics that only some workloads have, printed for reading but not
    /// part of the result line: (name, unit, value).
    pub extra: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn extra(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.extra.push((name, unit, value));
    }

    /// Record a failed output check; the run then reports
    /// `"correct": false` and exits non-zero.
    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 16 {
            eprintln!("output check failed: {what}");
        }
        self.mismatches.push(what);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatch(what());
        }
    }
}

/// Nearest-rank percentile of an ascending series (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of the `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps 0.9 * 100 at rank 90 despite rounding.
    (q * n as f64 - 1e-9).ceil() as usize
}

/// Sort a series ascending in place and return it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Whether at least ten samples of `n` lie above the `q` percentile.
pub fn tail_resolved(n: usize, q: f64) -> bool {
    n >= rank(n, q) + 10
}

pub fn median(v: Vec<f64>) -> f64 {
    percentile(&sorted(v), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host and build a result was measured on.
pub fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "host nproc={nproc} commit={} profile={profile}",
        git_commit()
    )
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` directory; `unknown` in a plain source tree.
fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Print every metric on its own line, then the result line: one JSON
/// object holding the end-to-end metrics (untraced) or the per-layer
/// metrics (traced).
pub fn print(outcome: &Outcome, traced: bool) {
    for (name, value) in &outcome.metrics {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| n == name)
            .map_or("", |(_, u)| *u);
        println!("metric {name} = {value} {unit}");
    }
    for (name, unit, value) in &outcome.extra {
        println!("metric {name} = {value} {unit}");
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "metric error_rate = {error_rate} ratio ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    let names = if traced { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.mismatches.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}

/// A finite JSON number with every digit as measured.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v[..1], 0.99), 1.0);
        assert!(tail_resolved(100, 0.9));
        assert!(!tail_resolved(99, 0.9));
        assert!(tail_resolved(1000, 0.99));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
