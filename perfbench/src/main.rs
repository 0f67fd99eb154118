//! One ProQL benchmark: ad-hoc unfolding, semiring annotation, cache-hit
//! serving and writes beside reads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `adhoc_unfold`, `annotate_semiring` (in-process `Engine`),
//! `serve_churn` and `serve_hot` (TCP `serve` + line-protocol `Client`).
//! `BENCHMARK.json` lists `adhoc_unfold` and `serve_churn`, which between
//! them call every layer. `annotate_semiring` and `serve_hot` run on
//! request only: on a shared 2-core host their figures spread too widely
//! from run to run for a bound of 0.25 within the time a run may take.
//! Every input is generated from `--seed`. Every run checks its answers
//! and prints each metric on a `metric` line, then one JSON result line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A failed output check makes the run exit with code 1.
//!
//! The engine runs with `EngineOptions::default()` after every `PROQL_*`
//! variable has been removed from the environment, so a change to a
//! library default is measured as users get it.

mod inproc;
mod layers;
mod report;
mod served;
mod spans;

use std::process::ExitCode;
use std::time::Instant;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Each run sets its workload up at least `SETUP_MIN_REPEATS` times and
/// until `SETUP_MIN_SECONDS` have passed; `setup_s` is the median.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 50;
const SETUP_MIN_SECONDS: f64 = 1.0;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Remove every `PROQL_*` variable before any engine or core is built:
/// `EngineOptions::default` reads `PROQL_THREADS`, `Table::new` reads
/// `PROQL_DICT`, and the service reads `PROQL_TRACE*`.
fn clear_proql_env() {
    let names: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("PROQL_"))
        .collect();
    for name in names {
        std::env::remove_var(name);
    }
}

/// Median time of repeated runs of `setup`, and the state the last one
/// built (each earlier state is dropped before the next run starts).
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut state = None;
    while times.len() < SETUP_MIN_REPEATS
        || (times.len() < SETUP_MAX_REPEATS && times.iter().sum::<f64>() < SETUP_MIN_SECONDS)
    {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    println!("samples setups={}", times.len());
    (report::median(times), state.expect("at least one setup"))
}

fn main() -> ExitCode {
    clear_proql_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", report::host_line());
    println!(
        "run workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let outcome = match args.workload.as_str() {
        "adhoc_unfold" => inproc::adhoc_unfold(&args),
        "annotate_semiring" => inproc::annotate_semiring(&args),
        "serve_hot" => served::serve_hot(&args),
        "serve_churn" => served::serve_churn(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    report::print(&outcome, args.trace);
    if outcome.mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} output checks failed",
            outcome.mismatches.len()
        );
        ExitCode::FAILURE
    }
}
