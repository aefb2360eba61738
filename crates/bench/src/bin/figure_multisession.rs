//! Multi-session throughput and warm-session responsiveness of the
//! shared [`CompilerService`].
//!
//! Two experiments over the 16 golden benchmarks:
//!
//! * **Throughput** — 1, 2, 4 and 8 concurrent sessions, each on its
//!   own thread against one shared service, load every benchmark and
//!   call each entry point repeatedly. We report aggregate calls/sec
//!   per session count. Every session's *first* call of each benchmark
//!   is digested and must be bitwise-identical to a solo single-session
//!   engine running the same program order — which rules out stale
//!   executions and cross-session leakage under contention.
//!
//! * **Warm sessions** — first-call latency of a fresh session on a
//!   service where another session already compiled the benchmark,
//!   vs. a cold session on a fresh service. Sessions with matching
//!   source share compiled versions through the repository's
//!   closure-hash namespaces, so the warm first call dispatches
//!   straight into compiled code: the acceptance target is a median
//!   warm/cold ratio ≤ 0.5, with bitwise-identical results.
//!
//! ```text
//! cargo run --release -p majic-bench --bin figure_multisession -- \
//!     [--scale X] [--runs N] [--json PATH]
//! ```
//!
//! With `--json PATH` the numbers are also written as a JSON document
//! (consumed by CI as a workflow artifact).

use majic::{CompilerService, ExecMode, Majic, Value};
use majic_bench::{all, harness, Benchmark};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SESSION_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Calls per benchmark per session in the throughput window. Only the
/// first call is digested: `rand`-driven benchmarks advance their
/// per-session generator on every call, so repeats legitimately
/// differ — but the first calls replay the solo engine's exact
/// program order.
const REPS: usize = 3;

/// Solo ground truth: one single-session engine loads every benchmark
/// and calls each entry once, in order. Returns the result digest per
/// benchmark.
fn solo_digests(cfg: &harness::MeasureConfig, benches: &[Benchmark], scale: f64) -> Vec<u64> {
    let mut m = Majic::with_options(cfg.engine_options(ExecMode::Jit));
    for b in benches {
        m.load_source(b.source).expect("benchmark parses");
    }
    benches
        .iter()
        .map(|b| {
            let out = m
                .call(b.entry, &(b.args)(scale), 1)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            digest(&out)
        })
        .collect()
}

fn digest(out: &[Value]) -> u64 {
    out.first()
        .and_then(|v| v.to_scalar().ok())
        .unwrap_or(f64::NAN)
        .to_bits()
}

/// One throughput run: `n` concurrent sessions over a fresh shared
/// service. Returns (elapsed wall clock, total calls answered).
fn throughput_run(
    cfg: &harness::MeasureConfig,
    benches: &[Benchmark],
    scale: f64,
    expected: &[u64],
    n: usize,
) -> (Duration, usize) {
    let service = CompilerService::with_options(cfg.engine_options(ExecMode::Jit));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..n {
            let service = &service;
            scope.spawn(move || {
                let mut s = service.session();
                for b in benches {
                    s.load_source(b.source).expect("benchmark parses");
                }
                for rep in 0..REPS {
                    for (k, b) in benches.iter().enumerate() {
                        let out = s
                            .call(b.entry, &(b.args)(scale), 1)
                            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
                        if rep == 0 {
                            assert_eq!(
                                digest(&out),
                                expected[k],
                                "{}: session result differs from the solo engine",
                                b.name
                            );
                        }
                    }
                }
            });
        }
    });
    let took = t0.elapsed();
    if n >= 2 {
        let stats = service.repository().stats();
        assert!(
            stats.shared_hits > 0,
            "identical-source sessions never shared compiled code (stats: {stats:?})"
        );
    }
    (took, n * benches.len() * REPS)
}

/// First-call latency of a session: load one benchmark, call it once.
fn first_call(s: &mut majic::Session, b: &Benchmark, args: &[Value]) -> (Duration, u64) {
    let t0 = Instant::now();
    s.load_source(b.source).expect("benchmark parses");
    let out = s
        .call(b.entry, args, 1)
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    (t0.elapsed(), digest(&out))
}

struct WarmRow {
    name: &'static str,
    cold: Duration,
    warm: Duration,
    ratio: f64,
}

fn main() {
    let _trace = harness::trace_from_env();
    let cfg = harness::config_from_args();
    let json_path: Option<PathBuf> = harness::arg_value("--json").map(PathBuf::from);
    // First-call latency is compile-dominated; a small problem size
    // isolates the share-vs-compile contrast. Override with --scale.
    let scale = cfg.scale.min(0.05);
    let best_of = cfg.runs.max(1);
    let benches = all();

    println!("Figure M: shared service, concurrent sessions (scale {scale:.2}, best of {best_of})");
    let expected = solo_digests(&cfg, &benches, scale);

    // Experiment 1: aggregate throughput by session count.
    println!(
        "\n{:<10} {:>12} {:>14}  results",
        "sessions", "wall (ms)", "calls/sec"
    );
    let mut throughput = Vec::new();
    for n in SESSION_COUNTS {
        let mut best = Duration::MAX;
        let mut calls = 0usize;
        for _ in 0..best_of {
            let (took, c) = throughput_run(&cfg, &benches, scale, &expected, n);
            if took < best {
                best = took;
                calls = c;
            }
        }
        let rate = calls as f64 / best.as_secs_f64().max(1e-9);
        println!(
            "{:<10} {:>12.3} {:>14.0}  bitwise-identical",
            n,
            best.as_secs_f64() * 1e3,
            rate
        );
        throughput.push((n, best, rate));
    }

    // Experiment 2: warm-session vs. cold-session first call.
    println!(
        "\n{:<10} {:>12} {:>12} {:>10}  results",
        "benchmark", "cold (ms)", "warm (ms)", "warm/cold"
    );
    let mut rows = Vec::new();
    for b in &benches {
        let args = (b.args)(scale);
        let mut cold = Duration::MAX;
        let mut warm = Duration::MAX;
        let mut d_cold = 0u64;
        let mut d_warm = 0u64;
        for _ in 0..best_of {
            // Cold: a fresh service has compiled nothing.
            {
                let service = CompilerService::with_options(cfg.engine_options(ExecMode::Jit));
                let (t, d) = first_call(&mut service.session(), b, &args);
                if t < cold {
                    cold = t;
                    d_cold = d;
                }
            }
            // Warm: another session on the same service already
            // compiled this benchmark; the new session shares it.
            {
                let service = CompilerService::with_options(cfg.engine_options(ExecMode::Jit));
                first_call(&mut service.session(), b, &args);
                let (t, d) = first_call(&mut service.session(), b, &args);
                if t < warm {
                    warm = t;
                    d_warm = d;
                }
            }
        }
        assert_eq!(
            d_cold, d_warm,
            "{}: warm session result differs from cold",
            b.name
        );
        let ratio = warm.as_secs_f64() / cold.as_secs_f64().max(1e-9);
        println!(
            "{:<10} {:>12.3} {:>12.3} {:>10.2}  bitwise-identical",
            b.name,
            cold.as_secs_f64() * 1e3,
            warm.as_secs_f64() * 1e3,
            ratio
        );
        rows.push(WarmRow {
            name: b.name,
            cold,
            warm,
            ratio,
        });
    }

    let mut ratios: Vec<f64> = rows.iter().map(|r| r.ratio).collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    println!("\nmedian warm / cold first-call latency: {median:.2} (target ≤ 0.50)");
    assert!(
        median <= 0.5,
        "warm sessions must at least halve first-call latency (median {median:.2})"
    );

    if let Some(path) = json_path {
        let mut out = String::from("{\n");
        out.push_str("  \"figure\": \"multisession\",\n");
        out.push_str(&format!("  \"scale\": {scale},\n"));
        out.push_str(&format!("  \"best_of\": {best_of},\n"));
        out.push_str(&format!("  \"reps\": {REPS},\n"));
        out.push_str("  \"throughput\": [\n");
        for (k, (n, best, rate)) in throughput.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"sessions\": {}, \"wall_ms\": {}, \"calls_per_sec\": {}}}{}\n",
                n,
                best.as_secs_f64() * 1e3,
                rate,
                if k + 1 < throughput.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"warm_median_ratio\": {median},\n"));
        out.push_str("  \"warm\": [\n");
        for (k, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"cold_ms\": {}, \"warm_ms\": {}, \"ratio\": {}, \"identical\": true}}{}\n",
                r.name,
                r.cold.as_secs_f64() * 1e3,
                r.warm.as_secs_f64() * 1e3,
                r.ratio,
                if k + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        std::fs::write(&path, out).expect("write json");
        println!("wrote {}", path.display());
    }
}
