//! Responsiveness of speculative compilation: first-call latency with
//! background spec workers on vs. off.
//!
//! The paper's motivation for speculation is *responsiveness* — the
//! optimizing compiler runs off the user's critical path. This figure
//! quantifies it. For every benchmark we measure the latency from
//! "sources loaded" to "first call answered" under three regimes:
//!
//! * `jit` — no speculation at all: the fast JIT compiles on the first
//!   miss (the responsiveness baseline).
//! * `spec-sync` — the seed behaviour: [`majic::Session::speculate_all`] blocks
//!   the session until every optimized version is built, *then* the
//!   call runs.
//! * `spec-async` — background workers ([`majic::Session::speculate_background`])
//!   compile while the session answers immediately via the JIT; the
//!   first call must not wait for them.
//!
//! The acceptance target: `spec-async` first-call latency within 10% of
//! pure JIT (plus measurement noise), while `spec-sync` pays the whole
//! optimizing-backend latency up front. Results are checked bitwise
//! against the synchronous path.
//!
//! ```text
//! cargo run --release -p majic-bench --bin figure_responsiveness -- --workers 4
//! ```

use majic::{ExecMode, Majic, Value};
use majic_bench::{all, harness, Benchmark};
use std::time::{Duration, Instant};

fn session(b: &Benchmark, cfg: &harness::MeasureConfig) -> Majic {
    let mut m = Majic::with_options(cfg.engine_options(ExecMode::Spec));
    m.load_source(b.source).expect("benchmark parses");
    m
}

/// First-call latency and result under one regime. `best_of` fresh
/// sessions; the best latency is reported (paper §3.2 methodology).
///
/// `setup` runs *outside* the timed window (one-time session setup,
/// e.g. spawning the worker pool — its background jobs still race the
/// timed call); `blocking_prepare` runs *inside* it (work that holds up
/// the session, e.g. synchronous speculation).
fn first_call(
    b: &Benchmark,
    cfg: &harness::MeasureConfig,
    best_of: usize,
    args: &[Value],
    setup: impl Fn(&mut Majic),
    blocking_prepare: impl Fn(&mut Majic),
) -> (Duration, f64) {
    let mut best = Duration::MAX;
    let mut result = f64::NAN;
    for _ in 0..best_of {
        let mut m = session(b, cfg);
        setup(&mut m);
        let t0 = Instant::now();
        blocking_prepare(&mut m);
        let out = m
            .call(b.entry, args, 1)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let took = t0.elapsed();
        if took < best {
            best = took;
            result = out
                .first()
                .and_then(|v| v.to_scalar().ok())
                .unwrap_or(f64::NAN);
        }
    }
    (best, result)
}

fn main() {
    let _trace = harness::trace_from_env();
    let cfg = harness::config_from_args();
    let workers: usize = harness::arg_value("--workers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    // First-call latency is compile-dominated, so a small problem size
    // makes the responsiveness gap starkest; override with --scale.
    let scale = cfg.scale.min(0.05);
    const BEST_OF: usize = 3;

    println!("Figure R: first-call latency, speculation on vs. off ({workers} workers, scale {scale:.2})");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>10}  results",
        "benchmark", "jit (ms)", "spec-sync", "spec-async", "async/jit"
    );

    let mut ratios = Vec::new();
    for b in all() {
        let args = (b.args)(scale);

        let (t_jit, r_jit) = first_call(&b, &cfg, BEST_OF, &args, |_| {}, |_| {});
        let (t_sync, r_sync) = first_call(
            &b,
            &cfg,
            BEST_OF,
            &args,
            |_| {},
            |m| {
                m.speculate_all();
            },
        );
        let (t_async, r_async) = first_call(
            &b,
            &cfg,
            BEST_OF,
            &args,
            |m| m.speculate_background(workers),
            |_| {},
        );

        // The repository safety check guarantees every regime computes
        // the same function: results must match bitwise.
        let identical =
            (r_jit.to_bits() == r_sync.to_bits()) && (r_sync.to_bits() == r_async.to_bits());
        let ratio = t_async.as_secs_f64() / t_jit.as_secs_f64().max(1e-9);
        ratios.push(ratio);
        println!(
            "{:<10} {:>12.3} {:>12.3} {:>12.3} {:>10.2}  {}",
            b.name,
            t_jit.as_secs_f64() * 1e3,
            t_sync.as_secs_f64() * 1e3,
            t_async.as_secs_f64() * 1e3,
            ratio,
            if identical {
                "bitwise-identical"
            } else {
                "MISMATCH"
            }
        );
        assert!(identical, "{}: cross-regime result mismatch", b.name);
    }

    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    println!("\nmedian spec-async / jit first-call latency: {median:.2} (target ≤ 1.10)");
}
