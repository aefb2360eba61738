//! Warm-start responsiveness: first-call latency of a session that
//! reloads compiled code from the persistent repository cache vs. a
//! cold session that must JIT from scratch.
//!
//! For every benchmark we measure the latency from "session created" to
//! "first call answered" twice:
//!
//! * `cold` — an empty repository: the first call pays parse + inference
//!   + code generation + execution (the JIT bars of Figure 6).
//! * `warm` — a cache file populated by a previous session is attached
//!   before the sources load: the first call dispatches through the
//!   repository's signature check straight into deserialized code.
//!
//! The repository safety gates still apply on the warm path (build
//! fingerprint, per-entry checksums, per-function source hashes), so a
//! warm session can never compute anything different: results are
//! asserted bitwise-identical. The acceptance target is warm ≤ 0.5×
//! cold on the golden benchmark set.
//!
//! ```text
//! cargo run --release -p majic-bench --bin figure_warmstart -- \
//!     [--scale X] [--runs N] [--json PATH]
//! ```
//!
//! With `--json PATH` the per-benchmark numbers are also written as a
//! JSON document (consumed by CI as a workflow artifact).

use majic::{ExecMode, Majic, Value};
use majic_bench::{all, harness, Benchmark};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn session(cfg: &harness::MeasureConfig) -> Majic {
    Majic::with_options(cfg.engine_options(ExecMode::Jit))
}

/// One timed first call. The timed window covers everything a user at a
/// fresh prompt would wait for: (optional) cache attach, source load,
/// and the call itself.
fn first_call(
    b: &Benchmark,
    cfg: &harness::MeasureConfig,
    args: &[Value],
    cache: Option<&Path>,
) -> (Duration, f64, usize) {
    let mut m = session(cfg);
    let t0 = Instant::now();
    if let Some(path) = cache {
        m.attach_cache(path);
    }
    m.load_source(b.source).expect("benchmark parses");
    let out = m
        .call(b.entry, args, 1)
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let took = t0.elapsed();
    let installed = m.service().cache_report().installed;
    let result = out
        .first()
        .and_then(|v| v.to_scalar().ok())
        .unwrap_or(f64::NAN);
    // Don't let the drop-flush write back into the shared cache file
    // while other runs race it: detach by saving explicitly first.
    if cache.is_some() {
        m.service().save_cache().expect("cache flush");
    }
    (took, result, installed)
}

struct Row {
    name: &'static str,
    cold: Duration,
    warm: Duration,
    ratio: f64,
    identical: bool,
    warm_installs: usize,
}

fn main() {
    let _trace = harness::trace_from_env();
    let cfg = harness::config_from_args();
    let json_path: Option<PathBuf> = harness::arg_value("--json").map(PathBuf::from);
    // First-call latency is compile-dominated; a small problem size
    // isolates the compile-vs-load contrast. Override with --scale.
    let scale = cfg.scale.min(0.05);
    let best_of = cfg.runs.max(1);

    let cache_dir = std::env::temp_dir().join(format!("majic-warmstart-{}", std::process::id()));
    std::fs::create_dir_all(&cache_dir).expect("create cache dir");

    println!("Figure W: first-call latency, warm cache vs. cold JIT (scale {scale:.2}, best of {best_of})");
    println!(
        "{:<10} {:>12} {:>12} {:>10} {:>9}  results",
        "benchmark", "cold (ms)", "warm (ms)", "warm/cold", "installs"
    );

    let mut rows = Vec::new();
    for b in all() {
        let args = (b.args)(scale);
        let cache = cache_dir.join(format!("{}.majiccache", b.name));

        // Populate the cache once, outside every timed window.
        {
            let mut m = session(&cfg);
            m.attach_cache(&cache);
            m.load_source(b.source).expect("benchmark parses");
            m.call(b.entry, &args, 1)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            m.service().save_cache().expect("cache populate");
        }

        let mut cold = Duration::MAX;
        let mut warm = Duration::MAX;
        let mut r_cold = f64::NAN;
        let mut r_warm = f64::NAN;
        let mut warm_installs = 0usize;
        for _ in 0..best_of {
            let (t, r, _) = first_call(&b, &cfg, &args, None);
            if t < cold {
                cold = t;
                r_cold = r;
            }
            let (t, r, installs) = first_call(&b, &cfg, &args, Some(&cache));
            if t < warm {
                warm = t;
                r_warm = r;
                warm_installs = installs;
            }
        }

        assert!(
            warm_installs > 0,
            "{}: warm session installed nothing from the cache",
            b.name
        );
        let identical = r_cold.to_bits() == r_warm.to_bits();
        assert!(identical, "{}: warm/cold result mismatch", b.name);
        let ratio = warm.as_secs_f64() / cold.as_secs_f64().max(1e-9);
        println!(
            "{:<10} {:>12.3} {:>12.3} {:>10.2} {:>9}  {}",
            b.name,
            cold.as_secs_f64() * 1e3,
            warm.as_secs_f64() * 1e3,
            ratio,
            warm_installs,
            if identical {
                "bitwise-identical"
            } else {
                "MISMATCH"
            }
        );
        rows.push(Row {
            name: b.name,
            cold,
            warm,
            ratio,
            identical,
            warm_installs,
        });
    }

    let mut ratios: Vec<f64> = rows.iter().map(|r| r.ratio).collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    println!("\nmedian warm / cold first-call latency: {median:.2} (target ≤ 0.50)");

    if let Some(path) = json_path {
        let mut out = String::from("{\n");
        out.push_str("  \"figure\": \"warmstart\",\n");
        out.push_str(&format!("  \"scale\": {scale},\n"));
        out.push_str(&format!("  \"best_of\": {best_of},\n"));
        out.push_str(&format!("  \"median_ratio\": {median},\n"));
        out.push_str("  \"benchmarks\": [\n");
        for (k, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"cold_ms\": {}, \"warm_ms\": {}, \"ratio\": {}, \"identical\": {}, \"warm_installs\": {}}}{}\n",
                r.name,
                r.cold.as_secs_f64() * 1e3,
                r.warm.as_secs_f64() * 1e3,
                r.ratio,
                r.identical,
                r.warm_installs,
                if k + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        std::fs::write(&path, out).expect("write json");
        println!("wrote {}", path.display());
    }

    let _ = std::fs::remove_dir_all(&cache_dir);
}
