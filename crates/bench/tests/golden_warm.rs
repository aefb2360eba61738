//! Golden warm-start suite: every benchmark must produce **bitwise
//! identical** results whether its first call is compiled cold or served
//! from a persistent repository cache written by a previous session.
//! This extends the repository safety guarantee ("a wrong guess … never
//! affects program correctness") across process lifetimes, with no
//! floating-point tolerance to hide behind.

use majic::{ExecMode, Majic, Value};
use majic_bench::all;
use std::path::Path;

const SCALE: f64 = 0.02;

/// Exact bit-level digest of a value: every element, no rounding.
fn digest(v: &Value) -> Vec<u64> {
    match v {
        Value::Real(m) => m.iter().map(|x| x.to_bits()).collect(),
        Value::Bool(m) => m.iter().map(|&b| u64::from(b)).collect(),
        Value::Complex(m) => m
            .iter()
            .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
            .collect(),
        Value::Str(s) => s.bytes().map(u64::from).collect(),
    }
}

fn run(b: &majic_bench::Benchmark, args: &[Value], cache: Option<&Path>) -> (Vec<u64>, usize) {
    let mut m = Majic::with_mode(ExecMode::Jit);
    if let Some(path) = cache {
        m.attach_cache(path);
    }
    m.load_source(b.source)
        .unwrap_or_else(|e| panic!("{}: {e}", b.entry));
    let out = m
        .call(b.entry, args, 1)
        .unwrap_or_else(|e| panic!("{}: {e}", b.entry));
    let installed = m.service().cache_report().installed;
    if cache.is_some() {
        m.service().save_cache().unwrap();
    }
    (digest(&out[0]), installed)
}

#[test]
fn all_benchmarks_bitwise_identical_cold_vs_warm() {
    // Deep recursion (ackermann) needs a roomy stack in debug builds.
    std::thread::Builder::new()
        .stack_size(256 * 1024 * 1024)
        .spawn(|| {
            let dir =
                std::env::temp_dir().join(format!("majic-golden-warm-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            for b in all() {
                let args = (b.args)(SCALE);
                let cache = dir.join(format!("{}.majiccache", b.name));

                let (cold, _) = run(&b, &args, None);
                // Session 1 populates the cache; session 2 is warm.
                let (populate, _) = run(&b, &args, Some(&cache));
                assert_eq!(cold, populate, "{}: populate run diverged", b.name);
                let (warm, installed) = run(&b, &args, Some(&cache));
                assert!(installed > 0, "{}: warm run installed nothing", b.name);
                assert_eq!(cold, warm, "{}: warm result differs from cold", b.name);
            }
            let _ = std::fs::remove_dir_all(&dir);
        })
        .unwrap()
        .join()
        .unwrap();
}
