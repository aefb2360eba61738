//! Data-parallel kernel throughput: per-op speedup of the size-gated
//! parallel kernels over the sequential loops, with bitwise-identical
//! outputs as a hard precondition.
//!
//! Each elementwise op (`add`, `sub`, `.*`, `./`, `.^`, unary `-`, `<`,
//! `|`) runs over a large (≥ 1M-element at scale 1) matrix, and the
//! blocked product `*` over a square matrix, once with the kernel pool
//! off and once with `--threads` participating threads. Every parallel
//! output is digested bit-for-bit against the sequential one before any
//! timing is reported — the determinism invariant of `majic_runtime::par`
//! is asserted, not assumed.
//!
//! The ≥ `--target` (default 2.0) median elementwise speedup is only
//! asserted when the host actually has `--threads` hardware threads;
//! on smaller machines the figure still runs, checks determinism, and
//! reports the (meaningless) timings with a note.
//!
//! ```text
//! cargo run --release -p majic-bench --bin figure_parallel -- \
//!     [--scale X] [--runs N] [--threads N] [--target X] [--json PATH]
//! ```

use majic_bench::harness;
use majic_runtime::ops::{self, Cmp};
use majic_runtime::{par, Lcg, Matrix, Value};
use std::path::PathBuf;
use std::time::{Duration, Instant};

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

/// A positive pseudorandom matrix (positive keeps `.^` on the real
/// path) with a deterministic seed.
fn random_matrix(rows: usize, cols: usize, seed: u64) -> Value {
    let mut lcg = Lcg::seeded(seed);
    let data: Vec<f64> = (0..rows * cols).map(|_| 0.5 + lcg.next_f64()).collect();
    Value::Real(Matrix::from_vec(rows, cols, data))
}

/// Best-of-`runs` wall time of `f`.
fn measure(runs: usize, f: &dyn Fn() -> Value) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..runs {
        let t0 = Instant::now();
        let out = f();
        let took = t0.elapsed();
        assert!(out.numel() > 0, "kernel produced an empty result");
        if took < best {
            best = took;
        }
    }
    best
}

struct Row {
    name: &'static str,
    elementwise: bool,
    seq: Duration,
    par: Duration,
    speedup: f64,
}

fn main() {
    let _trace = harness::trace_from_env();
    let cfg = harness::config_from_args();
    let json_path: Option<PathBuf> = harness::arg_value("--json").map(PathBuf::from);
    let threads: usize = harness::arg_value("--threads")
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let target: f64 = harness::arg_value("--target")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2.0);
    let best_of = cfg.runs.max(1);

    // ~1M elements at scale 1 for the elementwise ops; the product uses
    // a smaller square so its cubic flop count stays comparable.
    let rows = 1024;
    let cols = ((1024.0 * cfg.scale) as usize).max(64);
    let n = rows * cols;
    let mdim = ((320.0 * cfg.scale.sqrt()) as usize).max(48);

    let a = random_matrix(rows, cols, 1);
    let b = random_matrix(rows, cols, 2);
    let ma = random_matrix(mdim, mdim, 3);
    let mb = random_matrix(mdim, mdim, 4);

    type Op = (&'static str, bool, Box<dyn Fn() -> Value>);
    let ops: Vec<Op> = {
        let (a1, b1) = (a.clone(), b.clone());
        let (a2, b2) = (a.clone(), b.clone());
        let (a3, b3) = (a.clone(), b.clone());
        let (a4, b4) = (a.clone(), b.clone());
        let (a5, b5) = (a.clone(), b.clone());
        let a6 = a.clone();
        let (a7, b7) = (a.clone(), b.clone());
        let (a8, b8) = (a.clone(), b.clone());
        vec![
            ("add", true, Box::new(move || ops::add(&a1, &b1).unwrap())),
            ("sub", true, Box::new(move || ops::sub(&a2, &b2).unwrap())),
            (
                "elem_mul",
                true,
                Box::new(move || ops::elem_mul(&a3, &b3).unwrap()),
            ),
            (
                "elem_div",
                true,
                Box::new(move || ops::elem_div(&a4, &b4).unwrap()),
            ),
            (
                "elem_pow",
                true,
                Box::new(move || ops::elem_pow(&a5, &b5).unwrap()),
            ),
            ("neg", true, Box::new(move || ops::neg(&a6).unwrap())),
            (
                "compare_lt",
                true,
                Box::new(move || ops::compare(Cmp::Lt, &a7, &b7).unwrap()),
            ),
            (
                "logical_or",
                true,
                Box::new(move || ops::logical(&a8, &b8, true).unwrap()),
            ),
            ("mul", false, Box::new(move || ops::mul(&ma, &mb).unwrap())),
        ]
    };

    println!(
        "Figure P: data-parallel kernels vs sequential \
         ({rows}x{cols} elementwise, {mdim}x{mdim} product, {threads} threads, best of {best_of})"
    );
    println!(
        "{:<12} {:>10} {:>10} {:>9}",
        "op", "seq (ms)", "par (ms)", "speedup"
    );

    let mut rows_out: Vec<Row> = Vec::new();
    for (name, elementwise, f) in &ops {
        par::set_threads(0);
        let want = digest(&f());
        let t_seq = measure(best_of, f.as_ref());

        par::set_threads(threads);
        let dispatched_before = majic_trace::counter("kernel.par.dispatch").get();
        let got = digest(&f());
        assert_eq!(
            want, got,
            "{name}: parallel output must be bitwise identical to sequential"
        );
        assert!(
            majic_trace::counter("kernel.par.dispatch").get() > dispatched_before,
            "{name}: op never took the parallel path (below the size gate?)"
        );
        let t_par = measure(best_of, f.as_ref());
        par::set_threads(0);

        let speedup = t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9);
        println!(
            "{:<12} {:>10.3} {:>10.3} {:>9.2}",
            name,
            t_seq.as_secs_f64() * 1e3,
            t_par.as_secs_f64() * 1e3,
            speedup
        );
        rows_out.push(Row {
            name,
            elementwise: *elementwise,
            seq: t_seq,
            par: t_par,
            speedup,
        });
    }

    let mut elem_speedups: Vec<f64> = rows_out
        .iter()
        .filter(|r| r.elementwise)
        .map(|r| r.speedup)
        .collect();
    elem_speedups.sort_by(f64::total_cmp);
    let median = elem_speedups[elem_speedups.len() / 2];

    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let asserted = available >= threads;
    println!("\nmedian elementwise speedup: {median:.2} (target ≥ {target})");
    if asserted {
        assert!(
            median >= target,
            "median elementwise speedup {median:.2} below the ≥ {target} target at {threads} threads"
        );
    } else {
        println!(
            "note: host has {available} hardware thread(s) < {threads} requested; \
             determinism verified, speedup target not asserted"
        );
    }

    if let Some(path) = json_path {
        let mut out = String::from("{\n");
        out.push_str("  \"figure\": \"parallel\",\n");
        out.push_str(&format!("  \"threads\": {threads},\n"));
        out.push_str(&format!("  \"available_parallelism\": {available},\n"));
        out.push_str(&format!("  \"numel\": {n},\n"));
        out.push_str(&format!("  \"mul_dim\": {mdim},\n"));
        out.push_str(&format!("  \"best_of\": {best_of},\n"));
        out.push_str("  \"ops\": [\n");
        for (k, r) in rows_out.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"elementwise\": {}, \"seq_ms\": {}, \"par_ms\": {}, \"speedup\": {}}}{}\n",
                r.name,
                r.elementwise,
                r.seq.as_secs_f64() * 1e3,
                r.par.as_secs_f64() * 1e3,
                r.speedup,
                if k + 1 < rows_out.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"median_elementwise_speedup\": {median},\n  \"target\": {target},\n  \"target_asserted\": {asserted}\n"
        ));
        out.push_str("}\n");
        std::fs::write(&path, out).expect("write json");
        println!("wrote {}", path.display());
    }
}
