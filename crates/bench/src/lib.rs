//! Benchmark suite and measurement harness reproducing the paper's
//! evaluation (Tables 1–2, Figures 4–7).
//!
//! Run the reproduction binaries with, e.g.:
//!
//! ```text
//! cargo run --release -p majic-bench --bin table1 -- --scale 0.25
//! cargo run --release -p majic-bench --bin figure4
//! cargo run --release -p majic-bench --bin figure5
//! cargo run --release -p majic-bench --bin figure6
//! cargo run --release -p majic-bench --bin figure7
//! cargo run --release -p majic-bench --bin table2
//! cargo run --release -p majic-bench --bin handopt
//! ```
//!
//! `--scale` shrinks problem sizes (default 0.25; 1.0 = the paper's
//! sizes). Speedups are ratios, so the reported *shape* is stable under
//! scaling.
//!
//! The [`fuzz`] module and its `fuzz_differential` binary run generated
//! programs through every execution mode and shrink any divergence:
//!
//! ```text
//! cargo run --release -p majic-bench --bin fuzz_differential -- --seed 0 --iters 2000
//! ```

pub mod fuzz;
pub mod harness;
pub mod programs;

pub use harness::{measure, MeasureConfig, Measurement, Mode};
pub use programs::{all, by_name, line_count, Benchmark, Category};

#[cfg(test)]
mod tests {
    use crate::fuzz::*;
    use majic::diff::run_case;
    use majic_testkit::fuzzgen;

    #[test]
    fn clean_seeds_stay_clean() {
        // A smoke sample of the generator space: every case must agree
        // across all six engine configurations.
        for seed in 0..25 {
            let (report, failure) = run_seed(seed);
            assert!(
                failure.is_none(),
                "seed {seed} diverged:\n{}\nreproducer:\n{}",
                report
                    .divergences
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("\n"),
                failure.map(|f| f.reproducer()).unwrap_or_default(),
            );
        }
    }

    #[test]
    fn clean_aliasing_seeds_stay_clean() {
        // The aliasing-heavy grammar hammers copy-on-write snapshot
        // isolation; every case must still agree across all six modes.
        for seed in 0..25 {
            let (report, failure) = run_seed_with(seed, Grammar::Aliasing);
            assert!(
                failure.is_none(),
                "aliasing seed {seed} diverged:\n{}\nreproducer:\n{}",
                report
                    .divergences
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("\n"),
                failure.map(|f| f.reproducer()).unwrap_or_default(),
            );
        }
    }

    #[test]
    fn clean_control_seeds_stay_clean() {
        // Guarded break/continue, early returns and shadowed builtins
        // stress disambiguation and the inliner's return lowering.
        for seed in 0..25 {
            let (report, failure) = run_seed_with(seed, Grammar::Control);
            assert!(
                failure.is_none(),
                "control seed {seed} diverged:\n{}\nreproducer:\n{}",
                report
                    .divergences
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("\n"),
                failure.map(|f| f.reproducer()).unwrap_or_default(),
            );
        }
    }

    #[test]
    fn corpus_text_replays() {
        let p = fuzzgen::generate(3);
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "majic-bench-fuzz-selftest-{}.m",
            std::process::id()
        ));
        std::fs::write(&path, p.render_corpus()).unwrap();
        let report = replay_file(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        // Replaying the rendered corpus must behave exactly like the
        // in-memory case.
        let direct = run_case(&case_of(&p));
        assert_eq!(report.is_clean(), direct.is_clean());
    }

    #[test]
    fn json_escape_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
