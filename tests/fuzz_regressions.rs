//! Replay the checked-in differential-fuzzer regression corpus.
//!
//! Every file in `tests/fuzz_regressions/` is a minimized reproducer of
//! a divergence (or soundness violation) the fuzzer once found. Each
//! must now run cleanly — bitwise-identical results or identical error
//! classes across the interpreter, mcc, JIT, speculative, warm-cache,
//! and FALCON configurations. See `tests/README.md` for the corpus
//! format and how to add new entries.

use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fuzz_regressions")
}

#[test]
fn corpus_is_non_empty() {
    let n = std::fs::read_dir(corpus_dir())
        .expect("tests/fuzz_regressions/ exists")
        .filter(|e| {
            e.as_ref()
                .is_ok_and(|e| e.path().extension().is_some_and(|x| x == "m"))
        })
        .count();
    assert!(n > 0, "the regression corpus must contain reproducers");
}

#[test]
fn every_corpus_case_agrees_across_all_modes() {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/fuzz_regressions/ exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "m"))
        .collect();
    paths.sort();
    let mut bad = Vec::new();
    for p in &paths {
        match majic_bench::fuzz::replay_file(p) {
            Ok(report) if report.is_clean() => {}
            Ok(report) => {
                let divs: Vec<String> =
                    report.divergences.iter().map(ToString::to_string).collect();
                bad.push(format!("{}:\n  {}", p.display(), divs.join("\n  ")));
            }
            Err(e) => bad.push(format!("{}: {e}", p.display())),
        }
    }
    assert!(
        bad.is_empty(),
        "{} corpus case(s) regressed:\n{}",
        bad.len(),
        bad.join("\n")
    );
}
