//! Concurrent-session semantics of the shared [`CompilerService`]:
//! cross-session code sharing, session-local redefinition, bitwise
//! parity with solo sessions under interleaved call/redefine stress,
//! the [`majic::Background`] handle over both pools, and per-service audit
//! enablement.

use majic::{CompilerService, Majic, Value};
use std::collections::HashMap;

const SESSIONS: usize = 4;
const ROUNDS: usize = 3;
const CALLS_PER_ROUND: usize = 3;

/// A per-(session, round) redefinition of the same function name: the
/// accumulation loop makes compilation worthwhile and any stale
/// dispatch (an old `c`) produce a visibly different value.
fn variant_src(c: u64) -> String {
    format!(
        "function y = msf(x)\n\
         s = 0;\n\
         for k = 1:40\n\
         s = s + x * {c} + k;\n\
         end\n\
         y = s;\n"
    )
}

/// The function every session loads with identical source — the
/// cross-session sharing case.
const COMMON_SRC: &str = "function y = mscommon(x)\n\
                          s = 1;\n\
                          for k = 1:25\n\
                          s = s + x / k;\n\
                          end\n\
                          y = s;\n";

fn coeff(session: usize, round: usize) -> u64 {
    (session as u64 + 1) * 100 + round as u64
}

fn args_for(call: usize) -> Vec<Value> {
    vec![Value::scalar(1.5 + call as f64 * 0.25)]
}

fn bits_of(out: &[Value]) -> u64 {
    out[0].to_scalar().expect("scalar result").to_bits()
}

/// Interleaved call/redefine from four concurrent sessions: every call
/// must be bitwise-identical to the same (variant, argument) evaluated
/// by a solo single-session engine — which rules out both stale
/// executions (an old variant's code answering after a redefinition)
/// and cross-session leakage (another session's same-named variant
/// answering here). The identical `mscommon` source must be shared:
/// compiled once, dispatched by everyone.
#[test]
fn concurrent_sessions_match_solo_bitwise() {
    // Solo ground truth, one fresh engine per (session, round).
    let mut expected: HashMap<(usize, usize, usize), u64> = HashMap::new();
    let mut expected_common: HashMap<usize, u64> = HashMap::new();
    for session in 0..SESSIONS {
        for round in 0..ROUNDS {
            let mut solo = Majic::new();
            solo.load_source(&variant_src(coeff(session, round)))
                .unwrap();
            for call in 0..CALLS_PER_ROUND {
                let out = solo.call("msf", &args_for(call), 1).unwrap();
                expected.insert((session, round, call), bits_of(&out));
            }
        }
    }
    {
        let mut solo = Majic::new();
        solo.load_source(COMMON_SRC).unwrap();
        for call in 0..CALLS_PER_ROUND {
            let out = solo.call("mscommon", &args_for(call), 1).unwrap();
            expected_common.insert(call, bits_of(&out));
        }
    }

    let service = CompilerService::new();
    let expected = &expected;
    let expected_common = &expected_common;
    std::thread::scope(|scope| {
        for session in 0..SESSIONS {
            let service = &service;
            scope.spawn(move || {
                let mut s = service.session();
                s.load_source(COMMON_SRC).unwrap();
                for round in 0..ROUNDS {
                    // Redefine `msf` (round 0 is the initial definition)
                    // while the other sessions keep calling their own.
                    s.load_source(&variant_src(coeff(session, round))).unwrap();
                    for call in 0..CALLS_PER_ROUND {
                        let out = s.call("msf", &args_for(call), 1).unwrap();
                        assert_eq!(
                            bits_of(&out),
                            expected[&(session, round, call)],
                            "session {session} round {round} call {call}: \
                             result differs from the solo engine"
                        );
                        let out = s.call("mscommon", &args_for(call), 1).unwrap();
                        assert_eq!(
                            bits_of(&out),
                            expected_common[&call],
                            "session {session}: shared function diverged from solo"
                        );
                    }
                }
            });
        }
    });

    let stats = service.repository().stats();
    assert!(
        stats.shared_hits > 0,
        "identical-source sessions never shared a compiled version \
         (stats: {stats:?})"
    );
}

/// A session's redefinition must not disturb a neighbor mid-stream,
/// and dropping a session must leave its namespaces warm for the next
/// session on the same source.
#[test]
fn redefinition_and_reuse_across_session_lifetimes() {
    let service = CompilerService::new();
    let src = variant_src(7);
    let expected = {
        let mut solo = Majic::new();
        solo.load_source(&src).unwrap();
        bits_of(&solo.call("msf", &args_for(0), 1).unwrap())
    };
    {
        let mut a = service.session();
        a.load_source(&src).unwrap();
        assert_eq!(bits_of(&a.call("msf", &args_for(0), 1).unwrap()), expected);
        let mut b = service.session();
        b.load_source(&variant_src(9)).unwrap(); // different definition
        b.call("msf", &args_for(0), 1).unwrap();
        // A is unaffected by B's same-named function.
        assert_eq!(bits_of(&a.call("msf", &args_for(0), 1).unwrap()), expected);
    } // both sessions drop; compiled versions stay
    let misses_before = service.repository().stats().misses;
    let mut c = service.session();
    c.load_source(&src).unwrap();
    assert_eq!(bits_of(&c.call("msf", &args_for(0), 1).unwrap()), expected);
    assert_eq!(
        service.repository().stats().misses,
        misses_before,
        "the successor session should dispatch the kept version, not recompile"
    );
}

/// The one [`majic::Background`] handle covers both pools: `wait` drains the
/// queue, `stats` reports the pools that exist, and `finish` tears them
/// down and returns their final numbers.
#[test]
fn background_handle_waits_reports_and_finishes() {
    let mut m = Majic::new();
    m.load_source("function y = mspar_a(x)\ny = x * 3;\n")
        .unwrap();
    m.load_source("function y = mspar_b(x)\ny = x + 4;\n")
        .unwrap();
    m.speculate_background(1);
    let bg = m.service().background();
    bg.wait();

    let stats = bg.stats().spec.expect("speculation pool is running");
    assert_eq!(stats.enqueued, 2, "both functions queued");
    assert_eq!(stats.completed(), stats.enqueued, "wait drained the queue");
    assert!(bg.stats().tier.is_none(), "no promotion happened");

    let finished = bg.finish();
    let spec = finished.spec.expect("pool was running");
    assert_eq!(spec.enqueued, stats.enqueued);
    assert!(finished.tier.is_none());
    assert!(
        bg.stats().spec.is_none(),
        "finish must tear the speculation pool down"
    );
}

/// Audit enablement is per service: compilations of a service with
/// auditing off must leave no records even while another service's
/// auditing keeps the process-wide recorder on.
#[test]
fn audit_enablement_is_per_service() {
    let loud = CompilerService::new();
    let quiet = CompilerService::new();
    loud.set_audit(true);
    assert!(loud.audit_enabled());
    assert!(!quiet.audit_enabled());

    let mut sl = loud.session();
    let mut sq = quiet.session();
    sl.load_source("function y = msaud_loud(x)\ny = x + 1;\n")
        .unwrap();
    sq.load_source("function y = msaud_quiet(x)\ny = x + 2;\n")
        .unwrap();
    sl.call("msaud_loud", &[Value::scalar(1.0)], 1).unwrap();
    sq.call("msaud_quiet", &[Value::scalar(1.0)], 1).unwrap();

    let loud_records = majic_trace::audit::records_for("msaud_loud");
    assert!(!loud_records.is_empty(), "audited service left no records");
    assert_eq!(
        loud_records[0].session,
        Some(sl.id()),
        "records must say which session compiled"
    );
    assert!(
        majic_trace::audit::records_for("msaud_quiet").is_empty(),
        "a service with auditing off polluted the process recorder"
    );

    // Turning the last interested service off releases the recorder.
    loud.set_audit(false);
    assert!(!loud.audit_enabled());
}
