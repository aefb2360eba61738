//! `benchledger`: the MaJIC engine's end-to-end and per-layer benchmark
//! over the 16 Table-1 programs. See `METHODOLOGY.md` beside this
//! crate for why each workload and statistic was chosen.
//!
//! ```text
//! cargo run --release --manifest-path benchledger/Cargo.toml -- \
//!     --workload cold_start|steady_state|edit_rerun|warm_restart \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload is a closed loop: one client on one thread, issuing
//! its next op when the previous one returned. The last line of
//! standard output is one JSON object with the run's metrics.

mod calib;
mod check;
mod replay;
mod spans;
mod stats;

use check::{digest, Reference};
use majic::{CompilerService, EngineOptions, ExecMode, RepoStats, RuntimeResult, Session, Value};
use majic_repo::cache::{CacheEntry, RepoCache};
use majic_repo::{Repository, Tier};
use majic_runtime::Lcg;
use majic_vm::Executable;
use replay::Replayer;
use spans::{Tracer, SETUP};
use stats::{geomean, quantile, ratio, Rng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Independent set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;
/// Calls per program that may be spent waiting for tier promotion.
const PROMOTION_CALL_CAP: usize = 1000;
/// Engine counters read around traced ops (the VM profile ones count
/// only while `majic_trace` VM profiling is on).
const COUNTERS: [&str; 4] = [
    "vm.inst.total",
    "matrix.alloc",
    "runtime.matrix.deep_copy",
    "vm.call.builtin",
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    ColdStart,
    SteadyState,
    EditRerun,
    WarmRestart,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "cold_start" => Workload::ColdStart,
            "steady_state" => Workload::SteadyState,
            "edit_rerun" => Workload::EditRerun,
            "warm_restart" => Workload::WarmRestart,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ColdStart => "cold_start",
            Workload::SteadyState => "steady_state",
            Workload::EditRerun => "edit_rerun",
            Workload::WarmRestart => "warm_restart",
        }
    }

    /// Problem-size scale of the Table-1 arguments.
    fn scale(self) -> f64 {
        match self {
            Workload::SteadyState => 0.25,
            _ => 0.02,
        }
    }

    /// Op kinds; latency statistics are kept per program × kind.
    fn kinds(self) -> &'static [&'static str] {
        match self {
            Workload::ColdStart => &["first_call"],
            Workload::SteadyState => &["call"],
            Workload::EditRerun => &["edit", "revert"],
            Workload::WarmRestart => &["warm_call"],
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let workload = get("--workload").ok_or("--workload is required")?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let num = |v: Option<String>, flag: &str, default: &str| -> Result<f64, String> {
        let v = v.unwrap_or_else(|| default.to_owned());
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or_else(|| format!("{flag} takes a non-negative number, got {v:?}"))
    };
    Ok(Args {
        workload,
        seed: num(get("--seed"), "--seed", "0")? as u64,
        seconds: num(get("--seconds"), "--seconds", "10")?,
        trace: num(get("--trace"), "--trace", "0")? != 0.0,
    })
}

/// JIT mode with one kernel thread: with the single tier/spec worker
/// that makes two busy threads at most.
fn options() -> EngineOptions {
    EngineOptions::builder()
        .mode(ExecMode::Jit)
        .threads(Some(1))
        .build()
}

struct Prog {
    name: &'static str,
    entry: &'static str,
    source: &'static str,
    args: Vec<Value>,
}

/// Engine-side repository counters summed over timed ops.
#[derive(Clone, Copy, Default)]
struct RepoDelta {
    hits: u64,
    misses: u64,
    shared_hits: u64,
    inserts: u64,
    invalidations: u64,
    tier1_hits: u64,
}

impl RepoDelta {
    fn add(&mut self, a: &RepoStats, b: &RepoStats) {
        self.hits += b.hits - a.hits;
        self.misses += b.misses - a.misses;
        self.shared_hits += b.shared_hits - a.shared_hits;
        self.inserts += b.inserts - a.inserts;
        self.invalidations += b.invalidations - a.invalidations;
        self.tier1_hits += b.tier1_hits - a.tier1_hits;
    }
}

/// Counter values (and the lookup-distance histogram's count and sum)
/// at one point in time.
#[derive(Clone, Copy, Default)]
struct Counters {
    values: [u64; COUNTERS.len()],
    dist_count: u64,
    dist_sum: u64,
}

impl Counters {
    fn read() -> Counters {
        // Drop the engine's own span events first: the benchmark reads
        // only counters, and the collector would otherwise grow all run.
        majic_trace::take_events();
        let snap = majic_trace::snapshot();
        let mut c = Counters::default();
        for (v, name) in c.values.iter_mut().zip(COUNTERS) {
            *v = majic_trace::counter(name).get();
        }
        if let Some(h) = snap
            .histograms
            .iter()
            .find(|h| h.name == "repo.lookup.distance")
        {
            c.dist_count = h.count;
            c.dist_sum = h.sum;
        }
        c
    }

    fn add_delta(&mut self, a: &Counters, b: &Counters) {
        for ((s, x), y) in self.values.iter_mut().zip(a.values).zip(b.values) {
            *s += y - x;
        }
        self.dist_count += b.dist_count - a.dist_count;
        self.dist_sum += b.dist_sum - a.dist_sum;
    }
}

/// Everything a run accumulates over its timed ops.
#[derive(Default)]
struct Acc {
    ops: u64,
    failed: u64,
    fg_compiles: u64,
    repo: RepoDelta,
    /// Ops in traced rounds, which the per-layer metrics average over.
    traced_ops: u64,
    counters: Counters,
    /// Stage counts of the compiles replayed inside ops.
    replay: replay::StageCounts,
}

/// The state a workload's set-up leaves for its timed ops. A run holds
/// exactly one, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum State {
    Cold,
    Steady {
        svc: CompilerService,
        session: Session,
        replayer: Option<Replayer>,
    },
    Edit {
        svc: CompilerService,
        _viewer: Session,
        editor: Session,
        replayer: Option<Replayer>,
    },
    Warm {
        /// The cache the set-up built; ops never attach it directly.
        cache: PathBuf,
        pristine: Vec<u8>,
        /// The copy each op attaches (a service flushes its cache when
        /// dropped, rewriting the file).
        op_copy: PathBuf,
        entries: Vec<EntryKey>,
    },
}

/// One cache entry, compared by content independent of file order.
type EntryKey = (String, u64, String, u8, Vec<u8>);

fn cache_entries(path: &Path) -> Vec<EntryKey> {
    let (entries, _) = RepoCache::new(path, majic_codegen::build_fingerprint()).load();
    let mut keys: Vec<EntryKey> = entries
        .into_iter()
        .map(|e| {
            (
                e.name,
                e.source_hash,
                e.version.signature.to_string(),
                e.version.tier.level(),
                e.version.code.encode(),
            )
        })
        .collect();
    keys.sort();
    keys
}

struct Bench {
    wl: Workload,
    progs: Vec<Prog>,
    reference: Reference,
    rng: Rng,
    tr: Tracer,
    /// Ops of this round run with engine counters on and are replayed.
    traced_round: bool,
    /// Timed ops are recorded; set-up and warm-up ops are not.
    recording: bool,
    next_op: u32,
    /// Latency samples (ms) per program × kind, untraced rounds.
    samples: Vec<Vec<f64>>,
    /// The same, traced rounds.
    traced_samples: Vec<Vec<f64>>,
    /// Foreground compiles per program × kind (diagnostic rows).
    slot_compiles: Vec<u64>,
    /// Code bytes live after each program's latest op (workloads that
    /// build one service per op).
    prog_code_bytes: Vec<u64>,
    acc: Acc,
    setup_failures: u64,
    /// Set-up calls whose outputs are checked once the set-up's timer
    /// has stopped: digest (or error) and the generator state.
    pending: Vec<(usize, Result<Vec<u64>, String>, Lcg)>,
    messages: Vec<String>,
    scratch: PathBuf,
    /// Size of the warm_restart cache file.
    cache_len: u64,
    cal: calib::Calibration,
    /// Per-layer measurements of the set-up, from the traced run.
    setup_layer: BTreeMap<&'static str, f64>,
    /// Stage counts of the set-up's replayed optimizing compiles.
    setup_counts: replay::StageCounts,
}

fn code_bytes(repo: &Repository) -> u64 {
    repo.entries_ns()
        .iter()
        .flat_map(|(_, _, vs)| vs)
        .map(|v| v.code.encode().len() as u64)
        .sum()
}

/// Versions the background pools published (and so inserted).
fn published(svc: &CompilerService) -> u64 {
    let b = svc.background().stats();
    b.spec.map_or(0, |s| s.published) + b.tier.map_or(0, |s| s.published)
}

fn tier_published(svc: &CompilerService) -> u64 {
    svc.background().stats().tier.map_or(0, |s| s.published)
}

/// Insert `bench_edit_<k> = <k>;` as the entry function's first
/// statement: a new closure hash with the same results.
fn edit_source(src: &str, k: u64) -> String {
    let header_end = src.find('\n').expect("program has a function header") + 1;
    format!(
        "{}bench_edit_{k} = {k};\n{}",
        &src[..header_end],
        &src[header_end..]
    )
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Bench {
    fn new(wl: Workload, seed: u64, scratch: PathBuf) -> Bench {
        let progs: Vec<Prog> = majic_bench::all()
            .into_iter()
            .map(|b| Prog {
                name: b.name,
                entry: b.entry,
                source: b.source,
                args: (b.args)(wl.scale()),
            })
            .collect();
        let slots = progs.len() * wl.kinds().len();
        let sources: Vec<&str> = progs.iter().map(|p| p.source).collect();
        Bench {
            wl,
            reference: Reference::new(&sources),
            rng: Rng::new(seed),
            tr: Tracer::new(),
            traced_round: false,
            recording: false,
            next_op: 0,
            samples: vec![Vec::new(); slots],
            traced_samples: vec![Vec::new(); slots],
            slot_compiles: vec![0; slots],
            prog_code_bytes: vec![0; progs.len()],
            acc: Acc::default(),
            setup_failures: 0,
            pending: Vec::new(),
            messages: Vec::new(),
            scratch,
            cache_len: 0,
            setup_layer: BTreeMap::new(),
            setup_counts: replay::StageCounts::default(),
            cal: calib::Calibration::new(),
            progs,
        }
    }

    fn fail(&mut self, msg: String) {
        if self.recording {
            self.acc.failed += 1;
        } else {
            self.setup_failures += 1;
        }
        if self.messages.len() < 20 {
            self.messages.push(msg);
        }
    }

    /// Compare a call's outputs with the interpreter's for the same
    /// call. Returns whether they matched. Set-up calls are checked
    /// later, by [`Bench::check_pending`], so the interpreter's time
    /// stays out of `setup_s`.
    fn verify(&mut self, p: usize, outs: &RuntimeResult<Vec<Value>>, rng: &Lcg) -> bool {
        let got = outs.as_ref().map(|o| digest(o)).map_err(|e| e.to_string());
        if !self.recording {
            self.pending.push((p, got, rng.clone()));
            return true;
        }
        self.compare(p, got, rng)
    }

    fn compare(&mut self, p: usize, got: Result<Vec<u64>, String>, rng: &Lcg) -> bool {
        let prog = &self.progs[p];
        let got = match got {
            Ok(d) => d,
            Err(e) => {
                let msg = format!("{}: engine error: {e}", prog.name);
                self.fail(msg);
                return false;
            }
        };
        match self.reference.expect(p, prog.entry, &prog.args, rng) {
            Ok(want) if want == got => true,
            Ok(_) => {
                let msg = format!("{}: output differs from the interpreter", prog.name);
                self.fail(msg);
                false
            }
            Err(e) => {
                let msg = format!("{}: interpreter error: {e}", prog.name);
                self.fail(msg);
                false
            }
        }
    }

    /// Check the set-up calls [`Bench::verify`] deferred.
    fn check_pending(&mut self) {
        for (p, got, rng) in std::mem::take(&mut self.pending) {
            self.compare(p, got, &rng);
        }
    }

    fn traced(&self) -> bool {
        self.traced_round && self.recording
    }

    /// Start an op: stamp its id and, in traced rounds, turn the
    /// engine's counters on and read them.
    fn begin_op(&mut self) -> Counters {
        self.tr.op = if self.recording { self.next_op } else { SETUP };
        if !self.traced() {
            return Counters::default();
        }
        majic_trace::set_enabled(true);
        majic_trace::set_vm_profile(true);
        Counters::read()
    }

    /// Finish an op's engine part: read the counters and turn them off.
    fn end_op(&mut self, before: &Counters) {
        if !self.traced() {
            return;
        }
        majic_trace::set_vm_profile(false);
        majic_trace::set_enabled(false);
        let after = Counters::read();
        self.acc.counters.add_delta(before, &after);
    }

    /// Record a timed op's latency and counts.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        p: usize,
        kind: usize,
        took: Duration,
        ok: bool,
        fg_compiles: u64,
        before: &RepoStats,
        after: &RepoStats,
    ) {
        if !self.recording {
            return;
        }
        let slot = p * self.wl.kinds().len() + kind;
        let ms = took.as_secs_f64() * 1e3;
        self.acc.ops += 1;
        self.next_op += 1;
        if self.traced_round {
            self.traced_samples[slot].push(ms);
            self.acc.traced_ops += 1;
        } else {
            self.samples[slot].push(ms);
        }
        if ok {
            self.slot_compiles[slot] += fg_compiles;
            self.acc.fg_compiles += fg_compiles;
            self.acc.repo.add(before, after);
        }
    }

    /// Replay fidelity: the replayed op must match the engine's outputs
    /// bitwise and its compile count exactly.
    fn check_replay(
        &mut self,
        p: usize,
        engine: &RuntimeResult<Vec<Value>>,
        replayed: &RuntimeResult<Vec<Value>>,
        engine_compiles: u64,
        replay: replay::StageCounts,
    ) {
        let replay_compiles = replay.compiles;
        self.acc.replay.add(&replay);
        let same = match (engine, replayed) {
            (Ok(a), Ok(b)) => digest(a) == digest(b),
            _ => false,
        };
        if !same || engine_compiles != replay_compiles {
            let msg = format!(
                "{}: replay diverged (outputs equal: {same}, compiles engine {engine_compiles} \
                 vs replay {replay_compiles})",
                self.progs[p].name
            );
            self.fail(msg);
        }
    }

    // ----- set-up -------------------------------------------------------

    fn setup(&mut self) -> State {
        self.recording = false;
        match self.wl {
            Workload::ColdStart => {
                for p in 0..self.progs.len() {
                    self.cal.tick();
                    self.cold_op(p);
                }
                State::Cold
            }
            Workload::SteadyState => self.setup_steady(),
            Workload::EditRerun => self.setup_edit(),
            Workload::WarmRestart => self.setup_warm(),
        }
    }

    /// A session with every program loaded, called until each entry's
    /// tier-1 version has published.
    fn setup_steady(&mut self) -> State {
        let svc = CompilerService::with_options(options());
        let mut session = svc.session();
        for prog in &self.progs {
            session.load_source(prog.source).expect("program loads");
        }
        self.cal.tick();
        self.promote_all(&svc, &mut session);
        State::Steady {
            svc,
            session,
            replayer: None,
        }
    }

    /// Call every program's entry in `session` until the entry has a
    /// tier-1 version, draining the background queue after each call,
    /// so no promotion is left to land during the timed ops.
    fn promote_all(&mut self, svc: &CompilerService, session: &mut Session) {
        let mut wait_ns = 0u64;
        for p in 0..self.progs.len() {
            for _ in 0..PROMOTION_CALL_CAP {
                self.cal.tick();
                let rng = session.interp().ctx.rng.clone();
                let outs = session.call(self.progs[p].entry, &self.progs[p].args, 1);
                self.verify(p, &outs, &rng);
                let t = Instant::now();
                svc.background().wait();
                wait_ns += t.elapsed().as_nanos() as u64;
                let entry = self.progs[p].entry;
                let promoted = svc
                    .repository()
                    .entries_ns()
                    .iter()
                    .any(|(n, _, vs)| n == entry && vs.iter().any(|v| v.tier == Tier::T1));
                if promoted || outs.is_err() {
                    break;
                }
            }
        }
        self.setup_layer
            .insert("core.bg_wait_ms", wait_ns as f64 / 1e6);
        self.setup_layer
            .insert("core.tier_promotions", tier_published(svc) as f64);
    }

    /// One service; a viewer session that loaded the pristine sources
    /// and called them until promoted, and an editor session that
    /// loaded them too.
    fn setup_edit(&mut self) -> State {
        let svc = CompilerService::with_options(options());
        let mut viewer = svc.session();
        let mut editor = svc.session();
        for prog in &self.progs {
            viewer.load_source(prog.source).expect("program loads");
        }
        self.promote_all(&svc, &mut viewer);
        for prog in &self.progs {
            editor.load_source(prog.source).expect("program loads");
        }
        State::Edit {
            svc,
            _viewer: viewer,
            editor,
            replayer: None,
        }
    }

    /// Build the persistent cache: load everything, speculate, call
    /// each entry once, drain the background queue, save. Then one
    /// untimed warm op per program.
    fn setup_warm(&mut self) -> State {
        let cache = self.scratch.join("warm.majiccache");
        let _ = std::fs::remove_file(&cache);
        {
            let svc = CompilerService::with_options(options());
            svc.attach_cache(&cache);
            let mut s = svc.session();
            for prog in &self.progs {
                s.load_source(prog.source).expect("program loads");
            }
            s.speculate_all();
            for p in 0..self.progs.len() {
                self.cal.tick();
                let rng = s.interp().ctx.rng.clone();
                let outs = s.call(self.progs[p].entry, &self.progs[p].args, 1);
                self.verify(p, &outs, &rng);
            }
            let t = Instant::now();
            svc.background().wait();
            self.setup_layer
                .insert("core.bg_wait_ms", t.elapsed().as_secs_f64() * 1e3);
            self.setup_layer
                .insert("core.tier_promotions", tier_published(&svc) as f64);
            svc.save_cache().expect("cache saves");
        }
        let pristine = std::fs::read(&cache).expect("cache was written");
        self.cache_len = pristine.len() as u64;
        let state = State::Warm {
            entries: cache_entries(&cache),
            op_copy: self.scratch.join("op.majiccache"),
            cache,
            pristine,
        };
        for p in 0..self.progs.len() {
            self.cal.tick();
            self.warm_op(p, &state);
        }
        state
    }

    /// Traced runs replay the set-up's compile work stage by stage once,
    /// after the timed set-ups, and build the replayers ops reuse.
    fn replay_setup(&mut self, state: &mut State) {
        self.tr.op = SETUP;
        match state {
            State::Cold => {}
            State::Steady { svc, replayer, .. } => {
                let mut r = Replayer::new(svc.repository_handle(), 0);
                for prog in &self.progs {
                    r.load(prog.source, &mut self.tr);
                }
                // The tier-1 code the ops run: replay each promotion's
                // optimizing compile (into nothing; the engine's
                // repository only answers callee queries).
                for (name, ns, versions) in svc.repository().entries_ns() {
                    if ns != r.ns(&name) {
                        continue;
                    }
                    for v in versions.iter().filter(|v| v.tier == Tier::T1) {
                        r.promote(&name, &v.signature, &mut self.tr)
                            .expect("a promoted version recompiles");
                    }
                }
                self.setup_counts = r.counts;
                *replayer = Some(r);
            }
            State::Edit { replayer, .. } => {
                let mut r = Replayer::new(Arc::new(Repository::new()), 1);
                for prog in &self.progs {
                    r.load(prog.source, &mut self.tr);
                    let _ = r.call(prog.entry, &prog.args, &Lcg::new(), &mut self.tr);
                }
                r.pin_all();
                *replayer = Some(r);
            }
            State::Warm { .. } => {
                let mut r = Replayer::new(Arc::new(Repository::new()), 1);
                for prog in &self.progs {
                    r.load(prog.source, &mut self.tr);
                }
                let versions = r.speculate_all(&mut self.tr);
                let mut entries = Vec::new();
                for (name, ns, version) in versions {
                    let sp = self.tr.enter("vm.encode");
                    let bytes = version.code.encode();
                    self.tr.exit(sp);
                    std::hint::black_box(bytes);
                    entries.push(CacheEntry {
                        name,
                        source_hash: ns,
                        version,
                    });
                }
                let cache = RepoCache::new(
                    self.scratch.join("replay.majiccache"),
                    majic_codegen::build_fingerprint(),
                );
                let sp = self.tr.enter("repo.cache_save");
                let saved = cache.save(&entries);
                self.tr.exit(sp);
                saved.expect("replayed cache saves");
                self.setup_counts = r.counts;
            }
        }
    }

    // ----- ops ----------------------------------------------------------

    /// cold_start: a new service and session, load, first call.
    fn cold_op(&mut self, p: usize) {
        let (src, entry) = (self.progs[p].source, self.progs[p].entry);
        let args = self.progs[p].args.clone();
        let counters = self.begin_op();
        let t0 = Instant::now();
        let sp = self.tr.enter("engine.service_new");
        let svc = CompilerService::with_options(options());
        let mut s = svc.session();
        self.tr.exit(sp);
        let sp = self.tr.enter("engine.load_source");
        let loaded = s.load_source(src);
        self.tr.exit(sp);
        let rng = s.interp().ctx.rng.clone();
        let sp = self.tr.enter("engine.call");
        let outs = loaded.and_then(|()| s.call(entry, &args, 1));
        self.tr.exit(sp);
        let took = t0.elapsed();
        self.end_op(&counters);
        svc.background().wait();
        let after = svc.repository().stats();
        let fg = after.inserts - published(&svc);
        let ok = self.verify(p, &outs, &rng);
        self.prog_code_bytes[p] = code_bytes(svc.repository());
        if self.traced() {
            let sp = self.tr.enter("replay.op");
            let mut r = Replayer::new(Arc::new(Repository::new()), 1);
            r.load(src, &mut self.tr);
            let replayed = r.call(entry, &args, &rng, &mut self.tr);
            self.tr.exit(sp);
            self.check_replay(p, &outs, &replayed, fg, r.counts);
        }
        self.record(p, 0, took, ok, fg, &RepoStats::default(), &after);
    }

    /// steady_state: one more call in the long-lived session.
    fn steady_op(&mut self, p: usize, state: &mut State) {
        let State::Steady {
            svc,
            session,
            replayer,
        } = state
        else {
            unreachable!("steady op on steady state")
        };
        let (entry, args) = (self.progs[p].entry, self.progs[p].args.clone());
        let before = svc.repository().stats();
        let pub_before = published(svc);
        let rng = session.interp().ctx.rng.clone();
        let counters = self.begin_op();
        let t0 = Instant::now();
        let sp = self.tr.enter("engine.call");
        let outs = session.call(entry, &args, 1);
        self.tr.exit(sp);
        let took = t0.elapsed();
        self.end_op(&counters);
        svc.background().wait();
        let after = svc.repository().stats();
        let fg = (after.inserts - before.inserts) - (published(svc) - pub_before);
        let ok = self.verify(p, &outs, &rng);
        if self.traced() {
            let r = replayer.as_mut().expect("traced runs build a replayer");
            let counts = r.counts;
            let sp = self.tr.enter("replay.op");
            let replayed = r.call(entry, &args, &rng, &mut self.tr);
            self.tr.exit(sp);
            let n = r.counts.since(&counts);
            self.check_replay(p, &outs, &replayed, fg, n);
        }
        self.record(p, 0, took, ok, fg, &before, &after);
    }

    /// edit_rerun: the editor loads an edited (kind 0) or the pristine
    /// (kind 1) source and calls the entry.
    fn edit_op(&mut self, p: usize, kind: usize, state: &mut State) {
        let State::Edit {
            svc,
            editor,
            replayer,
            ..
        } = state
        else {
            unreachable!("edit op on edit state")
        };
        let (source, entry, args) = (
            self.progs[p].source,
            self.progs[p].entry,
            self.progs[p].args.clone(),
        );
        let src = if kind == 0 {
            edit_source(source, self.rng.below(1_000_000))
        } else {
            source.to_owned()
        };
        let before = svc.repository().stats();
        let pub_before = published(svc);
        let counters = self.begin_op();
        let t0 = Instant::now();
        let sp = self.tr.enter("engine.load_source");
        let loaded = editor.load_source(&src);
        self.tr.exit(sp);
        let rng = editor.interp().ctx.rng.clone();
        let sp = self.tr.enter("engine.call");
        let outs = loaded.and_then(|()| editor.call(entry, &args, 1));
        self.tr.exit(sp);
        let took = t0.elapsed();
        self.end_op(&counters);
        svc.background().wait();
        let after = svc.repository().stats();
        let fg = (after.inserts - before.inserts) - (published(svc) - pub_before);
        let ok = self.verify(p, &outs, &rng);
        if self.traced() {
            let r = replayer.as_mut().expect("traced runs build a replayer");
            let counts = r.counts;
            let sp = self.tr.enter("replay.op");
            r.load(&src, &mut self.tr);
            let replayed = r.call(entry, &args, &rng, &mut self.tr);
            self.tr.exit(sp);
            let n = r.counts.since(&counts);
            self.check_replay(p, &outs, &replayed, fg, n);
        }
        self.record(p, kind, took, ok, fg, &before, &after);
    }

    /// warm_restart: a new service attaches the cache, loads, calls —
    /// with no compile and no repository miss.
    fn warm_op(&mut self, p: usize, state: &State) {
        let State::Warm {
            cache,
            pristine,
            op_copy,
            entries,
        } = state
        else {
            unreachable!("warm op on warm state")
        };
        std::fs::write(op_copy, pristine).expect("cache copy writes");
        let (src, entry) = (self.progs[p].source, self.progs[p].entry);
        let args = self.progs[p].args.clone();
        let counters = self.begin_op();
        let t0 = Instant::now();
        let sp = self.tr.enter("engine.service_new");
        let svc = CompilerService::with_options(options());
        self.tr.exit(sp);
        let sp = self.tr.enter("engine.attach_cache");
        svc.attach_cache(op_copy);
        self.tr.exit(sp);
        let sp = self.tr.enter("engine.service_new");
        let mut s = svc.session();
        self.tr.exit(sp);
        let sp = self.tr.enter("engine.load_source");
        let loaded = s.load_source(src);
        self.tr.exit(sp);
        let rng = s.interp().ctx.rng.clone();
        let sp = self.tr.enter("engine.call");
        let outs = loaded.and_then(|()| s.call(entry, &args, 1));
        self.tr.exit(sp);
        let took = t0.elapsed();
        self.end_op(&counters);
        svc.background().wait();
        let after = svc.repository().stats();
        // Versions installed from the cache count as inserts too.
        let fg = after.inserts - published(&svc) - svc.cache_report().installed as u64;
        let mut ok = self.verify(p, &outs, &rng);
        if s.times.compile() != Duration::ZERO || after.misses != 0 {
            let msg = format!(
                "{}: warm op compiled ({:?}, {} misses)",
                self.progs[p].name,
                s.times.compile(),
                after.misses
            );
            self.fail(msg);
            ok = false;
        }
        self.prog_code_bytes[p] = code_bytes(svc.repository());
        drop(s);
        drop(svc);
        if cache_entries(op_copy) != *entries {
            let msg = format!(
                "{}: a warm op changed the cached entries",
                self.progs[p].name
            );
            self.fail(msg);
            ok = false;
        }
        if self.traced() {
            let sp = self.tr.enter("replay.op");
            let mut r = Replayer::new(Arc::new(Repository::new()), 1);
            r.load(src, &mut self.tr);
            let loader = RepoCache::new(cache, majic_codegen::build_fingerprint());
            let sp_load = self.tr.enter("repo.cache_load");
            let (entries, _) = loader.load();
            self.tr.exit(sp_load);
            for e in entries {
                if r.hashes.get(&e.name) != Some(&e.source_hash) {
                    continue;
                }
                let bytes = e.version.code.encode();
                let sp_dec = self.tr.enter("vm.decode");
                let decoded = Executable::decode(&bytes);
                self.tr.exit(sp_dec);
                let mut version = e.version;
                version.code = Arc::new(decoded.expect("cached code decodes"));
                let sp_ins = self.tr.enter("repo.insert");
                r.repo.insert_ns(&e.name, e.source_hash, 0, version);
                self.tr.exit(sp_ins);
            }
            let replayed = r.call(entry, &args, &rng, &mut self.tr);
            self.tr.exit(sp);
            self.check_replay(p, &outs, &replayed, fg, r.counts);
        }
        self.record(p, 0, took, ok, fg, &RepoStats::default(), &after);
    }

    fn round(&mut self, state: &mut State) {
        let order = self.rng.permutation(self.progs.len());
        for p in order {
            self.cal.tick();
            match self.wl {
                Workload::ColdStart => self.cold_op(p),
                Workload::SteadyState => self.steady_op(p, state),
                Workload::EditRerun => {
                    self.edit_op(p, 0, state);
                    self.edit_op(p, 1, state);
                }
                Workload::WarmRestart => self.warm_op(p, state),
            }
        }
    }

    /// Code bytes live at the end of the run.
    fn final_code_bytes(&self, state: &State) -> u64 {
        match state {
            State::Steady { svc, .. } | State::Edit { svc, .. } => {
                svc.background().wait();
                code_bytes(svc.repository())
            }
            State::Cold | State::Warm { .. } => self.prog_code_bytes.iter().sum(),
        }
    }
}

/// Per-slot 10th percentiles (ms) of the given samples.
fn slot_p10(samples: &[Vec<f64>]) -> Vec<f64> {
    samples.iter().map(|s| quantile(s, 0.10)).collect()
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    n: u64,
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchledger: {e}");
            return ExitCode::from(2);
        }
    };
    // The engine reads MAJIC_* settings from the environment; the
    // benchmark runs the defaults, pinned.
    for (k, _) in std::env::vars() {
        if k.starts_with("MAJIC_") {
            std::env::remove_var(k);
        }
    }
    majic_trace::set_enabled(false);
    let scratch = PathBuf::from(".benchledger_out").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("benchledger: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let code = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    code
}

fn run(args: &Args, scratch: &Path) -> ExitCode {
    let wl = args.workload;
    let mut b = Bench::new(wl, args.seed, scratch.to_path_buf());

    let (mut setup_s, mut setup_raw_s) = (Vec::new(), Vec::new());
    let mut state = State::Cold;
    for _ in 0..SETUPS {
        // Only one workload state is alive at a time.
        drop(std::mem::replace(&mut state, State::Cold));
        b.cal.begin_window();
        let t0 = Instant::now();
        state = b.setup();
        let took = t0.elapsed();
        let window = b.cal.end_window();
        let took = took.saturating_sub(window.inside).as_secs_f64();
        setup_raw_s.push(took);
        setup_s.push(took * window.scale());
        b.check_pending();
    }
    if args.trace {
        b.tr.set_on(true);
        b.replay_setup(&mut state);
    }

    b.recording = true;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let min_rounds = if args.trace { 2 } else { 1 };
    let mut rounds = 0u64;
    while rounds < min_rounds || Instant::now() < deadline {
        b.traced_round = args.trace && rounds % 2 == 1;
        b.tr.set_on(b.traced_round);
        b.round(&mut state);
        rounds += 1;
    }
    b.recording = false;
    b.traced_round = false;

    let kinds = wl.kinds();
    let code_bytes = b.final_code_bytes(&state);
    let acc = &b.acc;
    let failed = acc.failed + b.setup_failures;
    let attempted = acc.ops.max(1);
    let untraced_n: u64 = b.samples.iter().map(|s| s.len() as u64).sum();

    println!(
        "benchledger workload={} seed={} rounds={rounds} ops={} trace={}",
        wl.name(),
        args.seed,
        acc.ops,
        args.trace
    );
    for m in &b.messages {
        println!("FAILURE {m}");
    }

    // Per-program diagnostic rows (not gated).
    for (slot, s) in b.samples.iter().enumerate() {
        let (p, k) = (slot / kinds.len(), slot % kinds.len());
        let n = (b.samples[slot].len() + b.traced_samples[slot].len()) as f64;
        println!(
            "row {:<12} {:<10} {:<10} p10_ms={:.4} p50_ms={:.4} n={} compiles_per_op={:.2}",
            wl.name(),
            b.progs[p].name,
            kinds[k],
            quantile(s, 0.10),
            quantile(s, 0.50),
            s.len(),
            b.slot_compiles[slot] as f64 / n
        );
    }

    let p10 = slot_p10(&b.samples);
    let call_ms = geomean(&p10);
    let call_ms_worst = p10.iter().copied().fold(0.0, f64::max);
    let scale = b.cal.scale_run();
    println!(
        "calibration p10 = {} ms (n={}); as measured: call_ms = {call_ms} ms, \
         call_ms_worst = {call_ms_worst} ms, setup_s = {} s",
        quantile(&b.cal.samples, 0.10),
        b.cal.samples.len(),
        quantile(&setup_raw_s, 0.5)
    );
    let failed_frac = failed as f64 / attempted as f64;
    let e2e = [
        Metric {
            name: "call_ms",
            value: call_ms * scale,
            unit: "ms",
            n: untraced_n,
        },
        Metric {
            name: "call_ms_worst",
            value: call_ms_worst * scale,
            unit: "ms",
            n: untraced_n,
        },
        Metric {
            name: "code_bytes",
            value: code_bytes as f64,
            unit: "bytes",
            n: 1,
        },
        Metric {
            name: "setup_s",
            value: quantile(&setup_s, 0.5),
            unit: "s",
            n: SETUPS as u64,
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
            n: 1,
        },
    ];
    for m in &e2e {
        println!("metric {} = {} {} (n={})", m.name, m.value, m.unit, m.n);
    }
    println!("metric failed_frac = {failed_frac} fraction (n={attempted}; {failed} failed)");

    let metrics: Vec<Metric> = if args.trace {
        let layer = b.layer_metrics(&p10);
        for m in &layer {
            println!("layer {} = {} {} (n={})", m.name, m.value, m.unit, m.n);
        }
        if let Err(e) = b.tr.write(&PathBuf::from(".benchledger_out").join(format!(
            "spans-{}-{}.tsv",
            wl.name(),
            args.seed
        ))) {
            eprintln!("benchledger: cannot write spans: {e}");
        }
        // Exact counts: two same-seed runs of the same length agree on
        // these (see tests/exact_counts.rs).
        println!(
            "counts compiles={} inserts={} invalidations={} shared_hits={} code_bytes={} \
             vm_insts={} replay_compiles={}",
            acc.fg_compiles,
            acc.repo.inserts,
            acc.repo.invalidations,
            acc.repo.shared_hits,
            code_bytes,
            acc.counters.values[0],
            acc.replay.compiles
        );
        layer
    } else {
        e2e.into_iter().collect()
    };

    println!("{}", json_line(failed == 0, attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

impl Bench {
    /// The per-layer metrics of a traced run.
    fn layer_metrics(&self, untraced_p10: &[f64]) -> Vec<Metric> {
        let ops = self.tr.totals(|op| op != SETUP);
        let setup = self.tr.totals(|op| op == SETUP);
        let acc = &self.acc;
        let n = acc.traced_ops;
        let per_op_ms = |name: &str| {
            ratio(
                ops.get(name).map_or(0, |t| t.incl_ns) as f64 / 1e6,
                n as f64,
            )
        };
        let setup_ms = |name: &str| setup.get(name).map_or(0, |t| t.incl_ns) as f64 / 1e6;
        let all_ns = |name: &str| {
            (ops.get(name).map_or(0, |t| t.incl_ns) + setup.get(name).map_or(0, |t| t.incl_ns))
                as f64
        };
        let compile_stages = [
            "analysis.inline",
            "analysis.disambig",
            "infer.jit",
            "infer.spec",
            "codegen.select",
            "ir.passes",
            "vm.regalloc",
            "vm.exe_new",
        ];
        let compile_ns: f64 = compile_stages.iter().map(|s| all_ns(s)).sum();
        let exec_self_ms = ratio(
            ops.get("vm.exec").map_or(0, |t| t.self_ns) as f64 / 1e6,
            n as f64,
        );
        let lookup = ops.get("repo.lookup").copied().unwrap_or_default();
        let r = &acc.repo;
        let ops_all = acc.ops as f64;
        let covered_ns = ops.get("replay.op").map_or(0, |t| t.incl_ns)
            + ops.get("engine.service_new").map_or(0, |t| t.incl_ns);
        // The engine's time for the traced ops, at untraced speed: the
        // replay runs with the engine's counters off.
        let engine_ns: f64 = self
            .samples
            .iter()
            .zip(&self.traced_samples)
            .map(|(u, t)| ratio(u.iter().sum::<f64>(), u.len() as f64) * 1e6 * t.len() as f64)
            .sum();
        let traced_p10 = slot_p10(&self.traced_samples);
        // Code-quality counts: per op of the ops' replayed compiles, or,
        // where ops compile nothing (steady_state, warm_restart), per
        // compile of the set-up's optimizing ones.
        let (counts, per) = if acc.replay.compiles > 0 {
            (acc.replay, n as f64)
        } else {
            (self.setup_counts, self.setup_counts.compiles as f64)
        };
        let m = |name: &'static str, value: f64, unit: &'static str| Metric {
            name,
            value,
            unit,
            n,
        };
        vec![
            m("ast.parse_ms", per_op_ms("ast.parse"), "ms"),
            m("analysis.inline_ms", per_op_ms("analysis.inline"), "ms"),
            m("analysis.disambig_ms", per_op_ms("analysis.disambig"), "ms"),
            m(
                "analysis.disambig_frac",
                ratio(all_ns("analysis.disambig"), compile_ns),
                "fraction",
            ),
            m("infer.jit_ms", per_op_ms("infer.jit"), "ms"),
            m(
                "infer.compiles_per_op",
                ratio(acc.fg_compiles as f64, ops_all),
                "count",
            ),
            m("infer.spec_ms", setup_ms("infer.spec"), "ms"),
            m("codegen.select_ms", per_op_ms("codegen.select"), "ms"),
            m(
                "codegen.insts",
                ratio(counts.insts_selected as f64, per),
                "count",
            ),
            m(
                "ir.passes_ms",
                per_op_ms("ir.passes") + setup_ms("ir.passes"),
                "ms",
            ),
            m(
                "ir.insts_after_passes_frac",
                ratio(
                    counts.insts_after_passes as f64,
                    counts.insts_selected as f64,
                ),
                "fraction",
            ),
            m("vm.regalloc_ms", per_op_ms("vm.regalloc"), "ms"),
            m("vm.spills", ratio(counts.spills as f64, per), "count"),
            m("vm.exec_self_ms", exec_self_ms, "ms"),
            m(
                "vm.insts_executed",
                ratio(acc.counters.values[0] as f64, n as f64),
                "count",
            ),
            m("vm.decode_ms", per_op_ms("vm.decode"), "ms"),
            m("vm.encode_ms", setup_ms("vm.encode"), "ms"),
            m(
                "runtime.matrix_allocs",
                ratio(acc.counters.values[1] as f64, n as f64),
                "count",
            ),
            m(
                "runtime.deep_copies",
                ratio(acc.counters.values[2] as f64, n as f64),
                "count",
            ),
            m(
                "runtime.builtin_calls",
                ratio(acc.counters.values[3] as f64, n as f64),
                "count",
            ),
            m(
                "repo.lookup_ns",
                ratio(lookup.incl_ns as f64, lookup.count as f64),
                "ns",
            ),
            m(
                "repo.lookups_per_op",
                ratio((r.hits + r.misses) as f64, ops_all),
                "count",
            ),
            m(
                "repo.lookup_distance_mean",
                ratio(acc.counters.dist_sum as f64, acc.counters.dist_count as f64),
                "count",
            ),
            m("repo.inserts", ratio(r.inserts as f64, ops_all), "count"),
            m(
                "repo.invalidations",
                ratio(r.invalidations as f64, ops_all),
                "count",
            ),
            m(
                "repo.shared_hits",
                ratio(r.shared_hits as f64, ops_all),
                "count",
            ),
            m(
                "repo.hit_frac",
                ratio(r.hits as f64, (r.hits + r.misses) as f64),
                "fraction",
            ),
            m("repo.cache_load_ms", per_op_ms("repo.cache_load"), "ms"),
            m("repo.cache_bytes", self.cache_len as f64, "bytes"),
            m("repo.cache_save_ms", setup_ms("repo.cache_save"), "ms"),
            m(
                "repo.tier1_hit_frac",
                ratio(r.tier1_hits as f64, r.hits as f64),
                "fraction",
            ),
            m("core.service_new_ms", per_op_ms("engine.service_new"), "ms"),
            m(
                "core.namespace_ms",
                per_op_ms("engine.load_source") - per_op_ms("ast.parse"),
                "ms",
            ),
            m(
                "core.bg_wait_ms",
                self.setup_layer
                    .get("core.bg_wait_ms")
                    .copied()
                    .unwrap_or(0.0),
                "ms",
            ),
            m(
                "core.tier_promotions",
                self.setup_layer
                    .get("core.tier_promotions")
                    .copied()
                    .unwrap_or(0.0),
                "count",
            ),
            m(
                "core.unattributed_frac",
                1.0 - ratio(covered_ns as f64, engine_ns),
                "fraction",
            ),
            m(
                "trace.overhead_frac",
                geomean(&traced_p10) / geomean(untraced_p10) - 1.0,
                "fraction",
            ),
        ]
    }
}
