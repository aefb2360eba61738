//! Stage-by-stage replay of the engine's work through each layer's
//! public functions, timed from outside: parse → inline → disambiguate
//! → infer → select → IR passes → register allocation → executable,
//! and execution under a dispatcher owned by the benchmark that times
//! every repository lookup and insert.
//!
//! The replay mirrors the engine's JIT-on-miss policy (closure-hash
//! namespaces, range widening after two exact versions), so it must
//! produce bitwise the same outputs and the same number of compiles as
//! the engine did for the same op; the workloads check both.

use crate::spans::Tracer;
use majic::{RuntimeError, RuntimeResult, Value};
use majic_analysis::{disambiguate, inline_function, InlineOptions};
use majic_ast::{parse_source, Expr, ExprKind, Function, LValue, Stmt, StmtKind};
use majic_codegen::CodegenOptions;
use majic_infer::{infer_jit, infer_speculative, CalleeOracle, InferOptions};
use majic_ir::passes::{self, PassOptions};
use majic_repo::{CodeQuality, CompiledVersion, Repository, Tier, DEFAULT_NS};
use majic_runtime::builtins::CallCtx;
use majic_runtime::Lcg;
use majic_types::{Lattice, Range, Signature, Type};
use majic_vm::{allocate, execute, Dispatcher, Executable};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Work counted at the codegen/IR/VM boundaries of replayed compiles.
#[derive(Clone, Copy, Default)]
pub struct StageCounts {
    pub compiles: u64,
    pub insts_selected: u64,
    pub insts_after_passes: u64,
    pub spills: u64,
}

impl StageCounts {
    pub fn add(&mut self, o: &StageCounts) {
        self.compiles += o.compiles;
        self.insts_selected += o.insts_selected;
        self.insts_after_passes += o.insts_after_passes;
        self.spills += o.spills;
    }

    /// What was counted after `earlier` was taken.
    pub fn since(&self, earlier: &StageCounts) -> StageCounts {
        StageCounts {
            compiles: self.compiles - earlier.compiles,
            insts_selected: self.insts_selected - earlier.insts_selected,
            insts_after_passes: self.insts_after_passes - earlier.insts_after_passes,
            spills: self.spills - earlier.spills,
        }
    }
}

/// One replaying "session": its sources, namespaces and repository.
pub struct Replayer {
    pub repo: Arc<Repository>,
    registry: HashMap<String, Function>,
    known: HashSet<String>,
    pub hashes: HashMap<String, u64>,
    /// Namespaces other sessions keep alive; a namespace this replayer
    /// leaves is invalidated unless it is pinned here.
    pub pinned: HashSet<(String, u64)>,
    next_node_id: u32,
    session: u64,
    pub counts: StageCounts,
}

impl Replayer {
    pub fn new(repo: Arc<Repository>, session: u64) -> Replayer {
        Replayer {
            repo,
            registry: HashMap::new(),
            known: HashSet::new(),
            hashes: HashMap::new(),
            pinned: HashSet::new(),
            next_node_id: 0,
            session,
            counts: StageCounts::default(),
        }
    }

    /// Parse and register `src`, then move every function whose
    /// closure changed to its new namespace.
    pub fn load(&mut self, src: &str, tr: &mut Tracer) {
        let sp = tr.enter("ast.parse");
        let file = parse_source(src).expect("Table-1 program parses");
        tr.exit(sp);
        self.next_node_id = self.next_node_id.max(file.node_count);
        for f in file.functions {
            self.known.insert(f.name.clone());
            self.registry.insert(f.name.clone(), f);
        }
        let new = closure_hashes(&self.registry, &self.known);
        for (name, &ns) in &new {
            if let Some(&old) = self.hashes.get(name) {
                if old != ns && !self.pinned.contains(&(name.clone(), old)) {
                    self.repo.invalidate_ns(name, old);
                }
            }
        }
        self.hashes = new;
    }

    /// Pin every current namespace (another session keeps using it).
    pub fn pin_all(&mut self) {
        self.pinned = self.hashes.iter().map(|(n, &h)| (n.clone(), h)).collect();
    }

    /// Call `name(args)` with the session generator at `rng`.
    pub fn call(
        &mut self,
        name: &str,
        args: &[Value],
        rng: &Lcg,
        tr: &mut Tracer,
    ) -> RuntimeResult<Vec<Value>> {
        let mut ctx = CallCtx::new();
        ctx.rng = rng.clone();
        let mut d = Replay {
            r: self,
            tr,
            depth: 0,
        };
        d.call_user(name, args, 1, &mut ctx)
    }

    /// Speculatively compile every registered function (the optimizing
    /// pipeline on guessed signatures), as `speculate_all` does.
    /// Returns `(name, namespace, version)` for each success.
    pub fn speculate_all(&mut self, tr: &mut Tracer) -> Vec<(String, u64, CompiledVersion)> {
        let mut names: Vec<String> = self.registry.keys().cloned().collect();
        names.sort();
        let mut out = Vec::new();
        for name in names {
            if let Ok(v) = self.compile(&name, None, true, tr) {
                out.push((name.clone(), self.ns(&name), v));
            }
        }
        out
    }

    /// Recompile `name` for `sig` with the optimizing backend, as a
    /// hot promotion to tier 1 does. Nothing is inserted.
    pub fn promote(&mut self, name: &str, sig: &Signature, tr: &mut Tracer) -> RuntimeResult<()> {
        self.compile(name, Some(sig), true, tr).map(drop)
    }

    pub fn ns(&self, name: &str) -> u64 {
        self.hashes.get(name).copied().unwrap_or(DEFAULT_NS)
    }

    /// One compile, stage by stage. `sig = None` is speculative
    /// inference, otherwise JIT inference for `sig`; `optimizing`
    /// picks the tier-1 backend over the fast JIT one.
    fn compile(
        &mut self,
        name: &str,
        sig: Option<&Signature>,
        optimizing: bool,
        tr: &mut Tracer,
    ) -> RuntimeResult<CompiledVersion> {
        let t0 = Instant::now();
        let f = self
            .registry
            .get(name)
            .ok_or_else(|| RuntimeError::Undefined(name.to_owned()))?;
        let sp = tr.enter("analysis.inline");
        let inlined = inline_function(
            f,
            &self.registry,
            InlineOptions::default(),
            &mut self.next_node_id,
        );
        tr.exit(sp);
        let sp = tr.enter("analysis.disambig");
        let d = disambiguate(&inlined, &self.known);
        tr.exit(sp);
        let oracle = Oracle {
            repo: &self.repo,
            hashes: &self.hashes,
        };
        let (signature, ann) = match sig {
            Some(s) => {
                let sp = tr.enter("infer.jit");
                let ann = infer_jit(&d, s, InferOptions::default(), &oracle);
                tr.exit(sp);
                (s.clone(), ann)
            }
            None => {
                let sp = tr.enter("infer.spec");
                let inferred = infer_speculative(&d, InferOptions::default(), &oracle);
                tr.exit(sp);
                inferred
            }
        };
        let (mut cg, quality, tier) = if optimizing {
            let mut cg = CodegenOptions::optimizing();
            // The engine's default platform (SPARC) runs no LICM.
            cg.passes = PassOptions {
                licm: false,
                ..PassOptions::all()
            };
            (cg, CodeQuality::Optimized, Tier::T1)
        } else {
            (CodegenOptions::jit(), CodeQuality::Jit, Tier::T0)
        };
        cg.oversize = true;
        let sp = tr.enter("codegen.select");
        let selected = majic_codegen::compile(&d, &ann, &cg);
        tr.exit(sp);
        let mut func = selected.map_err(|e| RuntimeError::Raised(e.to_string()))?;
        self.counts.insts_selected += func.inst_count() as u64;
        let sp = tr.enter("ir.passes");
        passes::optimize(&mut func, cg.passes);
        tr.exit(sp);
        self.counts.insts_after_passes += func.inst_count() as u64;
        let sp = tr.enter("vm.regalloc");
        let (f_spill, c_spill) = allocate(&mut func, cg.regalloc);
        tr.exit(sp);
        self.counts.spills += u64::from(f_spill + c_spill);
        let sp = tr.enter("vm.exe_new");
        let exe = Executable::new(&func, f_spill, c_spill);
        tr.exit(sp);
        self.counts.compiles += 1;
        let mut output_types = ann.outputs.clone();
        if output_types.is_empty() {
            output_types = vec![Type::top(); d.function.outputs.len()];
        }
        Ok(CompiledVersion {
            signature,
            code: Arc::new(exe),
            quality,
            tier,
            output_types,
            compile_time: t0.elapsed(),
        })
    }
}

struct Oracle<'a> {
    repo: &'a Repository,
    hashes: &'a HashMap<String, u64>,
}

impl CalleeOracle for Oracle<'_> {
    fn call_types(&self, name: &str, args: &[Type], _nargout: usize) -> Option<Vec<Type>> {
        let sig = Signature::new(args.to_vec());
        match self.hashes.get(name) {
            Some(&ns) => self.repo.call_types_ns(name, ns, &sig),
            None => self.repo.call_types(name, &sig),
        }
    }
}

/// The benchmark's dispatcher: the engine's find-or-compile policy,
/// with the repository calls timed.
struct Replay<'a> {
    r: &'a mut Replayer,
    tr: &'a mut Tracer,
    depth: usize,
}

impl Replay<'_> {
    fn lookup(&mut self, name: &str, ns: u64, sig: &Signature) -> Option<Arc<CompiledVersion>> {
        let sp = self.tr.enter("repo.lookup");
        let v = self.r.repo.lookup_ns(name, ns, self.r.session, sig);
        self.tr.exit(sp);
        v
    }

    fn ensure_code(&mut self, name: &str, sig: &Signature) -> RuntimeResult<Arc<CompiledVersion>> {
        let ns = self.r.ns(name);
        if let Some(v) = self.lookup(name, ns, sig) {
            return Ok(v);
        }
        let sig = if self.r.repo.version_count_ns(name, ns) >= 2 {
            sig.params()
                .iter()
                .map(|t| t.with_range(Range::top()))
                .collect()
        } else {
            sig.clone()
        };
        let version = self.r.compile(name, Some(&sig), false, self.tr)?;
        let sp = self.tr.enter("repo.insert");
        self.r.repo.insert_ns(name, ns, self.r.session, version);
        self.tr.exit(sp);
        Ok(self
            .lookup(name, ns, &sig)
            .expect("a freshly inserted version admits its own signature"))
    }
}

impl Dispatcher for Replay<'_> {
    fn call_user(
        &mut self,
        name: &str,
        args: &[Value],
        nargout: usize,
        ctx: &mut CallCtx,
    ) -> RuntimeResult<Vec<Value>> {
        if self.depth > 4000 {
            return Err(RuntimeError::Raised("recursion limit exceeded".to_owned()));
        }
        let sig: Signature = args.iter().map(Value::type_of).collect();
        let version = self.ensure_code(name, &sig)?;
        self.depth += 1;
        let sp = self.tr.enter("vm.exec");
        let r = execute(&version.code, args, nargout, self, ctx);
        self.tr.exit(sp);
        self.depth -= 1;
        let mut outs = r?;
        outs.truncate(nargout.max(1));
        Ok(outs)
    }
}

/// `name → namespace`: a hash of the pretty-printed source of each
/// function's transitive call closure, the partition the engine's
/// repository namespaces follow.
pub fn closure_hashes(
    registry: &HashMap<String, Function>,
    known: &HashSet<String>,
) -> HashMap<String, u64> {
    let mut printed: HashMap<&str, String> = HashMap::new();
    let mut callees: HashMap<&str, Vec<String>> = HashMap::new();
    for (name, f) in registry {
        printed.insert(name, format!("{f}"));
        let mut out = Vec::new();
        stmt_callees(&f.body, known, &mut out);
        out.retain(|c| registry.contains_key(c));
        callees.insert(name, out);
    }
    let mut hashes = HashMap::new();
    for name in registry.keys() {
        let mut closure: BTreeSet<&str> = BTreeSet::new();
        let mut stack: Vec<&str> = vec![name];
        while let Some(n) = stack.pop() {
            if closure.insert(n) {
                if let Some(cs) = callees.get(n) {
                    stack.extend(cs.iter().map(String::as_str));
                }
            }
        }
        let mut buf = Vec::new();
        for n in &closure {
            buf.extend_from_slice(n.as_bytes());
            buf.push(0);
            buf.extend_from_slice(printed[n].as_bytes());
            buf.push(0);
        }
        let mut h = majic_types::wire::fnv1a(&buf);
        if h == DEFAULT_NS {
            h = 1;
        }
        hashes.insert(name.clone(), h);
    }
    hashes
}

fn stmt_callees(stmts: &[Stmt], known: &HashSet<String>, out: &mut Vec<String>) {
    for s in stmts {
        match &s.kind {
            StmtKind::Expr { expr, .. } => expr_callees(expr, known, out),
            StmtKind::Assign { rhs, lhs, .. } => {
                expr_callees(rhs, known, out);
                if let LValue::Index { args, .. } = lhs {
                    for a in args {
                        expr_callees(a, known, out);
                    }
                }
            }
            StmtKind::MultiAssign { callee, args, .. } => {
                if known.contains(callee) {
                    out.push(callee.clone());
                }
                for a in args {
                    expr_callees(a, known, out);
                }
            }
            StmtKind::If {
                branches,
                else_body,
            } => {
                for (c, b) in branches {
                    expr_callees(c, known, out);
                    stmt_callees(b, known, out);
                }
                if let Some(b) = else_body {
                    stmt_callees(b, known, out);
                }
            }
            StmtKind::While { cond, body } => {
                expr_callees(cond, known, out);
                stmt_callees(body, known, out);
            }
            StmtKind::For { iter, body, .. } => {
                expr_callees(iter, known, out);
                stmt_callees(body, known, out);
            }
            _ => {}
        }
    }
}

fn expr_callees(e: &Expr, known: &HashSet<String>, out: &mut Vec<String>) {
    e.walk(&mut |e| match &e.kind {
        ExprKind::Apply { callee, .. } | ExprKind::Ident(callee) if known.contains(callee) => {
            out.push(callee.clone());
        }
        _ => {}
    });
}
