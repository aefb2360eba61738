//! The linear disambiguation pass against a reference implementation,
//! and its cost on deep loop nests.
//!
//! The reference is the straightforward analysis the pass replaced: it
//! walks every loop body twice (once to find what the body defines, once
//! more from the joined loop-head state), so a loop nest of depth `d`
//! costs `2^d` body visits. It keeps one `name → definitely-defined` map
//! per program point and clones it at every branch. Both must agree on
//! every symbol and on the variable numbering, for every function of the
//! Table-1 programs (inlined as the engine inlines them, and as written)
//! and for generated programs of every fuzz grammar.

use majic_analysis::{disambiguate, inline_function, InlineOptions, SymbolKind, VarId};
use majic_ast::{parse_source, Function, NodeId};
use majic_testkit::fuzzgen::{generate_with, Grammar};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

mod reference {
    use majic_analysis::{SymbolKind, VarId};
    use majic_ast::{Expr, ExprKind, Function, LValue, NodeId, Stmt, StmtKind};
    use majic_runtime::builtins::Builtin;
    use std::collections::{HashMap, HashSet};

    /// Per variable name: present = maybe defined, value = definitely.
    #[derive(Clone, Debug)]
    struct State {
        vars: HashMap<String, bool>,
        reachable: bool,
    }

    impl State {
        fn join(&self, other: &State) -> State {
            if !self.reachable {
                return other.clone();
            }
            if !other.reachable {
                return self.clone();
            }
            let mut vars = HashMap::new();
            for (name, &a) in &self.vars {
                vars.insert(name.clone(), a && other.vars.get(name) == Some(&true));
            }
            for name in other.vars.keys() {
                vars.entry(name.clone()).or_insert(false);
            }
            State {
                vars,
                reachable: true,
            }
        }
    }

    struct Analyzer<'a> {
        known: &'a HashSet<String>,
        vars: Vec<String>,
        symbols: HashMap<NodeId, SymbolKind>,
        breaks: Vec<State>,
        continues: Vec<State>,
    }

    impl Analyzer<'_> {
        fn intern(&mut self, name: &str) -> VarId {
            match self.vars.iter().position(|v| v == name) {
                Some(i) => VarId(i as u32),
                None => {
                    self.vars.push(name.to_owned());
                    VarId(self.vars.len() as u32 - 1)
                }
            }
        }

        fn callable(&self, name: &str) -> SymbolKind {
            if let Some(b) = Builtin::lookup(name) {
                SymbolKind::Builtin(b)
            } else if self.known.contains(name) {
                SymbolKind::UserFunction
            } else {
                SymbolKind::Unknown
            }
        }

        fn record_use(&mut self, id: NodeId, name: &str, state: &State) {
            let kind = match state.vars.get(name) {
                Some(true) => SymbolKind::Variable(self.intern(name)),
                Some(false) => SymbolKind::Ambiguous(self.intern(name)),
                None => self.callable(name),
            };
            self.symbols.insert(id, kind);
        }

        fn expr(&mut self, e: &Expr, state: &State) {
            match &e.kind {
                ExprKind::Ident(name) => self.record_use(e.id, name, state),
                ExprKind::Apply { callee, args } => {
                    self.record_use(e.id, callee, state);
                    args.iter().for_each(|a| self.expr(a, state));
                }
                ExprKind::Range { start, step, stop } => {
                    self.expr(start, state);
                    if let Some(s) = step {
                        self.expr(s, state);
                    }
                    self.expr(stop, state);
                }
                ExprKind::Unary { operand, .. } | ExprKind::Transpose { operand, .. } => {
                    self.expr(operand, state);
                }
                ExprKind::Binary { lhs, rhs, .. } => {
                    self.expr(lhs, state);
                    self.expr(rhs, state);
                }
                ExprKind::Matrix(rows) => rows.iter().flatten().for_each(|el| self.expr(el, state)),
                ExprKind::Number { .. } | ExprKind::Str(_) | ExprKind::Colon | ExprKind::End => {}
            }
        }

        fn define(&mut self, lv: &LValue, state: &mut State) {
            if let LValue::Index { args, .. } = lv {
                args.iter().for_each(|a| self.expr(a, state));
            }
            let v = self.intern(lv.name());
            state.vars.insert(lv.name().to_owned(), true);
            self.symbols.insert(lv.id(), SymbolKind::Variable(v));
        }

        fn block(&mut self, stmts: &[Stmt], mut state: State) -> State {
            for s in stmts {
                state.reachable = true;
                state = self.stmt(s, state);
            }
            state
        }

        /// Two passes over `body` from `entry`: returns the head state,
        /// the second pass's fall-through and its break states.
        fn body_twice(
            &mut self,
            cond: Option<&Expr>,
            body: &[Stmt],
            entry: &State,
        ) -> (State, State, Vec<State>) {
            let saved = (
                std::mem::take(&mut self.breaks),
                std::mem::take(&mut self.continues),
            );
            if let Some(c) = cond {
                self.expr(c, entry);
            }
            let first = self.block(body, entry.clone());
            let mut head = entry.join(&first);
            for c in std::mem::take(&mut self.continues) {
                head = head.join(&c);
            }
            self.breaks.clear();
            if let Some(c) = cond {
                self.expr(c, &head);
            }
            let second = self.block(body, head.clone());
            let breaks = std::mem::replace(&mut self.breaks, saved.0);
            self.continues = saved.1;
            (head, second, breaks)
        }

        fn stmt(&mut self, s: &Stmt, mut state: State) -> State {
            match &s.kind {
                StmtKind::Expr { expr, .. } => {
                    self.expr(expr, &state);
                    state
                }
                StmtKind::Assign { lhs, rhs, .. } => {
                    self.expr(rhs, &state);
                    self.define(lhs, &mut state);
                    state
                }
                StmtKind::MultiAssign {
                    lhs,
                    id,
                    callee,
                    args,
                    ..
                } => {
                    args.iter().for_each(|a| self.expr(a, &state));
                    let kind = self.callable(callee);
                    self.symbols.insert(*id, kind);
                    lhs.iter().for_each(|lv| self.define(lv, &mut state));
                    state
                }
                StmtKind::If {
                    branches,
                    else_body,
                } => {
                    let mut out: Option<State> = None;
                    for (cond, body) in branches {
                        self.expr(cond, &state);
                        let b = self.block(body, state.clone());
                        out = Some(match out {
                            Some(o) => o.join(&b),
                            None => b,
                        });
                    }
                    let else_out = match else_body {
                        Some(body) => self.block(body, state),
                        None => state,
                    };
                    match out {
                        Some(o) => o.join(&else_out),
                        None => else_out,
                    }
                }
                StmtKind::While { cond, body } => {
                    let (head, second, breaks) = self.body_twice(Some(cond), body, &state);
                    let mut exit = state.join(&head).join(&second);
                    for b in breaks {
                        exit = exit.join(&b);
                    }
                    exit
                }
                StmtKind::For {
                    var,
                    var_id,
                    iter,
                    body,
                } => {
                    self.expr(iter, &state);
                    let v = self.intern(var);
                    self.symbols.insert(*var_id, SymbolKind::Variable(v));
                    let mut body_in = state.clone();
                    body_in.vars.insert(var.clone(), true);
                    let (head, second, breaks) = self.body_twice(None, body, &body_in);
                    let mut exit = state.join(&head).join(&second);
                    for b in breaks {
                        exit = exit.join(&b);
                    }
                    exit
                }
                StmtKind::Break => {
                    self.breaks.push(state.clone());
                    state.reachable = false;
                    state
                }
                StmtKind::Continue => {
                    self.continues.push(state.clone());
                    state.reachable = false;
                    state
                }
                StmtKind::Return => {
                    state.reachable = false;
                    state
                }
                StmtKind::Global(names) => {
                    for n in names {
                        self.intern(n);
                        state.vars.insert(n.clone(), true);
                    }
                    state
                }
                StmtKind::Clear(names) => {
                    if names.is_empty() {
                        state.vars.clear();
                    }
                    for n in names {
                        state.vars.remove(n);
                    }
                    state
                }
            }
        }
    }

    /// Variable names and symbol meanings of `f`.
    pub fn analyze(
        f: &Function,
        known: &HashSet<String>,
    ) -> (Vec<String>, HashMap<NodeId, SymbolKind>) {
        let mut a = Analyzer {
            known,
            vars: Vec::new(),
            symbols: HashMap::new(),
            breaks: Vec::new(),
            continues: Vec::new(),
        };
        let mut state = State {
            vars: HashMap::new(),
            reachable: true,
        };
        for p in &f.params {
            a.intern(p);
            state.vars.insert(p.clone(), true);
        }
        for o in &f.outputs {
            a.intern(o);
        }
        a.block(&f.body, state);
        (a.vars, a.symbols)
    }
}

/// Every function of `src`, as written and inlined the way the engine
/// inlines it.
fn functions_of(src: &str) -> (Vec<Function>, HashSet<String>) {
    let file = parse_source(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let registry: HashMap<String, Function> = file
        .functions
        .iter()
        .map(|f| (f.name.clone(), f.clone()))
        .collect();
    let known: HashSet<String> = registry.keys().cloned().collect();
    let mut next = file.node_count;
    let mut out = Vec::new();
    for f in &file.functions {
        out.push(f.clone());
        out.push(inline_function(
            f,
            &registry,
            InlineOptions::default(),
            &mut next,
        ));
    }
    (out, known)
}

fn assert_matches_reference(f: &Function, known: &HashSet<String>, what: &str) {
    let d = disambiguate(f, known);
    let (vars, symbols) = reference::analyze(f, known);
    assert_eq!(d.table.vars, vars, "{what}: variable numbering differs");
    for (i, name) in vars.iter().enumerate() {
        assert_eq!(d.table.var_id(name), Some(VarId(i as u32)), "{what}");
    }
    let mut ids: Vec<&NodeId> = symbols.keys().collect();
    ids.sort_by_key(|id| id.0);
    for id in ids {
        assert_eq!(
            d.table.symbols.get(id),
            Some(&symbols[id]),
            "{what}: symbol {id:?} differs"
        );
    }
    assert_eq!(d.table.symbols.len(), symbols.len(), "{what}");
}

#[test]
fn table1_programs_match_the_reference() {
    for b in majic_bench::all() {
        let (functions, known) = functions_of(b.source);
        for f in &functions {
            assert_matches_reference(f, &known, &format!("{} / {}", b.name, f.name));
        }
    }
}

#[test]
fn generated_programs_match_the_reference() {
    for grammar in [Grammar::Default, Grammar::Aliasing, Grammar::Control] {
        for seed in 0..300 {
            let src = generate_with(seed, grammar).source();
            let (functions, known) = functions_of(&src);
            for f in &functions {
                assert_matches_reference(f, &known, &format!("{grammar:?} seed {seed}\n{src}"));
            }
        }
    }
}

#[test]
fn control_flow_corner_cases_match_the_reference() {
    let cases = [
        // Dead code after a jump is analyzed with the facts at the jump.
        "function r = f(c)\nr = 0;\nfor k = 1:3\n if c\n  t = 1;\n  break\n  u = t;\n end\n continue\n v = k;\nend\nw = u + v;\n",
        // Every arm returns: the else arm's facts reach the dead code.
        "function r = f(c)\nif c\n a = 1;\n return\nelseif c > 1\n b = 2;\n return\nelse\n d = 3;\n return\nend\nr = a + b + d;\n",
        // A while whose body always breaks; `continue` in a nested loop.
        "function r = f(n)\nr = 0;\nwhile n > 0\n for j = 1:n\n  if j > 2\n   q = j;\n   continue\n  end\n  r = r + q;\n end\n break\nend\nr = r + q;\n",
        // clear, clear all, global, multi-assignment and shadowed builtins.
        "function [a, b] = f(x)\nglobal g\ni = 1;\nclear i\ny = i + g;\nfor k = 1:x\n [a, b] = size(k);\n if a\n  clear\n end\n pi = pi + a;\nend\nz = pi + b;\n",
        // Loop-carried definitions through several nested loops.
        "function r = f(n)\nfor a = 1:n\n for b = 1:n\n  while b < n\n   s = t;\n   t = u;\n   u = 1;\n   b = b + 1;\n  end\n end\nend\nr = s;\n",
    ];
    for src in cases {
        let (functions, known) = functions_of(src);
        for f in &functions {
            assert_matches_reference(f, &known, src);
        }
    }
}

/// `depth` nested loops, alternating `for` and `while`, with a
/// loop-carried definition and a `continue` at every level.
fn deep_nest(depth: usize) -> String {
    let mut src = String::from("function s = deep(n)\ns = 0;\n");
    for d in 0..depth {
        if d % 2 == 0 {
            src.push_str(&format!("for k{d} = 1:n\n"));
        } else {
            src.push_str(&format!("w{d} = 0;\nwhile w{d} < n\nw{d} = w{d} + 1;\n"));
        }
        src.push_str(&format!("if s > {d}\n c{d} = s;\n continue\nend\n"));
    }
    src.push_str("s = s + 1;\n");
    for d in (0..depth).rev() {
        src.push_str(&format!("s = s + c{d};\nend\n"));
    }
    src
}

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

#[test]
fn deep_loop_nests_cost_linear_time() {
    // Small nests are still cheap for the exponential reference.
    for depth in 1..=8 {
        let (functions, known) = functions_of(&deep_nest(depth));
        assert_matches_reference(&functions[0], &known, &format!("depth {depth}"));
    }
    // At depth 24 the reference would need about 2^24 body visits.
    let file = parse_source(&deep_nest(24)).unwrap();
    let (d, took) = time(|| disambiguate(&file.functions[0], &HashSet::new()));
    assert!(took < Duration::from_secs(2), "depth 24 took {took:?}");
    // `c23` is defined only on the innermost `continue` path, so the
    // uses after each loop see it as maybe-defined.
    let c = d.table.var_id("c23").expect("c23 is a variable");
    assert!(d
        .table
        .symbols
        .values()
        .any(|k| *k == SymbolKind::Ambiguous(c)));
}

#[test]
fn maximally_inlined_ackermann_is_cheap() {
    let b = majic_bench::by_name("ackermann").unwrap();
    let file = parse_source(b.source).unwrap();
    let registry: HashMap<String, Function> = file
        .functions
        .iter()
        .map(|f| (f.name.clone(), f.clone()))
        .collect();
    let known: HashSet<String> = registry.keys().cloned().collect();
    let opts = InlineOptions {
        max_recursion: 6,
        ..InlineOptions::default()
    };
    let mut next = file.node_count;
    let inlined = inline_function(&file.functions[0], &registry, opts, &mut next);
    let (d, took) = time(|| disambiguate(&inlined, &known));
    assert!(took < Duration::from_secs(2), "took {took:?}");
    assert!(d.table.var_count() > 1000, "{} vars", d.table.var_count());
}
