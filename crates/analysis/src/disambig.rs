//! Symbol disambiguation by reaching-definitions dataflow (paper §2.1).
//!
//! The fact at a program point is two bits per variable: *maybe defined*
//! (some path to the point defines it) and *definitely defined* (every
//! path does). Both live in dense bit vectors indexed by [`VarId`].
//!
//! Loops are where a dataflow pass gets expensive, so they are solved in
//! closed form. Per variable, the effect of any statement sequence on
//! this lattice is a join of *define*, *clear* and *keep*; such a
//! function `f` satisfies `f∘f = f`, so a loop head's fixpoint is
//! `entry ⊔ f(entry)`. The analysis therefore walks the function twice,
//! whatever its loop nesting depth:
//!
//! 1. **Summarize.** Each loop body is walked once from the identity
//!    transfer, which records the body's effect `f` symbolically.
//! 2. **Annotate.** One walk from the function entry applies each loop's
//!    recorded `f` at its head, then records what every symbol means.
//!
//! Each walk applies every statement's transfer once, at a cost of a few
//! machine words per statement, so the pass is linear in the function's
//! size times its variable count over 64.

use majic_ast::{Expr, ExprKind, Function, LValue, NodeId, Stmt, StmtKind};
use majic_runtime::builtins::Builtin;
use std::collections::{HashMap, HashSet};

/// Dense index of a variable in a function's static symbol table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// The id as a table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a symbol occurrence means.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SymbolKind {
    /// Definitely a variable (has a reaching variable definition on *all*
    /// paths).
    Variable(VarId),
    /// A built-in primitive or constant.
    Builtin(Builtin),
    /// A user-defined function known to the session.
    UserFunction,
    /// Defined on some paths only — the paper's Figure 2 cases. MaJIC
    /// "defers their processing until runtime".
    Ambiguous(VarId),
    /// No definition, no builtin, no function: a runtime error if reached.
    Unknown,
}

/// Analysis results for one function (the paper's "static symbol
/// table").
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    /// Variable names, indexed by [`VarId`]. Parameters first, then
    /// outputs, then locals in order of first definition.
    pub vars: Vec<String>,
    /// Symbol meaning per AST node (`Ident` / `Apply` / lvalue ids).
    pub symbols: HashMap<NodeId, SymbolKind>,
    /// `vars` inverted, built alongside it.
    index: HashMap<String, VarId>,
}

impl SymbolTable {
    /// Id of a variable by name.
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        self.index.get(name).copied()
    }

    /// Number of variables in the frame.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// The meaning recorded for a node (defaults to `Unknown`).
    pub fn kind(&self, id: NodeId) -> SymbolKind {
        self.symbols
            .get(&id)
            .copied()
            .unwrap_or(SymbolKind::Unknown)
    }

    fn intern(&mut self, name: &str) -> VarId {
        if let Some(id) = self.var_id(name) {
            return id;
        }
        let id = VarId(self.vars.len() as u32);
        self.vars.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }
}

/// A function together with its symbol table.
#[derive(Clone, Debug)]
pub struct DisambiguatedFunction {
    /// The analyzed function (unchanged).
    pub function: Function,
    /// Its static symbol table and symbol annotations.
    pub table: SymbolTable,
}

/// Bit planes of a [`Flow`], each `words` long.
const GEN: usize = 0;
const PASS: usize = 1;
const MUST: usize = 2;
const KEEP: usize = 3;

/// A transfer function on the two-bit lattice, or a state (a constant
/// function). Per variable, four bits:
///
/// * `GEN`: some path defines the variable;
/// * `PASS`: some path leaves it as it was;
/// * `MUST`: every path defines it;
/// * `KEEP`: no path leaves it cleared.
///
/// Applied to a state, it gives `maybe' = GEN | (PASS & maybe)` and
/// `definite' = MUST | (KEEP & definite)`. `MUST ⊆ KEEP` always holds,
/// which [`Flow::join`] relies on. In a state `PASS` is empty, so `GEN`
/// reads as *maybe* and `MUST` as *definitely* defined.
#[derive(Clone, Debug)]
struct Flow {
    /// The four planes back to back.
    bits: Vec<u64>,
    /// Cleared by `break` / `continue` / `return`. The planes then keep
    /// the facts at the jump, which dead code after it is analyzed with.
    reachable: bool,
}

impl Flow {
    /// The state in which nothing is defined.
    fn undefined(words: usize) -> Flow {
        Flow {
            bits: vec![0; 4 * words],
            reachable: true,
        }
    }

    /// The transfer that changes nothing, over `vars` variables.
    fn identity(words: usize, vars: usize) -> Flow {
        let mut f = Flow::undefined(words);
        for v in 0..vars {
            f.set(PASS, v, true);
            f.set(KEEP, v, true);
        }
        f
    }

    fn words(&self) -> usize {
        self.bits.len() / 4
    }

    fn get(&self, plane: usize, v: VarId) -> bool {
        (self.bits[plane * self.words() + v.index() / 64] >> (v.index() % 64)) & 1 == 1
    }

    fn set(&mut self, plane: usize, v: usize, on: bool) {
        let at = plane * self.words() + v / 64;
        let word = &mut self.bits[at];
        if on {
            *word |= 1 << (v % 64);
        } else {
            *word &= !(1 << (v % 64));
        }
    }

    fn define(&mut self, v: VarId) {
        let v = v.index();
        self.set(GEN, v, true);
        self.set(PASS, v, false);
        self.set(MUST, v, true);
        self.set(KEEP, v, true);
    }

    fn clear(&mut self, v: VarId) {
        for plane in [GEN, PASS, MUST, KEEP] {
            self.set(plane, v.index(), false);
        }
    }

    fn clear_all(&mut self) {
        self.bits.fill(0);
    }

    /// Join `other` in (a control-flow merge). An unreachable side
    /// contributes nothing; if both are unreachable, `other` wins.
    fn join(&mut self, other: &Flow) {
        if !self.reachable {
            self.clone_from(other);
        } else if other.reachable {
            let (may, must) = self.bits.split_at_mut(2 * other.words());
            let (other_may, other_must) = other.bits.split_at(2 * other.words());
            may.iter_mut().zip(other_may).for_each(|(a, b)| *a |= b);
            must.iter_mut().zip(other_must).for_each(|(a, b)| *a &= b);
        }
    }

    /// `self` followed by `next`.
    fn then(&self, next: &Flow) -> Flow {
        let w = self.words();
        let (s, n) = (&self.bits, &next.bits);
        let mut bits = vec![0; 4 * w];
        for i in 0..w {
            let (g, p, m, k) = (GEN * w + i, PASS * w + i, MUST * w + i, KEEP * w + i);
            bits[g] = n[g] | (n[p] & s[g]);
            bits[p] = n[p] & s[p];
            bits[m] = n[m] | (n[k] & s[m]);
            bits[k] = n[m] | (n[k] & s[k]);
        }
        Flow {
            bits,
            reachable: self.reachable && next.reachable,
        }
    }

    /// The fixpoint at the head of a loop entered in `self` whose body
    /// maps the head state by `body`: `self ⊔ body(self)`, because
    /// `body∘body = body`.
    fn loop_head(&self, body: &Flow) -> Flow {
        let mut head = self.clone();
        head.join(&self.then(body));
        head
    }
}

struct Analyzer<'a> {
    known_functions: &'a HashSet<String>,
    table: SymbolTable,
    /// `u64`s per bit plane.
    words: usize,
    /// False in the summarizing walk, true in the annotating walk.
    annotate: bool,
    /// Each loop body's effect from its head back to its head (the
    /// fall-through and `continue` paths joined), in loop pre-order: the
    /// summarizing walk fills it, the annotating walk reads it.
    summaries: Vec<Flow>,
    /// The annotating walk's position in `summaries`.
    next_loop: usize,
    /// Joined states at the `break` / `continue` sites of the innermost
    /// loop.
    breaks: Option<Flow>,
    continues: Option<Flow>,
}

fn join_into(acc: &mut Option<Flow>, state: Flow) {
    match acc {
        Some(a) => a.join(&state),
        None => *acc = Some(state),
    }
}

impl<'a> Analyzer<'a> {
    /// Intern every name a statement list can define, in the order the
    /// definitions appear.
    fn intern_block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            match &s.kind {
                StmtKind::Assign { lhs, .. } => {
                    self.table.intern(lhs.name());
                }
                StmtKind::MultiAssign { lhs, .. } => {
                    for lv in lhs {
                        self.table.intern(lv.name());
                    }
                }
                StmtKind::If {
                    branches,
                    else_body,
                } => {
                    for (_, body) in branches {
                        self.intern_block(body);
                    }
                    if let Some(body) = else_body {
                        self.intern_block(body);
                    }
                }
                StmtKind::While { body, .. } => self.intern_block(body),
                StmtKind::For { var, body, .. } => {
                    self.table.intern(var);
                    self.intern_block(body);
                }
                StmtKind::Global(names) => {
                    for n in names {
                        self.table.intern(n);
                    }
                }
                StmtKind::Expr { .. }
                | StmtKind::Break
                | StmtKind::Continue
                | StmtKind::Return
                | StmtKind::Clear(_) => {}
            }
        }
    }

    fn var(&self, name: &str) -> VarId {
        self.table.var_id(name).expect("definitions are interned")
    }

    fn record(&mut self, id: NodeId, kind: SymbolKind) {
        if self.annotate {
            self.table.symbols.insert(id, kind);
        }
    }

    /// What `name` means when it is not a variable here.
    fn callable(&self, name: &str) -> SymbolKind {
        if let Some(b) = Builtin::lookup(name) {
            SymbolKind::Builtin(b)
        } else if self.known_functions.contains(name) {
            SymbolKind::UserFunction
        } else {
            SymbolKind::Unknown
        }
    }

    fn record_use(&mut self, id: NodeId, name: &str, state: &Flow) {
        let kind = match self.table.var_id(name) {
            Some(v) if state.get(MUST, v) => SymbolKind::Variable(v),
            Some(v) if state.get(GEN, v) => SymbolKind::Ambiguous(v),
            _ => self.callable(name),
        };
        self.table.symbols.insert(id, kind);
    }

    /// Annotate the symbol uses in `e` (the summarizing walk skips them:
    /// uses do not change the state).
    fn visit_expr(&mut self, e: &Expr, state: &Flow) {
        if self.annotate {
            e.walk(&mut |x| {
                if let ExprKind::Ident(name) | ExprKind::Apply { callee: name, .. } = &x.kind {
                    self.record_use(x.id, name, state);
                }
            });
        }
    }

    fn define_lvalue(&mut self, lv: &LValue, state: &mut Flow) {
        if let LValue::Index { args, .. } = lv {
            // `A(i) = …` uses its subscripts against the incoming state.
            // Indexed assignment to an undefined name creates the array
            // in MATLAB, so it is a definition either way.
            for a in args {
                self.visit_expr(a, state);
            }
        }
        let v = self.var(lv.name());
        state.define(v);
        self.record(lv.id(), SymbolKind::Variable(v));
    }

    fn visit_block(&mut self, stmts: &[Stmt], mut state: Flow) -> Flow {
        for s in stmts {
            // Dead code after return/break is still analyzed, with the
            // facts at the jump, so annotations exist.
            state.reachable = true;
            state = self.visit_stmt(s, state);
        }
        state
    }

    fn visit_stmt(&mut self, s: &Stmt, mut state: Flow) -> Flow {
        match &s.kind {
            StmtKind::Expr { expr, .. } => {
                self.visit_expr(expr, &state);
                state
            }
            StmtKind::Assign { lhs, rhs, .. } => {
                self.visit_expr(rhs, &state);
                self.define_lvalue(lhs, &mut state);
                state
            }
            StmtKind::MultiAssign {
                lhs,
                id,
                callee,
                args,
                ..
            } => {
                for a in args {
                    self.visit_expr(a, &state);
                }
                // Multi-assign callees are always calls, never indexing.
                let kind = self.callable(callee);
                self.record(*id, kind);
                for lv in lhs {
                    self.define_lvalue(lv, &mut state);
                }
                state
            }
            StmtKind::If {
                branches,
                else_body,
            } => {
                // Every arm's condition is reached in the incoming state.
                let mut out: Option<Flow> = None;
                for (cond, body) in branches {
                    self.visit_expr(cond, &state);
                    let branch_out = self.visit_block(body, state.clone());
                    join_into(&mut out, branch_out);
                }
                let else_out = match else_body {
                    Some(body) => self.visit_block(body, state),
                    None => state,
                };
                match out {
                    Some(mut o) => {
                        o.join(&else_out);
                        o
                    }
                    None => else_out,
                }
            }
            StmtKind::While { cond, body } => {
                let (head, out, breaks) = self.visit_loop(Some(cond), body, &state);
                loop_exit(state, &head, &out, breaks)
            }
            StmtKind::For {
                var,
                var_id,
                iter,
                body,
            } => {
                self.visit_expr(iter, &state);
                let v = self.var(var);
                self.record(*var_id, SymbolKind::Variable(v));
                // The induction variable is definitely assigned inside the
                // body; after the loop it is only maybe-assigned (empty
                // ranges skip the body entirely).
                let mut body_in = state.clone();
                body_in.define(v);
                let (head, out, breaks) = self.visit_loop(None, body, &body_in);
                loop_exit(state, &head, &out, breaks)
            }
            StmtKind::Break => {
                join_into(&mut self.breaks, state.clone());
                state.reachable = false;
                state
            }
            StmtKind::Continue => {
                join_into(&mut self.continues, state.clone());
                state.reachable = false;
                state
            }
            StmtKind::Return => {
                state.reachable = false;
                state
            }
            StmtKind::Global(names) => {
                // Globals are defined elsewhere.
                for n in names {
                    state.define(self.var(n));
                }
                state
            }
            StmtKind::Clear(names) => {
                if names.is_empty() {
                    state.clear_all();
                } else {
                    for n in names {
                        if let Some(v) = self.table.var_id(n) {
                            state.clear(v);
                        }
                    }
                }
                state
            }
        }
    }

    /// A loop whose body is first entered in `entry`. Returns the state
    /// at the head of the body (the fixpoint over all trips), the body's
    /// fall-through state and the join of its `break` states. `continue`
    /// states flow back to the head.
    fn visit_loop(
        &mut self,
        cond: Option<&Expr>,
        body: &[Stmt],
        entry: &Flow,
    ) -> (Flow, Flow, Option<Flow>) {
        let saved = (self.breaks.take(), self.continues.take());
        let result = if self.annotate {
            let head = entry.loop_head(&self.summaries[self.next_loop]);
            self.next_loop += 1;
            if let Some(c) = cond {
                self.visit_expr(c, &head);
            }
            let out = self.visit_block(body, head.clone());
            (head, out, self.breaks.take())
        } else {
            let slot = self.summaries.len();
            self.summaries.push(Flow::undefined(0));
            let identity = Flow::identity(self.words, self.table.var_count());
            let out = self.visit_block(body, identity);
            let mut back = out.clone();
            if let Some(c) = &self.continues {
                back.join(c);
            }
            let head = entry.loop_head(&back);
            let breaks = self.breaks.take().map(|b| head.then(&b));
            let out = head.then(&out);
            self.summaries[slot] = back;
            (head, out, breaks)
        };
        (self.breaks, self.continues) = saved;
        result
    }
}

/// The state after a loop entered in `entry`: it may run no trip, stop
/// at the head, fall out of the body or break.
fn loop_exit(mut entry: Flow, head: &Flow, out: &Flow, breaks: Option<Flow>) -> Flow {
    entry.join(head);
    entry.join(out);
    if let Some(b) = breaks {
        entry.join(&b);
    }
    entry
}

/// Disambiguate the symbols of one function (paper Figure 1, pass 2).
///
/// `known_functions` lists the user-function names visible to the session
/// (the repository's directory snoop provides these).
pub fn disambiguate(
    function: &Function,
    known_functions: &HashSet<String>,
) -> DisambiguatedFunction {
    let _sp = majic_trace::Span::enter_with("disambig", || vec![("fn", function.name.clone())]);
    let mut a = Analyzer {
        known_functions,
        table: SymbolTable::default(),
        words: 0,
        annotate: false,
        summaries: Vec::new(),
        next_loop: 0,
        breaks: None,
        continues: None,
    };
    for name in function.params.iter().chain(&function.outputs) {
        a.table.intern(name);
    }
    a.intern_block(&function.body);
    a.words = a.table.var_count().div_ceil(64);
    // Formal parameters are defined at entry.
    let mut entry = Flow::undefined(a.words);
    for p in &function.params {
        entry.define(a.var(p));
    }
    a.visit_block(&function.body, entry.clone());
    a.annotate = true;
    a.breaks = None;
    a.continues = None;
    a.visit_block(&function.body, entry);
    DisambiguatedFunction {
        function: function.clone(),
        table: a.table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use majic_ast::parse_source;

    fn analyze(src: &str) -> DisambiguatedFunction {
        let file = parse_source(src).unwrap();
        let known: HashSet<String> = file.functions.iter().map(|f| f.name.clone()).collect();
        disambiguate(&file.functions[0], &known)
    }

    /// Find the annotation of the first Ident/Apply with the given name.
    fn kind_of(d: &DisambiguatedFunction, name: &str) -> Vec<SymbolKind> {
        let mut out = Vec::new();
        for stmt in &d.function.body {
            collect(stmt, name, &d.table, &mut out);
        }
        out
    }

    fn on_expr(e: &Expr, name: &str, t: &SymbolTable, out: &mut Vec<SymbolKind>) {
        e.walk(&mut |e| match &e.kind {
            ExprKind::Ident(n) | ExprKind::Apply { callee: n, .. } if n == name => {
                out.push(t.kind(e.id));
            }
            _ => {}
        });
    }

    fn collect(s: &Stmt, name: &str, t: &SymbolTable, out: &mut Vec<SymbolKind>) {
        match &s.kind {
            StmtKind::Expr { expr, .. } => on_expr(expr, name, t, out),
            StmtKind::Assign { rhs, .. } => on_expr(rhs, name, t, out),
            StmtKind::MultiAssign { args, .. } => {
                args.iter().for_each(|a| on_expr(a, name, t, out));
            }
            StmtKind::If {
                branches,
                else_body,
            } => {
                for (c, b) in branches {
                    on_expr(c, name, t, out);
                    for st in b {
                        collect(st, name, t, out);
                    }
                }
                if let Some(b) = else_body {
                    for st in b {
                        collect(st, name, t, out);
                    }
                }
            }
            StmtKind::While { cond, body } => {
                on_expr(cond, name, t, out);
                for st in body {
                    collect(st, name, t, out);
                }
            }
            StmtKind::For { iter, body, .. } => {
                on_expr(iter, name, t, out);
                for st in body {
                    collect(st, name, t, out);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn params_are_variables() {
        let d = analyze("function y = f(x)\ny = x + 1;\n");
        assert!(matches!(kind_of(&d, "x")[0], SymbolKind::Variable(_)));
    }

    #[test]
    fn builtins_resolve() {
        let d = analyze("function y = f(x)\ny = zeros(x) + pi;\n");
        assert!(matches!(kind_of(&d, "zeros")[0], SymbolKind::Builtin(_)));
        assert!(matches!(kind_of(&d, "pi")[0], SymbolKind::Builtin(_)));
    }

    #[test]
    fn user_functions_resolve() {
        let d = analyze("function y = f(x)\ny = g(x);\nfunction y = g(x)\ny = x;\n");
        assert!(matches!(kind_of(&d, "g")[0], SymbolKind::UserFunction));
    }

    #[test]
    fn unknown_symbols_flagged() {
        let d = analyze("function y = f(x)\ny = mystery(x);\n");
        assert!(matches!(kind_of(&d, "mystery")[0], SymbolKind::Unknown));
    }

    #[test]
    fn paper_figure2_left_i_is_ambiguous() {
        // First use of `i` in the loop body: builtin √−1 on iteration 1,
        // the variable thereafter → Ambiguous.
        let d = analyze("function f()\nwhile (1 < 2)\n z = i;\n i = z + 1;\nend\n");
        let kinds = kind_of(&d, "i");
        assert!(
            matches!(kinds[0], SymbolKind::Ambiguous(_)),
            "got {kinds:?}"
        );
    }

    #[test]
    fn paper_figure2_right_y_is_variable_via_control_flow() {
        // `x = y` executes only when p >= 2, by which time `y = p` has run.
        // Plain reaching definitions (ignoring the guard) see y as only
        // maybe-defined → Ambiguous, which is the conservative answer
        // MaJIC defers to runtime.
        let d = analyze(
            "function f(N)\nx = 0;\nfor p = 1:N\n if (p >= 2)\n x = y;\n end\n y = p;\nend\n",
        );
        let kinds = kind_of(&d, "y");
        assert!(
            matches!(kinds[0], SymbolKind::Ambiguous(_)),
            "got {kinds:?}"
        );
    }

    #[test]
    fn sequential_definition_is_definite() {
        let d = analyze("function f()\na = 1;\nb = a + 1;\n");
        assert!(matches!(kind_of(&d, "a")[0], SymbolKind::Variable(_)));
    }

    #[test]
    fn if_without_else_is_maybe() {
        let d = analyze("function f(c)\nif c > 0\n t = 1;\nend\nu = t;\n");
        assert!(matches!(kind_of(&d, "t")[0], SymbolKind::Ambiguous(_)));
    }

    #[test]
    fn both_branches_define_definitely() {
        let d = analyze("function f(c)\nif c > 0\n t = 1;\nelse\n t = 2;\nend\nu = t;\n");
        assert!(matches!(kind_of(&d, "t")[0], SymbolKind::Variable(_)));
    }

    #[test]
    fn clear_forgets_definitions() {
        let d = analyze("function f()\nt = 1;\nclear t\nu = t;\n");
        // After clear, `t` has no definition and no builtin → Unknown.
        assert!(matches!(kind_of(&d, "t")[0], SymbolKind::Unknown));
    }

    #[test]
    fn loop_variable_is_definite_in_body_maybe_after() {
        let d = analyze("function f(N)\nfor k = 1:N\n a = k;\nend\nb = k;\n");
        let kinds = kind_of(&d, "k");
        // Use inside the body: variable; use after the loop: ambiguous.
        assert!(matches!(kinds[0], SymbolKind::Variable(_)));
        assert!(matches!(kinds[1], SymbolKind::Ambiguous(_)));
    }

    #[test]
    fn loop_carried_def_is_seen_on_second_pass() {
        // `s` is defined before the loop and updated inside; the use in
        // the body is definite.
        let d = analyze("function f(N)\ns = 0;\nfor k = 1:N\n s = s + k;\nend\n");
        assert!(matches!(kind_of(&d, "s")[0], SymbolKind::Variable(_)));
    }

    #[test]
    fn while_body_def_reaches_own_use_as_maybe() {
        let d = analyze("function f()\nwhile (1 < 2)\n u = v;\n v = 1;\nend\n");
        assert!(matches!(kind_of(&d, "v")[0], SymbolKind::Ambiguous(_)));
    }

    #[test]
    fn indexed_assignment_defines() {
        let d = analyze("function f(n)\nA(1) = 0;\nfor k = 2:n\n A(k) = A(k-1) + 1;\nend\n");
        assert!(matches!(kind_of(&d, "A")[0], SymbolKind::Variable(_)));
    }

    #[test]
    fn shadowing_a_builtin() {
        let d = analyze("function f()\npi = 3;\ny = pi;\n");
        assert!(matches!(kind_of(&d, "pi")[0], SymbolKind::Variable(_)));
    }

    #[test]
    fn symbol_table_interns_in_order() {
        let d = analyze("function [a, b] = f(x, y)\nc = x;\na = c;\nb = y;\n");
        assert_eq!(d.table.vars, ["x", "y", "a", "b", "c"]);
        assert_eq!(d.table.var_id("c"), Some(VarId(4)));
        assert_eq!(d.table.var_count(), 5);
    }

    #[test]
    fn break_paths_join_into_exit() {
        let d = analyze(
            "function f(N)\nfor k = 1:N\n if k > 2\n  t = 1;\n  break\n end\nend\nu = t;\n",
        );
        // t defined only on the break path → maybe at exit.
        assert!(matches!(kind_of(&d, "t")[0], SymbolKind::Ambiguous(_)));
    }
}
