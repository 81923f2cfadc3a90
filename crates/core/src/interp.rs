//! The taint interpreter — phpSAFE's *analysis stage* (§III.C).
//!
//! An abstract interpreter over the [`php_ast`] tree that follows tainted
//! data from sources to sinks:
//!
//! * **inter-procedural & context-aware** — user functions/methods are
//!   analyzed at their call sites with the caller's argument taints, and the
//!   result is memoized per `(callable, argument-taint-signature)` — the
//!   paper's "every function is analyzed only the first time it is called,
//!   taking into account the context of the call";
//! * **path-insensitive** — `if`/`switch` branches are interpreted on frame
//!   clones and joined ("conditions and loops do not change the data flow");
//! * **OOP-aware** — property reads/writes resolve to an object-insensitive
//!   per-class property store, method calls resolve through the class table
//!   and the configuration's known objects (`$wpdb`), and `new` tracks the
//!   constructed class (§III.E);
//! * **resource-bounded** — every node costs a work unit; exceeding the
//!   budget marks the entry file failed, reproducing the robustness
//!   behaviour the paper measured.
//!
//! Nodes are arena handles: every walk carries the [`Arena`] its ids
//! resolve against (the current file's, or the declaring file's during a
//! call), and node "copies" are 8-byte id/range copies, never deep clones.

use crate::analyzer::AnalyzerOptions;
use crate::caching::{SharedCaches, SharedSummary, SummaryCache, SummaryKey};
use crate::env::Env;
use crate::explain::{TaintEvent, TaintEventKind};
use crate::report::{numeric_intent, Vulnerability};
use crate::symbols::{FnRef, SymbolTable};
use crate::taint::{Taint, TraceStep, VarState};
use crate::PluginProject;
use php_ast::printer::print_expr;
use php_ast::{
    Arena, ArgRange, AssignOp, Callee, Expr, ExprId, FunctionDecl, IncludeKind, InterpPart, Lit,
    Member, ParsedFile, Span, Stmt, StmtRange,
};
use phpsafe_intern::{FnvHashMap, FnvHashSet, Symbol};
use std::collections::HashMap;
use std::sync::Arc;
use taint_config::{SourceKind, TaintConfig, VulnClass};

/// One execution scope (the global scope or a function/method body).
///
/// Cloning a frame is cheap: `vars` is a copy-on-write [`Env`], so branch
/// snapshots share the variable map until an arm writes.
#[derive(Debug, Default, Clone)]
struct Frame {
    vars: Env,
    globals_decl: FnvHashSet<Symbol>,
    this_class: Option<Symbol>,
    ret: VarState,
    is_global: bool,
    /// Taint spilled into the scope by `extract()` on a tainted array:
    /// any otherwise-undefined variable read picks this up.
    extracted: Taint,
}

impl Frame {
    fn global() -> Frame {
        Frame {
            is_global: true,
            ..Frame::default()
        }
    }
}

/// Memoization key for a user-callable invocation. Interned names replace
/// the former `"fn:<name>"` / `"m:<class>::<name>"` string keys, so no
/// allocation happens per call lookup.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CallKey {
    /// Receiver class (lowercase) for methods, `None` for free functions.
    class: Option<Symbol>,
    /// Callable name, lowercase.
    name: Symbol,
    /// Taint signature of the arguments.
    sig: Vec<Taint>,
}

/// Memoized result of a call.
#[derive(Debug, Clone)]
struct CallResult {
    ret: VarState,
}

pub(crate) struct Interp<'a> {
    cfg: &'a TaintConfig,
    opts: &'a AnalyzerOptions,
    syms: &'a SymbolTable,
    project: &'a PluginProject,
    parsed: &'a HashMap<String, Arc<ParsedFile>>,
    /// Cross-run pure-leaf summaries shared through the engine caches
    /// (`None` in plain serial mode).
    shared: Option<SharedCaches<'a>>,

    pub(crate) vulns: Vec<Vulnerability>,
    /// This analysis's taint-event stream for `--explain`; `None` when
    /// the run does not capture events.
    pub(crate) events: Option<Vec<TaintEvent>>,
    memo: FnvHashMap<CallKey, CallResult>,
    in_progress: FnvHashSet<CallKey>,
    /// Object-insensitive per-class property store: `(class, $prop)` → state.
    class_props: FnvHashMap<(Symbol, Symbol), VarState>,
    globals: Env,

    file_stack: Vec<Symbol>,
    include_depth: usize,
    included_once: FnvHashSet<String>,
    pub(crate) work: u64,
    pub(crate) failed: Option<String>,
}

impl<'a> Interp<'a> {
    pub(crate) fn new(
        cfg: &'a TaintConfig,
        opts: &'a AnalyzerOptions,
        syms: &'a SymbolTable,
        project: &'a PluginProject,
        parsed: &'a HashMap<String, Arc<ParsedFile>>,
        shared: Option<SharedCaches<'a>>,
        capture: bool,
    ) -> Self {
        Interp {
            cfg,
            opts,
            syms,
            project,
            parsed,
            shared,
            vulns: Vec::new(),
            events: capture.then(Vec::new),
            memo: FnvHashMap::default(),
            in_progress: FnvHashSet::default(),
            class_props: FnvHashMap::default(),
            globals: Env::default(),
            file_stack: Vec::new(),
            include_depth: 0,
            included_once: FnvHashSet::default(),
            work: 0,
            failed: None,
        }
    }

    fn current_file(&self) -> Symbol {
        self.file_stack
            .last()
            .copied()
            .unwrap_or_else(|| Symbol::intern("?"))
    }

    /// Spends one work unit; flips the failure flag when the entry budget is
    /// exhausted (models phpSAFE running out of memory on include-heavy
    /// files).
    fn tick(&mut self) -> bool {
        self.work += 1;
        if self.work > self.opts.work_limit && self.failed.is_none() {
            self.failed = Some(format!(
                "work limit of {} units exceeded",
                self.opts.work_limit
            ));
        }
        self.failed.is_none()
    }

    /// Analyzes one file as an entry point. Returns the failure message if
    /// the budget blew up.
    pub(crate) fn run_entry_file(&mut self, path: &str) -> Option<String> {
        self.work = 0;
        self.failed = None;
        self.globals.clear();
        self.included_once.clear();
        self.included_once.insert(path.to_string());
        self.file_stack.push(Symbol::intern(path));
        let ast = match self.parsed.get(path) {
            Some(a) => a.clone(),
            None => {
                self.file_stack.pop();
                return None;
            }
        };
        let mut frame = Frame::global();
        self.exec_stmts(&ast, ast.top, &mut frame);
        self.file_stack.pop();
        self.failed.take()
    }

    /// Analyzes the never-called callables with clean parameters (phpSAFE
    /// parses them up front so hook handlers are covered).
    pub(crate) fn run_uncalled(&mut self, uncalled: &[FnRef]) {
        self.work = 0;
        self.failed = None;
        for r in uncalled {
            match r {
                FnRef::Function(name) => {
                    let syms = self.syms;
                    if let Some(info) = syms.function(name) {
                        let args = vec![VarState::clean(); info.decl.params.len()];
                        self.call_decl(&info.ast, &info.decl, &info.file, args, None, true);
                    }
                }
                FnRef::Method(class, name) => {
                    // OOP-blind tools (RIPS, Pixy) do not descend into
                    // class bodies at all — encapsulated code is invisible.
                    if !self.opts.oop {
                        continue;
                    }
                    let syms = self.syms;
                    if let Some((cinfo, decl)) = syms.method(class, name) {
                        let args = vec![VarState::clean(); decl.params.len()];
                        self.call_decl(
                            &cinfo.ast,
                            decl,
                            &cinfo.file,
                            args,
                            Some(Symbol::intern(class)),
                            true,
                        );
                    }
                }
            }
            // The uncalled sweep shares one budget; a blow-up here should
            // not fail a specific file, so reset the flag but keep going.
            if self.failed.is_some() {
                self.failed = None;
                self.work = 0;
            }
        }
    }

    // ================== statements ==================

    fn exec_stmts(&mut self, a: &Arena, stmts: StmtRange, f: &mut Frame) {
        for &s in a.stmt_list(stmts) {
            if self.failed.is_some() {
                return;
            }
            self.exec_stmt(a, s, f);
        }
    }

    fn exec_stmt(&mut self, a: &Arena, stmt: php_ast::StmtId, f: &mut Frame) {
        if !self.tick() {
            return;
        }
        match a.stmt(stmt) {
            Stmt::Expr(e, _) => {
                self.eval(a, *e, f);
            }
            Stmt::Echo(es, span) => {
                for &e in a.expr_list(*es) {
                    let st = self.eval(a, e, f);
                    self.check_xss_output(a, &st, *span, "echo", e);
                }
            }
            Stmt::InlineHtml(..) => {}
            Stmt::If {
                cond,
                then,
                elseifs,
                otherwise,
                ..
            } => {
                // Evaluate every condition first (side effects, work cost).
                self.eval(a, *cond, f);
                for &(c, _) in a.elseifs(*elseifs) {
                    self.eval(a, c, f);
                }
                let mut bodies: Vec<StmtRange> = vec![*then];
                for &(_, body) in a.elseifs(*elseifs) {
                    bodies.push(body);
                }
                if let Some(body) = otherwise {
                    bodies.push(*body);
                }
                self.exec_branches(a, f, &bodies, otherwise.is_none());
            }
            Stmt::While { cond, body, .. } => {
                self.eval(a, *cond, f);
                self.exec_stmts(a, *body, f);
            }
            Stmt::DoWhile { body, cond, .. } => {
                self.exec_stmts(a, *body, f);
                self.eval(a, *cond, f);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                for &e in a.expr_list(*init) {
                    self.eval(a, e, f);
                }
                for &e in a.expr_list(*cond) {
                    self.eval(a, e, f);
                }
                self.exec_stmts(a, *body, f);
                for &e in a.expr_list(*step) {
                    self.eval(a, e, f);
                }
            }
            Stmt::Foreach {
                subject,
                key,
                value,
                body,
                ..
            } => {
                let subj = self.eval(a, *subject, f);
                // Elements of a tainted collection are tainted; row objects
                // keep the collection's taint so `$row->field` flows.
                let mut elem = VarState {
                    taint: subj.taint,
                    sanitized_from: subj.sanitized_from,
                    object_class: None,
                    trace: subj.trace.clone(),
                };
                let step = TraceStep {
                    file: self.current_file(),
                    line: a.stmt(stmt).span().line,
                    what: format!("foreach over {}", print_expr(a, *subject)),
                };
                if elem.taint.any() {
                    self.emit_event(TaintEventKind::Propagated, step.line, &step.what);
                }
                elem.push_trace(step, self.opts.trace_limit);
                if let Some(k) = key {
                    self.assign_to(a, *k, VarState::clean(), f);
                }
                self.assign_to(a, *value, elem, f);
                self.exec_stmts(a, *body, f);
            }
            Stmt::Switch { subject, cases, .. } => {
                self.eval(a, *subject, f);
                for c in a.cases(*cases) {
                    if let Some(v) = c.value {
                        self.eval(a, v, f);
                    }
                }
                let case_list = a.cases(*cases);
                let bodies: Vec<StmtRange> = case_list.iter().map(|c| c.body).collect();
                let has_default = case_list.iter().any(|c| c.value.is_none());
                self.exec_branches(a, f, &bodies, !has_default);
            }
            Stmt::Break(_) | Stmt::Continue(_) | Stmt::Nop(_) | Stmt::Error(_) => {}
            Stmt::Return(e, _) => {
                if let Some(e) = e {
                    let st = self.eval(a, *e, f);
                    let limit = self.opts.trace_limit;
                    f.ret = std::mem::take(&mut f.ret).join(&st, limit);
                }
            }
            Stmt::Global(names, _) => {
                for &n in a.syms(*names) {
                    f.globals_decl.insert(n);
                }
            }
            Stmt::StaticVars(vars, _) => {
                for &(name, default) in a.static_vars(*vars) {
                    let st = match default {
                        Some(d) => self.eval(a, d, f),
                        None => VarState::clean(),
                    };
                    f.vars.insert(name, st);
                }
            }
            Stmt::Unset(es, _) => {
                // §III.C T_UNSET: destroying a variable untaints it.
                for &e in a.expr_list(*es) {
                    self.assign_to(a, e, VarState::clean(), f);
                }
            }
            Stmt::Throw(e, _) => {
                self.eval(a, *e, f);
            }
            Stmt::Try {
                body,
                catches,
                finally,
                ..
            } => {
                self.exec_stmts(a, *body, f);
                // Each catch may or may not run: interpret them as joined
                // branches (with the exception variable bound clean).
                let catch_list = a.catches(*catches);
                if !catch_list.is_empty() {
                    let base_frame = f.clone();
                    let base_globals = self.globals.clone();
                    let mut frames = vec![];
                    let mut globals_versions = vec![];
                    for &c in catch_list {
                        let mut b = base_frame.clone();
                        self.globals = base_globals.clone();
                        b.vars.insert(c.var, VarState::clean());
                        self.exec_stmts(a, c.body, &mut b);
                        frames.push(b);
                        globals_versions.push(std::mem::take(&mut self.globals));
                    }
                    frames.push(base_frame);
                    globals_versions.push(base_globals);
                    let limit = self.opts.trace_limit;
                    let mut merged = Env::default();
                    for g in globals_versions {
                        merged.join_from(g, limit);
                    }
                    self.globals = merged;
                    self.merge_frames(f, frames);
                }
                if let Some(fin) = finally {
                    self.exec_stmts(a, *fin, f);
                }
            }
            Stmt::Block(body, _) => self.exec_stmts(a, *body, f),
            // Declarations are collected by the symbol pass; bodies are
            // analyzed on call (or in the uncalled sweep).
            Stmt::Function(_) | Stmt::Class(_) | Stmt::ConstDecl(..) => {}
        }
    }

    /// Interprets mutually exclusive branch bodies path-insensitively:
    /// each body runs on a clone of the frame *and* of the global/property
    /// state, and the results are joined. `include_skip` adds the
    /// "no branch taken" world (an `if` without `else`).
    fn exec_branches(
        &mut self,
        a: &Arena,
        f: &mut Frame,
        bodies: &[StmtRange],
        include_skip: bool,
    ) {
        let base_frame = f.clone();
        let base_globals = self.globals.clone();
        let mut frames: Vec<Frame> = Vec::new();
        let mut globals_versions: Vec<Env> = Vec::new();
        for &body in bodies {
            let mut b = base_frame.clone();
            self.globals = base_globals.clone();
            self.exec_stmts(a, body, &mut b);
            frames.push(b);
            globals_versions.push(std::mem::take(&mut self.globals));
        }
        if include_skip {
            frames.push(base_frame);
            globals_versions.push(base_globals);
        }
        // Join globals across worlds. Branches that never wrote a global
        // still share the base snapshot and merge by pointer identity.
        let limit = self.opts.trace_limit;
        let mut merged_globals = Env::default();
        for g in globals_versions {
            merged_globals.join_from(g, limit);
        }
        self.globals = merged_globals;
        self.merge_frames(f, frames);
    }

    /// Joins branch frames back into the live frame. Untouched branch
    /// snapshots (the common case) merge without walking any entries.
    fn merge_frames(&self, f: &mut Frame, branches: Vec<Frame>) {
        let limit = self.opts.trace_limit;
        let mut merged = Env::default();
        let mut globals_decl = std::mem::take(&mut f.globals_decl);
        for b in branches {
            merged.join_from(b.vars, limit);
            globals_decl.extend(b.globals_decl);
            f.ret = std::mem::take(&mut f.ret).join(&b.ret, limit);
            f.extracted = f.extracted.join(b.extracted);
        }
        f.vars = merged;
        f.globals_decl = globals_decl;
    }

    // ================== expressions ==================

    fn eval(&mut self, a: &Arena, e: ExprId, f: &mut Frame) -> VarState {
        if !self.tick() {
            return VarState::clean();
        }
        match a.expr(e) {
            Expr::Var(name, span) => self.read_var(*name, *span, f),
            Expr::VarVar(inner, _) => {
                self.eval(a, *inner, f);
                VarState::clean()
            }
            Expr::Lit(..) | Expr::ConstFetch(..) | Expr::ClassConst(..) => VarState::clean(),
            Expr::Interp(parts, _) => {
                let limit = self.opts.trace_limit;
                let mut st = VarState::clean();
                for p in a.interp(*parts) {
                    if let InterpPart::Expr(pe) = p {
                        let ps = self.eval(a, *pe, f);
                        st = st.join(&ps, limit);
                    }
                }
                st.object_class = None;
                st
            }
            Expr::ShellExec(parts, span) => {
                let limit = self.opts.trace_limit;
                let mut st = VarState::clean();
                for p in a.interp(*parts) {
                    if let InterpPart::Expr(pe) = p {
                        let ps = self.eval(a, *pe, f);
                        st = st.join(&ps, limit);
                    }
                }
                // Backticks hand the interpolated string to the shell —
                // the same sink as `shell_exec` (which they alias).
                if st.taint.is_tainted(VulnClass::CmdInjection) {
                    let desc = print_expr(a, e);
                    self.report(VulnClass::CmdInjection, *span, "`...`", &st, desc);
                }
                st
            }
            Expr::ArrayLit(items, _) => {
                let limit = self.opts.trace_limit;
                let mut st = VarState::clean();
                for &(k, v) in a.items(*items) {
                    if let Some(k) = k {
                        self.eval(a, k, f);
                    }
                    let vs = self.eval(a, v, f);
                    st = st.join(&vs, limit);
                }
                st.object_class = None;
                st
            }
            Expr::Index(base, idx, span) => {
                if let Some(i) = idx {
                    self.eval(a, *i, f);
                }
                // Reading an element of a tainted superglobal/array yields
                // tainted data.
                let mut st = self.eval(a, *base, f);
                st.object_class = None;
                if st.taint.any() {
                    let step = TraceStep {
                        file: self.current_file(),
                        line: span.line,
                        what: format!("read {}", print_expr(a, e)),
                    };
                    self.emit_event(TaintEventKind::Propagated, step.line, &step.what);
                    st.push_trace(step, self.opts.trace_limit);
                }
                st
            }
            Expr::Prop(base, member, span) => self.read_prop(a, *base, *member, *span, f),
            Expr::StaticProp(class, prop, _) => {
                if !self.opts.oop {
                    return VarState::clean();
                }
                let class = self.resolve_class_name(*class, f);
                self.class_props
                    .get(&(class, *prop))
                    .cloned()
                    .unwrap_or_default()
            }
            Expr::Assign {
                target,
                op,
                value,
                span,
                ..
            } => {
                let (target, op, value, span) = (*target, *op, *value, *span);
                let rhs = self.eval(a, value, f);
                let mut st = if op.reads_target() {
                    // `$a .= $b` keeps the old taint of $a.
                    let old = self.eval(a, target, f);
                    if matches!(op, AssignOp::ConcatAssign) {
                        old.join(&rhs, self.opts.trace_limit)
                    } else {
                        // Arithmetic compound assignments coerce numerically.
                        VarState::clean()
                    }
                } else {
                    rhs
                };
                if st.taint.any() {
                    let step = TraceStep {
                        file: self.current_file(),
                        line: span.line,
                        what: format!(
                            "{} {} {}",
                            print_expr(a, target),
                            op.symbol(),
                            print_expr(a, value)
                        ),
                    };
                    self.emit_event(TaintEventKind::Propagated, step.line, &step.what);
                    st.push_trace(step, self.opts.trace_limit);
                }
                self.assign_to(a, target, st.clone(), f);
                st
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let (op, lhs, rhs) = (*op, *lhs, *rhs);
                let l = self.eval(a, lhs, f);
                let r = self.eval(a, rhs, f);
                match op {
                    php_ast::BinOp::Concat => {
                        let mut st = l.join(&r, self.opts.trace_limit);
                        st.object_class = None;
                        st
                    }
                    // Logical operators return booleans; arithmetic and
                    // comparisons coerce numerically — all inert.
                    _ => VarState::clean(),
                }
            }
            Expr::Unary { expr, .. } => {
                self.eval(a, *expr, f);
                VarState::clean()
            }
            Expr::IncDec { expr, .. } => {
                let expr = *expr;
                self.eval(a, expr, f);
                self.assign_to(a, expr, VarState::clean(), f);
                VarState::clean()
            }
            Expr::Call { callee, args, span } => self.eval_call(a, *callee, *args, *span, f),
            Expr::New { class, args, span } => self.eval_new(a, *class, *args, *span, f),
            Expr::Clone(e, _) => self.eval(a, *e, f),
            Expr::Ternary {
                cond,
                then,
                otherwise,
                ..
            } => {
                let (cond, then, otherwise) = (*cond, *then, *otherwise);
                let c = self.eval(a, cond, f);
                let limit = self.opts.trace_limit;
                let t = match then {
                    Some(t) => self.eval(a, t, f),
                    None => c, // `?:` returns the condition value
                };
                let o = self.eval(a, otherwise, f);
                t.join(&o, limit)
            }
            Expr::Cast(kind, inner, _) => {
                let kind = *kind;
                let st = self.eval(a, *inner, f);
                if kind.sanitizes() {
                    VarState {
                        taint: Taint::CLEAN,
                        sanitized_from: st.taint,
                        object_class: None,
                        trace: st.trace,
                    }
                } else {
                    st
                }
            }
            Expr::Isset(es, _) => {
                for &e in a.expr_list(*es) {
                    self.eval(a, e, f);
                }
                VarState::clean()
            }
            Expr::Empty(e, _) | Expr::ErrorSuppress(e, _) | Expr::Ref(e, _) => self.eval(a, *e, f),
            Expr::Print(e, span) => {
                let (e, span) = (*e, *span);
                let st = self.eval(a, e, f);
                self.check_xss_output(a, &st, span, "print", e);
                VarState::clean()
            }
            Expr::Exit(arg, span) => {
                if let (Some(arg), span) = (*arg, *span) {
                    let st = self.eval(a, arg, f);
                    self.check_xss_output(a, &st, span, "exit", arg);
                }
                VarState::clean()
            }
            Expr::Include(kind, path, span) => {
                self.eval_include(a, *kind, *path, *span, f);
                VarState::clean()
            }
            Expr::Instanceof(e, _, _) => {
                self.eval(a, *e, f);
                VarState::clean()
            }
            Expr::ListIntrinsic(items, _) => {
                for e in a.opt_exprs(*items).iter().flatten() {
                    self.eval(a, *e, f);
                }
                VarState::clean()
            }
            Expr::Closure {
                params, uses, body, ..
            } => {
                // Analyze the closure body immediately for coverage (hook
                // callbacks are usually never invoked from plugin code).
                let mut inner = Frame {
                    this_class: f.this_class,
                    ..Frame::default()
                };
                for p in a.params(*params) {
                    inner.vars.insert(p.name, VarState::clean());
                }
                for &(name, _) in a.uses(*uses) {
                    // `use` captures resolve in the enclosing scope, which
                    // at top level is the global store.
                    let st = if f.is_global || f.globals_decl.contains(&name) {
                        self.globals.get(name).cloned()
                    } else {
                        f.vars.get(name).cloned()
                    }
                    .unwrap_or_default();
                    inner.vars.insert(name, st);
                }
                self.exec_stmts(a, *body, &mut inner);
                VarState::clean()
            }
            Expr::Error(_) => VarState::clean(),
        }
    }

    /// Reads a variable, consulting superglobal config, the frame/global
    /// scope and the known-object table.
    fn read_var(&mut self, name: Symbol, span: Span, f: &mut Frame) -> VarState {
        if let Some(kind) = self.cfg.superglobal_kind(name.as_str()) {
            let step = TraceStep {
                file: self.current_file(),
                line: span.line,
                what: format!("source {name}"),
            };
            self.emit_event(TaintEventKind::Introduced, span.line, &step.what);
            return VarState::tainted(Taint::from_source(kind), step);
        }
        let use_globals = f.is_global || f.globals_decl.contains(&name);
        let existing = if use_globals {
            self.globals.get(name).cloned()
        } else {
            f.vars.get(name).cloned()
        };
        if let Some(st) = existing {
            return st;
        }
        // Well-known CMS globals resolve even without an assignment.
        if self.opts.oop {
            if let Some(class) = self.cfg.known_object_class(name.as_str()) {
                return VarState {
                    object_class: Some(Symbol::intern(class)),
                    ..VarState::clean()
                };
            }
        }
        // `extract()` on tainted data spills taint over the whole scope.
        if f.extracted.any() && name != "$this" {
            let step = TraceStep {
                file: self.current_file(),
                line: span.line,
                what: format!("{name} injected by extract()"),
            };
            self.emit_event(TaintEventKind::Introduced, span.line, &step.what);
            return VarState::tainted(f.extracted, step);
        }
        // Pixy-era register_globals: an undefined global variable can be
        // injected through the request (§V.A: half of Pixy's findings).
        if self.opts.register_globals && use_globals && name != "$this" {
            let step = TraceStep {
                file: self.current_file(),
                line: span.line,
                what: format!("register_globals {name}"),
            };
            self.emit_event(TaintEventKind::Introduced, span.line, &step.what);
            return VarState::tainted(Taint::from_source(SourceKind::Request), step);
        }
        VarState::clean()
    }

    fn write_var(&mut self, name: Symbol, st: VarState, f: &mut Frame) {
        let use_globals = f.is_global || f.globals_decl.contains(&name);
        if use_globals {
            self.globals.insert(name, st);
        } else {
            f.vars.insert(name, st);
        }
    }

    /// Resolves `self`/`static`/`parent` against the current frame.
    fn resolve_class_name(&self, class: Symbol, f: &Frame) -> Symbol {
        let lc = class.to_lowercase();
        match lc.as_str() {
            "self" | "static" => f.this_class.unwrap_or(lc),
            "parent" => f
                .this_class
                .and_then(|c| self.syms.class(c.as_str()))
                .and_then(|i| i.decl.parent)
                .map(|p| p.to_lowercase())
                .unwrap_or(lc),
            _ => lc,
        }
    }

    /// Resolves the class an object expression holds, if statically known.
    fn receiver_class(
        &mut self,
        a: &Arena,
        base: ExprId,
        f: &mut Frame,
    ) -> (VarState, Option<Symbol>) {
        let st = self.eval(a, base, f);
        if !self.opts.oop {
            return (st, None);
        }
        if let Some(c) = st.object_class {
            return (st, Some(c));
        }
        if let Expr::Var(name, _) = a.expr(base) {
            if name.as_str() == "$this" {
                return (st, f.this_class);
            }
            if let Some(c) = self.cfg.known_object_class(name.as_str()) {
                return (st, Some(Symbol::intern(c)));
            }
        }
        (st, None)
    }

    fn read_prop(
        &mut self,
        a: &Arena,
        base: ExprId,
        member: Member,
        span: Span,
        f: &mut Frame,
    ) -> VarState {
        let (base_st, class) = self.receiver_class(a, base, f);
        if !self.opts.oop {
            // OOP-blind tools miss encapsulated data entirely.
            return VarState::clean();
        }
        let pname = match member {
            Member::Name(n) => Symbol::intern(&format!("${n}")),
            Member::Dynamic(e) => {
                self.eval(a, e, f);
                return base_st; // dynamic property: fall back to object taint
            }
        };
        if let Some(c) = class {
            if let Some(st) = self.class_props.get(&(c, pname)) {
                return st.clone();
            }
        }
        // No tracked state: a field of a tainted row object is tainted.
        if base_st.taint.any() {
            let mut st = base_st;
            st.object_class = None;
            let step = TraceStep {
                file: self.current_file(),
                line: span.line,
                what: format!("read property {pname} of tainted object"),
            };
            self.emit_event(TaintEventKind::Propagated, step.line, &step.what);
            st.push_trace(step, self.opts.trace_limit);
            return st;
        }
        VarState::clean()
    }

    fn assign_to(&mut self, a: &Arena, target: ExprId, st: VarState, f: &mut Frame) {
        match a.expr(target) {
            Expr::Var(name, _) => self.write_var(*name, st, f),
            Expr::Index(base, idx, _) => {
                let (base, idx) = (*base, *idx);
                if let Some(i) = idx {
                    self.eval(a, i, f);
                }
                // Weak update: the container joins the element's state.
                let old = self.eval(a, base, f);
                let joined = old.join(&st, self.opts.trace_limit);
                self.assign_to(a, base, joined, f);
            }
            Expr::Prop(base, member, _) => {
                let (base, member) = (*base, *member);
                if !self.opts.oop {
                    return;
                }
                let (_, class) = self.receiver_class(a, base, f);
                let pname = match member {
                    Member::Name(n) => Symbol::intern(&format!("${n}")),
                    Member::Dynamic(_) => return,
                };
                let key_class = match class {
                    Some(c) => c,
                    None => match a.expr(base).as_var_name() {
                        // Track `$obj->prop` for unknown classes by variable
                        // identity so same-scope flows still connect.
                        Some(v) => Symbol::intern(&format!("var:{v}")),
                        None => return,
                    },
                };
                let entry = self.class_props.entry((key_class, pname)).or_default();
                let joined = std::mem::take(entry).join(&st, self.opts.trace_limit);
                *entry = joined;
            }
            Expr::StaticProp(class, prop, _) => {
                if !self.opts.oop {
                    return;
                }
                let class = self.resolve_class_name(*class, f);
                let entry = self.class_props.entry((class, *prop)).or_default();
                let joined = std::mem::take(entry).join(&st, self.opts.trace_limit);
                *entry = joined;
            }
            Expr::ListIntrinsic(items, _) => {
                for item in a.opt_exprs(*items).iter().flatten() {
                    self.assign_to(a, *item, st.clone(), f);
                }
            }
            Expr::Ref(inner, _) | Expr::ErrorSuppress(inner, _) => self.assign_to(a, *inner, st, f),
            _ => {}
        }
    }

    // ================== calls ==================

    fn eval_args(&mut self, a: &Arena, args: ArgRange, f: &mut Frame) -> Vec<VarState> {
        a.args(args)
            .iter()
            .map(|arg| self.eval(a, arg.value, f))
            .collect()
    }

    fn join_all(&self, states: &[VarState]) -> VarState {
        let limit = self.opts.trace_limit;
        let mut st = VarState::clean();
        for s in states {
            st = st.join(s, limit);
        }
        st
    }

    fn eval_call(
        &mut self,
        a: &Arena,
        callee: Callee,
        args: ArgRange,
        span: Span,
        f: &mut Frame,
    ) -> VarState {
        let arg_states = self.eval_args(a, args, f);
        match callee {
            Callee::Function(name) => {
                self.dispatch_named_call(a, None, name.as_str(), args, arg_states, span, f, None)
            }
            Callee::StaticMethod { class, name } => {
                let class = self.resolve_class_name(class, f);
                match name.as_name() {
                    Some(n) => {
                        self.dispatch_named_call(a, Some(class), n, args, arg_states, span, f, None)
                    }
                    None => self.join_all(&arg_states),
                }
            }
            Callee::Method { base, name } => {
                let (base_st, class) = self.receiver_class(a, base, f);
                match name.as_name() {
                    Some(n) => self.dispatch_named_call(
                        a,
                        class,
                        n,
                        args,
                        arg_states,
                        span,
                        f,
                        Some(base_st),
                    ),
                    None => {
                        let limit = self.opts.trace_limit;
                        self.join_all(&arg_states).join(&base_st, limit)
                    }
                }
            }
            Callee::Dynamic(inner) => {
                self.eval(a, inner, f);
                self.join_all(&arg_states)
            }
        }
    }

    /// The §III.C call dispatch: configuration lookups first (sinks,
    /// sources, sanitizers, reverts), then user-defined callables, then the
    /// conservative default for unknown functions.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_named_call(
        &mut self,
        a: &Arena,
        receiver: Option<Symbol>,
        name: &str,
        args: ArgRange,
        arg_states: Vec<VarState>,
        span: Span,
        f: &mut Frame,
        base_state: Option<VarState>,
    ) -> VarState {
        // `as_str` hands out `&'static str`, so `rcv` does not borrow
        // `receiver` and both stay usable below.
        let rcv: Option<&str> = receiver.map(|s| s.as_str());
        let limit = self.opts.trace_limit;
        let sink_label = match rcv {
            Some(r) => format!("{r}::{name}"),
            None => name.to_string(),
        };

        // --- sink check (a call can be sink *and* source, e.g. wpdb) ---
        let sinks = self.cfg.sink_specs(rcv, name).to_vec();
        for spec in &sinks {
            let positions: Vec<usize> = match &spec.args {
                Some(p) => p.clone(),
                None => (0..arg_states.len()).collect(),
            };
            for &i in &positions {
                if let Some(st) = arg_states.get(i) {
                    if st.taint.is_tainted(spec.class) {
                        let desc = a
                            .args(args)
                            .get(i)
                            .map(|arg| print_expr(a, arg.value))
                            .unwrap_or_else(|| "?".into());
                        self.report(spec.class, span, &sink_label, st, desc);
                    }
                }
            }
        }

        // --- source ---
        if let Some(kind) = self.cfg.source_function(rcv, name) {
            let taint = if rcv.is_some() {
                Taint::from_oop_source(kind)
            } else {
                Taint::from_source(kind)
            };
            let step = TraceStep {
                file: self.current_file(),
                line: span.line,
                what: format!("source {sink_label}()"),
            };
            self.emit_event(TaintEventKind::Introduced, span.line, &step.what);
            return VarState::tainted(taint, step);
        }

        // --- sanitizer ---
        let protects = self.cfg.sanitizer_protects(rcv, name).to_vec();
        if !protects.is_empty() {
            let joined = self.join_all(&arg_states);
            let (kept, removed) = joined.taint.sanitize(&protects);
            if removed.any() && self.events.is_some() {
                self.emit_event(
                    TaintEventKind::Sanitized,
                    span.line,
                    &format!("sanitized by {sink_label}()"),
                );
            }
            return VarState {
                taint: kept,
                sanitized_from: joined.sanitized_from.join(removed),
                object_class: None,
                trace: joined.trace,
            };
        }

        // --- revert: restores previously sanitized taint ---
        if self.cfg.is_revert(rcv, name) {
            let joined = self.join_all(&arg_states);
            let mut st = joined.clone();
            st.taint = st.taint.join(joined.sanitized_from);
            if st.taint.any() {
                let step = TraceStep {
                    file: self.current_file(),
                    line: span.line,
                    what: format!("revert {sink_label}() restores taint"),
                };
                self.emit_event(TaintEventKind::Reverted, span.line, &step.what);
                st.push_trace(step, limit);
            }
            return st;
        }

        if !sinks.is_empty() {
            // Pure sinks (echo-like functions) return nothing interesting.
            return VarState::clean();
        }

        // --- built-ins with by-reference output semantics ---
        if rcv.is_none() {
            match name.to_ascii_lowercase().as_str() {
                // `extract($arr)` spills $arr's contents over the scope.
                "extract" => {
                    if let Some(st) = arg_states.first() {
                        if st.taint.any() {
                            f.extracted = f.extracted.join(st.taint);
                        }
                    }
                    return VarState::clean();
                }
                // `parse_str($query, $result)` fills $result from $query.
                "parse_str" | "mb_parse_str" => {
                    if let (Some(src), Some(arg)) =
                        (arg_states.first(), a.args(args).get(1).copied())
                    {
                        self.assign_to(a, arg.value, src.clone(), f);
                    }
                    return VarState::clean();
                }
                // `preg_match($pat, $subject, $matches)`: capture groups
                // carry the subject's taint.
                "preg_match" | "preg_match_all" => {
                    if let (Some(subj), Some(arg)) =
                        (arg_states.get(1), a.args(args).get(2).copied())
                    {
                        self.assign_to(a, arg.value, subj.clone(), f);
                    }
                    return VarState::clean();
                }
                // `str_replace($s, $r, $subject, $count)` count is numeric.
                // (Return-taint handled by the default join below.)
                _ => {}
            }
        }

        // --- user-defined callables ---
        match receiver {
            Some(class) => {
                let syms = self.syms;
                if self.opts.oop {
                    if let Some((cinfo, decl)) = syms.method(class.as_str(), name) {
                        let mut ret = self.call_decl(
                            &cinfo.ast,
                            decl,
                            &cinfo.file,
                            arg_states,
                            Some(class),
                            false,
                        );
                        self.writeback_refs(decl, args, f);
                        if ret.taint.any() {
                            let step = TraceStep {
                                file: self.current_file(),
                                line: span.line,
                                what: format!("returned by {sink_label}()"),
                            };
                            self.emit_event(TaintEventKind::Propagated, span.line, &step.what);
                            ret.push_trace(step, limit);
                        }
                        return ret;
                    }
                }
                // Unknown method: taint flows through the object and args.
                let mut st = self.join_all(&arg_states);
                if let Some(b) = base_state {
                    st = st.join(&b, limit);
                    st.object_class = None;
                }
                st
            }
            None => {
                // A method call whose receiver class is unknown: the
                // object's own taint flows through (a formatted field of a
                // tainted DB row is still tainted).
                if let Some(b) = &base_state {
                    if b.taint.any() {
                        let mut st = self.join_all(&arg_states).join(b, limit);
                        st.object_class = None;
                        return st;
                    }
                }
                let syms = self.syms;
                if let Some(info) = syms.function(name) {
                    let mut ret =
                        self.call_decl(&info.ast, &info.decl, &info.file, arg_states, None, false);
                    self.writeback_refs(&info.decl, args, f);
                    if ret.taint.any() {
                        let step = TraceStep {
                            file: self.current_file(),
                            line: span.line,
                            what: format!("returned by {name}()"),
                        };
                        self.emit_event(TaintEventKind::Propagated, span.line, &step.what);
                        ret.push_trace(step, limit);
                    }
                    return ret;
                }
                // Unknown built-in / CMS function: conservative propagation
                // of argument taint (this is where unknown custom
                // sanitizers become false positives, as in the real tools).
                self.join_all(&arg_states)
            }
        }
    }

    /// Interprets a user-defined callable with the given argument states,
    /// memoized per (callable, argument-taint-signature). `decl`'s handles
    /// resolve against `decl_ast` — the declaring file's arena, which may
    /// differ from the caller's.
    fn call_decl(
        &mut self,
        decl_ast: &Arena,
        decl: &FunctionDecl,
        decl_file: &str,
        arg_states: Vec<VarState>,
        this_class: Option<Symbol>,
        force: bool,
    ) -> VarState {
        let key = CallKey {
            class: this_class,
            name: decl.name.to_lowercase(),
            sig: arg_states.iter().map(|s| s.taint).collect(),
        };
        if self.in_progress.contains(&key) {
            // Recursive call: cut the cycle (paper: "functions that are
            // called recursively are parsed only once").
            return VarState::clean();
        }
        // Cross-run sharing: consult the engine's summary cache after the
        // intra-run memo (memo-first keeps cached and uncached runs in
        // lockstep) and remember where to store a fresh summary. A `force`
        // call (the uncalled sweep) skips the memo but may still replay a
        // shared summary: one exists only if executing the body would be
        // observationally silent anyway.
        let mut shared_slot: Option<(Arc<SummaryCache>, SummaryKey, Vec<Symbol>)> = None;
        if self.opts.summaries {
            if !force {
                if let Some(hit) = self.memo.get(&key) {
                    return hit.ret.clone();
                }
            }
            if this_class.is_none() {
                let found = self.shared.as_ref().map(|shared| {
                    (
                        Arc::clone(&shared.summaries),
                        shared.decl(decl_ast, decl, decl_file),
                    )
                });
                if let Some((cache, Some(shareable))) = found {
                    let skey = SummaryKey::with_fingerprint(shareable.fp, &arg_states);
                    if let Some(sum) = cache.get(&skey) {
                        // Replay only if the recorded built-in calls are
                        // still unshadowed here and spending the stored
                        // work cannot trip this entry's budget (a
                        // borderline run executes for real instead).
                        let applies = sum
                            .calls
                            .iter()
                            .all(|n| self.syms.function(n.as_str()).is_none())
                            && self.work + sum.work <= self.opts.work_limit;
                        if applies {
                            self.work += sum.work;
                            let ret = VarState::clean();
                            self.memo.insert(key, CallResult { ret: ret.clone() });
                            return ret;
                        }
                    }
                    shared_slot = Some((cache, skey, shareable.calls));
                }
            }
        }
        let vulns_before = self.vulns.len();
        let work_before = self.work;
        let failed_before = self.failed.is_some();
        self.in_progress.insert(key.clone());

        let mut frame = Frame {
            this_class,
            ..Frame::default()
        };
        for (i, p) in decl_ast.params(decl.params).iter().enumerate() {
            let st = match arg_states.get(i) {
                Some(s) => s.clone(),
                None => match p.default {
                    Some(d) => self.eval(decl_ast, d, &mut frame),
                    None => VarState::clean(),
                },
            };
            frame.vars.insert(p.name, st);
        }
        self.file_stack.push(Symbol::intern(decl_file));
        self.exec_stmts(decl_ast, decl.body, &mut frame);
        self.file_stack.pop();

        let mut ret = std::mem::take(&mut frame.ret);
        ret.trace.truncate(self.opts.trace_limit);

        self.in_progress.remove(&key);
        if self.opts.summaries {
            self.memo.insert(key, CallResult { ret: ret.clone() });
        }
        if let Some((cache, skey, calls)) = shared_slot {
            // Record for other runs only when the execution was fully
            // inert: nothing reported, a clean return, no budget failure,
            // and every called name resolved to a built-in.
            let inert = self.vulns.len() == vulns_before
                && ret == VarState::clean()
                && !failed_before
                && self.failed.is_none()
                && calls
                    .iter()
                    .all(|n| self.syms.function(n.as_str()).is_none());
            if inert {
                cache.insert(
                    skey,
                    SharedSummary {
                        work: self.work - work_before,
                        calls,
                    },
                );
            }
        }
        ret
    }

    /// Conservative by-reference write-back: a by-ref parameter of a user
    /// function may have been assigned anything inside; we approximate by
    /// leaving the argument's state unchanged unless the callee is a known
    /// sanitizing pattern (kept simple: no-op). Kept as a hook for the
    /// ablation benches.
    fn writeback_refs(&mut self, _decl: &FunctionDecl, _args: ArgRange, _f: &mut Frame) {}

    fn eval_new(
        &mut self,
        a: &Arena,
        class: Member,
        args: ArgRange,
        span: Span,
        f: &mut Frame,
    ) -> VarState {
        let arg_states = self.eval_args(a, args, f);
        let cname = match class {
            Member::Name(n) => self.resolve_class_name(n, f),
            Member::Dynamic(e) => {
                self.eval(a, e, f);
                return VarState::clean();
            }
        };
        if !self.opts.oop {
            return VarState::clean();
        }
        // Run the constructor if the class is user-defined.
        let syms = self.syms;
        let ctor = syms
            .method(cname.as_str(), "__construct")
            .or_else(|| syms.method(cname.as_str(), cname.as_str()));
        if let Some((cinfo, decl)) = ctor {
            self.call_decl(
                &cinfo.ast,
                decl,
                &cinfo.file,
                arg_states,
                Some(cname),
                false,
            );
        }
        let mut st = VarState::clean();
        st.object_class = Some(cname);
        st.push_trace(
            TraceStep {
                file: self.current_file(),
                line: span.line,
                what: format!("new {cname}"),
            },
            self.opts.trace_limit,
        );
        st
    }

    // ================== includes ==================

    fn eval_include(
        &mut self,
        a: &Arena,
        kind: IncludeKind,
        path_expr: ExprId,
        _span: Span,
        f: &mut Frame,
    ) {
        // Evaluate for side effects regardless (taint through the path is a
        // file-inclusion issue, out of scope for XSS/SQLi).
        self.eval(a, path_expr, f);
        if !self.opts.resolve_includes {
            return;
        }
        let Some(raw) = self.const_string(a, path_expr) else {
            return;
        };
        let Some(file) = self.project.find_file(&raw) else {
            return;
        };
        let path = file.path.clone();
        let once = matches!(kind, IncludeKind::IncludeOnce | IncludeKind::RequireOnce);
        if once && self.included_once.contains(&path) {
            return;
        }
        if self.include_depth >= self.opts.max_include_depth {
            if self.failed.is_none() {
                self.failed = Some(format!(
                    "include depth {} exceeded at {}",
                    self.opts.max_include_depth, path
                ));
            }
            return;
        }
        self.included_once.insert(path.clone());
        let Some(ast) = self.parsed.get(&path).cloned() else {
            return;
        };
        self.include_depth += 1;
        self.file_stack.push(Symbol::intern(&path));
        // PHP executes includes in the calling scope.
        self.exec_stmts(&ast, ast.top, f);
        self.file_stack.pop();
        self.include_depth -= 1;
    }

    /// Best-effort constant evaluation of an include path.
    fn const_string(&self, a: &Arena, e: ExprId) -> Option<String> {
        match a.expr(e) {
            Expr::Lit(Lit::Str(s), _) => Some(s.as_str().to_string()),
            Expr::Binary {
                op: php_ast::BinOp::Concat,
                lhs,
                rhs,
                ..
            } => {
                let l = self.const_string(a, *lhs)?;
                let r = self.const_string(a, *rhs)?;
                Some(l + &r)
            }
            Expr::ConstFetch(n, _) if n.as_str() == "__FILE__" => {
                Some(self.current_file().to_string())
            }
            Expr::ConstFetch(n, _) if n.as_str().to_ascii_uppercase().ends_with("_DIR") => {
                // Plugin-dir constants resolve to the plugin root.
                Some(String::new())
            }
            Expr::Call {
                callee: Callee::Function(name),
                args,
                ..
            } => match name.as_str().to_ascii_lowercase().as_str() {
                "dirname" => {
                    let inner = self.const_string(a, a.args(*args).first()?.value)?;
                    match inner.rfind('/') {
                        Some(i) => Some(inner[..i].to_string()),
                        None => Some(String::new()),
                    }
                }
                "plugin_dir_path" | "plugin_dir_url" | "trailingslashit" => Some(String::new()),
                _ => None,
            },
            Expr::Interp(parts, _) => {
                let mut out = String::new();
                for p in a.interp(*parts) {
                    match p {
                        InterpPart::Lit(s) => out.push_str(s.as_str()),
                        InterpPart::Expr(_) => return None,
                    }
                }
                Some(out)
            }
            Expr::ErrorSuppress(inner, _) => self.const_string(a, *inner),
            _ => None,
        }
    }

    // ================== reporting ==================

    fn check_xss_output(&mut self, a: &Arena, st: &VarState, span: Span, sink: &str, expr: ExprId) {
        if st.taint.is_tainted(VulnClass::Xss) {
            let desc = print_expr(a, expr);
            self.report(VulnClass::Xss, span, sink, st, desc);
        }
    }

    /// Records one taint transition when this run captures events
    /// (`--explain`). `detail` matches the wording of the data-flow trace
    /// step recorded at the same site, so events and traces correlate.
    fn emit_event(&mut self, kind: TaintEventKind, line: u32, detail: &str) {
        if self.events.is_none() {
            return;
        }
        let event = TaintEvent {
            kind,
            file: self.current_file(),
            line,
            detail: detail.to_string(),
        };
        self.events.as_mut().expect("checked above").push(event);
    }

    fn report(&mut self, class: VulnClass, span: Span, sink: &str, st: &VarState, var: String) {
        let Some(kind) = st.taint.kind_for(class) else {
            return;
        };
        if self.events.is_some() {
            self.emit_event(
                TaintEventKind::SinkHit,
                span.line,
                &format!("{var} reaches {sink}"),
            );
        }
        self.vulns.push(Vulnerability {
            class,
            file: self.current_file().to_string(),
            line: span.line,
            sink: sink.to_string(),
            var: var.clone(),
            source_kind: kind,
            labels: st.taint.labels_for(class),
            via_oop: st.taint.oop,
            numeric_hint: numeric_intent(&var),
            trace: st.trace.clone(),
        });
    }
}
