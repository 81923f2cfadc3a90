//! The invalidation graph of a project, resolved in memory from the
//! units of its file contents — the analyzer side of incremental
//! invalidation.
//!
//! The engine owns the graph and its closure query; this module owns the
//! PHP knowledge: which AST constructs make one file's analysis depend on
//! another file's contents. Each [`FileUnit`] extracts its [`FileRefs`]
//! once, and [`affected_files`] resolves them against a project's
//! declarations. Three edge families:
//!
//! * **Includes** — `include`/`require` targets, resolved with the same
//!   best-effort constant evaluation the interpreter uses (literal
//!   fragments, `.` concatenation, `dirname(__FILE__)` jumbles, plugin-dir
//!   constants). A path that never resolves to a constant still yields an
//!   edge when its trailing literal fragment names a project file — for
//!   invalidation, over-approximating is safe (it only widens the dirty
//!   set), missing an edge is not.
//! * **Calls** — `foo()` to a function declared in another file, plus
//!   `new Cls`, `Cls::m()` and `use`/`extends`/`implements` class
//!   references, matching the symbol table's case-insensitive resolution.
//!   A name declared in several files edges to each of them.
//! * **Methods** — `$obj->m()` with an unknown receiver edges to *every*
//!   class declaring a method `m`, mirroring the paper's name-based OOP
//!   resolution (§III-B): any of those files could host the summary used.
//!
//! Dynamic constructs (`$f()`, `include $path`, `new $cls`) contribute no
//! edge; analysis correctness never depends on the graph — results are
//! always recomputed from full content-keyed inputs — so an unresolvable
//! edge degrades the *precision* of invalidation, not its soundness.

use crate::caching::FileUnit;
use php_ast::visit::{self, Visitor};
use php_ast::{
    Arena, BinOp, Callee, ClassDecl, ClassMember, Expr, ExprId, InterpPart, Lit, Member,
    ParsedFile, Stmt, StmtId,
};
use phpsafe_engine::DepGraph;
use phpsafe_intern::{FnvHashMap, Symbol};
use std::collections::BTreeSet;
use std::sync::Arc;

/// What one file content declares and references, by lowercased name,
/// each name once. Include targets stay expressions: `__FILE__` names the
/// including file, so they resolve per path.
#[derive(Default)]
pub(crate) struct FileRefs {
    includes: Vec<ExprId>,
    /// Called free functions.
    functions: Vec<Symbol>,
    /// Classes named by `new`, `Cls::m()`, `extends`, `implements` or `use`.
    classes: Vec<Symbol>,
    /// Methods called on any receiver.
    methods: Vec<Symbol>,
    /// Free functions declared outside class bodies, as the symbol table
    /// records them.
    declared_functions: Vec<Symbol>,
    declared_classes: Vec<Symbol>,
    /// Each declared class's own methods.
    declared_methods: Vec<Symbol>,
}

impl FileRefs {
    pub(crate) fn of(file: &ParsedFile) -> FileRefs {
        let mut v = RefVisitor {
            refs: FileRefs::default(),
            class_depth: 0,
        };
        visit::walk_file(&mut v, file);
        let mut refs = v.refs;
        for names in [
            &mut refs.functions,
            &mut refs.classes,
            &mut refs.methods,
            &mut refs.declared_functions,
            &mut refs.declared_classes,
            &mut refs.declared_methods,
        ] {
            // Lowercasing may intern, so it runs once per distinct name.
            let distinct = name_set(std::mem::take(names));
            *names = name_set(distinct.into_iter().map(Symbol::to_lowercase).collect());
        }
        // Relative references stay within the declaring file.
        refs.classes
            .retain(|c| !matches!(c.as_str(), "self" | "static" | "parent"));
        refs
    }
}

/// `names` sorted by interned id, each once.
fn name_set(mut names: Vec<Symbol>) -> Vec<Symbol> {
    names.sort_unstable_by_key(|name| name.index());
    names.dedup();
    names
}

/// The files an edit can affect: each dirty file plus every file that
/// depends on one, directly or transitively, under the project's previous
/// contents (`old`) or its current ones (`new`) — so a caller an edit
/// gains counts as well as one it loses. Each list pairs a project's
/// paths, in project order, with the units of their contents. Sorted and
/// deduplicated; this is what a daemon's `invalidate` replies with.
pub fn affected_files<S: AsRef<str>>(
    old: &[(&str, Arc<FileUnit>)],
    new: &[(&str, Arc<FileUnit>)],
    dirty: &[S],
) -> Vec<String> {
    let mut affected = graph_of(old).dependents_of(dirty);
    affected.extend(graph_of(new).dependents_of(dirty));
    affected.sort_unstable();
    affected.dedup();
    affected
}

/// Resolves every file's references against the declarations of `files`.
fn graph_of(files: &[(&str, Arc<FileUnit>)]) -> DepGraph {
    // Declaring files by name, as indices into `files`.
    let mut declared: [FnvHashMap<Symbol, Vec<usize>>; 3] = Default::default();
    for (i, (_, unit)) in files.iter().enumerate() {
        let r = unit.refs();
        let decls = [
            &r.declared_functions,
            &r.declared_classes,
            &r.declared_methods,
        ];
        for (by_name, names) in declared.iter_mut().zip(decls) {
            for &name in names {
                by_name.entry(name).or_default().push(i);
            }
        }
    }
    let mut graph = DepGraph::new();
    for (path, _) in files {
        graph.add_file(path);
    }
    for (from, unit) in files {
        let r = unit.refs();
        let includes = r.includes.iter().filter_map(|&target| {
            let raw = include_target(unit.ast(), target, from)?;
            find_file(files, &raw)
        });
        let uses = [&r.functions, &r.classes, &r.methods];
        let calls = declared.iter().zip(uses).flat_map(|(by_name, names)| {
            names
                .iter()
                .filter_map(|n| by_name.get(n))
                .flatten()
                .copied()
        });
        // Many references resolve to the same file: add each edge once.
        let deps: BTreeSet<usize> = includes.chain(calls).collect();
        for to in deps {
            graph.add_edge(from, files[to].0);
        }
    }
    graph
}

/// The index of the project file an include names: an exact path, else
/// the first path in project order ending with it
/// ([`crate::PluginProject::find_file`]).
fn find_file(files: &[(&str, Arc<FileUnit>)], raw: &str) -> Option<usize> {
    let needle = raw.trim_start_matches("./").trim_start_matches('/');
    let paths = || files.iter().map(|(path, _)| *path);
    paths()
        .position(|path| path == needle)
        .or_else(|| paths().position(|path| path.ends_with(needle)))
}

struct RefVisitor {
    refs: FileRefs,
    /// Class bodies entered; functions declared inside one are not free.
    class_depth: usize,
}

impl Visitor for RefVisitor {
    fn visit_stmt(&mut self, a: &Arena, stmt: StmtId) {
        if let Stmt::Function(f) = a.stmt(stmt) {
            if self.class_depth == 0 {
                self.refs.declared_functions.push(f.name);
            }
        }
        visit::walk_stmt(self, a, stmt);
    }

    fn visit_expr(&mut self, a: &Arena, expr: ExprId) {
        match a.expr(expr) {
            Expr::Include(_, target, _) => self.refs.includes.push(*target),
            Expr::Call { callee, .. } => match callee {
                Callee::Function(name) => self.refs.functions.push(*name),
                Callee::StaticMethod { class, .. } => self.refs.classes.push(*class),
                Callee::Method {
                    name: Member::Name(m),
                    ..
                } => self.refs.methods.push(*m),
                Callee::Method { .. } => {}
                Callee::Dynamic(_) => {}
            },
            Expr::New {
                class: Member::Name(c),
                ..
            } => self.refs.classes.push(*c),
            _ => {}
        }
        visit::walk_expr(self, a, expr);
    }

    fn visit_class(&mut self, a: &Arena, class: &ClassDecl) {
        self.refs.declared_classes.push(class.name);
        let methods = class.methods(a).map(|(_, m)| m.name);
        self.refs.declared_methods.extend(methods);
        self.refs.classes.extend(class.parent);
        self.refs.classes.extend(a.syms(class.interfaces));
        for m in a.members(class.members) {
            if let ClassMember::UseTrait(traits, _) = m {
                self.refs.classes.extend(a.syms(*traits));
            }
        }
        self.class_depth += 1;
        visit::walk_class(self, a, class);
        self.class_depth -= 1;
    }
}

/// Best-effort constant evaluation of an include path, mirroring the
/// interpreter's `const_string` (same literal/concat/`__FILE__`/`dirname`
/// rules) so graph edges agree with the includes the walk actually
/// follows. Falls back to the trailing literal fragment of a partially
/// dynamic path — `dirname(__FILE__) . $sub . '/admin/page.php'` still
/// edges to `admin/page.php` if the project has exactly such a suffix.
fn include_target(a: &Arena, e: ExprId, current_file: &str) -> Option<String> {
    if let Some(path) = const_path(a, e, current_file) {
        return Some(path);
    }
    let tail = literal_tail(a, e)?;
    // Only trust fragments that name a source file; a bare directory or
    // extension-less fragment would suffix-match unrelated files.
    let looks_like_file = tail.rsplit('/').next().is_some_and(|name| {
        name.rsplit('.')
            .next()
            .is_some_and(|ext| matches!(ext, "php" | "inc" | "phtml"))
    });
    looks_like_file.then(|| tail.trim_start_matches('/').to_owned())
}

/// The interpreter's constant-string evaluation, minus frame state: the
/// only context an include path needs is the including file (`__FILE__`).
fn const_path(a: &Arena, e: ExprId, current_file: &str) -> Option<String> {
    match a.expr(e) {
        Expr::Lit(Lit::Str(s), _) => Some(s.as_str().to_string()),
        Expr::Binary {
            op: BinOp::Concat,
            lhs,
            rhs,
            ..
        } => {
            let l = const_path(a, *lhs, current_file)?;
            let r = const_path(a, *rhs, current_file)?;
            Some(l + &r)
        }
        Expr::ConstFetch(n, _) if n.as_str() == "__FILE__" => Some(current_file.to_string()),
        Expr::ConstFetch(n, _) if n.as_str().to_ascii_uppercase().ends_with("_DIR") => {
            Some(String::new())
        }
        Expr::Call {
            callee: Callee::Function(name),
            args,
            ..
        } => match name.as_str().to_ascii_lowercase().as_str() {
            "dirname" => {
                let inner = const_path(a, a.args(*args).first()?.value, current_file)?;
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
        Expr::ErrorSuppress(inner, _) => const_path(a, *inner, current_file),
        _ => None,
    }
}

/// The trailing literal fragment of a concatenation / interpolation chain.
fn literal_tail(a: &Arena, e: ExprId) -> Option<String> {
    match a.expr(e) {
        Expr::Lit(Lit::Str(s), _) => Some(s.as_str().to_string()),
        Expr::Binary {
            op: BinOp::Concat,
            rhs,
            ..
        } => literal_tail(a, *rhs),
        Expr::Interp(parts, _) => match a.interp(*parts).last()? {
            InterpPart::Lit(s) => Some(s.as_str().to_string()),
            InterpPart::Expr(_) => None,
        },
        Expr::ErrorSuppress(inner, _) => literal_tail(a, *inner),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caching::AstCache;
    use phpsafe_engine::ContentKey;

    fn units_of<'a>(cache: &AstCache, files: &[(&'a str, &str)]) -> Vec<(&'a str, Arc<FileUnit>)> {
        let unit = |src: &str| cache.unit(src, ContentKey::of(src.as_bytes()));
        files.iter().map(|&(path, src)| (path, unit(src))).collect()
    }

    fn graph_of_sources(files: &[(&str, &str)]) -> DepGraph {
        graph_of(&units_of(&AstCache::new(), files))
    }

    #[test]
    fn include_edges_resolve_literals_and_dirname_jumbles() {
        let g = graph_of_sources(&[
            ("main.php", "<?php require 'lib/db.php';"),
            (
                "admin.php",
                "<?php include dirname(__FILE__) . '/lib/db.php';",
            ),
            ("lib/db.php", "<?php $x = 1;"),
        ]);
        assert_eq!(g.deps_of("main.php"), ["lib/db.php"]);
        assert_eq!(g.deps_of("admin.php"), ["lib/db.php"]);
        // Editing the library invalidates both includers.
        assert_eq!(
            g.dependents_of(&["lib/db.php"]),
            ["admin.php", "lib/db.php", "main.php"]
        );
    }

    #[test]
    fn partially_dynamic_include_uses_trailing_fragment() {
        let g = graph_of_sources(&[
            ("main.php", "<?php include $base . '/inc/helper.php';"),
            ("inc/helper.php", "<?php function h() {}"),
        ]);
        assert_eq!(g.deps_of("main.php"), ["inc/helper.php"]);
    }

    #[test]
    fn fully_dynamic_include_contributes_no_edge() {
        let g = graph_of_sources(&[
            ("main.php", "<?php include $path;"),
            ("other.php", "<?php $x = 1;"),
        ]);
        assert_eq!(g.deps_of("main.php"), Vec::<&str>::new());
    }

    #[test]
    fn cross_file_calls_and_classes_edge_to_declaring_file() {
        let g = graph_of_sources(&[
            ("a.php", "<?php Sanitize(); $d = new DB(); DB::ping();"),
            ("fns.php", "<?php function sanitize($s) { return $s; }"),
            ("db.php", "<?php class DB { function ping() {} }"),
        ]);
        assert_eq!(g.deps_of("a.php"), ["db.php", "fns.php"]);
        // Same-file calls are not edges.
        assert_eq!(g.deps_of("fns.php"), Vec::<&str>::new());
    }

    #[test]
    fn method_calls_edge_to_every_declaring_class() {
        let g = graph_of_sources(&[
            ("a.php", "<?php $x->save();"),
            ("m1.php", "<?php class A { function save() {} }"),
            ("m2.php", "<?php class B { function save() {} }"),
            ("m3.php", "<?php class C { function other() {} }"),
        ]);
        assert_eq!(g.deps_of("a.php"), ["m1.php", "m2.php"]);
    }

    #[test]
    fn inheritance_and_traits_edge_to_parent_files() {
        let g = graph_of_sources(&[
            ("child.php", "<?php class Child extends Base { use Log; }"),
            ("base.php", "<?php class Base {}"),
            ("log.php", "<?php trait Log { function log() {} }"),
        ]);
        assert_eq!(g.deps_of("child.php"), ["base.php", "log.php"]);
    }

    #[test]
    fn functions_inside_class_bodies_are_not_free_declarations() {
        let g = graph_of_sources(&[
            ("a.php", "<?php helper();"),
            (
                "c.php",
                "<?php class C { function m() { function helper() {} } }",
            ),
        ]);
        assert_eq!(g.deps_of("a.php"), Vec::<&str>::new());
    }

    #[test]
    fn affected_counts_callers_an_edit_gains_or_loses() {
        let cache = AstCache::new();
        let declares = "<?php function foo() {}";
        let plain = "<?php echo 1;";
        let project = |d: &str| units_of(&cache, &[("a.php", "<?php foo();"), ("d.php", d)]);
        let (with, without) = (project(declares), project(plain));
        let dirty = ["d.php"];
        assert_eq!(affected_files(&without, &with, &dirty), ["a.php", "d.php"]);
        assert_eq!(affected_files(&with, &without, &dirty), ["a.php", "d.php"]);
        assert_eq!(affected_files(&without, &without, &dirty), ["d.php"]);
    }
}
