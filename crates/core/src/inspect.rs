//! Project inspection — the §III.D "results processing" resources beyond
//! the vulnerability list: the variables and functions inventory, the
//! include graph, per-file token statistics, and the never-called
//! callables. phpSAFE exposes these "to help security practitioners trace
//! back the path of the tainted variables"; here they power tooling and
//! the HTML report.

use crate::project::PluginProject;
use crate::symbols::{FnRef, SymbolTable};
use php_ast::visit::{self, Visitor};
use php_ast::{parse, Arena, Callee, Expr, ExprId, Lit};
use serde::Serialize;
use std::collections::BTreeSet;

/// Inventory of one file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FileInventory {
    /// File path.
    pub path: String,
    /// Non-blank LOC.
    pub loc: usize,
    /// Token count (the "complete AST" resource, summarized).
    pub tokens: usize,
    /// Recovered parse errors.
    pub parse_errors: usize,
    /// Distinct variables read or written at any scope.
    pub variables: BTreeSet<String>,
    /// Functions declared in this file (free functions).
    pub functions: Vec<String>,
    /// Classes declared in this file.
    pub classes: Vec<String>,
    /// Files this file includes (resolved against the project).
    pub includes: Vec<String>,
}

/// Whole-project inventory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Inspection {
    /// Plugin name.
    pub plugin: String,
    /// Per-file inventories, in path order.
    pub files: Vec<FileInventory>,
    /// Callables never invoked from plugin code (`function` or
    /// `Class::method` notation).
    pub uncalled: Vec<String>,
    /// Total declared callables (functions + methods).
    pub callable_count: usize,
    /// Total classes.
    pub class_count: usize,
}

impl Inspection {
    /// Include edges as `(from, to)` path pairs.
    pub fn include_edges(&self) -> Vec<(&str, &str)> {
        let mut out = Vec::new();
        for f in &self.files {
            for inc in &f.includes {
                out.push((f.path.as_str(), inc.as_str()));
            }
        }
        out
    }
}

#[derive(Default)]
struct FileScan {
    variables: BTreeSet<String>,
    functions: Vec<String>,
    classes: Vec<String>,
    raw_includes: Vec<String>,
}

impl Visitor for FileScan {
    fn visit_expr(&mut self, a: &Arena, e: ExprId) {
        match a.expr(e) {
            Expr::Var(name, _) => {
                self.variables.insert(name.to_string());
            }
            Expr::Include(_, path, _) => {
                if let Some(p) = simple_const_string(a, *path) {
                    self.raw_includes.push(p);
                }
            }
            _ => {}
        }
        visit::walk_expr(self, a, e);
    }

    fn visit_function(&mut self, a: &Arena, f: &php_ast::FunctionDecl) {
        // Methods are collected under their class via visit_class order;
        // only top-of-stack free functions arrive here directly because
        // the class visitor below intercepts class members.
        self.functions.push(f.name.to_string());
        visit::walk_function(self, a, f);
    }

    fn visit_class(&mut self, a: &Arena, c: &php_ast::ClassDecl) {
        self.classes.push(c.name.to_string());
        // Walk members but suppress method names from the free-function
        // list by walking bodies manually.
        for m in a.members(c.members) {
            match m {
                php_ast::ClassMember::Method(_, f) => {
                    for &s in a.stmt_list(f.body) {
                        self.visit_stmt(a, s);
                    }
                }
                php_ast::ClassMember::Property {
                    default: Some(d), ..
                } => self.visit_expr(a, *d),
                php_ast::ClassMember::Const { value, .. } => self.visit_expr(a, *value),
                _ => {}
            }
        }
    }
}

/// Best-effort constant folding of an include path (literals, concats,
/// `dirname(__FILE__)`-style prefixes collapse to relative paths).
fn simple_const_string(a: &Arena, e: ExprId) -> Option<String> {
    match a.expr(e) {
        Expr::Lit(Lit::Str(s), _) => Some(s.as_str().to_string()),
        Expr::Binary {
            op: php_ast::BinOp::Concat,
            lhs,
            rhs,
            ..
        } => {
            let l = simple_const_string(a, *lhs).unwrap_or_default();
            let r = simple_const_string(a, *rhs)?;
            Some(l + &r)
        }
        Expr::Call {
            callee: Callee::Function(name),
            ..
        } if matches!(
            name.as_str().to_ascii_lowercase().as_str(),
            "dirname" | "plugin_dir_path" | "trailingslashit"
        ) =>
        {
            Some(String::new())
        }
        Expr::ConstFetch(..) => Some(String::new()),
        Expr::ErrorSuppress(inner, _) => simple_const_string(a, *inner),
        _ => None,
    }
}

/// Builds the full inventory of a plugin project.
///
/// # Examples
///
/// ```
/// use phpsafe::{inspect, PluginProject, SourceFile};
///
/// let p = PluginProject::new("demo").with_file(SourceFile::new(
///     "demo.php",
///     "<?php function f() { echo $_GET['x']; } include 'lib.php';",
/// ));
/// let inv = inspect(&p);
/// assert_eq!(inv.files[0].functions, vec!["f".to_string()]);
/// ```
pub fn inspect(project: &PluginProject) -> Inspection {
    let mut files = Vec::new();
    let mut parsed = Vec::new();
    for f in project.files() {
        let ast = std::sync::Arc::new(parse(&f.content));
        let tokens = php_lexer::tokenize_significant(&f.content).len();
        let mut scan = FileScan::default();
        visit::walk_file(&mut scan, &ast);
        let includes = scan
            .raw_includes
            .iter()
            .filter_map(|raw| {
                let raw = raw.trim_start_matches('/');
                project.find_file(raw).map(|sf| sf.path.clone())
            })
            .collect();
        files.push(FileInventory {
            path: f.path.clone(),
            loc: f.loc(),
            tokens,
            parse_errors: ast.errors.len(),
            variables: scan.variables,
            functions: scan.functions,
            classes: scan.classes,
            includes,
        });
        parsed.push((f.path.clone(), ast));
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    let symbols = SymbolTable::build(parsed.iter().map(|(p, a)| (p.as_str(), a)));
    let uncalled = symbols
        .uncalled()
        .into_iter()
        .map(|r| match r {
            FnRef::Function(f) => f,
            FnRef::Method(c, m) => format!("{c}::{m}"),
        })
        .collect();
    Inspection {
        plugin: project.name().to_string(),
        files,
        uncalled,
        callable_count: symbols.callable_count(),
        class_count: symbols.class_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn project() -> PluginProject {
        PluginProject::new("inv")
            .with_file(SourceFile::new(
                "main.php",
                "<?php
                include 'includes/lib.php';
                $top = 1;
                function used() { $inner = 2; }
                used();
                class Widget { public function render() { echo $this->title; } }
                ",
            ))
            .with_file(SourceFile::new(
                "includes/lib.php",
                "<?php function helper($arg) { return $arg; }",
            ))
    }

    #[test]
    fn inventory_collects_symbols_per_file() {
        let inv = inspect(&project());
        assert_eq!(inv.files.len(), 2);
        let lib = inv
            .files
            .iter()
            .find(|f| f.path == "includes/lib.php")
            .unwrap();
        assert_eq!(lib.functions, vec!["helper".to_string()]);
        let main = inv.files.iter().find(|f| f.path == "main.php").unwrap();
        assert_eq!(main.functions, vec!["used".to_string()]);
        assert_eq!(main.classes, vec!["Widget".to_string()]);
        assert!(main.variables.contains("$top"));
        assert!(main.variables.contains("$inner"));
        assert!(main.tokens > 10);
    }

    #[test]
    fn include_edges_resolve() {
        let inv = inspect(&project());
        assert_eq!(inv.include_edges(), vec![("main.php", "includes/lib.php")]);
    }

    #[test]
    fn uncalled_inventory() {
        let inv = inspect(&project());
        assert!(inv.uncalled.contains(&"helper".to_string()));
        assert!(inv.uncalled.contains(&"widget::render".to_string()));
        assert!(!inv.uncalled.contains(&"used".to_string()));
        assert_eq!(inv.callable_count, 3);
        assert_eq!(inv.class_count, 1);
    }

    #[test]
    fn methods_not_listed_as_free_functions() {
        let inv = inspect(&project());
        let main = inv.files.iter().find(|f| f.path == "main.php").unwrap();
        assert!(!main.functions.contains(&"render".to_string()));
    }

    #[test]
    fn serializes_to_json() {
        let inv = inspect(&project());
        let j = serde_json::to_string(&inv).expect("json");
        assert!(j.contains("includes/lib.php"));
    }
}
