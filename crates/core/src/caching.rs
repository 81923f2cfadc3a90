//! Shared analysis artifacts: file units and cross-run call summaries.
//!
//! The evaluation pipeline analyzes the same plugin sources many times —
//! three tools × two corpus versions, and most files are byte-identical
//! between the 2012 and 2014 snapshots. This module wires the generic
//! [`phpsafe_engine`] artifact caches into the analyzer so that:
//!
//! * each distinct file **content** is lexed and parsed exactly once
//!   ([`AstCache`], keyed by [`ContentKey`]) into one [`FileUnit`], which
//!   every analysis shares: the [`ParsedFile`], the summary-key facts of
//!   its declarations, and the references a daemon's `invalidate`
//!   resolves its affected set from;
//! * user functions whose analysis provably cannot depend on anything
//!   outside their declaration are summarized **across analysis runs** in a
//!   per-tool [`SummaryCache`] — extending the paper's intra-run "every
//!   function is analyzed only the first time it is called" memoization to
//!   the whole evaluation.
//!
//! With a disk tier ([`EngineCaches::with_disk`]), parsed ASTs also
//! outlive the process. The rest of a unit and the summaries never reach
//! the disk: they live as long as the cache set that holds them.
//!
//! Cross-run sharing is deliberately conservative so cached and uncached
//! runs produce byte-identical reports; see [`shareable_calls`] and
//! [`SharedSummary`] for the exact conditions.

use crate::depgraph::FileRefs;
use crate::taint::{Taint, VarState};
use php_ast::printer::{print_expr, print_stmt};
use php_ast::visit::{self, Visitor};
use php_ast::{
    parse, Arena, Callee, ClassDecl, Expr, ExprId, FunctionDecl, ParsedFile, Stmt, StmtId,
};
use phpsafe_engine::{digest64, ArtifactCache, CacheCounters, ContentKey, DiskCache};
use phpsafe_intern::{FnvHashMap, Symbol};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

/// Disk namespace for encoded [`ParsedFile`]s, stored in the zero-copy
/// ZAST v2 layout ([`php_ast::zast`]). The envelope's build stamp guards
/// both the layout and the parser that produced the tree. Parsing is
/// configuration-independent, so entries are stored under fingerprint 0.
pub const AST_NAMESPACE: &str = "ast";

/// Flags a [`DiskCache::store`] result at an engine call site. Individual
/// failures already warn with the exact path and count into
/// `diskcache.store_failed`; this adds one run-level warning the first
/// time persistence degrades, so a flaky cache volume is visible even
/// when the per-store lines scroll away.
fn note_store(stored: bool) {
    if stored {
        return;
    }
    static WARN_ONCE: std::sync::Once = std::sync::Once::new();
    WARN_ONCE.call_once(|| {
        eprintln!(
            "phpsafe: warning: disk cache stores are failing; analysis results are \
             unaffected but later runs will not warm-start (diskcache.store_failed counts)"
        );
    });
}

/// Everything the caches hold for one file content, shared by every
/// tool, version and project that presents the same bytes: the parsed
/// tree, the summary-key facts of its declarations and the file's
/// outgoing references. The facts are computed on first use and live as
/// long as the unit; only the tree reaches the disk.
pub struct FileUnit {
    ast: Arc<ParsedFile>,
    /// Each declaration looked up so far, with its facts when it is
    /// shareable. Equal content parses to equal arenas, so a
    /// declaration's handles name the same nodes in every file with this
    /// unit's key.
    decls: Mutex<Vec<(FunctionDecl, Option<SharedDecl>)>>,
    /// What the file declares and references, for `invalidate`.
    refs: OnceLock<FileRefs>,
}

impl FileUnit {
    fn new(ast: ParsedFile) -> FileUnit {
        FileUnit {
            ast: Arc::new(ast),
            decls: Mutex::default(),
            refs: OnceLock::new(),
        }
    }

    /// The parsed file.
    pub(crate) fn ast(&self) -> &Arc<ParsedFile> {
        &self.ast
    }

    /// The summary-key facts of `decl`, a declaration of this file:
    /// computed on the first lookup, then shared.
    pub(crate) fn decl(&self, decl: &FunctionDecl) -> Option<SharedDecl> {
        let known = |decls: &[(FunctionDecl, Option<SharedDecl>)]| {
            let (_, facts) = decls.iter().find(|(d, _)| d == decl)?;
            Some(facts.clone())
        };
        if let Some(found) = known(&self.decls.lock().unwrap()) {
            return found;
        }
        // Computed outside the lock; a racing worker computes the same.
        let computed = SharedDecl::of(&self.ast, decl);
        let mut decls = self.decls.lock().unwrap();
        if known(&decls).is_none() {
            decls.push((*decl, computed.clone()));
        }
        computed
    }

    /// What this file declares and references, extracted on first use.
    pub(crate) fn refs(&self) -> &FileRefs {
        self.refs.get_or_init(|| FileRefs::of(&self.ast))
    }
}

/// The shared file-unit cache: one lex + parse per distinct file content,
/// no matter how many tools, versions or plugins present it.
#[derive(Default)]
pub struct AstCache {
    cache: ArtifactCache<ContentKey, FileUnit>,
    disk: Option<Arc<DiskCache>>,
}

impl AstCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache backed by a persistent disk tier: in-memory misses
    /// try the disk before parsing, and fresh parses are written back.
    pub fn with_disk(disk: Arc<DiskCache>) -> Self {
        AstCache {
            cache: ArtifactCache::new(),
            disk: Some(disk),
        }
    }

    /// Parses `src`, sharing the artifact with every analysis that sees the
    /// same bytes. Lex/parse wall time lands in the `stage.lex` /
    /// `stage.parse` histograms on misses only (hits cost a hash plus a
    /// map lookup).
    ///
    /// With a disk tier, a miss first tries the persisted AST: one read
    /// of the entry and one checked [`php_ast::zast::decode`]. A payload
    /// that fails to decode drops the entry and falls back to a fresh
    /// parse, which is written back.
    pub fn parse(&self, src: &str) -> Arc<ParsedFile> {
        Arc::clone(self.unit(src, ContentKey::of(src.as_bytes())).ast())
    }

    /// The unit of `src`, for a caller that already holds the source's
    /// key (a [`crate::PluginProject`] digests each file once, on load),
    /// so a hit costs only the map lookup. `key` must be
    /// `ContentKey::of(src.as_bytes())`. Misses parse as
    /// [`AstCache::parse`] does.
    pub fn unit(&self, src: &str, key: ContentKey) -> Arc<FileUnit> {
        let (unit, _hit) = self.cache.get_or_build(key, || {
            FileUnit::new(self.load(key).unwrap_or_else(|| {
                let parsed = parse(src);
                if let Some(disk) = &self.disk {
                    let bytes = php_ast::zast::encode_file(&parsed);
                    note_store(disk.store(AST_NAMESPACE, key, 0, &bytes));
                }
                parsed
            }))
        });
        unit
    }

    /// The unit of a content this process may no longer hold the source
    /// of: from memory, else decoded from the disk tier. `None` when
    /// neither has it. Not counted as a parse-cache lookup.
    pub(crate) fn unit_by_key(&self, key: ContentKey) -> Option<Arc<FileUnit>> {
        if let Some(unit) = self.cache.peek(&key) {
            return Some(unit);
        }
        let parsed = self.load(key)?;
        Some(self.cache.insert(key, FileUnit::new(parsed)))
    }

    /// The persisted tree of `key`, if the disk tier holds a valid one.
    /// A payload that fails to decode is dropped and counted as corrupt.
    fn load(&self, key: ContentKey) -> Option<ParsedFile> {
        let disk = self.disk.as_ref()?;
        let bytes = disk.load(AST_NAMESPACE, key, 0)?;
        match php_ast::zast::decode(&bytes) {
            Ok(parsed) => Some(parsed),
            Err(_) => {
                disk.note_corrupt(AST_NAMESPACE, key);
                None
            }
        }
    }

    /// Hit/miss counters.
    pub fn counters(&self) -> CacheCounters {
        self.cache.counters()
    }

    /// Number of distinct file contents parsed so far.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether nothing has been parsed yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

/// Key for a cross-run call summary: a span-insensitive fingerprint of the
/// declaration text plus the abstract state of the arguments.
///
/// The fingerprint hashes the *pretty-printed* declaration, so a function
/// that merely moved to a different line (the dominant 2012 → 2014 diff
/// shape) still hits. The argument signature carries both the current
/// taint and the sanitized-away taint of each argument — revert functions
/// can resurrect the latter, so two calls agreeing only on current taint
/// are not interchangeable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SummaryKey {
    pub(crate) decl_fp: u64,
    pub(crate) sig: Vec<(Taint, Taint)>,
}

impl SummaryKey {
    /// Builds the key for calling `decl` (arena handles into `a`) with
    /// `args`.
    pub fn new(a: &Arena, decl: &FunctionDecl, args: &[VarState]) -> SummaryKey {
        SummaryKey::with_fingerprint(fingerprint_decl(a, decl), args)
    }

    /// The key for calling a declaration whose fingerprint is `decl_fp`.
    pub(crate) fn with_fingerprint(decl_fp: u64, args: &[VarState]) -> SummaryKey {
        SummaryKey {
            decl_fp,
            sig: args.iter().map(|s| (s.taint, s.sanitized_from)).collect(),
        }
    }
}

/// What a cross-run summary lookup needs to know about a shareable
/// declaration: its fingerprint and the calls [`shareable_calls`]
/// collects, as interned names.
#[derive(Debug, Clone)]
pub(crate) struct SharedDecl {
    pub(crate) fp: u64,
    pub(crate) calls: Vec<Symbol>,
}

impl SharedDecl {
    /// `None` when the declaration is not a pure leaf.
    fn of(a: &Arena, decl: &FunctionDecl) -> Option<SharedDecl> {
        let calls = shareable_calls(a, decl)?;
        Some(SharedDecl {
            fp: fingerprint_decl(a, decl),
            calls,
        })
    }
}

/// A call summary that may be replayed by a later analysis run.
///
/// Only recorded when executing the body (a) emitted no vulnerability, (b)
/// returned a fully clean [`VarState`] and (c) left the failure flag unset
/// — so replaying is exactly "spend the work, return clean". Together with
/// the [`shareable_calls`] purity conditions this makes a replay
/// indistinguishable from re-execution.
#[derive(Debug, Clone)]
pub struct SharedSummary {
    /// Work units the body execution cost.
    pub work: u64,
    /// Lowercased names of the functions the body calls. A consumer must
    /// re-check that none of them resolve to *its* project's user code
    /// before replaying.
    pub calls: Vec<Symbol>,
}

/// Per-tool cache of cross-run call summaries.
pub type SummaryCache = ArtifactCache<SummaryKey, SharedSummary>;

/// What one cached analysis run consults for cross-run summaries: its
/// tool's summary cache, and the unit of each analyzed file (by path),
/// which memoizes its declarations' facts.
pub(crate) struct SharedCaches<'a> {
    pub(crate) summaries: Arc<SummaryCache>,
    units: FnvHashMap<&'a str, Arc<FileUnit>>,
}

impl<'a> SharedCaches<'a> {
    /// `units` must hold the unit each path's AST was taken from.
    pub(crate) fn new(
        caches: &EngineCaches,
        tool: &str,
        units: FnvHashMap<&'a str, Arc<FileUnit>>,
    ) -> Self {
        SharedCaches {
            summaries: caches.summaries_for(tool),
            units,
        }
    }

    /// The summary-key facts of `decl` (handles into `a`), declared in
    /// project file `file`: computed on the first lookup, then shared.
    pub(crate) fn decl(&self, a: &Arena, decl: &FunctionDecl, file: &str) -> Option<SharedDecl> {
        match self.units.get(file) {
            Some(unit) => unit.decl(decl),
            None => SharedDecl::of(a, decl),
        }
    }
}

/// The shared caches one engine run threads through every analysis: a
/// file-unit cache common to all tools, and one summary cache per tool (the
/// tools differ in taint configuration and capability switches, so their
/// summaries must not mix).
///
/// A given tool name must map to a single (configuration, options) pair
/// for the lifetime of the cache set.
#[derive(Default)]
pub struct EngineCaches {
    ast: AstCache,
    summaries: Mutex<HashMap<String, Arc<SummaryCache>>>,
    disk: Option<Arc<DiskCache>>,
}

impl EngineCaches {
    /// Fresh, empty caches.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh caches backed by a persistent disk tier: parsed ASTs are read
    /// through and written through to `disk`. Call summaries stay in
    /// memory for the cache set's lifetime.
    pub fn with_disk(disk: Arc<DiskCache>) -> Self {
        EngineCaches {
            ast: AstCache::with_disk(Arc::clone(&disk)),
            disk: Some(disk),
            ..Default::default()
        }
    }

    /// Caches over a disk tier rooted at `dir`, or in memory only when
    /// `dir` cannot be opened (a regular file, no permission): the run
    /// loses its disk tier, not its results. Warns once on stderr and
    /// counts `diskcache.open_failed`.
    pub fn open(dir: &Path) -> Self {
        match DiskCache::open(dir) {
            Ok(disk) => Self::with_disk(Arc::new(disk)),
            Err(e) => {
                eprintln!(
                    "warning: cannot open cache dir {}: {e}; caching in memory only",
                    dir.display()
                );
                phpsafe_obs::count("diskcache.open_failed", 1);
                Self::new()
            }
        }
    }

    /// The disk tier, if this cache set has one.
    pub fn disk(&self) -> Option<&Arc<DiskCache>> {
        self.disk.as_ref()
    }

    /// The shared file-unit cache.
    pub fn ast(&self) -> &AstCache {
        &self.ast
    }

    /// The summary cache for `tool`, created on first use.
    pub fn summaries_for(&self, tool: &str) -> Arc<SummaryCache> {
        self.summaries
            .lock()
            .unwrap()
            .entry(tool.to_string())
            .or_default()
            .clone()
    }

    /// Current cache totals: the shared parse cache plus every per-tool
    /// summary cache summed together.
    pub fn totals(&self) -> CacheTotals {
        let mut summary = CacheCounters::default();
        for cache in self.summaries.lock().unwrap().values() {
            summary = summary.merged(&cache.counters());
        }
        CacheTotals {
            parse: self.ast.counters(),
            summary,
        }
    }

    /// Folds this cache set's counters into the global observability
    /// registry (`cache.parse.*` / `cache.summary.*`; no-op while
    /// instrumentation is disabled) and returns them. Call once per engine
    /// run — counters are cumulative over the cache set's lifetime.
    pub fn record(&self) -> CacheTotals {
        let totals = self.totals();
        phpsafe_obs::count("cache.parse.hits", totals.parse.hits);
        phpsafe_obs::count("cache.parse.misses", totals.parse.misses);
        phpsafe_obs::count("cache.summary.hits", totals.summary.hits);
        phpsafe_obs::count("cache.summary.misses", totals.summary.misses);
        totals
    }
}

/// Combined hit/miss counters of an [`EngineCaches`] set.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheTotals {
    /// Shared token-stream/AST cache.
    pub parse: CacheCounters,
    /// Per-tool summary caches, summed.
    pub summary: CacheCounters,
}

/// Span-insensitive fingerprint of a declaration: name, parameter list and
/// pretty-printed body, hashed with [`digest64`].
fn fingerprint_decl(a: &Arena, decl: &FunctionDecl) -> u64 {
    let mut text = String::new();
    text.push_str(&decl.name.as_str().to_ascii_lowercase());
    if decl.by_ref {
        text.push('&');
    }
    for p in a.params(decl.params) {
        text.push('(');
        text.push_str(p.name.as_str());
        if p.by_ref {
            text.push('&');
        }
        if p.variadic {
            text.push_str("...");
        }
        if let Some(d) = p.default {
            text.push('=');
            text.push_str(&print_expr(a, d));
        }
        text.push(')');
    }
    text.push('{');
    for &s in a.stmt_list(decl.body) {
        text.push_str(&print_stmt(a, s));
        text.push(';');
    }
    text.push('}');
    digest64(text.as_bytes())
}

/// Decides whether a declaration is a *pure leaf* whose analysis result
/// can only depend on the declaration text and the argument states.
///
/// Returns the lowercased names of all functions the body calls (interned,
/// deduplicated, sorted by name) when shareable, `None` otherwise.
/// Rejected constructs are exactly those through which an analysis could
/// read or write state that outlives the call frame, or reach code outside
/// the declaration:
///
/// * `global` / `static` variable statements (cross-call stores);
/// * property or static-property access, `new`, and method calls (the
///   per-class property store, constructors, `$this`);
/// * `include`/`require` (reaches other files);
/// * closures, variable-variables and dynamic calls (callees unknowable);
/// * nested function/class declarations;
/// * by-reference parameters (argument write-back).
///
/// Plain function calls are allowed but *collected*: both the producer and
/// any consumer of a summary must check that none of the names resolve to
/// a user function in their symbol table, so only built-in/configured
/// functions — which behave identically everywhere — are ever involved.
pub fn shareable_calls(a: &Arena, decl: &FunctionDecl) -> Option<Vec<Symbol>> {
    if a.params(decl.params).iter().any(|p| p.by_ref) {
        return None;
    }
    struct Purity {
        pure: bool,
        calls: Vec<Symbol>,
    }
    impl Visitor for Purity {
        fn visit_stmt(&mut self, a: &Arena, s: StmtId) {
            if !self.pure {
                return;
            }
            match a.stmt(s) {
                Stmt::Global(..) | Stmt::StaticVars(..) | Stmt::Function(_) | Stmt::Class(_) => {
                    self.pure = false;
                }
                _ => visit::walk_stmt(self, a, s),
            }
        }
        fn visit_expr(&mut self, a: &Arena, e: ExprId) {
            if !self.pure {
                return;
            }
            match a.expr(e) {
                Expr::Prop(..)
                | Expr::StaticProp(..)
                | Expr::New { .. }
                | Expr::Include(..)
                | Expr::Closure { .. }
                | Expr::VarVar(..) => {
                    self.pure = false;
                    return;
                }
                Expr::Call { callee, .. } => match callee {
                    Callee::Function(name) => self.calls.push(name.to_lowercase()),
                    Callee::Dynamic(_) | Callee::Method { .. } | Callee::StaticMethod { .. } => {
                        self.pure = false;
                        return;
                    }
                },
                _ => {}
            }
            visit::walk_expr(self, a, e);
        }
        fn visit_class(&mut self, _a: &Arena, _c: &ClassDecl) {
            self.pure = false;
        }
    }
    let mut v = Purity {
        pure: true,
        calls: Vec::new(),
    };
    for p in a.params(decl.params) {
        if let Some(d) = p.default {
            v.visit_expr(a, d);
        }
    }
    for &s in a.stmt_list(decl.body) {
        v.visit_stmt(a, s);
    }
    if !v.pure {
        return None;
    }
    v.calls.sort_by_key(|n| n.as_str());
    v.calls.dedup();
    Some(v.calls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use php_ast::parse;

    fn first_fn(src: &str) -> (ParsedFile, FunctionDecl) {
        let file = parse(src);
        for &s in file.top_stmts() {
            if let Stmt::Function(f) = file.stmt(s) {
                let f = *f;
                return (file, f);
            }
        }
        panic!("no function in {src}");
    }

    #[test]
    fn ast_cache_shares_identical_content() {
        let cache = AstCache::new();
        let a = cache.parse("<?php echo 1;");
        let b = cache.parse("<?php echo 1;");
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn ast_cache_distinguishes_content() {
        let cache = AstCache::new();
        let a = cache.parse("<?php echo 1;");
        let b = cache.parse("<?php echo 2;");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.counters().misses, 2);
    }

    #[test]
    fn fingerprint_ignores_spans() {
        let (fa, a) = first_fn("<?php function f($x) { return $x + 1; }");
        let (fb, b) = first_fn("<?php\n\n\nfunction f($x) { return $x + 1; }");
        assert_ne!(a.span, b.span);
        assert_eq!(fingerprint_decl(&fa, &a), fingerprint_decl(&fb, &b));
    }

    #[test]
    fn fingerprint_sees_body_changes() {
        let (fa, a) = first_fn("<?php function f($x) { return $x + 1; }");
        let (fb, b) = first_fn("<?php function f($x) { return $x + 2; }");
        assert_ne!(fingerprint_decl(&fa, &a), fingerprint_decl(&fb, &b));
    }

    #[test]
    fn pure_leaf_is_shareable_and_calls_collected() {
        let (file, f) = first_fn("<?php function f($x) { return trim(strtolower($x)); }");
        let calls = shareable_calls(&file, &f).expect("pure leaf");
        let names: Vec<&str> = calls.iter().map(|n| n.as_str()).collect();
        assert_eq!(names, ["strtolower", "trim"]);
    }

    #[test]
    fn impure_constructs_are_rejected() {
        for src in [
            "<?php function f() { global $db; return $db; }",
            "<?php function f() { static $n = 0; return $n; }",
            "<?php function f($o) { return $o->prop; }",
            "<?php function f($o) { return $o->m(); }",
            "<?php function f() { return new Thing(); }",
            "<?php function f() { include 'x.php'; }",
            "<?php function f() { $g = function () {}; return $g; }",
            "<?php function f($n) { return $$n; }",
            "<?php function f($g) { return $g(); }",
            "<?php function f(&$x) { $x = 1; }",
            "<?php function f() { function g() {} }",
        ] {
            let (file, f) = first_fn(src);
            assert!(shareable_calls(&file, &f).is_none(), "should reject: {src}");
        }
    }

    #[test]
    fn summary_key_distinguishes_sanitized_from() {
        let (file, f) = first_fn("<?php function f($x) { return 1; }");
        let clean = VarState::clean();
        let mut washed = VarState::clean();
        washed.sanitized_from = Taint::from_source(taint_config::SourceKind::Get);
        let a = SummaryKey::new(&file, &f, std::slice::from_ref(&clean));
        let b = SummaryKey::new(&file, &f, std::slice::from_ref(&washed));
        assert_ne!(a, b, "revertible sanitization must split the key");
    }

    #[test]
    fn cached_analysis_matches_uncached_and_reuses_summaries() {
        use crate::{PhpSafe, PluginProject, SourceFile};
        let plugin = PluginProject::new("p").with_file(SourceFile::new(
            "p.php",
            r#"<?php
            function pad($s) { return str_pad($s, 8); }
            function risky($v) { echo $v; }
            echo pad("x");
            risky($_GET['q']);
            "#,
        ));
        let tool = PhpSafe::new();
        let plain = tool.analyze(&plugin);

        let caches = EngineCaches::new();
        let first = tool.analyze_with_caches(&plugin, Some(&caches));
        let second = tool.analyze_with_caches(&plugin, Some(&caches));
        assert_eq!(plain, first);
        assert_eq!(plain, second);

        // The second run re-parsed nothing and replayed `pad`'s summary
        // (`risky` emits a vulnerability, so it must never be recorded).
        assert!(caches.ast().counters().hits >= 1);
        let sums = caches.summaries_for("phpSAFE");
        assert!(sums.counters().hits >= 1, "{:?}", sums.counters());
        assert_eq!(first.stats.work_units, second.stats.work_units);
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("phpsafe-caching-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn disk_tier_survives_cache_restarts() {
        use phpsafe_engine::DiskCache;
        let dir = temp_dir("ast");
        let src = "<?php function f($x) { return trim($x); } echo f($_GET['a']);";

        let disk = Arc::new(DiskCache::open(&dir).unwrap());
        let first = AstCache::with_disk(Arc::clone(&disk));
        let parsed = first.parse(src);
        assert_eq!(disk.counters().stores, 1, "fresh parse persisted");

        // A brand-new cache (fresh process, in effect) decodes from disk.
        let disk2 = Arc::new(DiskCache::open(&dir).unwrap());
        let second = AstCache::with_disk(Arc::clone(&disk2));
        let reloaded = second.parse(src);
        assert_eq!(*parsed, *reloaded, "decoded AST identical to parsed");
        assert_eq!(disk2.counters().hits, 1);
        assert_eq!(second.counters().misses, 1, "memory miss served by disk");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_falls_back_to_parse() {
        use phpsafe_engine::DiskCache;
        let dir = temp_dir("corrupt");
        let src = "<?php echo $_GET['x'];";

        let disk = Arc::new(DiskCache::open(&dir).unwrap());
        AstCache::with_disk(Arc::clone(&disk)).parse(src);

        // Garble every persisted payload byte-by-byte truncation.
        let ns = dir.join("ast");
        for entry in std::fs::read_dir(&ns).unwrap() {
            let path = entry.unwrap().path();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        }

        let disk2 = Arc::new(DiskCache::open(&dir).unwrap());
        let cache = AstCache::with_disk(Arc::clone(&disk2));
        let reparsed = cache.parse(src);
        assert_eq!(*reparsed, php_ast::parse(src), "fell back to a parse");
        let c = disk2.counters();
        assert_eq!(c.corrupt, 1, "{c:?}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn caches_total_their_counters() {
        let caches = EngineCaches::new();
        caches.ast().parse("<?php echo 1;");
        caches.ast().parse("<?php echo 1;");
        let sums = caches.summaries_for("phpSAFE");
        let (file, f) = first_fn("<?php function f() { return 1; }");
        let key = SummaryKey::new(&file, &f, &[]);
        assert!(sums.get(&key).is_none());
        sums.insert(
            key.clone(),
            SharedSummary {
                work: 3,
                calls: vec![],
            },
        );
        assert!(sums.get(&key).is_some());
        // The same tool name maps to the same cache.
        assert!(Arc::ptr_eq(&sums, &caches.summaries_for("phpSAFE")));

        let totals = caches.record();
        assert_eq!(totals.parse.hits, 1);
        assert_eq!(totals.summary.lookups(), 2);
    }
}
