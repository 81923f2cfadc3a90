//! The `PhpSafe` façade — the single-class API the paper describes
//! (§III: *"its functions become accessible through the instantiation of a
//! single PHP class called PHP-SAFE, which receives as input the PHP file to
//! be analyzed and delivers the results"*) — plus the capability switches
//! that also power the baselines and the ablation benches.

use crate::caching::{EngineCaches, FileUnit, SharedCaches};
use crate::explain::TaintEvent;
use crate::interp::Interp;
use crate::project::PluginProject;
use crate::report::{AnalysisOutcome, AnalysisStats, FileFailure, FileReport};
use crate::symbols::SymbolTable;
use php_ast::visit::{self, Visitor};
use php_ast::{parse, Arena, Callee, ClassDecl, Expr, ExprId, ParsedFile};
use phpsafe_intern::FnvHashMap;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use taint_config::{wordpress, TaintConfig};

/// Capability switches for the analysis engine.
///
/// The defaults are phpSAFE's configuration; the baseline crates construct
/// RIPS-like and Pixy-like analyzers by flipping these (and swapping the
/// [`TaintConfig`]), and the ablation benches flip them one at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzerOptions {
    /// Resolve OOP: method calls, property flows, `new`, known CMS objects
    /// (§III.E). Off for RIPS/Pixy.
    pub oop: bool,
    /// Splice `include`/`require` targets into the analysis (§III.B). Off
    /// for the per-file tools.
    pub resolve_includes: bool,
    /// Analyze functions never called from plugin code (§III.C). Off for
    /// Pixy, which the paper observed "is unable to do so".
    pub analyze_uncalled: bool,
    /// Model the legacy `register_globals = 1` directive: undefined global
    /// variables are attacker-controlled. Pixy-only behaviour (§V.A).
    pub register_globals: bool,
    /// Refuse files containing OOP constructs entirely (Pixy's front end —
    /// the paper counts 32 such failures).
    pub reject_oop_files: bool,
    /// Refuse files containing closures (post-2007 syntax a Pixy-era parser
    /// reports errors on — the paper counts 1 error in 2012, 37 in 2014).
    pub reject_closures: bool,
    /// Memoize user-function analyses per argument-taint signature
    /// (the paper's "functions are parsed only once" summaries).
    pub summaries: bool,
    /// Maximum include nesting before the analysis of the entry file is
    /// declared failed (phpSAFE's memory blow-up on include-heavy files).
    pub max_include_depth: usize,
    /// Abstract work budget per entry file (memory/CPU proxy).
    pub work_limit: u64,
    /// Maximum recorded data-flow trace steps per variable.
    pub trace_limit: usize,
}

impl Default for AnalyzerOptions {
    fn default() -> Self {
        AnalyzerOptions {
            oop: true,
            resolve_includes: true,
            analyze_uncalled: true,
            register_globals: false,
            reject_oop_files: false,
            reject_closures: false,
            summaries: true,
            max_include_depth: 12,
            work_limit: 400_000,
            trace_limit: 12,
        }
    }
}

/// The phpSAFE static analyzer.
///
/// # Examples
///
/// ```
/// use phpsafe::{PhpSafe, PluginProject, SourceFile};
/// use taint_config::VulnClass;
///
/// let plugin = PluginProject::new("demo").with_file(SourceFile::new(
///     "demo.php",
///     "<?php echo $_GET['name'];",
/// ));
/// let outcome = PhpSafe::new().analyze(&plugin);
/// assert_eq!(outcome.vulns.len(), 1);
/// assert_eq!(outcome.vulns[0].class, VulnClass::Xss);
/// ```
#[derive(Debug, Clone)]
pub struct PhpSafe {
    config: TaintConfig,
    options: AnalyzerOptions,
    tool_name: String,
    /// [`PhpSafe::fingerprint`], computed on first use; every `with_*`
    /// method that changes an input resets it.
    fingerprint: OnceLock<u64>,
}

impl Default for PhpSafe {
    fn default() -> Self {
        Self::new()
    }
}

impl PhpSafe {
    /// phpSAFE with its out-of-the-box WordPress configuration (§III.A).
    pub fn new() -> Self {
        PhpSafe {
            config: wordpress(),
            options: AnalyzerOptions::default(),
            tool_name: "phpSAFE".to_string(),
            fingerprint: OnceLock::new(),
        }
    }

    /// Replaces the vulnerability configuration (e.g. a Drupal profile).
    pub fn with_config(mut self, config: TaintConfig) -> Self {
        self.config = config;
        self.fingerprint = OnceLock::new();
        self
    }

    /// Replaces the capability options (baselines, ablations).
    pub fn with_options(mut self, options: AnalyzerOptions) -> Self {
        self.options = options;
        self.fingerprint = OnceLock::new();
        self
    }

    /// Sets the tool name recorded in outcomes.
    pub fn with_tool_name(mut self, name: impl Into<String>) -> Self {
        self.tool_name = name.into();
        self.fingerprint = OnceLock::new();
        self
    }

    /// Current options (read-only).
    pub fn options(&self) -> &AnalyzerOptions {
        &self.options
    }

    /// Current configuration (read-only).
    pub fn config(&self) -> &TaintConfig {
        &self.config
    }

    /// A stable 64-bit fingerprint of everything that can change this
    /// tool's output for a given input: the taint configuration, the
    /// capability options and the tool name. The daemon's `outcome` disk
    /// tier keys rendered responses on this, so flipping any switch
    /// invalidates them. Computed once per tool value (rendering the
    /// configuration is not free), and only when the daemon first asks
    /// for it.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let text = format!(
                "{}\x1f{:016x}\x1f{:?}",
                self.tool_name,
                self.config.fingerprint(),
                self.options
            );
            phpsafe_engine::digest64(text.as_bytes())
        })
    }

    /// Runs the full four-stage pipeline over a plugin and returns the
    /// deduplicated findings plus robustness/statistics records.
    pub fn analyze(&self, project: &PluginProject) -> AnalysisOutcome {
        self.analyze_with_caches(project, None)
    }

    /// [`PhpSafe::analyze`], optionally sharing parse results and pure-leaf
    /// call summaries through an [`EngineCaches`] set. Passing `None` is
    /// the plain serial mode; passing a cache set never changes the
    /// outcome, only the cost of producing it.
    pub fn analyze_with_caches(
        &self,
        project: &PluginProject,
        caches: Option<&EngineCaches>,
    ) -> AnalysisOutcome {
        self.run(project, caches, false).0
    }

    /// [`PhpSafe::analyze_with_caches`] that also returns the analysis's
    /// own taint-event stream, the input [`crate::explain_outcome`] needs
    /// for `--explain`. Capturing never changes the outcome.
    pub fn analyze_explained(
        &self,
        project: &PluginProject,
        caches: Option<&EngineCaches>,
    ) -> (AnalysisOutcome, Vec<TaintEvent>) {
        self.run(project, caches, true)
    }

    /// The pipeline behind both entry points; `capture` turns on the
    /// interpreter's event stream.
    fn run(
        &self,
        project: &PluginProject,
        caches: Option<&EngineCaches>,
        capture: bool,
    ) -> (AnalysisOutcome, Vec<TaintEvent>) {
        let _span = phpsafe_obs::span!("stage.analyze", project.name());

        // ---- stage 2: model construction ----
        let span_model = phpsafe_obs::span!("analyze.model");
        let mut parsed: HashMap<String, Arc<ParsedFile>> = HashMap::new();
        // The unit of each file in `parsed`, for its declarations' facts.
        let mut units: FnvHashMap<&str, Arc<FileUnit>> = FnvHashMap::default();
        let mut reports: Vec<FileReport> = Vec::new();
        let mut rejected: Vec<String> = Vec::new();
        for (file, &key) in project.files().iter().zip(project.file_keys()) {
            let unit = caches.map(|c| c.ast().unit(&file.content, key));
            let ast = match &unit {
                Some(unit) => Arc::clone(unit.ast()),
                None => Arc::new(parse(&file.content)),
            };
            let mut report = FileReport {
                path: file.path.clone(),
                loc: file.loc(),
                parse_errors: ast.errors.len(),
                failure: None,
            };
            if self.options.reject_oop_files && uses_oop(&ast) {
                report.failure = Some(FileFailure::Unsupported(
                    "object-oriented constructs".to_string(),
                ));
                rejected.push(file.path.clone());
            } else if self.options.reject_closures && uses_closures(&ast) {
                report.failure = Some(FileFailure::Unsupported(
                    "anonymous functions (post-2007 syntax)".to_string(),
                ));
                rejected.push(file.path.clone());
            } else {
                parsed.insert(file.path.clone(), ast);
                if let Some(unit) = unit {
                    units.insert(&file.path, unit);
                }
            }
            reports.push(report);
        }

        let span_symbols = phpsafe_obs::span!("model.symbols");
        let symbols = SymbolTable::build(parsed.iter().map(|(p, a)| (p.as_str(), a)));
        drop(span_symbols);
        drop(span_model);

        // ---- stage 3: analysis ----
        let span_taint = phpsafe_obs::span!("analyze.taint");
        let shared = caches.map(|c| SharedCaches::new(c, &self.tool_name, units));
        let mut interp = Interp::new(
            &self.config,
            &self.options,
            &symbols,
            project,
            &parsed,
            shared,
            capture,
        );
        let mut total_work = 0u64;
        let mut failed_paths: Vec<(String, String)> = Vec::new();
        let mut paths: Vec<&String> = parsed.keys().collect();
        paths.sort();
        for path in paths {
            let vulns_before = interp.vulns.len();
            let failure = interp.run_entry_file(path);
            total_work += interp.work;
            if let Some(msg) = failure {
                // The paper's tools deliver nothing for a file they cannot
                // finish: drop findings from the failed pass.
                interp.vulns.truncate(vulns_before);
                failed_paths.push((path.clone(), msg));
            }
        }
        let uncalled = symbols.uncalled();
        if self.options.analyze_uncalled {
            interp.run_uncalled(&uncalled);
            total_work += interp.work;
        }
        drop(span_taint);

        // ---- stage 4: results processing ----
        let span_results = phpsafe_obs::span!("analyze.results");
        for (path, msg) in &failed_paths {
            if let Some(r) = reports.iter_mut().find(|r| &r.path == path) {
                r.failure = Some(FileFailure::ResourceLimit(msg.clone()));
            }
        }
        let failed_set: std::collections::HashSet<&String> = failed_paths
            .iter()
            .map(|(p, _)| p)
            .chain(rejected.iter())
            .collect();
        let events = interp.events.unwrap_or_default();
        let mut vulns = interp.vulns;
        vulns.retain(|v| !failed_set.contains(&v.file));

        let stats = AnalysisStats {
            files_ok: reports.iter().filter(|r| r.failure.is_none()).count(),
            files_failed: reports.iter().filter(|r| r.failure.is_some()).count(),
            loc: reports.iter().map(|r| r.loc).sum(),
            functions: symbols.callable_count(),
            classes: symbols.class_count(),
            uncalled_functions: uncalled.len(),
            work_units: total_work,
        };

        let mut outcome = AnalysisOutcome {
            tool: self.tool_name.clone(),
            plugin: project.name().to_string(),
            vulns,
            files: reports,
            stats,
        };
        outcome.dedup();
        outcome
            .vulns
            .sort_by(|a, b| (&a.file, a.line, a.class).cmp(&(&b.file, b.line, b.class)));
        drop(span_results);

        phpsafe_obs::count("analyze.files", outcome.files.len() as u64);
        phpsafe_obs::count("analyze.vulns", outcome.vulns.len() as u64);
        phpsafe_obs::count("analyze.work_units", outcome.stats.work_units);
        (outcome, events)
    }
}

/// Does the file use any OOP construct (class declarations, method calls,
/// property access, `new`)? Pixy's front end fails on these.
fn uses_oop(ast: &ParsedFile) -> bool {
    struct Finder {
        found: bool,
    }
    impl Visitor for Finder {
        fn visit_class(&mut self, _a: &Arena, _c: &ClassDecl) {
            self.found = true;
        }
        fn visit_expr(&mut self, a: &Arena, e: ExprId) {
            match a.expr(e) {
                Expr::Prop(..) | Expr::StaticProp(..) | Expr::New { .. } => self.found = true,
                Expr::Call {
                    callee: Callee::Method { .. } | Callee::StaticMethod { .. },
                    ..
                } => self.found = true,
                _ => {}
            }
            if !self.found {
                visit::walk_expr(self, a, e);
            }
        }
    }
    let mut f = Finder { found: false };
    visit::walk_file(&mut f, ast);
    f.found
}

/// Does the file use anonymous functions? A 2007-era parser errors on them.
fn uses_closures(ast: &ParsedFile) -> bool {
    struct Finder {
        found: bool,
    }
    impl Visitor for Finder {
        fn visit_expr(&mut self, a: &Arena, e: ExprId) {
            if matches!(a.expr(e), Expr::Closure { .. }) {
                self.found = true;
            }
            if !self.found {
                visit::walk_expr(self, a, e);
            }
        }
    }
    let mut f = Finder { found: false };
    visit::walk_file(&mut f, ast);
    f.found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::project::SourceFile;
    use taint_config::{SourceKind, VulnClass};

    fn plugin(src: &str) -> PluginProject {
        PluginProject::new("test").with_file(SourceFile::new("test.php", src))
    }

    fn analyze(src: &str) -> AnalysisOutcome {
        PhpSafe::new().analyze(&plugin(src))
    }

    #[test]
    fn fingerprint_is_memoized_and_reset_by_every_setter() {
        let base = PhpSafe::new();
        let fp = base.fingerprint();
        assert_eq!(fp, base.fingerprint());
        assert_eq!(fp, PhpSafe::new().fingerprint());
        let options = AnalyzerOptions {
            oop: false,
            ..AnalyzerOptions::default()
        };
        // Each variant starts from a tool whose fingerprint is memoized;
        // each twin is built fresh.
        let pairs = [
            (
                base.clone().with_options(options.clone()),
                PhpSafe::new().with_options(options),
            ),
            (
                base.clone().with_config(taint_config::drupal()),
                PhpSafe::new().with_config(taint_config::drupal()),
            ),
            (
                base.clone().with_tool_name("other"),
                PhpSafe::new().with_tool_name("other"),
            ),
        ];
        for (variant, twin) in &pairs {
            assert_ne!(variant.fingerprint(), fp, "{variant:?}");
            assert_eq!(variant.fingerprint(), twin.fingerprint(), "{variant:?}");
        }
    }

    #[test]
    fn detects_direct_get_echo_xss() {
        let o = analyze("<?php echo $_GET['name'];");
        assert_eq!(o.vulns.len(), 1);
        assert_eq!(o.vulns[0].class, VulnClass::Xss);
        assert_eq!(o.vulns[0].source_kind, SourceKind::Get);
        assert_eq!(o.vulns[0].line, 1);
    }

    #[test]
    fn sanitized_echo_is_clean() {
        let o = analyze("<?php echo htmlentities($_GET['name']);");
        assert!(o.vulns.is_empty(), "{:?}", o.vulns);
    }

    #[test]
    fn taint_flows_through_assignment_chain() {
        let o = analyze(
            "<?php
            $a = $_POST['msg'];
            $b = $a;
            $c = 'prefix: ' . $b;
            echo $c;",
        );
        assert_eq!(o.vulns.len(), 1);
        assert_eq!(o.vulns[0].source_kind, SourceKind::Post);
        assert_eq!(o.vulns[0].line, 5);
        assert!(!o.vulns[0].trace.is_empty(), "trace must be recorded");
    }

    #[test]
    fn intval_sanitizes_both_classes() {
        let o = analyze(
            "<?php
            $id = intval($_GET['id']);
            echo $id;
            mysql_query(\"SELECT * FROM t WHERE id = $id\");",
        );
        assert!(o.vulns.is_empty(), "{:?}", o.vulns);
    }

    #[test]
    fn int_cast_sanitizes() {
        let o = analyze("<?php $id = (int)$_GET['id']; echo $id;");
        assert!(o.vulns.is_empty());
    }

    #[test]
    fn sqli_through_interpolated_query() {
        let o = analyze(
            "<?php
            $id = $_GET['id'];
            mysql_query(\"SELECT * FROM posts WHERE id = $id\");",
        );
        assert_eq!(o.vulns.len(), 1);
        assert_eq!(o.vulns[0].class, VulnClass::Sqli);
        assert_eq!(o.vulns[0].sink, "mysql_query");
    }

    #[test]
    fn escape_string_stops_sqli_but_not_xss() {
        let o = analyze(
            "<?php
            $n = mysql_real_escape_string($_GET['n']);
            mysql_query(\"SELECT * FROM t WHERE n = '$n'\");
            echo $n;",
        );
        assert_eq!(o.vulns.len(), 1, "{:?}", o.vulns);
        assert_eq!(o.vulns[0].class, VulnClass::Xss);
    }

    #[test]
    fn stripslashes_reverts_sanitization() {
        // §III.A: revert functions re-enable the attack.
        let o = analyze(
            "<?php
            $s = addslashes($_GET['s']);
            $raw = stripslashes($s);
            mysql_query(\"SELECT * FROM t WHERE s = '$raw'\");",
        );
        assert_eq!(o.vulns.len(), 1, "{:?}", o.vulns);
        assert_eq!(o.vulns[0].class, VulnClass::Sqli);
    }

    #[test]
    fn unset_untaints() {
        let o = analyze("<?php $x = $_GET['x']; unset($x); echo $x;");
        assert!(o.vulns.is_empty());
    }

    #[test]
    fn branch_join_keeps_taint_when_one_path_unsanitized() {
        let o = analyze(
            "<?php
            $x = $_GET['x'];
            if ($_GET['mode'] == 'safe') { $x = htmlentities($x); }
            echo $x;",
        );
        assert_eq!(o.vulns.len(), 1, "taint survives the unsanitized path");
    }

    #[test]
    fn branch_join_clean_when_all_paths_sanitize() {
        let o = analyze(
            "<?php
            $x = $_GET['x'];
            if ($_GET['m']) { $x = htmlentities($x); } else { $x = intval($x); }
            echo $x;",
        );
        assert!(o.vulns.is_empty(), "{:?}", o.vulns);
    }

    #[test]
    fn interprocedural_flow_through_user_function() {
        let o = analyze(
            "<?php
            function decorate($v) { return '<b>' . $v . '</b>'; }
            echo decorate($_GET['t']);",
        );
        assert_eq!(o.vulns.len(), 1);
        assert_eq!(o.vulns[0].class, VulnClass::Xss);
    }

    #[test]
    fn user_function_that_sanitizes_is_summarized() {
        let o = analyze(
            "<?php
            function clean($v) { return htmlentities($v); }
            echo clean($_GET['t']);",
        );
        assert!(o.vulns.is_empty(), "{:?}", o.vulns);
    }

    #[test]
    fn recursion_terminates() {
        let o = analyze(
            "<?php
            function walk($n) { if ($n > 0) { return walk($n - 1); } return $_GET['x']; }
            echo walk(5);",
        );
        // The tainted return through recursion is found (first analysis of
        // walk taints its return), and the analysis terminates.
        assert_eq!(o.vulns.len(), 1);
    }

    #[test]
    fn foreach_propagates_collection_taint() {
        let o = analyze(
            "<?php
            $items = $_POST['items'];
            foreach ($items as $it) { echo $it; }",
        );
        assert_eq!(o.vulns.len(), 1);
    }

    #[test]
    fn uncalled_function_is_analyzed() {
        // The hook handler is never called from plugin code — phpSAFE must
        // still find the vulnerability (§III.C).
        let o = analyze(
            "<?php
            add_action('admin_menu', 'my_page');
            function my_page() { echo $_REQUEST['tab']; }",
        );
        assert_eq!(o.vulns.len(), 1);
        assert_eq!(o.vulns[0].source_kind, SourceKind::Request);
    }

    #[test]
    fn oop_property_flow_detected() {
        let o = analyze(
            "<?php
            class Form {
                private $value;
                public function __construct() { $this->value = $_POST['v']; }
                public function render() { echo $this->value; }
            }
            $f = new Form();
            $f->render();",
        );
        assert_eq!(o.vulns.len(), 1, "{:?}", o.vulns);
        assert_eq!(o.vulns[0].class, VulnClass::Xss);
    }

    #[test]
    fn wpdb_get_results_is_oop_database_source() {
        // The paper's §III.E mail-subscribe-list example.
        let o = analyze(
            "<?php
            $results = $wpdb->get_results(\"SELECT * FROM \" . $wpdb->prefix . \"sml\");
            foreach ($results as $row) {
                echo $row->sml_name;
            }",
        );
        assert_eq!(o.vulns.len(), 1, "{:?}", o.vulns);
        let v = &o.vulns[0];
        assert_eq!(v.class, VulnClass::Xss);
        assert_eq!(v.source_kind, SourceKind::Database);
        assert!(v.via_oop, "flow passes a WordPress object method");
    }

    #[test]
    fn wpdb_query_with_tainted_sql_is_sqli() {
        let o = analyze(
            "<?php
            $t = $_GET['t'];
            $wpdb->query(\"DELETE FROM x WHERE t = '$t'\");",
        );
        assert_eq!(o.vulns.len(), 1);
        assert_eq!(o.vulns[0].class, VulnClass::Sqli);
        assert_eq!(o.vulns[0].sink, "wpdb::query");
    }

    #[test]
    fn wpdb_prepare_stops_sqli() {
        let o = analyze(
            "<?php
            $sql = $wpdb->prepare(\"SELECT * FROM t WHERE id = %d\", $_GET['id']);
            $wpdb->query($sql);",
        );
        assert!(o.vulns.is_empty(), "{:?}", o.vulns);
    }

    #[test]
    fn esc_html_stops_xss() {
        let o = analyze("<?php echo esc_html($_GET['q']);");
        assert!(o.vulns.is_empty());
    }

    #[test]
    fn wpdb_alias_through_property() {
        // OOP plugins commonly stash $wpdb in a property.
        let o = analyze(
            "<?php
            class Repo {
                private $db;
                public function __construct() { global $wpdb; $this->db = $wpdb; }
                public function all() { return $this->db->get_results('SELECT * FROM x'); }
            }
            $r = new Repo();
            foreach ($r->all() as $row) { echo $row->name; }",
        );
        assert_eq!(o.vulns.len(), 1, "{:?}", o.vulns);
        assert!(o.vulns[0].via_oop);
        assert_eq!(o.vulns[0].source_kind, SourceKind::Database);
    }

    #[test]
    fn include_resolution_connects_files() {
        let p = PluginProject::new("multi")
            .with_file(SourceFile::new(
                "main.php",
                "<?php $v = $_GET['v']; include 'show.php';",
            ))
            .with_file(SourceFile::new("show.php", "<?php echo $v;"));
        let o = PhpSafe::new().analyze(&p);
        // Found once via main.php's include (in show.php at line 1); the
        // standalone pass over show.php sees $v undefined (clean).
        assert_eq!(o.vulns.len(), 1, "{:?}", o.vulns);
        assert_eq!(o.vulns[0].file, "show.php");
    }

    #[test]
    fn include_depth_limit_fails_file() {
        let mut p = PluginProject::new("deep");
        let mut main = String::from("<?php include 'f0.php';");
        for i in 0..20 {
            p.push_file(SourceFile::new(
                format!("f{i}.php"),
                format!("<?php include 'f{}.php'; $x{i} = 1;", i + 1),
            ));
        }
        p.push_file(SourceFile::new("f20.php", "<?php echo $_GET['x'];"));
        main.push_str(" echo 'done';");
        p.push_file(SourceFile::new("main.php", &main));
        let o = PhpSafe::new().analyze(&p);
        assert!(
            o.files.iter().any(|f| f.failure.is_some()),
            "deep include chain must fail some entry file"
        );
    }

    #[test]
    fn work_limit_marks_file_failed_and_drops_its_vulns() {
        let mut body = String::from("<?php $t = $_GET['x'];\n");
        for i in 0..200 {
            body.push_str(&format!("$a{i} = $t . 'x'; echo $a{i};\n"));
        }
        let opts = AnalyzerOptions {
            work_limit: 50,
            ..AnalyzerOptions::default()
        };
        let o = PhpSafe::new().with_options(opts).analyze(&plugin(&body));
        assert_eq!(o.stats.files_failed, 1);
        assert!(o.vulns.is_empty(), "failed file contributes no findings");
    }

    #[test]
    fn oop_disabled_misses_encapsulated_vuln() {
        let src = "<?php
            $rows = $wpdb->get_results('SELECT * FROM t');
            foreach ($rows as $r) { echo $r->name; }";
        let with_oop = PhpSafe::new().analyze(&plugin(src));
        let without = PhpSafe::new()
            .with_options(AnalyzerOptions {
                oop: false,
                ..AnalyzerOptions::default()
            })
            .analyze(&plugin(src));
        assert_eq!(with_oop.vulns.len(), 1);
        assert!(without.vulns.is_empty(), "OOP-blind tools miss this");
    }

    #[test]
    fn reject_oop_files_front_end() {
        let o = PhpSafe::new()
            .with_options(AnalyzerOptions {
                reject_oop_files: true,
                ..AnalyzerOptions::default()
            })
            .analyze(&plugin("<?php class C {} echo $_GET['x'];"));
        assert_eq!(o.stats.files_failed, 1);
        assert!(o.vulns.is_empty());
    }

    #[test]
    fn register_globals_creates_request_taint() {
        let o = PhpSafe::new()
            .with_options(AnalyzerOptions {
                register_globals: true,
                ..AnalyzerOptions::default()
            })
            .analyze(&plugin("<?php echo $page_title;"));
        assert_eq!(o.vulns.len(), 1);
        assert_eq!(o.vulns[0].source_kind, SourceKind::Request);
    }

    #[test]
    fn duplicate_sink_reports_are_merged() {
        let o = analyze(
            "<?php
            function show() { echo $_GET['x']; }
            show();
            show();",
        );
        assert_eq!(o.vulns.len(), 1);
    }

    #[test]
    fn stats_are_populated() {
        let o = analyze(
            "<?php
            function a() {} function b() {} a();
            class K { function m() {} }",
        );
        assert_eq!(o.stats.functions, 3);
        assert_eq!(o.stats.classes, 1);
        assert!(o.stats.uncalled_functions >= 2); // b and K::m
        assert_eq!(o.stats.files_ok, 1);
        assert!(o.stats.work_units > 0);
    }

    #[test]
    fn file_source_taints() {
        let o = analyze("<?php $res = fgets($fp, 128); echo $res;");
        assert_eq!(o.vulns.len(), 1);
        assert_eq!(o.vulns[0].source_kind, SourceKind::File);
    }

    #[test]
    fn numeric_hint_recorded() {
        let o = analyze("<?php echo $_GET['page_id'];");
        assert_eq!(o.vulns.len(), 1);
        assert!(o.vulns[0].numeric_hint);
    }
}
