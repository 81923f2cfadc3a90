//! A capability-faithful reimplementation of **RIPS** (Dahse & Holz,
//! NDSS'14) as described and measured by the phpSAFE paper:
//!
//! * AST-based, intra- and inter-procedural taint analysis with a rich
//!   model of PHP built-in functions — shared with our engine;
//! * analyzes every file of the plugin **one file at a time through its web
//!   interface** (the paper's methodology step 4), so it does *not* splice
//!   `include`s — which is also why it never blows up on include-heavy
//!   files and "succeeded in completing the analysis of all files";
//! * **does not parse PHP objects** (§II): method calls are opaque,
//!   property flows are invisible — it "misses encapsulated vulnerabilities
//!   in modern OOP based web applications and plugins";
//! * knows nothing about the WordPress API: `esc_html`/`$wpdb` are just
//!   unknown identifiers, causing both false positives (unknown sanitizers)
//!   and false negatives (unseen sources/sinks);
//! * does analyze functions that are never called (the paper observes both
//!   phpSAFE and RIPS do).

use crate::tool::AnalysisTool;
use phpsafe::{AnalysisOutcome, AnalyzerOptions, PhpSafe, PluginProject};
use taint_config::generic_php;

/// The RIPS-like baseline analyzer.
#[derive(Debug, Clone)]
pub struct Rips {
    engine: PhpSafe,
}

impl Default for Rips {
    fn default() -> Self {
        Self::new()
    }
}

impl Rips {
    /// Builds RIPS with its documented capability set.
    pub fn new() -> Self {
        let options = AnalyzerOptions {
            oop: false,
            resolve_includes: false,
            analyze_uncalled: true,
            register_globals: false,
            reject_oop_files: false,
            reject_closures: false,
            summaries: true,
            max_include_depth: 0,
            // RIPS finished every file in the paper's runs.
            work_limit: 50_000_000,
            trace_limit: 12,
        };
        Rips {
            engine: PhpSafe::new()
                .with_tool_name("RIPS")
                .with_config(generic_php())
                .with_options(options),
        }
    }

    /// Access to the underlying engine (for ablation benches).
    pub fn engine(&self) -> &PhpSafe {
        &self.engine
    }
}

impl AnalysisTool for Rips {
    fn name(&self) -> &str {
        "RIPS"
    }

    fn analyze(&self, project: &PluginProject) -> AnalysisOutcome {
        self.engine.analyze(project)
    }

    fn analyze_cached(
        &self,
        project: &PluginProject,
        caches: &phpsafe::EngineCaches,
    ) -> AnalysisOutcome {
        self.engine.analyze_with_caches(project, Some(caches))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phpsafe::SourceFile;
    use taint_config::VulnClass;

    fn plugin(src: &str) -> PluginProject {
        PluginProject::new("t").with_file(SourceFile::new("t.php", src))
    }

    #[test]
    fn finds_plain_php_xss() {
        let o = Rips::new().analyze(&plugin("<?php echo $_GET['q'];"));
        assert_eq!(o.vulns.len(), 1);
        assert_eq!(o.tool, "RIPS");
    }

    #[test]
    fn respects_php_builtin_sanitizers() {
        let o = Rips::new().analyze(&plugin("<?php echo htmlentities($_GET['q']);"));
        assert!(o.vulns.is_empty());
    }

    #[test]
    fn misses_wpdb_oop_source() {
        // The paper's key observation: RIPS finds none of the WordPress
        // object vulnerabilities.
        let o = Rips::new().analyze(&plugin(
            "<?php
            $rows = $wpdb->get_results('SELECT * FROM t');
            foreach ($rows as $r) { echo $r->name; }",
        ));
        assert!(o.vulns.is_empty(), "{:?}", o.vulns);
    }

    #[test]
    fn misses_wpdb_sqli_sink() {
        let o = Rips::new().analyze(&plugin(
            "<?php $t = $_GET['t']; $wpdb->query(\"DELETE FROM x WHERE t='$t'\");",
        ));
        assert!(o.vulns.is_empty());
    }

    #[test]
    fn unknown_wp_sanitizer_causes_false_positive() {
        // esc_html is unknown to RIPS → taint propagates → FP.
        let o = Rips::new().analyze(&plugin("<?php echo esc_html($_GET['q']);"));
        assert_eq!(o.vulns.len(), 1, "RIPS reports the escaped echo");
        assert_eq!(o.vulns[0].class, VulnClass::Xss);
    }

    #[test]
    fn no_include_resolution() {
        let p = PluginProject::new("multi")
            .with_file(SourceFile::new(
                "main.php",
                "<?php $v = $_GET['v']; include 'show.php';",
            ))
            .with_file(SourceFile::new("show.php", "<?php echo $v;"));
        let o = Rips::new().analyze(&p);
        assert!(
            o.vulns.is_empty(),
            "per-file analysis cannot connect the files: {:?}",
            o.vulns
        );
    }

    #[test]
    fn analyzes_uncalled_functions() {
        let o = Rips::new().analyze(&plugin("<?php function handler() { echo $_POST['x']; }"));
        assert_eq!(o.vulns.len(), 1);
    }

    #[test]
    fn completes_include_heavy_files_phpsafe_fails() {
        let mut p = PluginProject::new("deep");
        for i in 0..20 {
            p.push_file(SourceFile::new(
                format!("f{i}.php"),
                format!("<?php include 'f{}.php';", i + 1),
            ));
        }
        p.push_file(SourceFile::new("f20.php", "<?php echo 1;"));
        let o = Rips::new().analyze(&p);
        assert_eq!(o.stats.files_failed, 0, "RIPS completes all files");
    }
}
