//! A capability-faithful reimplementation of **Pixy** (Jovanovic, Kruegel &
//! Kirda, S&P 2006) as described and measured by the phpSAFE paper:
//!
//! * flow-sensitive, inter-procedural, context-sensitive taint analysis for
//!   XSS and SQLi — shared with our engine;
//! * **cannot parse OOP**: files containing classes, objects or method
//!   calls fail outright (the paper counts 32 failed files), and post-2007
//!   syntax such as closures raises parser errors (1 error in the 2012
//!   runs, 37 in 2014);
//! * models the legacy `register_globals = 1` directive — "half of the
//!   vulnerabilities it found were due to this directive" (§V.A) — which on
//!   modern, safely-configured deployments shows up mostly as noise;
//! * does **not** analyze functions that are never called from the code
//!   (§V.A: "Pixy is unable to do so");
//! * unmaintained since 2007: its function model predates `mysqli_*`,
//!   `filter_var` and the whole WordPress API.

use crate::tool::AnalysisTool;
use phpsafe::{AnalysisOutcome, AnalyzerOptions, PhpSafe, PluginProject};
use taint_config::{
    FuncName, RevertSpec, SanitizerSpec, SinkSpec, SourceKind, SourceSpec, TaintConfig, VulnClass,
};

/// Builds Pixy's 2007-era configuration: classic superglobals and `mysql_*`
/// functions only — no `mysqli`, no WordPress.
pub fn pixy_config() -> TaintConfig {
    let mut c = TaintConfig::empty("pixy-2007");
    for (var, kind) in [
        ("$_GET", SourceKind::Get),
        ("$_POST", SourceKind::Post),
        ("$_COOKIE", SourceKind::Cookie),
        ("$_REQUEST", SourceKind::Request),
        ("$_SERVER", SourceKind::Server),
        ("$HTTP_GET_VARS", SourceKind::Get),
        ("$HTTP_POST_VARS", SourceKind::Post),
        ("$HTTP_COOKIE_VARS", SourceKind::Cookie),
    ] {
        c.add_source(SourceSpec::Superglobal {
            var: var.into(),
            kind,
        });
    }
    for f in ["fgets", "fread", "file", "file_get_contents"] {
        c.add_source(SourceSpec::Callable {
            name: FuncName::function(f),
            kind: SourceKind::File,
        });
    }
    for f in [
        "mysql_fetch_array",
        "mysql_fetch_assoc",
        "mysql_fetch_row",
        "mysql_result",
    ] {
        c.add_source(SourceSpec::Callable {
            name: FuncName::function(f),
            kind: SourceKind::Database,
        });
    }
    for f in ["htmlentities", "htmlspecialchars", "strip_tags"] {
        c.add_sanitizer(SanitizerSpec {
            name: FuncName::function(f),
            protects: vec![VulnClass::Xss],
        });
    }
    for f in ["intval", "floatval", "count", "md5", "urlencode"] {
        c.add_sanitizer(SanitizerSpec {
            name: FuncName::function(f),
            protects: vec![VulnClass::Xss, VulnClass::Sqli],
        });
    }
    for f in [
        "addslashes",
        "mysql_escape_string",
        "mysql_real_escape_string",
    ] {
        c.add_sanitizer(SanitizerSpec {
            name: FuncName::function(f),
            protects: vec![VulnClass::Sqli],
        });
    }
    for f in ["stripslashes", "urldecode", "html_entity_decode"] {
        c.add_revert(RevertSpec {
            name: FuncName::function(f),
        });
    }
    for f in ["printf", "print_r"] {
        c.add_sink(SinkSpec {
            name: FuncName::function(f),
            class: VulnClass::Xss,
            args: None,
        });
    }
    for f in ["mysql_query", "mysql_db_query"] {
        c.add_sink(SinkSpec {
            name: FuncName::function(f),
            class: VulnClass::Sqli,
            args: Some(vec![0, 1]),
        });
    }
    c
}

/// The Pixy-like baseline analyzer.
#[derive(Debug, Clone)]
pub struct Pixy {
    engine: PhpSafe,
}

impl Default for Pixy {
    fn default() -> Self {
        Self::new()
    }
}

impl Pixy {
    /// Builds Pixy with its documented capability set (including the `-A`
    /// alias-analysis flag behaviour the paper enabled, which our engine's
    /// reference assignments cover).
    pub fn new() -> Self {
        let options = AnalyzerOptions {
            oop: false,
            resolve_includes: false,
            analyze_uncalled: false,
            register_globals: true,
            reject_oop_files: true,
            reject_closures: true,
            summaries: true,
            max_include_depth: 0,
            work_limit: 10_000_000,
            trace_limit: 12,
        };
        Pixy {
            engine: PhpSafe::new()
                .with_tool_name("Pixy")
                .with_config(pixy_config())
                .with_options(options),
        }
    }

    /// Access to the underlying engine (for ablation benches).
    pub fn engine(&self) -> &PhpSafe {
        &self.engine
    }
}

impl AnalysisTool for Pixy {
    fn name(&self) -> &str {
        "Pixy"
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
    use taint_config::SourceKind;

    fn plugin(src: &str) -> PluginProject {
        PluginProject::new("t").with_file(SourceFile::new("t.php", src))
    }

    #[test]
    fn finds_classic_procedural_xss() {
        let o = Pixy::new().analyze(&plugin("<?php echo $_GET['q'];"));
        assert_eq!(o.vulns.len(), 1);
        assert_eq!(o.tool, "Pixy");
    }

    #[test]
    fn fails_files_with_oop() {
        let o = Pixy::new().analyze(&plugin("<?php class C { } echo $_GET['q'];"));
        assert_eq!(o.stats.files_failed, 1);
        assert!(o.vulns.is_empty(), "rejected file yields nothing");
    }

    #[test]
    fn fails_files_with_method_calls_even_without_classes() {
        let o = Pixy::new().analyze(&plugin(
            "<?php $r = $wpdb->get_results('x'); echo $_GET['q'];",
        ));
        assert_eq!(o.stats.files_failed, 1);
    }

    #[test]
    fn fails_files_with_closures() {
        let o = Pixy::new().analyze(&plugin(
            "<?php add_action('init', function () { echo 1; }); echo $_GET['q'];",
        ));
        assert_eq!(o.stats.files_failed, 1);
    }

    #[test]
    fn register_globals_noise() {
        // Undefined globals are treated as attacker-controlled — the
        // behaviour that dominates Pixy's reports on modern code.
        let o = Pixy::new().analyze(&plugin("<?php echo $theme_header;"));
        assert_eq!(o.vulns.len(), 1);
        assert_eq!(o.vulns[0].source_kind, SourceKind::Request);
    }

    #[test]
    fn does_not_analyze_uncalled_functions() {
        let o = Pixy::new().analyze(&plugin("<?php function handler() { echo $_POST['x']; }"));
        assert!(o.vulns.is_empty(), "{:?}", o.vulns);
    }

    #[test]
    fn era_gap_mysqli_unknown() {
        // mysqli escaping is unknown to a 2007 tool → false positive.
        let o = Pixy::new().analyze(&plugin(
            "<?php $q = mysqli_real_escape_string($l, $_GET['q']);
             mysql_query(\"SELECT '$q'\");",
        ));
        assert_eq!(o.vulns.len(), 1, "{:?}", o.vulns);
    }

    #[test]
    fn knows_classic_sanitizers() {
        let o = Pixy::new().analyze(&plugin("<?php echo htmlentities($_GET['q']);"));
        assert!(o.vulns.is_empty());
    }
}
