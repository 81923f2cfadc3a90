//! Corpus specification types: the pattern taxonomy the generator plants,
//! plugin specs, and ground-truth records.
//!
//! Every generated vulnerability (and every false-positive bait) comes from
//! a *pattern* with a known capability profile — which of the three tools
//! can see it and why. The catalog distributes pattern counts over 35
//! plugins × 2 versions so the corpus-wide aggregates reproduce the shape
//! of the paper's evaluation.

use serde::Serialize;
use std::fmt;
use taint_config::{SourceKind, VectorClass, VulnClass};

/// Plugin snapshot version, mirroring the paper's two data points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum Version {
    /// The 2012 snapshot (analyzed and disclosed in 2013).
    V2012,
    /// The 2014 snapshot.
    V2014,
}

impl Version {
    /// Both versions in chronological order.
    pub const ALL: [Version; 2] = [Version::V2012, Version::V2014];

    /// Table-header label.
    pub fn label(self) -> &'static str {
        match self {
            Version::V2012 => "V. 2012",
            Version::V2014 => "V. 2014",
        }
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Where a snippet is planted inside a plugin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Top-level statements of a file (the "main flow").
    TopLevel,
    /// Inside a free function that is never called (a hook handler).
    FreeFn,
    /// Inside a class method (encapsulated — invisible to OOP-blind tools).
    Method,
}

/// The generative pattern taxonomy.
///
/// `Xss*`/`Sqli*` patterns are ground-truth **positives**; `Fp*` patterns
/// are **negatives** crafted to trip specific tool weaknesses; `Safe*` is
/// inert filler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// `echo $_GET[...]` (vector per [`SourceKind`]) at the given placement.
    XssEchoDirect(SourceKind, Placement),
    /// Echo of an uninitialized global — exploitable only under
    /// `register_globals = 1` (2012-era code). Only Pixy models it.
    XssRegisterGlobals,
    /// The §III.E pattern: `$wpdb->get_results(...)` rows echoed without
    /// sanitization, inside a class method. OOP + DB vector; phpSAFE-only.
    XssWpdbOop,
    /// Same wpdb flow but in top-level code (still an OOP method call).
    XssWpdbTop,
    /// `$wpdb->query("... $tainted")` — SQL injection through the
    /// WordPress database object; phpSAFE-only.
    SqliWpdb(Placement),
    /// Legacy `mysql_query` + `mysql_fetch_assoc` row echoed (DB vector,
    /// procedural — visible to every tool that reaches the code).
    XssDbLegacy(Placement),
    /// `get_option(...)` (DB-backed) echoed — needs the WordPress profile.
    XssDbOption(Placement),
    /// `fgets`/`file_get_contents` echoed (File vector; qtranslate-style).
    XssFileSource(Placement),
    /// `getenv`/header value echoed (Function vector).
    XssFunctionSource(Placement),
    /// Tainted variable set in one file, echoed in an `include`d file —
    /// requires include resolution (phpSAFE-only).
    XssIncludeSplit,
    /// `shell_exec('cmd ' . $v)` with `$v` from the given vector —
    /// command injection (taxonomy extension class).
    CmdiShellExec(SourceKind, Placement),
    /// `shell_exec` on an `esc_html()`-wrapped value — still vulnerable:
    /// HTML encoding is inert in a shell context, so the command-injection
    /// label survives the XSS-only sanitizer.
    CmdiXssSanitized,
    /// `readfile('uploads/' . $v)` — path traversal through a filesystem
    /// sink (taxonomy extension class).
    PathTravReadfile(SourceKind, Placement),
    /// `wp_redirect($v)` — open redirect (taxonomy extension class).
    SsrfRedirect(SourceKind),
    /// `wp_remote_get('https://...' . $v)` — server-side request forgery
    /// through an HTTP fetch (taxonomy extension class).
    SsrfFetch(Placement),
    /// NEGATIVE: `echo esc_html($_GET[...])` — safe, but tools without the
    /// WordPress profile (RIPS, Pixy) report it.
    FpEscapedWp(Placement),
    /// NEGATIVE: value guarded by `is_numeric(...) or die()` then echoed —
    /// path-insensitive tools (all three) report it.
    FpGuardedEcho(Placement),
    /// NEGATIVE: value passed through a custom `preg_replace` whitelist
    /// cleaner — semantic sanitization no tool models.
    FpCustomClean(Placement),
    /// NEGATIVE: template-style echo of a variable assigned by the CMS at
    /// runtime — only `register_globals` modeling (Pixy) fires.
    FpUndefinedEcho,
    /// NEGATIVE: `$wpdb->query` on an `is_numeric`-guarded value — phpSAFE's
    /// SQLi false positives.
    FpSqliGuarded,
    /// NEGATIVE: legacy `mysql_query` on `absint(...)`-sanitized input in a
    /// file that also uses OOP — RIPS (no WP profile) reports it; Pixy
    /// rejects the file.
    FpSqliLegacyWp,
    /// NEGATIVE: `shell_exec` on `escapeshellarg(...)` output — the
    /// class-specific sanitizer clears the shell label.
    FpCmdiEscaped,
    /// NEGATIVE: `readfile` on `basename(...)` output — path
    /// canonicalization clears the traversal label.
    FpPathBasename,
    /// NEGATIVE: `wp_redirect` on `esc_url_raw(...)` output — URL
    /// validation clears the redirect/SSRF label.
    FpSsrfEscUrl,
    /// Inert: properly sanitized output with PHP built-ins.
    SafeSanitized,
}

impl Pattern {
    /// Ground-truth classification: `Some((class, vector, oop))` for real
    /// vulnerabilities, `None` for negatives/filler.
    pub fn truth(&self) -> Option<(VulnClass, SourceKind, bool)> {
        use Pattern::*;
        match self {
            XssEchoDirect(kind, _) => Some((VulnClass::Xss, *kind, false)),
            XssRegisterGlobals => Some((VulnClass::Xss, SourceKind::Request, false)),
            XssWpdbOop | XssWpdbTop => Some((VulnClass::Xss, SourceKind::Database, true)),
            SqliWpdb(_) => Some((VulnClass::Sqli, SourceKind::Get, true)),
            XssDbLegacy(_) => Some((VulnClass::Xss, SourceKind::Database, false)),
            XssDbOption(_) => Some((VulnClass::Xss, SourceKind::Database, false)),
            XssFileSource(_) => Some((VulnClass::Xss, SourceKind::File, false)),
            XssFunctionSource(_) => Some((VulnClass::Xss, SourceKind::Function, false)),
            XssIncludeSplit => Some((VulnClass::Xss, SourceKind::Get, false)),
            CmdiShellExec(kind, _) => Some((VulnClass::CmdInjection, *kind, false)),
            CmdiXssSanitized => Some((VulnClass::CmdInjection, SourceKind::Get, false)),
            PathTravReadfile(kind, _) => Some((VulnClass::PathTraversal, *kind, false)),
            SsrfRedirect(kind) => Some((VulnClass::Ssrf, *kind, false)),
            SsrfFetch(_) => Some((VulnClass::Ssrf, SourceKind::Get, false)),
            FpEscapedWp(_) | FpGuardedEcho(_) | FpCustomClean(_) | FpUndefinedEcho
            | FpSqliGuarded | FpSqliLegacyWp | FpCmdiEscaped | FpPathBasename | FpSsrfEscUrl
            | SafeSanitized => None,
        }
    }

    /// Whether the emitted snippet contains OOP constructs (drives Pixy's
    /// file rejection).
    pub fn emits_oop_syntax(&self) -> bool {
        use Pattern::*;
        matches!(
            self,
            XssWpdbOop
                | XssWpdbTop
                | SqliWpdb(_)
                | FpSqliGuarded
                | FpSqliLegacyWp
                | XssEchoDirect(_, Placement::Method)
                | XssDbLegacy(Placement::Method)
                | XssDbOption(Placement::Method)
                | XssFileSource(Placement::Method)
                | XssFunctionSource(Placement::Method)
                | FpEscapedWp(Placement::Method)
                | FpGuardedEcho(Placement::Method)
                | FpCustomClean(Placement::Method)
                | CmdiShellExec(_, Placement::Method)
                | PathTravReadfile(_, Placement::Method)
        )
    }
}

/// How many instances of a pattern a plugin carries in each version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternCount {
    /// The pattern.
    pub pattern: Pattern,
    /// Instances in the 2012 snapshot.
    pub n2012: u32,
    /// Instances in the 2014 snapshot.
    pub n2014: u32,
    /// How many 2014 instances are carried over (unfixed) from 2012.
    /// Invariant: `carried <= min(n2012, n2014)`.
    pub carried: u32,
}

impl PatternCount {
    /// A pattern with explicit counts; `carried` is clamped to the valid
    /// range.
    pub fn new(pattern: Pattern, n2012: u32, n2014: u32, carried: u32) -> Self {
        PatternCount {
            pattern,
            n2012,
            n2014,
            carried: carried.min(n2012).min(n2014),
        }
    }

    /// Count for a version.
    pub fn for_version(&self, v: Version) -> u32 {
        match v {
            Version::V2012 => self.n2012,
            Version::V2014 => self.n2014,
        }
    }
}

/// Coding style of a plugin (19 of the paper's 35 are OOP).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Style {
    /// Classes + methods; hook handlers are methods.
    Oop,
    /// Free functions and top-level code.
    Procedural,
}

/// Specification of one synthetic plugin.
#[derive(Debug, Clone, PartialEq)]
pub struct PluginSpec {
    /// Plugin slug, e.g. `wp-symposium`.
    pub name: String,
    /// Coding style.
    pub style: Style,
    /// Pattern plan.
    pub patterns: Vec<PatternCount>,
    /// Contains the include-chain "monster" files: `(depth_2012,
    /// depth_2014)` — 0 disables. Deep chains blow phpSAFE's include
    /// budget on the leading chain files.
    pub monster_depth: (u32, u32),
    /// Vulnerable legacy-DB echoes planted in the first three chain files
    /// (per version) — only reachable by per-file tools when phpSAFE's
    /// entry pass fails.
    pub monster_vulns: (u32, u32),
    /// The 2014 version sprinkles OOP constructs into previously clean
    /// files (the ecosystem's drift that starves Pixy).
    pub oopify_2014: bool,
    /// The 2014 version registers hooks with closures (Pixy-era parser
    /// errors).
    pub closures_2014: bool,
    /// Filler functions per version (drives LOC).
    pub noise: (u32, u32),
}

/// A ground-truth vulnerability record, the oracle the paper's "manual
/// verification by a security expert" plays.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GroundTruthEntry {
    /// Stable id; carried vulnerabilities keep the same id across versions.
    pub id: String,
    /// Plugin slug.
    pub plugin: String,
    /// Snapshot version.
    pub version: Version,
    /// Vulnerability class.
    pub class: VulnClass,
    /// Input vector.
    pub vector: SourceKind,
    /// File containing the sink.
    pub file: String,
    /// 1-based sink line.
    pub line: u32,
    /// The flow passes a CMS object method (§V.A OOP vulnerabilities).
    pub oop: bool,
    /// Present in both snapshots (2014 entries only; §V.D inertia).
    pub carried: bool,
    /// The vulnerable variable is numeric-intent (§V.C).
    pub numeric: bool,
}

impl GroundTruthEntry {
    /// Table II row for this entry.
    pub fn vector_class(&self) -> VectorClass {
        self.vector.vector_class()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taint_config::SourceKind as SK;

    #[test]
    fn pattern_truth_classification() {
        assert_eq!(
            Pattern::XssEchoDirect(SK::Get, Placement::TopLevel).truth(),
            Some((VulnClass::Xss, SK::Get, false))
        );
        assert_eq!(
            Pattern::XssWpdbOop.truth(),
            Some((VulnClass::Xss, SK::Database, true))
        );
        assert_eq!(
            Pattern::SqliWpdb(Placement::Method).truth().map(|t| t.0),
            Some(VulnClass::Sqli)
        );
        assert_eq!(Pattern::FpEscapedWp(Placement::TopLevel).truth(), None);
        assert_eq!(Pattern::SafeSanitized.truth(), None);
    }

    #[test]
    fn taxonomy_pattern_truth_classification() {
        assert_eq!(
            Pattern::CmdiShellExec(SK::Post, Placement::TopLevel).truth(),
            Some((VulnClass::CmdInjection, SK::Post, false))
        );
        assert_eq!(
            Pattern::CmdiXssSanitized.truth(),
            Some((VulnClass::CmdInjection, SK::Get, false))
        );
        assert_eq!(
            Pattern::PathTravReadfile(SK::Get, Placement::Method).truth(),
            Some((VulnClass::PathTraversal, SK::Get, false))
        );
        assert_eq!(
            Pattern::SsrfRedirect(SK::Request).truth(),
            Some((VulnClass::Ssrf, SK::Request, false))
        );
        assert_eq!(
            Pattern::SsrfFetch(Placement::FreeFn).truth(),
            Some((VulnClass::Ssrf, SK::Get, false))
        );
        assert_eq!(Pattern::FpCmdiEscaped.truth(), None);
        assert_eq!(Pattern::FpPathBasename.truth(), None);
        assert_eq!(Pattern::FpSsrfEscUrl.truth(), None);
        assert!(Pattern::CmdiShellExec(SK::Get, Placement::Method).emits_oop_syntax());
        assert!(!Pattern::SsrfRedirect(SK::Get).emits_oop_syntax());
    }

    #[test]
    fn oop_syntax_classification() {
        assert!(Pattern::XssWpdbOop.emits_oop_syntax());
        assert!(Pattern::XssEchoDirect(SK::Get, Placement::Method).emits_oop_syntax());
        assert!(!Pattern::XssEchoDirect(SK::Get, Placement::TopLevel).emits_oop_syntax());
        assert!(!Pattern::XssRegisterGlobals.emits_oop_syntax());
    }

    #[test]
    fn carried_is_clamped() {
        let pc = PatternCount::new(Pattern::XssRegisterGlobals, 3, 10, 8);
        assert_eq!(pc.carried, 3);
        let pc = PatternCount::new(Pattern::XssRegisterGlobals, 10, 3, 8);
        assert_eq!(pc.carried, 3);
        assert_eq!(pc.for_version(Version::V2012), 10);
        assert_eq!(pc.for_version(Version::V2014), 3);
    }
}
