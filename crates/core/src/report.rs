//! Analysis results: vulnerabilities with data-flow traces, per-file
//! robustness records and aggregate statistics — phpSAFE's *results
//! processing* stage (§III.D).

use crate::taint::TraceStep;
use serde::Serialize;
use taint_config::{SourceKind, TaintLabels, VulnClass};

/// A reported vulnerability.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Vulnerability {
    /// Vulnerability class.
    pub class: VulnClass,
    /// File containing the sink.
    pub file: String,
    /// 1-based line of the sink.
    pub line: u32,
    /// Sink description (`echo`, `mysql_query`, `wpdb::query`, …).
    pub sink: String,
    /// Vulnerable variable/expression (best effort), e.g. `$_GET['id']`.
    pub var: String,
    /// The input vector the tainted data entered through (Table II).
    pub source_kind: SourceKind,
    /// Every input vector that contributed to this class's taint —
    /// `source_kind` is the highest-priority member of this set.
    pub labels: TaintLabels,
    /// The flow passed through a CMS framework object method (§V.A).
    pub via_oop: bool,
    /// The vulnerable variable appears to be numeric-intent (§V.C notes 39%
    /// of vulnerable variables are meant to store numbers).
    pub numeric_hint: bool,
    /// Data-flow trace from entry point to sink, oldest first.
    pub trace: Vec<TraceStep>,
}

impl Vulnerability {
    /// Deduplication key: a tool reporting the same class at the same sink
    /// twice counts once (the paper's expert merged duplicates).
    pub fn dedup_key(&self) -> (VulnClass, String, u32, String) {
        (self.class, self.file.clone(), self.line, self.sink.clone())
    }
}

/// Why a file could not be analyzed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum FileFailure {
    /// Resource limit exceeded (the paper: "required a lot of memory").
    ResourceLimit(String),
    /// Front-end rejected the file (Pixy on OOP constructs).
    Unsupported(String),
}

impl std::fmt::Display for FileFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileFailure::ResourceLimit(m) => write!(f, "resource limit: {m}"),
            FileFailure::Unsupported(m) => write!(f, "unsupported construct: {m}"),
        }
    }
}

/// Per-file analysis record (feeds the paper's robustness numbers).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FileReport {
    /// File path.
    pub path: String,
    /// Non-blank LOC.
    pub loc: usize,
    /// Number of recovered parse errors.
    pub parse_errors: usize,
    /// Failure, if the file could not be fully analyzed.
    pub failure: Option<FileFailure>,
}

/// Aggregate statistics for one plugin analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct AnalysisStats {
    /// Files analyzed to completion.
    pub files_ok: usize,
    /// Files that failed (robustness).
    pub files_failed: usize,
    /// Total LOC across files.
    pub loc: usize,
    /// User-defined functions discovered (including methods).
    pub functions: usize,
    /// Classes discovered.
    pub classes: usize,
    /// Functions never called from plugin code (analyzed anyway, §III.B).
    pub uncalled_functions: usize,
    /// Abstract work units spent (proxy for CPU/memory cost).
    pub work_units: u64,
}

/// The complete outcome of analyzing one plugin with one tool.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AnalysisOutcome {
    /// Tool that produced the outcome (`phpSAFE`, `RIPS`, `Pixy`).
    pub tool: String,
    /// Plugin analyzed.
    pub plugin: String,
    /// Deduplicated vulnerabilities.
    pub vulns: Vec<Vulnerability>,
    /// Per-file records.
    pub files: Vec<FileReport>,
    /// Aggregate statistics.
    pub stats: AnalysisStats,
}

impl AnalysisOutcome {
    /// Vulnerabilities of a given class.
    pub fn vulns_of(&self, class: VulnClass) -> impl Iterator<Item = &Vulnerability> {
        self.vulns.iter().filter(move |v| v.class == class)
    }

    /// Number of files that failed analysis.
    pub fn failed_files(&self) -> usize {
        self.files.iter().filter(|f| f.failure.is_some()).count()
    }

    /// Serializes the outcome as pretty JSON — the "normalized single
    /// repository" format the paper's methodology step 5 builds.
    ///
    /// # Errors
    ///
    /// Returns an error if serialization fails (it cannot for this type,
    /// but the signature follows `serde_json`).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Deduplicates vulnerabilities in place by [`Vulnerability::dedup_key`].
    pub fn dedup(&mut self) {
        let mut seen = std::collections::HashSet::new();
        self.vulns.retain(|v| seen.insert(v.dedup_key()));
    }
}

/// Heuristic from §V.C: does the variable name suggest numeric intent
/// (`$id`, `$count`, `$page_num`, …)? Such variables are easier to exploit
/// because numbers are not quoted in the generated markup/SQL.
pub fn numeric_intent(var: &str) -> bool {
    let v = var.to_ascii_lowercase();
    const HINTS: [&str; 12] = [
        "id", "count", "num", "page", "index", "idx", "offset", "limit", "size", "total", "qty",
        "year",
    ];
    HINTS.iter().any(|h| {
        v == format!("${h}")
            || v.ends_with(&format!("_{h}"))
            || v.ends_with(&format!("{h}']"))
            || v.contains(&format!("{h}_"))
            || v.contains(&format!("['{h}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vuln(class: VulnClass, file: &str, line: u32, sink: &str) -> Vulnerability {
        Vulnerability {
            class,
            file: file.into(),
            line,
            sink: sink.into(),
            var: "$x".into(),
            source_kind: SourceKind::Get,
            labels: TaintLabels::single(SourceKind::Get),
            via_oop: false,
            numeric_hint: false,
            trace: vec![],
        }
    }

    #[test]
    fn dedup_removes_same_sink_duplicates() {
        let mut o = AnalysisOutcome {
            tool: "t".into(),
            plugin: "p".into(),
            vulns: vec![
                vuln(VulnClass::Xss, "a.php", 3, "echo"),
                vuln(VulnClass::Xss, "a.php", 3, "echo"),
                vuln(VulnClass::Sqli, "a.php", 3, "echo"),
                vuln(VulnClass::Xss, "a.php", 4, "echo"),
            ],
            files: vec![],
            stats: AnalysisStats::default(),
        };
        o.dedup();
        assert_eq!(o.vulns.len(), 3);
    }

    #[test]
    fn vulns_of_filters_class() {
        let o = AnalysisOutcome {
            tool: "t".into(),
            plugin: "p".into(),
            vulns: vec![
                vuln(VulnClass::Xss, "a.php", 1, "echo"),
                vuln(VulnClass::Sqli, "a.php", 2, "mysql_query"),
            ],
            files: vec![],
            stats: AnalysisStats::default(),
        };
        assert_eq!(o.vulns_of(VulnClass::Xss).count(), 1);
        assert_eq!(o.vulns_of(VulnClass::Sqli).count(), 1);
    }

    #[test]
    fn to_json_writes_the_pinned_bytes() {
        let mut v = vuln(VulnClass::Xss, "a.php", 2, "echo");
        v.trace.push(TraceStep {
            file: "a.php".into(),
            line: 1,
            what: "$x <- $_GET[\"x\"]".into(),
        });
        let o = AnalysisOutcome {
            tool: "phpSAFE".into(),
            plugin: "demo".into(),
            vulns: vec![v],
            files: vec![FileReport {
                path: "a.php".into(),
                loc: 10,
                parse_errors: 1,
                failure: Some(FileFailure::Unsupported("closure\tuse".into())),
            }],
            stats: AnalysisStats::default(),
        };
        let want = r#"{
  "tool": "phpSAFE",
  "plugin": "demo",
  "vulns": [
    {
      "class": "Xss",
      "file": "a.php",
      "line": 2,
      "sink": "echo",
      "var": "$x",
      "source_kind": "Get",
      "labels": 1,
      "via_oop": false,
      "numeric_hint": false,
      "trace": [
        {
          "file": "a.php",
          "line": 1,
          "what": "$x <- $_GET[\"x\"]"
        }
      ]
    }
  ],
  "files": [
    {
      "path": "a.php",
      "loc": 10,
      "parse_errors": 1,
      "failure": {
        "Unsupported": "closure\tuse"
      }
    }
  ],
  "stats": {
    "files_ok": 0,
    "files_failed": 0,
    "loc": 0,
    "functions": 0,
    "classes": 0,
    "uncalled_functions": 0,
    "work_units": 0
  }
}"#;
        assert_eq!(o.to_json().unwrap(), want);
    }

    #[test]
    fn numeric_intent_heuristic() {
        assert!(numeric_intent("$id"));
        assert!(numeric_intent("$post_id"));
        assert!(numeric_intent("$_GET['page']"));
        assert!(numeric_intent("$count"));
        assert!(!numeric_intent("$name"));
        assert!(!numeric_intent("$message"));
    }

    #[test]
    fn failed_files_counted() {
        let o = AnalysisOutcome {
            tool: "Pixy".into(),
            plugin: "p".into(),
            vulns: vec![],
            files: vec![
                FileReport {
                    path: "ok.php".into(),
                    loc: 5,
                    parse_errors: 0,
                    failure: None,
                },
                FileReport {
                    path: "oop.php".into(),
                    loc: 50,
                    parse_errors: 0,
                    failure: Some(FileFailure::Unsupported("class".into())),
                },
            ],
            stats: AnalysisStats::default(),
        };
        assert_eq!(o.failed_files(), 1);
    }
}
