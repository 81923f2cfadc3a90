//! `--explain`: provenance chains behind reported vulnerabilities.
//!
//! A [`crate::Vulnerability`] carries the data-flow trace the interpreter
//! recorded (source → propagation → sink). A capturing run
//! ([`crate::PhpSafe::analyze_explained`]) additionally returns the
//! analysis's own [`TaintEvent`] stream, one event per transition, using
//! the *same wording* as the trace steps. [`explain_vuln`] joins the two:
//! every trace step is anchored to its event (kind label, stream
//! position), and sanitizer applications — which leave no trace step of
//! their own — are woven back in between the anchors they happened
//! between. The result is the full source → sanitizer → sink story of one
//! finding.

use crate::report::{AnalysisOutcome, Vulnerability};
use crate::taint::TraceStep;
use phpsafe_intern::Symbol;
use std::fmt::Write as _;

/// What happened to a taint mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintEventKind {
    /// Taint entered the program (superglobal read, source function, ...).
    Introduced,
    /// Taint flowed through an assignment, index, property or call.
    Propagated,
    /// A sanitizer cleared the taint for its vulnerability class.
    Sanitized,
    /// A revert function (e.g. `stripslashes`) restored cleared taint.
    Reverted,
    /// Tainted data reached a sink — a vulnerability is reported.
    SinkHit,
}

impl TaintEventKind {
    /// Short lowercase label used in `--explain` output.
    pub fn label(self) -> &'static str {
        match self {
            TaintEventKind::Introduced => "introduced",
            TaintEventKind::Propagated => "propagated",
            TaintEventKind::Sanitized => "sanitized",
            TaintEventKind::Reverted => "reverted",
            TaintEventKind::SinkHit => "sink-hit",
        }
    }
}

/// One taint transition of a capturing analysis. Its index in the stream
/// the analysis returns is its emission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintEvent {
    /// The kind of transition.
    pub kind: TaintEventKind,
    /// File the transition happened in.
    pub file: Symbol,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description; matches the wording of the data-flow
    /// trace steps so events and traces can be correlated.
    pub detail: String,
}

/// Infers a chain label for a trace step that no event anchors (the run
/// captured no events, or explains from the trace alone).
fn infer_label(step: &TraceStep) -> &'static str {
    if step.what.starts_with("source ")
        || step.what.starts_with("register_globals ")
        || step.what.ends_with("injected by extract()")
    {
        TaintEventKind::Introduced.label()
    } else if step.what.starts_with("revert ") {
        TaintEventKind::Reverted.label()
    } else {
        TaintEventKind::Propagated.label()
    }
}

/// Renders the provenance chain of one vulnerability.
///
/// `events` is the taint-event stream of the analysis that produced
/// `vuln` ([`crate::PhpSafe::analyze_explained`]); pass an empty slice to
/// explain from the trace alone. The chain always ends in the sink line,
/// and always states which sanitizers the flow passed — explicitly saying
/// so when there were none.
pub fn explain_vuln(vuln: &Vulnerability, events: &[TaintEvent]) -> String {
    // The `[slug ← labels]` tag names the class and every contributing
    // source vector. The paper's own two classes keep their original
    // header bytes; only the taxonomy's extension classes carry the tag.
    let tag = if vuln.class.in_paper() {
        String::new()
    } else {
        format!(" [{} ← {}]", vuln.class.slug(), vuln.labels)
    };
    let mut out = format!(
        "{} in {}:{} — `{}` reaches sink `{}` (source: {}){}\n",
        vuln.class, vuln.file, vuln.line, vuln.var, vuln.sink, vuln.source_kind, tag
    );

    // Anchor each trace step to the first event with identical position and
    // wording; anchored steps carry the event's kind and stream index.
    let anchor = |step: &TraceStep| {
        events
            .iter()
            .position(|e| e.file == step.file && e.line == step.line && e.detail == step.what)
    };
    let anchors: Vec<Option<usize>> = vuln.trace.iter().map(anchor).collect();

    // Sanitizer applications emit events but record no trace step — weave
    // the ones that happened between this chain's anchors back in by
    // stream index.
    let extra: Vec<usize> = match (
        anchors.iter().flatten().min(),
        anchors.iter().flatten().max(),
    ) {
        (Some(&lo), Some(&hi)) => (lo + 1..hi)
            .filter(|&i| events[i].kind == TaintEventKind::Sanitized && !anchors.contains(&Some(i)))
            .collect(),
        _ => Vec::new(),
    };
    let mut extra = extra.into_iter().peekable();

    let mut sanitizers: Vec<String> = Vec::new();
    let mut n = 0usize;
    let mut push_line = |out: &mut String, label: &str, file: &str, line: u32, what: &str| {
        n += 1;
        let _ = writeln!(out, "  {n}. {label:<10} {file}:{line}  {what}");
    };

    for (step, anchor) in vuln.trace.iter().zip(&anchors) {
        while let Some(ev) = extra.next_if(|&i| anchor.is_none_or(|a| i <= a)) {
            let ev = &events[ev];
            push_line(
                &mut out,
                ev.kind.label(),
                ev.file.as_str(),
                ev.line,
                &ev.detail,
            );
            sanitizers.push(ev.detail.clone());
        }
        let label = anchor.map_or(infer_label(step), |a| events[a].kind.label());
        if label == TaintEventKind::Reverted.label() {
            sanitizers.push(step.what.clone());
        }
        push_line(&mut out, label, step.file.as_str(), step.line, &step.what);
    }
    for ev in extra.map(|i| &events[i]) {
        push_line(
            &mut out,
            ev.kind.label(),
            ev.file.as_str(),
            ev.line,
            &ev.detail,
        );
        sanitizers.push(ev.detail.clone());
    }
    push_line(
        &mut out,
        TaintEventKind::SinkHit.label(),
        &vuln.file,
        vuln.line,
        &format!("{} reaches {}", vuln.var, vuln.sink),
    );

    if sanitizers.is_empty() {
        out.push_str("  sanitization: none — taint reached the sink unsanitized\n");
    } else {
        let _ = writeln!(out, "  sanitization: {}", sanitizers.join("; "));
    }
    out
}

/// Renders the provenance chains of every vulnerability in an outcome.
pub fn explain_outcome(outcome: &AnalysisOutcome, events: &[TaintEvent]) -> String {
    let mut out = format!(
        "explain: {} — {} vulnerabilit{}\n",
        outcome.plugin,
        outcome.vulns.len(),
        if outcome.vulns.len() == 1 { "y" } else { "ies" }
    );
    for v in &outcome.vulns {
        out.push('\n');
        out.push_str(&explain_vuln(v, events));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PhpSafe, PluginProject, SourceFile};

    fn analyze_with_events(file: &str, src: &str) -> (AnalysisOutcome, Vec<TaintEvent>) {
        let plugin = PluginProject::new("demo").with_file(SourceFile::new(file, src));
        PhpSafe::new().analyze_explained(&plugin, None)
    }

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(TaintEventKind::Introduced.label(), "introduced");
        assert_eq!(TaintEventKind::SinkHit.label(), "sink-hit");
        assert_eq!(TaintEventKind::Reverted.label(), "reverted");
    }

    #[test]
    fn chain_weaves_sanitizer_and_revert() {
        let (outcome, events) = analyze_with_events(
            "explain_revert_demo.php",
            "<?php
            $s = addslashes($_GET['s']);
            $raw = stripslashes($s);
            mysql_query(\"SELECT * FROM t WHERE s = '$raw'\");",
        );
        assert_eq!(outcome.vulns.len(), 1, "{:?}", outcome.vulns);
        let text = explain_vuln(&outcome.vulns[0], &events);
        assert!(text.contains("source $_GET"), "{text}");
        assert!(text.contains("sanitized by addslashes()"), "{text}");
        assert!(
            text.contains("revert stripslashes() restores taint"),
            "{text}"
        );
        assert!(text.contains("reaches mysql_query"), "{text}");
        let sanitized_at = text.find("sanitized by").unwrap();
        let reverted_at = text.find("revert stripslashes").unwrap();
        assert!(
            sanitized_at < reverted_at,
            "sanitizer must precede its revert:\n{text}"
        );
        assert!(text.contains("sanitization: sanitized by addslashes()"));
    }

    #[test]
    fn unsanitized_chain_says_so() {
        let (outcome, events) =
            analyze_with_events("explain_direct_demo.php", "<?php echo $_GET['name'];");
        assert_eq!(outcome.vulns.len(), 1);
        let text = explain_vuln(&outcome.vulns[0], &events);
        assert!(text.contains("introduced"), "{text}");
        assert!(text.contains("sink-hit"), "{text}");
        assert!(
            text.contains("sanitization: none — taint reached the sink unsanitized"),
            "{text}"
        );
    }

    #[test]
    fn explains_from_trace_alone_when_events_are_off() {
        let plugin = PluginProject::new("demo").with_file(SourceFile::new(
            "explain_noevents.php",
            "<?php $x = $_POST['m']; echo $x;",
        ));
        let outcome = PhpSafe::new().analyze(&plugin);
        assert_eq!(outcome.vulns.len(), 1);
        let text = explain_vuln(&outcome.vulns[0], &[]);
        assert!(text.contains("introduced"), "{text}");
        assert!(text.contains("source $_POST"), "{text}");
        assert!(text.contains("sink-hit"), "{text}");
    }

    #[test]
    fn extension_class_chain_carries_class_and_label_tag() {
        let (outcome, events) = analyze_with_events(
            "explain_cmdi_demo.php",
            "<?php $d = $_GET['d']; shell_exec('ls ' . $d);",
        );
        let v = outcome
            .vulns
            .iter()
            .find(|v| v.class == taint_config::VulnClass::CmdInjection)
            .expect("cmdi finding");
        let text = explain_vuln(v, &events);
        assert!(text.contains("[cmd-injection ← {GET}]"), "{text}");
    }

    #[test]
    fn paper_class_chain_header_is_unchanged() {
        let (outcome, events) =
            analyze_with_events("explain_notag.php", "<?php echo $_GET['name'];");
        let text = explain_vuln(&outcome.vulns[0], &events);
        let header = text.lines().next().unwrap();
        assert!(!header.contains('←'), "no tag on XSS chains: {header}");
        assert!(header.ends_with("(source: GET)"), "{header}");
    }

    #[test]
    fn outcome_rendering_counts_vulns() {
        let plugin = PluginProject::new("demo").with_file(SourceFile::new(
            "explain_outcome.php",
            "<?php echo $_GET['a'];\necho $_POST['b'];",
        ));
        let outcome = PhpSafe::new().analyze(&plugin);
        let text = explain_outcome(&outcome, &[]);
        assert!(text.contains("2 vulnerabilities"), "{text}");
        assert_eq!(text.matches("sink-hit").count(), 2);
    }
}
