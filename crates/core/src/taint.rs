//! The taint lattice and per-variable analysis state — the Rust shape of
//! phpSAFE's `parser_variables` entries (§III.C): taint per vulnerability
//! class, the source the data came from, sanitization history (so revert
//! functions can restore it), the object class a variable holds, and the
//! data-flow trace back to the entry point.

use phpsafe_intern::Symbol;
use serde::Serialize;
use taint_config::{SourceKind, TaintLabels, VulnClass};

/// Taint state of a value: for each vulnerability class, the *set* of input
/// vectors the data flowed from ([`TaintLabels`]). `oop` records whether the
/// flow passed through a CMS object method (the paper's §V.A "OOP
/// vulnerabilities" count).
///
/// The former representation kept one `Option<SourceKind>` per class,
/// resolving joins eagerly by vector priority. Labels defer that choice:
/// joins union the sets, and [`Taint::kind_for`] recovers the identical
/// priority winner ([`TaintLabels::primary`] — min over a union equals the
/// iterated pairwise min), while the full set rides along for Table II and
/// the `--explain` provenance tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Taint {
    /// Per-class label sets, indexed by [`VulnClass::index`].
    pub labels: [TaintLabels; VulnClass::COUNT],
    /// The flow passed through a CMS framework object method.
    pub oop: bool,
}

impl Taint {
    /// The bottom element: fully untainted.
    pub const CLEAN: Taint = Taint {
        labels: [TaintLabels::EMPTY; VulnClass::COUNT],
        oop: false,
    };

    /// A value tainted for every class from vector `kind`.
    pub fn from_source(kind: SourceKind) -> Taint {
        Taint {
            labels: [TaintLabels::single(kind); VulnClass::COUNT],
            oop: false,
        }
    }

    /// Same as [`Taint::from_source`] but flagged as flowing through a CMS
    /// object method.
    pub fn from_oop_source(kind: SourceKind) -> Taint {
        Taint {
            oop: true,
            ..Taint::from_source(kind)
        }
    }

    /// Is the value dangerous for `class`?
    pub fn is_tainted(&self, class: VulnClass) -> bool {
        !self.labels[class.index()].is_empty()
    }

    /// Is the value dangerous for any class?
    pub fn any(&self) -> bool {
        self.labels.iter().any(|l| !l.is_empty())
    }

    /// The originating vector for `class`, if tainted: the highest-priority
    /// member of the class's label set.
    pub fn kind_for(&self, class: VulnClass) -> Option<SourceKind> {
        self.labels[class.index()].primary()
    }

    /// The full label set for `class` (every vector that reached the value).
    pub fn labels_for(&self, class: VulnClass) -> TaintLabels {
        self.labels[class.index()]
    }

    /// Least upper bound: per-class label-set union.
    pub fn join(self, other: Taint) -> Taint {
        let mut labels = self.labels;
        for (l, o) in labels.iter_mut().zip(other.labels) {
            *l = l.union(o);
        }
        Taint {
            labels,
            oop: self.oop || other.oop,
        }
    }

    /// Removes taint for the given classes (sanitization), returning the new
    /// taint and what was removed (so a revert can restore it).
    pub fn sanitize(self, classes: &[VulnClass]) -> (Taint, Taint) {
        let mut kept = self;
        let mut removed = Taint::CLEAN;
        for &c in classes {
            let i = c.index();
            removed.labels[i] = removed.labels[i].union(kept.labels[i]);
            kept.labels[i] = TaintLabels::EMPTY;
        }
        removed.oop = self.oop && removed.any();
        (kept, removed)
    }

    /// Marks the taint as having flowed through a CMS object method.
    pub fn with_oop(mut self) -> Taint {
        self.oop = true;
        self
    }
}

/// One step of a data-flow trace (the paper's "flow of the vulnerable data
/// from variable to variable").
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TraceStep {
    /// File path (interned; serializes as a plain string).
    pub file: Symbol,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description, e.g. `$id <- $_GET['id']`.
    pub what: String,
}

/// Full analysis state of one variable/property — a `parser_variables` row.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VarState {
    /// Current taint.
    pub taint: Taint,
    /// Taint removed by sanitizers (restorable by revert functions).
    pub sanitized_from: Taint,
    /// Class of the object this variable holds, lowercase, if known
    /// (`$wpdb` holds a `wpdb`).
    pub object_class: Option<Symbol>,
    /// Data-flow history, oldest first, capped by the analyzer.
    pub trace: Vec<TraceStep>,
}

impl VarState {
    /// A clean, classless value.
    pub fn clean() -> VarState {
        VarState::default()
    }

    /// A tainted value with a one-step trace.
    pub fn tainted(taint: Taint, step: TraceStep) -> VarState {
        VarState {
            taint,
            sanitized_from: Taint::CLEAN,
            object_class: None,
            trace: vec![step],
        }
    }

    /// Joins two states (used at data-flow merges), capping the trace.
    pub fn join(mut self, other: &VarState, trace_limit: usize) -> VarState {
        self.taint = self.taint.join(other.taint);
        self.sanitized_from = self.sanitized_from.join(other.sanitized_from);
        if self.object_class.is_none() {
            self.object_class = other.object_class;
        }
        // Prefer the trace of the tainted side; otherwise merge and cap.
        if self.trace.is_empty() {
            self.trace = other.trace.clone();
        } else if other.taint.any() && !other.trace.is_empty() && self.trace.len() < trace_limit {
            for s in &other.trace {
                if self.trace.len() >= trace_limit {
                    break;
                }
                if !self.trace.contains(s) {
                    self.trace.push(s.clone());
                }
            }
        }
        self.trace.truncate(trace_limit);
        self
    }

    /// Appends a trace step, respecting the cap.
    pub fn push_trace(&mut self, step: TraceStep, trace_limit: usize) {
        if self.trace.len() < trace_limit {
            self.trace.push(step);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_is_bottom() {
        assert!(!Taint::CLEAN.any());
        let t = Taint::from_source(SourceKind::Get);
        assert_eq!(Taint::CLEAN.join(t), t);
        assert_eq!(t.join(Taint::CLEAN), t);
    }

    #[test]
    fn join_prefers_direct_vectors() {
        let db = Taint::from_source(SourceKind::Database);
        let get = Taint::from_source(SourceKind::Get);
        assert_eq!(db.join(get).kind_for(VulnClass::Xss), Some(SourceKind::Get));
        assert_eq!(get.join(db).kind_for(VulnClass::Xss), Some(SourceKind::Get));
        // ... but both labels survive the join.
        let labels = db.join(get).labels_for(VulnClass::Xss);
        assert!(labels.contains(SourceKind::Get) && labels.contains(SourceKind::Database));
    }

    #[test]
    fn join_laws() {
        // `b` is tainted for XSS only (a DB value escaped for SQL), and OOP.
        let b = Taint::from_oop_source(SourceKind::Database)
            .sanitize(&[VulnClass::Sqli])
            .0;
        let a = Taint::from_source(SourceKind::Post);
        let c = Taint::from_source(SourceKind::File);
        assert_eq!(a.join(b), b.join(a), "commutative");
        assert_eq!(a.join(b).join(c), a.join(b.join(c)), "associative");
        assert_eq!(a.join(a), a, "idempotent");
    }

    #[test]
    fn sanitize_and_restore() {
        let t = Taint::from_source(SourceKind::Get);
        let (kept, removed) = t.sanitize(&[VulnClass::Xss]);
        assert!(!kept.is_tainted(VulnClass::Xss));
        assert!(kept.is_tainted(VulnClass::Sqli));
        assert!(removed.is_tainted(VulnClass::Xss));
        // revert restores
        let restored = kept.join(removed);
        assert!(restored.is_tainted(VulnClass::Xss));
        assert!(restored.is_tainted(VulnClass::Sqli));
    }

    #[test]
    fn sanitize_both_paper_classes() {
        let t = Taint::from_source(SourceKind::Post);
        let (kept, removed) = t.sanitize(&VulnClass::PAPER);
        assert!(!kept.is_tainted(VulnClass::Xss) && !kept.is_tainted(VulnClass::Sqli));
        // The registry has grown past the paper's two classes: the other
        // labels survive a paper-classes-only sanitizer.
        assert!(kept.any());
        assert!(removed.is_tainted(VulnClass::Xss) && removed.is_tainted(VulnClass::Sqli));
    }

    #[test]
    fn xss_only_sanitizer_keeps_shell_injection_label() {
        // The taxonomy's negative guarantee: HTML encoding says nothing
        // about shell metacharacters — the CmdInjection label survives.
        let t = Taint::from_source(SourceKind::Get);
        let (kept, removed) = t.sanitize(&[VulnClass::Xss]);
        assert!(!kept.is_tainted(VulnClass::Xss));
        assert!(kept.is_tainted(VulnClass::CmdInjection));
        assert!(kept.is_tainted(VulnClass::PathTraversal));
        assert!(kept.is_tainted(VulnClass::Ssrf));
        assert_eq!(
            kept.labels_for(VulnClass::CmdInjection),
            taint_config::TaintLabels::single(SourceKind::Get)
        );
        assert!(!removed.is_tainted(VulnClass::CmdInjection));
    }

    #[test]
    fn full_registry_sanitize_clears_everything() {
        let t = Taint::from_source(SourceKind::Post);
        let (kept, removed) = t.sanitize(&VulnClass::ALL);
        assert!(!kept.any());
        for class in VulnClass::ALL {
            assert!(removed.is_tainted(class));
        }
        assert_eq!(kept.join(removed), t, "revert restores all labels");
    }

    #[test]
    fn oop_flag_propagates_through_join() {
        let oop = Taint::from_oop_source(SourceKind::Database);
        let plain = Taint::from_source(SourceKind::Get);
        assert!(oop.join(plain).oop);
        assert!(plain.join(oop).oop);
    }

    #[test]
    fn varstate_join_caps_trace() {
        let step = |i: u32| TraceStep {
            file: "f.php".into(),
            line: i,
            what: format!("step {i}"),
        };
        let mut a = VarState::tainted(Taint::from_source(SourceKind::Get), step(1));
        for i in 2..10 {
            a.push_trace(step(i), 4);
        }
        assert_eq!(a.trace.len(), 4);
        let b = VarState::tainted(Taint::from_source(SourceKind::Post), step(99));
        let j = a.join(&b, 4);
        assert!(j.trace.len() <= 4);
        assert!(j.taint.is_tainted(VulnClass::Xss));
    }

    #[test]
    fn varstate_join_keeps_object_class() {
        let mut a = VarState::clean();
        let mut b = VarState::clean();
        b.object_class = Some("wpdb".into());
        let j = a.clone().join(&b, 8);
        assert_eq!(j.object_class.map(|c| c.as_str()), Some("wpdb"));
        a.object_class = Some("other".into());
        let j2 = a.join(&b, 8);
        assert_eq!(j2.object_class.map(|c| c.as_str()), Some("other"));
    }
}
