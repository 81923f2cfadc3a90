//! The vulnerability-class taxonomy: which classes the analyzer can detect,
//! where tainted data can enter a plugin, and the label bitsets that carry
//! per-source-kind provenance through propagation.
//!
//! phpSAFE's configuration stage (§III.A) hard-codes two classes — XSS and
//! SQLi — but the source/sanitizer/sink model generalizes to any taint-style
//! class. This crate is the registry the rest of the workspace builds on:
//!
//! * [`VulnClass`] — the extensible class enum. The paper's two classes come
//!   first (and keep their exact table names); command injection, path
//!   traversal and SSRF/open-redirect extend the taxonomy without touching
//!   the propagation machinery.
//! * [`SourceKind`] / [`VectorClass`] — the input-vector taxonomy of §V.C /
//!   Table II.
//! * [`TaintLabels`] — a bitset of [`SourceKind`]s. Instead of remembering a
//!   single "best" source per class, propagation unions label sets; the
//!   Table II classification then *falls out* of the labels
//!   ([`TaintLabels::primary`]) instead of being a post-hoc guess.

use serde::Serialize;
use std::fmt;

/// Vulnerability classes the analyzer can detect.
///
/// The first two are the paper's (§III.A); the rest extend the taxonomy.
/// Ordering is significant: tables iterate [`VulnClass::ALL`] in this order,
/// and the summary codec persists per-class taint labels in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum VulnClass {
    /// Cross-site scripting.
    Xss,
    /// SQL injection.
    Sqli,
    /// OS command injection (`shell_exec`, backticks, `system`...).
    CmdInjection,
    /// Path traversal through filesystem sinks (`readfile`, `fopen`...).
    PathTraversal,
    /// Open redirect / server-side request forgery (`header("Location:")`,
    /// `curl_*`/`file_get_contents` URL fetches).
    Ssrf,
}

impl VulnClass {
    /// Every class, in registry order (paper classes first).
    pub const ALL: [VulnClass; 5] = [
        VulnClass::Xss,
        VulnClass::Sqli,
        VulnClass::CmdInjection,
        VulnClass::PathTraversal,
        VulnClass::Ssrf,
    ];

    /// The two classes evaluated in the paper, in its table order.
    pub const PAPER: [VulnClass; 2] = [VulnClass::Xss, VulnClass::Sqli];

    /// Number of registered classes (array dimension for per-class state).
    pub const COUNT: usize = Self::ALL.len();

    /// Short display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            VulnClass::Xss => "XSS",
            VulnClass::Sqli => "SQLi",
            VulnClass::CmdInjection => "CMDi",
            VulnClass::PathTraversal => "PathTrav",
            VulnClass::Ssrf => "SSRF",
        }
    }

    /// Lowercase machine-readable slug (metric keys, `--explain` tags).
    pub fn slug(self) -> &'static str {
        match self {
            VulnClass::Xss => "xss",
            VulnClass::Sqli => "sqli",
            VulnClass::CmdInjection => "cmd-injection",
            VulnClass::PathTraversal => "path-traversal",
            VulnClass::Ssrf => "ssrf",
        }
    }

    /// Dense index into per-class arrays (`[T; VulnClass::COUNT]`).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`VulnClass::index`].
    pub fn from_index(i: usize) -> Option<VulnClass> {
        Self::ALL.get(i).copied()
    }

    /// Whether the class is one of the paper's original two (whose
    /// artifacts must stay byte-identical as the taxonomy grows).
    pub fn in_paper(self) -> bool {
        matches!(self, VulnClass::Xss | VulnClass::Sqli)
    }
}

impl fmt::Display for VulnClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where tainted data enters the plugin — drives Table II and the paper's
/// root-cause analysis (§V.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum SourceKind {
    /// `$_GET`
    Get,
    /// `$_POST`
    Post,
    /// `$_COOKIE`
    Cookie,
    /// `$_REQUEST` (GET/POST/COOKIE merged)
    Request,
    /// `$_SERVER` (attacker-influenced headers)
    Server,
    /// Values read from the database.
    Database,
    /// Values read from files.
    File,
    /// Return values of other untrusted functions.
    Function,
    /// Values from arrays / other variables whose origin is unknown.
    Array,
}

impl SourceKind {
    /// Every kind, in bit order (the [`TaintLabels`] bit layout).
    pub const ALL: [SourceKind; 9] = [
        SourceKind::Get,
        SourceKind::Post,
        SourceKind::Cookie,
        SourceKind::Request,
        SourceKind::Server,
        SourceKind::Database,
        SourceKind::File,
        SourceKind::Function,
        SourceKind::Array,
    ];

    /// Reporting priority: when several labels reach a sink the lowest
    /// priority wins as the primary vector ("prefer the direct HTTP
    /// vectors" — phpSAFE reports `$_GET` over a DB row when both flow).
    pub fn priority(self) -> u8 {
        match self {
            SourceKind::Get => 0,
            SourceKind::Post => 1,
            SourceKind::Request => 2,
            SourceKind::Cookie => 3,
            SourceKind::Server => 4,
            SourceKind::Database => 5,
            SourceKind::File => 6,
            SourceKind::Function => 7,
            SourceKind::Array => 8,
        }
    }

    /// Collapses into the paper's Table II row taxonomy.
    pub fn vector_class(self) -> VectorClass {
        match self {
            SourceKind::Post => VectorClass::Post,
            SourceKind::Get => VectorClass::Get,
            SourceKind::Cookie | SourceKind::Request | SourceKind::Server => VectorClass::Mixed,
            SourceKind::Database => VectorClass::Database,
            SourceKind::File | SourceKind::Function | SourceKind::Array => {
                VectorClass::FileFunctionArray
            }
        }
    }

    /// Whether an occasional attacker can trivially control this vector
    /// (the paper's "likely to be directly manipulated" type 1).
    pub fn directly_exploitable(self) -> bool {
        matches!(
            self,
            SourceKind::Get | SourceKind::Post | SourceKind::Cookie | SourceKind::Request
        )
    }

    /// The bit this kind occupies in a [`TaintLabels`] set.
    pub fn bit(self) -> u16 {
        1u16 << (self as u16)
    }
}

impl fmt::Display for SourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SourceKind::Get => "GET",
            SourceKind::Post => "POST",
            SourceKind::Cookie => "COOKIE",
            SourceKind::Request => "REQUEST",
            SourceKind::Server => "SERVER",
            SourceKind::Database => "DB",
            SourceKind::File => "FILE",
            SourceKind::Function => "FUNCTION",
            SourceKind::Array => "ARRAY",
        };
        f.write_str(s)
    }
}

/// Table II row taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VectorClass {
    /// `POST`
    Post,
    /// `GET`
    Get,
    /// `POST/GET/COOKIE`
    Mixed,
    /// `DB`
    Database,
    /// `File/Function/Array`
    FileFunctionArray,
}

impl VectorClass {
    /// All rows in the paper's Table II order.
    pub const ALL: [VectorClass; 5] = [
        VectorClass::Post,
        VectorClass::Get,
        VectorClass::Mixed,
        VectorClass::Database,
        VectorClass::FileFunctionArray,
    ];

    /// Row label as printed in Table II.
    pub fn label(self) -> &'static str {
        match self {
            VectorClass::Post => "POST",
            VectorClass::Get => "GET",
            VectorClass::Mixed => "POST/GET/COOKIE",
            VectorClass::Database => "DB",
            VectorClass::FileFunctionArray => "File/Function/Array",
        }
    }
}

impl fmt::Display for VectorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A set of [`SourceKind`] labels, packed into one `u16`.
///
/// Propagation unions label sets at joins and clears whole sets per class at
/// sanitizers; [`TaintLabels::primary`] recovers the single reported vector
/// (the minimum-[priority](SourceKind::priority) member), which is exactly
/// the value the former "keep the best source" join computed — min over a
/// union equals the iterated binary min — so growing labels cannot change
/// what the paper's tables report.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct TaintLabels(pub u16);

impl TaintLabels {
    /// The empty set (untainted).
    pub const EMPTY: TaintLabels = TaintLabels(0);

    /// A one-element set.
    pub fn single(kind: SourceKind) -> TaintLabels {
        TaintLabels(kind.bit())
    }

    /// The full set — every registered source kind.
    pub fn all() -> TaintLabels {
        SourceKind::ALL.iter().copied().collect()
    }

    /// Do the two sets share at least one label?
    pub fn intersects(self, other: TaintLabels) -> bool {
        self.0 & other.0 != 0
    }

    /// No labels present?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of labels present.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Is `kind` in the set?
    pub fn contains(self, kind: SourceKind) -> bool {
        self.0 & kind.bit() != 0
    }

    /// Set union (the join of two provenances).
    pub fn union(self, other: TaintLabels) -> TaintLabels {
        TaintLabels(self.0 | other.0)
    }

    /// Adds one label in place.
    pub fn insert(&mut self, kind: SourceKind) {
        self.0 |= kind.bit();
    }

    /// The reported vector: the member with the lowest
    /// [priority](SourceKind::priority), `None` when empty.
    pub fn primary(self) -> Option<SourceKind> {
        SourceKind::ALL
            .iter()
            .copied()
            .filter(|k| self.contains(*k))
            .min_by_key(|k| k.priority())
    }

    /// Iterates the members in bit order.
    pub fn iter(self) -> impl Iterator<Item = SourceKind> {
        SourceKind::ALL
            .into_iter()
            .filter(move |k| self.contains(*k))
    }
}

impl fmt::Display for TaintLabels {
    /// Renders as `{GET,DB}` — stable order, used by `--explain` tags.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        let mut first = true;
        for k in self.iter() {
            if !first {
                f.write_str(",")?;
            }
            first = false;
            write!(f, "{k}")?;
        }
        f.write_str("}")
    }
}

impl FromIterator<SourceKind> for TaintLabels {
    fn from_iter<I: IntoIterator<Item = SourceKind>>(iter: I) -> Self {
        let mut l = TaintLabels::EMPTY;
        for k in iter {
            l.insert(k);
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_order_keeps_paper_classes_first() {
        assert_eq!(VulnClass::ALL[0], VulnClass::Xss);
        assert_eq!(VulnClass::ALL[1], VulnClass::Sqli);
        assert_eq!(&VulnClass::ALL[..2], &VulnClass::PAPER[..]);
        for (i, c) in VulnClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(VulnClass::from_index(i), Some(*c));
        }
        assert_eq!(VulnClass::from_index(VulnClass::COUNT), None);
    }

    #[test]
    fn names_and_slugs_are_distinct() {
        let names: std::collections::HashSet<_> = VulnClass::ALL.iter().map(|c| c.name()).collect();
        let slugs: std::collections::HashSet<_> = VulnClass::ALL.iter().map(|c| c.slug()).collect();
        assert_eq!(names.len(), VulnClass::COUNT);
        assert_eq!(slugs.len(), VulnClass::COUNT);
        assert!(VulnClass::Xss.in_paper() && VulnClass::Sqli.in_paper());
        assert!(!VulnClass::CmdInjection.in_paper());
        assert!(!VulnClass::PathTraversal.in_paper());
        assert!(!VulnClass::Ssrf.in_paper());
    }

    #[test]
    fn labels_union_and_primary() {
        let mut l = TaintLabels::single(SourceKind::Database);
        assert_eq!(l.primary(), Some(SourceKind::Database));
        l.insert(SourceKind::Post);
        assert_eq!(l.primary(), Some(SourceKind::Post), "POST outranks DB");
        let g = TaintLabels::single(SourceKind::Get);
        assert_eq!(l.union(g).primary(), Some(SourceKind::Get));
        assert_eq!(TaintLabels::EMPTY.primary(), None);
        assert_eq!(l.union(g).len(), 3);
    }

    #[test]
    fn min_over_union_equals_iterated_join() {
        // The invariant that keeps Table II byte-identical: folding kinds
        // pairwise by priority-min gives the same answer as primary() over
        // the unioned label set, for every subset.
        for bits in 0u16..(1 << SourceKind::ALL.len()) {
            let labels = TaintLabels(bits);
            let folded = labels
                .iter()
                .reduce(|a, b| if b.priority() < a.priority() { b } else { a });
            assert_eq!(labels.primary(), folded);
        }
    }

    #[test]
    fn labels_iter_roundtrip() {
        let l: TaintLabels = [SourceKind::Get, SourceKind::File, SourceKind::Array]
            .into_iter()
            .collect();
        let back: TaintLabels = l.iter().collect();
        assert_eq!(l, back);
        assert_eq!(l.to_string(), "{GET,FILE,ARRAY}");
        assert!(l.contains(SourceKind::File));
        assert!(!l.contains(SourceKind::Post));
    }

    #[test]
    fn serializes_as_bits_and_variant_names() {
        let l: TaintLabels = [SourceKind::Get, SourceKind::Database]
            .into_iter()
            .collect();
        assert_eq!(serde_json::to_string(&l).unwrap(), "33");
        let c = serde_json::to_string(&VulnClass::CmdInjection).unwrap();
        assert_eq!(c, "\"CmdInjection\"");
        let k = serde_json::to_string(&SourceKind::Database).unwrap();
        assert_eq!(k, "\"Database\"");
    }
}
