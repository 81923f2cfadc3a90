//! Configuration model: the four sections of phpSAFE's configuration stage
//! (§III.A) — sources, sanitizers/filters, revert functions and sensitive
//! sinks — plus the input-vector taxonomy of §V.C / Table II.

use std::collections::HashMap;
use std::fmt;

// The class registry, input-vector taxonomy and label bitsets live in the
// `vuln-taxonomy` crate; re-exported here so every downstream
// `taint_config::{VulnClass, SourceKind, ...}` import keeps working.
pub use vuln_taxonomy::{SourceKind, TaintLabels, VectorClass, VulnClass};

/// A possibly receiver-qualified callable name, e.g. plain `intval` or
/// `wpdb::get_results` (reachable through `$wpdb->get_results(...)`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FuncName {
    /// Receiver class for methods (`wpdb`), `None` for plain functions.
    /// Stored lowercase.
    pub receiver: Option<String>,
    /// Function or method name, stored lowercase (PHP resolves function
    /// names case-insensitively).
    pub name: String,
}

impl FuncName {
    /// A plain function name.
    pub fn function(name: &str) -> Self {
        FuncName {
            receiver: None,
            name: name.to_ascii_lowercase(),
        }
    }

    /// A method on `class` (e.g. `FuncName::method("wpdb", "get_results")`).
    pub fn method(class: &str, name: &str) -> Self {
        FuncName {
            receiver: Some(class.to_ascii_lowercase()),
            name: name.to_ascii_lowercase(),
        }
    }
}

impl fmt::Display for FuncName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.receiver {
            Some(r) => write!(f, "{r}::{}", self.name),
            None => f.write_str(&self.name),
        }
    }
}

/// A taint source entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceSpec {
    /// A superglobal (or other global) variable whose elements are tainted.
    Superglobal {
        /// Variable name including `$` (e.g. `$_GET`).
        var: String,
        /// Input vector classification.
        kind: SourceKind,
    },
    /// A function/method whose return value is tainted.
    Callable {
        /// Function or method name.
        name: FuncName,
        /// Input vector classification.
        kind: SourceKind,
    },
}

/// A sanitizer entry: calling it untaints its argument for `protects`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanitizerSpec {
    /// Function or method name.
    pub name: FuncName,
    /// Which vulnerability classes the sanitizer protects against.
    pub protects: Vec<VulnClass>,
}

/// A revert entry: calling it undoes prior sanitization (`stripslashes`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevertSpec {
    /// Function or method name.
    pub name: FuncName,
}

/// A sensitive sink entry: passing tainted data to it manifests `class`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkSpec {
    /// Function or method name (`echo`/`print` are handled as language
    /// constructs by the analyzer, not listed here).
    pub name: FuncName,
    /// Vulnerability class this sink manifests.
    pub class: VulnClass,
    /// Argument positions that are sensitive (`None` = all arguments).
    pub args: Option<Vec<usize>>,
}

/// The complete configuration consumed by an analyzer: phpSAFE's
/// `class-vulnerable-input.php`, `class-vulnerable-filter.php` and
/// `class-vulnerable_output.php` rolled into one queryable structure.
#[derive(Debug, Clone, Default)]
pub struct TaintConfig {
    /// Profile name (for reports), e.g. `"php"` or `"wordpress"`.
    pub profile: String,
    superglobals: HashMap<String, SourceKind>,
    source_fns: HashMap<FuncName, SourceKind>,
    sanitizers: HashMap<FuncName, Vec<VulnClass>>,
    reverts: HashMap<FuncName, ()>,
    sinks: HashMap<FuncName, Vec<SinkSpec>>,
    /// Known global object variables mapped to their class, e.g.
    /// `$wpdb` → `wpdb`. This is how phpSAFE resolves `$wpdb->get_results`
    /// without seeing the class definition.
    known_objects: HashMap<String, String>,
}

impl TaintConfig {
    /// An empty configuration (no sources, no sinks — analysis finds
    /// nothing). Useful as a baseline for ablations.
    pub fn empty(profile: &str) -> Self {
        TaintConfig {
            profile: profile.to_string(),
            ..Default::default()
        }
    }

    // --- construction ---

    /// Registers a source.
    pub fn add_source(&mut self, spec: SourceSpec) -> &mut Self {
        match spec {
            SourceSpec::Superglobal { var, kind } => {
                self.superglobals.insert(var, kind);
            }
            SourceSpec::Callable { name, kind } => {
                self.source_fns.insert(name, kind);
            }
        }
        self
    }

    /// Registers a sanitizer.
    pub fn add_sanitizer(&mut self, spec: SanitizerSpec) -> &mut Self {
        self.sanitizers
            .entry(spec.name)
            .or_default()
            .extend(spec.protects);
        self
    }

    /// Registers a revert function.
    pub fn add_revert(&mut self, spec: RevertSpec) -> &mut Self {
        self.reverts.insert(spec.name, ());
        self
    }

    /// Registers a sink.
    pub fn add_sink(&mut self, spec: SinkSpec) -> &mut Self {
        self.sinks.entry(spec.name.clone()).or_default().push(spec);
        self
    }

    /// Declares a well-known global object (`$wpdb` is a `wpdb`).
    pub fn add_known_object(&mut self, var: &str, class: &str) -> &mut Self {
        self.known_objects
            .insert(var.to_string(), class.to_ascii_lowercase());
        self
    }

    /// Merges `other` into `self` (used to layer WordPress on generic PHP).
    pub fn extend_with(&mut self, other: &TaintConfig) -> &mut Self {
        self.superglobals
            .extend(other.superglobals.iter().map(|(k, v)| (k.clone(), *v)));
        self.source_fns
            .extend(other.source_fns.iter().map(|(k, v)| (k.clone(), *v)));
        for (k, v) in &other.sanitizers {
            self.sanitizers
                .entry(k.clone())
                .or_default()
                .extend(v.iter().copied());
        }
        self.reverts
            .extend(other.reverts.keys().map(|k| (k.clone(), ())));
        for (k, v) in &other.sinks {
            self.sinks
                .entry(k.clone())
                .or_default()
                .extend(v.iter().cloned());
        }
        self.known_objects.extend(
            other
                .known_objects
                .iter()
                .map(|(k, v)| (k.clone(), v.clone())),
        );
        self
    }

    // --- queries (all case-insensitive on function names) ---

    /// Is `var` (e.g. `$_GET`) a tainted superglobal? Returns its kind.
    pub fn superglobal_kind(&self, var: &str) -> Option<SourceKind> {
        self.superglobals.get(var).copied()
    }

    /// Is a call to `name` (optionally on receiver class `receiver`) a
    /// taint source? Returns its kind.
    pub fn source_function(&self, receiver: Option<&str>, name: &str) -> Option<SourceKind> {
        let key = match receiver {
            Some(r) => FuncName::method(r, name),
            None => FuncName::function(name),
        };
        self.source_fns.get(&key).copied()
    }

    /// Which vulnerability classes does `name` sanitize? Empty slice means
    /// "not a sanitizer".
    pub fn sanitizer_protects(&self, receiver: Option<&str>, name: &str) -> &[VulnClass] {
        let key = match receiver {
            Some(r) => FuncName::method(r, name),
            None => FuncName::function(name),
        };
        self.sanitizers
            .get(&key)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Is `name` a revert function (undoes sanitization)?
    pub fn is_revert(&self, receiver: Option<&str>, name: &str) -> bool {
        let key = match receiver {
            Some(r) => FuncName::method(r, name),
            None => FuncName::function(name),
        };
        self.reverts.contains_key(&key)
    }

    /// Sink specs for a call to `name` (possibly several classes).
    pub fn sink_specs(&self, receiver: Option<&str>, name: &str) -> &[SinkSpec] {
        let key = match receiver {
            Some(r) => FuncName::method(r, name),
            None => FuncName::function(name),
        };
        self.sinks.get(&key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Resolves a well-known global object variable (`$wpdb`) to its class.
    pub fn known_object_class(&self, var: &str) -> Option<&str> {
        self.known_objects.get(var).map(|s| s.as_str())
    }

    /// A stable 64-bit fingerprint of the full configuration.
    ///
    /// Two configs fingerprint equal iff they answer every query
    /// identically, regardless of insertion order or process — the maps
    /// are folded in sorted order. Persistent caches key derived
    /// artifacts (function summaries, rendered reports) on this, so any
    /// profile edit invalidates them.
    pub fn fingerprint(&self) -> u64 {
        // Render each section to sorted text lines and FNV-fold them;
        // self-contained so the config crate stays dependency-free.
        fn fold(hash: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *hash ^= b as u64;
                *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut lines: Vec<String> = Vec::new();
        for (var, kind) in &self.superglobals {
            lines.push(format!("superglobal\x1f{var}\x1f{kind:?}"));
        }
        for (name, kind) in &self.source_fns {
            lines.push(format!("source\x1f{name}\x1f{kind:?}"));
        }
        for (name, protects) in &self.sanitizers {
            let mut protects = protects.clone();
            protects.sort();
            lines.push(format!("sanitizer\x1f{name}\x1f{protects:?}"));
        }
        for name in self.reverts.keys() {
            lines.push(format!("revert\x1f{name}"));
        }
        for (name, specs) in &self.sinks {
            let mut rendered: Vec<String> = specs
                .iter()
                .map(|s| format!("{:?}\x1f{:?}", s.class, s.args))
                .collect();
            rendered.sort();
            lines.push(format!("sink\x1f{name}\x1f{rendered:?}"));
        }
        for (var, class) in &self.known_objects {
            lines.push(format!("object\x1f{var}\x1f{class}"));
        }
        lines.sort();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        fold(&mut hash, self.profile.as_bytes());
        for line in &lines {
            fold(&mut hash, &[0x1e]);
            fold(&mut hash, line.as_bytes());
        }
        hash
    }

    /// Number of configured entries per section (sources, sanitizers,
    /// reverts, sinks) — used in docs/benches to sanity-check profiles.
    pub fn section_sizes(&self) -> (usize, usize, usize, usize) {
        (
            self.superglobals.len() + self.source_fns.len(),
            self.sanitizers.len(),
            self.reverts.len(),
            self.sinks.values().map(|v| v.len()).sum(),
        )
    }

    /// The vulnerability classes this profile can actually manifest: every
    /// class with at least one configured sink, in registry order. What a
    /// `serve` daemon advertises in its `status` reply.
    pub fn supported_classes(&self) -> Vec<VulnClass> {
        VulnClass::ALL
            .into_iter()
            .filter(|c| {
                self.sinks
                    .values()
                    .any(|specs| specs.iter().any(|s| s.class == *c))
            })
            .collect()
    }

    /// A copy of this configuration with sinks restricted to `classes`.
    ///
    /// Only the sink section is filtered — sources, sanitizers and reverts
    /// stay bit-for-bit identical, so propagation (joins, traces, events)
    /// is unchanged and only *reporting* narrows. This is the taxonomy
    /// invariance harness: analyzing with `restricted_to(&VulnClass::PAPER)`
    /// must reproduce the paper artifacts byte-identically.
    pub fn restricted_to(&self, classes: &[VulnClass]) -> TaintConfig {
        let mut out = self.clone();
        out.sinks = self
            .sinks
            .iter()
            .filter_map(|(name, specs)| {
                let kept: Vec<SinkSpec> = specs
                    .iter()
                    .filter(|s| classes.contains(&s.class))
                    .cloned()
                    .collect();
                if kept.is_empty() {
                    None
                } else {
                    Some((name.clone(), kept))
                }
            })
            .collect();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TaintConfig {
        let mut c = TaintConfig::empty("test");
        c.add_source(SourceSpec::Superglobal {
            var: "$_GET".into(),
            kind: SourceKind::Get,
        });
        c.add_source(SourceSpec::Callable {
            name: FuncName::method("wpdb", "get_results"),
            kind: SourceKind::Database,
        });
        c.add_sanitizer(SanitizerSpec {
            name: FuncName::function("htmlentities"),
            protects: vec![VulnClass::Xss],
        });
        c.add_revert(RevertSpec {
            name: FuncName::function("stripslashes"),
        });
        c.add_sink(SinkSpec {
            name: FuncName::function("mysql_query"),
            class: VulnClass::Sqli,
            args: Some(vec![0]),
        });
        c.add_known_object("$wpdb", "wpdb");
        c
    }

    #[test]
    fn superglobal_lookup() {
        let c = sample();
        assert_eq!(c.superglobal_kind("$_GET"), Some(SourceKind::Get));
        assert_eq!(c.superglobal_kind("$_POST"), None);
    }

    #[test]
    fn method_source_lookup_is_case_insensitive() {
        let c = sample();
        assert_eq!(
            c.source_function(Some("wpdb"), "GET_RESULTS"),
            Some(SourceKind::Database)
        );
        assert_eq!(
            c.source_function(Some("WPDB"), "get_results"),
            Some(SourceKind::Database)
        );
        assert_eq!(c.source_function(None, "get_results"), None);
    }

    #[test]
    fn sanitizer_and_revert_lookup() {
        let c = sample();
        assert_eq!(
            c.sanitizer_protects(None, "HTMLENTITIES"),
            &[VulnClass::Xss]
        );
        assert!(c.sanitizer_protects(None, "other").is_empty());
        assert!(c.is_revert(None, "stripslashes"));
        assert!(!c.is_revert(None, "htmlentities"));
    }

    #[test]
    fn sink_lookup() {
        let c = sample();
        let sinks = c.sink_specs(None, "mysql_query");
        assert_eq!(sinks.len(), 1);
        assert_eq!(sinks[0].class, VulnClass::Sqli);
        assert!(c.sink_specs(None, "echo").is_empty());
    }

    #[test]
    fn known_objects() {
        let c = sample();
        assert_eq!(c.known_object_class("$wpdb"), Some("wpdb"));
        assert_eq!(c.known_object_class("$other"), None);
    }

    #[test]
    fn extend_with_merges_sections() {
        let mut base = TaintConfig::empty("base");
        base.add_source(SourceSpec::Superglobal {
            var: "$_POST".into(),
            kind: SourceKind::Post,
        });
        let other = sample();
        base.extend_with(&other);
        assert!(base.superglobal_kind("$_GET").is_some());
        assert!(base.superglobal_kind("$_POST").is_some());
        assert!(base.is_revert(None, "stripslashes"));
        let (src, san, rev, snk) = base.section_sizes();
        assert_eq!((src, san, rev, snk), (3, 1, 1, 1));
    }

    #[test]
    fn vector_class_mapping_matches_table2_rows() {
        assert_eq!(SourceKind::Post.vector_class(), VectorClass::Post);
        assert_eq!(SourceKind::Get.vector_class(), VectorClass::Get);
        assert_eq!(SourceKind::Cookie.vector_class(), VectorClass::Mixed);
        assert_eq!(SourceKind::Request.vector_class(), VectorClass::Mixed);
        assert_eq!(SourceKind::Database.vector_class(), VectorClass::Database);
        assert_eq!(
            SourceKind::File.vector_class(),
            VectorClass::FileFunctionArray
        );
        assert_eq!(
            SourceKind::Array.vector_class(),
            VectorClass::FileFunctionArray
        );
    }

    #[test]
    fn fingerprint_is_order_independent_and_content_sensitive() {
        let a = sample().fingerprint();
        // Same entries inserted in a different order.
        let mut c = TaintConfig::empty("test");
        c.add_known_object("$wpdb", "wpdb");
        c.add_sink(SinkSpec {
            name: FuncName::function("mysql_query"),
            class: VulnClass::Sqli,
            args: Some(vec![0]),
        });
        c.add_revert(RevertSpec {
            name: FuncName::function("stripslashes"),
        });
        c.add_sanitizer(SanitizerSpec {
            name: FuncName::function("htmlentities"),
            protects: vec![VulnClass::Xss],
        });
        c.add_source(SourceSpec::Callable {
            name: FuncName::method("wpdb", "get_results"),
            kind: SourceKind::Database,
        });
        c.add_source(SourceSpec::Superglobal {
            var: "$_GET".into(),
            kind: SourceKind::Get,
        });
        assert_eq!(a, c.fingerprint(), "insertion order must not matter");

        c.add_sanitizer(SanitizerSpec {
            name: FuncName::function("esc_html"),
            protects: vec![VulnClass::Xss],
        });
        assert_ne!(a, c.fingerprint(), "added entries must change it");
        assert_ne!(
            TaintConfig::empty("a").fingerprint(),
            TaintConfig::empty("b").fingerprint(),
            "profile name is part of the identity"
        );
    }

    #[test]
    fn direct_exploitability() {
        assert!(SourceKind::Get.directly_exploitable());
        assert!(SourceKind::Post.directly_exploitable());
        assert!(!SourceKind::Database.directly_exploitable());
        assert!(!SourceKind::File.directly_exploitable());
    }

    #[test]
    fn supported_classes_lists_only_sink_backed_classes() {
        let c = sample();
        assert_eq!(c.supported_classes(), vec![VulnClass::Sqli]);
        let mut c2 = sample();
        c2.add_sink(SinkSpec {
            name: FuncName::function("shell_exec"),
            class: VulnClass::CmdInjection,
            args: Some(vec![0]),
        });
        assert_eq!(
            c2.supported_classes(),
            vec![VulnClass::Sqli, VulnClass::CmdInjection],
            "registry order, sink-backed only"
        );
    }

    #[test]
    fn restricted_to_filters_only_sinks() {
        let mut c = sample();
        c.add_sink(SinkSpec {
            name: FuncName::function("readfile"),
            class: VulnClass::PathTraversal,
            args: Some(vec![0]),
        });
        let r = c.restricted_to(&VulnClass::PAPER);
        assert!(r.sink_specs(None, "readfile").is_empty());
        assert_eq!(r.sink_specs(None, "mysql_query").len(), 1);
        // Everything that drives propagation is untouched.
        assert_eq!(
            r.sanitizer_protects(None, "htmlentities"),
            c.sanitizer_protects(None, "htmlentities")
        );
        assert_eq!(r.superglobal_kind("$_GET"), c.superglobal_kind("$_GET"));
        assert!(r.is_revert(None, "stripslashes"));
        assert_eq!(r.supported_classes(), vec![VulnClass::Sqli]);
        // Restricting to the full registry is the identity on sinks.
        assert_eq!(
            c.restricted_to(&VulnClass::ALL).fingerprint(),
            c.fingerprint()
        );
    }
}
