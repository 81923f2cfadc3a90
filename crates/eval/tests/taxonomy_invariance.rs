//! Taxonomy invariance: registering the extension vulnerability classes
//! (command injection, path traversal, SSRF) must not move a byte of the
//! paper-class results. Analyzing the paper-shape corpus with the full
//! five-class registry and with the registry restricted to the paper's
//! two classes must produce identical outcomes — and therefore identical
//! Table I/II/III, Fig. 2 and `--explain` artifacts, which are all pure
//! functions of those outcomes.

use phpsafe::{explain_outcome, PhpSafe};
use phpsafe_corpus::{Corpus, Version};
use taint_config::VulnClass;

#[test]
fn paper_class_artifacts_survive_registry_extension() {
    let corpus = Corpus::generate();
    let full = PhpSafe::new();
    let restricted_config = full.config().restricted_to(&VulnClass::PAPER);
    let restricted = PhpSafe::new().with_config(restricted_config);

    // Phase 1: every outcome over the paper-shape corpus is identical —
    // the extension sinks never fire there, and labels/traces of the
    // paper classes are untouched by the registry extension.
    for plugin in corpus.plugins() {
        for v in Version::ALL {
            let a = full.analyze(plugin.project(v));
            let b = restricted.analyze(plugin.project(v));
            assert_eq!(a, b, "outcome drifted: {} {v:?}", plugin.name);
        }
    }

    // Phase 2: --explain chains for a vulnerable plugin are byte-identical
    // and carry no taxonomy tag (the `[slug ← labels]` marker is reserved
    // for extension-class findings).
    let plugin = corpus
        .plugins()
        .iter()
        .find(|p| !full.analyze(p.project(Version::V2014)).vulns.is_empty())
        .expect("a vulnerable 2014 plugin");
    let (outcome_full, events_full) = full.analyze_explained(plugin.project(Version::V2014), None);
    let (outcome_restricted, events_restricted) =
        restricted.analyze_explained(plugin.project(Version::V2014), None);

    let text_full = explain_outcome(&outcome_full, &events_full);
    let text_restricted = explain_outcome(&outcome_restricted, &events_restricted);
    assert!(
        text_full.contains("reaches sink"),
        "explain produced no chain:\n{text_full}"
    );
    assert_eq!(text_full, text_restricted, "--explain bytes drifted");
    assert!(
        !text_full.contains('←'),
        "paper-class chains must not carry the taxonomy tag:\n{text_full}"
    );
}
