//! The observability contract: instrumentation may watch the pipeline,
//! never steer it. Every deterministic artifact must be byte-identical
//! whether the metrics/span switch is on, off, or toggled between runs,
//! and capturing an analysis's taint events must not change its outcome.

use phpsafe::PhpSafe;
use phpsafe_corpus::{Corpus, Version};
use phpsafe_eval::{tables, Evaluation, RecallMode};

/// Renders every timing-free artifact into one string.
fn artifacts(e: &Evaluation) -> String {
    let mut out = String::new();
    out.push_str(&tables::table1(e, RecallMode::PaperOptimistic));
    out.push_str(&tables::table1(e, RecallMode::FullGroundTruth));
    out.push_str(&tables::fig2(e));
    out.push_str(&tables::table2(e));
    out.push_str(&tables::oop_breakdown(e));
    out.push_str(&tables::inertia(e));
    out.push_str(&tables::root_cause(e));
    out.push_str(&phpsafe_eval::table1_csv(e, RecallMode::PaperOptimistic));
    out
}

#[test]
fn artifacts_identical_with_and_without_instrumentation() {
    let corpus = Corpus::generate();

    phpsafe_obs::set_enabled(false);
    let dark = artifacts(&Evaluation::run_engine_with(corpus.clone(), 4).0);

    phpsafe_obs::set_enabled(true);
    let lit_eval = Evaluation::run_engine_with(corpus.clone(), 4).0;
    let lit = artifacts(&lit_eval);
    phpsafe_obs::set_enabled(false);

    assert_eq!(
        dark, lit,
        "instrumentation changed a rendered artifact byte-for-byte"
    );

    // And the serial path, for completeness: instrumentation must not
    // perturb the uncached single-thread run either.
    let serial_dark = artifacts(&Evaluation::run_with(corpus.clone()));
    phpsafe_obs::set_enabled(true);
    let serial_lit = artifacts(&Evaluation::run_with(corpus));
    phpsafe_obs::set_enabled(false);
    assert_eq!(serial_dark, serial_lit);
}

#[test]
fn capturing_taint_events_never_changes_an_outcome() {
    let corpus = Corpus::generate();
    let tool = PhpSafe::new();
    for plugin in corpus.plugins() {
        for v in Version::ALL {
            let project = plugin.project(v);
            assert_eq!(
                tool.analyze_explained(project, None).0,
                tool.analyze(project),
                "capturing events changed {} {v:?}",
                plugin.name
            );
        }
    }
}
