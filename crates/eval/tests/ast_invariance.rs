//! The flat-AST contract: nodes are arena indices (`ExprId`/`StmtId`) that
//! depend on parse order within one file, and slice pools store `(start,
//! len)` ranges — none of which may leak into rendered artifacts. Every
//! printed value must come from node *content* (names, literals, spans),
//! never from handle values, and the per-file arenas must produce the same
//! analysis whether files are parsed serially or by racing workers
//! (handles are file-local, so scheduling cannot renumber anything a
//! report shows). This test pins that down: Table I/II/III artifacts and
//! the `--explain` provenance chains must be byte-identical across worker
//! counts and across repeated runs against warm shared caches.

use phpsafe::{AnalyzerOptions, PhpSafe, PluginProject, SourceFile};
use phpsafe_corpus::Corpus;
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

/// Renders the `--explain` provenance chains for a probe plugin. The taint
/// event stream exercises `print_expr` on arena handles at every source /
/// propagation / sink step, so a single mis-resolved id shows up here as a
/// wrong expression string.
fn explain_chains() -> String {
    let project = PluginProject::new("ast-inv-probe")
        .with_file(SourceFile::new(
            "ast_inv_entry.php",
            "<?php
            include 'ast_inv_lib.php';
            $id = $_GET['id'];
            $row = inv_helper($id);
            echo $row;
            class InvPage { public $title;
                function show() { echo $this->title; } }
            $p = new InvPage();
            $p->title = $_POST['t'];
            $p->show();
            ",
        ))
        .with_file(SourceFile::new(
            "ast_inv_lib.php",
            "<?php function inv_helper($x) { return 'v' . $x; }",
        ));
    let (outcome, events) = PhpSafe::new()
        .with_options(AnalyzerOptions::default())
        .analyze_explained(&project, None);
    assert!(
        !outcome.vulns.is_empty(),
        "probe plugin must report vulnerabilities"
    );
    phpsafe::explain_outcome(&outcome, &events)
}

#[test]
fn artifacts_and_explain_identical_across_worker_counts() {
    // --- --explain chains: byte-stable across repeated runs ---
    let first = explain_chains();
    assert!(
        first.contains("source $_GET"),
        "expected a chain naming the superglobal source, got:\n{first}"
    );
    assert!(
        first.contains("reaches"),
        "expected a sink-hit line, got:\n{first}"
    );
    // A second run uses a warm interner and freshly built arenas; the
    // printed chains must not change byte-for-byte.
    let second = explain_chains();
    assert_eq!(first, second, "--explain chains diverged between runs");

    // --- Table I/II/III artifacts across schedules ---
    let corpus = Corpus::generate();

    // Serial first: one thread allocates every per-file arena in order.
    let serial = artifacts(&Evaluation::run_with(corpus.clone()));

    // One worker through the engine: same job order, shared parse cache.
    let one = artifacts(&Evaluation::run_engine_with(corpus.clone(), 1).0);

    // Eight workers: files parse in racing order; arenas are file-local,
    // so ids never renumber across schedules.
    let eight = artifacts(&Evaluation::run_engine_with(corpus.clone(), 8).0);

    assert_eq!(
        serial, one,
        "serial vs 1-worker artifacts diverged: an arena handle or range \
         leaked into rendered output"
    );
    assert_eq!(
        one, eight,
        "1-worker vs 8-worker artifacts diverged: parallel parsing \
         changed rendered output"
    );

    // Second 8-worker run against the warm shared parse/summary caches
    // must replay identically (cached ParsedFiles are shared via Arc).
    let eight_again = artifacts(&Evaluation::run_engine_with(corpus, 8).0);
    assert_eq!(eight, eight_again, "rerun with warm caches diverged");
}
