//! The engine contract: scheduling and caching may change *when* work
//! happens, never *what* comes out. The serial evaluation and the engine
//! evaluation at any worker count must agree on every result — and on
//! every rendered artifact that doesn't embed wall-clock time.

use phpsafe::{explain_outcome, EngineCaches, PhpSafe};
use phpsafe_corpus::{Corpus, Version};
use phpsafe_engine::run_ordered;
use phpsafe_eval::{tables, Evaluation, RecallMode};
use std::sync::Mutex;

/// Held by every test here that runs the engine pool: the pool counts
/// into the process-wide metrics registry, so a pool run in one test
/// would otherwise land in another test's counter deltas.
static ENGINE: Mutex<()> = Mutex::new(());

#[test]
fn engine_is_deterministic_and_matches_serial() {
    let _engine = ENGINE.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = Corpus::generate();
    let serial = Evaluation::run_with(corpus.clone());

    // Counters only record while the observability switch is on; the
    // snapshot returned by each run is a per-run delta, so runs don't
    // contaminate each other.
    phpsafe_obs::set_enabled(true);

    for workers in [1, 2, 8] {
        let (engine, snap) = Evaluation::run_engine_with(corpus.clone(), workers);

        for tool in phpsafe_eval::TOOLS {
            for version in Version::ALL {
                let s = serial.cell(tool, version);
                let e = engine.cell(tool, version);
                assert_eq!(s.detected, e.detected, "{tool}/{version:?} x{workers}");
                assert_eq!(
                    s.false_positives, e.false_positives,
                    "{tool}/{version:?} x{workers}"
                );
                assert_eq!(
                    (s.failed_resource, s.failed_unsupported),
                    (e.failed_resource, e.failed_unsupported),
                    "{tool}/{version:?} x{workers}"
                );
                assert_eq!(s.work_units, e.work_units, "{tool}/{version:?} x{workers}");
            }
        }

        // Every timing-free artifact is byte-identical (Table III embeds
        // seconds, so it is compared through the cell fields above).
        for (name, a, b) in [
            (
                "table1",
                tables::table1(&serial, RecallMode::PaperOptimistic),
                tables::table1(&engine, RecallMode::PaperOptimistic),
            ),
            ("fig2", tables::fig2(&serial), tables::fig2(&engine)),
            ("table2", tables::table2(&serial), tables::table2(&engine)),
            (
                "oop",
                tables::oop_breakdown(&serial),
                tables::oop_breakdown(&engine),
            ),
            (
                "inertia",
                tables::inertia(&serial),
                tables::inertia(&engine),
            ),
            (
                "rootcause",
                tables::root_cause(&serial),
                tables::root_cause(&engine),
            ),
        ] {
            assert_eq!(a, b, "artifact {name} differs at {workers} workers");
        }

        // The 3 tools × 2 versions see mostly identical file contents, so
        // the shared parse cache must demonstrate real reuse.
        assert_eq!(
            snap.counter("engine.jobs_run"),
            6 * corpus.plugins().len() as u64
        );
        assert!(
            snap.counter("cache.parse.hits") > snap.counter("cache.parse.misses"),
            "parse cache should be dominated by hits: {} hits / {} misses",
            snap.counter("cache.parse.hits"),
            snap.counter("cache.parse.misses")
        );
        assert!(
            snap.counter("cache.summary.hits") > 0,
            "pure-leaf summaries should carry across versions"
        );
    }

    phpsafe_obs::set_enabled(false);
}

/// `--explain` over many plugins at once: every analysis explains from its
/// own taint events, so each plugin's chains through one shared cache set,
/// at any worker count, equal the chains of analyzing that plugin alone.
#[test]
fn explain_chains_match_single_plugin_runs_at_any_worker_count() {
    let _engine = ENGINE.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = Corpus::generate();
    let tool = PhpSafe::new();
    let projects: Vec<_> = Version::ALL
        .into_iter()
        .flat_map(|v| corpus.plugins().iter().map(move |p| p.project(v)))
        .collect();
    let explain = |caches: &EngineCaches, project| {
        let (outcome, events) = tool.analyze_explained(project, Some(caches));
        explain_outcome(&outcome, &events)
    };
    let alone: Vec<String> = projects
        .iter()
        .map(|&p| explain(&EngineCaches::new(), p))
        .collect();
    assert!(alone.iter().any(|text| text.contains("reaches sink")));

    for workers in [1, 8] {
        let caches = EngineCaches::new();
        let (shared, _) = run_ordered(projects.clone(), workers, |_, p| explain(&caches, p));
        for (i, (a, b)) in alone.iter().zip(&shared).enumerate() {
            assert_eq!(
                a,
                b,
                "{} chains differ at {workers} workers",
                projects[i].name()
            );
        }
    }
}
