//! The warm-path gate: an analysis must be byte-identical no matter how
//! its ASTs arrived (cold parse or a ZAST v2 entry decoded from disk) and
//! no matter how its work was scheduled (serial, 1 or 8 engine workers).
//! The `ast` disk namespace is a cost channel only: corrupting, staling
//! or deleting entries may slow a run down but can never change a table,
//! a figure or an `--explain` chain.

use phpsafe::caching::AST_NAMESPACE;
use phpsafe::{EngineCaches, PhpSafe, PluginProject, SourceFile};
use phpsafe_corpus::{Corpus, Version};
use phpsafe_engine::{ContentKey, DiskCache};
use phpsafe_eval::{tables, Evaluation, RecallMode};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("phpsafe-zcinv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A multi-file probe with real findings, shareable leaf functions, an
/// include edge, and a class — so every load path exercises non-trivial
/// arenas.
fn probe_project() -> PluginProject {
    PluginProject::new("zc-probe")
        .with_file(SourceFile::new(
            "zc_entry.php",
            "<?php
            include 'zc_lib.php';
            $id = $_GET['id'];
            echo zc_tag($id);
            $q = \"SELECT * FROM t WHERE id = '$id'\";
            mysql_query($q);
            class ZcPage { public $title;
                function show() { echo $this->title; } }
            $p = new ZcPage();
            $p->title = $_POST['t'];
            $p->show();
            ",
        ))
        .with_file(SourceFile::new(
            "zc_lib.php",
            "<?php
            function zc_tag($x) { return '<b>' . $x . '</b>'; }
            function zc_leaf($a, $b) { $s = strtolower($a) . trim($b); return $s; }
            function zc_leaf2($v) { if (is_array($v)) { return count($v); } return strlen($v); }
            function zc_hook() { return zc_leaf('a', 'b'); }
            ",
        ))
}

/// Renders every timing-free artifact into one string (Table I both
/// recall modes, Fig. 2, Table II, and the derived breakdowns).
fn artifacts(e: &Evaluation) -> String {
    let mut out = String::new();
    out.push_str(&tables::table1(e, RecallMode::PaperOptimistic));
    out.push_str(&tables::table1(e, RecallMode::FullGroundTruth));
    out.push_str(&tables::fig2(e));
    out.push_str(&tables::table2(e));
    out.push_str(&tables::oop_breakdown(e));
    out.push_str(&tables::inertia(e));
    out.push_str(&tables::root_cause(e));
    out
}

/// The `--explain` provenance chains of the probe under a given tool and
/// cache set. Exercises arena-handle printing on whatever AST objects the
/// load path produced.
fn explain_chains(
    tool: &PhpSafe,
    project: &PluginProject,
    caches: Option<&EngineCaches>,
) -> String {
    let (outcome, events) = tool.analyze_explained(project, caches);
    assert!(
        !outcome.vulns.is_empty(),
        "probe plugin must report vulnerabilities"
    );
    phpsafe::explain_outcome(&outcome, &events)
}

// One test function: the obs counters are process-global, so phases must
// not race each other.
#[test]
fn outcomes_identical_across_load_paths() {
    phpsafe_obs::set_enabled(true);
    let project = probe_project();
    let tool = PhpSafe::new();
    let cold = tool.analyze(&project).to_json().unwrap();

    // --- ZAST v2 warm path: every AST decoded from disk ---
    let dir = temp_dir("zast");
    {
        // Seeding run: fresh parses, written back in the ZAST layout.
        let caches = EngineCaches::with_disk(Arc::new(DiskCache::open(&dir).unwrap()));
        let seeded = tool
            .analyze_with_caches(&project, Some(&caches))
            .to_json()
            .unwrap();
        assert_eq!(cold, seeded, "disk-backed cold run diverged from plain run");
    }
    let before = phpsafe_obs::snapshot();
    let disk = Arc::new(DiskCache::open(&dir).unwrap());
    let caches = EngineCaches::with_disk(Arc::clone(&disk));
    let decoded = tool
        .analyze_with_caches(&project, Some(&caches))
        .to_json()
        .unwrap();
    assert_eq!(cold, decoded, "decoded warm run diverged from cold parse");
    let delta = phpsafe_obs::snapshot().since(&before);
    assert_eq!(
        delta.counter("parse.files"),
        0,
        "the warm run must decode every probe file, not parse it"
    );
    let dc = disk.counters();
    assert!(
        dc.hits >= project.files().len() as u64,
        "warm run must hit the disk for every probe file, got {} hits",
        dc.hits
    );
    assert_eq!(dc.corrupt, 0, "no entry may be dropped as corrupt");
    assert_eq!(dc.evicted, 0, "no entry may be dropped as stale");
    assert!(dc.bytes_read > 0, "warm loads must count bytes_read");

    // --- stale dir: an entry another build wrote ---
    let dir2 = temp_dir("stale");
    let disk2 = Arc::new(DiskCache::open(&dir2).unwrap());
    // Seed one file as another build would have (whatever its payload):
    // an envelope whose stamp, the 8 bytes after the magic, is not this
    // build's. It must miss as stale, re-parse, and be rewritten as ZAST.
    let stale = &project.files()[0];
    let key = ContentKey::of(stale.content.as_bytes());
    assert!(disk2.store(AST_NAMESPACE, key, 0, b"PAST\x01 other-build entry"));
    let entry = dir2
        .join(AST_NAMESPACE)
        .join(format!("{:016x}-{:x}.psc", key.hash, key.len));
    let mut sealed = std::fs::read(&entry).unwrap();
    sealed[4..12].copy_from_slice(&0u64.to_le_bytes());
    std::fs::write(&entry, sealed).unwrap();
    {
        let caches = EngineCaches::with_disk(Arc::clone(&disk2));
        let stale_cold = tool
            .analyze_with_caches(&project, Some(&caches))
            .to_json()
            .unwrap();
        assert_eq!(cold, stale_cold, "stale-entry run diverged from cold parse");
    }
    let dc2 = disk2.counters();
    assert!(
        dc2.evicted >= 1,
        "the other build's entry must miss as stale"
    );
    assert_eq!(
        dc2.corrupt, 0,
        "another build's entry must never read as corrupt"
    );
    let before = phpsafe_obs::snapshot();
    {
        let caches = EngineCaches::with_disk(Arc::clone(&disk2));
        let stale_warm = tool
            .analyze_with_caches(&project, Some(&caches))
            .to_json()
            .unwrap();
        assert_eq!(cold, stale_warm, "rewritten-entry warm run diverged");
    }
    let delta = phpsafe_obs::snapshot().since(&before);
    assert_eq!(
        delta.counter("parse.files"),
        0,
        "every file, the rewritten one included, must decode as ZAST"
    );

    // --- a truncated ZAST entry degrades to a re-parse, not a panic ---
    let dir3 = temp_dir("trunc");
    let disk3 = Arc::new(DiskCache::open(&dir3).unwrap());
    {
        let caches = EngineCaches::with_disk(Arc::clone(&disk3));
        let _ = tool.analyze_with_caches(&project, Some(&caches));
    }
    // DiskCache checks its envelope digest before the payload reaches the
    // ZAST decoder, so tampering with the file would never get that far.
    // Store a valid envelope around a truncated ZAST payload instead.
    let good = php_ast::zast::encode_file(&php_ast::parse(&project.files()[1].content));
    let key3 = ContentKey::of(project.files()[1].content.as_bytes());
    assert!(disk3.store(AST_NAMESPACE, key3, 0, &good[..good.len() / 2]));
    {
        let caches = EngineCaches::with_disk(Arc::clone(&disk3));
        let survived = tool
            .analyze_with_caches(&project, Some(&caches))
            .to_json()
            .unwrap();
        assert_eq!(cold, survived, "truncated ZAST entry changed the outcome");
    }
    assert!(
        disk3.counters().corrupt >= 1,
        "the truncated payload must be dropped and counted"
    );

    // --- --explain chains across load paths ---
    let chains_cold = explain_chains(&tool, &project, None);
    assert!(
        chains_cold.contains("source $_GET"),
        "expected a chain naming the superglobal source, got:\n{chains_cold}"
    );
    let warm = EngineCaches::with_disk(Arc::new(DiskCache::open(&dir).unwrap()));
    let chains_decoded = explain_chains(&tool, &project, Some(&warm));
    assert_eq!(
        chains_cold, chains_decoded,
        "--explain chains diverged between cold parse and decoded load"
    );

    // --- ZAST round trip on every real corpus file, not just the probe ---
    let corpus = Corpus::generate();
    for plugin in corpus.plugins() {
        for f in plugin.project(Version::V2014).files() {
            let parsed = php_ast::parse(&f.content);
            let zast = php_ast::zast::encode_file(&parsed);
            let decoded = php_ast::zast::decode(&zast)
                .unwrap_or_else(|e| panic!("{}: ZAST must decode: {e:?}", f.path));
            assert_eq!(decoded, parsed, "{}: ZAST decode != parse", f.path);
        }
    }

    // --- corpus artifacts across schedules and load paths ---
    let serial = artifacts(&Evaluation::run_with(corpus.clone()));
    let dir4 = temp_dir("tables");
    let open = || Arc::new(DiskCache::open(&dir4).unwrap());
    let cold_cached = artifacts(
        &Evaluation::run_engine_cached(corpus.clone(), 8, &EngineCaches::with_disk(open())).0,
    );
    // A fresh process over the same dir: every AST arrives decoded.
    let warm_cached =
        artifacts(&Evaluation::run_engine_cached(corpus, 1, &EngineCaches::with_disk(open())).0);
    assert_eq!(
        serial, cold_cached,
        "serial vs 8-worker disk-backed artifacts diverged"
    );
    assert_eq!(
        cold_cached, warm_cached,
        "cold vs decoded-load artifacts diverged"
    );

    for d in [dir, dir2, dir3, dir4] {
        let _ = std::fs::remove_dir_all(&d);
    }
}
