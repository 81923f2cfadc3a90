//! Incremental invariance: the daemon's `invalidate` and dirty-buffer
//! paths are pure *latency* optimizations — every reply must stay
//! byte-identical to a cold batch analysis of the same (effective)
//! contents, the evaluation tables must not move after an
//! invalidate-heavy daemon session, and `--explain` chains must match
//! between a cold analyzer and one warmed through an invalidate cycle.
//! The efficiency claim is asserted too: each of repeated single-file
//! edits on the 35-plugin corpus re-parses fewer than 5% of its files.

use phpsafe::{load_project, AnalysisServer, EngineCaches, PhpSafe, PluginProject, SourceFile};
use phpsafe_corpus::{Corpus, Version};
use phpsafe_engine::DiskCache;
use phpsafe_eval::{tables, Evaluation, RecallMode};
use phpsafe_serve::{parse, Daemon, InvalidateRequest, Json, RequestCtx, ServerConfig, Service};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("phpsafe-incr-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes every 2014 plugin of the corpus under `root` and returns the
/// plugin directories in corpus order.
fn dump_2014(corpus: &Corpus, root: &Path) -> Vec<PathBuf> {
    let mut dirs = Vec::new();
    for plugin in corpus.plugins() {
        let project = plugin.project(Version::V2014);
        let dir = root.join(project.name());
        for f in project.files() {
            let path = dir.join(&f.path);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &f.content).unwrap();
        }
        dirs.push(dir);
    }
    dirs
}

fn analyze_line(paths: &[&Path]) -> String {
    Json::Obj(vec![
        ("cmd".to_owned(), Json::Str("analyze".into())),
        (
            "paths".to_owned(),
            Json::Arr(
                paths
                    .iter()
                    .map(|p| Json::Str(p.display().to_string()))
                    .collect(),
            ),
        ),
        ("jobs".to_owned(), Json::Num(1.0)),
    ])
    .emit()
}

fn buffered_analyze_line(dir: &Path, buffers: &[(String, String)]) -> String {
    Json::Obj(vec![
        ("cmd".to_owned(), Json::Str("analyze".into())),
        (
            "paths".to_owned(),
            Json::Arr(vec![Json::Str(dir.display().to_string())]),
        ),
        ("jobs".to_owned(), Json::Num(1.0)),
        (
            "buffers".to_owned(),
            Json::Obj(
                buffers
                    .iter()
                    .map(|(p, c)| (p.clone(), Json::Str(c.clone())))
                    .collect(),
            ),
        ),
    ])
    .emit()
}

fn invalidate_line(paths: &[PathBuf]) -> String {
    Json::Obj(vec![
        ("cmd".to_owned(), Json::Str("invalidate".into())),
        (
            "paths".to_owned(),
            Json::Arr(
                paths
                    .iter()
                    .map(|p| Json::Str(p.display().to_string()))
                    .collect(),
            ),
        ),
    ])
    .emit()
}

fn reports_of(response: &str) -> Vec<String> {
    let v = parse(response).unwrap();
    assert_eq!(
        v.get("ok"),
        Some(&Json::Bool(true)),
        "request failed: {response}"
    );
    v.get("result")
        .and_then(|r| r.get("reports"))
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|item| {
            item.get("report")
                .and_then(Json::as_str)
                .unwrap()
                .to_owned()
        })
        .collect()
}

fn fully_cached(response: &str) -> bool {
    parse(response)
        .unwrap()
        .get("result")
        .and_then(|r| r.get("fully_cached"))
        == Some(&Json::Bool(true))
}

fn disk_server(cache_dir: &Path) -> AnalysisServer {
    let disk = Arc::new(DiskCache::open(cache_dir).unwrap());
    AnalysisServer::with_caches(EngineCaches::with_disk(disk)).with_default_jobs(1)
}

#[test]
fn single_file_edit_invalidates_under_five_percent_and_stays_byte_identical() {
    let corpus = Corpus::generate();
    let root = temp_dir("edit");
    let plugin_dirs = dump_2014(&corpus, &root.join("plugins"));
    let total_files: usize = corpus
        .plugins()
        .iter()
        .map(|p| p.project(Version::V2014).files().len())
        .sum();

    let daemon = Daemon::start(
        Arc::new(disk_server(&root.join("cache"))),
        ServerConfig::default(),
    );
    // Cold pass over the whole corpus; the daemon records per-root state
    // and builds one dependency graph per project.
    let mut cold = Vec::new();
    for dir in &plugin_dirs {
        cold.push(reports_of(&daemon.handle_line(&analyze_line(&[dir])).0));
    }

    // Edit one file of the largest plugin (append — stays valid PHP, the
    // content hash changes).
    let (victim, _) = plugin_dirs
        .iter()
        .zip(corpus.plugins())
        .max_by_key(|(_, p)| p.project(Version::V2014).files().len())
        .unwrap();
    let victim_index = plugin_dirs.iter().position(|d| d == victim).unwrap();
    let victim_project = load_project(victim).unwrap();
    let edited_rel = victim_project.files()[0].path.clone();
    let edited_path = victim.join(&edited_rel);
    let pristine = std::fs::read_to_string(&edited_path).unwrap();

    // Repeated edits of the same file: each cycle must invalidate, re-warm
    // and answer exactly like the first.
    for cycle in 0..3 {
        std::fs::write(
            &edited_path,
            format!("{pristine}\n// touched by incremental test, edit {cycle}\n"),
        )
        .unwrap();

        let (response, _) =
            daemon.handle_line(&invalidate_line(std::slice::from_ref(&edited_path)));
        let v = parse(&response).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "got: {response}");
        let projects = v
            .get("result")
            .and_then(|r| r.get("projects"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(projects.len(), 1, "one root affected: {response}");
        let item = &projects[0];
        let num = |k: &str| item.get(k).and_then(Json::as_num).unwrap() as usize;
        assert_eq!(
            num("dirty"),
            1,
            "edit {cycle}: one file changed: {response}"
        );
        assert_eq!(
            item.get("reanalyzed"),
            Some(&Json::Bool(true)),
            "edit {cycle}: {response}"
        );
        let affected = num("affected");
        let reparsed = num("reparsed");
        assert!(affected >= 1, "the edited file is always affected");
        // The milestone: a one-file edit touches < 5% of the corpus's
        // files — both by the graph's affected set and by the *measured*
        // re-parses.
        assert!(
            affected * 20 < total_files,
            "edit {cycle}: affected {affected} files of {total_files} — not incremental"
        );
        assert!(
            reparsed * 20 < total_files,
            "edit {cycle}: re-parsed {reparsed} files of {total_files} — not incremental"
        );

        // The invalidate re-warm already stored the new outcome: the next
        // analyze is a pure cache hit and byte-identical to a cold batch
        // run over the edited tree.
        let (warm, _) = daemon.handle_line(&analyze_line(&[victim]));
        assert!(
            fully_cached(&warm),
            "edit {cycle}: invalidate must pre-warm: {warm}"
        );
        let batch = PhpSafe::new()
            .analyze(&load_project(victim).unwrap())
            .to_json()
            .unwrap();
        assert_eq!(
            reports_of(&warm)[0],
            batch,
            "edit {cycle}: warm reply diverged"
        );

        // Untouched plugins still answer from cache, bytes unchanged.
        for (di, dir) in plugin_dirs.iter().enumerate().take(3) {
            if di == victim_index {
                continue;
            }
            let (response, _) = daemon.handle_line(&analyze_line(&[dir]));
            assert!(
                fully_cached(&response),
                "edit {cycle}: unrelated plugin lost its cache"
            );
            assert_eq!(reports_of(&response), cold[di]);
        }
    }
    daemon.shutdown();
    daemon.join();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn dirty_buffer_overlay_is_byte_identical_to_saving_the_edit() {
    let root = temp_dir("buffer");
    let plugin = root.join("plugins").join("probe");
    let original = "<?php echo $_GET['q'];\n";
    let edited = "<?php echo htmlentities($_GET['q']);\n";
    std::fs::create_dir_all(&plugin).unwrap();
    std::fs::write(plugin.join("index.php"), original).unwrap();

    let daemon = Daemon::start(
        Arc::new(disk_server(&root.join("cache"))),
        ServerConfig::default(),
    );
    let (cold, _) = daemon.handle_line(&analyze_line(&[&plugin]));
    let cold_report = reports_of(&cold)[0].clone();

    // Analyze with the edit held only in an unsaved buffer.
    let buffers = vec![(
        plugin.join("index.php").display().to_string(),
        edited.to_owned(),
    )];
    let (overlaid, _) = daemon.handle_line(&buffered_analyze_line(&plugin, &buffers));
    assert!(!fully_cached(&overlaid), "new buffer contents must analyze");
    let overlaid_report = reports_of(&overlaid)[0].clone();

    // Reference: the same edit saved to a directory of the same name.
    let alt = root.join("alt").join("probe");
    std::fs::create_dir_all(&alt).unwrap();
    std::fs::write(alt.join("index.php"), edited).unwrap();
    let batch = PhpSafe::new()
        .analyze(&load_project(&alt).unwrap())
        .to_json()
        .unwrap();
    assert_eq!(
        overlaid_report, batch,
        "buffer overlay must match the saved edit byte for byte"
    );

    // The overlaid outcome is keyed on effective contents: repeating the
    // same buffered request is a pure cache hit with identical bytes.
    let (again, _) = daemon.handle_line(&buffered_analyze_line(&plugin, &buffers));
    assert!(fully_cached(&again), "same buffers must hit the cache");
    assert_eq!(reports_of(&again)[0], overlaid_report);

    // Dropping the buffer falls back to the unchanged on-disk contents.
    let (disk_again, _) = daemon.handle_line(&analyze_line(&[&plugin]));
    assert!(fully_cached(&disk_again));
    assert_eq!(reports_of(&disk_again)[0], cold_report);
    daemon.shutdown();
    daemon.join();
    let _ = std::fs::remove_dir_all(&root);
}

/// A probe plugin whose files cross-reference through an include and a
/// function call.
fn probe_project() -> PluginProject {
    PluginProject::new("inc-probe")
        .with_file(SourceFile::new(
            "inc_main.php",
            "<?php require 'inc_lib.php'; echo inc_render($_GET['q']);\n",
        ))
        .with_file(SourceFile::new(
            "inc_lib.php",
            "<?php function inc_render($s) { return $s; }\n",
        ))
}

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

#[test]
fn explain_chains_match_between_cold_and_invalidate_warmed_analyzers() {
    let root = temp_dir("explain");
    let dir = root.join("plugins").join("inc-probe");
    let project = probe_project();
    for f in project.files() {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(&f.path), &f.content).unwrap();
    }

    let server = disk_server(&root.join("cache"));
    let ctx = RequestCtx::detached();
    server
        .analyze(
            &ctx,
            &phpsafe_serve::AnalyzeRequest {
                paths: vec![dir.display().to_string()],
                tools: Vec::new(),
                jobs: Some(1),
                buffers: Vec::new(),
            },
        )
        .unwrap();

    // Edit the library, run an invalidate cycle, then compare explain
    // chains of a cold analyzer vs one using the invalidate-warmed caches.
    std::fs::write(
        dir.join("inc_lib.php"),
        "<?php function inc_render($s) { return strval($s); }\n",
    )
    .unwrap();
    server
        .invalidate(
            &ctx,
            &InvalidateRequest {
                paths: vec![dir.join("inc_lib.php").display().to_string()],
            },
        )
        .unwrap();

    let edited = load_project(&dir).unwrap();
    let tool = PhpSafe::new();
    let cold = explain_chains(&tool, &edited, None);
    let warmed = explain_chains(&tool, &edited, Some(server.caches()));
    assert_eq!(
        cold, warmed,
        "--explain chains must not depend on how the caches were warmed"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn tables_survive_an_incremental_daemon_session() {
    let root = temp_dir("tables");
    let cache_dir = root.join("cache");
    let run = || {
        let disk = Arc::new(DiskCache::open(&cache_dir).unwrap());
        Evaluation::run_engine_cached(Corpus::generate(), 2, &EngineCaches::with_disk(disk)).0
    };
    let cold = run();

    // An invalidate-heavy daemon session sharing the same cache dir:
    // analyze, edit, invalidate, re-analyze one dumped plugin.
    let corpus = Corpus::generate();
    let plugin_dirs = dump_2014(&corpus, &root.join("plugins"));
    let dir = &plugin_dirs[0];
    let daemon = Daemon::start(Arc::new(disk_server(&cache_dir)), ServerConfig::default());
    daemon.handle_line(&analyze_line(&[dir]));
    let edited = dir.join(load_project(dir).unwrap().files()[0].path.clone());
    let mut content = std::fs::read_to_string(&edited).unwrap();
    content.push_str("\n// table session edit\n");
    std::fs::write(&edited, content).unwrap();
    daemon.handle_line(&invalidate_line(&[edited]));
    daemon.handle_line(&analyze_line(&[dir]));
    daemon.shutdown();
    daemon.join();

    // The session must not have disturbed what the evaluation reads.
    let warm = run();
    assert_eq!(
        tables::table1(&cold, RecallMode::PaperOptimistic),
        tables::table1(&warm, RecallMode::PaperOptimistic),
        "Table I changed after an incremental daemon session"
    );
    assert_eq!(
        tables::table2(&cold),
        tables::table2(&warm),
        "Table II changed after an incremental daemon session"
    );
    assert_eq!(
        tables::fig2(&cold),
        tables::fig2(&warm),
        "Fig. 2 changed after an incremental daemon session"
    );
    let _ = std::fs::remove_dir_all(&root);
}
