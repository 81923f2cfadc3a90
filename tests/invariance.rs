//! The byte-identity contract, checked against committed goldens: Table
//! I/II, Fig. 2, the derived tables, every (tool, version) cell and the
//! `--explain` chains must equal `tests/golden/` under every schedule,
//! cache state, serving path and instrumentation setting.
//!
//! [`MATRIX`] has one line per configuration of the whole evaluation. The
//! checks a row cannot express (the JSON documents' bytes, counter pins,
//! daemon replies, incremental bounds, key collisions, an unusable cache
//! dir, the ZAST round trip, the lexer's token streams) are the tests
//! after it.

mod harness;

use harness::*;
use phpsafe::caching::{FileUnit, AST_NAMESPACE};
use phpsafe::{
    affected_files, explain_outcome, load_project, AnalysisServer, EngineCaches, PhpSafe,
    PluginProject, SourceFile,
};
use phpsafe_baselines::{paper_tools, Pixy, Rips};
use phpsafe_corpus::{Corpus, GeneratedPlugin, Version};
use phpsafe_engine::{run_ordered, ContentKey, DiskCache, DiskCounters};
use phpsafe_eval::Evaluation;
use phpsafe_obs::Snapshot;
use phpsafe_serve::Json;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use taint_config::VulnClass;

/// Held for the whole body of every test here. Metrics are process-wide:
/// a test that switches them on or reads a counter delta would otherwise
/// count the parses and pool jobs of the tests beside it.
static OBS: Mutex<()> = Mutex::new(());

/// Takes [`OBS`] and starts the test with instrumentation off.
fn obs_lock() -> MutexGuard<'static, ()> {
    let guard = OBS.lock().unwrap_or_else(|e| e.into_inner());
    phpsafe_obs::set_enabled(false);
    guard
}

/// How a matrix row runs the evaluation; the number is the worker count.
#[derive(Clone, Copy)]
enum Run {
    /// `Evaluation::run_with`: serial and uncached, Table III's method.
    Serial,
    /// The engine pool on fresh in-memory caches.
    Fresh(usize),
    /// The engine pool on the in-memory caches every `Shared` row reuses.
    Shared(usize),
    /// The engine pool over the matrix's disk dir, emptied first.
    DiskCold(usize),
    /// The disk dir as left by the rows above, opened afresh: none parses.
    DiskWarm(usize),
    /// `DiskCold`, seeded with another build's entry and a truncated ZAST.
    DiskDamaged(usize),
    /// The disk dir after a daemon analyze/edit/invalidate session.
    DiskAfterSession(usize),
}

/// `(row, instrumentation on, run)`; rows run in order, and every row must
/// render every golden artifact.
const MATRIX: &[(&str, bool, Run)] = &[
    ("serial", false, Run::Serial),
    ("serial-obs", true, Run::Serial),
    ("engine-1", true, Run::Fresh(1)),
    ("engine-2", true, Run::Fresh(2)),
    ("engine-4", true, Run::Fresh(4)),
    ("engine-8", true, Run::Shared(8)),
    ("engine-8-warm", false, Run::Shared(8)),
    ("disk-cold-8", false, Run::DiskCold(8)),
    ("disk-warm-1", true, Run::DiskWarm(1)),
    ("disk-damaged-2", false, Run::DiskDamaged(2)),
    ("disk-rewarmed-1", true, Run::DiskWarm(1)),
    ("disk-after-session-2", false, Run::DiskAfterSession(2)),
];

/// A row's evaluation, its metrics delta and its disk cache's counters.
type RowRun = (Evaluation, Snapshot, Option<DiskCounters>);

/// Runs one row over `corpus`. `Shared` rows reuse `shared`; the disk rows
/// use `root/cache`.
fn run_row(corpus: &Corpus, shared: &EngineCaches, root: &Path, run: Run) -> RowRun {
    let dir = root.join("cache");
    let in_memory = |(eval, snap)| (eval, snap, None);
    let jobs = match run {
        Run::Serial => {
            let before = phpsafe_obs::snapshot();
            let eval = Evaluation::run_with(corpus.clone());
            return (eval, phpsafe_obs::snapshot().since(&before), None);
        }
        Run::Fresh(jobs) => return in_memory(Evaluation::run_engine_with(corpus.clone(), jobs)),
        Run::Shared(jobs) => {
            return in_memory(Evaluation::run_engine_cached(corpus.clone(), jobs, shared))
        }
        Run::DiskCold(jobs) | Run::DiskDamaged(jobs) => {
            let _ = std::fs::remove_dir_all(&dir);
            jobs
        }
        Run::DiskWarm(jobs) => jobs,
        Run::DiskAfterSession(jobs) => {
            daemon_session(corpus, root, &dir);
            jobs
        }
    };
    let disk = Arc::new(DiskCache::open(&dir).unwrap());
    if let Run::DiskDamaged(_) = run {
        seed_damaged(corpus, &disk);
    }
    let caches = EngineCaches::with_disk(Arc::clone(&disk));
    let (eval, snap) = Evaluation::run_engine_cached(corpus.clone(), jobs, &caches);
    (eval, snap, Some(disk.counters()))
}

/// Seeds the open `disk` with two damaged `ast` entries, met on load:
/// one another build wrote, and one whose truncated ZAST payload fails to
/// decode.
fn seed_damaged(corpus: &Corpus, disk: &DiskCache) {
    let files = corpus.plugins()[0].project(Version::V2014).files();
    let key = |i: usize| ContentKey::of(files[i].content.as_bytes());
    assert!(disk.store(AST_NAMESPACE, key(0), 0, b"another build's entry"));
    let name = format!("{:016x}-{:x}.psc", key(0).hash, key(0).len);
    let entry = disk.root().join(AST_NAMESPACE).join(name);
    let mut sealed = std::fs::read(&entry).unwrap();
    sealed[4..12].copy_from_slice(&0u64.to_le_bytes()); // the build stamp
    std::fs::write(&entry, sealed).unwrap();
    let zast = php_ast::zast::encode_file(&php_ast::parse(&files[1].content));
    assert!(disk.store(AST_NAMESPACE, key(1), 0, &zast[..zast.len() / 2]));
}

/// Analyze, edit, invalidate, analyze: a daemon session over `cache` on a
/// copy of the first 2014 plugin written under `root`.
fn daemon_session(corpus: &Corpus, root: &Path, cache: &Path) {
    let plugin = corpus.plugins()[0].project(Version::V2014);
    let dir = write_project(plugin, &root.join("plugins"));
    let daemon = start(disk_server(cache, 1).1);
    reports_of(&ask(&daemon, &analyze_line(&dir, &[], &[])));
    let edited = dir.join(&plugin.files()[0].path);
    let content = std::fs::read_to_string(&edited).unwrap();
    std::fs::write(&edited, content + "\n// matrix session edit\n").unwrap();
    result_of(&ask(&daemon, &invalidate_line(&edited)));
    reports_of(&ask(&daemon, &analyze_line(&dir, &[], &[])));
    stop(&daemon);
}

#[test]
fn every_configuration_renders_the_golden_artifacts() {
    let _obs = obs_lock();
    let (corpus, shared, root) = (Corpus::generate(), EngineCaches::new(), temp_dir("matrix"));
    let jobs = 6 * corpus.plugins().len() as u64;
    for &(row, obs, run) in MATRIX {
        phpsafe_obs::set_enabled(obs);
        let (eval, snap, disk) = run_row(&corpus, &shared, &root, run);
        phpsafe_obs::set_enabled(false);
        assert_goldens(row, &artifacts(&eval));

        // Counters record only while instrumentation is on.
        let count = |name| snap.counter(name);
        if obs && !matches!(run, Run::Serial) {
            assert_eq!(count("engine.jobs_run"), jobs, "{row}");
        }
        if obs {
            // One queue-wait sample per job the pool picked up.
            let waits = snap.histogram("engine.queue_wait").map_or(0, |h| h.count);
            assert_eq!(waits, count("engine.jobs_run"), "{row}");
        }
        if obs && matches!(run, Run::Fresh(_) | Run::Shared(_)) {
            // 3 tools x 2 versions share most file contents, so the parse
            // cache must show reuse, and leaf summaries carry across versions.
            let (hits, misses) = (count("cache.parse.hits"), count("cache.parse.misses"));
            assert!(hits > misses, "{row}: {hits} parse hits / {misses} misses");
            assert!(count("cache.summary.hits") > 0, "{row}");
        }
        match (run, disk) {
            (Run::DiskWarm(_), Some(dc)) => {
                assert!(!obs || count("parse.files") == 0, "{row} parsed a file");
                assert!(dc.hits > 0 && dc.bytes_read > 0, "{row}: {dc:?}");
                assert_eq!((dc.corrupt, dc.evicted), (0, 0), "{row}: {dc:?}");
            }
            // The other build's entry counts as stale, never as corrupt;
            // the truncated payload counts as corrupt.
            (Run::DiskDamaged(_), Some(dc)) => {
                assert!(dc.evicted >= 1 && dc.corrupt >= 1, "{row}: {dc:?}");
            }
            _ => {}
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn explain_chains_render_the_golden_under_every_load_path() {
    let _obs = obs_lock();
    let (tool, probe) = (PhpSafe::new(), probe_project());
    let golden = |row: &str, text: String| assert_goldens(row, &[("explain-probe.txt", text)]);
    let first = explain(&tool, &probe, None);
    assert!(first.contains("source $_GET") && first.contains("reaches"));
    golden("cold", first);
    // A warm interner and freshly built arenas print the same chains.
    golden("repeated", explain(&tool, &probe, None));

    // Decoded from disk: a seeding run writes every AST, and a new cache
    // over the same dir decodes them all instead of parsing.
    let cold = tool.analyze(&probe).to_json().unwrap();
    let root = temp_dir("explain");
    let ast_cache = root.join("ast-cache");
    let caches = || EngineCaches::with_disk(Arc::new(DiskCache::open(&ast_cache).unwrap()));
    let seeded = tool.analyze_with_caches(&probe, Some(&caches()));
    assert_eq!(seeded.to_json().unwrap(), cold, "disk-backed run diverged");
    let decoding = caches();
    phpsafe_obs::set_enabled(true);
    let before = phpsafe_obs::snapshot();
    let (outcome, events) = tool.analyze_explained(&probe, Some(&decoding));
    let parsed = phpsafe_obs::snapshot()
        .since(&before)
        .counter("parse.files");
    phpsafe_obs::set_enabled(false);
    assert_eq!(outcome.to_json().unwrap(), cold, "decoded run diverged");
    golden("decoded", explain_outcome(&outcome, &events));
    assert_eq!(parsed, 0, "the warm run must decode every file");
    let dc = decoding.disk().unwrap().counters();
    let files = probe.files().len() as u64;
    assert!(dc.hits >= files && dc.bytes_read > 0, "{dc:?}");
    assert_eq!((dc.corrupt, dc.evicted), (0, 0), "{dc:?}");

    // Invalidate-warmed: a daemon edits the library away and back, and
    // each state explains the same from its warmed caches as cold.
    let dir = write_project(&probe, &root.join("plugins"));
    let server = Arc::new(disk_server(&root.join("daemon-cache"), 1).1);
    let daemon = start(Arc::clone(&server));
    reports_of(&ask(&daemon, &analyze_line(&dir, &[], &[])));
    let lib = dir.join("probe_lib.php");
    let original = std::fs::read_to_string(&lib).unwrap();
    let sanitized = original.replace("'<b>' . $x . '</b>'", "htmlentities($x)");
    for content in [&sanitized, &original] {
        std::fs::write(&lib, content).unwrap();
        result_of(&ask(&daemon, &invalidate_line(&lib)));
        let project = load_project(&dir).unwrap();
        let warmed = explain(&tool, &project, Some(server.caches()));
        assert_eq!(explain(&tool, &project, None), warmed, "warming drifted");
        if content == &original {
            golden("invalidate-warmed", warmed);
        }
    }
    stop(&daemon);

    // The registry restricted to the paper's two classes explains the
    // probe and the first vulnerable 2014 corpus plugin byte for byte.
    let restricted = PhpSafe::new().with_config(tool.config().restricted_to(&VulnClass::PAPER));
    golden("restricted", explain(&restricted, &probe, None));
    let corpus = Corpus::generate();
    let mut projects = corpus.plugins().iter().map(|p| p.project(Version::V2014));
    let plugin = projects.find(|p| !tool.analyze(p).vulns.is_empty());
    for (row, tool) in [("cold", &tool), ("restricted", &restricted)] {
        let text = explain(tool, plugin.unwrap(), None);
        // The `[slug ← labels]` tag is reserved for extension classes.
        assert!(!text.contains('←'), "{row}: taxonomy tag on a paper class");
        assert_goldens(row, &[("explain-corpus.txt", text)]);
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The JSON documents the tools write, byte for byte: each (tool,
/// version) cell's 35 reports (serial, uncached) and `corpus-dump`'s
/// ground truth as digests in `reports.txt`, and the probe's `--inspect`
/// inventory in full. Capturing taint events and restricting the registry
/// to the paper's classes may not change any phpSAFE outcome.
#[test]
fn json_documents_render_their_goldens() {
    let _obs = obs_lock();
    let corpus = Corpus::generate();
    let full = PhpSafe::new();
    let restricted = PhpSafe::new().with_config(full.config().restricted_to(&VulnClass::PAPER));
    let mut text = String::new();
    let mut digest = |what: &str, doc: &str| {
        let hash = ContentKey::of(doc.as_bytes()).hash;
        writeln!(text, "{what} bytes={} digest={hash:016x}", doc.len()).unwrap();
    };
    for tool in paper_tools() {
        for version in Version::ALL {
            let mut reports = String::new();
            for project in corpus.plugins().iter().map(|p| p.project(version)) {
                let outcome = tool.analyze(project);
                if tool.name() == "phpSAFE" {
                    let (explained, _) = full.analyze_explained(project, None);
                    assert_eq!(explained, outcome, "events changed {}", project.name());
                    let paper = restricted.analyze(project);
                    assert_eq!(paper, outcome, "registry changed {}", project.name());
                }
                reports += &outcome.to_json().unwrap();
            }
            digest(&format!("{} {version:?}", tool.name()), &reports);
        }
    }
    let truth: Vec<_> = corpus.plugins().iter().flat_map(|p| &p.truth).collect();
    digest(
        "ground_truth.json",
        &serde_json::to_string_pretty(&truth).unwrap(),
    );
    let inventory = serde_json::to_string_pretty(&phpsafe::inspect(&probe_project())).unwrap();
    assert_goldens(
        "json",
        &[("reports.txt", text), ("inspect-probe.json", inventory)],
    );
}

/// Summary hits and misses of a cold then a warm pass over both versions
/// at one worker, and the work of each pass: a different content digest
/// may rename cache entries, never change which lookups hit.
#[test]
fn warm_pass_serves_the_same_summaries_and_work() {
    let _obs = obs_lock();
    let corpus = Corpus::generate();
    let caches = EngineCaches::new();
    let mut got = Vec::new();
    for _pass in ["cold", "warm"] {
        let before = caches.totals().summary;
        let (eval, _) = Evaluation::run_engine_cached(corpus.clone(), 1, &caches);
        let after = caches.totals().summary;
        let work: u64 = eval.cells().iter().map(|c| c.work_units).sum();
        got.push((after.hits - before.hits, after.misses - before.misses, work));
    }
    assert_eq!(got, [(23_224, 1_027, 769_554), (23_860, 391, 769_554)]);
}

#[test]
fn distinct_contents_and_projects_get_distinct_keys() {
    let _obs = obs_lock();
    let corpus = Corpus::generate();
    let mut files: HashMap<ContentKey, &str> = HashMap::new();
    let mut projects: HashMap<ContentKey, &PluginProject> = HashMap::new();
    for project in all_projects(&corpus) {
        for (file, &key) in project.files().iter().zip(project.file_keys()) {
            let content = file.content.as_str();
            assert_eq!(key, ContentKey::of(content.as_bytes()), "{}", file.path);
            let seen = files.entry(key).or_insert(content);
            assert_eq!(*seen, content, "file key collision at {key:?}");
        }
        let seen = projects.entry(project.content_key()).or_insert(project);
        assert_eq!(*seen, project, "project key collision");
    }
    // Most files are byte-identical between versions; the rest must not
    // have collapsed onto shared keys.
    assert!(files.len() > corpus.plugins().len(), "{}", files.len());
    assert_eq!(projects.len(), 2 * corpus.plugins().len());
}

/// `--explain` over many plugins at once: each analysis explains from its
/// own taint events, so each plugin's chains through one shared cache set,
/// at any worker count, equal the chains of analyzing it alone.
#[test]
fn explain_chains_match_single_plugin_runs_at_any_worker_count() {
    let _obs = obs_lock();
    let (corpus, tool) = (Corpus::generate(), PhpSafe::new());
    let projects = all_projects(&corpus);
    let explain = |caches: &EngineCaches, project: &PluginProject| {
        let (outcome, events) = tool.analyze_explained(project, Some(caches));
        explain_outcome(&outcome, &events)
    };
    let alone = |p: &&PluginProject| explain(&EngineCaches::new(), p);
    let alone: Vec<String> = projects.iter().map(alone).collect();
    assert!(alone.iter().any(|text| text.contains("reaches sink")));
    for workers in [1, 8] {
        let caches = EngineCaches::new();
        let (shared, _) = run_ordered(projects.clone(), workers, |_, p| explain(&caches, p));
        for ((a, b), project) in alone.iter().zip(&shared).zip(&projects) {
            assert_eq!(a, b, "{} differs at {workers} workers", project.name());
        }
    }
}

/// The files an edit of each single file of both corpus versions affects,
/// computed by the function `invalidate` calls over the file units, equal
/// `affected.txt`, which an earlier build wrote from the dependency graph
/// its analyzer stored per project.
#[test]
fn one_file_edits_affect_the_golden_sets() {
    let _obs = obs_lock();
    let (corpus, caches) = (Corpus::generate(), EngineCaches::new());
    let mut text = String::new();
    for version in Version::ALL {
        for plugin in corpus.plugins() {
            let project = plugin.project(version);
            let files = project.files().iter().zip(project.file_keys());
            let units: Vec<(&str, Arc<FileUnit>)> = files
                .map(|(f, &key)| (f.path.as_str(), caches.ast().unit(&f.content, key)))
                .collect();
            for &(path, _) in &units {
                let affected = affected_files(&units, &units, &[path]).join(" ");
                writeln!(text, "{version:?} {} {path}: {affected}", project.name()).unwrap();
            }
        }
    }
    assert_goldens("units", &[("affected.txt", text)]);
}

/// Each of repeated one-file edits on the 2014 corpus re-parses under 5%
/// of its files, and every reply stays byte-identical to a batch run.
#[test]
fn single_file_edit_invalidates_under_five_percent_and_stays_byte_identical() {
    let _obs = obs_lock();
    let (corpus, root) = (Corpus::generate(), temp_dir("edit"));
    let dirs = dump_2014(&corpus, &root.join("plugins"));
    let size = |p: &GeneratedPlugin| p.project(Version::V2014).files().len();
    let sizes: Vec<usize> = corpus.plugins().iter().map(size).collect();
    let total_files: usize = sizes.iter().sum();
    let daemon = start(disk_server(&root.join("cache"), 1).1);
    let analyze = |dir: &Path| ask(&daemon, &analyze_line(dir, &[], &[]));
    let cold: Vec<Vec<String>> = dirs.iter().map(|d| reports_of(&analyze(d))).collect();

    // Edit one file of the largest plugin: an appended comment keeps it
    // valid PHP and changes its content key.
    let victim = (0..dirs.len()).max_by_key(|&i| sizes[i]).unwrap();
    let edited = dirs[victim].join(&load_project(&dirs[victim]).unwrap().files()[0].path);
    let pristine = std::fs::read_to_string(&edited).unwrap();
    for cycle in 0..3 {
        let edit = format!("{pristine}\n// touched by incremental test, edit {cycle}\n");
        std::fs::write(&edited, edit).unwrap();
        let result = result_of(&ask(&daemon, &invalidate_line(&edited)));
        let projects = result.get("projects").and_then(Json::as_arr).unwrap();
        assert_eq!(projects.len(), 1, "one root affected: {result:?}");
        let num = |k: &str| projects[0].get(k).and_then(Json::as_num).unwrap() as usize;
        assert_eq!(num("dirty"), 1, "edit {cycle}: {result:?}");
        assert_eq!(projects[0].get("reanalyzed"), Some(&Json::Bool(true)));
        let (affected, reparsed) = (num("affected"), num("reparsed"));
        assert!(affected >= 1, "the edited file is always affected");
        // Both the graph's affected set and the measured re-parses stay
        // under 5% of the corpus's files.
        assert!(affected * 20 < total_files, "{cycle}: {result:?}");
        assert!(reparsed * 20 < total_files, "{cycle}: {result:?}");

        // The invalidate already stored the new outcome: the next analyze
        // is a pure hit, byte-identical to a batch run over the edit.
        let warm = analyze(&dirs[victim]);
        assert!(fully_cached(&warm), "edit {cycle} was not pre-warmed");
        let batch = PhpSafe::new().analyze(&load_project(&dirs[victim]).unwrap());
        assert_eq!(reports_of(&warm), [batch.to_json().unwrap()], "{cycle}");

        // Untouched plugins still answer from cache, bytes unchanged.
        for i in (0..3).filter(|&i| i != victim) {
            let reply = analyze(&dirs[i]);
            assert!(fully_cached(&reply), "edit {cycle}: {i} lost its cache");
            assert_eq!(reports_of(&reply), cold[i]);
        }
    }
    stop(&daemon);
    let _ = std::fs::remove_dir_all(&root);
}

/// Daemon replies equal batch reports: cold, after a restart over the
/// same cache dir (every reply from disk), and after the second half of
/// every cache file was overwritten (every reply re-analyzed, the damage
/// counted).
#[test]
fn daemon_matches_batch_cold_after_restart_and_over_a_garbled_cache() {
    let _obs = obs_lock();
    let root = temp_dir("restart");
    let dirs = dump_2014(&Corpus::generate(), &root.join("plugins"));
    let (cache, tool) = (root.join("cache"), PhpSafe::new());
    let batch = |dir: &PathBuf| tool.analyze(&load_project(dir).unwrap()).to_json().unwrap();
    let batch: Vec<String> = dirs.iter().map(batch).collect();
    for phase in ["cold", "restart", "garbled"] {
        if phase == "garbled" {
            let namespaces = std::fs::read_dir(&cache).unwrap();
            for entry in namespaces.flat_map(|ns| std::fs::read_dir(ns.unwrap().path()).unwrap()) {
                let path = entry.unwrap().path();
                let mut bytes = std::fs::read(&path).unwrap();
                let half = bytes.len() / 2;
                bytes[half..].fill(0xFF);
                std::fs::write(&path, &bytes).unwrap();
            }
        }
        let (disk, server) = disk_server(&cache, 2);
        let daemon = start(server);
        for (dir, batch) in dirs.iter().zip(&batch) {
            let reply = ask(&daemon, &analyze_line(dir, &[], &[]));
            assert_eq!(reports_of(&reply), [batch.as_str()], "{phase} {dir:?}");
            assert_eq!(fully_cached(&reply), phase == "restart", "{phase} {dir:?}");
        }
        stop(&daemon);
        let dc = disk.counters();
        assert!(phase != "restart" || dc.hits > 0, "{dc:?}");
        assert!(phase != "garbled" || dc.corrupt > 0, "{dc:?}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A daemon restarted over a warm cache dir, whose analyze of a root is
/// fully cached, answers an edit's `invalidate` with the `dirty` and
/// `affected` of a daemon that never restarted: the units of the root's
/// previous contents come from the AST tier by key.
#[test]
fn invalidate_after_a_restart_affects_the_same_files() {
    let _obs = obs_lock();
    let root = temp_dir("restart-edit");
    let corpus = Corpus::generate();
    let plugin = corpus.plugins()[0].project(Version::V2014);
    let mut counts = Vec::new();
    for restart in [false, true] {
        let dir = write_project(plugin, &root.join(format!("plugins-{restart}")));
        let cache = root.join(format!("cache-{restart}"));
        let mut daemon = start(disk_server(&cache, 1).1);
        reports_of(&ask(&daemon, &analyze_line(&dir, &[], &[])));
        if restart {
            stop(&daemon);
            daemon = start(disk_server(&cache, 1).1);
            assert!(fully_cached(&ask(&daemon, &analyze_line(&dir, &[], &[]))));
        }
        let edited = dir.join("includes/functions.php");
        let content = std::fs::read_to_string(&edited).unwrap();
        std::fs::write(&edited, content + "\n// restart edit\n").unwrap();
        let result = result_of(&ask(&daemon, &invalidate_line(&edited)));
        let project = &result.get("projects").and_then(Json::as_arr).unwrap()[0];
        let num = |k: &str| project.get(k).and_then(Json::as_num).unwrap();
        counts.push((num("dirty"), num("affected")));
        stop(&daemon);
    }
    // The main file includes the edited one; the other ten files are not
    // affected, so the count is not the "every file" fallback.
    assert_eq!(counts, [(1.0, 2.0), (1.0, 2.0)]);
    let _ = std::fs::remove_dir_all(&root);
}

/// RIPS and Pixy are `PhpSafe` configurations: registered as such, each
/// tool's outcome-tier entry is guarded by its own config fingerprint, so
/// a repeated request never returns another tool's report.
#[test]
fn daemon_dispatches_all_three_paper_tools() {
    let _obs = obs_lock();
    let (corpus, root) = (Corpus::generate(), temp_dir("tools"));
    let dir = write_project(corpus.plugins()[0].project(Version::V2014), &root);
    let (_, mut server) = disk_server(&root.join("cache"), 2);
    server.register("RIPS", Rips::new().engine().clone());
    server.register("Pixy", Pixy::new().engine().clone());
    let daemon = start(server);
    let (project, caches) = (load_project(&dir).unwrap(), EngineCaches::new());
    let tools = paper_tools();
    let direct: Vec<String> = tools
        .iter()
        .map(|t| t.analyze_cached(&project, &caches).to_json().unwrap())
        .collect();
    let line = analyze_line(&dir, &["phpSAFE", "RIPS", "Pixy"], &[]);
    for pass in ["cold", "repeated"] {
        let reply = ask(&daemon, &line);
        assert_eq!(reports_of(&reply), direct, "{pass}");
        // Each tool keeps its own outcome entry, so a repeat is all hits.
        assert_eq!(fully_cached(&reply), pass == "repeated", "{pass}");
    }
    stop(&daemon);
    let _ = std::fs::remove_dir_all(&root);
}

/// An unsaved buffer analyzes exactly like the saved edit, hits the cache
/// when repeated, and dropping it falls back to the on-disk contents.
#[test]
fn dirty_buffer_overlay_is_byte_identical_to_saving_the_edit() {
    let _obs = obs_lock();
    let root = temp_dir("buffer");
    let edited = "<?php echo htmlentities($_GET['q']);\n";
    let save = |parent: &str, content: &str| {
        let project = PluginProject::new("probe").with_file(SourceFile::new("index.php", content));
        write_project(&project, &root.join(parent))
    };
    let plugin = save("plugins", "<?php echo $_GET['q'];\n");
    let daemon = start(disk_server(&root.join("cache"), 1).1);
    let analyze = |buffers: &[(String, String)]| ask(&daemon, &analyze_line(&plugin, &[], buffers));
    let cold = reports_of(&analyze(&[]));

    let path = plugin.join("index.php").display().to_string();
    let buffers = [(path, edited.to_owned())];
    let overlaid = analyze(&buffers);
    assert!(!fully_cached(&overlaid), "new buffer contents must analyze");
    // Reference: the same edit saved to a directory of the same name.
    let batch = PhpSafe::new().analyze(&load_project(&save("alt", edited)).unwrap());
    assert_eq!(reports_of(&overlaid), [batch.to_json().unwrap()]);

    // Keyed on effective contents: the same buffers hit the cache.
    let again = analyze(&buffers);
    assert!(fully_cached(&again), "same buffers must hit the cache");
    assert_eq!(reports_of(&again), reports_of(&overlaid));
    let disk_again = analyze(&[]);
    assert!(fully_cached(&disk_again));
    assert_eq!(reports_of(&disk_again), cold);
    stop(&daemon);
    let _ = std::fs::remove_dir_all(&root);
}

/// A buffer whose non-BMP characters the client escaped as UTF-16
/// surrogate pairs, as Python's default `json.dumps` does, analyzes
/// exactly like the same edit saved to disk.
#[test]
fn surrogate_pair_escaped_buffer_is_byte_identical_to_saving_the_edit() {
    let _obs = obs_lock();
    let root = temp_dir("surrogates");
    let edited = "<?php $greet = '😀 ' . $_GET['q'];\necho $greet;\n";
    let save = |parent: &str, content: &str| {
        let project = PluginProject::new("probe").with_file(SourceFile::new("index.php", content));
        write_project(&project, &root.join(parent))
    };
    let plugin = save("plugins", "<?php echo 1;\n");
    let path = plugin.join("index.php").display().to_string();
    let line = analyze_line(&plugin, &[], &[(path, edited.to_owned())]);
    let escaped = line.replace('😀', r"\ud83d\ude00");
    assert_ne!(escaped, line);

    let daemon = start(AnalysisServer::new());
    let overlaid = reports_of(&ask(&daemon, &escaped));
    stop(&daemon);
    let batch = PhpSafe::new().analyze(&load_project(&save("alt", edited)).unwrap());
    let batch = batch.to_json().unwrap();
    assert!(
        batch.contains("😀"),
        "the report must quote the edit: {batch}"
    );
    assert_eq!(overlaid, [batch]);
    let _ = std::fs::remove_dir_all(&root);
}

/// A cache dir that cannot be opened (here a regular file, which fails
/// even for root) degrades to memory-only caches: the failure is counted,
/// the daemon still answers and reports the counter, and the reports equal
/// a run without a cache.
#[test]
fn unusable_cache_dir_degrades_to_memory_caches() {
    let _obs = obs_lock();
    phpsafe_obs::set_enabled(true);
    let root = temp_dir("unusable-cache");
    let not_a_dir = root.join("cache");
    std::fs::write(&not_a_dir, "a regular file").unwrap();
    let failed = || phpsafe_obs::snapshot().counter("diskcache.open_failed");
    let before = failed();
    let caches = EngineCaches::open(&not_a_dir);
    assert!(caches.disk().is_none());
    assert_eq!(failed(), before + 1);

    let dir = write_project(&probe_project(), &root.join("plugins"));
    let (project, tool) = (load_project(&dir).unwrap(), PhpSafe::new());
    let batch = tool.analyze(&project).to_json().unwrap();
    let cached = tool.analyze_with_caches(&project, Some(&caches));
    assert_eq!(cached.to_json().unwrap(), batch);
    let daemon = start(AnalysisServer::with_caches(caches));
    let reply = ask(&daemon, &analyze_line(&dir, &[], &[]));
    assert_eq!(reports_of(&reply), [batch]);
    let metrics = phpsafe_serve::parse(&ask(&daemon, r#"{"cmd":"metrics"}"#)).unwrap();
    let reported = metrics
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("diskcache.open_failed"))
        .and_then(Json::as_num);
    assert_eq!(reported, Some(failed() as f64));
    stop(&daemon);
    let _ = std::fs::remove_dir_all(&root);
}

/// Every distinct file of both corpus versions survives a ZAST encode and
/// decode unchanged.
#[test]
fn zast_round_trips_every_corpus_file() {
    let _obs = obs_lock();
    let corpus = Corpus::generate();
    let mut seen = HashSet::new();
    for f in all_projects(&corpus)
        .into_iter()
        .flat_map(PluginProject::files)
    {
        if seen.insert(ContentKey::of(f.content.as_bytes())) {
            let parsed = php_ast::parse(&f.content);
            let zast = php_ast::zast::encode_file(&parsed);
            let decoded = php_ast::zast::decode(&zast);
            assert_eq!(decoded.as_ref(), Ok(&parsed), "{}", f.path);
        }
    }
    assert!(seen.len() > corpus.plugins().len());
}

/// Digest lines of every `(php_name, text, line)` that `tokenize` yields:
/// one per corpus version, and one per front-end stress mutation kind over
/// fixed files, offsets and sizes (byte flips reach non-ASCII input, which
/// the corpus itself never holds).
fn token_digests(corpus: &Corpus) -> String {
    fn record(sources: &[String]) -> String {
        let bytes: usize = sources.iter().map(String::len).sum();
        let (mut buf, mut tokens) = (Vec::with_capacity(8 * bytes), 0);
        for src in sources {
            for t in php_lexer::tokenize(src) {
                buf.extend_from_slice(t.kind.php_name().as_bytes());
                buf.extend_from_slice(&t.line.to_le_bytes());
                buf.extend_from_slice(&(t.text.len() as u32).to_le_bytes());
                buf.extend_from_slice(t.text.as_bytes());
                tokens += 1;
            }
        }
        let key = ContentKey::of(&buf);
        format!(
            "files={} tokens={tokens} digest={:016x}",
            sources.len(),
            key.hash
        )
    }
    let mut out = String::new();
    let sources = |v| {
        let files = corpus.plugins().iter().flat_map(|p| p.project(v).files());
        files.map(|f| f.content.clone()).collect::<Vec<_>>()
    };
    for version in Version::ALL {
        writeln!(out, "corpus {version:?} {}", record(&sources(version))).unwrap();
    }
    let all: Vec<String> = Version::ALL.into_iter().flat_map(sources).collect();
    for kind in 0..phpsafe_corpus::MUTATION_KINDS {
        // A fixed linear congruential walk picks the mutants.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64 ^ u64::from(kind);
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 11
        };
        let mutants: Vec<String> = (0..32)
            .map(|_| {
                let file = &all[next() as usize % all.len()];
                let (at, arg) = (next(), 1 + next() as usize % 2047);
                phpsafe_corpus::mutate(file, kind, at, arg)
            })
            .collect();
        assert!(kind != 1 || mutants.iter().any(|m| !m.is_ascii()));
        writeln!(out, "mutation {kind} {}", record(&mutants)).unwrap();
    }
    out
}

/// The lexer's token stream over the corpus and its stress mutants is
/// pinned by `tokens.txt`.
#[test]
fn token_streams_render_their_golden() {
    let _obs = obs_lock();
    let text = token_digests(&Corpus::generate());
    assert_goldens("lexer", &[("tokens.txt", text)]);
}
