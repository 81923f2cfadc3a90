//! Helpers of the golden-artifact harness (`tests/invariance.rs`): the
//! golden artifacts of an evaluation and their comparison with
//! `tests/golden/`, the probe plugin, corpus dumps and daemon requests.

use phpsafe::{AnalysisServer, EngineCaches, PhpSafe, PluginProject, SourceFile};
use phpsafe_corpus::{Corpus, GeneratedPlugin, Version};
use phpsafe_engine::{ContentKey, DiskCache};
use phpsafe_eval::{tables, Evaluation, RecallMode, TOOLS};
use phpsafe_serve::{parse, Daemon, Json, ServerConfig};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

/// Every golden artifact of one evaluation, as `(golden file, bytes)`.
/// The tables are `repro`'s output for the artifact of the same name;
/// `table1.csv` is the Table I half of `repro csv`.
pub fn artifacts(e: &Evaluation) -> Vec<(&'static str, String)> {
    let (paper, full) = (RecallMode::PaperOptimistic, RecallMode::FullGroundTruth);
    vec![
        ("table1.txt", tables::table1(e, paper)),
        ("table1-full.txt", tables::table1(e, full)),
        ("fig2.txt", tables::fig2(e)),
        ("table2.txt", tables::table2(e)),
        ("oop.txt", tables::oop_breakdown(e)),
        ("inertia.txt", tables::inertia(e)),
        ("rootcause.txt", tables::root_cause(e)),
        ("table1.csv", phpsafe_eval::table1_csv(e, paper)),
        ("cells.txt", cells(e)),
    ]
}

/// One line per (tool, version) cell: its counts, and digests of the
/// sorted detected ground-truth ids and of the false positives in report
/// order, so the line pins the whole cell but its wall-clock seconds.
fn cells(e: &Evaluation) -> String {
    let digest = |lines: Vec<String>| ContentKey::of(lines.join("\n").as_bytes()).hash;
    let mut out = String::new();
    for tool in TOOLS {
        for version in Version::ALL {
            let c = e.cell(tool, version);
            let mut ids: Vec<String> = c.detected.iter().cloned().collect();
            ids.sort_unstable();
            let fps: Vec<String> = c.false_positives.iter().map(|v| format!("{v:?}")).collect();
            writeln!(
                out,
                "{tool} {version:?} detected={} fp={} failed_resource={} \
                 failed_unsupported={} work_units={} ids={:016x} fps={:016x}",
                ids.len(),
                fps.len(),
                c.failed_resource,
                c.failed_unsupported,
                c.work_units,
                digest(ids),
                digest(fps),
            )
            .unwrap();
        }
    }
    out
}

/// Compares each artifact of `row` with its golden. A mismatch writes the
/// actual bytes to `$CARGO_TARGET_TMPDIR/golden/<row>-<artifact>` and
/// fails naming the row, the artifact, the first differing line and the
/// `cp` that re-blesses the golden.
pub fn assert_goldens(row: &str, artifacts: &[(&str, String)]) {
    let mut failures = Vec::new();
    for (artifact, actual) in artifacts {
        let golden_path = Path::new(GOLDEN_DIR).join(artifact);
        let golden = std::fs::read_to_string(&golden_path).unwrap();
        if golden == *actual {
            continue;
        }
        let actual_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
        std::fs::create_dir_all(&actual_path).unwrap();
        let actual_path = actual_path.join(format!("{row}-{artifact}"));
        std::fs::write(&actual_path, actual).unwrap();
        let (want, got): (Vec<_>, Vec<_>) =
            (golden.split('\n').collect(), actual.split('\n').collect());
        let same = want.iter().zip(&got).take_while(|(w, g)| w == g).count();
        let line = |text: &[&str]| {
            text.get(same)
                .map_or("<end of file>".into(), |l| format!("{l:?}"))
        };
        let (line_no, golden_line, actual_line) = (same + 1, line(&want), line(&got));
        let (from, to) = (actual_path.display(), golden_path.display());
        failures.push(format!(
            "row `{row}`: {artifact} differs from its golden at line {line_no}\n  \
             golden: {golden_line}\n  actual: {actual_line}\n  to re-bless: cp {from} {to}"
        ));
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// A probe with findings, shareable leaf functions, an include edge and
/// a class, so every load path builds non-trivial arenas and
/// `explain-probe.txt` prints an expression at every step.
pub fn probe_project() -> PluginProject {
    PluginProject::new("golden-probe")
        .with_file(SourceFile::new(
            "probe_entry.php",
            "<?php
            include 'probe_lib.php';
            $id = $_GET['id'];
            echo probe_tag($id);
            $q = \"SELECT * FROM t WHERE id = '$id'\";
            mysql_query($q);
            class ProbePage { public $title;
                function show() { echo $this->title; } }
            $p = new ProbePage();
            $p->title = $_POST['t'];
            $p->show();
            ",
        ))
        .with_file(SourceFile::new(
            "probe_lib.php",
            "<?php
            function probe_tag($x) { return '<b>' . $x . '</b>'; }
            function probe_leaf($a, $b) { $s = strtolower($a) . trim($b); return $s; }
            function probe_leaf2($v) { if (is_array($v)) { return count($v); } return strlen($v); }
            function probe_hook() { return probe_leaf('a', 'b'); }
            ",
        ))
}

/// The `--explain` provenance chains of `project` under `tool`.
pub fn explain(tool: &PhpSafe, project: &PluginProject, caches: Option<&EngineCaches>) -> String {
    let (outcome, events) = tool.analyze_explained(project, caches);
    assert!(!outcome.vulns.is_empty(), "no findings to explain");
    phpsafe::explain_outcome(&outcome, &events)
}

/// A fresh directory for one test.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let dir = dir.join(format!("invariance-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `project` under `root/<project name>` and returns that dir.
pub fn write_project(project: &PluginProject, root: &Path) -> PathBuf {
    let dir = root.join(project.name());
    for f in project.files() {
        let path = dir.join(&f.path);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &f.content).unwrap();
    }
    dir
}

/// Every project of the corpus: each plugin's 2012 snapshot, then each
/// plugin's 2014 snapshot.
pub fn all_projects(corpus: &Corpus) -> Vec<&PluginProject> {
    let of = |v| corpus.plugins().iter().map(move |p| p.project(v));
    Version::ALL.into_iter().flat_map(of).collect()
}

/// Writes every 2014 plugin under `root`; their dirs in corpus order.
pub fn dump_2014(corpus: &Corpus, root: &Path) -> Vec<PathBuf> {
    let write = |p: &GeneratedPlugin| write_project(p.project(Version::V2014), root);
    corpus.plugins().iter().map(write).collect()
}

/// `text` as a JSON string literal.
fn quote(text: &str) -> String {
    Json::Str(text.to_owned()).emit()
}

/// An `analyze` request for `dir` running `tools` (none: the default
/// tool) with the unsaved `(path, content)` buffers overlaid.
pub fn analyze_line(dir: &Path, tools: &[&str], buffers: &[(String, String)]) -> String {
    let dir = quote(&dir.display().to_string());
    let tools: Vec<String> = tools.iter().map(|t| quote(t)).collect();
    let pair = |(p, c): &(String, String)| quote(p) + ":" + &quote(c);
    let buffers: Vec<String> = buffers.iter().map(pair).collect();
    let (tools, buffers) = (tools.join(","), buffers.join(","));
    format!(r#"{{"cmd":"analyze","paths":[{dir}],"tools":[{tools}],"buffers":{{{buffers}}}}}"#)
}

/// An `invalidate` request for one saved file.
pub fn invalidate_line(file: &Path) -> String {
    let file = quote(&file.display().to_string());
    format!(r#"{{"cmd":"invalidate","paths":[{file}]}}"#)
}

/// The `result` of a successful reply.
pub fn result_of(reply: &str) -> Json {
    let v = parse(reply).unwrap();
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{reply}");
    v.get("result").unwrap().clone()
}

/// The embedded report strings of an analyze reply.
pub fn reports_of(reply: &str) -> Vec<String> {
    let result = result_of(reply);
    let report = |item: &Json| {
        item.get("report")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned()
    };
    result
        .get("reports")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(report)
        .collect()
}

/// Whether an analyze reply came wholly from the outcome tier.
pub fn fully_cached(reply: &str) -> bool {
    result_of(reply).get("fully_cached") == Some(&Json::Bool(true))
}

/// A daemon service over a disk cache at `cache_dir` with `jobs` workers
/// per request, and that disk cache for its counters.
pub fn disk_server(cache_dir: &Path, jobs: usize) -> (Arc<DiskCache>, AnalysisServer) {
    let disk = Arc::new(DiskCache::open(cache_dir).unwrap());
    let server = AnalysisServer::with_caches(EngineCaches::with_disk(Arc::clone(&disk)));
    (disk, server.with_default_jobs(jobs))
}

/// A started daemon serving `server`.
pub fn start(server: impl Into<Arc<AnalysisServer>>) -> Arc<Daemon> {
    let server: Arc<AnalysisServer> = server.into();
    Daemon::start(server, ServerConfig::default())
}

/// Sends one request line and returns the reply line.
pub fn ask(daemon: &Daemon, line: &str) -> String {
    daemon.handle_line(line).0
}

/// Drains and joins `daemon`.
pub fn stop(daemon: &Daemon) {
    daemon.shutdown();
    daemon.join();
}
