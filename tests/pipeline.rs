//! Filesystem pipeline test: dump a corpus plugin to disk the way
//! `corpus-dump` does, load it back from disk the way the `phpsafe` CLI
//! does, and check the analysis is identical to the in-memory path — plus
//! JSON/HTML report round trips.

use phpsafe::{PhpSafe, PluginProject, SourceFile};
use phpsafe_corpus::{Corpus, Version};
use phpsafe_obs::json::{parse, Json};
use std::path::Path;

/// Unique-ish temp dir per test run.
fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("phpsafe-pipeline-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn write_project(root: &Path, project: &PluginProject) {
    for f in project.files() {
        let path = root.join(&f.path);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("mkdir");
        }
        std::fs::write(&path, &f.content).expect("write");
    }
}

fn read_project(root: &Path, name: &str) -> PluginProject {
    fn collect(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) {
        let mut entries: Vec<_> = std::fs::read_dir(dir)
            .expect("read_dir")
            .collect::<Result<_, _>>()
            .expect("entries");
        entries.sort_by_key(|e| e.path());
        for e in entries {
            let p = e.path();
            if p.is_dir() {
                collect(root, &p, out);
            } else if p.extension().and_then(|x| x.to_str()) == Some("php") {
                let rel = p
                    .strip_prefix(root)
                    .expect("prefix")
                    .to_string_lossy()
                    .replace('\\', "/");
                out.push(SourceFile::new(
                    rel,
                    std::fs::read_to_string(&p).expect("read"),
                ));
            }
        }
    }
    let mut files = Vec::new();
    collect(root, root, &mut files);
    files.sort_by(|a, b| a.path.cmp(&b.path));
    let mut project = PluginProject::new(name);
    for f in files {
        project.push_file(f);
    }
    project
}

#[test]
fn disk_round_trip_preserves_analysis() {
    let corpus = Corpus::generate();
    let plugin = corpus
        .plugins()
        .iter()
        .find(|p| p.name == "wp-symposium")
        .expect("plugin");
    let original = plugin.project(Version::V2014);

    let dir = temp_dir("roundtrip");
    write_project(&dir, original);
    let reloaded = read_project(&dir, original.name());

    assert_eq!(reloaded.files().len(), original.files().len());
    let a = PhpSafe::new().analyze(original);
    let b = PhpSafe::new().analyze(&reloaded);
    assert_eq!(a.vulns, b.vulns, "disk round trip must not change findings");
    assert_eq!(a.stats, b.stats);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn json_report_round_trips_through_disk() {
    let p = PluginProject::new("j").with_file(SourceFile::new(
        "j.php",
        "<?php echo $_GET['x']; $wpdb->query(\"DELETE FROM t WHERE a = '{$_POST['a']}'\");",
    ));
    let outcome = PhpSafe::new().analyze(&p);
    assert_eq!(outcome.vulns.len(), 2);

    let dir = temp_dir("json");
    let path = dir.join("report.json");
    let json = outcome.to_json().expect("serialize");
    std::fs::write(&path, &json).expect("write");
    let text = std::fs::read_to_string(&path).expect("read");
    assert_eq!(text, json);
    let loaded = parse(&text).expect("parse");
    let vulns = loaded.get("vulns").and_then(Json::as_arr).expect("vulns");
    assert_eq!(vulns.len(), 2);
    for (got, want) in vulns.iter().zip(&outcome.vulns) {
        let class = format!("{:?}", want.class);
        assert_eq!(
            got.get("class").and_then(Json::as_str),
            Some(class.as_str())
        );
        assert_eq!(
            got.get("line").and_then(Json::as_num),
            Some(f64::from(want.line))
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn html_report_written_to_disk_is_wellformed() {
    let p = PluginProject::new("h")
        .with_file(SourceFile::new("h.php", "<?php echo $_GET['<payload>'];"));
    let outcome = PhpSafe::new().analyze(&p);
    let html = phpsafe::render_html(&outcome);
    let dir = temp_dir("html");
    let path = dir.join("report.html");
    std::fs::write(&path, &html).expect("write");
    let loaded = std::fs::read_to_string(&path).expect("read");
    assert!(loaded.starts_with("<!DOCTYPE html>"));
    assert!(loaded.ends_with("</html>\n"));
    // balanced-ish structure
    assert_eq!(loaded.matches("<body>").count(), 1);
    assert_eq!(loaded.matches("</body>").count(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
