//! Cache keys over the whole corpus: the content digest must tell every
//! distinct file and project apart, and keying the caches with it must not
//! change what the summary cache serves or how much work an analysis does.

use std::collections::HashMap;

use phpsafe::{EngineCaches, PluginProject};
use phpsafe_corpus::{Corpus, Version};
use phpsafe_engine::ContentKey;
use phpsafe_eval::Evaluation;

#[test]
fn distinct_contents_and_projects_get_distinct_keys() {
    let corpus = Corpus::generate();
    let mut files: HashMap<ContentKey, &str> = HashMap::new();
    let mut projects: HashMap<ContentKey, &PluginProject> = HashMap::new();
    for plugin in corpus.plugins() {
        for version in Version::ALL {
            let project = plugin.project(version);
            for (file, &key) in project.files().iter().zip(project.file_keys()) {
                assert_eq!(
                    key,
                    ContentKey::of(file.content.as_bytes()),
                    "{}",
                    file.path
                );
                let seen = files.entry(key).or_insert(&file.content);
                assert_eq!(*seen, file.content, "file key collision at {key:?}");
            }
            let seen = projects.entry(project.content_key()).or_insert(project);
            assert_eq!(*seen, project, "project key collision");
        }
    }
    // Most files are byte-identical between versions; the rest must not
    // have collapsed onto shared keys.
    assert!(files.len() > corpus.plugins().len(), "{}", files.len());
    assert_eq!(projects.len(), 2 * corpus.plugins().len());
}

/// Summary hits and misses of a cold then a warm pass over both versions
/// at one worker, and the work of each pass. Pinned to the values the
/// FNV-1a keys gave: a different digest may rename entries, never change
/// which lookups hit.
#[test]
fn warm_pass_serves_the_same_summaries_and_work() {
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
