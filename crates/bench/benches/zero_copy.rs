//! `zero_copy` — what the ZAST v2 borrowed-view warm path buys:
//!
//! 1. **Load paths**: on the largest 2014-corpus file, a cold
//!    lex-and-parse vs the ZAST v2 validate-and-thaw (one bounds-checked
//!    validation pass over the `Arc<[u8]>` payload, then a bulk pool
//!    relocation). Both must produce the same [`php_ast::ParsedFile`].
//! 2. **Warm daemon request**: a fresh server process (cold memory) over a
//!    populated `--cache-dir` answers one analyze request from the
//!    outcome tier; best-of-N must stay under 5 ms.
//!
//! Results are printed; the repository's recorded figures come from
//! `perfbench` (see `perfbench/README.md`).
//!
//! Run: `cargo bench -p phpsafe-bench --bench zero_copy [-- --smoke]`

use phpsafe::{AnalysisServer, EngineCaches};
use phpsafe_corpus::{Corpus, Version};
use phpsafe_engine::DiskCache;
use phpsafe_serve::{AnalyzeRequest, Json, RequestCtx, Service};
use std::sync::Arc;
use std::time::Instant;

/// Median wall time of `iters` runs of `f`, in microseconds.
fn time_us(iters: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_micros() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The largest source file (by bytes) across the 2014 corpus.
fn largest_corpus_file() -> (String, String) {
    let corpus = Corpus::generate();
    let mut best: Option<(String, String)> = None;
    for plugin in corpus.plugins() {
        for f in plugin.project(Version::V2014).files() {
            if best.as_ref().is_none_or(|(_, c)| f.content.len() > c.len()) {
                best = Some((f.path.clone(), f.content.clone()));
            }
        }
    }
    best.expect("corpus has files")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let root = std::env::temp_dir().join(format!("phpsafe-zero-copy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    let iters = if smoke { 20 } else { 200 };

    // --- 1. load paths on the largest corpus file ---
    let (path, src) = largest_corpus_file();
    let parsed = php_ast::parse(&src);
    let zast: Arc<[u8]> = Arc::from(php_ast::zast::encode_file(&parsed));

    let view = php_ast::zast::ParsedFileRef::new(Arc::clone(&zast)).expect("ZAST validates");
    assert_eq!(view.thaw(), parsed, "ZAST thaw must reproduce the parse");

    let parse_us = time_us(iters, || {
        std::hint::black_box(php_ast::parse(&src));
    });
    let borrow_us = time_us(iters, || {
        let view = php_ast::zast::ParsedFileRef::new(Arc::clone(&zast)).unwrap();
        std::hint::black_box(view.thaw());
    });
    println!(
        "load paths ({path}, {} bytes, {} nodes): parse={parse_us}us borrow={borrow_us}us",
        src.len(),
        parsed.arena.node_count(),
    );

    // --- 2. warm daemon request: cold memory, warm disk ---
    let cache_dir = root.join("cache");
    let plugin_dir = root.join("plugin");
    {
        let corpus = Corpus::generate();
        let project = corpus.plugins()[0].project(Version::V2014);
        for f in project.files() {
            let p = plugin_dir.join(&f.path);
            std::fs::create_dir_all(p.parent().unwrap()).unwrap();
            std::fs::write(&p, &f.content).unwrap();
        }
    }
    let req = AnalyzeRequest {
        paths: vec![plugin_dir.display().to_string()],
        tools: Vec::new(),
        jobs: Some(1),
        buffers: Vec::new(),
    };
    let open_server = || {
        let disk = Arc::new(DiskCache::open(&cache_dir).unwrap());
        AnalysisServer::with_caches(EngineCaches::with_disk(disk)).with_default_jobs(1)
    };
    // Seed the outcome/AST/summary tiers and keep the cold reports.
    let cold_response = open_server()
        .analyze(&RequestCtx::detached(), &req)
        .unwrap();
    let mut warm_samples_us: Vec<u64> = Vec::new();
    let warm_iters = if smoke { 5 } else { 20 };
    for _ in 0..warm_iters {
        let server = open_server(); // fresh process-equivalent: cold memory
        let t = Instant::now();
        let warm = server.analyze(&RequestCtx::detached(), &req).unwrap();
        warm_samples_us.push(t.elapsed().as_micros() as u64);
        assert_eq!(
            warm.get("fully_cached"),
            Some(&Json::Bool(true)),
            "warm request must answer from the outcome tier"
        );
        assert_eq!(
            warm.get("reports"),
            cold_response.get("reports"),
            "warm reports diverged from cold"
        );
    }
    warm_samples_us.sort_unstable();
    let warm_best_us = warm_samples_us[0];
    let warm_median_us = warm_samples_us[warm_samples_us.len() / 2];
    println!("warm daemon request: best={warm_best_us}us median={warm_median_us}us");
    assert!(
        warm_best_us < 5_000,
        "cold-memory/warm-disk request must answer in under 5ms, took {warm_best_us}us"
    );

    let _ = std::fs::remove_dir_all(&root);
}
