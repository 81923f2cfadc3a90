//! Measures the symbol-interning hot path introduced for the PR-3
//! perf work: how fast names intern (hit path), how much faster a
//! `Symbol`-keyed FNV map is than the `String`-keyed `SipHash` map it
//! replaced, and what the end-to-end serial analysis costs with the
//! copy-on-write environments in place. Run with
//! `cargo bench --bench interning`; counters (`intern.*`, `cow.*`)
//! print after the groups so the numbers land next to the timings.

use criterion::{criterion_group, criterion_main, Criterion};
use phpsafe_corpus::{Corpus, Version};
use phpsafe_intern::{fnv1a_64, FnvHashMap, Symbol};
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Duration;

fn corpus() -> &'static Corpus {
    static C: OnceLock<Corpus> = OnceLock::new();
    C.get_or_init(Corpus::generate)
}

/// Every identifier/variable token text in the 2014 corpus, with the
/// natural duplication of real plugin code (the interner's hit path).
fn corpus_names() -> &'static Vec<String> {
    static N: OnceLock<Vec<String>> = OnceLock::new();
    N.get_or_init(|| {
        let mut names = Vec::new();
        for plugin in corpus().plugins() {
            for file in plugin.project(Version::V2014).files() {
                for tok in php_lexer::tokenize(&file.content) {
                    if matches!(
                        tok.kind,
                        php_lexer::TokenKind::Identifier | php_lexer::TokenKind::Variable
                    ) {
                        names.push(tok.text.to_string());
                    }
                }
            }
        }
        names
    })
}

fn bench_intern_path(c: &mut Criterion) {
    let names = corpus_names();
    println!("corpus names: {} (with duplicates)", names.len());
    let mut group = c.benchmark_group("interning/lookup");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(5));

    // Hit path: all names are already in the arena after the first pass.
    group.bench_function("intern_hit", |b| {
        b.iter(|| {
            let mut last = Symbol::default();
            for n in names {
                last = std::hint::black_box(Symbol::intern(n));
            }
            last
        })
    });

    // The one-shot hash the interner's table pays per probe, as a floor.
    group.bench_function("fnv1a_64", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for n in names {
                acc ^= std::hint::black_box(fnv1a_64(n.as_bytes()));
            }
            acc
        })
    });
    group.finish();
}

fn bench_map_keys(c: &mut Criterion) {
    let names = corpus_names();
    let syms: Vec<Symbol> = names.iter().map(Symbol::from).collect();

    // Pre-built environments of the same shape the interpreter keeps.
    let mut string_map: HashMap<String, u64> = HashMap::new();
    let mut symbol_map: FnvHashMap<Symbol, u64> = FnvHashMap::default();
    for (i, (n, s)) in names.iter().zip(&syms).enumerate() {
        string_map.insert(n.clone(), i as u64);
        symbol_map.insert(*s, i as u64);
    }

    let mut group = c.benchmark_group("interning/env_key");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("string_siphash", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for n in names {
                acc ^= string_map.get(n).copied().unwrap_or(0);
            }
            std::hint::black_box(acc)
        })
    });
    group.bench_function("symbol_fnv", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for s in &syms {
                acc ^= symbol_map.get(s).copied().unwrap_or(0);
            }
            std::hint::black_box(acc)
        })
    });
    group.finish();
}

/// End-to-end: one serial phpSAFE pass over the 2014 corpus — the
/// configuration the Table III methodology times — exercising interned
/// tokens, Symbol-keyed environments and CoW branch snapshots together.
fn bench_serial_analysis(c: &mut Criterion) {
    let corpus = corpus();
    let mut group = c.benchmark_group("interning/serial_analysis");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));
    group.bench_function("phpsafe_2014", |b| {
        b.iter(|| {
            for plugin in corpus.plugins() {
                std::hint::black_box(
                    phpsafe::PhpSafe::new().analyze(plugin.project(Version::V2014)),
                );
            }
        })
    });
    group.finish();

    // Counter snapshot so the intern/CoW numbers print beside timings.
    phpsafe_obs::reset();
    phpsafe_obs::set_enabled(true);
    for plugin in corpus.plugins() {
        std::hint::black_box(phpsafe::PhpSafe::new().analyze(plugin.project(Version::V2014)));
    }
    let snap = phpsafe_obs::snapshot();
    phpsafe_obs::set_enabled(false);
    println!("{}", snap.render(&["intern.", "cow."]));
}

criterion_group!(
    benches,
    bench_intern_path,
    bench_map_keys,
    bench_serial_analysis
);
criterion_main!(benches);
