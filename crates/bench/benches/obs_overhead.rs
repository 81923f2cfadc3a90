//! `obs_overhead` — what the observability layer costs the analyzer.
//!
//! Four configurations over the same corpus plugin, single-threaded:
//!
//! * `disabled` — the default: every `count`/`time`/`span!` call is a
//!   relaxed atomic load and an early return. This is the price every
//!   production run pays and it must stay within noise (<2%) of an
//!   uninstrumented build.
//! * `metrics` — counters, histograms and the span tree recording.
//! * `metrics+wide_events` — additionally the daemon's per-request
//!   telemetry: a `RequestCtx` scratchpad, one `WideEvent` serialized to
//!   NDJSON and offered to the tail sampler. This is what `--telemetry-out`
//!   adds on top of plain metrics and must stay within a few percent.
//! * `metrics+events` — additionally capturing the analysis's taint
//!   events (`analyze_explained`), the `--explain` configuration.

use criterion::{criterion_group, criterion_main, Criterion};
use phpsafe::PhpSafe;
use phpsafe_corpus::{Corpus, Version};
use phpsafe_obs::{TailSampler, WideEvent};
use phpsafe_serve::RequestCtx;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn corpus() -> &'static Corpus {
    static C: OnceLock<Corpus> = OnceLock::new();
    C.get_or_init(Corpus::generate)
}

fn bench_obs_overhead(c: &mut Criterion) {
    let corpus = corpus();
    let plugin = &corpus.plugins()[0];
    let tool = PhpSafe::new();

    let mut group = c.benchmark_group("obs_overhead");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(5));

    phpsafe_obs::set_enabled(false);
    group.bench_function("disabled", |b| {
        b.iter(|| std::hint::black_box(tool.analyze(plugin.project(Version::V2014))))
    });

    phpsafe_obs::set_enabled(true);
    group.bench_function("metrics", |b| {
        b.iter(|| std::hint::black_box(tool.analyze(plugin.project(Version::V2014))))
    });

    let sampler = TailSampler::new(8);
    let mut seq = 0u64;
    group.bench_function("metrics+wide_events", |b| {
        b.iter(|| {
            seq += 1;
            let t0 = Instant::now();
            let ctx = RequestCtx::detached();
            let out = std::hint::black_box(tool.analyze(plugin.project(Version::V2014)));
            ctx.mark("analyze_us", t0.elapsed());
            let event = WideEvent {
                seq,
                method: "analyze".into(),
                outcome: "ok".into(),
                total_us: t0.elapsed().as_micros() as u64,
                marks: ctx.marks(),
                ..WideEvent::default()
            };
            sampler.offer(&event);
            std::hint::black_box(event.to_ndjson());
            out
        })
    });

    group.bench_function("metrics+events", |b| {
        b.iter(|| {
            std::hint::black_box(tool.analyze_explained(plugin.project(Version::V2014), None))
        })
    });

    phpsafe_obs::set_enabled(false);
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
