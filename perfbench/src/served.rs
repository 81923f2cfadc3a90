//! The daemon workloads: the shipped `phpsafe serve --port 0 --cache-dir
//! <fresh> --workers 2`, started as a child process and driven in a closed
//! loop from this process ([`editor`] and [`fleet`]).
//!
//! With `--trace 1` the same script runs on two daemons, one plain (the
//! untraced reference) and one started with `--telemetry-out` (queue wait,
//! service time and stage marks per request, joined to client timings by
//! `seq`), and then in-process through `AnalysisServer` over a
//! disk-backed `EngineCaches` (cache counters, front-end shares).

mod editor;
mod fleet;

pub use editor::run_editor;
pub use fleet::run_fleet;

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use phpsafe::server::AnalysisServer;
use phpsafe::{load_project, CacheTotals, EngineCaches, PhpSafe, PluginProject};
use phpsafe_corpus::{Corpus, Version};
use phpsafe_engine::{fnv1a_64, DiskCache, DiskCounters};
use phpsafe_serve::{parse, AnalyzeRequest, Json, RequestCtx, Service};

use crate::daemon::{analyze_request, envelope_seq, first_report, Daemon, WideEvent};
use crate::script::{PLUGINS, ROOTS};
use crate::stats::{mean, median, percentile};
use crate::trace::Trace;
use crate::{Args, Report, SETUPS};

/// The corpus written to disk: one directory per root.
struct Roots {
    dirs: Vec<String>,
    projects: Vec<PluginProject>,
    kloc: Vec<f64>,
}

fn write_roots(corpus: &Corpus, dir: &Path) -> Result<Roots, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut roots = Roots {
        dirs: Vec::new(),
        projects: Vec::new(),
        kloc: Vec::new(),
    };
    for r in 0..ROOTS {
        let v = r / PLUGINS;
        let plugin = &corpus.plugins()[r % PLUGINS];
        let root = dir.join(["2012", "2014"][v]).join(&plugin.name);
        for f in plugin.project(Version::ALL[v]).files() {
            let path = root.join(&f.path);
            std::fs::create_dir_all(path.parent().expect("file under root"))
                .and_then(|_| std::fs::write(&path, &f.content))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        let project = load_project(&root)?;
        roots.kloc.push(project.total_loc() as f64 / 1e3);
        roots.projects.push(project);
        roots.dirs.push(root.display().to_string());
    }
    Ok(roots)
}

/// Reference reports: `PhpSafe::new().analyze(..).to_json()` on exactly
/// the bytes the daemon sees, memoized by root and content.
struct Expected {
    memo: HashMap<u64, Reference>,
}

#[derive(Clone)]
struct Reference {
    report: Arc<str>,
    /// What `to_json` took to render it.
    render: Duration,
    work_units: u64,
}

impl Expected {
    fn key(project: &PluginProject) -> u64 {
        let mut text = project.name().to_owned();
        for f in project.files() {
            text.push('\0');
            text.push_str(&f.path);
            text.push('\0');
            text.push_str(&f.content);
        }
        fnv1a_64(text.as_bytes())
    }

    fn of(&mut self, project: &PluginProject) -> Reference {
        self.memo
            .entry(Self::key(project))
            .or_insert_with(|| {
                let outcome = PhpSafe::new().analyze(project);
                let start = Instant::now();
                let json = outcome.to_json().expect("reports serialize");
                Reference {
                    report: Arc::from(json),
                    render: start.elapsed(),
                    work_units: outcome.stats.work_units,
                }
            })
            .clone()
    }
}

/// Flushes dirty pages to disk, so that a timed phase does not pay for
/// writeback queued before it (earlier set-ups, earlier runs). Called
/// outside every timed region.
fn settle_disk() {
    let _ = std::process::Command::new("sync").status();
}

/// Starts a daemon over a fresh cache directory and cold-analyzes every
/// root over two connections, checking each report. Returns the daemon
/// and the seconds this took.
fn start_daemon(
    args: &Args,
    cache: &Path,
    telemetry: Option<&Path>,
    roots: &Roots,
    base: &[Arc<str>],
) -> Result<(Daemon, f64), String> {
    let _ = std::fs::remove_dir_all(cache);
    settle_disk();
    let start = Instant::now();
    let daemon = Daemon::spawn(&args.phpsafe, cache, telemetry)
        .map_err(|e| format!("start {}: {e}", args.phpsafe.display()))?;
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|half| {
                let daemon = &daemon;
                s.spawn(move || -> Result<(), String> {
                    let mut conn = daemon.connect().map_err(|e| e.to_string())?;
                    for r in (half..ROOTS).step_by(2) {
                        let id = 1_000_000 + r as u64;
                        let reply = conn
                            .call(&analyze_request(id, &roots.dirs[r], None))
                            .map_err(|e| e.to_string())?;
                        let parsed = parse(&reply)?;
                        if envelope_seq(&reply, id).is_none()
                            || first_report(&parsed) != Some(&*base[r])
                        {
                            return Err(format!("cold analyze of {} is wrong", roots.dirs[r]));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("setup client panicked"))
    })?;
    Ok((daemon, start.elapsed().as_secs_f64()))
}

/// Runs [`SETUPS`] set-ups, keeping the last daemon.
fn setups(
    args: &Args,
    work: &Path,
    roots: &Roots,
    base: &[Arc<str>],
) -> Result<(Daemon, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        if let Some(old) = kept.take() {
            Daemon::shutdown(old).map_err(|e| format!("shutdown: {e}"))?;
            let _ = std::fs::remove_dir_all(work.join(format!("cache-{}", k - 1)));
        }
        let (daemon, secs) =
            start_daemon(args, &work.join(format!("cache-{k}")), None, roots, base)?;
        times.push(secs);
        kept = Some(daemon);
    }
    settle_disk();
    Ok((kept.expect("at least one setup"), median(&times)))
}

/// One timed op as the client saw it.
struct OpRecord {
    start: Instant,
    lat_ns: u64,
    /// Server seq of each request the op sent.
    seqs: Vec<u64>,
    bytes: usize,
    save: bool,
    /// `fully_cached` of each analyze reply.
    fully_cached: Vec<bool>,
    /// `affected` and `reparsed` of a save's invalidate reply.
    depgraph: Option<(f64, f64)>,
    /// KLOC of the root the op analyzed (0 for `status` and `metrics`).
    kloc: f64,
}

fn num(v: Option<&Json>) -> Option<f64> {
    v.and_then(Json::as_num)
}

/// Front-end and report times measured in the replay for one op: the
/// layers inside the stage mark that re-analyzed (the buffer analyze, or
/// the save's invalidate).
#[derive(Default, Clone, Copy)]
struct Shadow {
    /// `PluginProject::content_key` of the analyzed project: the daemon
    /// hashes it between its load and cache-probe marks for the request's
    /// telemetry key.
    key: Duration,
    lex: Duration,
    parse: Duration,
    symbols: Duration,
    report: Duration,
    tokens: usize,
    nodes: usize,
    report_bytes: usize,
    work_units: u64,
}

#[derive(Default)]
struct Counters {
    cache_before: Option<CacheTotals>,
    parse: (u64, u64),
    summary: (u64, u64),
    disk: (u64, u64, u64),
    bytes_on_disk: u64,
}

impl Counters {
    fn before(&mut self, server: &AnalysisServer) -> DiskCounters {
        self.cache_before = Some(server.caches().totals());
        disk_counters(server)
    }

    fn after(&mut self, server: &AnalysisServer, disk_before: DiskCounters) {
        let before = self.cache_before.take().expect("before() first");
        let now = server.caches().totals();
        self.parse.0 += now.parse.hits - before.parse.hits;
        self.parse.1 += now.parse.misses - before.parse.misses;
        self.summary.0 += now.summary.hits - before.summary.hits;
        self.summary.1 += now.summary.misses - before.summary.misses;
        let disk = disk_counters(server);
        self.disk.0 += disk.hits - disk_before.hits;
        self.disk.1 += disk.misses - disk_before.misses;
        self.disk.2 += disk.corrupt - disk_before.corrupt;
    }

    fn report(&self, report: &mut Report, n: usize) {
        let ratio = |(hits, misses): (u64, u64)| mean(hits as f64, (hits + misses) as usize);
        report.set("engine.cache.ast_hit_ratio", ratio(self.parse));
        report.set("engine.cache.summary_hit_ratio", ratio(self.summary));
        report.set("engine.disk.hits", mean(self.disk.0 as f64, n));
        report.set("engine.disk.misses", mean(self.disk.1 as f64, n));
        report.set("engine.disk.corrupt", self.disk.2 as f64);
        report.set("engine.disk.bytes_on_disk", self.bytes_on_disk as f64);
    }
}

/// Bytes the server's disk tier holds, over every namespace.
fn disk_bytes(server: &AnalysisServer) -> u64 {
    let disk = server.caches().disk();
    disk.map_or(0, |d| d.bytes_on_disk().iter().map(|(_, b)| b).sum())
}

fn disk_counters(server: &AnalysisServer) -> DiskCounters {
    server
        .caches()
        .disk()
        .map(|d| d.counters())
        .unwrap_or_default()
}

fn replay_server(cache: &Path, roots: &Roots) -> Result<AnalysisServer, String> {
    let _ = std::fs::remove_dir_all(cache);
    let disk = DiskCache::open(cache).map_err(|e| format!("open {}: {e}", cache.display()))?;
    let server = AnalysisServer::with_caches(EngineCaches::with_disk(Arc::new(disk)));
    for dir in &roots.dirs {
        server.analyze(&RequestCtx::detached(), &analyze_req(dir, None, None))?;
    }
    Ok(server)
}

fn analyze_req(dir: &str, buffer: Option<(String, String)>, jobs: Option<usize>) -> AnalyzeRequest {
    AnalyzeRequest {
        paths: vec![dir.to_owned()],
        tools: Vec::new(),
        jobs,
        buffers: buffer.into_iter().collect(),
    }
}

fn report_of(result: &Json) -> Option<&str> {
    result
        .get("reports")?
        .as_arr()?
        .first()?
        .get("report")?
        .as_str()
}

fn ms_of<'a>(records: impl IntoIterator<Item = &'a OpRecord>) -> Vec<f64> {
    records.into_iter().map(|r| r.lat_ns as f64 / 1e6).collect()
}

// ----------------------------------------------------------------- spans

/// Builds each op's span tree. The root is the op's round trip on the
/// plain daemon; its own time is transport. Under it sit the queue wait
/// and the service time of the same op on the telemetry daemon (joined by
/// `seq`), and under the service time its stage marks. The marks that
/// re-analyzed hold the replay's front-end and report times. Taking the
/// round trip from the plain daemon keeps the telemetry sink's cost out
/// of transport; it is reported as the tracing overhead instead. Returns
/// how many requests had no wide event.
fn daemon_spans(
    trace: &mut Trace,
    plain: &[&OpRecord],
    traced: &[&OpRecord],
    events: &HashMap<u64, WideEvent>,
    shadows: &[Shadow],
) -> u64 {
    let mut missing = 0;
    for (i, (rec, round_trip)) in traced.iter().zip(plain).enumerate() {
        let op = i as u64;
        let root = trace.record(
            "serve.transport_ms",
            op,
            None,
            round_trip.start,
            round_trip.lat_ns,
        );
        for (r, seq) in rec.seqs.iter().enumerate() {
            let Some(ev) = events.get(seq) else {
                missing += 1;
                continue;
            };
            trace.record(
                "serve.queue_wait",
                op,
                Some(root),
                rec.start,
                ev.queue_wait_us * 1000,
            );
            let svc = trace.record(
                "serve.service",
                op,
                Some(root),
                rec.start,
                ev.service_us * 1000,
            );
            for (mark, us) in &ev.marks {
                let name = match mark.as_str() {
                    "load_us" => "core.server.load_ms",
                    "cache_probe_us" => "core.server.cache_probe_ms",
                    "analyze_us" => "core.server.analyze_ms",
                    "persist_us" => "core.server.persist_ms",
                    "invalidate_us" => "core.server.invalidate_ms",
                    _ => continue,
                };
                let span = trace.record(name, op, Some(svc), rec.start, us * 1000);
                // A buffer analyze re-analyzes in its analyze stage; a save
                // re-analyzes inside invalidate (its analyze then hits).
                let walks = match rec.save {
                    true => name == "core.server.invalidate_ms" && r == 0,
                    false => name == "core.server.analyze_ms",
                };
                if let (true, Some(s)) = (walks, shadows.get(i)) {
                    for (layer, d) in [
                        ("php-lexer.self_ms", s.lex),
                        ("php-ast.self_ms", s.parse),
                        ("core.symbols.self_ms", s.symbols),
                        ("core.report.self_ms", s.report),
                    ] {
                        trace.record(layer, op, Some(span), rec.start, d.as_nanos() as u64);
                    }
                }
            }
            // The op's last request is its analyze, which hashes the
            // project outside any mark.
            if let (true, Some(s)) = (r + 1 == rec.seqs.len(), shadows.get(i)) {
                if !s.key.is_zero() {
                    let key = s.key.as_nanos() as u64;
                    trace.record("core.server.key_ms", op, Some(svc), rec.start, key);
                }
            }
        }
    }
    missing
}

/// Per-layer metrics common to both daemon workloads.
fn layer_metrics(
    report: &mut Report,
    trace: &Trace,
    untraced: &[&OpRecord],
    traced: &[&OpRecord],
    events: &HashMap<u64, WideEvent>,
) {
    let n = traced.len();
    let total_ms =
        |records: &[&OpRecord]| -> f64 { records.iter().map(|r| r.lat_ns as f64 / 1e6).sum() };
    let own = trace.self_ms();
    let layer = |name: &str| own.get(name).copied().unwrap_or(0.0);
    for name in [
        "php-lexer.self_ms",
        "php-ast.self_ms",
        "core.symbols.self_ms",
        "core.report.self_ms",
        "core.server.load_ms",
        "core.server.cache_probe_ms",
        "core.server.persist_ms",
        "core.server.key_ms",
    ] {
        report.set(name, layer(name) / n as f64);
    }
    report.set("serve.transport_ms", layer("serve.transport_ms") / n as f64);
    for name in ["core.server.analyze_ms", "core.server.invalidate_ms"] {
        report.set(name, trace.total_ms(name) / n as f64);
    }
    // What the re-analyzing stages spent beyond the front end and the
    // report: the taint walk.
    report.set(
        "core.analyzer.self_ms",
        (layer("core.server.analyze_ms") + layer("core.server.invalidate_ms")) / n as f64,
    );
    report.set(
        "serve.service_ms",
        trace.total_ms("serve.service") / n as f64,
    );
    let waits: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.seqs.iter())
        .filter_map(|s| events.get(s))
        .map(|e| e.queue_wait_us as f64 / 1e3)
        .collect();
    report.set("serve.queue_wait_p50_ms", percentile(&waits, 50.0));
    report.set("serve.queue_wait_p99_ms", percentile(&waits, 99.0));
    let bytes: usize = traced.iter().map(|r| r.bytes).sum();
    report.set("serve.reply_bytes", mean(bytes as f64, n));
    let analyzes: Vec<bool> = traced
        .iter()
        .flat_map(|r| r.fully_cached.iter().copied())
        .collect();
    let cached = analyzes.iter().filter(|c| **c).count();
    report.set(
        "core.server.fully_cached_ratio",
        mean(cached as f64, analyzes.len()),
    );
    // Reconciliation against the untraced run of the same ops: every
    // layer's self time except the service time no stage mark covers.
    let untraced_ms = total_ms(untraced);
    let attributed: f64 = own
        .iter()
        .filter(|(k, _)| **k != "serve.service")
        .map(|(_, v)| v)
        .sum();
    report.set("unattributed_ms", (untraced_ms - attributed) / n as f64);
    report.set(
        "obs.trace_overhead_pct",
        (total_ms(traced) - untraced_ms) / untraced_ms * 100.0,
    );
    eprintln!(
        "layer self times sum to {:.1}% of the untraced time",
        attributed / untraced_ms * 100.0
    );
}
