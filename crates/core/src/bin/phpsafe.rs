//! `phpsafe` — command-line front end for the analyzer.
//!
//! ```text
//! phpsafe [OPTIONS] <PATH>...
//!
//! ARGS:
//!   <PATH>...             plugin directories and/or single PHP files
//!
//! OPTIONS:
//!   --profile <NAME>      wordpress (default) | php | drupal | joomla
//!   --json                emit the normalized JSON report instead of text
//!   --html                emit a standalone HTML report instead of text
//!   --jobs <N>            analyze multiple paths on N worker threads
//!   --engine-stats        print engine statistics to stderr after the run
//!   --engine-stats-json <FILE>  write the same statistics as JSON
//!   --metrics-out <FILE>  write the full metrics snapshot as JSON
//!   --no-oop              disable OOP resolution (baseline mode)
//!   --no-includes         disable include resolution
//!   --no-uncalled         skip never-called functions
//!   --trace               print data-flow traces and the span self-profile
//!   --explain             print source→sanitizer→sink provenance chains
//!   --cache-dir <DIR>     persistent AST cache (warm-starts later runs of
//!                         the same build)
//!   -h, --help            this help
//!
//! phpsafe serve [OPTIONS]   long-running analysis daemon (NDJSON protocol)
//! ```

use phpsafe::{load_project, AnalysisServer, AnalyzerOptions, EngineCaches, PhpSafe};
use phpsafe_engine::{effective_jobs_reported, run_ordered};
use phpsafe_serve::{bind, run_stdio, run_tcp, Daemon, ServerConfig};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Prints to stdout, tolerating a closed pipe (`phpsafe ... | head`).
macro_rules! out {
    ($($arg:tt)*) => {
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            return ExitCode::SUCCESS;
        }
    };
}

const HELP: &str = "\
phpsafe - OOP-aware static taint analyzer for PHP plugins (XSS, SQLi)

USAGE:
    phpsafe [OPTIONS] <PATH>...

ARGS:
    <PATH>...           plugin directories and/or single PHP files; each
                        path is analyzed as one plugin project

OPTIONS:
    --profile <NAME>    wordpress (default) | php | drupal | joomla
    --json              emit the normalized JSON report instead of text
    --html              emit a standalone HTML report instead of text
    --inspect           emit the project inventory (variables, functions,
                        classes, include graph) as JSON and exit
    --jobs <N>          worker threads when analyzing several paths
                        (default: available parallelism; results do not
                        depend on N)
    --engine-stats      print scheduler/cache statistics to stderr
    --engine-stats-json <FILE>
                        write the same statistics as JSON to FILE
    --metrics-out <FILE>
                        write the full metrics snapshot (every counter
                        and timing histogram) as JSON to FILE
    --no-oop            disable OOP resolution (baseline mode)
    --no-includes       disable include resolution
    --no-uncalled       skip functions never called from plugin code
    --trace             print full data-flow traces, plus the per-stage
                        span self-profile tree to stderr
    --explain           print a source→sanitizer→sink provenance chain
                        for every reported vulnerability
    --cache-dir <DIR>   persist parsed ASTs under DIR so later runs
                        (batch or daemon) of the same build warm-start
                        from disk; only `phpsafe serve` also caches
                        rendered reports. A DIR that cannot be opened
                        warns and caches in memory only
    -h, --help          show this help

SUBCOMMANDS:
    serve               run the long-running analysis daemon; see
                        `phpsafe serve --help`
";

const SERVE_HELP: &str = "\
phpsafe serve - long-running analysis daemon (newline-delimited JSON)

USAGE:
    phpsafe serve [OPTIONS]

Requests (one JSON object per line):
    {\"cmd\":\"analyze\",\"paths\":[\"<dir>\"],\"tools\":[\"phpSAFE\"],\"jobs\":4,\"id\":1}
    {\"cmd\":\"analyze\",\"paths\":[\"<dir>\"],\"buffers\":{\"<file>\":\"<?php ...\"}}
    {\"cmd\":\"invalidate\",\"paths\":[\"<file-or-dir>\",...]}
    {\"cmd\":\"status\"}      {\"cmd\":\"metrics\"}      {\"cmd\":\"shutdown\"}
    {\"cmd\":\"metrics\",\"format\":\"prometheus\"}      {\"cmd\":\"telemetry\"}

\"buffers\" overlays unsaved editor contents onto the on-disk project for
that one request. \"invalidate\" diffs previously analyzed roots against
disk, counts the files the dirty ones can affect through includes and
calls (\"affected\"), and eagerly re-runs each tool the root last ran
over the whole project; only the dirty files re-parse (\"reparsed\").
The next analyze of an edited project answers from the warmed cache.

Every response carries the server-assigned request id as \"seq\" (plus
the client's \"id\" when one was sent), on success and on every
429/503/504/500/400 error path alike.

OPTIONS:
    --port <N>          listen on 127.0.0.1:<N>; 0 picks a free port
                        (default: 7433). The bound address is printed to
                        stderr once the daemon is ready.
    --stdio             speak the protocol over stdin/stdout instead of TCP
    --cache-dir <DIR>   persistent artifact cache shared with batch runs
                        (memory only, with a warning, if DIR cannot be
                        opened)
    --profile <NAME>    wordpress (default) | php | drupal | joomla
    --jobs <N>          (path, tool) analyses one analyze request runs at
                        once, unless the request sets \"jobs\"
    --workers <N>       concurrent analyze requests (default: 1)
    --queue <N>         queued-request bound before 429 rejection
                        (default: 64)
    --timeout-ms <N>    per-request deadline in milliseconds
                        (default: 300000)
    --telemetry-out <FILE>
                        stream one wide-event NDJSON line per request
                        (id, method, queue wait, stage timings, cache
                        hits, outcome); lines are appended to FILE in
                        batches and flushed at shutdown
    --tail-keep <N>     slowest/errored requests retained for the
                        telemetry command (default: 8)
    -h, --help          show this help
";

/// Snapshot name prefixes that make up the engine-stats view.
const ENGINE_PREFIXES: &[&str] = &[
    "engine.",
    "cache.",
    "stage.",
    "intern.",
    "cow.",
    "ast.",
    "diskcache.",
];

#[derive(Debug)]
struct Cli {
    paths: Vec<PathBuf>,
    profile: Option<String>,
    json: bool,
    html: bool,
    inspect: bool,
    jobs: usize,
    engine_stats: bool,
    engine_stats_json: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    no_oop: bool,
    no_includes: bool,
    no_uncalled: bool,
    trace: bool,
    explain: bool,
    cache_dir: Option<PathBuf>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            paths: Vec::new(),
            profile: None,
            json: false,
            html: false,
            inspect: false,
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            engine_stats: false,
            engine_stats_json: None,
            metrics_out: None,
            no_oop: false,
            no_includes: false,
            no_uncalled: false,
            trace: false,
            explain: false,
            cache_dir: None,
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut args = argv.iter().cloned();
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--json" => cli.json = true,
            "--html" => cli.html = true,
            "--inspect" => cli.inspect = true,
            "--engine-stats" => cli.engine_stats = true,
            "--no-oop" => cli.no_oop = true,
            "--no-includes" => cli.no_includes = true,
            "--no-uncalled" => cli.no_uncalled = true,
            "--trace" => cli.trace = true,
            "--explain" => cli.explain = true,
            "--engine-stats-json" => {
                let v = args
                    .next()
                    .ok_or_else(|| "--engine-stats-json requires a file".to_string())?;
                cli.engine_stats_json = Some(PathBuf::from(v));
            }
            "--metrics-out" => {
                let v = args
                    .next()
                    .ok_or_else(|| "--metrics-out requires a file".to_string())?;
                cli.metrics_out = Some(PathBuf::from(v));
            }
            "--cache-dir" => {
                let v = args
                    .next()
                    .ok_or_else(|| "--cache-dir requires a directory".to_string())?;
                cli.cache_dir = Some(PathBuf::from(v));
            }
            "--jobs" => {
                let v = args
                    .next()
                    .ok_or_else(|| "--jobs requires a value".to_string())?;
                cli.jobs = v
                    .parse()
                    .map_err(|_| format!("--jobs requires a number, got `{v}`"))?;
            }
            "--profile" => {
                cli.profile = Some(
                    args.next()
                        .ok_or_else(|| "--profile requires a value".to_string())?,
                );
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"));
            }
            other => cli.paths.push(PathBuf::from(other)),
        }
    }
    if cli.paths.is_empty() {
        return Err("missing <PATH>".to_string());
    }
    Ok(cli)
}

fn profile_config(name: &str) -> Option<taint_config::TaintConfig> {
    match name {
        "wordpress" => Some(taint_config::wordpress()),
        "php" => Some(taint_config::generic_php()),
        "drupal" => Some(taint_config::drupal()),
        "joomla" => Some(taint_config::joomla()),
        _ => None,
    }
}

#[derive(Debug)]
struct ServeCli {
    port: u16,
    stdio: bool,
    cache_dir: Option<PathBuf>,
    profile: String,
    jobs: usize,
    workers: usize,
    queue: usize,
    timeout_ms: u64,
    telemetry_out: Option<PathBuf>,
    tail_keep: usize,
}

fn parse_serve_args(argv: &[String]) -> Result<ServeCli, String> {
    let mut cli = ServeCli {
        port: 7433,
        stdio: false,
        cache_dir: None,
        profile: "wordpress".to_string(),
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        workers: 1,
        queue: 64,
        timeout_ms: 300_000,
        telemetry_out: None,
        tail_keep: 8,
    };
    let mut args = argv.iter().cloned();
    while let Some(a) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} requires a value"));
        match a.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--stdio" => cli.stdio = true,
            "--port" => {
                let v = value("--port")?;
                cli.port = v.parse().map_err(|_| format!("bad --port value `{v}`"))?;
            }
            "--cache-dir" => cli.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--telemetry-out" => cli.telemetry_out = Some(PathBuf::from(value("--telemetry-out")?)),
            "--tail-keep" => {
                let v = value("--tail-keep")?;
                cli.tail_keep = v
                    .parse()
                    .map_err(|_| format!("bad --tail-keep value `{v}`"))?;
            }
            "--profile" => cli.profile = value("--profile")?,
            "--jobs" => {
                let v = value("--jobs")?;
                cli.jobs = v.parse().map_err(|_| format!("bad --jobs value `{v}`"))?;
            }
            "--workers" => {
                let v = value("--workers")?;
                cli.workers = v
                    .parse()
                    .map_err(|_| format!("bad --workers value `{v}`"))?;
            }
            "--queue" => {
                let v = value("--queue")?;
                cli.queue = v.parse().map_err(|_| format!("bad --queue value `{v}`"))?;
            }
            "--timeout-ms" => {
                let v = value("--timeout-ms")?;
                cli.timeout_ms = v
                    .parse()
                    .map_err(|_| format!("bad --timeout-ms value `{v}`"))?;
            }
            other => return Err(format!("unknown serve option `{other}`")),
        }
    }
    Ok(cli)
}

fn run_serve(argv: &[String]) -> ExitCode {
    let cli = match parse_serve_args(argv) {
        Ok(c) => c,
        Err(msg) => {
            if msg.is_empty() {
                print!("{SERVE_HELP}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{SERVE_HELP}");
            return ExitCode::from(2);
        }
    };
    let Some(config) = profile_config(&cli.profile) else {
        eprintln!(
            "error: unknown profile `{}` (wordpress|php|drupal|joomla)",
            cli.profile
        );
        return ExitCode::from(2);
    };
    // The daemon's whole point is the metrics/status surface; keep the
    // observability registry on for its lifetime.
    phpsafe_obs::set_enabled(true);
    let caches = cli
        .cache_dir
        .as_deref()
        .map_or_else(EngineCaches::new, EngineCaches::open);
    let jobs = effective_jobs_reported(cli.jobs);
    let mut server = AnalysisServer::with_caches(caches).with_default_jobs(jobs);
    server.register("phpSAFE", PhpSafe::new().with_config(config));
    let daemon = Daemon::start(
        Arc::new(server),
        ServerConfig {
            workers: cli.workers.max(1),
            queue_capacity: cli.queue,
            request_timeout: Duration::from_millis(cli.timeout_ms),
            telemetry_out: cli.telemetry_out.clone(),
            tail_keep: cli.tail_keep,
        },
    );
    let served = if cli.stdio {
        eprintln!("phpsafe serve: ready on stdio");
        run_stdio(&daemon)
    } else {
        match bind(cli.port) {
            Ok(listener) => {
                match listener.local_addr() {
                    Ok(addr) => eprintln!("phpsafe serve: listening on {addr}"),
                    Err(_) => eprintln!("phpsafe serve: listening"),
                }
                run_tcp(&daemon, listener)
            }
            Err(e) => {
                eprintln!("error: cannot bind 127.0.0.1:{}: {e}", cli.port);
                return ExitCode::from(2);
            }
        }
    };
    if let Err(e) = served {
        eprintln!("error: daemon transport failed: {e}");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return run_serve(&argv[1..]);
    }
    let cli = match parse_args(&argv) {
        Ok(c) => c,
        Err(msg) => {
            if msg.is_empty() {
                print!("{HELP}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{HELP}");
            return ExitCode::from(2);
        }
    };
    let profile = cli.profile.as_deref().unwrap_or("wordpress");
    let Some(config) = profile_config(profile) else {
        eprintln!("error: unknown profile `{profile}` (wordpress|php|drupal|joomla)");
        return ExitCode::from(2);
    };
    let options = AnalyzerOptions {
        oop: !cli.no_oop,
        resolve_includes: !cli.no_includes,
        analyze_uncalled: !cli.no_uncalled,
        ..AnalyzerOptions::default()
    };

    let mut projects = Vec::new();
    for path in &cli.paths {
        match load_project(path) {
            Ok(p) => projects.push(p),
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(2);
            }
        }
    }

    if cli.inspect {
        for project in &projects {
            let inventory = phpsafe::inspect(project);
            match serde_json::to_string_pretty(&inventory) {
                Ok(j) => out!("{j}"),
                Err(e) => {
                    eprintln!("error: serialization failed: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    let want_obs = cli.engine_stats
        || cli.engine_stats_json.is_some()
        || cli.metrics_out.is_some()
        || cli.trace;
    if want_obs {
        phpsafe_obs::set_enabled(true);
    }

    // Fan the projects across the engine's worker pool; output order
    // follows the command line regardless of scheduling.
    let analyzer = PhpSafe::new().with_config(config).with_options(options);
    let caches = cli
        .cache_dir
        .as_deref()
        .map_or_else(EngineCaches::new, EngineCaches::open);
    let jobs = effective_jobs_reported(cli.jobs);
    // Under --explain each analysis returns its own taint events, so a
    // chain is explained from the run that produced it.
    let (outcomes, _pool) = run_ordered(projects, jobs, |_, project| {
        if cli.explain {
            analyzer.analyze_explained(&project, Some(&caches))
        } else {
            (
                analyzer.analyze_with_caches(&project, Some(&caches)),
                Vec::new(),
            )
        }
    });

    if want_obs {
        caches.record();
        let snap = phpsafe_obs::snapshot();
        if cli.engine_stats {
            eprintln!("{}", snap.render(ENGINE_PREFIXES));
        }
        if let Some(path) = &cli.engine_stats_json {
            if let Err(e) =
                phpsafe_obs::write_atomic(path, snap.filtered(ENGINE_PREFIXES).to_json().as_bytes())
            {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        if let Some(path) = &cli.metrics_out {
            if let Err(e) = phpsafe_obs::write_atomic(path, snap.to_json().as_bytes()) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        if cli.trace {
            eprintln!("{}", phpsafe_obs::span_tree_text());
        }
    }

    let mut any_vulns = false;
    for (outcome, events) in &outcomes {
        any_vulns |= !outcome.vulns.is_empty();
        if cli.html {
            out!("{}", phpsafe::render_html(outcome));
        } else if cli.json {
            match outcome.to_json() {
                Ok(j) => out!("{j}"),
                Err(e) => {
                    eprintln!("error: serialization failed: {e}");
                    return ExitCode::from(2);
                }
            }
        } else {
            out!(
                "phpsafe: analyzed {} files ({} LOC), {} failed",
                outcome.files.len(),
                outcome.stats.loc,
                outcome.stats.files_failed
            );
            for f in outcome.files.iter().filter(|f| f.failure.is_some()) {
                out!(
                    "  FAILED {}: {}",
                    f.path,
                    f.failure.as_ref().expect("filtered")
                );
            }
            out!("{} vulnerabilities:\n", outcome.vulns.len());
            for v in &outcome.vulns {
                let oop = if v.via_oop { " [OOP]" } else { "" };
                out!(
                    "{}:{}: {} via {} at sink `{}`{} — {}",
                    v.file,
                    v.line,
                    v.class,
                    v.source_kind,
                    v.sink,
                    oop,
                    v.var
                );
                if cli.trace {
                    for s in &v.trace {
                        out!("    <- {}:{} {}", s.file, s.line, s.what);
                    }
                }
            }
            if cli.explain && !outcome.vulns.is_empty() {
                out!("{}", phpsafe::explain_outcome(outcome, events).trim_end());
            }
        }
    }
    if any_vulns {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
