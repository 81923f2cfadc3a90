//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run -p phpsafe-bench --bin repro --release            # everything
//! cargo run -p phpsafe-bench --bin repro --release -- table1  # one artifact
//! ```
//!
//! Artifacts: `table1`, `table1-full`, `fig2`, `table2`, `table3`, `oop`,
//! `inertia`, `rootcause`, `taxonomy` (per-class precision/recall on the
//! taxonomy extension corpus), `all` (default).
//!
//! Options:
//!
//! * `--jobs N` — worker threads for the engine scheduler (default: the
//!   machine's available parallelism; 0 or an over-subscription clamps to
//!   it with a warning). Results are identical at any `N`.
//! * `--cache-dir DIR` — persist parsed ASTs and include dependency
//!   graphs under `DIR`; a later run of the same build with the same flag
//!   warm-starts from disk. Tables are byte-identical either way.
//! * `--serial` — bypass the engine entirely: one thread, no shared
//!   caches, every tool meets every plugin cold. This is the paper's
//!   Table III timing methodology; use it when comparing `table3` seconds.
//! * `--engine-stats` — print scheduler/stage/cache statistics to stderr
//!   after the run.
//! * `--engine-stats-json FILE` — write the same statistics as JSON.
//! * `--metrics-out FILE` — write the full observability snapshot
//!   (all counters and timing histograms) as JSON.
//! * `--trace` — print the span self-profile tree to stderr after the run.
//! * `--explain` — after the run, re-analyze corpus plugins with taint
//!   events enabled and print the provenance chains of the first plugin
//!   with findings.

use phpsafe::EngineCaches;
use phpsafe_corpus::{Corpus, Version};
use phpsafe_engine::{effective_jobs_reported, DiskCache};
use phpsafe_eval::{tables, Evaluation, RecallMode};
use std::sync::Arc;

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

struct Opts {
    what: String,
    jobs: usize,
    cache_dir: Option<String>,
    serial: bool,
    engine_stats: bool,
    engine_stats_json: Option<String>,
    metrics_out: Option<String>,
    trace: bool,
    explain: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        what: "all".to_string(),
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cache_dir: None,
        serial: false,
        engine_stats: false,
        engine_stats_json: None,
        metrics_out: None,
        trace: false,
        explain: false,
    };
    let mut what: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--serial" => opts.serial = true,
            "--engine-stats" => opts.engine_stats = true,
            "--trace" => opts.trace = true,
            "--explain" => opts.explain = true,
            "--engine-stats-json" => {
                let v = args.next().ok_or("--engine-stats-json requires a file")?;
                opts.engine_stats_json = Some(v);
            }
            "--metrics-out" => {
                let v = args.next().ok_or("--metrics-out requires a file")?;
                opts.metrics_out = Some(v);
            }
            "--jobs" => {
                let v = args.next().ok_or("--jobs requires a value")?;
                opts.jobs = v.parse().map_err(|_| format!("bad --jobs value `{v}`"))?;
            }
            "--cache-dir" => {
                let v = args.next().ok_or("--cache-dir requires a directory")?;
                opts.cache_dir = Some(v);
            }
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            other => {
                if what.is_some() {
                    return Err("only one artifact may be requested".to_string());
                }
                what = Some(other.to_string());
            }
        }
    }
    if let Some(w) = what {
        opts.what = w;
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    let want_obs = opts.engine_stats
        || opts.engine_stats_json.is_some()
        || opts.metrics_out.is_some()
        || opts.trace;
    if want_obs {
        phpsafe_obs::set_enabled(true);
    }
    // The taxonomy artifact runs over its own extension corpus; the main
    // 35-plugin evaluation is not needed for it.
    if opts.what == "taxonomy" {
        eprintln!("generating taxonomy corpus and running the tools per vulnerability class...");
        let before = phpsafe_obs::snapshot();
        let e = phpsafe_eval::run_taxonomy();
        phpsafe_eval::record_taxonomy_metrics(&e);
        let snap = phpsafe_obs::snapshot().since(&before);
        if let Some(path) = &opts.metrics_out {
            if let Err(err) =
                phpsafe_obs::write_atomic(std::path::Path::new(path), snap.to_json().as_bytes())
            {
                eprintln!("error: cannot write {path}: {err}");
                std::process::exit(1);
            }
        }
        print!("{}", phpsafe_eval::taxonomy_report(&e));
        return;
    }
    eprintln!(
        "generating corpus and running phpSAFE, RIPS and Pixy over 35 plugins x 2 versions..."
    );
    let jobs = effective_jobs_reported(opts.jobs);
    let before = phpsafe_obs::snapshot();
    let e = if opts.serial {
        Evaluation::run()
    } else {
        let caches = match &opts.cache_dir {
            Some(dir) => {
                let disk = match DiskCache::open(dir) {
                    Ok(d) => Arc::new(d),
                    Err(err) => {
                        eprintln!("error: cannot open cache dir {dir}: {err}");
                        std::process::exit(2);
                    }
                };
                EngineCaches::with_disk(disk)
            }
            None => EngineCaches::new(),
        };
        Evaluation::run_engine_cached(Corpus::generate(), jobs, &caches).0
    };
    let snap = phpsafe_obs::snapshot().since(&before);
    if opts.engine_stats {
        eprintln!("{}", snap.render(ENGINE_PREFIXES));
    }
    if let Some(path) = &opts.engine_stats_json {
        if let Err(err) = phpsafe_obs::write_atomic(
            std::path::Path::new(path),
            snap.filtered(ENGINE_PREFIXES).to_json().as_bytes(),
        ) {
            eprintln!("error: cannot write {path}: {err}");
            std::process::exit(1);
        }
    }
    if let Some(path) = &opts.metrics_out {
        if let Err(err) =
            phpsafe_obs::write_atomic(std::path::Path::new(path), snap.to_json().as_bytes())
        {
            eprintln!("error: cannot write {path}: {err}");
            std::process::exit(1);
        }
    }
    if opts.trace {
        eprintln!("{}", phpsafe_obs::span_tree_text());
    }
    if opts.explain {
        explain_first_findings(&e);
    }
    match opts.what.as_str() {
        "table1" => print!("{}", tables::table1(&e, RecallMode::PaperOptimistic)),
        "table1-full" => print!("{}", tables::table1(&e, RecallMode::FullGroundTruth)),
        "fig2" => print!("{}", tables::fig2(&e)),
        "table2" => print!("{}", tables::table2(&e)),
        "table3" => print!("{}", tables::table3(&e)),
        "oop" => print!("{}", tables::oop_breakdown(&e)),
        "inertia" => print!("{}", tables::inertia(&e)),
        "rootcause" => print!("{}", tables::root_cause(&e)),
        "ablations" => print!("{}", phpsafe_eval::ablation_report(e.corpus())),
        "evolution" => print!("{}", phpsafe_eval::evolution_report(e.corpus())),
        "confirm" => print!("{}", phpsafe_eval::confirmation_report(e.corpus())),
        "csv" => {
            print!(
                "{}",
                phpsafe_eval::table1_csv(&e, RecallMode::PaperOptimistic)
            );
            print!("{}", phpsafe_eval::per_plugin_csv(e.corpus()));
        }
        "all" => print!("{}", tables::full_report(&e)),
        other => {
            eprintln!("unknown artifact `{other}`; try table1|fig2|table2|table3|oop|inertia|rootcause|ablations|evolution|confirm|taxonomy|csv|all");
            std::process::exit(2);
        }
    }
}

/// Re-analyzes corpus plugins with taint events captured and prints the
/// provenance chains of the first plugin phpSAFE reports findings for.
/// (The evaluation retains confirmed ground-truth ids, not the raw
/// `Vulnerability` records, so the chains come from a fresh pass.)
fn explain_first_findings(e: &Evaluation) {
    let tool = phpsafe::PhpSafe::new();
    for plugin in e.corpus().plugins() {
        let (outcome, events) = tool.analyze_explained(plugin.project(Version::V2014), None);
        if !outcome.vulns.is_empty() {
            print!("{}", phpsafe::explain_outcome(&outcome, &events));
            break;
        }
    }
}
