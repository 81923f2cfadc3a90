//! perfbench: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --phpsafe <daemon binary> --root <checkout>
//!           --workload <cold_audit|editor_session|fleet_mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Normally started through `perfbench/run.py`, which builds both
//! binaries first. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer
//! breakdown of a separate traced replay of the same seeded script.
//! See `perfbench/README.md` for what each workload and metric means.

mod cold;
mod daemon;
mod script;
mod served;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics: every workload reports all of them with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("kloc_per_s", "kloc/s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every traced run reports all of them; a layer that
/// is not on a workload's path reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("php-lexer.self_ms", "ms/op"),
    ("php-lexer.tokens_per_s", "1/s"),
    ("php-ast.self_ms", "ms/op"),
    ("php-ast.nodes", "count/op"),
    ("core.symbols.self_ms", "ms/op"),
    ("core.analyzer.self_ms", "ms/op"),
    ("core.analyzer.work_units", "count/op"),
    ("baselines.rips_ms", "ms/op"),
    ("baselines.pixy_ms", "ms/op"),
    ("tool.phpSAFE_ms", "ms/op"),
    ("core.report.self_ms", "ms/op"),
    ("core.report.bytes", "bytes/op"),
    ("dataflow.record_ms", "ms/op"),
    ("dataflow.query_ms", "ms/op"),
    ("core.server.load_ms", "ms/op"),
    ("core.server.cache_probe_ms", "ms/op"),
    ("core.server.analyze_ms", "ms/op"),
    ("core.server.persist_ms", "ms/op"),
    ("core.server.invalidate_ms", "ms/op"),
    ("core.server.key_ms", "ms/op"),
    ("core.server.fully_cached_ratio", "ratio"),
    ("core.depgraph.affected", "files/save"),
    ("core.depgraph.reparsed", "files/save"),
    ("engine.cache.ast_hit_ratio", "ratio"),
    ("engine.cache.summary_hit_ratio", "ratio"),
    ("engine.disk.hits", "count/op"),
    ("engine.disk.misses", "count/op"),
    ("engine.disk.corrupt", "count"),
    ("engine.disk.bytes_on_disk", "bytes"),
    ("engine.pool.fn_jobs_ratio", "ratio"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.service_ms", "ms/op"),
    ("serve.transport_ms", "ms/op"),
    ("serve.reply_bytes", "bytes/op"),
    ("p99_ms", "ms"),
    ("save_p50_ms", "ms"),
    ("save_p99_ms", "ms"),
    ("unattributed_ms", "ms/op"),
    ("obs.trace_overhead_pct", "%"),
];

pub const WORKLOADS: &[&str] = &["cold_audit", "editor_session", "fleet_mixed"];

/// A run needs at least this many timed ops so that p99 has ten samples
/// beyond it. p99 is reported by the traced run only: on a shared host it
/// swings with scheduling stalls far beyond any useful bound, so the
/// gated tail is p95.
pub const MIN_OPS: usize = 1000;

/// Daemon set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

pub struct Args {
    pub phpsafe: PathBuf,
    pub root: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Scratch space for one run, inside the checkout.
    pub fn work_dir(&self) -> PathBuf {
        self.root.join(".bench_work").join(format!(
            "{}-{}-{}",
            self.workload,
            self.seed,
            std::process::id()
        ))
    }
}

/// What a run reports: counts of attempted and failed ops plus metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    fn json(&self, wanted: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = wanted
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn parse_args() -> Result<Args, String> {
    let mut phpsafe = None;
    let mut root = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--phpsafe" => phpsafe = Some(PathBuf::from(value)),
            "--root" => root = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        phpsafe: phpsafe.ok_or("--phpsafe is required")?,
        root: root.ok_or("--root is required")?,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let work = args.work_dir();
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let result = match args.workload.as_str() {
        "cold_audit" => cold::run(args),
        "editor_session" => served::run_editor(args, &work),
        _ => served::run_fleet(args, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    result
}

/// Writes the traced run's spans next to the run's scratch directory.
pub fn write_trace(args: &Args, trace: &trace::Trace) {
    let path: PathBuf = args
        .root
        .join(".bench_work")
        .join(format!("trace-{}-{}.ndjson", args.workload, args.seed));
    if let Err(e) = trace.write_ndjson(Path::new(&path)) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            let wanted = if args.trace { PER_LAYER } else { END_TO_END };
            println!("{}", report.json(wanted));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
