//! cold_audit: the Table III method. Every tool of `paper_tools()` meets
//! every plugin of both versions serially and uncached, through
//! `AnalysisTool::analyze` and then `to_json`, in a seeded order. One op
//! is one (tool, version, plugin) cell.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use phpsafe::symbols::SymbolTable;
use phpsafe::{AnalysisOutcome, EngineCaches, FileFailure, PluginProject};
use phpsafe_baselines::{paper_tools, paper_tools_graph, AnalysisTool};
use phpsafe_corpus::{Corpus, Version};
use phpsafe_engine::fnv1a_64;

use crate::script::{cold_script, script_hash, Cell, PLUGINS};
use crate::stats::{mean, median, ms, peak_rss_mb, percentile};
use crate::trace::Trace;
use crate::{write_trace, Args, Report, MIN_OPS};

/// Corpus set-ups per run; `setup_s` is their median. Generation takes
/// tens of ms, so a few more than the daemon workloads' set-ups.
const SETUPS: usize = 9;

/// Table I cell counts per (tool, version): detected vulnerabilities
/// (global true positives), false positives, files failed for resource
/// limits, files rejected as unsupported. `repro table1` prints the first
/// two; `tests/full_evaluation.rs` pins the phpSAFE and RIPS failures.
const PINNED: [(&str, Version, [usize; 4]); 6] = [
    ("phpSAFE", Version::V2012, [319, 65, 1, 0]),
    ("phpSAFE", Version::V2014, [401, 62, 3, 0]),
    ("RIPS", Version::V2012, [195, 77, 0, 0]),
    ("RIPS", Version::V2014, [345, 83, 0, 0]),
    ("Pixy", Version::V2012, [61, 193, 0, 72]),
    ("Pixy", Version::V2014, [21, 195, 0, 109]),
];

const TOOL_METRICS: [&str; 3] = ["tool.phpSAFE_ms", "baselines.rips_ms", "baselines.pixy_ms"];

fn version(v: usize) -> Version {
    Version::ALL[v]
}

fn project(corpus: &Corpus, cell: Cell) -> &PluginProject {
    corpus.plugins()[cell.plugin].project(version(cell.version))
}

/// Checks every op's output. The first time a cell is seen its report
/// hash is kept and its oracle counts go into the (tool, version) totals,
/// which must equal [`PINNED`]; every later run of the cell must render
/// the same bytes.
struct Verifier {
    first: HashMap<(usize, usize, usize), u64>,
    totals: [[usize; 4]; 6],
}

impl Verifier {
    fn new() -> Verifier {
        Verifier {
            first: HashMap::new(),
            totals: [[0; 4]; 6],
        }
    }

    fn check(
        &mut self,
        corpus: &Corpus,
        cell: Cell,
        outcome: &AnalysisOutcome,
        json: &str,
    ) -> bool {
        let hash = fnv1a_64(json.as_bytes());
        let key = (cell.tool, cell.version, cell.plugin);
        if let Some(&seen) = self.first.get(&key) {
            return seen == hash;
        }
        self.first.insert(key, hash);
        let plugin = &corpus.plugins()[cell.plugin];
        let truth: Vec<_> = plugin.truth_for(version(cell.version)).collect();
        let matched = phpsafe_eval::verify(outcome, &truth);
        let t = &mut self.totals[cell.tool * 2 + cell.version];
        t[0] += matched.tp();
        t[1] += matched.fp();
        for f in &outcome.files {
            match f.failure {
                Some(FileFailure::ResourceLimit(_)) => t[2] += 1,
                Some(FileFailure::Unsupported(_)) => t[3] += 1,
                None => {}
            }
        }
        true
    }

    /// Whether the whole matrix was seen and matches the pinned counts.
    fn matrix_matches(&self) -> bool {
        let mut ok = self.first.len() == 3 * 2 * PLUGINS;
        for (i, (tool, v, want)) in PINNED.iter().enumerate() {
            if self.totals[i] != *want {
                eprintln!(
                    "cold_audit: {tool} {v:?} counts {:?}, expected {want:?}",
                    self.totals[i]
                );
                ok = false;
            }
        }
        ok
    }
}

/// One untraced op, timed: analyze, then render. Checked afterwards.
fn plain_op(
    corpus: &Corpus,
    tools: &[Box<dyn AnalysisTool>],
    cell: Cell,
    verifier: &mut Verifier,
) -> (f64, bool) {
    let p = project(corpus, cell);
    let start = Instant::now();
    let outcome = tools[cell.tool].analyze(p);
    let json = outcome.to_json();
    let lat = ms(start.elapsed());
    let ok = json.is_ok_and(|j| verifier.check(corpus, cell, &outcome, &j));
    (lat, ok)
}

pub fn run(args: &Args) -> Result<Report, String> {
    // Set-up: corpus generation and load (per-root LOC).
    let mut setups = Vec::new();
    let mut corpus = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let fresh = Corpus::generate();
        let loc: usize = fresh
            .plugins()
            .iter()
            .flat_map(|p| Version::ALL.map(|v| p.project(v).total_loc()))
            .sum();
        std::hint::black_box(loc);
        setups.push(start.elapsed().as_secs_f64());
        corpus = Some(fresh);
    }
    let corpus = corpus.expect("at least one setup");
    let ops = cold_script(args.seed, 60);
    println!("script_hash={:016x} ops={}", script_hash(&ops), ops.len());
    let tools = paper_tools();
    let mut verifier = Verifier::new();
    let mut report = Report::default();
    if args.trace {
        traced(args, &corpus, &tools, &ops, &mut verifier, &mut report);
        report.correct = verifier.matrix_matches();
        return Ok(report);
    }

    // Ops until `seconds` of op time and MIN_OPS ops have passed.
    let (mut lat, mut kloc) = (Vec::new(), 0.0);
    for &cell in &ops {
        if lat.iter().sum::<f64>() >= args.seconds * 1e3 && lat.len() >= MIN_OPS {
            break;
        }
        let (spent, ok) = plain_op(&corpus, &tools, cell, &mut verifier);
        lat.push(spent);
        kloc += project(&corpus, cell).total_loc() as f64 / 1e3;
        report.attempted += 1;
        report.failed += u64::from(!ok);
    }
    report.correct = verifier.matrix_matches();
    let total_s = lat.iter().sum::<f64>() / 1e3;
    report.set("setup_s", median(&setups));
    report.set("kloc_per_s", kloc / total_s);
    report.set("ops_per_s", lat.len() as f64 / total_s);
    report.set("p50_ms", percentile(&lat, 50.0));
    report.set("p95_ms", percentile(&lat, 95.0));
    report.set(
        "peak_rss_mb",
        peak_rss_mb(std::process::id()).ok_or("cannot read VmHWM")?,
    );
    Ok(report)
}

/// Runs each op twice, untraced and traced, alternating which goes first
/// so both see the same machine state; then measures the taint-graph path
/// on one matrix pass.
fn traced(
    args: &Args,
    corpus: &Corpus,
    tools: &[Box<dyn AnalysisTool>],
    ops: &[Cell],
    verifier: &mut Verifier,
    report: &mut Report,
) {
    let mut trace = Trace::new();
    let mut tokens = 0usize;
    let mut nodes = 0usize;
    let mut work_units = 0u64;
    let mut report_bytes = 0usize;
    let mut tool_ms = [0.0f64; 3];
    let mut tool_ops = [0usize; 3];
    let (mut untraced, mut traced_wall, mut n) = (Vec::new(), 0.0, 0usize);
    for (i, &cell) in ops.iter().enumerate() {
        if untraced.iter().sum::<f64>() >= args.seconds * 1e3 && n >= MIN_OPS {
            break;
        }
        let untraced_first = i % 2 == 0;
        if untraced_first {
            let (spent, ok) = plain_op(corpus, tools, cell, verifier);
            untraced.push(spent);
            report.attempted += 1;
            report.failed += u64::from(!ok);
        }
        let op = i as u64;
        let p = project(corpus, cell);
        let wall = Instant::now();
        let t_analyze = Instant::now();
        let outcome = tools[cell.tool].analyze(p);
        let analyze = t_analyze.elapsed();
        let t_report = Instant::now();
        let json = outcome.to_json();
        let render = t_report.elapsed();
        // The analyze call lexes, parses and builds symbols internally;
        // making the same calls again gives those layers' share of it.
        // They run after the timed call so that it sees the same state as
        // an untraced op.
        let mut front = Vec::with_capacity(3);
        let start = Instant::now();
        let lexed: Vec<_> = p
            .files()
            .iter()
            .map(|f| php_lexer::tokenize(&f.content))
            .collect();
        tokens += lexed.iter().map(Vec::len).sum::<usize>();
        front.push(("php-lexer.self_ms", start, start.elapsed()));
        let start = Instant::now();
        let parsed: Vec<_> = lexed
            .into_iter()
            .map(|t| Arc::new(php_ast::parse_tokens(t)))
            .collect();
        nodes += parsed.iter().map(|f| f.arena.node_count()).sum::<usize>();
        front.push(("php-ast.self_ms", start, start.elapsed()));
        let start = Instant::now();
        let symbols = SymbolTable::build(
            p.files()
                .iter()
                .zip(&parsed)
                .map(|(f, a)| (f.path.as_str(), a)),
        );
        std::hint::black_box(&symbols);
        front.push(("core.symbols.self_ms", start, start.elapsed()));
        drop((symbols, parsed));
        traced_wall += ms(wall.elapsed());

        let dur = (analyze + render).as_nanos() as u64;
        let root = trace.record("op", op, None, t_analyze, dur);
        let walk = trace.record(
            "core.analyzer.self_ms",
            op,
            Some(root),
            t_analyze,
            analyze.as_nanos() as u64,
        );
        for (name, start, d) in front {
            trace.record(name, op, Some(walk), start, d.as_nanos() as u64);
        }
        trace.record(
            "core.report.self_ms",
            op,
            Some(root),
            t_report,
            render.as_nanos() as u64,
        );
        tool_ms[cell.tool] += ms(analyze);
        tool_ops[cell.tool] += 1;
        work_units += outcome.stats.work_units;
        let ok = match json {
            Ok(j) => {
                report_bytes += j.len();
                verifier.check(corpus, cell, &outcome, &j)
            }
            Err(_) => false,
        };
        report.attempted += 1;
        report.failed += u64::from(!ok);
        if !untraced_first {
            let (spent, ok) = plain_op(corpus, tools, cell, verifier);
            untraced.push(spent);
            report.attempted += 1;
            report.failed += u64::from(!ok);
        }
        n += 1;
    }

    let untraced_ms: f64 = untraced.iter().sum();
    report.set("p99_ms", percentile(&untraced, 99.0));
    let own = trace.self_ms();
    let layer = |name: &str| own.get(name).copied().unwrap_or(0.0);
    for name in [
        "php-lexer.self_ms",
        "php-ast.self_ms",
        "core.symbols.self_ms",
        "core.analyzer.self_ms",
        "core.report.self_ms",
    ] {
        report.set(name, layer(name) / n as f64);
    }
    let lexer_s = layer("php-lexer.self_ms") / 1e3;
    report.set("php-lexer.tokens_per_s", tokens as f64 / lexer_s);
    report.set("php-ast.nodes", mean(nodes as f64, n));
    report.set("core.analyzer.work_units", mean(work_units as f64, n));
    report.set("core.report.bytes", mean(report_bytes as f64, n));
    for (t, name) in TOOL_METRICS.iter().enumerate() {
        report.set(name, mean(tool_ms[t], tool_ops[t]));
    }
    let attributed: f64 = own
        .iter()
        .filter(|(k, _)| **k != "op")
        .map(|(_, v)| v)
        .sum();
    report.set("unattributed_ms", (untraced_ms - attributed) / n as f64);
    report.set(
        "obs.trace_overhead_pct",
        (traced_wall - untraced_ms) / untraced_ms * 100.0,
    );
    eprintln!(
        "cold_audit: layer self times sum to {:.1}% of the untraced time",
        attributed / untraced_ms * 100.0
    );
    // Decision data for the taint-graph path: one matrix pass, each cell
    // recorded cold into fresh caches, then answered warm from its graph.
    let graph_tools = paper_tools_graph();
    let (mut record_ms, mut query_ms, mut cells) = (0.0, 0.0, 0usize);
    for &cell in ops.iter().take(3 * 2 * PLUGINS) {
        let p = project(corpus, cell);
        let caches = EngineCaches::new();
        let start = Instant::now();
        let cold = graph_tools[cell.tool].analyze_cached(p, &caches);
        let cold_ms = ms(start.elapsed());
        let start = Instant::now();
        let warm = graph_tools[cell.tool].analyze_cached(p, &caches);
        let warm_ms = ms(start.elapsed());
        record_ms += cold_ms - warm_ms;
        query_ms += warm_ms;
        cells += 1;
        let same = [&cold, &warm].iter().all(|o| {
            o.to_json()
                .is_ok_and(|j| verifier.check(corpus, cell, o, &j))
        });
        report.attempted += 1;
        if !same {
            report.failed += 1;
        }
    }
    report.set("dataflow.record_ms", mean(record_ms, cells));
    report.set("dataflow.query_ms", mean(query_ms, cells));
    write_trace(args, &trace);
}
