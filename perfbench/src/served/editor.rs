//! editor_session: one connection. A developer types into a file (a few
//! `analyze` requests carrying the unsaved buffer), then saves it (write,
//! `invalidate`, `analyze`). One op is one buffer analyze or one save.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use phpsafe::symbols::SymbolTable;
use phpsafe::PluginProject;
use phpsafe_corpus::Corpus;
use phpsafe_serve::{parse, InvalidateRequest, Json, RequestCtx, Service};

use super::{
    analyze_req, daemon_spans, disk_bytes, layer_metrics, mean, ms_of, num, replay_server,
    report_of, setups, start_daemon, write_roots, Counters, Expected, OpRecord, Roots, Shadow,
};
use crate::daemon::{
    analyze_request, envelope_seq, first_report, invalidate_request, read_telemetry, Conn,
};
use crate::script::{editor_script, script_hash, EditorOp, EditorScript};
use crate::stats::{median, ms, percentile};
use crate::trace::Trace;
use crate::{write_trace, Args, Report, MIN_OPS};

/// Inserts `text` as a new line right after the file's first line.
fn insert_line(content: &str, text: &str) -> String {
    let at = content.find('\n').map_or(content.len(), |i| i + 1);
    format!("{}{text}\n{}", &content[..at], &content[at..])
}

/// What one editor op presents to the daemon: the edited file (its path
/// under the root and its contents) and the project with it overlaid.
struct EditorInput {
    root: usize,
    save: bool,
    rel: String,
    content: String,
    project: PluginProject,
}

fn editor_input(script: &EditorScript, roots: &Roots, op: EditorOp) -> EditorInput {
    let (edit, typed, save) = match op {
        EditorOp::Buffer { edit, typed } => (edit, typed, false),
        EditorOp::Save { edit } => (edit, script.edits[edit].line().len(), true),
    };
    let e = &script.edits[edit];
    let file = &roots.projects[e.root].files()[e.file];
    let content = insert_line(&file.content, &e.line()[..typed]);
    let mut project = roots.projects[e.root].clone();
    project.overlay_file(&file.path, &content);
    EditorInput {
        root: e.root,
        save,
        rel: file.path.clone(),
        content,
        project,
    }
}

/// One editor connection to one daemon, over its own copy of the corpus
/// (saves write to it).
struct Session {
    conn: Conn,
    roots: Roots,
    next_id: u64,
}

impl Session {
    /// Runs one op, timed; then checks every reply against the reference
    /// report and, for a save, that `invalidate` saw exactly one dirty
    /// file. Returns the record and whether the op was correct.
    fn step(
        &mut self,
        script: &EditorScript,
        op: EditorOp,
        expected: &mut Expected,
    ) -> Result<(OpRecord, bool), String> {
        let EditorInput {
            root,
            save,
            rel,
            content,
            project,
        } = editor_input(script, &self.roots, op);
        let dir = self.roots.dirs[root].clone();
        let abs = format!("{dir}/{rel}");
        let mut requests = Vec::new();
        if save {
            self.next_id += 1;
            requests.push((self.next_id, invalidate_request(self.next_id, &abs)));
        }
        self.next_id += 1;
        let buffer = (!save).then_some((abs.as_str(), content.as_str()));
        requests.push((self.next_id, analyze_request(self.next_id, &dir, buffer)));

        let mut replies = Vec::new();
        let start = Instant::now();
        if save {
            std::fs::write(&abs, &content).map_err(|e| format!("write {abs}: {e}"))?;
        }
        for (_, line) in &requests {
            replies.push(self.conn.call(line).map_err(|e| e.to_string())?);
        }
        let lat = start.elapsed();

        let want = expected.of(&project).report;
        let mut record = OpRecord {
            start,
            lat_ns: lat.as_nanos() as u64,
            seqs: Vec::new(),
            bytes: 0,
            save,
            fully_cached: Vec::new(),
            depgraph: None,
            kloc: self.roots.kloc[root],
        };
        let mut ok = true;
        for (i, ((id, _), reply)) in requests.iter().zip(&replies).enumerate() {
            record.bytes += reply.len();
            let Ok(parsed) = parse(reply) else {
                ok = false;
                continue;
            };
            match envelope_seq(reply, *id) {
                Some(seq) => record.seqs.push(seq),
                None => ok = false,
            }
            let result = parsed.get("result");
            if save && i == 0 {
                let p = result
                    .and_then(|r| r.get("projects"))
                    .and_then(Json::as_arr)
                    .and_then(|a| a.first());
                ok &= num(p.and_then(|p| p.get("dirty"))) == Some(1.0);
                let affected = num(p.and_then(|p| p.get("affected"))).unwrap_or(0.0);
                let reparsed = num(p.and_then(|p| p.get("reparsed"))).unwrap_or(0.0);
                record.depgraph = Some((affected, reparsed));
            } else {
                ok &= first_report(&parsed) == Some(&*want);
                record
                    .fully_cached
                    .push(result.and_then(|r| r.get("fully_cached")) == Some(&Json::Bool(true)));
            }
        }
        if save {
            self.roots.projects[root] = project;
        }
        Ok((record, ok))
    }
}

pub fn run_editor(args: &Args, work: &Path) -> Result<Report, String> {
    let corpus = Corpus::generate();
    let roots = write_roots(&corpus, &work.join("corpus"))?;
    let files: Vec<usize> = roots.projects.iter().map(|p| p.files().len()).collect();
    let script = editor_script(args.seed, &files, 20 * MIN_OPS);
    println!(
        "script_hash={:016x} ops={}",
        script_hash(&script),
        script.ops.len()
    );
    let mut expected = Expected {
        memo: HashMap::new(),
    };
    let base: Vec<Arc<str>> = roots
        .projects
        .iter()
        .map(|p| expected.of(p).report)
        .collect();
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    if args.trace {
        traced_editor(
            args,
            work,
            &corpus,
            &script,
            &base,
            &mut expected,
            &mut report,
        )?;
        return Ok(report);
    }

    let (daemon, setup_s) = setups(args, work, &roots, &base)?;
    let mut session = Session {
        conn: daemon.connect().map_err(|e| e.to_string())?,
        roots,
        next_id: 0,
    };
    let mut records = Vec::new();
    let mut spent_s = 0.0;
    let mut rss = None;
    for &op in &script.ops {
        if spent_s >= args.seconds && records.len() >= MIN_OPS {
            break;
        }
        let (record, ok) = session.step(&script, op, &mut expected)?;
        spent_s += record.lat_ns as f64 / 1e9;
        report.attempted += 1;
        report.failed += u64::from(!ok);
        records.push(record);
        // Every edit adds cache entries, so the high-water mark is taken
        // at a fixed op count, not after however many ops the time allowed.
        if records.len() == MIN_OPS {
            rss = daemon.peak_rss_mb();
        }
    }
    drop(session);
    daemon.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    let lat = ms_of(&records);
    let kloc: f64 = records.iter().map(|r| r.kloc).sum();
    report.set("setup_s", setup_s);
    report.set("kloc_per_s", kloc / spent_s);
    report.set("ops_per_s", lat.len() as f64 / spent_s);
    report.set("p50_ms", percentile(&lat, 50.0));
    report.set("p95_ms", percentile(&lat, 95.0));
    report.set("peak_rss_mb", rss.ok_or("cannot read the daemon's VmHWM")?);
    Ok(report)
}

/// Two daemons, each on its own corpus copy: one plain, one writing
/// telemetry. Every op runs on both, alternating which goes first, so the
/// untraced reference and the traced run see the same machine state.
fn traced_editor(
    args: &Args,
    work: &Path,
    corpus: &Corpus,
    script: &EditorScript,
    base: &[Arc<str>],
    expected: &mut Expected,
    report: &mut Report,
) -> Result<(), String> {
    let telemetry = work.join("telemetry.ndjson");
    let mut sessions = Vec::new();
    let mut daemons = Vec::new();
    for (tag, sink) in [("plain", None), ("traced", Some(telemetry.as_path()))] {
        let roots = write_roots(corpus, &work.join(format!("corpus-{tag}")))?;
        let (daemon, _) =
            start_daemon(args, &work.join(format!("cache-{tag}")), sink, &roots, base)?;
        sessions.push(Session {
            conn: daemon.connect().map_err(|e| e.to_string())?,
            roots,
            next_id: 0,
        });
        daemons.push(daemon);
    }
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut spent_s = 0.0;
    for (i, &op) in script.ops.iter().enumerate() {
        if spent_s >= args.seconds && plain.len() >= MIN_OPS {
            break;
        }
        // Reference reports come first, so neither daemon's op is followed
        // by the in-process analysis that computes one.
        expected.of(&editor_input(script, &sessions[0].roots, op).project);
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for s in order {
            let (record, ok) = sessions[s].step(script, op, expected)?;
            report.attempted += 1;
            report.failed += u64::from(!ok);
            if s == 0 {
                spent_s += record.lat_ns as f64 / 1e9;
                plain.push(record);
            } else {
                traced.push(record);
            }
        }
    }
    drop(sessions);
    for daemon in daemons {
        daemon.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    }
    let events = read_telemetry(&telemetry).map_err(|e| format!("telemetry: {e}"))?;

    // In-process replay: cache counters and the front end's share.
    let n = plain.len();
    let mut roots = write_roots(corpus, &work.join("corpus-replay"))?;
    let replay = replay_editor(work, script, &mut roots, expected, n)?;
    report.attempted += n as u64;
    report.failed += replay.failed;

    let (plain, traced): (Vec<&OpRecord>, Vec<&OpRecord>) =
        (plain.iter().collect(), traced.iter().collect());
    let mut trace = Trace::new();
    report.failed += daemon_spans(&mut trace, &plain, &traced, &events, &replay.shadows);
    layer_metrics(report, &trace, &plain, &traced, &events);
    replay.counters.report(report, n);
    report.set("engine.pool.fn_jobs_ratio", replay.fn_jobs_ratio);
    let sum = |f: fn(&Shadow) -> f64| replay.shadows.iter().map(f).sum::<f64>() / n as f64;
    report.set("php-ast.nodes", sum(|s| s.nodes as f64));
    report.set("core.report.bytes", sum(|s| s.report_bytes as f64));
    report.set("core.analyzer.work_units", sum(|s| s.work_units as f64));
    let lex_s = sum(|s| s.lex.as_secs_f64());
    report.set("php-lexer.tokens_per_s", sum(|s| s.tokens as f64) / lex_s);
    report.set("p99_ms", percentile(&ms_of(plain.iter().copied()), 99.0));
    let save_ms = ms_of(plain.iter().copied().filter(|r| r.save));
    report.set("save_p50_ms", percentile(&save_ms, 50.0));
    report.set("save_p99_ms", percentile(&save_ms, 99.0));
    let deps: Vec<(f64, f64)> = traced.iter().filter_map(|r| r.depgraph).collect();
    report.set(
        "core.depgraph.affected",
        mean(deps.iter().map(|d| d.0).sum(), deps.len()),
    );
    report.set(
        "core.depgraph.reparsed",
        mean(deps.iter().map(|d| d.1).sum(), deps.len()),
    );
    write_trace(args, &trace);
    Ok(())
}

struct Replay {
    shadows: Vec<Shadow>,
    counters: Counters,
    fn_jobs_ratio: f64,
    failed: u64,
}

/// Replays the first `n` editor ops through an in-process
/// `AnalysisServer`, timing the front end of each re-analysis with direct
/// calls, then compares a buffer analyze at `jobs: 1` with the default.
fn replay_editor(
    work: &Path,
    script: &EditorScript,
    roots: &mut Roots,
    expected: &mut Expected,
    n: usize,
) -> Result<Replay, String> {
    let server = replay_server(&work.join("cache-replay"), roots)?;
    let mut out = Replay {
        shadows: Vec::new(),
        counters: Counters::default(),
        fn_jobs_ratio: 0.0,
        failed: 0,
    };
    let mut probes = Vec::new();
    for &op in &script.ops[..n] {
        let EditorInput {
            root,
            save,
            rel,
            content,
            project,
        } = editor_input(script, roots, op);
        let dir = roots.dirs[root].clone();
        let abs = format!("{dir}/{rel}");
        let reference = expected.of(&project);
        let want = &reference.report;

        // The daemon re-parses only the edited file and rebuilds symbols
        // over the whole project; time those calls directly.
        let mut shadow = Shadow {
            report: reference.render,
            report_bytes: reference.report.len(),
            work_units: reference.work_units,
            ..Shadow::default()
        };
        let start = Instant::now();
        std::hint::black_box(project.content_key());
        shadow.key = start.elapsed();
        let start = Instant::now();
        let tokens = php_lexer::tokenize(&content);
        shadow.lex = start.elapsed();
        shadow.tokens = tokens.len();
        let start = Instant::now();
        let parsed = Arc::new(php_ast::parse_tokens(tokens));
        shadow.parse = start.elapsed();
        shadow.nodes = parsed.arena.node_count();
        let asts: Vec<_> = project
            .files()
            .iter()
            .map(|f| match f.path == rel {
                true => Arc::clone(&parsed),
                false => server.caches().ast().parse(&f.content),
            })
            .collect();
        let start = Instant::now();
        let symbols = SymbolTable::build(
            project
                .files()
                .iter()
                .zip(&asts)
                .map(|(f, a)| (f.path.as_str(), a)),
        );
        shadow.symbols = start.elapsed();
        std::hint::black_box(&symbols);

        let disk_before = out.counters.before(&server);
        let ctx = RequestCtx::detached();
        let mut ok = true;
        let result = if save {
            std::fs::write(&abs, &content).map_err(|e| format!("write {abs}: {e}"))?;
            let paths = vec![abs.clone()];
            let inv = server.invalidate(&ctx, &InvalidateRequest { paths });
            let dirty = inv.as_ref().ok().and_then(|inv| {
                let p = inv.get("projects")?.as_arr()?.first()?;
                num(p.get("dirty"))
            });
            ok &= dirty == Some(1.0);
            server.analyze(&ctx, &analyze_req(&dir, None, None))
        } else {
            if probes.len() < 10 {
                probes.push((dir.clone(), abs.clone(), content.clone()));
            }
            let buffer = Some((abs.clone(), content.clone()));
            server.analyze(&ctx, &analyze_req(&dir, buffer, None))
        };
        out.counters.after(&server, disk_before);
        ok &= result.is_ok_and(|r| report_of(&r) == Some(want.as_ref()));
        out.failed += u64::from(!ok);
        if save {
            roots.projects[root] = project;
        }
        out.shadows.push(shadow);
    }
    out.counters.bytes_on_disk = disk_bytes(&server);

    // Decision data for `--fn-jobs`: the same kind of buffer analyze with
    // `jobs: 1` and with the daemon default, on distinct contents so both
    // miss the outcome tier; alternating which goes first.
    let (mut serial, mut default) = (Vec::new(), Vec::new());
    for (k, (dir, abs, content)) in probes.iter().enumerate() {
        let mut modes = [(0, Some(1)), (1, None)];
        if k % 2 == 1 {
            modes.reverse();
        }
        for (pass, jobs) in modes {
            let buffer = Some((
                abs.clone(),
                format!("{content}\n// jobs probe {k} {pass}\n"),
            ));
            let start = Instant::now();
            server.analyze(&RequestCtx::detached(), &analyze_req(dir, buffer, jobs))?;
            let spent = ms(start.elapsed());
            if jobs == Some(1) {
                serial.push(spent);
            } else {
                default.push(spent);
            }
        }
    }
    out.fn_jobs_ratio = median(&serial) / median(&default);
    Ok(out)
}
