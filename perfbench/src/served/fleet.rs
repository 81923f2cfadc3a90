//! fleet_mixed: two connections replaying a seeded mix of warm `analyze`
//! requests over all 70 roots plus `status` and `metrics`. One op is one
//! request.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use phpsafe_corpus::Corpus;
use phpsafe_serve::{Json, RequestCtx, Service};

use super::{
    analyze_req, daemon_spans, disk_bytes, layer_metrics, ms_of, replay_server, report_of, setups,
    start_daemon, write_roots, Counters, Expected, OpRecord, Roots, Shadow,
};
use crate::daemon::{analyze_request, envelope_seq, read_telemetry, Conn, Daemon};
use crate::script::{fleet_script, script_hash, FleetOp};
use crate::stats::percentile;
use crate::trace::Trace;
use crate::{write_trace, Args, Report, MIN_OPS};

/// Each root's report field as it appears inside a reply line.
fn escaped(base: &[Arc<str>]) -> Vec<String> {
    base.iter()
        .map(|r| format!("\"report\":{}", Json::Str(r.to_string()).emit()))
        .collect()
}

fn fleet_request(id: u64, op: FleetOp, roots: &Roots) -> String {
    match op {
        FleetOp::Analyze { root } => analyze_request(id, &roots.dirs[root], None),
        FleetOp::Status => format!("{{\"cmd\":\"status\",\"id\":{id}}}"),
        FleetOp::Metrics => format!("{{\"cmd\":\"metrics\",\"id\":{id}}}"),
        FleetOp::Prometheus => {
            format!("{{\"cmd\":\"metrics\",\"format\":\"prometheus\",\"id\":{id}}}")
        }
    }
}

/// Whether a reply is right for its op: envelope, then a cheap body check
/// (the expected report must appear verbatim, escaped).
fn fleet_ok(op: FleetOp, reply: &str, id: u64, escaped: &[String]) -> Option<u64> {
    let seq = envelope_seq(reply, id)?;
    let body = match op {
        FleetOp::Analyze { root } => reply.contains(&escaped[root]),
        FleetOp::Status => reply.contains("\"tools\":[\"phpSAFE\"]"),
        FleetOp::Metrics => reply.contains("\"metrics\":{"),
        FleetOp::Prometheus => reply.contains("\"format\":\"prometheus\""),
    };
    body.then_some(seq)
}

/// Ops per block in the traced fleet run.
const BLOCK: usize = 64;

/// One fleet request, timed, then checked.
fn fleet_step(
    conn: &mut Conn,
    id: u64,
    op: FleetOp,
    roots: &Roots,
    escaped: &[String],
) -> Result<(OpRecord, bool), String> {
    let line = fleet_request(id, op, roots);
    let start = Instant::now();
    let reply = conn.call(&line).map_err(|e| e.to_string())?;
    let lat = start.elapsed();
    let seq = fleet_ok(op, &reply, id, escaped);
    let mut record = OpRecord {
        start,
        lat_ns: lat.as_nanos() as u64,
        seqs: seq.into_iter().collect(),
        bytes: reply.len(),
        save: false,
        fully_cached: Vec::new(),
        depgraph: None,
        kloc: 0.0,
    };
    if let FleetOp::Analyze { root } = op {
        record.kloc = roots.kloc[root];
        record
            .fully_cached
            .push(reply.contains("\"fully_cached\":true"));
    }
    Ok((record, seq.is_some()))
}

/// One fleet client thread's records per daemon and its failure count.
type ConnResult = Result<(Vec<Vec<OpRecord>>, u64), String>;

/// What the two client threads of a fleet run produced: records per
/// daemon, per connection, plus the failure count.
struct FleetRun {
    records: Vec<[Vec<OpRecord>; 2]>,
    failed: u64,
    wall_s: f64,
}

impl FleetRun {
    fn merged(&self, daemon: usize) -> Vec<&OpRecord> {
        self.records[daemon].iter().flatten().collect()
    }
}

/// Two client threads, one connection each, replay their op lists in a
/// closed loop until `seconds` have passed and each ran `MIN_OPS / 2` ops.
/// With two daemons, the ops go in blocks of [`BLOCK`]: each block runs on
/// one daemon and then on the other, alternating which goes first, both
/// threads switching together.
fn fleet_loop(
    daemons: &[&Daemon],
    script: &[Vec<FleetOp>; 2],
    roots: &Roots,
    escaped: &[String],
    seconds: f64,
) -> Result<FleetRun, String> {
    let wall = Instant::now();
    let barrier = std::sync::Barrier::new(2);
    let stop = std::sync::atomic::AtomicBool::new(false);
    let halves: Vec<ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                let (ops, barrier, stop) = (&script[c], &barrier, &stop);
                s.spawn(move || -> ConnResult {
                    let mut records: Vec<Vec<OpRecord>> =
                        daemons.iter().map(|_| Vec::new()).collect();
                    let mut failed = 0;
                    if let [daemon] = daemons {
                        // Untraced: each connection runs on its own.
                        let mut conn = daemon.connect().map_err(|e| e.to_string())?;
                        for (i, &op) in ops.iter().enumerate() {
                            if wall.elapsed().as_secs_f64() >= seconds
                                && records[0].len() >= MIN_OPS / 2
                            {
                                break;
                            }
                            let id = (c as u64) << 32 | i as u64;
                            let (record, ok) = fleet_step(&mut conn, id, op, roots, escaped)?;
                            failed += u64::from(!ok);
                            records[0].push(record);
                        }
                        return Ok((records, failed));
                    }
                    // Traced pair: every block runs on both daemons, so the
                    // time limit covers both passes.
                    for (b, block) in ops.chunks(BLOCK).enumerate() {
                        let done = wall.elapsed().as_secs_f64() >= 2.0 * seconds
                            && records[0].len() >= MIN_OPS / 2;
                        if barrier.wait().is_leader() {
                            stop.store(done, std::sync::atomic::Ordering::SeqCst);
                        }
                        barrier.wait();
                        if stop.load(std::sync::atomic::Ordering::SeqCst) {
                            break;
                        }
                        let mut order: Vec<usize> = (0..daemons.len()).collect();
                        if b % 2 == 1 {
                            order.reverse();
                        }
                        for d in order {
                            let mut conn = daemons[d].connect().map_err(|e| e.to_string())?;
                            barrier.wait();
                            for (k, &op) in block.iter().enumerate() {
                                let id = (c as u64) << 32 | (b * BLOCK + k) as u64;
                                let (record, ok) = fleet_step(&mut conn, id, op, roots, escaped)?;
                                failed += u64::from(!ok);
                                records[d].push(record);
                            }
                        }
                    }
                    Ok((records, failed))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet client panicked"))
            .collect()
    });
    let mut run = FleetRun {
        records: daemons.iter().map(|_| [Vec::new(), Vec::new()]).collect(),
        failed: 0,
        wall_s: wall.elapsed().as_secs_f64(),
    };
    for (c, half) in halves.into_iter().enumerate() {
        let (records, failed) = half?;
        for (d, recs) in records.into_iter().enumerate() {
            run.records[d][c] = recs;
        }
        run.failed += failed;
    }
    Ok(run)
}

pub fn run_fleet(args: &Args, work: &Path) -> Result<Report, String> {
    let corpus = Corpus::generate();
    let roots = write_roots(&corpus, &work.join("corpus"))?;
    let script = fleet_script(args.seed, 200 * MIN_OPS);
    println!(
        "script_hash={:016x} ops={}",
        script_hash(&script),
        script[0].len() + script[1].len()
    );
    let mut expected = Expected {
        memo: HashMap::new(),
    };
    let base: Vec<Arc<str>> = roots
        .projects
        .iter()
        .map(|p| expected.of(p).report)
        .collect();
    let escaped = escaped(&base);
    let mut report = Report {
        correct: true,
        ..Report::default()
    };

    if !args.trace {
        let (daemon, setup_s) = setups(args, work, &roots, &base)?;
        let run = fleet_loop(&[&daemon], &script, &roots, &escaped, args.seconds)?;
        let rss = daemon.peak_rss_mb();
        daemon.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let records = run.merged(0);
        let lat = ms_of(records.iter().copied());
        let kloc: f64 = records.iter().map(|r| r.kloc).sum();
        report.attempted = lat.len() as u64;
        report.failed = run.failed;
        report.set("setup_s", setup_s);
        report.set("kloc_per_s", kloc / run.wall_s);
        report.set("ops_per_s", lat.len() as f64 / run.wall_s);
        report.set("p50_ms", percentile(&lat, 50.0));
        report.set("p95_ms", percentile(&lat, 95.0));
        report.set("peak_rss_mb", rss.ok_or("cannot read the daemon's VmHWM")?);
        return Ok(report);
    }

    // Traced: a plain daemon and one writing telemetry take the same
    // blocks of ops in turn.
    let telemetry = work.join("telemetry.ndjson");
    let (plain, _) = start_daemon(args, &work.join("cache-plain"), None, &roots, &base)?;
    let (traced, _) = start_daemon(
        args,
        &work.join("cache-traced"),
        Some(&telemetry),
        &roots,
        &base,
    )?;
    let run = fleet_loop(&[&plain, &traced], &script, &roots, &escaped, args.seconds)?;
    plain.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    traced.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let events = read_telemetry(&telemetry).map_err(|e| format!("telemetry: {e}"))?;
    report.attempted = (run.merged(0).len() + run.merged(1).len()) as u64;
    report.failed = run.failed;

    // In-process replay of the analyze and status ops, interleaved.
    let server = replay_server(&work.join("cache-replay"), &roots)?;
    let mut counters = Counters::default();
    let counts = [run.records[0][0].len(), run.records[0][1].len()];
    // Shadows line up with the merged records: connection 0, then 1.
    let mut shadows = vec![Shadow::default(); counts[0] + counts[1]];
    let interleaved = (0..counts[0].max(counts[1]))
        .flat_map(|i| (0..2).filter_map(move |c| (i < counts[c]).then_some((c, i))));
    for (c, i) in interleaved {
        match script[c][i] {
            FleetOp::Analyze { root } => {
                let start = Instant::now();
                std::hint::black_box(roots.projects[root].content_key());
                shadows[c * counts[0] + i].key = start.elapsed();
                let disk_before = counters.before(&server);
                let result = server.analyze(
                    &RequestCtx::detached(),
                    &analyze_req(&roots.dirs[root], None, None),
                );
                counters.after(&server, disk_before);
                report.attempted += 1;
                if !result.is_ok_and(|r| report_of(&r) == Some(&*base[root])) {
                    report.failed += 1;
                }
            }
            FleetOp::Status => {
                std::hint::black_box(server.status());
            }
            FleetOp::Metrics | FleetOp::Prometheus => {}
        }
    }
    counters.bytes_on_disk = disk_bytes(&server);

    let (plain, traced) = (run.merged(0), run.merged(1));
    let mut trace = Trace::new();
    report.failed += daemon_spans(&mut trace, &plain, &traced, &events, &shadows);
    layer_metrics(&mut report, &trace, &plain, &traced, &events);
    report.set("p99_ms", percentile(&ms_of(plain.iter().copied()), 99.0));
    counters.report(&mut report, plain.len());
    write_trace(args, &trace);
    Ok(report)
}
