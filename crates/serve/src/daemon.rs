//! The daemon core: a [`Service`]-agnostic request loop.
//!
//! The analysis implementation lives downstream (phpsafe-core implements
//! [`Service`]); this module owns everything operational around it — the
//! bounded queue, the worker pool, per-request timeouts, graceful drain on
//! shutdown, and the `serve.*` metrics. Both transports ([`run_stdio`]
//! and [`run_tcp`]) run one read/answer loop over
//! [`Daemon::handle_bytes`]; [`Daemon::handle_line`] is the same entry
//! point for text, so unit tests can drive the full protocol without a
//! socket.
//!
//! Every request is assigned a monotonic `seq` the moment its line
//! arrives; the seq is echoed in the response (success *and* every error
//! path) and keys the request's [`WideEvent`] — one structured telemetry
//! record per request, streamed to the `--telemetry-out` sink and
//! tail-sampled for the `telemetry` command.

use std::io::{self, BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use phpsafe_obs::{count, snapshot, time, TailSampler, TelemetrySink, WideEvent};

use crate::ctx::RequestCtx;
use crate::proto::{
    error_response, ok_response, parse_line, AnalyzeRequest, InvalidateRequest, ParseFailure,
    Request,
};
use crate::queue::{BoundedQueue, PushError};
use phpsafe_obs::json::Json;

/// Counters pre-registered at daemon start, so the full metric surface is
/// scrapeable (and greppable by harnesses) before the first request.
const DECLARED_COUNTERS: &[&str] = &[
    "serve.requests",
    "serve.accepted",
    "serve.rejected",
    "serve.timeouts",
    "serve.errors",
    "serve.bad_requests",
    "serve.worker_panics",
    "serve.request.wide_events",
    "serve.request.tail_sampled",
    "serve.request.telemetry_errors",
    "diskcache.bytes_read",
    "diskcache.bytes_written",
    "diskcache.store_failed",
    "diskcache.open_failed",
    "depgraph.invalidated",
    "incremental.files_dirty",
    "incremental.files_reanalyzed",
];

/// Longest request line the transports accept, newline excluded. Dirty
/// buffers carry whole files, so the cap is generous; it bounds the memory
/// one line can pin.
const MAX_REQUEST_BYTES: usize = 16 << 20;

/// Histograms pre-registered at daemon start.
const DECLARED_HISTOGRAMS: &[&str] = &[
    "serve.request",
    "serve.analyze",
    "serve.invalidate",
    "serve.request.queue_wait",
];

/// What a daemon must know how to do; everything else (transport, queueing,
/// timeouts, metrics) is generic.
pub trait Service: Send + Sync + 'static {
    /// Runs one analysis request and returns the response payload placed
    /// under `"result"` in the reply. Use [`Json::Raw`] for pre-rendered
    /// cached reports so replies stay byte-identical. The context carries
    /// the request's identity and deadline in, and stage timings / cache
    /// attribution back out into the request's wide event.
    fn analyze(&self, ctx: &RequestCtx, request: &AnalyzeRequest) -> Result<Json, String>;

    /// Handles an `invalidate` request: changed on-disk paths. Services
    /// that track project state use it to re-warm caches off the client's
    /// next-analyze path; the default declines politely.
    fn invalidate(&self, _ctx: &RequestCtx, _request: &InvalidateRequest) -> Result<Json, String> {
        Err("this service does not support invalidate".into())
    }

    /// Extra fields appended to `status` replies (cache sizes etc.).
    fn status(&self) -> Vec<(String, Json)> {
        Vec::new()
    }
}

/// Operational limits for a daemon.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Analysis worker threads consuming the queue.
    pub workers: usize,
    /// Maximum queued (not yet running) requests before 429 rejection.
    pub queue_capacity: usize,
    /// Per-request deadline; expired requests get a 504 reply (the worker
    /// finishes in the background and warms the caches regardless).
    pub request_timeout: Duration,
    /// Stream one wide-event NDJSON line per request to this file
    /// (`--telemetry-out`); `None` disables the sink.
    pub telemetry_out: Option<PathBuf>,
    /// How many slowest and how many errored requests the tail sampler
    /// retains for the `telemetry` command.
    pub tail_keep: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 1,
            queue_capacity: 64,
            request_timeout: Duration::from_secs(300),
            telemetry_out: None,
            tail_keep: 8,
        }
    }
}

/// What the caller should do after writing the response line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep reading requests.
    Continue,
    /// The daemon is shutting down; stop the transport loop.
    Shutdown,
}

/// Work routed through the bounded queue: both request kinds share the
/// same backpressure, timeout and telemetry machinery.
enum WorkItem {
    Analyze(AnalyzeRequest),
    Invalidate(InvalidateRequest),
}

impl WorkItem {
    fn method(&self) -> &'static str {
        match self {
            WorkItem::Analyze(_) => "analyze",
            WorkItem::Invalidate(_) => "invalidate",
        }
    }
}

struct Job {
    ctx: Arc<RequestCtx>,
    work: WorkItem,
    reply: mpsc::Sender<Result<Json, String>>,
}

/// A running daemon: worker pool + bounded queue around a [`Service`].
pub struct Daemon {
    service: Arc<dyn Service>,
    config: ServerConfig,
    queue: Arc<BoundedQueue<Job>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    draining: AtomicBool,
    started: Instant,
    served: AtomicU64,
    seq: AtomicU64,
    tail: TailSampler,
    sink: Option<TelemetrySink>,
}

impl Daemon {
    /// Starts the worker pool and returns the daemon handle.
    pub fn start(service: Arc<dyn Service>, config: ServerConfig) -> Arc<Daemon> {
        for name in DECLARED_COUNTERS {
            phpsafe_obs::declare_counter(name);
        }
        for name in DECLARED_HISTOGRAMS {
            phpsafe_obs::declare_histogram(name);
        }
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let daemon = Arc::new(Daemon {
            service: Arc::clone(&service),
            workers: Mutex::new(Vec::new()),
            draining: AtomicBool::new(false),
            started: Instant::now(),
            served: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            tail: TailSampler::new(config.tail_keep),
            sink: config.telemetry_out.clone().map(TelemetrySink::new),
            queue: Arc::clone(&queue),
            config,
        });
        let mut workers = daemon.workers.lock().unwrap();
        for _ in 0..daemon.config.workers.max(1) {
            let queue = Arc::clone(&queue);
            let service = Arc::clone(&service);
            workers.push(std::thread::spawn(move || {
                while let Some((job, wait)) = queue.pop_with_wait() {
                    time("serve.request.queue_wait", wait);
                    job.ctx.set_queue_wait(wait);
                    let t0 = Instant::now();
                    // A panicking analysis answers 500 like any failed
                    // one; the worker lives on to serve the next job.
                    let outcome = catch_unwind(AssertUnwindSafe(|| match &job.work {
                        WorkItem::Analyze(request) => service.analyze(&job.ctx, request),
                        WorkItem::Invalidate(request) => service.invalidate(&job.ctx, request),
                    }))
                    .unwrap_or_else(|payload| {
                        count("serve.worker_panics", 1);
                        let what = payload
                            .downcast_ref::<&str>()
                            .copied()
                            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                            .unwrap_or("unknown cause");
                        Err(format!("{} panicked: {what}", job.work.method()))
                    });
                    let histogram = match job.work {
                        WorkItem::Analyze(_) => "serve.analyze",
                        WorkItem::Invalidate(_) => "serve.invalidate",
                    };
                    let spent = t0.elapsed();
                    job.ctx.set_service_time(spent);
                    time(histogram, spent);
                    if outcome.is_err() {
                        count("serve.errors", 1);
                    }
                    // The requester may have timed out and dropped the
                    // receiver; the work still warmed the caches.
                    let _ = job.reply.send(outcome);
                }
            }));
        }
        drop(workers);
        daemon
    }

    /// True once a shutdown request has been accepted.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Stops accepting new work; already-queued requests still complete.
    /// Flushes the telemetry sink so the stream survives an abrupt exit.
    pub fn shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue.close();
        self.flush_telemetry();
    }

    /// Waits for every worker to finish draining the queue, then flushes
    /// the telemetry sink one final time (the drain itself emits events).
    pub fn join(&self) {
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        self.flush_telemetry();
    }

    fn flush_telemetry(&self) {
        if let Some(sink) = &self.sink {
            if sink.flush().is_err() {
                count("serve.request.telemetry_errors", 1);
            }
        }
    }

    /// Records one finished request: wide event to the sink, offer to the
    /// tail sampler, bookkeeping counters.
    fn observe(&self, event: WideEvent) {
        count("serve.request.wide_events", 1);
        if self.tail.offer(&event) {
            count("serve.request.tail_sampled", 1);
        }
        if let Some(sink) = &self.sink {
            if sink.append(&event.to_ndjson()).is_err() {
                count("serve.request.telemetry_errors", 1);
            }
        }
    }

    /// Assembles the wide event for a request that never entered the
    /// queue (status/metrics/telemetry/shutdown/400), or fills it from
    /// the analyze context when one exists.
    fn wide_event(
        seq: u64,
        id: Option<&Json>,
        method: &str,
        outcome: &str,
        ctx: Option<&RequestCtx>,
        total: Duration,
    ) -> WideEvent {
        let mut event = WideEvent {
            seq,
            client_id: id.map(Json::emit),
            method: method.to_owned(),
            outcome: outcome.to_owned(),
            total_us: total.as_micros() as u64,
            ..WideEvent::default()
        };
        if let Some(ctx) = ctx {
            event.queue_wait_us = ctx.queue_wait_us();
            event.service_us = ctx.service_us();
            event.cache_hits = ctx.cache_hits();
            event.cache_misses = ctx.cache_misses();
            event.content_key = ctx.content_key();
            event.marks = ctx.marks();
        }
        event
    }

    /// Handles one NDJSON request line and returns the response line plus
    /// whether the transport should keep reading.
    pub fn handle_line(&self, line: &str) -> (String, Control) {
        self.handle_bytes(line.as_bytes())
    }

    /// [`Daemon::handle_line`] on the raw bytes a transport read: a line
    /// that is not valid UTF-8 is a 400 like any other malformed request.
    pub fn handle_bytes(&self, line: &[u8]) -> (String, Control) {
        let (seq, t0) = self.arrive();
        let parsed = std::str::from_utf8(line)
            .map_err(|_| ParseFailure {
                id: None,
                message: "request is not valid UTF-8".into(),
            })
            .and_then(parse_line);
        let envelope = match parsed {
            Ok(envelope) => envelope,
            Err(failure) => return (self.bad_request(seq, t0, failure), Control::Continue),
        };
        let id = envelope.id;
        let (method, response, control) = match envelope.request {
            Request::Status => {
                let mut fields = vec![
                    (
                        "uptime_ms".to_owned(),
                        Json::Num(self.started.elapsed().as_millis() as f64),
                    ),
                    (
                        "queue_depth".to_owned(),
                        Json::Num(self.queue.depth() as f64),
                    ),
                    ("workers".to_owned(), Json::Num(self.config.workers as f64)),
                    (
                        "served".to_owned(),
                        Json::Num(self.served.load(Ordering::SeqCst) as f64),
                    ),
                    ("draining".to_owned(), Json::Bool(self.draining())),
                ];
                fields.extend(self.service.status());
                (
                    "status",
                    ok_response(seq, id.as_ref(), fields),
                    Control::Continue,
                )
            }
            Request::Metrics { prometheus } => (
                "metrics",
                self.metrics_response(seq, id.as_ref(), prometheus),
                Control::Continue,
            ),
            Request::Telemetry => (
                "telemetry",
                self.telemetry_response(seq, id.as_ref()),
                Control::Continue,
            ),
            Request::Shutdown => {
                self.shutdown();
                (
                    "shutdown",
                    ok_response(
                        seq,
                        id.as_ref(),
                        vec![("shutting_down".to_owned(), Json::Bool(true))],
                    ),
                    Control::Shutdown,
                )
            }
            Request::Analyze(request) => {
                let response = self.enqueue(seq, id, WorkItem::Analyze(request), t0);
                return (response, Control::Continue);
            }
            Request::Invalidate(request) => {
                let response = self.enqueue(seq, id, WorkItem::Invalidate(request), t0);
                return (response, Control::Continue);
            }
        };
        self.observe(Self::wide_event(
            seq,
            id.as_ref(),
            method,
            "ok",
            None,
            t0.elapsed(),
        ));
        (response, control)
    }

    /// Counts an arriving request line and assigns its `seq`.
    fn arrive(&self) -> (u64, Instant) {
        count("serve.requests", 1);
        (self.seq.fetch_add(1, Ordering::SeqCst) + 1, Instant::now())
    }

    /// The 400 reply to a line that is not a valid request.
    fn bad_request(&self, seq: u64, t0: Instant, failure: ParseFailure) -> String {
        count("serve.bad_requests", 1);
        // The id is echoed even on 400s whenever the line parsed far
        // enough to reveal one, so client correlation holds across every
        // response.
        let id = failure.id.as_ref();
        let response = error_response(seq, id, 400, &failure.message);
        self.observe(Self::wide_event(
            seq,
            id,
            "invalid",
            "error:400",
            None,
            t0.elapsed(),
        ));
        response
    }

    /// The 400 reply to a request line longer than [`MAX_REQUEST_BYTES`],
    /// which the transport discards unread.
    fn oversize_request(&self) -> String {
        let (seq, t0) = self.arrive();
        let message = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
        self.bad_request(seq, t0, ParseFailure { id: None, message })
    }

    fn metrics_response(&self, seq: u64, id: Option<&Json>, prometheus: bool) -> String {
        if prometheus {
            return ok_response(
                seq,
                id,
                vec![
                    ("format".to_owned(), Json::Str("prometheus".to_owned())),
                    (
                        "exposition".to_owned(),
                        Json::Str(snapshot().to_prometheus()),
                    ),
                ],
            );
        }
        // The snapshot renders as a pretty multi-line document;
        // re-emit it compactly so the response stays on one line.
        let doc = snapshot().to_json();
        let metrics = match phpsafe_obs::json::parse(&doc) {
            Ok(value) => value,
            Err(_) => Json::Str(doc),
        };
        ok_response(seq, id, vec![("metrics".to_owned(), metrics)])
    }

    fn telemetry_response(&self, seq: u64, id: Option<&Json>) -> String {
        let samples: Vec<Json> = self
            .tail
            .samples()
            .iter()
            .map(|event| Json::Raw(event.to_ndjson()))
            .collect();
        ok_response(
            seq,
            id,
            vec![
                (
                    "tail_keep".to_owned(),
                    Json::Num(self.config.tail_keep as f64),
                ),
                ("samples".to_owned(), Json::Arr(samples)),
            ],
        )
    }

    fn enqueue(&self, seq: u64, id: Option<Json>, work: WorkItem, t0: Instant) -> String {
        let method = work.method();
        let ctx = Arc::new(RequestCtx::new(seq, id, self.config.request_timeout));
        let (reply, receiver) = mpsc::channel();
        let outcome: &str;
        let response = match self.queue.try_push(Job {
            ctx: Arc::clone(&ctx),
            work,
            reply,
        }) {
            Err(PushError::Full) => {
                count("serve.rejected", 1);
                outcome = "error:429";
                error_response(seq, ctx.client_id.as_ref(), 429, "queue full, retry later")
            }
            Err(PushError::Closed) => {
                count("serve.rejected", 1);
                outcome = "error:503";
                error_response(seq, ctx.client_id.as_ref(), 503, "daemon is shutting down")
            }
            Ok(()) => {
                count("serve.accepted", 1);
                match receiver.recv_timeout(self.config.request_timeout) {
                    Ok(Ok(result)) => {
                        self.served.fetch_add(1, Ordering::SeqCst);
                        outcome = "ok";
                        ok_response(
                            seq,
                            ctx.client_id.as_ref(),
                            vec![("result".to_owned(), result)],
                        )
                    }
                    Ok(Err(message)) => {
                        outcome = "error:500";
                        error_response(seq, ctx.client_id.as_ref(), 500, &message)
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        count("serve.timeouts", 1);
                        outcome = "error:504";
                        error_response(seq, ctx.client_id.as_ref(), 504, "request timed out")
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        outcome = "error:500";
                        error_response(
                            seq,
                            ctx.client_id.as_ref(),
                            500,
                            "worker exited without replying",
                        )
                    }
                }
            }
        };
        time("serve.request", t0.elapsed());
        self.observe(Self::wide_event(
            seq,
            ctx.client_id.as_ref(),
            method,
            outcome,
            Some(&ctx),
            t0.elapsed(),
        ));
        response
    }
}

/// The transport loop both transports share: answers each request line
/// of `reader` with one response line on `writer`, until EOF or a
/// shutdown request. Lines are read as bytes, so a malformed one costs a
/// 400, never the connection; a line longer than [`MAX_REQUEST_BYTES`]
/// is skipped without being stored and answered the same way.
fn serve_lines(
    daemon: &Daemon,
    mut reader: impl BufRead,
    mut writer: impl Write,
) -> io::Result<()> {
    let mut line = Vec::new();
    loop {
        line.clear();
        let limit = MAX_REQUEST_BYTES as u64 + 1;
        if (&mut reader).take(limit).read_until(b'\n', &mut line)? == 0 {
            return Ok(());
        }
        let (response, control) = if line.len() > MAX_REQUEST_BYTES && line.last() != Some(&b'\n') {
            reader.skip_until(b'\n')?;
            (daemon.oversize_request(), Control::Continue)
        } else if line.trim_ascii().is_empty() {
            continue;
        } else {
            daemon.handle_bytes(&line)
        };
        // One write per reply: on an unbuffered socket, the response and
        // its newline written apart would leave as two segments.
        let mut response = response;
        response.push('\n');
        writer.write_all(response.as_bytes())?;
        writer.flush()?;
        if control == Control::Shutdown {
            return Ok(());
        }
    }
}

/// Serves the protocol over stdin/stdout until EOF or a shutdown request,
/// then drains the queue.
pub fn run_stdio(daemon: &Arc<Daemon>) -> io::Result<()> {
    serve_lines(daemon, io::stdin().lock(), io::stdout())?;
    daemon.shutdown();
    daemon.join();
    Ok(())
}

/// Binds the daemon's loopback listener (`port` 0 picks a free port).
pub fn bind(port: u16) -> io::Result<TcpListener> {
    TcpListener::bind(("127.0.0.1", port))
}

fn handle_conn(daemon: &Arc<Daemon>, stream: TcpStream) -> io::Result<()> {
    // One-line request/response traffic: Nagle + delayed ACK would add
    // ~40ms stalls per exchange on loopback.
    stream.set_nodelay(true)?;
    let writer = stream.try_clone()?;
    serve_lines(daemon, io::BufReader::new(stream), writer)
}

/// Accepts loopback connections (one thread each) until a shutdown request
/// arrives on any of them, then drains and joins everything.
pub fn run_tcp(daemon: &Arc<Daemon>, listener: TcpListener) -> io::Result<()> {
    let addr = listener.local_addr()?;
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if daemon.draining() {
            break;
        }
        let stream = stream?;
        let daemon = Arc::clone(daemon);
        conns.push(std::thread::spawn(move || {
            let _ = handle_conn(&daemon, stream);
            if daemon.draining() {
                // Wake the accept loop so it can observe the drain flag.
                let _ = TcpStream::connect(addr);
            }
        }));
    }
    for conn in conns {
        let _ = conn.join();
    }
    daemon.shutdown();
    daemon.join();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use phpsafe_obs::json::parse;
    use std::sync::Barrier;

    /// Echoes the request back; optionally announces entry on a channel
    /// and parks on a barrier so tests can control worker occupancy.
    struct Mock {
        entered: Option<Mutex<mpsc::Sender<()>>>,
        gate: Option<Arc<Barrier>>,
        delay: Duration,
    }

    impl Mock {
        fn fast() -> Arc<Mock> {
            Arc::new(Mock {
                entered: None,
                gate: None,
                delay: Duration::ZERO,
            })
        }

        fn gated() -> (Arc<Mock>, mpsc::Receiver<()>, Arc<Barrier>) {
            let (tx, rx) = mpsc::channel();
            let gate = Arc::new(Barrier::new(2));
            let mock = Arc::new(Mock {
                entered: Some(Mutex::new(tx)),
                gate: Some(Arc::clone(&gate)),
                delay: Duration::ZERO,
            });
            (mock, rx, gate)
        }
    }

    impl Service for Mock {
        fn analyze(&self, ctx: &RequestCtx, request: &AnalyzeRequest) -> Result<Json, String> {
            if let Some(entered) = &self.entered {
                let _ = entered.lock().unwrap().send(());
            }
            if let Some(gate) = &self.gate {
                gate.wait();
            }
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            ctx.mark("mock_us", Duration::from_micros(5));
            ctx.add_cache_hits(2);
            ctx.set_content_key(format!("mock-{}", request.paths.len()));
            if request.paths == ["boom"] {
                return Err("analysis failed".into());
            }
            if request.paths == ["panic"] {
                panic!("mock analysis panicked");
            }
            Ok(Json::Obj(vec![(
                "paths".to_owned(),
                Json::Arr(request.paths.iter().cloned().map(Json::Str).collect()),
            )]))
        }

        fn invalidate(
            &self,
            ctx: &RequestCtx,
            request: &InvalidateRequest,
        ) -> Result<Json, String> {
            ctx.mark_count("dirty_files", request.paths.len() as u64);
            if request.paths == ["boom"] {
                return Err("invalidate failed".into());
            }
            Ok(Json::Obj(vec![(
                "invalidated".to_owned(),
                Json::Num(request.paths.len() as f64),
            )]))
        }

        fn status(&self) -> Vec<(String, Json)> {
            vec![("mock".to_owned(), Json::Bool(true))]
        }
    }

    fn line(daemon: &Arc<Daemon>, request: &str) -> Json {
        let (response, _) = daemon.handle_line(request);
        parse(&response).unwrap()
    }

    fn seq_of(v: &Json) -> f64 {
        v.get("seq").and_then(Json::as_num).expect("seq present")
    }

    #[test]
    fn analyze_round_trip() {
        let daemon = Daemon::start(Mock::fast(), ServerConfig::default());
        let v = line(&daemon, r#"{"cmd":"analyze","paths":["p1"],"id":9}"#);
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("id"), Some(&Json::Num(9.0)));
        assert_eq!(seq_of(&v), 1.0);
        let paths = v.get("result").and_then(|r| r.get("paths")).unwrap();
        assert_eq!(paths.as_arr().unwrap(), [Json::Str("p1".into())]);
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn seq_is_monotonic_across_requests() {
        let daemon = Daemon::start(Mock::fast(), ServerConfig::default());
        let a = line(&daemon, r#"{"cmd":"status"}"#);
        let b = line(&daemon, r#"{"cmd":"analyze","paths":["p"]}"#);
        let c = line(&daemon, "garbage");
        assert_eq!(seq_of(&a), 1.0);
        assert_eq!(seq_of(&b), 2.0);
        assert_eq!(seq_of(&c), 3.0, "even unparseable lines consume a seq");
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn invalidate_round_trips_through_the_queue() {
        let daemon = Daemon::start(Mock::fast(), ServerConfig::default());
        let v = line(
            &daemon,
            r#"{"cmd":"invalidate","paths":["p/a.php"],"id":"inv"}"#,
        );
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("id"), Some(&Json::Str("inv".into())));
        assert_eq!(seq_of(&v), 1.0);
        let n = v.get("result").and_then(|r| r.get("invalidated")).unwrap();
        assert_eq!(n, &Json::Num(1.0));
        // Failures surface as 500 with seq and id, like analyze.
        let e = line(
            &daemon,
            r#"{"cmd":"invalidate","paths":["boom"],"id":"i2"}"#,
        );
        assert_eq!(e.get("code"), Some(&Json::Num(500.0)));
        assert_eq!(e.get("id"), Some(&Json::Str("i2".into())));
        assert_eq!(seq_of(&e), 2.0);
        // The wide event records the method and the dirty-set size mark.
        let t = line(&daemon, r#"{"cmd":"telemetry"}"#);
        let samples = t.get("samples").and_then(Json::as_arr).unwrap();
        let inv = samples
            .iter()
            .find(|s| s.get("method").and_then(Json::as_str) == Some("invalidate"))
            .expect("invalidate wide event retained");
        assert!(
            inv.get("marks")
                .and_then(|m| m.get("dirty_files"))
                .is_some(),
            "dirty-set size mark surfaces in the wide event"
        );
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn field_validation_400s_echo_seq_and_client_id() {
        let daemon = Daemon::start(Mock::fast(), ServerConfig::default());
        for bad in [
            r#"{"cmd":"invalidate","paths":[],"id":"e-1"}"#,
            r#"{"cmd":"analyze","paths":[],"id":"e-1"}"#,
            r#"{"cmd":"analyze","paths":["p"],"buffers":[],"id":"e-1"}"#,
        ] {
            let v = line(&daemon, bad);
            assert_eq!(v.get("code"), Some(&Json::Num(400.0)), "line: {bad}");
            assert!(seq_of(&v) > 0.0, "400 replies carry the seq: {bad}");
            assert_eq!(
                v.get("id"),
                Some(&Json::Str("e-1".into())),
                "400 replies echo the client id: {bad}"
            );
        }
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn malformed_and_failing_requests_report_codes() {
        let daemon = Daemon::start(Mock::fast(), ServerConfig::default());
        let bad = line(&daemon, "garbage");
        assert_eq!(bad.get("code"), Some(&Json::Num(400.0)));
        assert!(seq_of(&bad) > 0.0, "400 replies still carry the seq");
        let v = line(
            &daemon,
            r#"{"cmd":"analyze","paths":["boom"],"id":"fail-1"}"#,
        );
        assert_eq!(v.get("code"), Some(&Json::Num(500.0)));
        assert_eq!(v.get("error"), Some(&Json::Str("analysis failed".into())));
        assert_eq!(v.get("id"), Some(&Json::Str("fail-1".into())));
        assert!(seq_of(&v) > 0.0, "500 replies echo seq and id");
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn status_and_metrics_report_daemon_state() {
        phpsafe_obs::set_enabled(true);
        let daemon = Daemon::start(Mock::fast(), ServerConfig::default());
        line(&daemon, r#"{"cmd":"analyze","paths":["p"]}"#);
        let status = line(&daemon, r#"{"cmd":"status"}"#);
        assert_eq!(status.get("served"), Some(&Json::Num(1.0)));
        assert_eq!(status.get("draining"), Some(&Json::Bool(false)));
        assert_eq!(status.get("mock"), Some(&Json::Bool(true)));
        let (metrics, _) = daemon.handle_line(r#"{"cmd":"metrics"}"#);
        assert!(
            metrics.contains("serve.requests"),
            "metrics reply should carry serve.* counters: {metrics}"
        );
        assert!(
            metrics.contains("serve.request.queue_wait"),
            "queue-wait histogram should be declared up front: {metrics}"
        );
        assert!(
            metrics.contains("serve.worker_panics"),
            "serve.worker_panics should be declared up front: {metrics}"
        );
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn metrics_prometheus_format_returns_exposition_text() {
        phpsafe_obs::set_enabled(true);
        let daemon = Daemon::start(Mock::fast(), ServerConfig::default());
        line(&daemon, r#"{"cmd":"analyze","paths":["p"]}"#);
        let v = line(&daemon, r#"{"cmd":"metrics","format":"prometheus","id":3}"#);
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("id"), Some(&Json::Num(3.0)));
        assert_eq!(v.get("format"), Some(&Json::Str("prometheus".into())));
        let text = v.get("exposition").and_then(Json::as_str).unwrap();
        assert!(text.contains("phpsafe_serve_requests"), "got: {text}");
        assert!(text.contains("# TYPE phpsafe_serve_request_us histogram"));
        assert!(text.contains("phpsafe_serve_request_us_bucket{le=\"+Inf\"}"));
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn telemetry_tail_retains_slow_and_errored_requests() {
        let daemon = Daemon::start(Mock::fast(), ServerConfig::default());
        line(&daemon, r#"{"cmd":"analyze","paths":["ok-1"],"id":"a"}"#);
        line(&daemon, r#"{"cmd":"analyze","paths":["boom"],"id":"b"}"#);
        let v = line(&daemon, r#"{"cmd":"telemetry"}"#);
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("tail_keep"), Some(&Json::Num(8.0)));
        let samples = v.get("samples").and_then(Json::as_arr).unwrap();
        let outcomes: Vec<&str> = samples
            .iter()
            .filter_map(|s| s.get("outcome").and_then(Json::as_str))
            .collect();
        assert!(outcomes.contains(&"ok"), "slow tail retained: {outcomes:?}");
        assert!(
            outcomes.contains(&"error:500"),
            "errored request retained: {outcomes:?}"
        );
        let err = samples
            .iter()
            .find(|s| s.get("outcome").and_then(Json::as_str) == Some("error:500"))
            .unwrap();
        assert_eq!(err.get("id"), Some(&Json::Str("b".into())));
        assert_eq!(err.get("method"), Some(&Json::Str("analyze".into())));
        assert!(
            err.get("marks").and_then(|m| m.get("mock_us")).is_some(),
            "service marks surface in the wide event"
        );
        assert_eq!(err.get("cache_hits"), Some(&Json::Num(2.0)));
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn telemetry_sink_streams_one_ndjson_line_per_request() {
        let dir = std::env::temp_dir().join(format!("phpsafe-serve-sink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("telemetry.ndjson");
        let daemon = Daemon::start(
            Mock::fast(),
            ServerConfig {
                telemetry_out: Some(out.clone()),
                ..ServerConfig::default()
            },
        );
        line(&daemon, r#"{"cmd":"analyze","paths":["p"],"id":1}"#);
        line(&daemon, r#"{"cmd":"status"}"#);
        line(&daemon, "garbage");
        daemon.shutdown();
        daemon.join();
        let text = std::fs::read_to_string(&out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "one wide event per request: {text}");
        for l in &lines {
            let v = parse(l).expect("every line is valid JSON");
            assert!(v.get("seq").is_some());
            assert!(v.get("method").is_some());
            assert!(v.get("outcome").is_some());
        }
        assert!(lines[2].contains("\"outcome\":\"error:400\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_queue_rejects_with_429_then_drains() {
        let (service, entered, gate) = Mock::gated();
        let daemon = Daemon::start(
            service,
            ServerConfig {
                workers: 1,
                queue_capacity: 1,
                ..ServerConfig::default()
            },
        );
        // First request: the lone worker picks it up and parks on the gate.
        let first = {
            let daemon = Arc::clone(&daemon);
            std::thread::spawn(move || line(&daemon, r#"{"cmd":"analyze","paths":["a"]}"#))
        };
        entered.recv().unwrap(); // worker is busy with "a", queue is empty
                                 // Second request fills the lone queue slot; third must be shed.
        let second = {
            let daemon = Arc::clone(&daemon);
            std::thread::spawn(move || line(&daemon, r#"{"cmd":"analyze","paths":["b"]}"#))
        };
        while daemon.queue.depth() == 0 {
            std::thread::yield_now();
        }
        let rejected = line(&daemon, r#"{"cmd":"analyze","paths":["c"],"id":"shed-me"}"#);
        assert_eq!(rejected.get("code"), Some(&Json::Num(429.0)));
        assert_eq!(
            rejected.get("id"),
            Some(&Json::Str("shed-me".into())),
            "429 replies echo the client id"
        );
        assert!(seq_of(&rejected) > 0.0, "429 replies carry the seq");
        gate.wait(); // release "a"
        entered.recv().unwrap();
        gate.wait(); // release "b"
        assert_eq!(first.join().unwrap().get("ok"), Some(&Json::Bool(true)));
        assert_eq!(second.join().unwrap().get("ok"), Some(&Json::Bool(true)));
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn a_panicking_analysis_gets_a_500_and_the_worker_keeps_serving() {
        phpsafe_obs::set_enabled(true);
        let before = snapshot().counter("serve.worker_panics");
        let daemon = Daemon::start(
            Mock::fast(),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        );
        let v = line(&daemon, r#"{"cmd":"analyze","paths":["panic"],"id":"p-1"}"#);
        assert_eq!(v.get("code"), Some(&Json::Num(500.0)));
        assert_eq!(v.get("id"), Some(&Json::Str("p-1".into())));
        assert_eq!(seq_of(&v), 1.0, "500 replies carry the seq");
        let error = v.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("mock analysis panicked"), "{error}");
        assert_eq!(snapshot().counter("serve.worker_panics"), before + 1);
        let next = line(&daemon, r#"{"cmd":"analyze","paths":["p"]}"#);
        assert_eq!(next.get("ok"), Some(&Json::Bool(true)));
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn slow_requests_time_out_with_504() {
        let daemon = Daemon::start(
            Arc::new(Mock {
                entered: None,
                gate: None,
                delay: Duration::from_millis(200),
            }),
            ServerConfig {
                request_timeout: Duration::from_millis(20),
                ..ServerConfig::default()
            },
        );
        let v = line(&daemon, r#"{"cmd":"analyze","paths":["slow"],"id":44}"#);
        assert_eq!(v.get("code"), Some(&Json::Num(504.0)));
        assert_eq!(
            v.get("id"),
            Some(&Json::Num(44.0)),
            "504 replies echo the client id"
        );
        assert_eq!(seq_of(&v), 1.0, "504 replies carry the seq");
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn shutdown_rejects_new_work_but_answers_queued_work() {
        let (service, entered, gate) = Mock::gated();
        let daemon = Daemon::start(
            service,
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        );
        let inflight = {
            let daemon = Arc::clone(&daemon);
            std::thread::spawn(move || line(&daemon, r#"{"cmd":"analyze","paths":["a"]}"#))
        };
        entered.recv().unwrap(); // worker holds "a" at the gate
        let (response, control) = daemon.handle_line(r#"{"cmd":"shutdown"}"#);
        assert_eq!(control, Control::Shutdown);
        assert!(response.contains("shutting_down"));
        let late = line(&daemon, r#"{"cmd":"analyze","paths":["late"],"id":"l-1"}"#);
        assert_eq!(late.get("code"), Some(&Json::Num(503.0)));
        assert_eq!(
            late.get("id"),
            Some(&Json::Str("l-1".into())),
            "503 replies echo the client id"
        );
        assert!(seq_of(&late) > 0.0, "503 replies carry the seq");
        gate.wait(); // let the in-flight request finish during the drain
        assert_eq!(inflight.join().unwrap().get("ok"), Some(&Json::Bool(true)));
        daemon.join();
    }

    #[test]
    fn malformed_lines_get_400s_and_the_transport_keeps_serving() {
        let daemon = Daemon::start(Mock::fast(), ServerConfig::default());
        let mut input = b"{\"cmd\":\"status\",\"id\":\"\xff\"}\n".to_vec();
        input.extend("[".repeat(200_000).bytes());
        input.push(b'\n');
        input.extend(std::iter::repeat_n(b'x', MAX_REQUEST_BYTES + 1));
        input.extend(b"\n{\"cmd\":\"status\"}\n");
        let mut output = Vec::new();
        serve_lines(&daemon, io::Cursor::new(input), &mut output).unwrap();
        let replies: Vec<Json> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| parse(l).unwrap())
            .collect();
        assert_eq!(replies.len(), 4);
        assert_eq!(replies[0].get("code"), Some(&Json::Num(400.0)));
        assert_eq!(replies[1].get("code"), Some(&Json::Num(400.0)));
        assert_eq!(replies[2].get("code"), Some(&Json::Num(400.0)));
        let error = replies[2].get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("exceeds"), "{error}");
        assert_eq!(replies[3].get("ok"), Some(&Json::Bool(true)));
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn an_8_mib_buffer_string_is_answered_promptly() {
        let daemon = Daemon::start(Mock::fast(), ServerConfig::default());
        let body = "<?php echo \\\"é\\\";\\n".repeat((8 << 20) / 20 + 1);
        let valid =
            format!(r#"{{"cmd":"analyze","paths":["p"],"buffers":{{"p/a.php":"{body}"}},"id":1}}"#);
        let bad_escape =
            format!(r#"{{"cmd":"analyze","paths":["p"],"buffers":{{"p/a.php":"{body}\q"}}}}"#);
        assert!(body.len() >= 8 << 20);
        for (request, code) in [(valid, None), (bad_escape, Some(400.0))] {
            let (tx, rx) = mpsc::channel();
            let worker = Arc::clone(&daemon);
            std::thread::spawn(move || {
                let _ = tx.send(worker.handle_line(&request).0);
            });
            let reply = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("an 8 MiB request must be answered within 30 s");
            let v = parse(&reply).unwrap();
            assert_eq!(v.get("code").and_then(Json::as_num), code, "{reply:.200}");
        }
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn tcp_transport_round_trips_and_shuts_down() {
        let daemon = Daemon::start(Mock::fast(), ServerConfig::default());
        let listener = bind(0).unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let daemon = Arc::clone(&daemon);
            std::thread::spawn(move || run_tcp(&daemon, listener))
        };
        let connect = || {
            let stream = TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = io::BufReader::new(stream);
            move |req: &str| {
                writeln!(writer, "{req}").unwrap();
                let mut response = String::new();
                reader.read_line(&mut response).unwrap();
                parse(response.trim()).unwrap()
            }
        };
        // Two concurrent connections, each a mixed analyze/status/metrics
        // stream: every reply is ok, carries a seq and echoes its id. Each
        // client waits after its first reply until the other has one too,
        // so connections served one after the other fail, not pass.
        let first_replies = Arc::new(AtomicU64::new(0));
        let clients: Vec<_> = (0..2)
            .map(|c| {
                let mut ask = connect();
                let first_replies = Arc::clone(&first_replies);
                std::thread::spawn(move || {
                    for i in 0..15 {
                        let id = format!("c{c}-{i}");
                        let req = match i % 5 {
                            3 => format!(r#"{{"cmd":"status","id":"{id}"}}"#),
                            4 => format!(r#"{{"cmd":"metrics","id":"{id}"}}"#),
                            _ => format!(r#"{{"cmd":"analyze","paths":["{id}"],"id":"{id}"}}"#),
                        };
                        let v = ask(&req);
                        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{req}: {v:?}");
                        assert!(seq_of(&v) >= 1.0, "{req}: {v:?}");
                        assert_eq!(v.get("id"), Some(&Json::Str(id)), "{req}: {v:?}");
                        if i == 0 {
                            first_replies.fetch_add(1, Ordering::SeqCst);
                            let deadline = Instant::now() + Duration::from_secs(10);
                            while first_replies.load(Ordering::SeqCst) < 2 {
                                assert!(Instant::now() < deadline, "connections not concurrent");
                                std::thread::yield_now();
                            }
                        }
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().unwrap();
        }
        let bye = connect()(r#"{"cmd":"shutdown"}"#);
        assert_eq!(bye.get("ok"), Some(&Json::Bool(true)));
        server.join().unwrap().unwrap();
    }
}
