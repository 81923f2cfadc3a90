//! Request-scoped context threaded through the daemon into the service.
//!
//! A [`RequestCtx`] is created once per protocol request (the daemon
//! assigns the monotonic `seq`) and handed by reference through every hop
//! — transport thread, queue, worker, analysis service — so each layer
//! can deposit what it knows (queue wait, stage timings, cache
//! attribution, content identity) into the one record that becomes the
//! request's [`WideEvent`](phpsafe_obs::WideEvent). All mutation is
//! interior and thread-safe: the transport thread may be assembling the
//! 504 reply while the worker is still writing timings.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use phpsafe_obs::json::Json;

/// Per-request context: identity, deadline, and the telemetry scratchpad.
#[derive(Debug)]
pub struct RequestCtx {
    /// Server-assigned request id, monotonic per daemon; 0 for detached
    /// (non-daemon) contexts.
    pub seq: u64,
    /// The client's `id` field, if it sent one (echoed in the response).
    pub client_id: Option<Json>,
    /// When the request line was received.
    pub received: Instant,
    /// Absolute deadline derived from the daemon's request timeout;
    /// `None` for detached contexts.
    pub deadline: Option<Instant>,
    queue_wait_us: AtomicU64,
    service_us: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    marks: Mutex<Vec<(&'static str, u64)>>,
    content_key: Mutex<Option<String>>,
}

impl RequestCtx {
    /// A context for a daemon request: `seq` from the daemon's counter,
    /// the client's optional `id`, and a deadline `timeout` from now.
    pub fn new(seq: u64, client_id: Option<Json>, timeout: Duration) -> RequestCtx {
        let received = Instant::now();
        RequestCtx {
            seq,
            client_id,
            received,
            deadline: received.checked_add(timeout),
            queue_wait_us: AtomicU64::new(0),
            service_us: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            marks: Mutex::new(Vec::new()),
            content_key: Mutex::new(None),
        }
    }

    /// A context for callers outside the daemon (batch CLI, benches,
    /// tests): no seq, no deadline. Telemetry still accumulates.
    pub fn detached() -> RequestCtx {
        RequestCtx {
            seq: 0,
            client_id: None,
            received: Instant::now(),
            deadline: None,
            queue_wait_us: AtomicU64::new(0),
            service_us: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            marks: Mutex::new(Vec::new()),
            content_key: Mutex::new(None),
        }
    }

    /// Records time spent queued before a worker picked the request up.
    pub fn set_queue_wait(&self, wait: Duration) {
        self.queue_wait_us
            .store(wait.as_micros() as u64, Ordering::Relaxed);
    }

    /// Queue wait in microseconds (0 until the worker dequeued it).
    pub fn queue_wait_us(&self) -> u64 {
        self.queue_wait_us.load(Ordering::Relaxed)
    }

    /// Records time spent inside the service call.
    pub fn set_service_time(&self, spent: Duration) {
        self.service_us
            .store(spent.as_micros() as u64, Ordering::Relaxed);
    }

    /// Service time in microseconds (0 until the worker finished).
    pub fn service_us(&self) -> u64 {
        self.service_us.load(Ordering::Relaxed)
    }

    /// Appends a named stage timing (e.g. `load_us`, `analyze_us`).
    pub fn mark(&self, name: &'static str, spent: Duration) {
        self.marks
            .lock()
            .unwrap()
            .push((name, spent.as_micros() as u64));
    }

    /// The stage timings recorded so far, in recording order.
    pub fn marks(&self) -> Vec<(&'static str, u64)> {
        self.marks.lock().unwrap().clone()
    }

    /// Appends a named count to the marks (e.g. `dirty_files`): sizes ride
    /// in the same wide-event field as stage timings, so one telemetry
    /// record explains both where the time went and how big the work was.
    pub fn mark_count(&self, name: &'static str, n: u64) {
        self.marks.lock().unwrap().push((name, n));
    }

    /// Attributes cache hits to this request (summed across tiers).
    pub fn add_cache_hits(&self, n: u64) {
        self.cache_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Attributes cache misses to this request.
    pub fn add_cache_misses(&self, n: u64) {
        self.cache_misses.fetch_add(n, Ordering::Relaxed);
    }

    /// Cache hits attributed so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Cache misses attributed so far.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Records the content key identifying what was analyzed.
    pub fn set_content_key(&self, key: String) {
        *self.content_key.lock().unwrap() = Some(key);
    }

    /// The recorded content key, if any.
    pub fn content_key(&self) -> Option<String> {
        self.content_key.lock().unwrap().clone()
    }

    /// Time left before the deadline; `None` means no deadline, zero
    /// means it already passed.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_has_no_identity_or_deadline() {
        let ctx = RequestCtx::detached();
        assert_eq!(ctx.seq, 0);
        assert!(ctx.client_id.is_none());
        assert!(ctx.deadline.is_none());
        assert!(ctx.remaining().is_none());
    }

    #[test]
    fn telemetry_scratchpad_accumulates() {
        let ctx = RequestCtx::new(7, Some(Json::Num(9.0)), Duration::from_secs(10));
        ctx.set_queue_wait(Duration::from_micros(40));
        ctx.set_service_time(Duration::from_micros(900));
        ctx.mark("load_us", Duration::from_micros(100));
        ctx.mark("analyze_us", Duration::from_micros(800));
        ctx.add_cache_hits(3);
        ctx.add_cache_misses(1);
        ctx.set_content_key("00ff-12".into());
        assert_eq!(ctx.seq, 7);
        assert_eq!(ctx.queue_wait_us(), 40);
        assert_eq!(ctx.service_us(), 900);
        assert_eq!(ctx.marks(), [("load_us", 100), ("analyze_us", 800)]);
        assert_eq!(ctx.cache_hits(), 3);
        assert_eq!(ctx.cache_misses(), 1);
        assert_eq!(ctx.content_key().as_deref(), Some("00ff-12"));
        let remaining = ctx.remaining().unwrap();
        assert!(remaining <= Duration::from_secs(10));
        assert!(remaining > Duration::from_secs(5), "fresh deadline");
    }
}
