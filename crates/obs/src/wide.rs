//! Wide events: one structured record per served request.
//!
//! phpSAFE's `--explain` answers "why was this flow reported?" with a
//! source→sanitizer→sink chain; a [`WideEvent`] answers "why was this
//! request slow?" with the same evidence discipline applied to latency.
//! Each request that passes through the daemon produces exactly one wide
//! event — request id, method, outcome, queue wait, per-stage timings,
//! cache hit counts — serialized as one NDJSON line ([`WideEvent::
//! to_ndjson`]) and streamed to the `--telemetry-out` sink.
//!
//! Keeping every event's full detail would be unbounded, so the
//! [`TailSampler`] retains only the interesting tail: the slowest-K
//! requests plus every errored request (bounded separately). Everything
//! else still contributes its compact line and its latency sample; only
//! the retained records are echoed back by the daemon's `telemetry`
//! command.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::json::write_str;

/// One request's telemetry record: everything needed to explain its
/// latency without correlating logs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WideEvent {
    /// Server-assigned request id (monotonic per daemon).
    pub seq: u64,
    /// The client's `id` field as raw JSON text, if it sent one.
    pub client_id: Option<String>,
    /// Protocol method (`analyze`, `status`, `metrics`, `telemetry`,
    /// `shutdown`, `invalid`).
    pub method: String,
    /// `ok`, or `error:<code>` with the HTTP-flavoured response code.
    pub outcome: String,
    /// Content key of the first analyzed project (hex), when known.
    pub content_key: Option<String>,
    /// Time spent queued before a worker picked the request up, µs.
    pub queue_wait_us: u64,
    /// Time inside the service (analysis proper), µs.
    pub service_us: u64,
    /// End-to-end time from parse to rendered response, µs.
    pub total_us: u64,
    /// Cache hits attributed to this request (all tiers summed).
    pub cache_hits: u64,
    /// Cache misses attributed to this request.
    pub cache_misses: u64,
    /// Named per-stage timings (`load_us`, `cache_probe_us`,
    /// `analyze_us`, `invalidate_us`, ...), the request-scoped span tree
    /// flattened in recording order.
    pub marks: Vec<(&'static str, u64)>,
}

impl WideEvent {
    /// Whether the request failed (outcome is not `ok`).
    pub fn is_error(&self) -> bool {
        self.outcome != "ok"
    }

    /// Serializes the event as one NDJSON line (no trailing newline):
    /// a flat JSON object with the marks nested under `"marks"`.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::with_capacity(160);
        let _ = write!(out, "{{\"seq\":{},\"method\":", self.seq);
        write_str(&mut out, &self.method);
        out.push_str(",\"outcome\":");
        write_str(&mut out, &self.outcome);
        if let Some(id) = &self.client_id {
            let _ = write!(out, ",\"id\":{id}");
        }
        if let Some(key) = &self.content_key {
            out.push_str(",\"content_key\":");
            write_str(&mut out, key);
        }
        let _ = write!(
            out,
            ",\"queue_wait_us\":{},\"service_us\":{},\"total_us\":{},\"cache_hits\":{},\"cache_misses\":{}",
            self.queue_wait_us, self.service_us, self.total_us, self.cache_hits, self.cache_misses
        );
        if !self.marks.is_empty() {
            out.push_str(",\"marks\":{");
            for (i, (name, us)) in self.marks.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(&mut out, name);
                let _ = write!(out, ":{us}");
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// Bounded tail retention: keeps the slowest-K wide events plus the most
/// recent K errored ones, so "why was this one call slow?" stays
/// answerable without retaining every request's detail.
pub struct TailSampler {
    keep: usize,
    state: Mutex<TailState>,
}

#[derive(Default)]
struct TailState {
    /// Slowest events, sorted by `total_us` descending, at most `keep`.
    slow: Vec<WideEvent>,
    /// Most recent errored events, oldest first, at most `keep`.
    errors: VecDeque<WideEvent>,
}

impl TailSampler {
    /// A sampler retaining at most `keep` slow and `keep` errored events
    /// (minimum 1 each).
    pub fn new(keep: usize) -> TailSampler {
        TailSampler {
            keep: keep.max(1),
            state: Mutex::new(TailState::default()),
        }
    }

    /// Offers an event for retention; returns `true` when it was kept
    /// (errored, or among the slowest-K seen so far).
    pub fn offer(&self, event: &WideEvent) -> bool {
        let mut state = self.state.lock().unwrap();
        if event.is_error() {
            if state.errors.len() == self.keep {
                state.errors.pop_front();
            }
            state.errors.push_back(event.clone());
            return true;
        }
        if state.slow.len() == self.keep
            && state
                .slow
                .last()
                .is_some_and(|e| e.total_us >= event.total_us)
        {
            return false;
        }
        let at = state.slow.partition_point(|e| e.total_us >= event.total_us);
        state.slow.insert(at, event.clone());
        state.slow.truncate(self.keep);
        true
    }

    /// The retained tail: errored events first (oldest to newest), then
    /// the slowest-K successes (slowest first).
    pub fn samples(&self) -> Vec<WideEvent> {
        let state = self.state.lock().unwrap();
        state
            .errors
            .iter()
            .chain(state.slow.iter())
            .cloned()
            .collect()
    }

    /// Discards everything retained so far.
    pub fn clear(&self) {
        let mut state = self.state.lock().unwrap();
        state.slow.clear();
        state.errors.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(seq: u64, total_us: u64, outcome: &str) -> WideEvent {
        WideEvent {
            seq,
            method: "analyze".into(),
            outcome: outcome.into(),
            total_us,
            ..WideEvent::default()
        }
    }

    #[test]
    fn ndjson_line_is_flat_and_complete() {
        let ev = WideEvent {
            seq: 42,
            client_id: Some("\"req-9\"".into()),
            method: "analyze".into(),
            outcome: "ok".into(),
            content_key: Some("00ff-12".into()),
            queue_wait_us: 5,
            service_us: 90,
            total_us: 100,
            cache_hits: 3,
            cache_misses: 1,
            marks: vec![("load_us", 7), ("analyze_us", 80)],
        };
        let line = ev.to_ndjson();
        assert!(!line.contains('\n'), "must stay on one line");
        assert_eq!(
            line,
            "{\"seq\":42,\"method\":\"analyze\",\"outcome\":\"ok\",\"id\":\"req-9\",\
             \"content_key\":\"00ff-12\",\"queue_wait_us\":5,\"service_us\":90,\
             \"total_us\":100,\"cache_hits\":3,\"cache_misses\":1,\
             \"marks\":{\"load_us\":7,\"analyze_us\":80}}"
        );
        // Optional fields disappear entirely when absent.
        let bare = event(1, 10, "ok").to_ndjson();
        assert!(!bare.contains("\"id\""));
        assert!(!bare.contains("content_key"));
        assert!(!bare.contains("marks"));
    }

    #[test]
    fn sampler_keeps_the_slowest_k() {
        let sampler = TailSampler::new(3);
        for (seq, us) in [(1, 50), (2, 10), (3, 80), (4, 20), (5, 70)] {
            sampler.offer(&event(seq, us, "ok"));
        }
        let kept: Vec<u64> = sampler.samples().iter().map(|e| e.total_us).collect();
        assert_eq!(kept, [80, 70, 50], "slowest three, slowest first");
        assert!(
            !sampler.offer(&event(6, 5, "ok")),
            "a fast request must not displace the tail"
        );
        assert!(sampler.offer(&event(7, 60, "ok")));
        let kept: Vec<u64> = sampler.samples().iter().map(|e| e.total_us).collect();
        assert_eq!(kept, [80, 70, 60]);
    }

    #[test]
    fn errors_are_always_retained_and_bounded_separately() {
        let sampler = TailSampler::new(2);
        sampler.offer(&event(1, 1000, "ok"));
        sampler.offer(&event(2, 900, "ok"));
        assert!(
            sampler.offer(&event(3, 1, "error:429")),
            "errors are retained regardless of latency"
        );
        sampler.offer(&event(4, 2, "error:504"));
        sampler.offer(&event(5, 3, "error:500"));
        let samples = sampler.samples();
        let errors: Vec<u64> = samples
            .iter()
            .filter(|e| e.is_error())
            .map(|e| e.seq)
            .collect();
        assert_eq!(errors, [4, 5], "oldest error evicted at the bound");
        assert_eq!(
            samples.iter().filter(|e| !e.is_error()).count(),
            2,
            "slow successes keep their own budget"
        );
        sampler.clear();
        assert!(sampler.samples().is_empty());
    }
}
