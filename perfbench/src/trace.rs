//! The benchmark's own span recorder.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer, or built from the timings the daemon reports for a request
//! (queue wait, service time, stage marks). A span's duration is what that
//! call or stage took; its self time is the duration minus what its child
//! spans cover. Spans stay in memory and are written out once, at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span that started at `start` and lasted `dur_ns`;
    /// returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        dur_ns: u64,
    ) -> usize {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            dur_ns,
        });
        self.spans.len() - 1
    }

    /// Self time per span name, in ms, summed over every span.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let own = span.dur_ns as f64 - child_ns[i] as f64;
            *out.entry(span.name).or_insert(0.0) += own / 1e6;
        }
        out
    }

    /// Total duration per span name, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .sum()
    }

    /// Writes every span as one NDJSON line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.op,
                s.start_ns,
                s.start_ns + s.dur_ns
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::new();
        let now = Instant::now();
        let root = t.record("op", 1, None, now, 10_000_000);
        let child = t.record("layer", 1, Some(root), now, 6_000_000);
        t.record("leaf", 1, Some(child), now, 1_000_000);
        let own = t.self_ms();
        assert_eq!(own["op"], 4.0);
        assert_eq!(own["layer"], 5.0);
        assert_eq!(own["leaf"], 1.0);
        assert_eq!(own.values().sum::<f64>(), t.total_ms("op"));
    }
}
