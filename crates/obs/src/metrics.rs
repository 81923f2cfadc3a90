//! Named counters and microsecond histograms with JSON-serializable,
//! diffable snapshots.
//!
//! A [`Registry`] maps static names to atomic counters and to log2-bucketed
//! [`Histogram`]s of microsecond durations. Recording is lock-light (one
//! mutex lookup to fetch the handle, atomics after that) and reading is
//! always safe while recorders are running. [`Snapshot`] freezes the whole
//! registry; [`Snapshot::since`] subtracts an earlier snapshot so callers
//! can attribute counts and timings to one run of a long-lived process.

use crate::json::write_str;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of log2 buckets: bucket `i` holds values whose bit length is `i`
/// (bucket 0 is exactly zero), so the largest representable value class is
/// `2^63..`. 64 buckets cover every `u64` microsecond count.
pub const BUCKETS: usize = 64;

/// Bucket index of a microsecond value: its bit length, clamped.
fn bucket_of(us: u64) -> usize {
    ((64 - us.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of a bucket, used as the reported quantile value.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 63 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Inclusive lower bound of a bucket (bucket `i` holds values of bit
/// length `i`, so the smallest is `2^(i-1)`; bucket 0 is exactly zero).
fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A thread-safe histogram of microsecond durations.
///
/// Values land in power-of-two buckets, so quantiles are approximate (the
/// reported value is the bucket's upper bound, capped at the exact
/// maximum) while count/sum/max are exact.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Records one duration sample.
    pub fn record(&self, d: Duration) {
        self.record_us(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Records one sample given in microseconds.
    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Freezes the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Frozen histogram state with quantile accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, microseconds.
    pub sum_us: u64,
    /// Largest sample, microseconds. After [`Snapshot::since`] this is the
    /// process-lifetime maximum capped to the delta's occupied buckets.
    pub max_us: u64,
    /// Per-bucket sample counts (see [`BUCKETS`]).
    pub buckets: [u64; BUCKETS],
}

/// The standard latency summary of one histogram, extracted with
/// [`HistogramSnapshot::percentiles`]: interpolated p50/p90/p95/p99 plus
/// the exact count, sum and maximum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Percentiles {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, microseconds.
    pub sum_us: u64,
    /// Interpolated median, microseconds.
    pub p50_us: u64,
    /// Interpolated 90th percentile, microseconds.
    pub p90_us: u64,
    /// Interpolated 95th percentile, microseconds.
    pub p95_us: u64,
    /// Interpolated 99th percentile, microseconds.
    pub p99_us: u64,
    /// Largest sample, microseconds (exact).
    pub max_us: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0..=1.0`) in microseconds: the upper bound of
    /// the bucket holding the `ceil(q * count)`-th sample, capped at the
    /// exact maximum. Returns 0 for an empty histogram. This is the
    /// conservative (never under-reporting) bound; [`Self::quantile_us`]
    /// interpolates inside the bucket instead.
    pub fn quantile_upper_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max_us);
            }
        }
        self.max_us
    }

    /// The `q`-quantile (`0.0..=1.0`) in microseconds with linear
    /// interpolation inside the bucket that holds the
    /// `ceil(q * count)`-th sample: the sample's position among the
    /// bucket's occupants picks a proportional point between the bucket's
    /// lower and upper bound. The result is always capped at the exact
    /// maximum, so a saturated top bucket (`2^63..`) reports `max_us`
    /// rather than `u64::MAX`. Returns 0 for an empty histogram, and is
    /// monotone in `q` by construction.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = bucket_lower(i);
                let hi = bucket_upper(i).min(self.max_us);
                let position = (rank - seen) as f64 / n as f64; // in (0, 1]
                let span = (hi.saturating_sub(lo)) as f64;
                // f64 rounding on huge spans can exceed the true span, so
                // saturate rather than trust the sum.
                return lo
                    .saturating_add((span * position).round() as u64)
                    .min(self.max_us);
            }
            seen += n;
        }
        self.max_us
    }

    /// Interpolated median, microseconds.
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// Interpolated 90th percentile, microseconds.
    pub fn p90_us(&self) -> u64 {
        self.quantile_us(0.90)
    }

    /// Interpolated 95th percentile, microseconds.
    pub fn p95_us(&self) -> u64 {
        self.quantile_us(0.95)
    }

    /// Interpolated 99th percentile, microseconds.
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }

    /// Extracts the full latency summary in one pass-per-quantile.
    pub fn percentiles(&self) -> Percentiles {
        Percentiles {
            count: self.count,
            sum_us: self.sum_us,
            p50_us: self.p50_us(),
            p90_us: self.p90_us(),
            p95_us: self.p95_us(),
            p99_us: self.p99_us(),
            max_us: self.max_us,
        }
    }

    /// Samples recorded since `earlier`. `max_us` cannot be diffed exactly;
    /// it is capped to the highest bucket that gained samples.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        let mut top = 0usize;
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = self.buckets[i].saturating_sub(earlier.buckets[i]);
            if *b > 0 {
                top = i;
            }
        }
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum_us: self.sum_us.saturating_sub(earlier.sum_us),
            max_us: self.max_us.min(bucket_upper(top)),
            buckets,
        }
    }
}

/// A registry of named counters and histograms.
///
/// The process-wide instance lives behind [`crate::global`]; independent
/// instances exist for tests and embedding.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<HashMap<&'static str, Arc<AtomicU64>>>,
    histograms: Mutex<HashMap<&'static str, Arc<Histogram>>>,
    /// Gauges are set-absolute levels (not monotone counts) with runtime
    /// names — e.g. `diskcache.bytes_on_disk.<namespace>` where the
    /// namespace set is only known once a cache directory is opened.
    gauges: Mutex<HashMap<String, Arc<AtomicU64>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `delta` to the named counter, creating it at zero on first use.
    pub fn count(&self, name: &'static str, delta: u64) {
        let counter = self
            .counters
            .lock()
            .unwrap()
            .entry(name)
            .or_default()
            .clone();
        counter.fetch_add(delta, Ordering::Relaxed);
    }

    /// Records a duration into the named histogram, creating it on first
    /// use.
    pub fn time(&self, name: &'static str, d: Duration) {
        let hist = self
            .histograms
            .lock()
            .unwrap()
            .entry(name)
            .or_default()
            .clone();
        hist.record(d);
    }

    /// Sets the named gauge to an absolute level, creating it on first
    /// use. Unlike counters, gauge names are runtime strings and the
    /// stored value is the latest level, not a running sum.
    pub fn gauge(&self, name: &str, value: u64) {
        let slot = {
            let mut gauges = self.gauges.lock().unwrap();
            match gauges.get(name) {
                Some(g) => g.clone(),
                None => gauges.entry(name.to_owned()).or_default().clone(),
            }
        };
        slot.store(value, Ordering::Relaxed);
    }

    /// Creates the named counter at zero without counting anything, so it
    /// shows up in snapshots (and scrape output) before its first
    /// increment. Long-running daemons pre-register their metric surface
    /// this way; an existing counter is left untouched.
    pub fn declare_counter(&self, name: &'static str) {
        self.counters.lock().unwrap().entry(name).or_default();
    }

    /// Creates the named histogram empty without recording a sample (see
    /// [`Registry::declare_counter`]). An existing histogram is left
    /// untouched.
    pub fn declare_histogram(&self, name: &'static str) {
        self.histograms.lock().unwrap().entry(name).or_default();
    }

    /// Freezes every counter and histogram.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(name, v)| (name.to_string(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(name, h)| (name.to_string(), h.snapshot()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(name, v)| (name.clone(), v.load(Ordering::Relaxed)))
            .collect();
        Snapshot {
            counters,
            histograms,
            gauges,
        }
    }

    /// Drops every counter, histogram and gauge.
    pub fn clear(&self) {
        self.counters.lock().unwrap().clear();
        self.histograms.lock().unwrap().clear();
        self.gauges.lock().unwrap().clear();
    }
}

/// A frozen, ordered view of a [`Registry`]: the one stats story the CLIs
/// print (`--engine-stats`), serialize (`--metrics-out`,
/// `--engine-stats-json`) and diff per run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Gauge levels by name (set-absolute, latest value wins).
    pub gauges: BTreeMap<String, u64>,
}

impl Snapshot {
    /// The named counter's value, zero if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's level, zero if absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// What changed since `earlier`: counters keep their positive deltas,
    /// histograms keep the samples gained. Entries that did not move are
    /// dropped.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|(name, &v)| {
                let delta = v.saturating_sub(earlier.counter(name));
                (delta > 0).then(|| (name.clone(), delta))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|(name, h)| {
                let delta = match earlier.histograms.get(name) {
                    Some(e) => h.since(e),
                    None => h.clone(),
                };
                (delta.count > 0).then(|| (name.clone(), delta))
            })
            .collect();
        // Gauges are levels, not accumulations: the current level is the
        // meaningful value for any window, so deltas carry it unchanged.
        Snapshot {
            counters,
            histograms,
            gauges: self.gauges.clone(),
        }
    }

    /// Keeps only entries whose name starts with one of `prefixes`.
    pub fn filtered(&self, prefixes: &[&str]) -> Snapshot {
        let keep = |name: &str| prefixes.iter().any(|p| name.starts_with(p));
        Snapshot {
            counters: self
                .counters
                .iter()
                .filter(|(n, _)| keep(n))
                .map(|(n, v)| (n.clone(), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(n, _)| keep(n))
                .map(|(n, h)| (n.clone(), h.clone()))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(n, _)| keep(n))
                .map(|(n, v)| (n.clone(), *v))
                .collect(),
        }
    }

    /// Serializes as JSON: `{"counters": {...}, "gauges": {...},
    /// "histograms": {name:
    /// {"count","sum_us","p50_us","p90_us","p95_us","p99_us","max_us"}}}`.
    /// Deterministic key order (lexicographic); percentiles are the
    /// interpolated extraction of [`HistogramSnapshot::quantile_us`].
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            json_entry(&mut out, i, name);
            let _ = write!(out, "{v}");
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            json_entry(&mut out, i, name);
            let _ = write!(out, "{v}");
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            json_entry(&mut out, i, name);
            let p = h.percentiles();
            let _ = write!(
                out,
                "{{\"count\": {}, \"sum_us\": {}, \"p50_us\": {}, \"p90_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
                p.count,
                p.sum_us,
                p.p50_us,
                p.p90_us,
                p.p95_us,
                p.p99_us,
                p.max_us
            );
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4), so an external scraper can consume the registry
    /// without speaking the NDJSON protocol. Counter names are prefixed
    /// with `phpsafe_` and dots become underscores; histograms emit
    /// cumulative `_bucket{le="..."}` series over the occupied log2
    /// buckets plus `le="+Inf"`, `_sum` and `_count`, all in microseconds.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let metric = prom_name(name);
            let _ = writeln!(out, "# TYPE {metric} counter");
            let _ = writeln!(out, "{metric} {v}");
        }
        for (name, v) in &self.gauges {
            let metric = prom_name(name);
            let _ = writeln!(out, "# TYPE {metric} gauge");
            let _ = writeln!(out, "{metric} {v}");
        }
        for (name, h) in &self.histograms {
            let metric = format!("{}_us", prom_name(name));
            let _ = writeln!(out, "# TYPE {metric} histogram");
            let mut cumulative = 0u64;
            for (i, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cumulative += n;
                let _ = writeln!(
                    out,
                    "{metric}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper(i).min(h.max_us)
                );
            }
            let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{metric}_sum {}", h.sum_us);
            let _ = writeln!(out, "{metric}_count {}", h.count);
        }
        out
    }

    /// Renders a human-readable table of the entries matching `prefixes`
    /// (all entries when empty) — the `--engine-stats` output.
    pub fn render(&self, prefixes: &[&str]) -> String {
        let view = if prefixes.is_empty() {
            self.clone()
        } else {
            self.filtered(prefixes)
        };
        let mut out = String::from("observability snapshot\n");
        if !view.counters.is_empty() {
            out.push_str("  counters:\n");
            let width = view.counters.keys().map(|n| n.len()).max().unwrap_or(0);
            for (name, v) in &view.counters {
                let _ = writeln!(out, "    {name:width$}  {v}");
            }
        }
        if !view.gauges.is_empty() {
            out.push_str("  gauges:\n");
            let width = view.gauges.keys().map(|n| n.len()).max().unwrap_or(0);
            for (name, v) in &view.gauges {
                let _ = writeln!(out, "    {name:width$}  {v}");
            }
        }
        if !view.histograms.is_empty() {
            out.push_str("  timings:\n");
            let width = view.histograms.keys().map(|n| n.len()).max().unwrap_or(0);
            for (name, h) in &view.histograms {
                let _ = writeln!(
                    out,
                    "    {name:width$}  count {}  total {:.3}s  p50 {}us  p95 {}us  p99 {}us  max {}us",
                    h.count,
                    h.sum_us as f64 / 1e6,
                    h.p50_us(),
                    h.p95_us(),
                    h.p99_us(),
                    h.max_us
                );
            }
        }
        if view.counters.is_empty() && view.gauges.is_empty() && view.histograms.is_empty() {
            out.push_str("  (empty — was instrumentation enabled?)\n");
        }
        out
    }
}

/// A registry name as a Prometheus metric name: `phpsafe_` prefix, every
/// non-alphanumeric character replaced by `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("phpsafe_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Starts entry `i` of a [`Snapshot::to_json`] section: the separator,
/// the indent and the escaped `name` as the key.
fn json_entry(out: &mut String, i: usize, name: &str) {
    out.push_str(if i == 0 { "\n    " } else { ",\n    " });
    write_str(out, name);
    out.push_str(": ");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_consistent() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        for us in [0u64, 1, 2, 3, 7, 8, 1000, u64::MAX] {
            assert!(us <= bucket_upper(bucket_of(us)), "{us}");
        }
    }

    #[test]
    fn quantiles_of_uniform_samples() {
        let h = Histogram::new();
        for us in 1..=1000u64 {
            h.record_us(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max_us, 1000);
        assert_eq!(s.sum_us, 500_500);
        // Bucket interpolation recovers exact quantiles for a uniform
        // population: rank position inside the bucket maps linearly onto
        // the bucket's value range.
        assert_eq!(s.p50_us(), 500);
        assert_eq!(s.p90_us(), 900);
        assert_eq!(s.p95_us(), 950);
        assert_eq!(s.p99_us(), 990);
        assert_eq!(s.quantile_us(1.0), 1000);
        assert_eq!(s.quantile_us(0.0), 1);
        // The conservative bound never under-reports.
        assert_eq!(s.quantile_upper_us(0.50), 511);
        assert_eq!(s.quantile_upper_us(0.95), 1000);
    }

    #[test]
    fn single_sample_reports_itself_at_every_quantile() {
        let h = Histogram::new();
        h.record_us(37);
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(s.quantile_us(q), 37, "q={q}");
        }
        let p = s.percentiles();
        assert_eq!((p.count, p.sum_us, p.max_us), (1, 37, 37));
        assert_eq!((p.p50_us, p.p90_us, p.p95_us, p.p99_us), (37, 37, 37, 37));
    }

    #[test]
    fn all_one_bucket_interpolates_within_the_bucket() {
        // 100 samples all in bucket 7 (64..127); interpolation must stay
        // inside [lower, max] and rise with q.
        let h = Histogram::new();
        for _ in 0..50 {
            h.record_us(64);
        }
        for _ in 0..50 {
            h.record_us(100);
        }
        let s = h.snapshot();
        let p50 = s.p50_us();
        let p99 = s.p99_us();
        assert!((64..=100).contains(&p50), "p50={p50}");
        assert!((64..=100).contains(&p99), "p99={p99}");
        assert!(p50 <= p99);
        assert_eq!(s.quantile_us(1.0), 100, "top of the bucket is the max");
    }

    #[test]
    fn saturated_top_bucket_caps_at_the_exact_max() {
        // u64::MAX lands in the last bucket, whose upper bound is
        // unrepresentable; every quantile must cap at the recorded max.
        let h = Histogram::new();
        h.record_us(10);
        h.record_us(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.max_us, u64::MAX);
        assert_eq!(s.quantile_us(1.0), u64::MAX);
        assert_eq!(s.p99_us(), u64::MAX);
        assert!(s.p50_us() <= 15, "median stays in the 10-sample's bucket");
        assert_eq!(s.quantile_upper_us(1.0), u64::MAX);
    }

    #[test]
    fn percentiles_are_monotone_p50_to_max() {
        // A long-tailed population: the extraction must preserve
        // p50 <= p90 <= p95 <= p99 <= max.
        let h = Histogram::new();
        for i in 0..1000u64 {
            h.record_us(i * i % 7919);
        }
        h.record_us(1_000_000);
        let p = h.snapshot().percentiles();
        assert!(p.p50_us <= p.p90_us);
        assert!(p.p90_us <= p.p95_us);
        assert!(p.p95_us <= p.p99_us);
        assert!(p.p99_us <= p.max_us);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let h = Histogram::new();
        for us in [3u64, 5, 9, 17, 33, 65, 129, 1025, 70_000] {
            h.record_us(us);
        }
        let s = h.snapshot();
        let mut prev = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let v = s.quantile_us(q);
            assert!(v >= prev, "quantiles must not decrease (q={q})");
            assert!(v <= s.max_us);
            prev = v;
        }
        assert_eq!(s.quantile_us(1.0), 70_000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.sum_us, s.max_us), (0, 0, 0));
        assert_eq!(s.p50_us(), 0);
        assert_eq!(s.p95_us(), 0);
        assert_eq!(s.p99_us(), 0);
        assert_eq!(s.quantile_upper_us(0.99), 0);
        assert_eq!(s.percentiles(), Percentiles::default());
    }

    #[test]
    fn histogram_since_subtracts_samples() {
        let h = Histogram::new();
        h.record_us(10);
        h.record_us(1000);
        let before = h.snapshot();
        h.record_us(20);
        h.record_us(30);
        let delta = h.snapshot().since(&before);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum_us, 50);
        // The delta only gained samples in the 16..31 bucket.
        assert!(delta.max_us <= 31, "max capped to gained buckets");
        assert!(delta.p95_us() <= 31);
    }

    #[test]
    fn registry_snapshot_and_since() {
        let r = Registry::new();
        r.count("a.hits", 3);
        r.time("a.time", Duration::from_micros(7));
        let before = r.snapshot();
        r.count("a.hits", 2);
        r.count("b.new", 1);
        r.time("a.time", Duration::from_micros(9));
        let delta = r.snapshot().since(&before);
        assert_eq!(delta.counter("a.hits"), 2);
        assert_eq!(delta.counter("b.new"), 1);
        assert_eq!(delta.histogram("a.time").unwrap().count, 1);
        // Unchanged entries disappear from the delta.
        r.count("c.idle", 1);
        let snap = r.snapshot();
        assert!(!snap.since(&snap).counters.contains_key("a.hits"));
    }

    #[test]
    fn json_shape_and_escaping() {
        let r = Registry::new();
        r.count("cache.parse.hits", 12);
        r.count("a\"b\\c\nd", 1);
        r.time("stage.lex", Duration::from_micros(100));
        let j = r.snapshot().to_json();
        assert!(j.contains("\"cache.parse.hits\": 12"));
        assert!(j.contains("\"a\\\"b\\\\c\\nd\": 1"));
        assert!(j.contains("\"stage.lex\""));
        assert!(j.contains("\"p95_us\""));
        assert!(j.contains("\"p90_us\""));
        assert!(j.contains("\"p99_us\""));
        let empty = Snapshot::default().to_json();
        assert!(empty.contains("\"counters\": {}"));
    }

    #[test]
    fn snapshot_json_bytes_are_pinned() {
        let latency = Histogram::new();
        for us in [100, 200, 3_000] {
            latency.record_us(us);
        }
        let mut snap = Snapshot::default();
        snap.counters.insert("cache.parse.hits".into(), 12);
        snap.counters.insert("odd \"name\"\\\t\u{1}é".into(), 3);
        snap.gauges.insert("diskcache.bytes_on_disk.ast".into(), 40);
        snap.histograms
            .insert("stage.lex".into(), latency.snapshot());
        assert_eq!(
            snap.to_json(),
            "{\n  \"counters\": {\n    \"cache.parse.hits\": 12,\n    \
             \"odd \\\"name\\\"\\\\\\t\\u0001é\": 3\n  },\n  \"gauges\": {\n    \
             \"diskcache.bytes_on_disk.ast\": 40\n  },\n  \"histograms\": {\n    \
             \"stage.lex\": {\"count\": 3, \"sum_us\": 3300, \"p50_us\": 255, \
             \"p90_us\": 3000, \"p95_us\": 3000, \"p99_us\": 3000, \"max_us\": 3000}\n  }\n}\n"
        );
    }

    #[test]
    fn declared_entries_appear_without_samples() {
        let r = Registry::new();
        r.declare_counter("serve.test.declared");
        r.declare_histogram("serve.test.latency");
        let snap = r.snapshot();
        assert_eq!(snap.counter("serve.test.declared"), 0);
        assert_eq!(snap.histogram("serve.test.latency").unwrap().count, 0);
        assert!(snap.to_json().contains("\"serve.test.declared\": 0"));
        // Declaring again never resets accumulated values.
        r.count("serve.test.declared", 3);
        r.declare_counter("serve.test.declared");
        assert_eq!(r.snapshot().counter("serve.test.declared"), 3);
    }

    #[test]
    fn prometheus_exposition_has_counters_and_cumulative_buckets() {
        let r = Registry::new();
        r.count("serve.requests", 7);
        r.time("serve.request", Duration::from_micros(100));
        r.time("serve.request", Duration::from_micros(200));
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE phpsafe_serve_requests counter"));
        assert!(text.contains("phpsafe_serve_requests 7"));
        assert!(text.contains("# TYPE phpsafe_serve_request_us histogram"));
        assert!(text.contains("phpsafe_serve_request_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("phpsafe_serve_request_us_sum 300"));
        assert!(text.contains("phpsafe_serve_request_us_count 2"));
        // Bucket series are cumulative: the 128..255 bucket line counts
        // both samples' buckets up to its bound.
        assert!(text.contains("phpsafe_serve_request_us_bucket{le=\"127\"} 1"));
        assert!(text.contains("phpsafe_serve_request_us_bucket{le=\"200\"} 2"));
    }

    #[test]
    fn gauges_are_set_absolute_levels() {
        let r = Registry::new();
        let ns = format!("diskcache.bytes_on_disk.{}", "ast");
        r.gauge(&ns, 100);
        r.gauge(&ns, 40); // a gauge can go down
        r.gauge("diskcache.bytes_on_disk.summary", 7);
        let snap = r.snapshot();
        assert_eq!(snap.gauge(&ns), 40);
        assert_eq!(snap.gauge("diskcache.bytes_on_disk.summary"), 7);
        assert_eq!(snap.gauge("missing"), 0);
        // Deltas carry the current level, not a difference.
        let before = snap.clone();
        r.gauge(&ns, 55);
        let delta = r.snapshot().since(&before);
        assert_eq!(delta.gauge(&ns), 55);
        // JSON and Prometheus expositions surface gauges.
        let j = r.snapshot().to_json();
        assert!(j.contains("\"diskcache.bytes_on_disk.ast\": 55"));
        let p = r.snapshot().to_prometheus();
        assert!(p.contains("# TYPE phpsafe_diskcache_bytes_on_disk_ast gauge"));
        assert!(p.contains("phpsafe_diskcache_bytes_on_disk_ast 55"));
        // Prefix filtering and the rendered table keep gauges too.
        let filtered = r.snapshot().filtered(&["diskcache.bytes_on_disk.a"]);
        assert_eq!(filtered.gauges.len(), 1);
        assert!(r.snapshot().render(&[]).contains("gauges:"));
    }

    #[test]
    fn render_filters_by_prefix() {
        let r = Registry::new();
        r.count("cache.parse.hits", 1);
        r.count("span.other", 2);
        let text = r.snapshot().render(&["cache."]);
        assert!(text.contains("cache.parse.hits"));
        assert!(!text.contains("span.other"));
        let empty = Snapshot::default().render(&[]);
        assert!(empty.contains("empty"));
    }
}
