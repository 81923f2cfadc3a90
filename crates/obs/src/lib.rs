//! # phpsafe-obs
//!
//! The unified tracing & metrics layer of the phpSAFE reproduction. Every
//! crate in the workspace records into this one (zero-dependency,
//! thread-safe) subsystem, so there is a single stats story from the lexer
//! to the evaluation runner:
//!
//! * [`metrics`] — a global registry of named counters and microsecond
//!   histograms (interpolated p50/p90/p95/p99 plus exact max), snapshotted
//!   into a [`Snapshot`] that serializes to JSON (`--metrics-out`), to the
//!   Prometheus text exposition format ([`Snapshot::to_prometheus`]), and
//!   diffs against an earlier snapshot for per-run statistics;
//! * [`mod@span`] — lightweight RAII spans ([`span!`]) that record per-stage
//!   wall time into the registry and nest into a self-profile tree
//!   (`--trace`);
//! * [`wide`] — one [`WideEvent`] per served request (id, method, queue
//!   wait, stage timings, cache hits, outcome) with a [`TailSampler`]
//!   retaining the slowest-K and errored requests;
//! * [`out`] — crash-safe artifact output: [`write_atomic`] (temp file +
//!   rename) and the [`TelemetrySink`] NDJSON wide-event stream behind
//!   `--telemetry-out`;
//! * [`json`] — the workspace's one JSON codec: the [`json::Json`] value,
//!   the hardened parser the daemon reads requests with, and the one
//!   string escaper [`json::write_str`] that reports, snapshots, wide
//!   events and replies are written with. It sits here, at the bottom of
//!   the dependency graph, so that the `serde` shim can use it too.
//!
//! The span names follow the paper's four pipeline stages (configuration,
//! model construction, analysis, results processing): `stage.lex` and
//! `stage.parse` cover model construction, `stage.analyze` the analysis
//! proper (with `analyze.model` / `analyze.taint` / `analyze.results`
//! children), and `stage.eval` the results-processing/oracle step.
//!
//! ```
//! phpsafe_obs::set_enabled(true);
//! {
//!     let _span = phpsafe_obs::span!("stage.lex");
//!     phpsafe_obs::count("lex.files", 1);
//! }
//! let snap = phpsafe_obs::snapshot();
//! assert_eq!(snap.counter("lex.files"), 1);
//! assert!(snap.histogram("stage.lex").is_some());
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod out;
pub mod span;
pub mod wide;

pub use metrics::{Histogram, HistogramSnapshot, Percentiles, Registry, Snapshot};
pub use out::{write_atomic, TelemetrySink};
pub use span::Span;
pub use wide::{TailSampler, WideEvent};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Master switch for metrics and spans. Off by default; when off, every
/// recording call returns after one relaxed atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metrics and spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide registry behind [`count`], [`time`] and [`snapshot`].
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Adds `delta` to the named global counter (no-op while disabled).
pub fn count(name: &'static str, delta: u64) {
    if enabled() {
        global().count(name, delta);
    }
}

/// Records one duration sample into the named global histogram (no-op
/// while disabled).
pub fn time(name: &'static str, d: Duration) {
    if enabled() {
        global().time(name, d);
    }
}

/// Sets the named global gauge to an absolute level (no-op while
/// disabled). Gauge names are runtime strings because the interesting
/// levels — e.g. `diskcache.bytes_on_disk.<namespace>` — are keyed by
/// values only known at runtime.
pub fn gauge(name: &str, value: u64) {
    if enabled() {
        global().gauge(name, value);
    }
}

/// Snapshot of the global registry. Subtract an earlier snapshot with
/// [`Snapshot::since`] for per-run deltas.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Pre-registers a global counter at zero (no-op while disabled), so a
/// daemon's full metric surface is scrapeable before its first request.
pub fn declare_counter(name: &'static str) {
    if enabled() {
        global().declare_counter(name);
    }
}

/// Pre-registers an empty global histogram (see [`declare_counter`]).
pub fn declare_histogram(name: &'static str) {
    if enabled() {
        global().declare_histogram(name);
    }
}

/// Renders the global span self-profile tree (see [`mod@span`]).
pub fn span_tree_text() -> String {
    span::tree_text()
}

/// Clears the global registry and span tree. Intended for
/// benches and tests that need a clean slate; concurrent recorders simply
/// start accumulating again.
pub fn reset() {
    global().clear();
    span::clear_tree();
}

/// Serializes tests that toggle the process-wide switches, across all of
/// this crate's test modules.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Opens a named RAII span: records wall time into the histogram of the
/// same name and into the self-profile tree when the guard drops. A second
/// argument (e.g. the file being parsed) is accepted and discarded without
/// being evaluated, so call sites can document what the span covers at
/// zero cost.
///
/// Bind the guard (`let _span = span!("stage.parse");`) — an unbound span
/// drops immediately and measures nothing.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name)
    };
    ($name:expr, $($detail:expr),+ $(,)?) => {{
        let _ = || {
            $(let _ = &$detail;)+
        };
        $crate::Span::enter($name)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing_enabled_records() {
        let _guard = test_lock();
        set_enabled(false);
        count("lib.test.counter", 5);
        assert_eq!(snapshot().counter("lib.test.counter"), 0);

        set_enabled(true);
        count("lib.test.counter", 5);
        time("lib.test.hist", Duration::from_micros(100));
        {
            let _s = span!("lib.test.span");
        }
        {
            let _s = span!("lib.test.span", "with a detail that is not evaluated");
        }
        let snap = snapshot();
        assert_eq!(snap.counter("lib.test.counter"), 5);
        assert_eq!(snap.histogram("lib.test.hist").unwrap().count, 1);
        assert_eq!(snap.histogram("lib.test.span").unwrap().count, 2);
        assert!(span_tree_text().contains("lib.test.span"));
        set_enabled(false);
    }
}
