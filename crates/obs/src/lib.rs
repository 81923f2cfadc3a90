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
//! * [`mod@events`] — a structured ring buffer of taint events (introduced /
//!   propagated / sanitized / reverted / sink-hit) that powers the
//!   `--explain` provenance chains; overwrites surface as the
//!   `events.dropped` counter;
//! * [`wide`] — one [`WideEvent`] per served request (id, method, queue
//!   wait, stage timings, cache hits, outcome) with a [`TailSampler`]
//!   retaining the slowest-K and errored requests;
//! * [`out`] — crash-safe artifact output: [`write_atomic`] (temp file +
//!   rename) and the [`TelemetrySink`] NDJSON wide-event stream behind
//!   `--telemetry-out`.
//!
//! Everything is off by default: the disabled hot path is a single relaxed
//! atomic load per site ([`enabled`] / [`events_enabled`]), so
//! instrumentation can stay compiled into release binaries. Flip the
//! switches with [`set_enabled`] / [`set_events_enabled`].
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

pub mod events;
pub mod metrics;
pub mod out;
pub mod span;
pub mod wide;

pub use events::{RingBuffer, TaintEvent, TaintEventKind};
pub use metrics::{Histogram, HistogramSnapshot, Percentiles, Registry, Snapshot};
pub use out::{write_atomic, TelemetrySink};
pub use span::Span;
pub use wide::{TailSampler, WideEvent};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EVENTS_ENABLED: AtomicBool = AtomicBool::new(false);

/// Master switch for metrics and spans. Off by default; when off, every
/// recording call returns after one relaxed atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metrics and spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Switch for the taint-event ring buffer (costlier than metrics: events
/// carry formatted strings). Off by default.
pub fn set_events_enabled(on: bool) {
    EVENTS_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether taint events are being recorded.
pub fn events_enabled() -> bool {
    EVENTS_ENABLED.load(Ordering::Relaxed)
}

/// The process-wide registry behind [`count`], [`time`] and [`snapshot`].
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

fn global_events() -> &'static RingBuffer {
    static EVENTS: OnceLock<RingBuffer> = OnceLock::new();
    EVENTS.get_or_init(|| RingBuffer::with_capacity(events::DEFAULT_CAPACITY))
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

/// Appends a taint event to the global ring buffer (no-op while taint
/// events are disabled). An overwrite of a buffered event — truncation of
/// the `--explain` provenance input — is recorded as the `events.dropped`
/// counter regardless of the metrics switch, so the loss is never silent.
pub fn emit(kind: TaintEventKind, file: &str, line: u32, detail: String) {
    if events_enabled() && global_events().emit(kind, file, line, detail) {
        global().count("events.dropped", 1);
    }
}

/// Clones the currently buffered taint events, oldest first.
pub fn events() -> Vec<TaintEvent> {
    global_events().events()
}

/// Removes and returns the buffered taint events, oldest first.
pub fn drain_events() -> Vec<TaintEvent> {
    global_events().drain()
}

/// Renders the global span self-profile tree (see [`mod@span`]).
pub fn span_tree_text() -> String {
    span::tree_text()
}

/// Clears the global registry, span tree and event buffer. Intended for
/// benches and tests that need a clean slate; concurrent recorders simply
/// start accumulating again.
pub fn reset() {
    global().clear();
    span::clear_tree();
    global_events().clear();
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

    #[test]
    fn ring_overwrites_surface_as_events_dropped() {
        let _guard = test_lock();
        set_events_enabled(true);
        global_events().clear();
        let before = snapshot().counter("events.dropped");
        // Fill the global buffer to capacity, then push three more: each
        // overwrite must land in the registry even though the metrics
        // switch is off.
        for i in 0..(events::DEFAULT_CAPACITY as u32 + 3) {
            emit(TaintEventKind::Propagated, "drop.php", i, String::new());
        }
        assert_eq!(snapshot().counter("events.dropped"), before + 3);
        assert_eq!(global_events().dropped(), 3);
        global_events().clear();
        set_events_enabled(false);
    }

    #[test]
    fn events_respect_their_switch() {
        let _guard = test_lock();
        set_events_enabled(false);
        emit(TaintEventKind::Introduced, "off.php", 1, "ignored".into());
        assert!(!events().iter().any(|e| e.file == "off.php"));

        set_events_enabled(true);
        emit(TaintEventKind::SinkHit, "on.php", 2, "echo".into());
        assert!(events()
            .iter()
            .any(|e| e.file == "on.php" && e.kind == TaintEventKind::SinkHit));
        set_events_enabled(false);
    }
}
