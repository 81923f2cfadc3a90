//! The execution layer of the phpSAFE reproduction: *how* analyses run,
//! independent of *what* an analysis is.
//!
//! The paper's 2015 artifact analyzed one file at a time on one core,
//! re-parsing every file for every tool even though the 2014 plugin
//! snapshots carry most 2012 files over unchanged. This crate supplies the
//! pieces a production-scale runner needs, with no dependencies on
//! the analysis crates (they depend on us):
//!
//! * [`pool`] — a `std::thread` worker pool that fans jobs out across `N`
//!   workers and joins results in submission order, so downstream table
//!   output is byte-identical to a serial run;
//! * [`cache`] + [`hash`] — content-hash-keyed artifact stores with
//!   hit/miss counters, used by the analyzer for shared token-stream/AST
//!   artifacts and per-tool function summaries;
//! * [`disk`] — a persistent on-disk tier under those caches
//!   (build-stamped envelopes, atomic writes, corruption-tolerant loads,
//!   a sweep of other builds' entries at open) so artifacts
//!   survive the process and a daemon or `--cache-dir` CLI run
//!   warm-starts from a prior one;
//! * [`depgraph`] — the file dependency graph a daemon's `invalidate`
//!   resolves in memory to count the files an edit can affect. It is never
//!   persisted.
//!
//! Observability lives in `phpsafe-obs`: each [`run_ordered`] call records
//! its scheduler statistics (`engine.*` counters, `engine.wall` /
//! `engine.queue_wait` histograms) into the global registry when
//! instrumentation is enabled, and the cache counters are folded in by the
//! analyzer's cache layer — one stats story surfaced by the `repro` and
//! `phpsafe` binaries.

pub mod cache;
pub mod depgraph;
pub mod disk;
pub mod hash;
pub mod pool;

pub use cache::{ArtifactCache, CacheCounters};
pub use depgraph::DepGraph;
pub use disk::{DiskCache, DiskCounters};
pub use hash::{digest64, fnv1a_64, ContentKey};
pub use pool::{effective_jobs, effective_jobs_reported, run_ordered, PoolStats};
