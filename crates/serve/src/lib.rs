//! phpsafe-serve: the long-running analysis daemon framework.
//!
//! phpSAFE's batch CLI pays full parse + summary cost on every invocation.
//! This crate keeps an analysis service resident so repeated requests reuse
//! warm caches: an NDJSON request/response protocol ([`proto`]), a bounded
//! request queue with explicit backpressure ([`queue`]), and a worker-pool
//! daemon with per-request timeouts and graceful drain ([`daemon`]) that
//! speaks the protocol over TCP (loopback) or stdio.
//!
//! The crate is deliberately service-agnostic and depends only on
//! `phpsafe-obs`: the actual analysis lives behind the [`Service`] trait,
//! implemented downstream by phpsafe-core's `AnalysisServer`. That keeps
//! the dependency arrow pointing one way (core → serve → obs) and lets the
//! daemon plumbing be unit-tested with mock services, no sockets or parser
//! required.
//!
//! Every request gets a [`RequestCtx`] ([`ctx`]) carrying its
//! server-assigned `seq` and deadline in, and stage timings / cache
//! attribution back out; the daemon turns each context into one
//! wide-event NDJSON record (slowest and errored requests are retained
//! for the `telemetry` command, and the whole stream can be mirrored to
//! a `--telemetry-out` file).
//!
//! Operational metrics are reported through `phpsafe-obs` under the
//! `serve.*` prefix: `serve.requests`, `serve.accepted`, `serve.rejected`,
//! `serve.timeouts`, `serve.errors`, `serve.bad_requests`,
//! `serve.worker_panics` counters plus
//! `serve.request` / `serve.analyze` / `serve.request.queue_wait` latency
//! histograms, all retrievable in-band via the `metrics` command (as JSON
//! or Prometheus text exposition).

pub mod ctx;
pub mod daemon;
pub mod proto;
pub mod queue;

pub use ctx::RequestCtx;
pub use daemon::{bind, run_stdio, run_tcp, Control, Daemon, ServerConfig, Service};
pub use phpsafe_obs::json::{parse, Json};
pub use proto::{
    error_response, ok_response, parse_line, AnalyzeRequest, Envelope, InvalidateRequest,
    ParseFailure, Request,
};
pub use queue::{BoundedQueue, PushError};
