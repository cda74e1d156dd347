//! # dmp-telemetry
//!
//! Zero-dependency (std-only — the build environment has no crates.io
//! access) observability for the data market platform:
//!
//! * [`hist`] — log-bucketed (HDR-style: power-of-two major buckets,
//!   linear sub-buckets) latency histograms with a lock-free
//!   [`hist::Histogram::record`] hot path and immutable
//!   [`hist::HistogramSnapshot`]s;
//! * [`registry`] — a process-global [`registry::Registry`] of atomic
//!   counters, gauges and histograms, rendered on demand in the
//!   Prometheus text exposition format (plus a tiny format linter the
//!   CI scrape test runs);
//! * [`trace`] — a bounded, lossy-by-design (drop-counted) ring buffer
//!   of structured spans, exported as JSON;
//! * [`log`](mod@log) — a structured, level-filtered logger behind the
//!   [`log!`] macro, gated by the `DMP_LOG` env var and **off by
//!   default** so benches stay clean.
//!
//! Design rules:
//!
//! * Recording is wait-free or lossy: counters/gauges/histograms are
//!   plain atomic RMWs; the tracer `try_lock`s its ring and counts a
//!   drop instead of ever blocking a hot thread.
//! * Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s
//!   resolved once at startup and cached by the instrumented layer —
//!   the registry's map lock is touched at registration and at
//!   render time only, never on the record path.
//! * Rendering takes no lock other than the registry's own map mutex
//!   (briefly, to clone the handle list): scraping `/metrics` can
//!   never contend with the apply or WAL mutex.

pub mod hist;
pub mod log;
pub mod registry;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{global, lint_exposition, Counter, Gauge, Registry};
pub use trace::{tracer, TraceEvent, Tracer};
