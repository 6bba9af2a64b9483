//! `cfd-obs` — structured observability for the CFD suite.
//!
//! PR 5 found the validation kernel 50× slower than its own recording
//! — and the only way to know was to hand-run a criterion bench. This
//! crate is the always-available alternative: a dependency-free
//! substrate every hot layer (validation kernel, partition engine and
//! store, streaming engine, the six discovery algorithms) emits into,
//! cheap enough to stay compiled in.
//!
//! Three pieces:
//!
//! * **Span tracing** ([`trace`]): [`span!`]-style RAII guards add each
//!   closed span's duration to its name's exact count / total / max,
//!   lock-sharded by thread. With tracing off a guard is one relaxed
//!   atomic load — no clock read, no allocation (a tested property) —
//!   so instrumented hot paths cost nothing in production. The guard
//!   lives in `cfd_model::progress`, so ingestion times itself through
//!   the same switch; `cfd … --trace` turns it on and prints the totals.
//! * **Metrics** ([`metrics`]): a [`Registry`] of named counters,
//!   gauges and power-of-two-bucketed histograms, lock-sharded by
//!   name. It implements `cfd_model::progress::MetricsSink`, the
//!   trait instrumented layers (and `cfd_core::api::Control`) speak
//!   — so the
//!   kernel, the stream engine and the miners need no dependency on
//!   this crate to be countable.
//! * **JSON export**: [`MetricsSnapshot`] serializes through
//!   `cfd_model::json` — the same writer behind `--format json` — and
//!   parses back ([`MetricsSnapshot::from_json`]), so
//!   `cfd … --metrics-out <path>` emits machine-checkable documents.
//!
//! ```
//! use cfd_model::progress::{Control, MetricsSink};
//! use cfd_obs::{MetricsSnapshot, Registry};
//!
//! let reg = Registry::new();
//! let ctrl = Control::default().metrics_with(&reg);
//! // an instrumented layer emits through the Control handle …
//! ctrl.metric_add("validate.rows_scanned", 100_000);
//! reg.observe("stream.batch_rows", 512);
//! // … and the registry snapshot round-trips through JSON
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("validate.rows_scanned"), Some(100_000));
//! let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
//! assert_eq!(back, snap);
//! ```
//!
//! The span/metric naming scheme, each counter's meaning, and the
//! overhead budget live in DESIGN.md §10.

pub mod metrics;
pub mod trace;

pub use cfd_model::span;
pub use metrics::{HistogramSnapshot, MetricsSnapshot, Registry};
pub use trace::{
    install_tracing, shutdown_tracing, span_totals, tracing_enabled, SpanGuard, SpanTotal,
};
