//! # cfd-model
//!
//! The relational model underlying conditional functional dependency (CFD)
//! discovery, as defined in Section 2 of Fan, Geerts, Li & Xiong,
//! *Discovering Conditional Functional Dependencies* (TKDE 2011).
//!
//! This crate provides:
//!
//! * [`Schema`] / [`AttrSet`] — a fixed attribute universe (arity ≤ 64) with
//!   compact bitset attribute sets,
//! * [`Relation`] — a dictionary-encoded, column-oriented relation instance,
//! * [`Pattern`] / [`PVal`] — pattern tuples over an attribute set, mixing
//!   constants and the unnamed variable `_`, together with the match order
//!   `⪯` of Section 2.1.2,
//! * [`Cfd`] — a conditional functional dependency `(X → A, (tp ‖ pA))`,
//! * satisfaction ([`satisfies`]), support ([`support()`](support())) and violation
//!   detection ([`violations`]) primitives — the per-rule reference
//!   implementations; cover-level validation lives in the shared
//!   kernel crate `cfd-validate`,
//! * [`mod@measure`] — the shared per-rule support/confidence stats type
//!   ([`RuleMeasure`]) behind approximate discovery, validation reports
//!   and streaming counters, plus the `[support=N conf=F]` annotation
//!   wire format,
//! * [`cover`] — canonical-cover bookkeeping and the constant/variable
//!   normal form of Lemma 1,
//! * a small CSV reader/writer ([`csv`]) so relations can be loaded from
//!   files without external dependencies,
//! * [`ingest`] — the streaming, chunked, optionally parallel CSV →
//!   [`Relation`] pipeline (O(chunk) input memory, deterministic codes
//!   for every chunk size and thread count) behind every reader-based
//!   load,
//! * [`options`] — [`DiscoverOptions`](options::DiscoverOptions), the
//!   one home of the knobs every discovery algorithm shares (support
//!   `k`, LHS bound, confidence `θ`, threads), validated once.
//!
//! Everything downstream (partitions, item sets, the discovery algorithms)
//! is built on these types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrset;
pub mod cfd;
pub mod cover;
pub mod csv;
pub mod error;
pub mod fxhash;
pub mod ingest;
pub mod json;
pub mod measure;
pub mod options;
pub mod pattern;
pub mod progress;
pub mod relation;
pub mod repair;
pub mod satisfy;
pub mod schema;
pub mod support;
pub mod tableau;
pub mod violation;

pub use attrset::AttrSet;
pub use cfd::{Cfd, CfdClass};
pub use cover::{normalize_cfd, CanonicalCover};
pub use error::{Error, Result};
pub use fxhash::{FxHashMap, FxHashSet};
pub use ingest::{ingest_csv_path, ingest_csv_reader, ingest_csv_str, IngestOptions};
pub use json::Json;
pub use measure::{measure, RuleMeasure};
pub use pattern::{PVal, Pattern};
pub use progress::{Cancelled, Control, PhaseTiming, Progress, SearchStats};
pub use relation::{Relation, RelationBuilder};
pub use repair::{apply_repairs, suggest_repairs, Repair};
pub use satisfy::satisfies;
pub use schema::{AttrId, Schema};
pub use support::{pattern_support, support};
pub use tableau::{group_into_tableaux, TableauCfd};
pub use violation::{violations, Violation};
