//! # cfd-suite
//!
//! A Rust reproduction of *Discovering Conditional Functional Dependencies*
//! (Fan, Geerts, Li & Xiong — ICDE 2009 / IEEE TKDE 23(5), 2011).
//!
//! This façade crate re-exports the workspace:
//!
//! * [`model`] — relations, pattern tuples, CFDs, satisfaction/support/violations;
//! * [`partition`] — partitions w.r.t. attribute-set/pattern pairs (Section 4.4);
//! * [`itemset`] — free and closed item-set mining (Section 3.1);
//! * [`obs`] — structured observability: span tracing and the metrics
//!   registry behind `cfd … --trace` / `--metrics-out`, with JSON
//!   export through `model::json`;
//! * [`core`] — the discovery algorithms (CFDMiner, CTANE,
//!   FastCFD/NaiveFast, and TANE as CTANE's walk over plain FDs) and
//!   the unified [`core::api`] they all implement: the `Discoverer`
//!   trait, `DiscoverOptions` (re-exported from `model::options`),
//!   structured `Discovery` outcomes, and the `Algo` registry;
//! * [`fd`] — the classical FD baseline FastFD and its minimal-cover
//!   search;
//! * [`datagen`] — synthetic datasets used by the paper's evaluation;
//! * [`validate`] — the shared validation kernel: compile a cover once,
//!   validate whole relations in one (parallel) pass (`cfd check`,
//!   `cfd repair`);
//! * [`stream`] — the incremental violation-detection engine for
//!   streaming tuple batches (`cfd watch`), warm-started through the
//!   kernel;
//! * [`serve`] — the resident multi-client service (`cfd serve`):
//!   byte-budgeted dataset registry, bounded job queue with
//!   cancellation, and newline-delimited JSON streaming of progress and
//!   results over TCP.
//!
//! ## Quickstart
//!
//! ```
//! use cfd_suite::prelude::*;
//!
//! // the cust relation of Fig. 1
//! let rel = cfd_suite::datagen::cust::cust_relation();
//! // one options struct configures every algorithm: support k = 2
//! let opts = DiscoverOptions::new(2);
//! // canonical cover of minimal, 2-frequent CFDs
//! let cover = FastCfd::default().discover(&rel, &opts);
//! assert!(cover.iter().all(|c| satisfies(&rel, c)));
//! // constant CFDs only, orders of magnitude faster
//! let constants = CfdMiner.discover(&rel, &opts);
//! assert_eq!(constants.cfds(), cover.constant_cover().cfds());
//! // `discover_with` returns a structured outcome (timings, counters,
//! // notes) and reports bad options as an error instead of panicking:
//! let d = Algo::Ctane
//!     .discover_with(&rel, &opts, &Control::default())
//!     .unwrap();
//! assert_eq!(d.cover.cfds(), cover.cfds());
//! assert!(d.stats.candidates > 0);
//! ```

pub use cfd_core as core;
pub use cfd_datagen as datagen;
pub use cfd_fd as fd;
pub use cfd_itemset as itemset;
pub use cfd_model as model;
pub use cfd_obs as obs;
pub use cfd_partition as partition;
pub use cfd_serve as serve;
pub use cfd_stream as stream;
pub use cfd_validate as validate;

/// The items most programs need.
pub mod prelude {
    pub use cfd_core::api::{
        Algo, Cancelled, Control, DiscoverError, DiscoverOptions, Discoverer, Discovery, Note,
        Progress, SearchStats, UnknownAlgo,
    };
    pub use cfd_core::{BruteForce, CfdMiner, Ctane, DiffSetMode, FastCfd, Tane};
    pub use cfd_fd::FastFd;
    pub use cfd_model::cfd::parse_cfd;
    pub use cfd_model::csv::{relation_from_csv_path, relation_from_csv_str};
    pub use cfd_model::violation::Violation;
    pub use cfd_model::{
        measure, normalize_cfd, satisfies, support, violations, AttrSet, CanonicalCover, Cfd,
        CfdClass, Error, Json, PVal, Pattern, Relation, RelationBuilder, Result, RuleMeasure,
        Schema,
    };
    pub use cfd_serve::{ServeOptions, Server};
    pub use cfd_stream::{remine, BatchDelta, CoverDelta, RemineOptions, RuleStats, StreamEngine};
    pub use cfd_validate::{
        detect_violations, repair_cover, satisfies_cover, suggest_repairs_for_cover, validate,
        validate_with, CoverPlan, RuleReport, ValidateOptions, ValidationReport,
    };
}
