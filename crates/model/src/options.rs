//! The discovery options every miner reads, and the error a discovery
//! run fails with.
//!
//! [`DiscoverOptions`] is the one home of the knobs the paper's
//! algorithms share — the support threshold `k`, the LHS bound, the
//! confidence threshold `θ` and the worker count — plus the ones the
//! unified API applies around any miner (`constants_only`, `top_k`,
//! attribute projection). It lives here, below every miner crate, so
//! the CFD miners (`cfd-core`) and the FD baselines (`cfd-fd`) read the
//! same struct; `cfd_core::api` re-exports it beside the `Discoverer`
//! trait. Miner structs keep only their ablation knobs.
//!
//! ```
//! use cfd_model::csv::relation_from_csv_str;
//! use cfd_model::options::{DiscoverError, DiscoverOptions};
//!
//! let rel = relation_from_csv_str("A,B\nx,1\ny,2\n").unwrap();
//! let opts = DiscoverOptions::new(2).max_lhs(3).threads(4).min_confidence(0.9);
//! assert_eq!(opts.validate(&rel), Ok(()));
//! // validation happens once, here, for every miner
//! assert!(matches!(
//!     DiscoverOptions::new(0).validate(&rel),
//!     Err(DiscoverError::Options(_))
//! ));
//! ```

use crate::attrset::AttrSet;
use crate::json::Json;
use crate::progress::Cancelled;
use crate::relation::Relation;

/// Algorithm-independent discovery options, validated once up front.
///
/// One struct configures every algorithm; options an algorithm has no
/// use for are *reported*, not silently dropped — `Discovery::notes`
/// (in `cfd_core::api`) carries a machine-readable note per ignored
/// option.
#[derive(Clone, Debug, PartialEq)]
pub struct DiscoverOptions {
    /// Support threshold `k ≥ 1`: discovered CFDs must hold on at least
    /// `k` tuples (ignored by the FD baselines).
    pub k: usize,
    /// Upper bound on LHS size (honored by the level-wise algorithms).
    pub max_lhs: Option<usize>,
    /// Worker threads (`1` = serial). FastCFD/NaiveFast shard
    /// `FindCover` across RHS attributes; CTANE/TANE shard level
    /// expansion across prefix-join runs; CFDMiner shards its item-set
    /// mining pass. Every parallel phase runs at most one worker per
    /// core ([`workers`](crate::progress::workers)). Output never
    /// depends on the thread count.
    pub threads: usize,
    /// Restrict the result to constant CFDs (applied natively by
    /// CFDMiner, as a post-filter elsewhere).
    pub constants_only: bool,
    /// Project the relation onto this attribute set before discovery;
    /// the resulting cover speaks the projected schema
    /// (`Discovery::relation`).
    pub project: Option<AttrSet>,
    /// Confidence threshold `θ ∈ (0, 1]` for approximate discovery
    /// (g1-style partition error — see [`mod@crate::measure`]). At the
    /// default `1.0` every algorithm runs its exact path; below it,
    /// CTANE/TANE/CFDMiner emit rules whose measured confidence
    /// reaches `θ` (exact-only algorithms note the ignored option).
    pub min_confidence: f64,
    /// Keep only the `k` best rules, ranked by confidence, then
    /// support, then canonical rule order. Applied after measurement,
    /// so it works with every algorithm.
    pub top_k: Option<usize>,
}

impl Default for DiscoverOptions {
    /// `k = 2`, everything else off — the paper's demonstration
    /// configuration.
    fn default() -> DiscoverOptions {
        DiscoverOptions::new(2)
    }
}

impl DiscoverOptions {
    /// Options with support threshold `k` and every other knob off.
    pub fn new(k: usize) -> DiscoverOptions {
        DiscoverOptions {
            k,
            max_lhs: None,
            threads: 1,
            constants_only: false,
            project: None,
            min_confidence: 1.0,
            top_k: None,
        }
    }

    /// Sets the confidence threshold `θ` for approximate discovery.
    pub fn min_confidence(mut self, theta: f64) -> DiscoverOptions {
        self.min_confidence = theta;
        self
    }

    /// Keeps only the `k` best rules (by confidence, then support).
    pub fn top_k(mut self, k: usize) -> DiscoverOptions {
        self.top_k = Some(k);
        self
    }

    /// Sets the LHS size bound.
    pub fn max_lhs(mut self, m: usize) -> DiscoverOptions {
        self.max_lhs = Some(m);
        self
    }

    /// Sets the worker-thread count.
    pub fn threads(mut self, t: usize) -> DiscoverOptions {
        self.threads = t;
        self
    }

    /// Restricts the result to constant CFDs.
    pub fn constants_only(mut self) -> DiscoverOptions {
        self.constants_only = true;
        self
    }

    /// Projects the relation onto `attrs` before discovery.
    pub fn project(mut self, attrs: AttrSet) -> DiscoverOptions {
        self.project = Some(attrs);
        self
    }

    /// Validates the options against a relation — the one check of the
    /// shared knobs. `Discoverer::discover_with` runs it before every
    /// run; call it directly to fail fast.
    pub fn validate(&self, rel: &Relation) -> Result<(), DiscoverError> {
        let fail = |m: String| Err(DiscoverError::Options(m));
        if self.k < 1 {
            return fail("support threshold k must be at least 1".into());
        }
        if self.threads < 1 {
            return fail("threads must be at least 1".into());
        }
        if !(self.min_confidence > 0.0 && self.min_confidence <= 1.0) {
            return fail(format!(
                "min_confidence must be within (0, 1], got {}",
                self.min_confidence
            ));
        }
        if self.top_k == Some(0) {
            return fail("top_k must be at least 1".into());
        }
        if let Some(p) = self.project {
            if p.is_empty() {
                return fail("projection must keep at least one attribute".into());
            }
            let universe = rel.schema().all_attrs();
            if !p.is_subset(universe) {
                return fail(format!(
                    "projection references attribute ids outside the schema (arity {})",
                    rel.arity()
                ));
            }
        }
        Ok(())
    }

    /// Serializes the options (attribute ids resolved against `rel`).
    pub fn to_json(&self, rel: &Relation) -> Json {
        Json::obj([
            ("k", Json::from(self.k)),
            ("max_lhs", Json::from(self.max_lhs)),
            ("threads", Json::from(self.threads)),
            ("constants_only", Json::from(self.constants_only)),
            ("min_confidence", Json::from(self.min_confidence)),
            ("top_k", Json::from(self.top_k)),
            (
                "project",
                match self.project {
                    None => Json::Null,
                    Some(set) => Json::arr(set.iter().map(|a| Json::from(rel.schema().name(a)))),
                },
            ),
        ])
    }

    /// Parses the keys [`to_json`](DiscoverOptions::to_json) writes;
    /// an absent or `null` key keeps its [`Default`] value, so the
    /// output of `to_json` parses back. `project` is not read: resolving
    /// attribute names needs a schema. Only the types are checked here;
    /// ranges are [`validate`](DiscoverOptions::validate)'s job.
    pub fn from_json(doc: &Json) -> Result<DiscoverOptions, DiscoverError> {
        let field = |key: &str| doc.get(key).filter(|v| !v.is_null());
        let fail =
            |key: &str, want: &str| DiscoverError::Options(format!("{key:?} must be {want}"));
        let count = |key: &str| {
            field(key)
                .map(|v| match v.as_f64() {
                    Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as usize),
                    _ => Err(fail(key, "a non-negative integer")),
                })
                .transpose()
        };
        let d = DiscoverOptions::default();
        Ok(DiscoverOptions {
            k: count("k")?.unwrap_or(d.k),
            max_lhs: count("max_lhs")?.or(d.max_lhs),
            threads: count("threads")?.unwrap_or(d.threads),
            constants_only: match field("constants_only") {
                None => d.constants_only,
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| fail("constants_only", "a boolean"))?,
            },
            project: d.project,
            min_confidence: match field("min_confidence") {
                None => d.min_confidence,
                Some(v) => v
                    .as_f64()
                    .ok_or_else(|| fail("min_confidence", "a number"))?,
            },
            top_k: count("top_k")?.or(d.top_k),
        })
    }
}

/// A discovery run failed before producing a cover.
#[derive(Clone, Debug, PartialEq)]
pub enum DiscoverError {
    /// The options failed [`DiscoverOptions::validate`].
    Options(String),
    /// The run was cancelled through its [`Control`](crate::progress::Control).
    Cancelled,
    /// The algorithm cannot run on this input (e.g. the brute-force
    /// oracle refuses arity > 10).
    Unsupported(String),
}

impl std::fmt::Display for DiscoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiscoverError::Options(m) => write!(f, "invalid options: {m}"),
            DiscoverError::Cancelled => f.write_str("discovery cancelled"),
            DiscoverError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for DiscoverError {}

impl From<Cancelled> for DiscoverError {
    fn from(_: Cancelled) -> DiscoverError {
        DiscoverError::Cancelled
    }
}
