//! The unified discovery API: one trait, one options struct, one
//! structured outcome — for all six algorithms.
//!
//! The paper presents CFDMiner, CTANE and FastCFD as interchangeable
//! answers to the same problem; this module makes them (plus the
//! brute-force oracle and the TANE/FastFD baselines) interchangeable in
//! code. Every consumer — the `cfd` CLI, the examples, the bench
//! harness, tests, an embedding server — goes through the same three
//! types:
//!
//! * [`DiscoverOptions`] — the validated, algorithm-independent knobs
//!   (support `k`, `max_lhs`, `min_confidence`, `threads`,
//!   `constants_only`, `top_k`, attribute projection). It is defined in
//!   `cfd_model::options`, below the miner crates, and is the only home
//!   of the knobs the miners share: the miner structs keep ablation
//!   knobs only;
//! * [`Discoverer`] — the trait all algorithms implement, with a
//!   cancellation/progress hook ([`Control`]). Each miner's
//!   [`Discoverer::run`] is its one entry point;
//! * [`Discovery`] — the structured outcome: the cover plus per-phase
//!   timings, search counters, and machine-readable [`Note`]s for
//!   options the chosen algorithm ignores (replacing ad-hoc stderr
//!   warnings).
//!
//! The [`Algo`] registry ([`Algo::parse`], [`Algo::all`]) maps stable
//! names to algorithms so CLIs and test matrices never string-match:
//!
//! ```
//! use cfd_core::api::{Algo, Control, DiscoverOptions, Discoverer};
//! use cfd_datagen::cust::cust_relation;
//!
//! let rel = cust_relation();
//! let opts = DiscoverOptions::new(2);
//! let fast = Algo::FastCfd.discover_with(&rel, &opts, &Control::default()).unwrap();
//! let ctane = Algo::parse("ctane").unwrap()
//!     .discover_with(&rel, &opts, &Control::default()).unwrap();
//! assert_eq!(fast.cover.cfds(), ctane.cover.cfds());
//! assert!(fast.stats.candidates > 0);
//! ```

use crate::bruteforce::BruteForce;
use crate::cfdminer::CfdMiner;
use crate::ctane::{Ctane, Tane};
use crate::fastcfd::FastCfd;
use cfd_fd::FastFd;
use cfd_model::cover::CanonicalCover;
use cfd_model::json::Json;
pub use cfd_model::measure::RuleMeasure;
pub use cfd_model::options::{DiscoverError, DiscoverOptions};
pub use cfd_model::progress::{Cancelled, Control, PhaseTiming, Progress, SearchStats};
use cfd_model::relation::Relation;

/// The algorithm registry: every discovery algorithm the suite ships,
/// under its stable CLI/wire name.
///
/// `Algo` is both a name table ([`Algo::parse`], [`Algo::name`],
/// [`Algo::all`]) and itself a [`Discoverer`] (delegating to a
/// default-configured instance), so a matrix over every algorithm is a
/// plain loop:
///
/// ```
/// use cfd_core::api::{Algo, Control, DiscoverOptions, Discoverer};
/// let rel = cfd_datagen::cust::cust_relation();
/// for algo in Algo::all() {
///     let d = algo.discover_with(&rel, &DiscoverOptions::new(2), &Control::default()).unwrap();
///     println!("{}: {} rules", algo, d.cover.len());
/// }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Algo {
    /// CFDMiner — constant CFDs via free/closed item sets (Section 3).
    CfdMiner,
    /// CTANE — level-wise general CFD discovery (Section 4).
    Ctane,
    /// FastCFD — depth-first over closed-set difference sets (Section 5).
    FastCfd,
    /// NaiveFast — FastCFD with stripped-partition difference sets.
    Naive,
    /// TANE — classical FD discovery (plain FDs only).
    Tane,
    /// FastFD — depth-first classical FD discovery (plain FDs only).
    FastFd,
    /// Exhaustive enumeration — the test oracle (tiny instances only).
    BruteForce,
}

impl Algo {
    /// Every registered algorithm, in documentation order. Drives the
    /// CLI's `--algo` table, `cfd algos`, and the CI algorithm matrix.
    pub fn all() -> [Algo; 7] {
        [
            Algo::CfdMiner,
            Algo::Ctane,
            Algo::FastCfd,
            Algo::Naive,
            Algo::Tane,
            Algo::FastFd,
            Algo::BruteForce,
        ]
    }

    /// The stable name (what [`Algo::parse`] accepts).
    pub const fn name(self) -> &'static str {
        match self {
            Algo::CfdMiner => "cfdminer",
            Algo::Ctane => "ctane",
            Algo::FastCfd => "fastcfd",
            Algo::Naive => "naive",
            Algo::Tane => "tane",
            Algo::FastFd => "fastfd",
            Algo::BruteForce => "bruteforce",
        }
    }

    /// One-line description for help output.
    pub const fn description(self) -> &'static str {
        match self {
            Algo::CfdMiner => "constant CFDs via free/closed item sets (Section 3)",
            Algo::Ctane => "general CFDs, level-wise with C+ pruning (Section 4)",
            Algo::FastCfd => "general CFDs, depth-first over difference sets (Section 5)",
            Algo::Naive => "FastCFD with stripped-partition difference sets (NaiveFast)",
            Algo::Tane => "classical minimal FDs, level-wise (baseline)",
            Algo::FastFd => "classical minimal FDs, depth-first (baseline)",
            Algo::BruteForce => "exhaustive oracle — tiny instances only",
        }
    }

    /// Resolves a (case-insensitive) name. The error lists every valid
    /// name, so CLIs can surface it verbatim.
    pub fn parse(name: &str) -> Result<Algo, UnknownAlgo> {
        let lower = name.to_ascii_lowercase();
        Algo::all()
            .into_iter()
            .find(|a| a.name() == lower)
            .ok_or_else(|| UnknownAlgo(name.to_string()))
    }

    /// True iff the algorithm honors [`DiscoverOptions::max_lhs`].
    pub const fn honors_max_lhs(self) -> bool {
        matches!(self, Algo::Ctane | Algo::Tane)
    }

    /// True iff the algorithm uses the support threshold `k` (the FD
    /// baselines discover exact FDs regardless of support).
    pub const fn uses_support(self) -> bool {
        !matches!(self, Algo::Tane | Algo::FastFd)
    }

    /// True iff the algorithm only ever produces constant CFDs.
    pub const fn constants_native(self) -> bool {
        matches!(self, Algo::CfdMiner)
    }

    /// True iff the algorithm only produces plain FDs (all-wildcard
    /// variable CFDs) — `constants_only` yields an empty cover.
    pub const fn fds_only(self) -> bool {
        matches!(self, Algo::Tane | Algo::FastFd)
    }

    /// True iff the algorithm honors
    /// [`DiscoverOptions::min_confidence`] — i.e. mines approximate
    /// (θ-thresholded) covers. The depth-first algorithms and the
    /// oracle are exact-only and note the ignored option instead.
    pub const fn approximates(self) -> bool {
        matches!(self, Algo::Ctane | Algo::Tane | Algo::CfdMiner)
    }
}

impl std::fmt::Display for Algo {
    /// Prints [`Algo::name`].
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Algo {
    type Err = UnknownAlgo;
    fn from_str(s: &str) -> Result<Algo, UnknownAlgo> {
        Algo::parse(s)
    }
}

/// An algorithm name [`Algo::parse`] did not recognize.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownAlgo(pub String);

impl std::fmt::Display for UnknownAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown algorithm {:?} (valid: ", self.0)?;
        for (i, a) in Algo::all().into_iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(a.name())?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for UnknownAlgo {}

/// A machine-readable remark attached to a [`Discovery`] — today always
/// "this option was ignored", replacing the CLI's former ad-hoc stderr
/// warnings. `Display` renders the human-facing sentence. One
/// [`DiscoverOptions`] configures every algorithm, and options an
/// algorithm has no use for are *reported*, not silently dropped:
///
/// ```
/// use cfd_core::api::{Algo, Control, DiscoverOptions, Discoverer};
/// let rel = cfd_datagen::cust::cust_relation();
/// let opts = DiscoverOptions::new(2).max_lhs(3).threads(4);
/// // CTANE honors both max_lhs and threads — nothing to report:
/// let d = Algo::Ctane.discover_with(&rel, &opts, &Control::default()).unwrap();
/// assert!(d.notes.is_empty());
/// // FastCFD has no LHS bound — and says so:
/// let d = Algo::FastCfd.discover_with(&rel, &opts, &Control::default()).unwrap();
/// assert_eq!(d.notes.len(), 1);
/// assert_eq!(d.notes[0].option, "max-lhs");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Note {
    /// The algorithm the note is about.
    pub algo: Algo,
    /// The ignored option, in CLI-flag spelling (`"max-lhs"`, `"k"`,
    /// `"constants-only"`, `"min-confidence"`; a serve job's
    /// `"cache-budget-mb"`).
    pub option: &'static str,
    /// The value that was supplied.
    pub value: String,
    /// Why the option had no effect.
    pub reason: &'static str,
}

impl std::fmt::Display for Note {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "--{} {} is ignored by --algo {}: {}",
            self.option, self.value, self.algo, self.reason
        )
    }
}

impl Note {
    /// Serializes the note.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("algo", Json::from(self.algo.name())),
            ("option", Json::from(self.option)),
            ("value", Json::from(self.value.as_str())),
            ("reason", Json::from(self.reason)),
        ])
    }
}

/// The structured outcome of a discovery run.
#[derive(Clone, Debug)]
pub struct Discovery {
    /// Which algorithm ran.
    pub algo: Algo,
    /// The canonical cover (after `constants_only` filtering and
    /// `top_k` truncation).
    pub cover: CanonicalCover,
    /// The support/confidence of every rule, measured at emission and
    /// aligned with [`CanonicalCover::cfds`] order — the scores `top_k`
    /// ranked by and the numbers the `[support=N conf=F]` wire
    /// annotations and the JSON document carry.
    pub measures: Vec<RuleMeasure>,
    /// Search counters (candidates tested/pruned, partitions computed,
    /// …) with the algorithm's per-phase timings in
    /// [`SearchStats::phases`]; a final `total` phase covers the whole
    /// run including projection and filtering.
    pub stats: SearchStats,
    /// Options the run ignored, one note per option.
    pub notes: Vec<Note>,
    /// The options the run was configured with.
    pub options: DiscoverOptions,
    /// When [`DiscoverOptions::project`] was set: the projected
    /// relation the cover's attribute ids refer to.
    pub projected: Option<Relation>,
}

impl Discovery {
    /// The relation the cover speaks: the projection when one was
    /// requested, otherwise `input` (pass the relation you discovered
    /// on). Use this for [`CanonicalCover::to_text`] / display.
    pub fn relation<'a>(&'a self, input: &'a Relation) -> &'a Relation {
        self.projected.as_ref().unwrap_or(input)
    }

    /// Serializes the cover in the *annotated* wire format: one rule
    /// per line with its measured `[support=N conf=F]` suffix — what
    /// `cfd discover --min-confidence/--top-k` prints, and what
    /// `CanonicalCover::from_annotated_text` (and plain `from_text`)
    /// parse back.
    pub fn to_annotated_text(&self, input: &Relation) -> String {
        self.cover
            .to_annotated_text(self.relation(input), &self.measures)
    }

    /// Total wall-clock duration (the `total` phase).
    pub fn total_time(&self) -> std::time::Duration {
        self.stats
            .phases
            .iter()
            .rev()
            .find(|p| p.name == "total")
            .map(|p| p.duration)
            .unwrap_or_default()
    }

    /// Serializes the whole outcome — rules (wire text + structure),
    /// counts, counters, timings, notes — as one JSON object. This is
    /// the document behind `cfd discover --format json`.
    pub fn to_json(&self, input: &Relation) -> Json {
        let rel = self.relation(input);
        let (nc, nv) = self.cover.counts();
        // each rule object carries its measured support/confidence
        // alongside the wire text and structure; the removal count uses
        // the same key as `cfd check`'s per-rule report ("violations"
        // there means violation *records*, a different number)
        let rules = Json::arr(self.cover.iter().zip(&self.measures).map(|(c, m)| {
            let mut doc = c.to_json(rel);
            if let Json::Obj(fields) = &mut doc {
                fields.push(("support".into(), Json::from(m.support)));
                fields.push(("removals".into(), Json::from(m.violations)));
                fields.push(("confidence".into(), Json::from(m.confidence())));
            }
            doc
        }));
        Json::obj([
            ("algorithm", Json::from(self.algo.name())),
            ("options", self.options.to_json(input)),
            ("rules", rules),
            (
                "counts",
                Json::obj([
                    ("total", Json::from(self.cover.len())),
                    ("constant", Json::from(nc)),
                    ("variable", Json::from(nv)),
                ]),
            ),
            (
                "stats",
                Json::obj([
                    ("candidates", Json::from(self.stats.candidates)),
                    ("pruned", Json::from(self.stats.pruned)),
                    ("partitions", Json::from(self.stats.partitions)),
                    ("free_sets", Json::from(self.stats.free_sets)),
                    ("closed_sets", Json::from(self.stats.closed_sets)),
                    (
                        "diff_set_families",
                        Json::from(self.stats.diff_set_families),
                    ),
                    ("emitted", Json::from(self.stats.emitted)),
                    (
                        "store",
                        Json::obj([
                            ("hits", Json::from(self.stats.store.hits)),
                            ("misses", Json::from(self.stats.store.misses)),
                            ("evictions", Json::from(self.stats.store.evictions)),
                            ("entries", Json::from(self.stats.store.entries)),
                            ("bytes", Json::from(self.stats.store.bytes)),
                        ]),
                    ),
                ]),
            ),
            (
                "timings",
                Json::arr(self.stats.phases.iter().map(|p| {
                    Json::obj([
                        ("phase", Json::from(p.name)),
                        ("seconds", Json::from(p.duration.as_secs_f64())),
                    ])
                })),
            ),
            ("notes", Json::arr(self.notes.iter().map(Note::to_json))),
        ])
    }
}

/// The unified discovery interface all six algorithms implement.
///
/// Implementors provide [`Discoverer::algo`] (their registry identity)
/// and [`Discoverer::run`] (the instrumented core). Consumers call the
/// provided [`Discoverer::discover_with`], which validates the options,
/// applies the projection, runs the algorithm, post-filters for
/// `constants_only`, and assembles the [`Discovery`] outcome with
/// notes for ignored options.
///
/// Shared knobs (`k`, `max_lhs`, `min_confidence`, `threads`) are
/// read from [`DiscoverOptions`] and nowhere else: a miner struct holds
/// only ablation knobs that some caller sets (e.g.
/// [`FastCfd::dynamic_reorder`]).
///
/// ```
/// use cfd_core::api::{Control, DiscoverOptions, Discoverer};
/// use cfd_core::FastCfd;
///
/// let rel = cfd_datagen::cust::cust_relation();
/// let d = FastCfd::default()
///     .discover_with(&rel, &DiscoverOptions::new(2), &Control::default())
///     .unwrap();
/// assert!(d.cover.iter().all(|c| cfd_model::satisfies(&rel, c)));
/// ```
pub trait Discoverer {
    /// The registry identity of this algorithm.
    fn algo(&self) -> Algo;

    /// The instrumented core: discover on `rel` as configured by
    /// `opts`, polling `ctrl` at coarse checkpoints and filling
    /// `stats`. Every miner measures its rules at emission, from what
    /// it already holds (the level-wise walk's partitions, the free-set
    /// supports of CFDMiner and FastCFD; a plain FD holds exactly on
    /// every tuple), and returns the measures aligned with the cover's
    /// canonical order. `run` does not validate `opts`
    /// ([`DiscoverOptions::validate`] is the one check); prefer
    /// [`Discoverer::discover_with`], which adds validation,
    /// projection, filtering and note synthesis.
    fn run(
        &self,
        rel: &Relation,
        opts: &DiscoverOptions,
        ctrl: &Control<'_>,
        stats: &mut SearchStats,
    ) -> Result<(CanonicalCover, Vec<RuleMeasure>), DiscoverError>;

    /// Full-service discovery: validates `opts`, projects, runs,
    /// filters, and returns the structured [`Discovery`].
    fn discover_with(
        &self,
        rel: &Relation,
        opts: &DiscoverOptions,
        ctrl: &Control<'_>,
    ) -> Result<Discovery, DiscoverError> {
        opts.validate(rel)?;
        let algo = self.algo();
        let mut notes = Vec::new();
        if opts.max_lhs.is_some() && !algo.honors_max_lhs() {
            notes.push(Note {
                algo,
                option: "max-lhs",
                value: opts.max_lhs.unwrap_or_default().to_string(),
                reason: "this algorithm does not bound LHS size; the full cover is produced",
            });
        }
        if opts.k > 1 && !algo.uses_support() {
            notes.push(Note {
                algo,
                option: "k",
                value: opts.k.to_string(),
                reason: "the FD baselines discover exact FDs regardless of support",
            });
        }
        if opts.constants_only && algo.fds_only() {
            notes.push(Note {
                algo,
                option: "constants-only",
                value: "true".into(),
                reason: "FD baselines produce no constant rules; the result is empty",
            });
        }
        if opts.min_confidence < 1.0 && !algo.approximates() {
            notes.push(Note {
                algo,
                option: "min-confidence",
                value: opts.min_confidence.to_string(),
                reason: "only ctane/tane/cfdminer mine approximate (confidence-thresholded) \
                         covers; the exact cover is produced",
            });
        }
        let t0 = std::time::Instant::now();
        let projected = match opts.project {
            Some(attrs) => Some(
                rel.project(attrs)
                    .map_err(|e| DiscoverError::Options(e.to_string()))?,
            ),
            None => None,
        };
        let work = projected.as_ref().unwrap_or(rel);
        let mut stats = SearchStats::default();
        let (mut cover, mut measures) = {
            let _sp = cfd_obs::span!("discover.run");
            self.run(work, opts, ctrl, &mut stats)?
        };
        if opts.constants_only && !algo.constants_native() {
            // post-filter to the constant fragment, keeping the measures
            // aligned (the fragment of a sorted cover is still sorted, so
            // order survives)
            let mut kept_cfds = Vec::new();
            let mut kept_ms = Vec::new();
            for (c, m) in cover.cfds().iter().zip(measures) {
                if c.is_constant() {
                    kept_cfds.push(c.clone());
                    kept_ms.push(m);
                }
            }
            cover = CanonicalCover::from_cfds(kept_cfds);
            measures = kept_ms;
        }
        // top-k: rank by confidence, then support, then canonical rule
        // order, and truncate — the surviving rules keep cover order
        let cover = match opts.top_k {
            Some(top) if cover.len() > top => {
                let mut order: Vec<usize> = (0..cover.len()).collect();
                order.sort_unstable_by(|&i, &j| {
                    measures[j]
                        .confidence()
                        .partial_cmp(&measures[i].confidence())
                        .expect("confidence is finite")
                        .then(measures[j].support.cmp(&measures[i].support))
                        .then(i.cmp(&j))
                });
                order.truncate(top);
                order.sort_unstable();
                let kept_cfds: Vec<_> = order.iter().map(|&i| cover.cfds()[i].clone()).collect();
                measures = order.iter().map(|&i| measures[i]).collect();
                CanonicalCover::from_cfds(kept_cfds)
            }
            _ => cover,
        };
        stats.phase("total", t0.elapsed());
        // mirror the run's counters into the attached metrics sink, so a
        // `--metrics-out` snapshot carries the same numbers as the JSON
        // "stats" object without a second plumbing path
        if let Some(m) = ctrl.metrics() {
            m.add("discover.candidates", stats.candidates);
            m.add("discover.pruned", stats.pruned);
            m.add("discover.partitions", stats.partitions);
            m.add("discover.free_sets", stats.free_sets);
            m.add("discover.closed_sets", stats.closed_sets);
            m.add("discover.diff_set_families", stats.diff_set_families);
            m.add("discover.emitted", stats.emitted);
            m.add("discover.rules", cover.len() as u64);
            m.add("store.hits", stats.store.hits);
            m.add("store.misses", stats.store.misses);
            m.add("store.evictions", stats.store.evictions);
            m.set_gauge("store.entries", stats.store.entries);
            m.set_gauge("store.bytes", stats.store.bytes);
        }
        Ok(Discovery {
            algo,
            cover,
            measures,
            stats,
            notes,
            options: opts.clone(),
            projected,
        })
    }

    /// The shortest path from a relation to a cover:
    /// [`Discoverer::discover_with`] under a default [`Control`],
    /// returning [`Discovery::cover`] (in the projected schema when
    /// `opts` projects).
    ///
    /// ```
    /// use cfd_core::api::{Algo, DiscoverOptions, Discoverer};
    /// use cfd_core::{CfdMiner, FastCfd};
    ///
    /// let rel = cfd_datagen::cust::cust_relation();
    /// let opts = DiscoverOptions::new(2);
    /// let cover = Algo::Ctane.discover(&rel, &opts);
    /// let fast = FastCfd::default().discover(&rel, &opts);
    /// assert_eq!(cover.cfds(), fast.cfds());
    /// // CFDMiner mines the constant fragment of the same cover
    /// let constants = CfdMiner.discover(&rel, &opts);
    /// assert_eq!(constants.cfds(), cover.constant_cover().cfds());
    /// ```
    ///
    /// # Panics
    ///
    /// Where [`Discoverer::discover_with`] returns an error: when the
    /// options fail [`DiscoverOptions::validate`], or the algorithm
    /// refuses the input ([`DiscoverError::Unsupported`]). Use
    /// `discover_with` to handle those.
    fn discover(&self, rel: &Relation, opts: &DiscoverOptions) -> CanonicalCover {
        match self.discover_with(rel, opts, &Control::default()) {
            Ok(d) => d.cover,
            Err(e) => panic!("{} discovery failed: {e}", self.algo()),
        }
    }
}

impl Discoverer for FastFd {
    fn algo(&self) -> Algo {
        Algo::FastFd
    }

    /// A plain FD matches every tuple and holds exactly, so each rule
    /// is measured `RuleMeasure::exact(|r|)`.
    fn run(
        &self,
        rel: &Relation,
        _opts: &DiscoverOptions,
        ctrl: &Control<'_>,
        stats: &mut SearchStats,
    ) -> Result<(CanonicalCover, Vec<RuleMeasure>), DiscoverError> {
        let cover = FastFd::run(self, rel, ctrl, stats)?;
        let measures = vec![RuleMeasure::exact(rel.n_rows()); cover.len()];
        Ok((cover, measures))
    }
}

impl Discoverer for Algo {
    fn algo(&self) -> Algo {
        *self
    }

    fn run(
        &self,
        rel: &Relation,
        opts: &DiscoverOptions,
        ctrl: &Control<'_>,
        stats: &mut SearchStats,
    ) -> Result<(CanonicalCover, Vec<RuleMeasure>), DiscoverError> {
        match self {
            Algo::CfdMiner => CfdMiner.run(rel, opts, ctrl, stats),
            Algo::Ctane => Ctane.run(rel, opts, ctrl, stats),
            Algo::FastCfd => FastCfd::default().run(rel, opts, ctrl, stats),
            Algo::Naive => FastCfd::naive().run(rel, opts, ctrl, stats),
            Algo::Tane => Tane.run(rel, opts, ctrl, stats),
            Algo::FastFd => Discoverer::run(&FastFd, rel, opts, ctrl, stats),
            Algo::BruteForce => BruteForce.run(rel, opts, ctrl, stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_datagen::cust::cust_relation;
    use cfd_model::attrset::AttrSet;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn registry_names_round_trip() {
        for algo in Algo::all() {
            assert_eq!(Algo::parse(algo.name()), Ok(algo));
            assert_eq!(Algo::parse(&algo.name().to_uppercase()), Ok(algo));
            assert_eq!(algo.to_string(), algo.name());
        }
        let err = Algo::parse("levelwise").unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("levelwise") && msg.contains("fastcfd"),
            "{msg}"
        );
    }

    #[test]
    fn all_algorithms_run_through_the_trait() {
        let rel = cust_relation();
        let opts = DiscoverOptions::new(2);
        let reference = Algo::FastCfd
            .discover_with(&rel, &opts, &Control::default())
            .unwrap();
        for algo in Algo::all() {
            let d = algo
                .discover_with(&rel, &opts, &Control::default())
                .unwrap();
            assert_eq!(d.algo, algo);
            assert!(d.total_time() > std::time::Duration::ZERO);
            match algo {
                // the general algorithms agree on the canonical cover
                Algo::Ctane | Algo::Naive | Algo::BruteForce => {
                    assert_eq!(d.cover.cfds(), reference.cover.cfds(), "{algo}")
                }
                // CFDMiner is the constant fragment
                Algo::CfdMiner => {
                    assert_eq!(d.cover.cfds(), reference.cover.constant_cover().cfds())
                }
                // the FD baselines produce plain FDs only
                Algo::Tane | Algo::FastFd => {
                    assert!(d.cover.iter().all(|c| c.is_plain_fd()))
                }
                Algo::FastCfd => {}
            }
        }
    }

    #[test]
    fn options_are_validated() {
        let rel = cust_relation();
        let bad_k = DiscoverOptions::new(0);
        assert!(matches!(
            Algo::FastCfd.discover_with(&rel, &bad_k, &Control::default()),
            Err(DiscoverError::Options(_))
        ));
        let mut bad_threads = DiscoverOptions::new(2);
        bad_threads.threads = 0;
        assert!(bad_threads.validate(&rel).is_err());
        let bad_proj = DiscoverOptions::new(2).project(AttrSet::from_iter([63]));
        assert!(matches!(
            bad_proj.validate(&rel),
            Err(DiscoverError::Options(_))
        ));
        assert!(DiscoverOptions::new(2)
            .project(AttrSet::EMPTY)
            .validate(&rel)
            .is_err());
    }

    #[test]
    fn options_codec_round_trips() {
        let rel = cust_relation();
        // every field but project (CLI-only) off its default
        let mut opts = DiscoverOptions::new(3)
            .max_lhs(2)
            .threads(4)
            .constants_only()
            .min_confidence(0.85)
            .top_k(7);
        assert_eq!(
            DiscoverOptions::from_json(&opts.to_json(&rel)),
            Ok(opts.clone())
        );
        // null reads as unset, an absent key as the default
        opts.max_lhs = None;
        opts.top_k = None;
        assert_eq!(DiscoverOptions::from_json(&opts.to_json(&rel)), Ok(opts));
        assert_eq!(
            DiscoverOptions::from_json(&Json::obj(Vec::<(String, Json)>::new())),
            Ok(DiscoverOptions::default())
        );
        // wrong types are option errors
        for bad in [
            ("k", Json::from(-1.0)),
            ("constants_only", Json::from(1usize)),
        ] {
            assert!(matches!(
                DiscoverOptions::from_json(&Json::obj([bad])),
                Err(DiscoverError::Options(_))
            ));
        }
    }

    #[test]
    fn ignored_options_become_notes() {
        let rel = cust_relation();
        // every algorithm honors --threads now (the level-wise miners
        // shard their level expansion, CFDMiner its mining pass), so a
        // thread count never produces a note
        for algo in Algo::all() {
            let d = algo
                .discover_with(
                    &rel,
                    &DiscoverOptions::new(2).threads(4),
                    &Control::default(),
                )
                .unwrap();
            assert!(
                d.notes.iter().all(|n| n.option != "threads"),
                "{algo} noted --threads"
            );
        }
        // an unhonored option still surfaces: fastcfd has no LHS bound
        let d = Algo::FastCfd
            .discover_with(
                &rel,
                &DiscoverOptions::new(2).max_lhs(2),
                &Control::default(),
            )
            .unwrap();
        assert_eq!(d.notes.len(), 1);
        let n = &d.notes[0];
        assert_eq!((n.option, n.value.as_str()), ("max-lhs", "2"));
        assert!(n
            .to_string()
            .contains("--max-lhs 2 is ignored by --algo fastcfd"));
        // honored options produce no note
        let d = Algo::FastCfd
            .discover_with(
                &rel,
                &DiscoverOptions::new(2).threads(4),
                &Control::default(),
            )
            .unwrap();
        assert!(d.notes.is_empty());
        // the FD baselines note both k > 1 and constants_only
        let mut opts = DiscoverOptions::new(2);
        opts.constants_only = true;
        let d = Algo::Tane
            .discover_with(&rel, &opts, &Control::default())
            .unwrap();
        let mut noted: Vec<&str> = d.notes.iter().map(|n| n.option).collect();
        noted.sort_unstable();
        assert_eq!(noted, ["constants-only", "k"]);
        assert!(d.cover.is_empty());
    }

    #[test]
    fn constants_only_filters_general_covers() {
        let rel = cust_relation();
        let full = Algo::FastCfd
            .discover_with(&rel, &DiscoverOptions::new(2), &Control::default())
            .unwrap();
        let mut opts = DiscoverOptions::new(2);
        opts.constants_only = true;
        let constants = Algo::FastCfd
            .discover_with(&rel, &opts, &Control::default())
            .unwrap();
        assert_eq!(constants.cover.cfds(), full.cover.constant_cover().cfds());
        let miner = Algo::CfdMiner
            .discover_with(&rel, &opts, &Control::default())
            .unwrap();
        assert_eq!(miner.cover.cfds(), constants.cover.cfds());
    }

    #[test]
    fn projection_discovers_on_the_sub_relation() {
        let rel = cust_relation();
        // project away NM (attr 3 in cust: CC, AC, PN, NM, STR, CT, ZIP)
        let keep = rel.schema().attr_set(&["CC", "AC", "CT"]).unwrap();
        let opts = DiscoverOptions::new(2).project(keep);
        let d = Algo::FastCfd
            .discover_with(&rel, &opts, &Control::default())
            .unwrap();
        let sub = d.relation(&rel);
        assert_eq!(sub.arity(), 3);
        // the cover speaks the projected schema and round-trips on it
        let text = d.cover.to_text(sub);
        assert_eq!(
            CanonicalCover::from_text(sub, &text).unwrap().cfds(),
            d.cover.cfds()
        );
        // and matches discovery on a hand-projected relation
        let direct =
            FastCfd::default().discover(&rel.project(keep).unwrap(), &DiscoverOptions::new(2));
        assert_eq!(d.cover.cfds(), direct.cfds());
    }

    #[test]
    fn cancellation_aborts_the_run() {
        let rel = cust_relation();
        let flag = AtomicBool::new(true); // pre-cancelled
        let ctrl = Control::default().cancel_with(&flag);
        for algo in Algo::all() {
            let r = algo.discover_with(&rel, &DiscoverOptions::new(2), &ctrl);
            assert!(
                matches!(r, Err(DiscoverError::Cancelled)),
                "{algo} must honor cancellation"
            );
        }
        flag.store(false, Ordering::Relaxed);
        assert!(Algo::FastCfd
            .discover_with(&rel, &DiscoverOptions::new(2), &ctrl)
            .is_ok());
    }

    #[test]
    fn progress_events_are_reported() {
        use std::sync::Mutex;
        let rel = cust_relation();
        let phases: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
        let sink = |p: cfd_model::progress::Progress| phases.lock().unwrap().push(p.phase);
        let ctrl = Control::default().progress_with(&sink);
        Algo::Ctane
            .discover_with(&rel, &DiscoverOptions::new(2), &ctrl)
            .unwrap();
        assert!(phases.lock().unwrap().contains(&"level"));
    }

    #[test]
    fn stats_count_real_work() {
        let rel = cust_relation();
        for algo in Algo::all() {
            let d = algo
                .discover_with(&rel, &DiscoverOptions::new(2), &Control::default())
                .unwrap();
            assert!(d.stats.candidates > 0, "{algo} must count candidate tests");
            assert!(
                d.stats.phases.iter().any(|p| p.name == "total"),
                "{algo} must record a total phase"
            );
        }
        // free sets are counted exactly once, however constant CFDs are
        // delegated: FastCFD and CFDMiner mine the same k-frequent sets
        let opts = DiscoverOptions::new(2);
        let fast = Algo::FastCfd
            .discover_with(&rel, &opts, &Control::default())
            .unwrap();
        let miner = Algo::CfdMiner
            .discover_with(&rel, &opts, &Control::default())
            .unwrap();
        assert_eq!(fast.stats.free_sets, miner.stats.free_sets);
    }

    #[test]
    fn discovery_serializes_to_parseable_json() {
        let rel = cust_relation();
        // max_lhs is the one option ctane-with-threads leaves for a
        // note — except ctane honors it too, so use fastcfd to keep a
        // note in the document
        let d = Algo::FastCfd
            .discover_with(
                &rel,
                &DiscoverOptions::new(2).threads(2).max_lhs(2),
                &Control::default(),
            )
            .unwrap();
        let doc = d.to_json(&rel);
        let back = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(
            back.get("algorithm").and_then(Json::as_str),
            Some("fastcfd")
        );
        let rules = back.get("rules").unwrap().as_array().unwrap();
        assert_eq!(rules.len(), d.cover.len());
        // every rule's wire text parses back against the relation
        for r in rules {
            let text = r.get("text").unwrap().as_str().unwrap();
            assert!(cfd_model::cfd::parse_cfd(&rel, text).is_ok(), "{text}");
        }
        let notes = back.get("notes").unwrap().as_array().unwrap();
        assert_eq!(notes.len(), 1);
        assert_eq!(
            notes[0].get("option").and_then(Json::as_str),
            Some("max-lhs")
        );
    }

    #[test]
    fn every_discovery_is_measured() {
        let rel = cust_relation();
        for algo in Algo::all() {
            let d = algo
                .discover_with(&rel, &DiscoverOptions::new(2), &Control::default())
                .unwrap();
            assert_eq!(d.measures.len(), d.cover.len(), "{algo}");
            // exact discovery: every rule holds, so every measure is clean
            for (cfd, m) in d.cover.iter().zip(&d.measures) {
                assert_eq!(*m, cfd_model::measure::measure(&rel, cfd), "{algo}");
                assert_eq!(m.violations, 0, "{algo}: {}", cfd.display(&rel));
                assert!(m.support >= 2, "{algo}: k-frequency");
            }
        }
    }

    #[test]
    fn min_confidence_thresholds_and_notes() {
        use cfd_model::cfd::parse_cfd;
        let rel = cust_relation();
        let opts = DiscoverOptions::new(2).min_confidence(0.6);
        // ctane honors θ: the noisy rule appears, measured below 1.0
        let d = Algo::Ctane
            .discover_with(&rel, &opts, &Control::default())
            .unwrap();
        assert!(d.notes.is_empty());
        let noisy = parse_cfd(&rel, "(AC -> CT, (131 || EDI))").unwrap();
        assert!(d.cover.contains(&noisy));
        for (cfd, m) in d.cover.iter().zip(&d.measures) {
            assert!(
                m.confidence() + 1e-9 >= 0.6,
                "{} at {}",
                cfd.display(&rel),
                m.confidence()
            );
        }
        // fastcfd is exact-only: same options produce the exact cover
        // plus a machine-readable note
        let exact = Algo::FastCfd
            .discover_with(&rel, &DiscoverOptions::new(2), &Control::default())
            .unwrap();
        let d = Algo::FastCfd
            .discover_with(&rel, &opts, &Control::default())
            .unwrap();
        assert_eq!(d.cover.cfds(), exact.cover.cfds());
        assert_eq!(d.notes.len(), 1);
        assert_eq!(d.notes[0].option, "min-confidence");
        // out-of-range thresholds are rejected up front
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let opts = DiscoverOptions::new(2).min_confidence(bad);
            assert!(
                matches!(opts.validate(&rel), Err(DiscoverError::Options(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn top_k_ranks_by_confidence_then_support() {
        let rel = cust_relation();
        let full = Algo::Ctane
            .discover_with(
                &rel,
                &DiscoverOptions::new(2).min_confidence(0.6),
                &Control::default(),
            )
            .unwrap();
        assert!(full.cover.len() > 5, "premise: enough rules to truncate");
        let top = Algo::Ctane
            .discover_with(
                &rel,
                &DiscoverOptions::new(2).min_confidence(0.6).top_k(5),
                &Control::default(),
            )
            .unwrap();
        assert_eq!(top.cover.len(), 5);
        assert_eq!(top.measures.len(), 5);
        // the kept rules are a subset of the full run, measured alike
        for (cfd, m) in top.cover.iter().zip(&top.measures) {
            let i = full
                .cover
                .cfds()
                .iter()
                .position(|c| c == cfd)
                .expect("top-k rules come from the full cover");
            assert_eq!(*m, full.measures[i]);
        }
        // nothing kept scores below anything dropped
        let score = |m: &RuleMeasure| (m.confidence(), m.support);
        let worst_kept =
            top.measures
                .iter()
                .map(&score)
                .fold(
                    (f64::INFINITY, usize::MAX),
                    |a, b| {
                        if b < a {
                            b
                        } else {
                            a
                        }
                    },
                );
        for (cfd, m) in full.cover.iter().zip(&full.measures) {
            if !top.cover.contains(cfd) {
                assert!(
                    score(m) <= worst_kept,
                    "dropped {} outranks a kept rule",
                    cfd.display(&rel)
                );
            }
        }
        // top_k larger than the cover is a no-op; 0 is rejected
        let all = Algo::Ctane
            .discover_with(
                &rel,
                &DiscoverOptions::new(2).top_k(10_000),
                &Control::default(),
            )
            .unwrap();
        let plain = Algo::Ctane
            .discover_with(&rel, &DiscoverOptions::new(2), &Control::default())
            .unwrap();
        assert_eq!(all.cover.cfds(), plain.cover.cfds());
        assert!(DiscoverOptions::new(2).top_k(0).validate(&rel).is_err());
    }

    #[test]
    fn annotated_text_round_trips() {
        let rel = cust_relation();
        let d = Algo::Ctane
            .discover_with(
                &rel,
                &DiscoverOptions::new(2).min_confidence(0.6),
                &Control::default(),
            )
            .unwrap();
        let text = d.to_annotated_text(&rel);
        assert!(text.contains(" [support="), "{text}");
        let (cover, measures) = CanonicalCover::from_annotated_text(&rel, &text).unwrap();
        assert_eq!(cover.cfds(), d.cover.cfds());
        let back: Vec<_> = measures.into_iter().map(Option::unwrap).collect();
        assert_eq!(back, d.measures);
        // the plain parser accepts annotated text too, dropping measures
        assert_eq!(
            CanonicalCover::from_text(&rel, &text).unwrap().cfds(),
            d.cover.cfds()
        );
    }

    #[test]
    fn bruteforce_refuses_wide_relations_gracefully() {
        use cfd_model::relation::relation_from_rows;
        use cfd_model::schema::Schema;
        let names: Vec<String> = (0..11).map(|i| format!("A{i}")).collect();
        let row: Vec<&str> = (0..11).map(|_| "x").collect();
        let rel = relation_from_rows(Schema::new(names).unwrap(), &[row.clone(), row]).unwrap();
        let r = Algo::BruteForce.discover_with(&rel, &DiscoverOptions::new(1), &Control::default());
        assert!(matches!(r, Err(DiscoverError::Unsupported(_))));
    }
}
