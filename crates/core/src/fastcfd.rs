//! FastCFD — depth-first discovery of general minimal k-frequent CFDs
//! (Section 5 of the paper).
//!
//! For each RHS attribute `A`, `FindCover` walks the k-frequent *free*
//! constant patterns `(X, tp)` (Lemma 5: the constant part of a minimal
//! variable CFD is free). For each pattern it runs FastFD's search
//! ([`cfd_fd::fastfd`]) on the agree sets of `r_tp`: it derives the
//! minimal difference sets `Dᵐ_A(r_tp)` and enumerates their minimal
//! covers `Y` depth-first (`FindMin`), with dynamic attribute
//! reordering and the minimality check (b1). A cover that also passes
//! the left-reduction check (b2) yields the variable CFD
//! `([X, Y] → A, (tp, _, …, _ ‖ _))`. An empty `Dᵐ_A` means `A` is
//! constant on `r_tp`, a constant CFD (step 3.a): every configuration
//! takes those from CFDMiner over the shared mining result, as the
//! paper recommends (Section 5.5). On a free pattern CFDMiner's pass
//! rejects `A` exactly when some immediate sub-pattern's closure holds
//! it, which is step 3.a's left-reduction test; on a non-free pattern
//! (mined only without free-set pruning) some immediate sub-pattern has
//! the same support, hence the same closure, so the pass emits nothing
//! for it.
//!
//! Two difference-set engines are provided (Section 5.4/5.5):
//!
//! * [`DiffSetMode::ClosedSets`] (the paper's default FastCFD): agree
//!   sets are the 2-frequent closed item sets containing `(X, tp)`;
//! * [`DiffSetMode::StrippedPartitions`] (the paper's NaiveFast): agree
//!   sets are computed per pattern from stripped partitions of `r_tp`.

use crate::api::{Algo, Discoverer};
use crate::cfdminer::exact_rules;
use cfd_fd::fastfd::{min_diff_sets, minimal_covers};
use cfd_itemset::index::ClosedSetIndex;
use cfd_itemset::mine::{mine_free_closed, MineOptions, Mined};
use cfd_model::attrset::AttrSet;
use cfd_model::cfd::Cfd;
use cfd_model::cover::CanonicalCover;
use cfd_model::measure::RuleMeasure;
use cfd_model::options::{DiscoverError, DiscoverOptions};
use cfd_model::pattern::{PVal, Pattern};
use cfd_model::progress::{shard_runs, Cancelled, Control, SearchStats};
use cfd_model::relation::Relation;
use cfd_model::schema::AttrId;
use cfd_partition::agree::agree_sets_of_rows;
use std::sync::Mutex;

/// How difference sets are computed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiffSetMode {
    /// From the 2-frequent closed item sets (the paper's FastCFD default;
    /// reuses CFDMiner's side product).
    ClosedSets,
    /// From stripped partitions of each `r_tp` (the paper's NaiveFast).
    StrippedPartitions,
}

/// Builds the Closed₂(r) index once, shared by every thread.
fn build_closed2_index(rel: &Relation, mode: DiffSetMode) -> Option<ClosedSetIndex> {
    match mode {
        DiffSetMode::ClosedSets => Some(ClosedSetIndex::mine(rel)),
        DiffSetMode::StrippedPartitions => None,
    }
}

/// The agree-set family of `r_tp` for every mined free set whose
/// closure misses some attribute — the free sets some RHS derives
/// `Dᵐ_A(r_tp)` from — and an empty family for the others. Each family
/// is computed once, on `threads` workers, from the Closed₂ index when
/// there is one (FastCFD) and from the free set's tuples otherwise
/// (NaiveFast); every RHS's `FindCover` reads them.
fn agree_families(
    rel: &Relation,
    mined: &Mined,
    index: Option<&ClosedSetIndex>,
    threads: usize,
    ctrl: &Control<'_>,
    stats: &mut SearchStats,
) -> Result<Vec<Vec<AttrSet>>, Cancelled> {
    let full = AttrSet::full(rel.arity());
    shard_runs(
        0..mined.free.len(),
        threads,
        ctrl,
        stats,
        || (),
        |fi, _, _, out| {
            let free = &mined.free[fi];
            out.push(if mined.closure_of(fi).pattern.attrs() == full {
                Vec::new()
            } else if let Some(index) = index {
                index.agree_attr_sets(&free.pattern)
            } else {
                agree_sets_of_rows(rel, free.tids())
            })
        },
    )
}

/// Depth-first CFD discovery (Section 5). It reads `k` and `threads`
/// from [`DiscoverOptions`]; its own knobs are the ablations below.
/// `FastCfd::default()` is the paper's FastCFD: closed-set difference
/// sets and dynamic attribute reordering; [`FastCfd::naive`] is
/// NaiveFast. Both take their constant CFDs from CFDMiner.
///
/// `threads` shards the free-set mining pass, then each free set's
/// agree-set family (computed once per run), then `FindCover` for the
/// different RHS attributes (embarrassingly parallel across RHS
/// attributes; the families are shared read-only) over the
/// [`shard_runs`] workers, at most one per core. The Closed₂ index is
/// mined on one thread, which was faster than sharding it at two
/// (DESIGN.md §9). `1` keeps the paper's single-threaded execution
/// model. Output is byte-identical for every thread count.
#[derive(Clone, Copy, Debug)]
pub struct FastCfd {
    mode: DiffSetMode,
    dynamic_reorder: bool,
    free_set_pruning: bool,
}

impl Default for FastCfd {
    fn default() -> FastCfd {
        FastCfd {
            mode: DiffSetMode::ClosedSets,
            dynamic_reorder: true,
            free_set_pruning: true,
        }
    }
}

impl FastCfd {
    /// The paper's NaiveFast: stripped-partition difference sets.
    pub fn naive() -> FastCfd {
        FastCfd {
            mode: DiffSetMode::StrippedPartitions,
            ..FastCfd::default()
        }
    }

    /// Overrides the difference-set engine.
    pub fn mode(mut self, mode: DiffSetMode) -> FastCfd {
        self.mode = mode;
        self
    }

    /// Enables/disables FastFD-style dynamic attribute reordering in
    /// `FindMin` (ablation knob).
    pub fn dynamic_reorder(mut self, on: bool) -> FastCfd {
        self.dynamic_reorder = on;
        self
    }

    /// Enables/disables the Lemma 5 free-set pruning (ablation knob).
    /// When disabled, FindCover and CFDMiner's pass walk *every*
    /// k-frequent constant pattern; the rejected candidates are filtered
    /// by the left-reduction checks, so the cover is unchanged — only
    /// slower to produce.
    pub fn free_set_pruning(mut self, on: bool) -> FastCfd {
        self.free_set_pruning = on;
        self
    }

    /// `FindCover(A, r, k)`: all minimal k-frequent CFDs with RHS `A`,
    /// from the free sets' agree-set `families`.
    fn find_cover(
        &self,
        rel: &Relation,
        mined: &Mined,
        families: &[Vec<AttrSet>],
        rhs: AttrId,
        ctrl: &Control<'_>,
        stats: &mut SearchStats,
    ) -> Result<Vec<(Cfd, RuleMeasure)>, Cancelled> {
        let full = AttrSet::full(rel.arity());
        let mut out = Vec::new();
        // Dᵐ_A(r_tp) by free-set id, empty where A is constant on r_tp.
        // Free sets ascend by size, so the sub-patterns check (b2) reads
        // are filled before the patterns that read them.
        let mut dms: Vec<Vec<AttrSet>> = vec![Vec::new(); mined.free.len()];
        for fi in 0..mined.free.len() {
            ctrl.check()?;
            let pattern = &mined.free[fi].pattern;
            // A is constant on r_tp (the closure holds the pattern's own
            // attributes too): Dᵐ_A(r_tp) = ∅, step 3.a, whose constant
            // CFDs come from CFDMiner
            if mined.closure_of(fi).pattern.attrs().contains(rhs) {
                continue;
            }
            // every emitted rule holds exactly on the pattern's tuples
            let measure = RuleMeasure::exact(mined.free[fi].support as usize);
            // its `attr(R) \ {A}` fallback (pairs agreeing nowhere) can
            // apply only to the empty pattern: any constant pattern
            // forces agreement on its own attributes
            dms[fi] = min_diff_sets(&families[fi], rhs, rel.arity());
            let dm = &dms[fi];
            stats.diff_set_families += 1;
            if dm.iter().any(|d| d.is_empty()) {
                // some pair differs on A and nothing else: no CFD with RHS
                // A can hold on r_tp (FindMin base case 1)
                continue;
            }
            // difference sets of the immediate sub-patterns, for (b2)
            let sub_dms: Vec<(AttrId, &[AttrSet])> = pattern
                .attrs()
                .iter()
                .map(|b| {
                    let si = mined
                        .free_index(&pattern.without(b))
                        .expect("sub-patterns of free sets are mined");
                    debug_assert!(si < fi, "sub-patterns come first");
                    (b, &dms[si][..])
                })
                .collect();
            stats.diff_set_families += sub_dms.len() as u64;
            let candidates: Vec<AttrId> = full
                .difference(pattern.attrs())
                .without(rhs)
                .iter()
                .collect();
            // (b1) Y is a minimal cover of Dᵐ_A(r_tp): checked by the search
            minimal_covers(dm, &candidates, self.dynamic_reorder, stats, |y, stats| {
                // (b2) upgrading any LHS constant B to `_` must not yield a
                // valid CFD: Y ∪ {B} may not cover Dᵐ_A(r_{tp[X\B]})
                for (b, sub_dm) in &sub_dms {
                    let y_b = y.with(*b);
                    if sub_dm.iter().all(|d| d.intersects(y_b)) {
                        stats.pruned += 1;
                        return;
                    }
                }
                stats.emitted += 1;
                let lhs =
                    Pattern::from_pairs(pattern.iter().chain(y.iter().map(|b| (b, PVal::Var))));
                out.push((Cfd::variable(lhs, rhs), measure));
            });
        }
        Ok(out)
    }
}

impl Discoverer for FastCfd {
    fn algo(&self) -> Algo {
        if self.mode == DiffSetMode::StrippedPartitions {
            Algo::Naive
        } else {
            Algo::FastCfd
        }
    }

    /// Discovers the canonical cover of minimal k-frequent CFDs: polls
    /// `ctrl` per free pattern, for its agree-set family and inside
    /// `FindCover` (also from worker threads), reports `rhs` progress
    /// as the number of finished RHS runs, times the `mine` / `index` /
    /// `findcover` phases, and counts mined free/closed sets,
    /// difference-set families (`diff_set_families`), cover candidates
    /// tested (`candidates`) and covers failing the left-reduction
    /// checks (`pruned`). Every emitted rule holds exactly, so its
    /// [`RuleMeasure`] is `RuleMeasure::exact` of its free pattern's
    /// support.
    fn run(
        &self,
        rel: &Relation,
        opts: &DiscoverOptions,
        ctrl: &Control<'_>,
        stats: &mut SearchStats,
    ) -> Result<(CanonicalCover, Vec<RuleMeasure>), DiscoverError> {
        let t0 = std::time::Instant::now();
        let mined = mine_free_closed(
            rel,
            opts.k,
            MineOptions {
                // only NaiveFast's per-pattern agree sets read tidsets
                keep_tids: self.mode == DiffSetMode::StrippedPartitions,
                free_only: self.free_set_pruning,
                threads: opts.threads,
            },
        );
        stats.phase("mine", t0.elapsed());
        ctrl.check()?;
        let mut out: Vec<(Cfd, RuleMeasure)> = Vec::new();
        if mined.free.is_empty() {
            return Ok((CanonicalCover::default(), Vec::new()));
        }
        let t0 = std::time::Instant::now();
        let index = build_closed2_index(rel, self.mode);
        if self.mode == DiffSetMode::ClosedSets {
            stats.phase("index", t0.elapsed());
        }
        // step 3.a's constant CFDs; exact_rules counts free/closed sets
        out.extend(exact_rules(&mined, stats));
        let t1 = std::time::Instant::now();
        let families = agree_families(rel, &mined, index.as_ref(), opts.threads, ctrl, stats)?;
        drop(index);
        // one run per RHS attribute; the agree-set families and the
        // mining result are shared read-only. `done` counts finished
        // runs and is reported under its lock, so it ascends
        let done = Mutex::new(0);
        let per_rhs = shard_runs(
            0..rel.arity(),
            opts.threads,
            ctrl,
            stats,
            || (),
            |rhs, _, stats, found| {
                let rules = self.find_cover(rel, &mined, &families, rhs, ctrl, stats);
                if rules.is_ok() {
                    let mut done = done.lock().expect("no worker panics holding the count");
                    *done += 1;
                    ctrl.report("rhs", *done, rel.arity());
                }
                found.push(rules);
            },
        )?;
        for rules in per_rhs {
            out.extend(rules?);
        }
        stats.phase("findcover", t1.elapsed());
        Ok(CanonicalCover::from_measured(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::BruteForce;
    use crate::ctane::Ctane;
    use crate::minimality::audit_cover;
    use cfd_datagen::cust::cust_relation;
    use cfd_datagen::random::RandomRelation;
    use cfd_model::cfd::parse_cfd;

    /// The agree-set families `FindCover` reads, computed serially.
    fn families(r: &Relation, mined: &Mined, index: Option<&ClosedSetIndex>) -> Vec<Vec<AttrSet>> {
        let (ctrl, mut stats) = (Control::default(), SearchStats::default());
        agree_families(r, mined, index, 1, &ctrl, &mut stats).unwrap()
    }

    #[test]
    fn example9_difference_sets() {
        // D^m_STR(r_{CC=01}) = {[PN],[AC,CT]} and D^m_STR(r_{CC=44}) =
        // {[AC,CT,ZIP]} on cust *without* NM (Example 9 drops NM)
        let r0 = cust_relation();
        let keep: Vec<&str> = vec!["CC", "AC", "PN", "STR", "CT", "ZIP"];
        let nm = r0.schema().attr_id("NM").unwrap();
        let r = r0
            .project(r0.schema().all_attrs().without(nm))
            .expect("projection drops NM");
        let mined = mine_free_closed(&r, 2, MineOptions::default());
        let str_id = r.schema().attr_id("STR").unwrap();
        let ids: std::collections::HashMap<&str, usize> = keep
            .iter()
            .map(|&n| (n, r.schema().attr_id(n).unwrap()))
            .collect();
        for mode in [DiffSetMode::ClosedSets, DiffSetMode::StrippedPartitions] {
            let index = build_closed2_index(&r, mode);
            let families = families(&r, &mined, index.as_ref());
            let cc01 = Pattern::from_pairs([(
                ids["CC"],
                PVal::Const(r.column(ids["CC"]).dict().code("01").unwrap()),
            )]);
            let fi = mined.free_index(&cc01).unwrap();
            let want = vec![
                AttrSet::singleton(ids["PN"]),
                AttrSet::from_iter([ids["AC"], ids["CT"]]),
            ];
            let mut got = min_diff_sets(&families[fi], str_id, r.arity());
            got.sort_unstable();
            let mut want_sorted = want.clone();
            want_sorted.sort_unstable();
            assert_eq!(got, want_sorted, "mode {mode:?}");

            let cc44 = Pattern::from_pairs([(
                ids["CC"],
                PVal::Const(r.column(ids["CC"]).dict().code("44").unwrap()),
            )]);
            let fi = mined.free_index(&cc44).unwrap();
            assert_eq!(
                min_diff_sets(&families[fi], str_id, r.arity()),
                vec![AttrSet::from_iter([ids["AC"], ids["CT"], ids["ZIP"]])],
                "mode {mode:?}"
            );
        }
    }

    #[test]
    fn closed_sets_that_are_no_pairs_agree_set_change_nothing() {
        // every pair of these tuples agrees on X and on exactly one of B,
        // C and D, so the closed set {X = a} (clo(∅): X is constant) is
        // no pair's agree set. It lies strictly inside the agree set of
        // any two of its tuples that differ on the RHS, so minimizing
        // drops its complement and both engines find the same Dᵐ_A.
        use cfd_model::relation::relation_from_rows;
        use cfd_model::schema::Schema;
        let schema = Schema::new(["X", "B", "C", "D"]).unwrap();
        let r = relation_from_rows(
            schema,
            &[
                vec!["a", "1", "1", "1"],
                vec!["a", "1", "2", "2"],
                vec!["a", "2", "1", "2"],
                vec!["a", "2", "2", "1"],
            ],
        )
        .unwrap();
        let index = ClosedSetIndex::mine(&r);
        let xa = Pattern::from_pairs([(0, PVal::Const(r.column(0).dict().code("a").unwrap()))]);
        assert!(index.agree_attr_sets(&xa).contains(&AttrSet::singleton(0)));
        let mined = mine_free_closed(&r, 2, MineOptions::default());
        let closed = families(&r, &mined, Some(&index));
        let pairs = families(&r, &mined, None);
        for fi in 0..mined.free.len() {
            // FindCover derives Dᵐ_A only where A is not constant on r_tp
            let clo = mined.closure_of(fi).pattern.attrs();
            for rhs in (0..r.arity()).filter(|&a| !clo.contains(a)) {
                assert_eq!(
                    min_diff_sets(&closed[fi], rhs, r.arity()),
                    min_diff_sets(&pairs[fi], rhs, r.arity()),
                    "pattern {:?} rhs {rhs}",
                    mined.free[fi].pattern
                );
            }
        }
        for k in [1, 2] {
            let opts = DiscoverOptions::new(k);
            let fast = FastCfd::default().discover(&r, &opts);
            let naive = FastCfd::naive().discover(&r, &opts);
            assert_eq!(fast.cfds(), naive.cfds(), "k {k}");
        }
    }

    #[test]
    fn example9_point_c_emits_phi0_reduction() {
        // ([CC,AC] → STR, (44, _ ‖ _)) is minimal (point C of Example 9)
        let r = cust_relation();
        let cover = FastCfd::default().discover(&r, &DiscoverOptions::new(2));
        let c = parse_cfd(&r, "([CC, AC] -> STR, (44, _ || _))").unwrap();
        assert!(cover.contains(&c), "cover:\n{}", cover.display(&r));
    }

    #[test]
    fn matches_brute_force_on_cust_all_modes() {
        let r = cust_relation();
        for k in [1, 2, 3] {
            let want = BruteForce.discover(&r, &DiscoverOptions::new(k));
            for cfg in [
                FastCfd::default(),
                FastCfd::naive(),
                FastCfd::default().dynamic_reorder(false),
                FastCfd::naive().mode(DiffSetMode::ClosedSets),
            ] {
                let got = cfg.discover(&r, &DiscoverOptions::new(k));
                let (only_g, only_w) = got.diff(&want);
                assert!(
                    only_g.is_empty() && only_w.is_empty(),
                    "k={k} cfg={cfg:?}\nfastcfd-only: {:?}\noracle-only: {:?}",
                    only_g.iter().map(|c| c.display(&r)).collect::<Vec<_>>(),
                    only_w.iter().map(|c| c.display(&r)).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn matches_brute_force_on_random_relations() {
        for seed in 0..10 {
            let r = RandomRelation::small(seed).generate();
            for k in [1, 2] {
                let want = BruteForce.discover(&r, &DiscoverOptions::new(k));
                let fast = FastCfd::default().discover(&r, &DiscoverOptions::new(k));
                let naive = FastCfd::naive().discover(&r, &DiscoverOptions::new(k));
                assert_eq!(
                    fast.cfds(),
                    want.cfds(),
                    "fastcfd seed {seed} k {k}\nfast:\n{}\noracle:\n{}",
                    fast.display(&r),
                    want.display(&r)
                );
                assert_eq!(naive.cfds(), want.cfds(), "naive seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn agrees_with_ctane_on_wider_random_relations() {
        for seed in 100..106 {
            let r = RandomRelation {
                rows: 30,
                arity: 5,
                domain: 3,
                seed,
            }
            .generate();
            for k in [1, 2, 3] {
                let fast = FastCfd::default().discover(&r, &DiscoverOptions::new(k));
                let ctane = Ctane.discover(&r, &DiscoverOptions::new(k));
                let (only_f, only_c) = fast.diff(&ctane);
                assert!(
                    only_f.is_empty() && only_c.is_empty(),
                    "seed {seed} k {k}\nfastcfd-only: {:?}\nctane-only: {:?}",
                    only_f.iter().map(|c| c.display(&r)).collect::<Vec<_>>(),
                    only_c.iter().map(|c| c.display(&r)).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn outputs_audit_clean() {
        let r = cust_relation();
        for k in [1, 2] {
            let cover = FastCfd::default().discover(&r, &DiscoverOptions::new(k));
            let problems = audit_cover(&r, cover.iter(), k);
            assert!(problems.is_empty(), "k={k}: {problems:?}");
        }
    }

    /// A metrics sink that sets `flag` at the `after`-th
    /// `control.checks`: `check()` counts before it polls the flag, so
    /// that very checkpoint fails.
    struct TripAfter<'a> {
        after: u64,
        seen: std::sync::atomic::AtomicU64,
        flag: &'a std::sync::atomic::AtomicBool,
    }

    impl cfd_model::progress::MetricsSink for TripAfter<'_> {
        fn add(&self, name: &'static str, delta: u64) {
            use std::sync::atomic::Ordering;
            if name == "control.checks"
                && self.seen.fetch_add(delta, Ordering::Relaxed) + delta >= self.after
            {
                self.flag.store(true, Ordering::Relaxed);
            }
        }
        fn set_gauge(&self, _name: &'static str, _value: u64) {}
        fn observe(&self, _name: &'static str, _value: u64) {}
    }

    #[test]
    fn cancellation_at_every_checkpoint_fails_the_run() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        let r = cust_relation();
        for cfg in [FastCfd::default(), FastCfd::naive()] {
            for threads in [1, 2] {
                let opts = DiscoverOptions::new(2).threads(threads);
                let never = AtomicBool::new(false);
                let count = TripAfter {
                    after: u64::MAX,
                    seen: AtomicU64::new(0),
                    flag: &never,
                };
                let ctrl = Control::default().metrics_with(&count);
                assert!(cfg.discover_with(&r, &opts, &ctrl).is_ok());
                let total = count.seen.load(Ordering::Relaxed);
                // at least one checkpoint per RHS and free pattern
                assert!(total > r.arity() as u64, "{cfg:?}: {total} checkpoints");
                for k in 1..=total {
                    let flag = AtomicBool::new(false);
                    let trip = TripAfter {
                        after: k,
                        seen: AtomicU64::new(0),
                        flag: &flag,
                    };
                    let ctrl = Control::default().cancel_with(&flag).metrics_with(&trip);
                    let got = cfg.discover_with(&r, &opts, &ctrl);
                    assert!(
                        matches!(got, Err(DiscoverError::Cancelled)),
                        "{cfg:?} threads {threads}: checkpoint {k}/{total} gave {:?}",
                        got.map(|d| d.cover.len())
                    );
                }
            }
        }
    }

    #[test]
    fn rhs_progress_counts_finished_runs_in_order() {
        let r = cust_relation();
        let opts = DiscoverOptions::new(2).threads(2);
        for _ in 0..20 {
            let seen = std::sync::Mutex::new(Vec::new());
            let sink = |p: cfd_model::progress::Progress| {
                if p.phase == "rhs" {
                    seen.lock().unwrap().push((p.done, p.total));
                }
            };
            let ctrl = Control::default().progress_with(&sink);
            FastCfd::default().discover_with(&r, &opts, &ctrl).unwrap();
            let want: Vec<(usize, usize)> = (1..=7).map(|d| (d, 7)).collect();
            assert_eq!(seen.into_inner().unwrap(), want);
        }
    }

    #[test]
    fn degenerate_inputs() {
        use cfd_model::relation::relation_from_rows;
        use cfd_model::schema::Schema;
        let schema = Schema::new(["A", "B"]).unwrap();
        let one = relation_from_rows(schema, &[vec!["x", "y"]]).unwrap();
        let cover = FastCfd::default().discover(&one, &DiscoverOptions::new(1));
        let ca = parse_cfd(&one, "([] -> A, ( || x))").unwrap();
        assert!(cover.contains(&ca));
        assert!(FastCfd::default()
            .discover(&one, &DiscoverOptions::new(2))
            .is_empty());
    }
}
