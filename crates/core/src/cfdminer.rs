//! CFDMiner — constant CFD discovery via free/closed item sets
//! (Section 3 of the paper).
//!
//! Proposition 1 characterizes the minimal k-frequent constant CFDs
//! `(X → A, (tp ‖ a))` of an instance: `(X, tp)` is a k-frequent *free*
//! set not containing `(A, a)`, the closure `clo(X, tp)` contains
//! `(A, a)`, and no smaller free pattern inside `(X, tp)` has `(A, a)` in
//! its closure. Because free sets are downward closed and closure is
//! antitone in the pattern order, the last condition reduces to the
//! *immediate* free sub-patterns:
//!
//! ```text
//! RHS(X, tp) = (clo(X, tp) \ (X, tp)) \ ⋃_{B ∈ X} clo((X, tp) \ B)
//! ```
//!
//! (see DESIGN.md §2 for why this replaces the paper's step 3a
//! intersection, which as printed would keep exactly the redundant
//! items).

use crate::api::{Algo, Discoverer};
use cfd_itemset::mine::{mine_free_closed, MineOptions, Mined};
use cfd_model::cfd::Cfd;
use cfd_model::cover::CanonicalCover;
use cfd_model::fxhash::FxHashMap;
use cfd_model::measure::{keep_meets, RuleMeasure};
use cfd_model::options::{DiscoverError, DiscoverOptions};
use cfd_model::pattern::PVal;
use cfd_model::progress::{Control, SearchStats};
use cfd_model::relation::Relation;

/// Constant CFD discovery (Section 3.2). It reads `k`,
/// `min_confidence` and `threads` from [`DiscoverOptions`] and has no
/// knob of its own.
///
/// Below `θ = 1` a constant CFD `(X → A, (tp ‖ a))` is emitted when at
/// least a `θ`-fraction of the tuples matching `tp` carry `a` (and at
/// least `k` of them do — the k-frequency of the full pattern); at the
/// default `1.0` it runs the exact free/closed-set path of Section 3.
/// `threads` shards the item-set mining pass (per-level closures and
/// the extension step that builds each level); the output is
/// byte-identical for every thread count.
#[derive(Clone, Copy, Debug, Default)]
pub struct CfdMiner;

impl Discoverer for CfdMiner {
    fn algo(&self) -> Algo {
        Algo::CfdMiner
    }

    /// Discovers the canonical cover of minimal k-frequent *constant*
    /// CFDs of `rel`: polls `ctrl` after the mining phase, times
    /// `mine`, and counts free/closed sets plus candidate RHS items
    /// (`candidates`) and items rejected as non-minimal (`pruned`).
    /// Each rule's [`RuleMeasure`] comes from the free-set supports and
    /// per-value frequencies the mining pass already computed.
    fn run(
        &self,
        rel: &Relation,
        opts: &DiscoverOptions,
        ctrl: &Control<'_>,
        stats: &mut SearchStats,
    ) -> Result<(CanonicalCover, Vec<RuleMeasure>), DiscoverError> {
        let t0 = std::time::Instant::now();
        // the approximate pass needs each free set's supporting tuples
        // to take per-attribute majorities; the exact pass does not
        let approx = opts.min_confidence < 1.0;
        let mined = mine_free_closed(
            rel,
            opts.k,
            MineOptions {
                keep_tids: approx,
                threads: opts.threads,
                ..MineOptions::default()
            },
        );
        stats.phase("mine", t0.elapsed());
        ctrl.check()?;
        ctrl.report("mine", 1, 1);
        let t1 = std::time::Instant::now();
        let rules = if approx {
            approx_rules(rel, &mined, opts.k, opts.min_confidence, stats)
        } else {
            exact_rules(&mined, stats)
        };
        stats.phase("rhs-items", t1.elapsed());
        Ok(CanonicalCover::from_measured(rules))
    }
}

/// The exact free/closed RHS pass over an existing mining result,
/// filling `stats`, with each emitted rule's measure —
/// `RuleMeasure::exact(support)` by construction: the RHS item lies
/// in the closure, so every supporting tuple carries it. FastCFD
/// shares this entry point when it delegates constant CFDs here, so
/// the mining cost is paid once.
pub(crate) fn exact_rules(mined: &Mined, stats: &mut SearchStats) -> Vec<(Cfd, RuleMeasure)> {
    stats.free_sets += mined.free.len() as u64;
    stats.closed_sets += mined.closed.len() as u64;
    let mut out: Vec<(Cfd, RuleMeasure)> = Vec::new();
    for free in &mined.free {
        let clo = &mined.closed[free.closure as usize].pattern;
        // candidate RHS items: closure minus the free pattern itself
        let fresh = clo.attrs().difference(free.pattern.attrs());
        if fresh.is_empty() {
            continue;
        }
        // forbidden: items in the closure of any immediate free
        // sub-pattern (all of which are mined — subsets of free sets
        // are free, and support only grows downward)
        let mut forbidden = cfd_model::fxhash::FxHashSet::default();
        for b in free.pattern.attrs().iter() {
            let sub = free.pattern.without(b);
            let si = mined
                .free_index(&sub)
                .expect("immediate sub-pattern of a mined free set is mined");
            let sub_clo = &mined.closed[mined.free[si].closure as usize].pattern;
            for (a, v) in sub_clo.iter() {
                forbidden.insert((a, v));
            }
        }
        for a in fresh.iter() {
            let v = clo.get(a).expect("attr drawn from closure");
            stats.candidates += 1;
            if !forbidden.contains(&(a, v)) {
                let code = v.as_const().expect("closures are all-constant");
                stats.emitted += 1;
                out.push((
                    Cfd::new(free.pattern.clone(), a, PVal::Const(code)),
                    RuleMeasure::exact(free.support as usize),
                ));
            } else {
                stats.pruned += 1;
            }
        }
    }
    out
}

/// The θ-tolerant RHS pass: for every k-frequent free pattern
/// `(X, tp)` and attribute `A ∉ X`, emit `(X → A, (tp ‖ a))` for
/// each value `a` carried by a `θ`-fraction (and at least `k`) of
/// the supporting tuples, unless some strictly more general
/// sub-pattern already reaches `θ` for the same `(A, a)`.
///
/// Free sets still suffice as generators: a non-free pattern shares
/// its support set — hence every per-attribute frequency — with a
/// strictly more general free pattern, so any rule it could emit is
/// suppressed as non-minimal. Unlike the exact case, confidence is
/// *not* monotone along the generalization order (the denominator
/// changes with the pattern), so minimality checks **all**
/// sub-patterns of `tp`, not just immediate ones — the analogue of
/// CTANE's transitive `C⁺` suppression.
fn approx_rules(
    rel: &Relation,
    mined: &Mined,
    k: usize,
    theta: f64,
    stats: &mut SearchStats,
) -> Vec<(Cfd, RuleMeasure)> {
    stats.free_sets += mined.free.len() as u64;
    stats.closed_sets += mined.closed.len() as u64;
    let mut out: Vec<(Cfd, RuleMeasure)> = Vec::new();
    // (free-set index, attr) → per-code frequency over the free
    // set's supporting tuples, memoized: every candidate probes all
    // generalizations (the empty pattern — all n rows — included),
    // so recounting per candidate would be quadratic-ish in n
    let mut freq_cache: FxHashMap<(usize, usize), FxHashMap<u32, u32>> = FxHashMap::default();
    fn freqs<'c>(
        cache: &'c mut FxHashMap<(usize, usize), FxHashMap<u32, u32>>,
        mined: &Mined,
        rel: &Relation,
        fi: usize,
        a: usize,
    ) -> &'c FxHashMap<u32, u32> {
        cache.entry((fi, a)).or_insert_with(|| {
            let col = rel.column(a);
            let mut freq = FxHashMap::default();
            for &t in mined.free[fi].tids() {
                *freq.entry(col.code(t)).or_insert(0) += 1;
            }
            freq
        })
    }
    for (fi, free) in mined.free.iter().enumerate() {
        let supp = free.tids().len();
        let attrs = free.pattern.attrs();
        for a in (0..rel.arity()).filter(|&a| !attrs.contains(a)) {
            let candidates: Vec<(u32, usize)> = freqs(&mut freq_cache, mined, rel, fi, a)
                .iter()
                .map(|(&code, &cnt)| (code, cnt as usize))
                .collect();
            for (code, cnt) in candidates {
                if cnt < k || !keep_meets(cnt, supp, theta) {
                    continue;
                }
                stats.candidates += 1;
                // redundant iff a strictly more general sub-pattern
                // reaches θ for the same (A, code); sub-patterns of
                // a free set are free and mined (downward closure)
                let redundant = attrs.subsets().filter(|&s| s != attrs).any(|s| {
                    let sub = free.pattern.project(s);
                    let si = mined
                        .free_index(&sub)
                        .expect("sub-pattern of a mined free set is mined");
                    let sub_supp = mined.free[si].support as usize;
                    let sub_cnt = freqs(&mut freq_cache, mined, rel, si, a)
                        .get(&code)
                        .copied()
                        .unwrap_or(0) as usize;
                    keep_meets(sub_cnt, sub_supp, theta)
                });
                if redundant {
                    stats.pruned += 1;
                } else {
                    stats.emitted += 1;
                    // supp tuples match the LHS; all but the cnt
                    // carrying the RHS value must be removed
                    out.push((
                        Cfd::new(free.pattern.clone(), a, PVal::Const(code)),
                        RuleMeasure {
                            support: supp,
                            violations: supp - cnt,
                        },
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::BruteForce;
    use crate::minimality::is_minimal;
    use cfd_datagen::cust::cust_relation;
    use cfd_datagen::random::RandomRelation;
    use cfd_model::cfd::parse_cfd;

    #[test]
    fn example7_left_reduction() {
        let r = cust_relation();
        let cover = CfdMiner.discover(&r, &DiscoverOptions::new(3));
        // φ1 is not left-reduced (CC droppable); its reduction
        // (AC → CT, (908 ‖ MH)) is 4-frequent and minimal
        let red = parse_cfd(&r, "(AC -> CT, (908 || MH))").unwrap();
        assert!(cover.contains(&red));
        let phi1 = parse_cfd(&r, "([CC, AC] -> CT, (01, 908 || MH))").unwrap();
        assert!(!cover.contains(&phi1));
    }

    #[test]
    fn matches_brute_force_on_cust() {
        let r = cust_relation();
        for k in [1, 2, 3, 4] {
            let mined = CfdMiner.discover(&r, &DiscoverOptions::new(k));
            let oracle = BruteForce
                .discover(&r, &DiscoverOptions::new(k))
                .constant_cover();
            let (only_m, only_o) = mined.diff(&oracle);
            assert!(
                only_m.is_empty() && only_o.is_empty(),
                "k={k}: miner-only {:?}, oracle-only {:?}",
                only_m.iter().map(|c| c.display(&r)).collect::<Vec<_>>(),
                only_o.iter().map(|c| c.display(&r)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn matches_brute_force_on_random_relations() {
        for seed in 0..12 {
            let r = RandomRelation::small(seed).generate();
            for k in [1, 2, 3] {
                let mined = CfdMiner.discover(&r, &DiscoverOptions::new(k));
                let oracle = BruteForce
                    .discover(&r, &DiscoverOptions::new(k))
                    .constant_cover();
                assert_eq!(
                    mined.cfds(),
                    oracle.cfds(),
                    "seed {seed} k {k}:\nminer:\n{}\noracle:\n{}",
                    mined.display(&r),
                    oracle.display(&r)
                );
            }
        }
    }

    #[test]
    fn outputs_are_minimal_constant_cfds() {
        let r = cust_relation();
        let cover = CfdMiner.discover(&r, &DiscoverOptions::new(2));
        assert!(!cover.is_empty());
        for cfd in cover.iter() {
            assert!(cfd.is_constant());
            assert!(is_minimal(&r, cfd, 2), "{}", cfd.display(&r));
        }
    }

    #[test]
    fn approximate_discovery_admits_noisy_constant_rules() {
        use cfd_model::measure::measure;
        let r = cust_relation();
        // (AC → CT, (131 ‖ EDI)): 2 of the 3 AC=131 tuples agree (t8 is
        // the dissenter) — invisible exactly, found at θ = 0.6
        let noisy = parse_cfd(&r, "(AC -> CT, (131 || EDI))").unwrap();
        assert!(!CfdMiner
            .discover(&r, &DiscoverOptions::new(2))
            .contains(&noisy));
        let approx = CfdMiner.discover(&r, &DiscoverOptions::new(2).min_confidence(0.6));
        assert!(
            approx.contains(&noisy),
            "θ=0.6 cover:\n{}",
            approx.display(&r)
        );
        // soundness + minimality of everything emitted
        for cfd in approx.iter() {
            assert!(cfd.is_constant());
            let m = measure(&r, cfd);
            assert!(m.meets(0.6), "{}", cfd.display(&r));
            assert!(m.support.saturating_sub(m.violations) >= 2, "k-frequency");
        }
        // θ = 1.0 goes through the exact free/closed path unchanged
        assert_eq!(
            CfdMiner
                .discover(&r, &DiscoverOptions::new(2).min_confidence(1.0))
                .cfds(),
            CfdMiner.discover(&r, &DiscoverOptions::new(2)).cfds()
        );
    }

    #[test]
    fn approximate_minimality_suppresses_specializations() {
        use cfd_model::measure::measure;
        // B=1 predicts C=p at 3/4; the specialization (A=x, B=1) → C=p
        // also reaches 3/4 on its own rows but is implied by the more
        // general rule and must not be emitted
        use cfd_model::relation::relation_from_rows;
        use cfd_model::schema::Schema;
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let r = relation_from_rows(
            schema,
            &[
                vec!["x", "1", "p"],
                vec!["x", "1", "p"],
                vec!["x", "1", "p"],
                vec!["x", "1", "q"],
                vec!["y", "2", "q"],
            ],
        )
        .unwrap();
        let cover = CfdMiner.discover(&r, &DiscoverOptions::new(2).min_confidence(0.7));
        let general = parse_cfd(&r, "(B -> C, (1 || p))").unwrap();
        assert!(cover.contains(&general), "cover:\n{}", cover.display(&r));
        let special = parse_cfd(&r, "([A, B] -> C, (x, 1 || p))").unwrap();
        assert!(measure(&r, &special).meets(0.7), "premise of the test");
        assert!(!cover.contains(&special), "cover:\n{}", cover.display(&r));
    }

    #[test]
    fn constant_column_yields_empty_lhs_cfd() {
        use cfd_model::relation::relation_from_rows;
        use cfd_model::schema::Schema;
        let schema = Schema::new(["A", "B"]).unwrap();
        let r =
            relation_from_rows(schema, &[vec!["x", "k"], vec!["y", "k"], vec!["z", "k"]]).unwrap();
        let cover = CfdMiner.discover(&r, &DiscoverOptions::new(1));
        let c = parse_cfd(&r, "([] -> B, ( || k))").unwrap();
        assert!(cover.contains(&c), "cover:\n{}", cover.display(&r));
    }
}
