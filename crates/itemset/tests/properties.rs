//! Property-based tests for the free/closed item-set miner against the
//! Section 3.1 definitions, on arbitrary small relations and on wider
//! ones whose lattices reach level 3 and beyond.

use cfd_itemset::mine::{mine_free_closed, MineOptions};
use cfd_itemset::ClosedSetIndex;
use cfd_model::pattern::{PVal, Pattern};
use cfd_model::relation::{Relation, RelationBuilder};
use cfd_model::schema::Schema;
use cfd_model::support::pattern_support;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

fn coded_relation(rows: Vec<Vec<u32>>) -> Relation {
    let arity = rows[0].len();
    let schema = Schema::new((0..arity).map(|i| format!("A{i}"))).unwrap();
    let mut b = RelationBuilder::new(schema);
    for row in &rows {
        b.push_coded_row(row).unwrap();
    }
    b.finish()
}

fn arb_relation() -> impl Strategy<Value = Relation> {
    (2usize..=4, 1usize..=14)
        .prop_flat_map(|(arity, rows)| {
            proptest::collection::vec(proptest::collection::vec(0u32..3, arity), rows)
        })
        .prop_map(coded_relation)
}

/// Up to six attributes and 60 rows over three values: frequent item
/// sets of three to six items are common, so every level the
/// extension step builds gets exercised.
fn arb_wide_relation() -> impl Strategy<Value = Relation> {
    (2usize..=6, 1usize..=60)
        .prop_flat_map(|(arity, rows)| {
            proptest::collection::vec(proptest::collection::vec(0u32..3, arity), rows)
        })
        .prop_map(coded_relation)
}

/// The support of every realized pattern, counted by projecting each
/// tuple onto every attribute subset.
fn realized_supports(rel: &Relation) -> HashMap<Pattern, usize> {
    let mut supp = HashMap::new();
    for attrs in cfd_model::attrset::AttrSet::full(rel.arity()).subsets() {
        for t in rel.tuples() {
            let p = Pattern::from_pairs(attrs.iter().map(|a| (a, PVal::Const(rel.code(t, a)))));
            *supp.entry(p).or_insert(0) += 1;
        }
    }
    supp
}

/// All distinct constant patterns realized by some tuple, per attr subset.
fn realized_patterns(rel: &Relation) -> Vec<Pattern> {
    realized_supports(rel).into_keys().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mined_sets_satisfy_the_definitions(rel in arb_relation(), k in 1usize..=3) {
        let mined = mine_free_closed(&rel, k, MineOptions::default());
        let all = realized_patterns(&rel);
        for f in &mined.free {
            let supp = pattern_support(&rel, &f.pattern);
            prop_assert_eq!(supp, f.support as usize);
            prop_assert!(supp >= k);
            // freeness: no strictly more general pattern has equal support
            for q in all.iter().filter(|q| *q != &f.pattern && f.pattern.contains_pattern(q)) {
                prop_assert!(pattern_support(&rel, q) > supp,
                    "{:?} not free: {:?} has equal support", f.pattern, q);
            }
            // tidsets really are the matching rows
            let want: Vec<u32> = f.pattern.matching_rows(&rel);
            prop_assert_eq!(f.tids(), &want[..]);
        }
        for c in &mined.closed {
            let supp = pattern_support(&rel, &c.pattern);
            prop_assert_eq!(supp, c.support as usize);
            // closedness: no strictly larger realized pattern with equal support
            for q in all.iter().filter(|q| *q != &c.pattern && q.contains_pattern(&c.pattern)) {
                prop_assert!(pattern_support(&rel, q) < supp,
                    "{:?} not closed: {:?} has equal support", c.pattern, q);
            }
        }
    }

    #[test]
    fn completeness_every_frequent_free_pattern_is_mined(
        rel in arb_relation(), k in 1usize..=2
    ) {
        let mined = mine_free_closed(&rel, k, MineOptions::default());
        let all = realized_patterns(&rel);
        for p in &all {
            let supp = pattern_support(&rel, p);
            if supp < k { continue; }
            let free = all
                .iter()
                .filter(|q| *q != p && p.contains_pattern(q))
                .all(|q| pattern_support(&rel, q) > supp);
            if free {
                prop_assert!(mined.free_index(p).is_some(), "missing free set {p:?}");
            } else {
                prop_assert!(mined.free_index(p).is_none(), "non-free {p:?} mined as free");
            }
        }
    }

    #[test]
    fn c2f_links_generators_to_their_closure(rel in arb_relation(), k in 1usize..=3) {
        let mined = mine_free_closed(&rel, k, MineOptions::default());
        for (ci, closed) in mined.closed.iter().enumerate() {
            // C2F(ci): the free sets whose closure is ci, at least one
            let gens: Vec<_> = mined.free.iter().filter(|f| f.closure as usize == ci).collect();
            prop_assert!(!gens.is_empty(), "closed set {} has no generator", ci);
            for f in gens {
                prop_assert!(closed.pattern.contains_pattern(&f.pattern));
                prop_assert_eq!(closed.support, f.support);
            }
        }
    }

    #[test]
    fn index_containment_matches_linear_scan(rel in arb_wide_relation()) {
        // the Closed₂ pass holds mine_free_closed's closed sets at k 2 in
        // their order: querying closed set i's own pattern returns every
        // set containing it, i among them, and i's attributes, so the
        // pass's set i contains closed set i over the same attributes —
        // it is closed set i
        let mined = mine_free_closed(&rel, 2, MineOptions::default());
        let idx = ClosedSetIndex::mine(&rel);
        prop_assert_eq!(idx.len(), mined.closed.len());
        let queries = mined
            .closed
            .iter()
            .map(|c| c.pattern.clone())
            .chain(mined.free.iter().map(|f| f.pattern.clone()))
            .chain((0..rel.arity()).flat_map(|a| {
                // single items, one of them beyond the domain
                (0..=3).map(move |c| Pattern::from_pairs([(a, PVal::Const(c))]))
            }));
        for q in queries {
            let want: Vec<u32> = (0u32..)
                .zip(&mined.closed)
                .filter(|(_, c)| c.pattern.contains_pattern(&q))
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(&idx.containing(&q), &want, "query {:?}", q);
            let attrs: Vec<_> = want
                .iter()
                .map(|&i| mined.closed[i as usize].pattern.attrs())
                .collect();
            prop_assert_eq!(idx.agree_attr_sets(&q), attrs, "query {:?}", q);
        }
    }

    #[test]
    fn all_frequent_mining_is_exact(rel in arb_wide_relation(), k in 1usize..=4) {
        // free_only off lists every k-frequent pattern, each once
        let all = mine_free_closed(
            &rel,
            k,
            MineOptions { free_only: false, ..MineOptions::default() },
        );
        let got: BTreeMap<Pattern, usize> = all
            .free
            .iter()
            .map(|f| (f.pattern.clone(), f.support as usize))
            .collect();
        prop_assert_eq!(got.len(), all.free.len(), "a pattern was mined twice");
        let want: BTreeMap<Pattern, usize> = realized_supports(&rel)
            .into_iter()
            .filter(|&(_, s)| s >= k)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn wide_relations_mine_exactly_the_free_sets_and_closures(
        rel in arb_wide_relation(), k in 1usize..=4
    ) {
        let mined = mine_free_closed(&rel, k, MineOptions::default());
        let supp = realized_supports(&rel);
        // free: every strictly more general pattern (a projection) has
        // strictly larger support
        let want: BTreeMap<Pattern, usize> = supp
            .iter()
            .filter(|&(p, &s)| {
                s >= k
                    && p.attrs()
                        .subsets()
                        .filter(|&x| x != p.attrs())
                        .all(|x| supp[&p.project(x)] > s)
            })
            .map(|(p, &s)| (p.clone(), s))
            .collect();
        let got: BTreeMap<Pattern, usize> = mined
            .free
            .iter()
            .map(|f| (f.pattern.clone(), f.support as usize))
            .collect();
        prop_assert_eq!(&got, &want);
        for (i, f) in mined.free.iter().enumerate() {
            prop_assert_eq!(f.tids(), &f.pattern.matching_rows(&rel)[..]);
            // the closure adds every item all supporting tuples share
            let t = f.tids()[0];
            let clo = Pattern::from_pairs((0..rel.arity()).filter_map(|a| {
                let item = PVal::Const(rel.code(t, a));
                let wider = f.pattern.with(a, item);
                (supp.get(&wider) == Some(&(f.support as usize))).then_some((a, item))
            }));
            prop_assert_eq!(&mined.closure_of(i).pattern, &clo);
        }
    }

    #[test]
    fn free_only_off_is_a_superset(rel in arb_relation(), k in 1usize..=2) {
        let free = mine_free_closed(&rel, k, MineOptions::default());
        let all = mine_free_closed(
            &rel,
            k,
            MineOptions { free_only: false, ..MineOptions::default() },
        );
        prop_assert!(all.free.len() >= free.free.len());
        for f in &free.free {
            prop_assert!(
                all.free.iter().any(|g| g.pattern == f.pattern),
                "free set {:?} missing from the all-frequent mining", f.pattern
            );
        }
    }
}

#[cfg(test)]
mod threaded_mining {
    use cfd_datagen::random::RandomRelation;
    use cfd_datagen::tax::TaxGenerator;
    use cfd_itemset::mine::{mine_free_closed, MineOptions};

    /// The mined result is identical at every thread count (per-node
    /// closures and children merge in node order). The random relations
    /// are small; the 2,000-row tax sample at k 2 reaches level 3.
    #[test]
    fn thread_count_does_not_change_the_mined_sets() {
        let mut cases: Vec<(String, cfd_model::relation::Relation, usize)> = Vec::new();
        for seed in 0..6 {
            for k in [1, 2] {
                let rel = RandomRelation::small(seed).generate();
                cases.push((format!("random seed {seed}"), rel, k));
            }
        }
        let tax = TaxGenerator::new(2_000).seed(1).generate();
        cases.push(("tax 2000 seed 1".into(), tax, 2));
        for (name, rel, k) in &cases {
            let serial = mine_free_closed(rel, *k, MineOptions::default());
            if name.starts_with("tax") {
                assert!(serial.free.iter().any(|f| f.pattern.len() == 3));
            }
            for threads in [2, 4] {
                let sharded = mine_free_closed(
                    rel,
                    *k,
                    MineOptions {
                        threads,
                        ..MineOptions::default()
                    },
                );
                assert_eq!(serial.free.len(), sharded.free.len());
                for (a, b) in serial.free.iter().zip(&sharded.free) {
                    assert_eq!(a.pattern, b.pattern, "{name} k {k} t {threads}");
                    assert_eq!(a.support, b.support);
                    assert_eq!(a.tids(), b.tids());
                    assert_eq!(a.closure, b.closure);
                }
                assert_eq!(serial.closed.len(), sharded.closed.len());
                for (a, b) in serial.closed.iter().zip(&sharded.closed) {
                    assert_eq!(a.pattern, b.pattern);
                    assert_eq!(a.support, b.support);
                }
            }
        }
    }
}
