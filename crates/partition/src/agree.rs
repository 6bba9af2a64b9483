//! Tuple-pair agree sets, computed from stripped partitions.
//!
//! The agree set of two tuples is the set of attributes on which they
//! coincide; difference sets (Section 5.1) are complements of agree sets.
//! FastFD — and the paper's NaiveFast variant of FastCFD — derives agree
//! sets from *stripped* partitions: two tuples agree on some attribute
//! iff they co-occur in a stripped class of that attribute, so it
//! suffices to enumerate pairs inside stripped classes. This is the
//! `O(Σ class²)` step that makes NaiveFast degrade as DBSIZE grows
//! (Fig. 5 of the paper).

use cfd_model::attrset::AttrSet;
use cfd_model::fxhash::{FxHashMap, FxHashSet};
use cfd_model::relation::{Relation, TupleId};

/// Sentinel for "tuple is alone with this value" in signatures.
const UNIQUE: u32 = u32::MAX;

/// Computes the distinct agree sets of all tuple pairs of `rel` drawn
/// from `rows`. Pairs agreeing on *no* attribute are not represented:
/// their agree set is empty, and the difference-set rule of
/// `cfd_fd::fastfd::min_diff_sets` falls back to the full schema minus
/// the RHS when no listed agree set misses the RHS.
pub fn agree_sets_of_rows(rel: &Relation, rows: &[TupleId]) -> Vec<AttrSet> {
    let arity = rel.arity();
    // per-attribute class signature of every row (positionally indexed by
    // the rank of the row in `rows`)
    let mut row_rank = FxHashMap::default();
    for (i, &t) in rows.iter().enumerate() {
        row_rank.insert(t, i as u32);
    }
    let mut sig = vec![UNIQUE; rows.len() * arity];
    // per attribute, the stripped classes (size ≥ 2) of the given rows
    let mut stripped: Vec<Vec<Vec<TupleId>>> = Vec::with_capacity(arity);
    for a in 0..arity {
        let mut groups: FxHashMap<u32, Vec<TupleId>> = FxHashMap::default();
        for &t in rows {
            groups.entry(rel.code(t, a)).or_default().push(t);
        }
        let classes: Vec<Vec<TupleId>> = groups.into_values().filter(|g| g.len() >= 2).collect();
        for (ci, class) in classes.iter().enumerate() {
            for &t in class {
                sig[row_rank[&t] as usize * arity + a] = ci as u32;
            }
        }
        stripped.push(classes);
    }

    let mut out: FxHashSet<AttrSet> = FxHashSet::default();
    for (a, classes) in stripped.iter().enumerate() {
        for class in classes {
            for (i, &t1) in class.iter().enumerate() {
                let r1 = row_rank[&t1] as usize;
                'pairs: for &t2 in &class[i + 1..] {
                    let r2 = row_rank[&t2] as usize;
                    // enumerate each pair only at the *first* attribute
                    // where it co-occurs
                    for b in 0..a {
                        let s1 = sig[r1 * arity + b];
                        if s1 != UNIQUE && s1 == sig[r2 * arity + b] {
                            continue 'pairs;
                        }
                    }
                    let mut ag = AttrSet::singleton(a);
                    for b in a + 1..arity {
                        let s1 = sig[r1 * arity + b];
                        if s1 != UNIQUE && s1 == sig[r2 * arity + b] {
                            ag.insert(b);
                        }
                    }
                    out.insert(ag);
                }
            }
        }
    }
    let mut v: Vec<AttrSet> = out.into_iter().collect();
    v.sort_unstable();
    v
}

/// Agree sets over the whole relation.
pub fn agree_sets(rel: &Relation) -> Vec<AttrSet> {
    let rows: Vec<TupleId> = rel.tuples().collect();
    agree_sets_of_rows(rel, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::relation::relation_from_rows;
    use cfd_model::schema::Schema;

    fn rel() -> Relation {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        relation_from_rows(
            schema,
            &[
                vec!["x", "1", "p"], // t0
                vec!["x", "1", "q"], // t1
                vec!["y", "2", "p"], // t2
                vec!["z", "3", "r"], // t3
            ],
        )
        .unwrap()
    }

    #[test]
    fn pairwise_agree_sets() {
        let r = rel();
        let ags = agree_sets(&r);
        // (t0,t1) agree on {A,B}; (t0,t2) agree on {C};
        // (t1,t2),(·,t3) agree nowhere (not represented)
        assert_eq!(
            ags,
            vec![AttrSet::from_iter([0, 1]), AttrSet::from_iter([2])]
        );
    }

    #[test]
    fn restricted_rows() {
        let r = rel();
        let ags = agree_sets_of_rows(&r, &[0, 1]);
        assert_eq!(ags, vec![AttrSet::from_iter([0, 1])]);
        let none = agree_sets_of_rows(&r, &[2]);
        assert!(none.is_empty());
        let empty = agree_sets_of_rows(&r, &[]);
        assert!(empty.is_empty());
    }

    #[test]
    fn brute_force_cross_check() {
        // compare against the O(n² · arity) definition on a denser relation
        let schema = Schema::new(["A", "B", "C", "D"]).unwrap();
        let rows: Vec<Vec<String>> = (0..18)
            .map(|i| {
                vec![
                    format!("a{}", i % 2),
                    format!("b{}", i % 3),
                    format!("c{}", i % 2),
                    format!("d{}", i % 5),
                ]
            })
            .collect();
        let r = relation_from_rows(schema, &rows).unwrap();
        let fast: std::collections::BTreeSet<AttrSet> = agree_sets(&r).into_iter().collect();
        let mut slow = std::collections::BTreeSet::new();
        for t1 in 0..18u32 {
            for t2 in t1 + 1..18u32 {
                let mut ag = AttrSet::EMPTY;
                for a in 0..4 {
                    if r.code(t1, a) == r.code(t2, a) {
                        ag.insert(a);
                    }
                }
                if !ag.is_empty() {
                    slow.insert(ag);
                }
            }
        }
        assert_eq!(fast, slow);
    }
}
