//! Property-based tests for the partition machinery: the invariants every
//! CTANE/FastFD run silently relies on, checked against direct-grouping
//! oracles.

use cfd_model::attrset::AttrSet;
use cfd_model::pattern::PVal;
use cfd_model::relation::{Relation, RelationBuilder, TupleId};
use cfd_model::schema::Schema;
use cfd_partition::agree::agree_sets_of_rows;
use cfd_partition::{GroupIds, RefineScratch, StrippedPartition};
use proptest::prelude::*;

fn arb_relation() -> impl Strategy<Value = Relation> {
    (2usize..=5, 1usize..=20)
        .prop_flat_map(|(arity, rows)| {
            proptest::collection::vec(proptest::collection::vec(0u32..4, arity), rows)
        })
        .prop_map(|rows| {
            let arity = rows[0].len();
            let schema = Schema::new((0..arity).map(|i| format!("A{i}"))).unwrap();
            let mut b = RelationBuilder::new(schema);
            for row in &rows {
                b.push_coded_row(row).unwrap();
            }
            b.finish()
        })
}

/// Ground truth: group the tuples matching the constants in `consts`
/// by their codes on `wildcard_attrs` — sorted classes of sorted tuples.
fn direct_partition(
    rel: &Relation,
    wildcard_attrs: &[usize],
    consts: &[(usize, u32)],
) -> Vec<Vec<TupleId>> {
    let mut groups: std::collections::BTreeMap<Vec<u32>, Vec<TupleId>> = Default::default();
    'rows: for t in rel.tuples() {
        for &(a, c) in consts {
            if rel.code(t, a) != c {
                continue 'rows;
            }
        }
        let key: Vec<u32> = wildcard_attrs.iter().map(|&a| rel.code(t, a)).collect();
        groups.entry(key).or_default().push(t);
    }
    let mut cs: Vec<Vec<TupleId>> = groups.into_values().collect();
    cs.sort();
    cs
}

/// Ground truth for the g1 keep count: per class, the frequency of the
/// most common code of `a`, summed over the classes.
fn direct_keep_count(rel: &Relation, classes: &[Vec<TupleId>], a: usize) -> usize {
    classes
        .iter()
        .map(|class| {
            let mut freq: std::collections::BTreeMap<u32, usize> = Default::default();
            for &t in class {
                *freq.entry(rel.code(t, a)).or_default() += 1;
            }
            freq.into_values().max().unwrap_or(0)
        })
        .sum()
}

/// The partition of the tuples matching every `(attr, val)` item of
/// `pattern`, grouped by their values on its attributes: the full
/// partition refined by one item at a time. Every constant comes before
/// the first wildcard, so no stripped partition is refined by a
/// constant and no row count is needed.
fn of_pattern(
    rel: &Relation,
    pattern: &[(usize, PVal)],
    scratch: &mut RefineScratch,
) -> StrippedPartition {
    let mut cur = StrippedPartition::full(rel.n_rows());
    let mut buf = StrippedPartition::empty();
    for &(a, v) in pattern {
        cur.refine_into(rel, a, v, None, scratch, &mut buf);
        std::mem::swap(&mut cur, &mut buf);
    }
    cur
}

/// What a partition holds: its stored classes, each sorted, the whole
/// collection sorted, and its `(n_classes, n_rows)`.
type Held = (Vec<Vec<TupleId>>, (usize, usize));

/// What `p` holds, read off the partition.
fn held(p: &StrippedPartition) -> Held {
    let mut stored: Vec<Vec<TupleId>> = p
        .stored_classes()
        .map(|c| {
            let mut v = c.to_vec();
            v.sort_unstable();
            v
        })
        .collect();
    stored.sort();
    (stored, (p.n_classes(), p.n_rows()))
}

/// What a partition with the (sorted) classes `classes` must hold: all
/// of them when none of its rows is `stripped`, else those of at least
/// two rows; every class and row counted.
fn stored_view(classes: &[Vec<TupleId>], stripped: bool) -> Held {
    let min_len = if stripped { 2 } else { 1 };
    let stored = classes
        .iter()
        .filter(|c| c.len() >= min_len)
        .cloned()
        .collect();
    let rows = classes.iter().map(Vec::len).sum();
    (stored, (classes.len(), rows))
}

/// True iff a partition with the classes `classes` strips a row: it has
/// a one-row class and is not built from `full` or `from_single_class`
/// by constants alone (`all_stored`).
fn strips(classes: &[Vec<TupleId>], all_stored: bool) -> bool {
    !all_stored && classes.iter().any(|c| c.len() == 1)
}

/// Every value a refinement by attribute `a` can take: each constant of
/// its domain, then the wildcard.
fn values(rel: &Relation, a: usize) -> impl Iterator<Item = PVal> {
    (0..rel.column(a).domain_size() as u32)
        .map(PVal::Const)
        .chain([PVal::Var])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn refinement_order_is_irrelevant(rel in arb_relation()) {
        if rel.arity() < 3 { return Ok(()); }
        let mut scratch = RefineScratch::for_relation(&rel);
        // π over the first three attributes, built in two different orders
        let wild = |attrs: [usize; 3]| attrs.map(|a| (a, PVal::Var));
        let p1 = of_pattern(&rel, &wild([0, 1, 2]), &mut scratch);
        let p2 = of_pattern(&rel, &wild([2, 1, 0]), &mut scratch);
        prop_assert_eq!(held(&p1), held(&p2));
        let want = direct_partition(&rel, &[0, 1, 2], &[]);
        prop_assert_eq!(held(&p1), stored_view(&want, true));
    }

    /// A pattern's partition, refined item by item from the full one,
    /// matches direct grouping, constants included.
    #[test]
    fn constant_refinement_matches_direct_grouping(rel in arb_relation()) {
        let mut scratch = RefineScratch::for_relation(&rel);
        let code = rel.code(0, 0); // a value that certainly occurs
        let pattern = [(0, PVal::Const(code)), (1, PVal::Var)];
        let p = of_pattern(&rel, &pattern, &mut scratch);
        prop_assert_eq!(held(&p), stored_view(&direct_partition(&rel, &[1], &[(0, code)]), true));
        // row count = support of the constant part
        let supp = rel.tuples().filter(|&t| rel.code(t, 0) == code).count();
        prop_assert_eq!(p.n_rows(), supp);
        // the empty pattern is the full partition, which strips nothing
        let full = of_pattern(&rel, &[], &mut scratch);
        prop_assert_eq!(held(&full), stored_view(&direct_partition(&rel, &[], &[]), false));
    }

    #[test]
    fn rows_are_conserved_under_wildcard_refinement(rel in arb_relation()) {
        let mut scratch = RefineScratch::for_relation(&rel);
        let mut p = StrippedPartition::full(rel.n_rows());
        let mut buf = StrippedPartition::empty();
        for a in 0..rel.arity() {
            p.refine_into(&rel, a, PVal::Var, None, &mut scratch, &mut buf);
            std::mem::swap(&mut p, &mut buf);
            prop_assert_eq!(p.n_rows(), rel.n_rows(), "wildcards never drop rows");
        }
        // fully refined: class count == number of distinct full rows
        let distinct: std::collections::HashSet<Vec<u32>> = rel
            .tuples()
            .map(|t| (0..rel.arity()).map(|a| rel.code(t, a)).collect())
            .collect();
        prop_assert_eq!(p.n_classes(), distinct.len());
    }

    /// One-row classes are not stored but still count as classes and
    /// rows.
    #[test]
    fn singletons_are_stripped_but_counted(rel in arb_relation()) {
        let p = StrippedPartition::by_attribute(&rel, 0);
        let want = direct_partition(&rel, &[0], &[]);
        let wide: Vec<Vec<TupleId>> = want.iter().filter(|c| c.len() >= 2).cloned().collect();
        let mut got: Vec<Vec<TupleId>> = p.stored_classes().map(<[TupleId]>::to_vec).collect();
        got.sort();
        prop_assert_eq!(got, wide);
        prop_assert_eq!((p.n_classes(), p.n_rows()), (want.len(), rel.n_rows()));
    }

    #[test]
    fn constant_refinement_is_the_class_filter(rel in arb_relation()) {
        // constant refine_into, whichever of scan and region probe it
        // picks per class, lays out exactly the class-by-class filter —
        // classes in the same order with the same member order, the
        // filtered classes of one row stripped along with the base's
        let mut scratch = RefineScratch::for_relation(&rel);
        let mut got = StrippedPartition::empty();
        for base_attr in 0..rel.arity() {
            let base = StrippedPartition::by_attribute(&rel, base_attr);
            let stripped = strips(&direct_partition(&rel, &[base_attr], &[]), false);
            let min_len = if stripped { 2 } else { 1 };
            for a in 0..rel.arity() {
                for c in 0..rel.column(a).domain_size() as u32 {
                    let matches = |t: &TupleId| rel.code(*t, a) == c;
                    let want: Vec<Vec<TupleId>> = base
                        .stored_classes()
                        .map(|class| class.iter().copied().filter(matches).collect::<Vec<_>>())
                        .filter(|kept| kept.len() >= min_len)
                        .collect();
                    let support = rel.tuples().filter(matches).count();
                    let rows = stripped.then_some(support);
                    base.refine_into(&rel, a, PVal::Const(c), rows, &mut scratch, &mut got);
                    prop_assert!(got.stored_classes().eq(want.iter().map(Vec::as_slice)));
                    prop_assert_eq!(got.n_rows(), support);
                }
            }
        }
    }

    #[test]
    fn regions_match_a_scan(rel in arb_relation()) {
        let check = |r: &Relation| -> Result<(), TestCaseError> {
            for a in 0..r.arity() {
                // every dictionary code, plus one out-of-dictionary probe
                for c in 0..=r.column(a).domain_size() as u32 {
                    let scan: Vec<TupleId> = r.tuples().filter(|&t| r.code(t, a) == c).collect();
                    prop_assert_eq!(r.column(a).regions().region(c), &scan[..]);
                }
            }
            Ok(())
        };
        check(&rel)?;
        // derived relations, built after the original's regions: an
        // edited copy gets fresh regions, a projection keeps them
        let last = rel.arity() - 1;
        check(&rel.with_replaced_values(&[(0, last, "fresh"), (0, 0, rel.value(0, last))]))?;
        check(&rel.project(AttrSet::from_iter(1..rel.arity())).unwrap())?;
    }

    #[test]
    fn group_ids_partition_the_rows(rel in arb_relation()) {
        // GroupIds must induce exactly the partition direct grouping
        // builds, for every attribute pair
        for a in 0..rel.arity() {
            for b in 0..rel.arity() {
                if a == b { continue; }
                let g = GroupIds::build(&rel, &[a, b]);
                let mut classes: std::collections::BTreeMap<u32, Vec<TupleId>> =
                    Default::default();
                for t in rel.tuples() {
                    classes.entry(g.gid(t)).or_default().push(t);
                }
                let got: Vec<Vec<TupleId>> = {
                    let mut v: Vec<Vec<TupleId>> = classes.into_values().collect();
                    v.sort();
                    v
                };
                prop_assert_eq!(got, direct_partition(&rel, &[a, b], &[]));
                // witnesses are per-group minima
                let wit = g.witnesses();
                for t in rel.tuples() {
                    prop_assert!(wit[g.gid(t) as usize] <= t);
                }
            }
        }
    }

    #[test]
    fn agree_sets_match_quadratic_definition(rel in arb_relation()) {
        let rows: Vec<TupleId> = rel.tuples().collect();
        let fast: std::collections::BTreeSet<AttrSet> =
            agree_sets_of_rows(&rel, &rows).into_iter().collect();
        let mut slow = std::collections::BTreeSet::new();
        for i in 0..rows.len() {
            for j in i + 1..rows.len() {
                let mut ag = AttrSet::EMPTY;
                for a in 0..rel.arity() {
                    if rel.code(rows[i], a) == rel.code(rows[j], a) {
                        ag.insert(a);
                    }
                }
                if !ag.is_empty() {
                    slow.insert(ag);
                }
            }
        }
        prop_assert_eq!(fast, slow);
    }
}

mod engine_parity {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `refine_into` produces exactly the classes of direct grouping
        /// (one-row classes stripped, never miscounted), and
        /// `refine_counts` reports the counts of the partition it
        /// skipped materializing.
        #[test]
        fn refine_into_matches_the_oracle(rel in arb_relation()) {
            let mut scratch = RefineScratch::for_relation(&rel);
            let mut buf = StrippedPartition::empty();
            for base_attr in 0..rel.arity() {
                let base = StrippedPartition::by_attribute(&rel, base_attr);
                let classes = direct_partition(&rel, &[base_attr], &[]);
                let stripped = strips(&classes, false);
                prop_assert_eq!(held(&base), stored_view(&classes, stripped));
                for a in 0..rel.arity() {
                    for v in values(&rel, a) {
                        let want = match v {
                            PVal::Var => direct_partition(&rel, &[base_attr, a], &[]),
                            PVal::Const(c) => direct_partition(&rel, &[base_attr], &[(a, c)]),
                        };
                        let counts = (want.len(), want.iter().map(Vec::len).sum::<usize>());
                        // the row count, where the base strips a row
                        let rows = (stripped && v.is_const()).then_some(counts.1);
                        base.refine_into(&rel, a, v, rows, &mut scratch, &mut buf);
                        prop_assert_eq!(held(&buf), stored_view(&want, strips(&want, !stripped && v.is_const())));
                        let skipped = base.refine_counts(&rel, a, v, rows, &mut scratch);
                        prop_assert_eq!(skipped, counts);
                    }
                }
            }
        }

        /// Chains of constant and wildcard items refined from `full`,
        /// `by_attribute` and `from_single_class` (a value region) equal
        /// direct grouping at every step, one-row all-constant chains
        /// included. The row count is passed only where a stripped
        /// partition is refined by a constant.
        #[test]
        fn refinement_chains_match_the_oracle(
            rel in arb_relation(),
            start in (0u8..3, 0usize..8, 0usize..20),
            chain in proptest::collection::vec((0usize..8, 0usize..20, 0u8..2), 0..=6)
        ) {
            let n = rel.n_rows();
            // a code of attribute `a` that occurs: row `row`'s (mod n)
            let code = |a: usize, row: usize| rel.code((row % n) as TupleId, a);
            let (kind, a0, row0) = start;
            let a0 = a0 % rel.arity();
            let (mut wild, mut consts) = (Vec::new(), Vec::new());
            let mut cur = match kind {
                0 => StrippedPartition::full(n),
                1 => {
                    wild.push(a0);
                    StrippedPartition::by_attribute(&rel, a0)
                }
                _ => {
                    let c = code(a0, row0);
                    consts.push((a0, c));
                    StrippedPartition::from_single_class(rel.column(a0).regions().region(c))
                }
            };
            // built from `full` or one class by constants alone
            let mut all_stored = kind != 1;
            let mut want = direct_partition(&rel, &wild, &consts);
            prop_assert_eq!(held(&cur), stored_view(&want, strips(&want, all_stored)));
            let mut scratch = RefineScratch::for_relation(&rel);
            let mut buf = StrippedPartition::empty();
            for (a, row, is_const) in chain {
                let a = a % rel.arity();
                let v = if is_const == 1 { PVal::Const(code(a, row)) } else { PVal::Var };
                let stripped = strips(&want, all_stored);
                match v {
                    PVal::Const(c) => consts.push((a, c)),
                    PVal::Var => wild.push(a),
                }
                want = direct_partition(&rel, &wild, &consts);
                let counts = (want.len(), want.iter().map(Vec::len).sum::<usize>());
                let rows = (stripped && v.is_const()).then_some(counts.1);
                cur.refine_into(&rel, a, v, rows, &mut scratch, &mut buf);
                prop_assert_eq!(cur.refine_counts(&rel, a, v, rows, &mut scratch), counts);
                std::mem::swap(&mut cur, &mut buf);
                all_stored = !stripped && v.is_const();
                prop_assert_eq!(held(&cur), stored_view(&want, strips(&want, all_stored)));
            }
        }

        /// `keep_count` through the scratch engine equals the per-class
        /// majority count, singletons keeping their one tuple.
        #[test]
        fn keep_count_matches_the_oracle(rel in arb_relation()) {
            let mut scratch = RefineScratch::for_relation(&rel);
            for base_attr in 0..rel.arity() {
                let base = StrippedPartition::by_attribute(&rel, base_attr);
                let classes = direct_partition(&rel, &[base_attr], &[]);
                for a in 0..rel.arity() {
                    prop_assert_eq!(
                        base.keep_count(&rel, a, &mut scratch),
                        direct_keep_count(&rel, &classes, a)
                    );
                }
            }
        }
    }
}
