//! Repair suggestions — closing the cleaning loop.
//!
//! The paper motivates CFD discovery as the rule-acquisition step of
//! CFD-based cleaning (its refs \[1\], \[2\] detect and repair with the
//! rules). This module provides the minimal, deterministic repair
//! heuristic that pairs with [`crate::violation`]:
//!
//! * a violation of a **constant-RHS** rule pins the expected value —
//!   suggest the rule's RHS constant;
//! * a violation of a **variable** rule leaves a group of LHS-equal
//!   tuples disagreeing on the RHS — suggest the group's majority value
//!   (ties resolved toward the earliest tuple, keeping the suggestion
//!   deterministic).
//!
//! Suggestions are advisory: applying them may surface further
//! violations of other rules (full constraint-repair is its own research
//! area, e.g. ref \[27\] of the paper).
//!
//! [`suggest_repairs`] is the per-rule reference, a few lines over the
//! one grouping scan behind every per-rule reference (the tuples
//! matching the LHS constants, grouped by their LHS wildcard values; see
//! [`mod@crate::support`]). Repairing against a whole cover (with per-cell
//! deduplication) goes through the shared validation kernel
//! (`cfd-validate::suggest_repairs_for_cover`), which reproduces the
//! same suggestions from one grouping pass per LHS wildcard set.

use crate::cfd::Cfd;
use crate::fxhash::FxHashMap;
use crate::pattern::PVal;
use crate::relation::{Relation, TupleId};
use crate::schema::AttrId;
use crate::support::lhs_groups;

/// One suggested cell edit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Repair {
    /// The tuple to edit.
    pub tuple: TupleId,
    /// The attribute to edit (the rule's RHS attribute).
    pub attr: AttrId,
    /// The current (offending) dictionary code.
    pub current: u32,
    /// The suggested dictionary code.
    pub suggested: u32,
}

/// Suggests repairs for every violation of `cfd` in `rel`. Returns an
/// empty vector when the rule holds. A constant RHS yields its repairs
/// in row order; a variable RHS group by group, in the order of the
/// groups' LHS wildcard values, each group in row order.
pub fn suggest_repairs(rel: &Relation, cfd: &Cfd) -> Vec<Repair> {
    let attr = cfd.rhs_attr();
    let edit = |tuple: TupleId, suggested: u32| {
        let current = rel.code(tuple, attr);
        (current != suggested).then_some(Repair {
            tuple,
            attr,
            current,
            suggested,
        })
    };
    match cfd.rhs_val() {
        PVal::Const(expect) => lhs_groups(rel, cfd)
            .filter_map(|(t, _)| edit(t, expect))
            .collect(),
        PVal::Var => {
            let mut groups: Vec<Vec<TupleId>> = Vec::new();
            for (t, g) in lhs_groups(rel, cfd) {
                if g == groups.len() {
                    groups.push(Vec::new());
                }
                groups[g].push(t);
            }
            let wild: Vec<AttrId> = cfd.lhs().wildcard_attrs().iter().collect();
            groups.sort_by_cached_key(|m| {
                wild.iter().map(|&a| rel.code(m[0], a)).collect::<Vec<_>>()
            });
            groups
                .iter()
                .flat_map(|members| {
                    // majority RHS value; ties break toward the earliest tuple
                    let mut counts: FxHashMap<u32, usize> = FxHashMap::default();
                    for &t in members {
                        *counts.entry(rel.code(t, attr)).or_default() += 1;
                    }
                    let earliest = rel.code(members[0], attr);
                    let (&majority, _) = counts
                        .iter()
                        .max_by_key(|&(&code, &n)| (n, code == earliest, std::cmp::Reverse(code)))
                        .expect("a group has a member");
                    members.iter().filter_map(move |&t| edit(t, majority))
                })
                .collect()
        }
    }
}

/// Applies repairs, producing a new relation that shares the original's
/// dictionaries (original untouched).
pub fn apply_repairs(rel: &Relation, repairs: &[Repair]) -> Relation {
    let edits: Vec<(TupleId, AttrId, u32)> = repairs
        .iter()
        .map(|r| (r.tuple, r.attr, r.suggested))
        .collect();
    rel.with_replaced_codes(&edits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfd::parse_cfd;
    use crate::relation::relation_from_rows;
    use crate::satisfy::satisfies;
    use crate::schema::Schema;

    fn dirty() -> Relation {
        let schema = Schema::new(["AC", "CT"]).unwrap();
        relation_from_rows(
            schema,
            &[
                vec!["908", "MH"],
                vec!["908", "MH"],
                vec!["908", "XX"], // corrupted
                vec!["212", "NYC"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn constant_rule_suggests_its_rhs() {
        let r = dirty();
        let rule = parse_cfd(&r, "(AC -> CT, (908 || MH))").unwrap();
        let reps = suggest_repairs(&r, &rule);
        let mh = r.column(1).dict().code("MH").unwrap();
        let xx = r.column(1).dict().code("XX").unwrap();
        assert_eq!(
            reps,
            vec![Repair {
                tuple: 2,
                attr: 1,
                current: xx,
                suggested: mh
            }]
        );
    }

    #[test]
    fn variable_rule_suggests_group_majority() {
        let r = dirty();
        let rule = parse_cfd(&r, "(AC -> CT, (_ || _))").unwrap();
        assert!(!satisfies(&r, &rule));
        let reps = suggest_repairs(&r, &rule);
        let mh = r.column(1).dict().code("MH").unwrap();
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].tuple, 2);
        assert_eq!(reps[0].suggested, mh, "majority of the 908 group is MH");
    }

    #[test]
    fn applying_repairs_restores_satisfaction() {
        let r = dirty();
        let rules = vec![
            parse_cfd(&r, "(AC -> CT, (908 || MH))").unwrap(),
            parse_cfd(&r, "(AC -> CT, (_ || _))").unwrap(),
        ];
        // cover-level repair = per-rule repairs, first rule wins per cell
        let mut seen = crate::fxhash::FxHashSet::default();
        let mut reps = Vec::new();
        for rule in &rules {
            for rep in suggest_repairs(&r, rule) {
                if seen.insert((rep.tuple, rep.attr)) {
                    reps.push(rep);
                }
            }
        }
        let fixed = apply_repairs(&r, &reps);
        for rule in &rules {
            let fixed_rule = parse_cfd(&fixed, &rule.display(&r)).unwrap();
            assert!(satisfies(&fixed, &fixed_rule));
        }
        assert_eq!(fixed.value(2, 1), "MH");
        // untouched cells survive
        assert_eq!(fixed.value(3, 1), "NYC");
        assert_eq!(fixed.value(0, 0), "908");
    }

    #[test]
    fn no_violations_no_repairs() {
        let r = dirty();
        let rule = parse_cfd(&r, "(AC -> CT, (212 || NYC))").unwrap();
        assert!(satisfies(&r, &rule));
        assert!(suggest_repairs(&r, &rule).is_empty());
    }

    #[test]
    fn ties_break_toward_the_earliest_tuple() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let r = relation_from_rows(schema, &[vec!["x", "p"], vec!["x", "q"]]).unwrap();
        let rule = parse_cfd(&r, "(A -> B, (_ || _))").unwrap();
        let reps = suggest_repairs(&r, &rule);
        let p = r.column(1).dict().code("p").unwrap();
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].tuple, 1);
        assert_eq!(reps[0].suggested, p, "tie resolves to t0's value");
    }
}
