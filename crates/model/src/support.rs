//! Support counting (Section 2.2.2), and the one grouping scan behind
//! every per-rule reference.
//!
//! The support of a CFD `φ = (X → A, tp)` in `r` is the set of tuples that
//! match the *whole* pattern tuple, LHS and RHS alike: `t[X] ⪯ tp[X]` and
//! `t[A] ⪯ tp[A]`. `φ` is `k`-frequent when `|sup(φ, r)| ≥ k`.
//!
//! Every per-rule question about an instance is a function of one
//! grouping: the tuples matching the LHS constants, grouped by their
//! values on the LHS wildcard attributes. The crate-private scan
//! `lhs_groups` yields exactly that, and [`support()`](support()),
//! [`satisfies`](crate::satisfy::satisfies),
//! [`violations`](crate::violation::violations),
//! [`measure`](crate::measure::measure) and
//! [`suggest_repairs`](crate::repair::suggest_repairs) are each a few
//! lines over it.

use crate::cfd::Cfd;
use crate::fxhash::FxHashMap;
use crate::pattern::Pattern;
use crate::relation::{Relation, TupleId};
use crate::schema::AttrId;

/// Number of tuples matching a bare pattern (`supp(X, tp, r)` of
/// Section 3.1 for item sets; wildcards do not constrain).
pub fn pattern_support(rel: &Relation, pattern: &Pattern) -> usize {
    rel.tuples()
        .filter(|&t| pattern.matches_row(rel, t))
        .count()
}

/// `|sup(φ, r)|`: the number of tuples matching both the LHS pattern and
/// the RHS pattern value of `φ`.
pub fn support(rel: &Relation, cfd: &Cfd) -> usize {
    lhs_groups(rel, cfd)
        .filter(|&(t, _)| cfd.rhs_val().matches(rel.code(t, cfd.rhs_attr())))
        .count()
}

/// The tuples of `rel` matching the LHS constants of `cfd`, in row
/// order, each with its group: tuples that agree on the LHS wildcard
/// attributes share a group, and groups are numbered 0, 1, … by first
/// appearance (so a new group's id is the number of groups seen).
pub(crate) fn lhs_groups<'a>(
    rel: &'a Relation,
    cfd: &'a Cfd,
) -> impl Iterator<Item = (TupleId, usize)> + 'a {
    let wild: Vec<AttrId> = cfd.lhs().wildcard_attrs().iter().collect();
    let mut ids: FxHashMap<Vec<u32>, usize> = FxHashMap::default();
    rel.tuples()
        .filter(move |&t| cfd.lhs().matches_row(rel, t))
        .map(move |t| {
            let next = ids.len();
            let key = wild.iter().map(|&a| rel.code(t, a)).collect();
            (t, *ids.entry(key).or_insert(next))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfd::parse_cfd;
    use crate::pattern::{PVal, Pattern};
    use crate::relation::relation_from_rows;
    use crate::schema::Schema;

    fn cust() -> Relation {
        let schema = Schema::new(["CC", "AC", "PN", "NM", "STR", "CT", "ZIP"]).unwrap();
        relation_from_rows(
            schema,
            &[
                vec!["01", "908", "1111111", "Mike", "Tree Ave.", "MH", "07974"],
                vec!["01", "908", "1111111", "Rick", "Tree Ave.", "MH", "07974"],
                vec!["01", "212", "2222222", "Joe", "5th Ave", "NYC", "01202"],
                vec!["01", "908", "2222222", "Jim", "Elm Str.", "MH", "07974"],
                vec!["44", "131", "3333333", "Ben", "High St.", "EDI", "EH4 1DT"],
                vec!["44", "131", "2222222", "Ian", "High St.", "EDI", "EH4 1DT"],
                vec!["44", "908", "2222222", "Ian", "Port PI", "MH", "W1B 1JH"],
                vec!["01", "131", "2222222", "Sean", "3rd Str.", "UN", "01202"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn paper_support_claims() {
        // Section 2.2.2: φ1 is 3-frequent, φ2 is 2-frequent, f1 and f2 are
        // 8-frequent on r0.
        let r = cust();
        let phi1 = parse_cfd(&r, "([CC, AC] -> CT, (01, 908 || MH))").unwrap();
        let phi2 = parse_cfd(&r, "([CC, AC] -> CT, (44, 131 || EDI))").unwrap();
        let f1 = parse_cfd(&r, "([CC, AC] -> CT, (_, _ || _))").unwrap();
        let f2 = parse_cfd(&r, "([CC, AC, PN] -> STR, (_, _, _ || _))").unwrap();
        assert_eq!(support(&r, &phi1), 3);
        assert_eq!(support(&r, &phi2), 2);
        assert_eq!(support(&r, &f1), 8);
        assert_eq!(support(&r, &f2), 8);
        // Example 7: (AC -> CT, (908 || MH)) is 4-frequent
        let red = parse_cfd(&r, "(AC -> CT, (908 || MH))").unwrap();
        assert_eq!(support(&r, &red), 4);
    }

    #[test]
    fn rhs_constant_constrains_support() {
        let r = cust();
        // tuples matching AC=908 : t1,t2,t4,t7 (4), but RHS CT=EDI matches none
        let c = parse_cfd(&r, "(AC -> CT, (908 || EDI))").unwrap();
        assert_eq!(support(&r, &c), 0);
    }

    #[test]
    fn pattern_support_counts() {
        let r = cust();
        let cc01 = r.column(0).dict().code("01").unwrap();
        let p = Pattern::from_pairs([(0, PVal::Const(cc01))]);
        assert_eq!(pattern_support(&r, &p), 5);
        assert_eq!(pattern_support(&r, &Pattern::empty()), 8);
        let q = p.with(1, PVal::Var);
        assert_eq!(pattern_support(&r, &q), 5, "wildcards do not constrain");
    }
}
