//! Violation detection — the data-cleaning side of CFDs.
//!
//! Discovery produces rules; cleaning *applies* them by locating the
//! tuples of a (dirty) instance that falsify each rule. As Example 3 of
//! the paper notes, a CFD with a constant RHS pattern can be violated by a
//! single tuple, while the embedded FD needs a pair of tuples.
//!
//! The functions here are a few lines over the one grouping scan
//! behind every per-rule reference (the tuples matching the LHS
//! constants, grouped by their LHS wildcard values; see
//! [`mod@crate::support`]) and are the semantic reference the rest of the
//! system is checked against. Applying a whole cover goes through the
//! shared validation kernel (`cfd-validate`), which groups rules sharing
//! an LHS wildcard set into one pass and reproduces these results
//! exactly.

use crate::cfd::Cfd;
use crate::pattern::PVal;
use crate::relation::{Relation, TupleId};
use crate::support::lhs_groups;

/// One violation of a CFD in an instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Violation {
    /// Tuple matches the LHS pattern but its RHS value is not `⪯` the RHS
    /// pattern constant.
    Single(TupleId),
    /// Two tuples agree (and match) on the LHS but differ on the RHS —
    /// a violation of the embedded FD.
    Pair(TupleId, TupleId),
}

/// Finds violations of `cfd` in `rel`, up to `limit` (use `usize::MAX` for
/// all). Pair violations are reported as (first tuple of the group,
/// offending tuple); each offending tuple is reported once.
pub fn violations_limited(rel: &Relation, cfd: &Cfd, limit: usize) -> Vec<Violation> {
    let rhs = cfd.rhs_attr();
    // the first tuple of each group, its witness
    let mut first: Vec<TupleId> = Vec::new();
    lhs_groups(rel, cfd)
        .filter_map(|(t, g)| {
            if g == first.len() {
                first.push(t);
            }
            let w = first[g];
            match cfd.rhs_val() {
                PVal::Const(a) => (rel.code(t, rhs) != a).then_some(Violation::Single(t)),
                PVal::Var => {
                    (rel.code(t, rhs) != rel.code(w, rhs)).then_some(Violation::Pair(w, t))
                }
            }
        })
        .take(limit)
        .collect()
}

/// All violations of `cfd` in `rel`.
pub fn violations(rel: &Relation, cfd: &Cfd) -> Vec<Violation> {
    violations_limited(rel, cfd, usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfd::parse_cfd;
    use crate::relation::relation_from_rows;
    use crate::satisfy::satisfies;
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
    fn example3_pair_violation() {
        let r = cust();
        // ψ violated by (t1, t4): same CC,ZIP but different STR
        let psi = parse_cfd(&r, "([CC, ZIP] -> STR, (_, _ || _))").unwrap();
        let v = violations(&r, &psi);
        assert!(v.contains(&Violation::Pair(0, 3)), "t1/t4 violate ψ: {v:?}");
    }

    #[test]
    fn example3_single_violation() {
        let r = cust();
        // ψ' violated by the single tuple t8
        let psi2 = parse_cfd(&r, "(AC -> CT, (131 || EDI))").unwrap();
        let v = violations(&r, &psi2);
        assert_eq!(v, vec![Violation::Single(7)]);
    }

    #[test]
    fn no_violations_for_satisfied_cfds() {
        let r = cust();
        let phi1 = parse_cfd(&r, "([CC, AC] -> CT, (01, 908 || MH))").unwrap();
        assert!(satisfies(&r, &phi1));
        assert!(violations(&r, &phi1).is_empty());
    }

    #[test]
    fn limit_is_respected() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let r = relation_from_rows(
            schema,
            &[
                vec!["x", "1"],
                vec!["x", "2"],
                vec!["x", "3"],
                vec!["x", "4"],
            ],
        )
        .unwrap();
        let c = parse_cfd(&r, "(A -> B, (_ || _))").unwrap();
        assert_eq!(violations(&r, &c).len(), 3);
        assert_eq!(violations_limited(&r, &c, 2).len(), 2);
        assert_eq!(violations_limited(&r, &c, 0).len(), 0);
    }
}
