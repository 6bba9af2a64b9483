//! CFD satisfaction (`r ⊨ φ`), per Section 2.1.2 of the paper.
//!
//! `r ⊨ (X → A, tp)` iff for every pair of tuples `t1, t2`:
//! if `t1[X] = t2[X] ⪯ tp[X]` then `t1[A] = t2[A] ⪯ tp[A]`.
//!
//! Taking `t1 = t2` shows a *single* tuple can violate a CFD whose RHS
//! pattern is a constant (Example 3), which is why a constant RHS is
//! checked tuple by tuple rather than class by class.
//!
//! [`satisfies`] is the semantic reference: a rule holds iff the shared
//! scan behind every per-rule reference (the tuples matching the LHS
//! constants, grouped by their LHS wildcard values; see
//! [`mod@crate::support`]) meets no violation. Checking a whole cover
//! (`r ⊨ Σ`) goes through the shared validation kernel
//! (`cfd-validate::satisfies_cover`), which shares one grouping pass
//! across all rules with the same LHS wildcard set.

use crate::cfd::Cfd;
use crate::relation::Relation;
use crate::violation::violations;

/// Checks `r ⊨ φ`: true iff the instance holds no violation of `φ`.
///
/// Tuples matching the LHS pattern constants are grouped by their values
/// on the LHS wildcard attributes; the embedded FD requires each group to
/// agree on the RHS attribute, and the RHS pattern value additionally
/// binds the agreed value when it is a constant.
pub fn satisfies(rel: &Relation, cfd: &Cfd) -> bool {
    violations(rel, cfd).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfd::parse_cfd;
    use crate::relation::{relation_from_rows, Relation};
    use crate::schema::Schema;

    /// The instance r0 of Fig. 1 of the paper (the `cust` relation).
    pub fn cust() -> Relation {
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
    fn fig1_fds_hold() {
        let r = cust();
        // f1: [CC,AC] -> CT and f2: [CC,AC,PN] -> STR (Example 1)
        let f1 = parse_cfd(&r, "([CC, AC] -> CT, (_, _ || _))").unwrap();
        let f2 = parse_cfd(&r, "([CC, AC, PN] -> STR, (_, _, _ || _))").unwrap();
        assert!(satisfies(&r, &f1));
        assert!(satisfies(&r, &f2));
    }

    #[test]
    fn fig1_cfds_hold() {
        let r = cust();
        for txt in [
            "([CC, ZIP] -> STR, (44, _ || _))",   // φ0
            "([CC, AC] -> CT, (01, 908 || MH))",  // φ1
            "([CC, AC] -> CT, (44, 131 || EDI))", // φ2
            "([CC, AC] -> CT, (01, 212 || NYC))", // φ3
        ] {
            let cfd = parse_cfd(&r, txt).unwrap();
            assert!(satisfies(&r, &cfd), "{txt} should hold on r0");
        }
    }

    #[test]
    fn example3_violations() {
        let r = cust();
        // ψ = ([CC,ZIP] -> STR, (_, _ || _)) violated by t1, t4
        let psi = parse_cfd(&r, "([CC, ZIP] -> STR, (_, _ || _))").unwrap();
        assert!(!satisfies(&r, &psi));
        // ψ' = (AC -> CT, (131 || EDI)) violated by the single tuple t8
        let psi2 = parse_cfd(&r, "(AC -> CT, (131 || EDI))").unwrap();
        assert!(!satisfies(&r, &psi2));
    }

    #[test]
    fn example5_reductions() {
        let r = cust();
        // dropping CC from φ3 still holds (only t3 has AC = 212)
        let red3 = parse_cfd(&r, "(AC -> CT, (212 || NYC))").unwrap();
        assert!(satisfies(&r, &red3));
        // dropping CC from φ1 still holds (Example 7: 4-frequent)
        let red1 = parse_cfd(&r, "(AC -> CT, (908 || MH))").unwrap();
        assert!(satisfies(&r, &red1));
    }

    #[test]
    fn empty_lhs() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let r = relation_from_rows(schema.clone(), &[vec!["x", "k"], vec!["y", "k"]]).unwrap();
        // B is constant: ([] -> B, ( || k)) holds
        let c = parse_cfd(&r, "([] -> B, ( || k))").unwrap();
        assert!(satisfies(&r, &c));
        // A is not constant
        let c2 = parse_cfd(&r, "([] -> A, ( || x))").unwrap();
        assert!(!satisfies(&r, &c2));
        // variable empty-LHS CFD: all tuples must agree on A
        let v = parse_cfd(&r, "([] -> A, ( || _))").unwrap();
        assert!(!satisfies(&r, &v));
        let v2 = parse_cfd(&r, "([] -> B, ( || _))").unwrap();
        assert!(satisfies(&r, &v2));
    }

    #[test]
    fn trivial_cfds() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let r = relation_from_rows(schema, &[vec!["x", "1"], vec!["y", "2"]]).unwrap();
        // (A -> A, (_ || _)) always holds
        let t = parse_cfd(&r, "(A -> A, (_ || _))").unwrap();
        assert!(t.is_trivial());
        assert!(satisfies(&r, &t));
        // (A -> A, (x || y)): a tuple matching x must equal y ⇒ violated
        let t2 = parse_cfd(&r, "(A -> A, (x || y))").unwrap();
        assert!(!satisfies(&r, &t2));
        // (A -> A, (x || x)) holds
        let t3 = parse_cfd(&r, "(A -> A, (x || x))").unwrap();
        assert!(satisfies(&r, &t3));
    }

    #[test]
    fn single_tuple_violation_constant_rhs() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let r =
            relation_from_rows(schema, &[vec!["x", "1"], vec!["x", "1"], vec!["x", "2"]]).unwrap();
        // all three tuples match A=x; one has B=2 ⇒ (A -> B, (x || 1)) fails
        let c = parse_cfd(&r, "(A -> B, (x || 1))").unwrap();
        assert!(!satisfies(&r, &c));
        // the class-count criterion would have missed this: π(A,(x)) has one
        // class and π([A,B],(x,1)) also has one class.
    }
}
