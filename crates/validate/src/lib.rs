//! # cfd-validate
//!
//! The shared validation kernel: compile a CFD cover **once** into an
//! execution plan, then validate whole relations in one (parallel)
//! pass — the serving substrate behind `cfd check`, `cfd repair`, the
//! examples, and the streaming engine's warm start.
//!
//! The per-rule primitives in [`cfd_model`] (`satisfies`, `violations`,
//! `suggest_repairs`) re-scan the relation per rule with heap-allocated
//! group keys: applying a realistic cover that way is
//! `O(|Σ| · |r|)` with heavy constant factors. The kernel instead:
//!
//! 1. groups the cover's variable rules by their LHS wildcard attribute
//!    set and runs **one** dense grouping pass per distinct set
//!    ([`cfd_partition::GroupIds`], flat `u64` keys);
//! 2. drives each rule's scan by the smallest value region of its LHS
//!    constants (the regions each column builds once and keeps,
//!    [`Column::regions`](cfd_model::relation::Column::regions)), so
//!    selective rules never touch the rest of the relation;
//! 3. shards rules across worker threads and merges reports in rule
//!    order, so the result is independent of the thread count.
//!
//! The report semantics are exactly the per-rule reference's: same
//! witnesses, same violations in the same order, same support /
//! confidence counters as the streaming engine — a contract the
//! property tests in `tests/reconcile.rs` check on randomized covers
//! and dirty instances.
//!
//! ```
//! use cfd_model::cfd::parse_cfd;
//! use cfd_model::csv::relation_from_csv_str;
//! use cfd_validate::{validate, ValidateOptions};
//!
//! let rel = relation_from_csv_str("AC,CT\n908,MH\n908,MH\n131,EDI\n131,UN\n").unwrap();
//! let rules = vec![
//!     parse_cfd(&rel, "(AC -> CT, (908 || MH))").unwrap(),
//!     parse_cfd(&rel, "(AC -> CT, (_ || _))").unwrap(),
//! ];
//! let report = validate(&rel, &rules, &ValidateOptions::default());
//! assert!(report.rules[0].satisfied());
//! assert_eq!(report.rules[1].violations, 1); // 131 maps to EDI and UN
//! assert_eq!(report.rules[1].support(), 4);
//! assert_eq!(report.rules[1].confidence(), 0.75); // drop one of the two
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plan;
pub mod repair;
pub mod report;

pub use plan::{measure_cover, validate, validate_with, CoverPlan, ValidateOptions};
pub use repair::{repair_cover, suggest_repairs_for_cover, CoverRepair};
pub use report::{RuleReport, ValidationReport};

use cfd_model::relation::Relation;
use cfd_model::{Cfd, Violation};

/// Checks `r ⊨ Σ` for a whole rule set through the kernel — one
/// grouping pass per distinct LHS wildcard set instead of one scan per
/// rule, and no violation sample collected.
pub fn satisfies_cover<'a, I>(rel: &Relation, cfds: I) -> bool
where
    I: IntoIterator<Item = &'a Cfd>,
{
    validate(
        rel,
        cfds,
        &ValidateOptions {
            threads: 1,
            limit: 0,
        },
    )
    .satisfied()
}

/// Scans a rule set against an instance, returning `(rule index,
/// violation)` pairs — the basic primitive of a CFD-based cleaning
/// pass, now kernel-backed.
///
/// The rules' dictionary codes must refer to `rel`'s dictionaries: use
/// the same relation they were discovered on or a dictionary-sharing
/// copy (`restrict`/`project`/`with_replaced_codes`/`with_replaced_values`).
pub fn detect_violations<'a, I>(rel: &Relation, cfds: I) -> Vec<(usize, Violation)>
where
    I: IntoIterator<Item = &'a Cfd>,
{
    validate(rel, cfds, &ValidateOptions::default()).detect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::cfd::parse_cfd;
    use cfd_model::relation::{relation_from_rows, Relation};
    use cfd_model::satisfy::satisfies;
    use cfd_model::violation::violations;
    use cfd_model::Schema;

    /// The instance r0 of Fig. 1 of the paper (the `cust` relation).
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

    fn rules(r: &Relation) -> Vec<cfd_model::Cfd> {
        [
            "([CC, ZIP] -> STR, (_, _ || _))",       // ψ — violated by (t1, t4)
            "(AC -> CT, (131 || EDI))",              // ψ′ — violated by t8
            "([CC, AC] -> CT, (01, 908 || MH))",     // φ1 — holds
            "([CC, AC] -> CT, (_, _ || _))",         // f1 as CFD — holds
            "([CC, AC, PN] -> STR, (_, _, _ || _))", // f2 — holds
        ]
        .iter()
        .map(|t| parse_cfd(r, t).unwrap())
        .collect()
    }

    #[test]
    fn report_matches_reference_on_paper_example() {
        let r = cust();
        let rules = rules(&r);
        for threads in [1, 4] {
            let report = validate(
                &r,
                &rules,
                &ValidateOptions {
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(report.n_rows, 8);
            for (i, cfd) in rules.iter().enumerate() {
                let want = violations(&r, cfd);
                assert_eq!(
                    report.rules[i].sample, want,
                    "rule {i} at {threads} threads"
                );
                assert_eq!(report.rules[i].violations, want.len());
                assert_eq!(report.rules[i].satisfied(), satisfies(&r, cfd));
            }
            assert!(!report.satisfied());
            // ψ is violated by (t1, t4) and (t3, t8), ψ′ by t8 alone
            assert_eq!(report.total_violations(), 3);
        }
    }

    #[test]
    fn detect_matches_reference_order() {
        let r = cust();
        let rules = rules(&r);
        let found = detect_violations(&r, &rules);
        let mut want = Vec::new();
        for (i, cfd) in rules.iter().enumerate() {
            for v in violations(&r, cfd) {
                want.push((i, v));
            }
        }
        assert_eq!(found, want);
        assert!(!satisfies_cover(&r, &rules));
        assert!(satisfies_cover(&r, &rules[2..]));
    }

    #[test]
    fn limit_caps_the_sample_not_the_counters() {
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
        let report = validate(
            &r,
            [&c],
            &ValidateOptions {
                limit: 2,
                ..Default::default()
            },
        );
        assert_eq!(report.rules[0].violations, 3, "counters stay exact");
        assert_eq!(
            report.rules[0].sample,
            cfd_model::violation::violations_limited(&r, &c, 2)
        );
    }

    #[test]
    fn support_and_confidence_mirror_the_stream_counters() {
        let r = cust();
        let psi2 = parse_cfd(&r, "(AC -> CT, (131 || EDI))").unwrap();
        let report = validate(&r, [&psi2], &ValidateOptions::default());
        // three tuples carry AC = 131; one of them dissents
        assert_eq!(report.rules[0].support(), 3);
        assert_eq!(report.rules[0].violations, 1);
        assert!((report.rules[0].confidence() - (1.0 - 1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn measures_match_the_model_reference() {
        let r = cust();
        let rules = rules(&r);
        let report = validate(&r, &rules, &ValidateOptions::default());
        for (i, cfd) in rules.iter().enumerate() {
            assert_eq!(
                report.rules[i].measure,
                cfd_model::measure::measure(&r, cfd),
                "rule {i}"
            );
        }
        // the minimal-removal count can undercut the record count: with
        // a minority-valued witness, 2 pairs are reported but removing
        // the witness alone repairs the group
        use cfd_model::relation::relation_from_rows;
        let r = relation_from_rows(
            Schema::new(["X", "Y"]).unwrap(),
            &[vec!["g", "b"], vec!["g", "a"], vec!["g", "a"]],
        )
        .unwrap();
        let fd = parse_cfd(&r, "(X -> Y, (_ || _))").unwrap();
        let report = validate(&r, [&fd], &ValidateOptions::default());
        assert_eq!(report.rules[0].violations, 2);
        assert_eq!(report.rules[0].measure.violations, 1);
        assert_eq!(
            report.rules[0].measure,
            cfd_model::measure::measure(&r, &fd)
        );
    }

    #[test]
    fn repairs_match_the_reference() {
        let schema = Schema::new(["AC", "CT"]).unwrap();
        let r = relation_from_rows(
            schema,
            &[
                vec!["908", "MH"],
                vec!["908", "MH"],
                vec!["908", "XX"],
                vec!["212", "NYC"],
            ],
        )
        .unwrap();
        let rules = vec![
            parse_cfd(&r, "(AC -> CT, (908 || MH))").unwrap(),
            parse_cfd(&r, "(AC -> CT, (_ || _))").unwrap(),
        ];
        let kernel = suggest_repairs_for_cover(&r, &CoverPlan::compile(&r, &rules));
        // reference: per-rule repairs, first rule wins per cell
        let mut seen = cfd_model::FxHashSet::default();
        let mut want = Vec::new();
        for cfd in &rules {
            for rep in cfd_model::repair::suggest_repairs(&r, cfd) {
                if seen.insert((rep.tuple, rep.attr)) {
                    want.push(rep);
                }
            }
        }
        assert_eq!(kernel, want);
        let fixed = cfd_model::repair::apply_repairs(&r, &kernel);
        assert!(satisfies_cover(&fixed, &rules));
        // the one repair path: the same edits, applied, counted both ways
        let repair = repair_cover(&r, &rules);
        assert_eq!(repair.edits, kernel);
        assert!(r
            .tuples()
            .all(|t| repair.repaired.tuple_values(t) == fixed.tuple_values(t)));
        let before = detect_violations(&r, &rules).len();
        assert_eq!(
            (repair.violations_before, repair.violations_after),
            (before, 0)
        );
        assert!(before > 0);
    }

    #[test]
    fn empty_cover_and_empty_relation() {
        let r = cust();
        let report = validate(&r, [], &ValidateOptions::default());
        assert!(report.satisfied());
        assert_eq!(report.rules.len(), 0);

        let empty = relation_from_rows::<&str>(Schema::new(["A", "B"]).unwrap(), &[]).unwrap();
        let rules = vec![cfd_model::Cfd::fd(cfd_model::AttrSet::singleton(0), 1)];
        let report = validate(&empty, &rules, &ValidateOptions::default());
        assert!(report.satisfied());
        assert_eq!(report.rules[0].support(), 0);
        assert_eq!(report.rules[0].confidence(), 1.0);
    }
}
