//! The kernel's correctness contract, checked property-style: on
//! randomized covers and dirty instances, the one-pass
//! [`ValidationReport`] reproduces the per-rule reference scans of
//! `cfd_model` exactly — same witnesses, same violations in the same
//! order, same counters — and does so identically at any thread count.

use cfd_core::{DiscoverOptions, Discoverer, FastCfd};
use cfd_model::relation::{Relation, RelationBuilder};
use cfd_model::repair::suggest_repairs;
use cfd_model::satisfy::satisfies;
use cfd_model::violation::{violations, violations_limited};
use cfd_model::{Cfd, FxHashSet, PVal, Schema};
use cfd_validate::{
    suggest_repairs_for_cover, validate, CoverPlan, ValidateOptions, ValidationReport,
};
use proptest::prelude::*;

/// An arbitrary instance: 1–14 rows, 2–4 attributes, domain ≤ 4 (tiny,
/// so FastCFD yields a rich rule mix and groups actually collide).
fn arb_rel() -> impl Strategy<Value = Relation> {
    (2usize..=4, 1usize..=14)
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

/// A dirty instance sharing the clean one's dictionaries: extra rows
/// appended (codes 0..5, so some values are out-of-dictionary and get
/// interned fresh) — the shape of a monitored instance drifting away
/// from the sample its rules were discovered on.
fn dirty_copy(clean: &Relation, extra: &[Vec<u32>]) -> Relation {
    let mut b = RelationBuilder::from_relation(clean);
    for row in extra {
        b.push_coded_row(&row[..clean.arity()]).unwrap();
    }
    b.finish()
}

/// Asserts the kernel report equals the fold of the per-rule reference
/// scans over the cover.
fn check_against_reference(rel: &Relation, rules: &[Cfd], report: &ValidationReport, limit: usize) {
    assert_eq!(report.rules.len(), rules.len());
    assert_eq!(report.n_rows, rel.n_rows());
    for (i, cfd) in rules.iter().enumerate() {
        let got = &report.rules[i];
        assert_eq!(got.rule, i);
        assert_eq!(
            got.violations,
            violations(rel, cfd).len(),
            "rule {i} ({})",
            cfd.display(rel)
        );
        assert_eq!(
            got.sample,
            violations_limited(rel, cfd, limit),
            "rule {i} sample"
        );
        assert_eq!(got.satisfied(), satisfies(rel, cfd), "rule {i} satisfied");
        assert!((0.0..=1.0).contains(&got.confidence()));
        // the kernel's measure equals the per-rule reference measure
        assert_eq!(
            got.measure,
            cfd_model::measure::measure(rel, cfd),
            "rule {i} measure"
        );
        // support counts the LHS matches that also match the RHS, so a
        // constant RHS loses its dissenters
        let d = match cfd.rhs_val() {
            PVal::Const(_) => got.measure.violations,
            PVal::Var => 0,
        };
        assert_eq!(
            cfd_model::support(rel, cfd),
            got.support() - d,
            "rule {i} support"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Kernel vs legacy per-rule scans on a cover discovered on the
    /// clean instance, applied to a dirtied copy — at 1 and 4 threads,
    /// with and without a sample cap.
    #[test]
    fn report_reconciles_with_per_rule_scans(
        clean in arb_rel(),
        extra in proptest::collection::vec(proptest::collection::vec(0u32..6, 4), 0usize..=10),
        limit in 0usize..=5,
    ) {
        let rules: Vec<Cfd> = FastCfd::default().discover(&clean, &DiscoverOptions::new(1)).into_iter().collect();
        let dirty = dirty_copy(&clean, &extra);

        for rel in [&clean, &dirty] {
            // uncapped: the sample is exactly the reference violation list
            let full_1 = validate(rel, &rules, &ValidateOptions { threads: 1, ..Default::default() });
            check_against_reference(rel, &rules, &full_1, usize::MAX);

            // thread-count determinism: byte-identical reports
            let full_4 = validate(rel, &rules, &ValidateOptions { threads: 4, ..Default::default() });
            prop_assert_eq!(&full_1, &full_4, "1-thread vs 4-thread report");

            // capped: counters stay exact, samples match violations_limited
            let capped = validate(rel, &rules, &ValidateOptions { threads: 4, limit });
            check_against_reference(rel, &rules, &capped, limit);

            // support is the LHS-constant match count: never below the
            // violation count's implicated-tuple bound, and the full
            // relation for plain patterns
            for (got, cfd) in capped.rules.iter().zip(&rules) {
                if cfd.lhs().is_all_wildcard() {
                    prop_assert_eq!(got.support(), rel.n_rows());
                }
            }
        }
    }

    /// Kernel cover-level repair vs the per-rule reference with
    /// first-rule-wins cell deduplication.
    #[test]
    fn cover_repairs_reconcile_with_per_rule_repairs(
        clean in arb_rel(),
        extra in proptest::collection::vec(proptest::collection::vec(0u32..6, 4), 0usize..=10),
    ) {
        let rules: Vec<Cfd> = FastCfd::default().discover(&clean, &DiscoverOptions::new(1)).into_iter().collect();
        let dirty = dirty_copy(&clean, &extra);
        for rel in [&clean, &dirty] {
            let kernel = suggest_repairs_for_cover(rel, &CoverPlan::compile(rel, &rules));
            let mut seen = FxHashSet::default();
            let mut want = Vec::new();
            for cfd in &rules {
                for rep in suggest_repairs(rel, cfd) {
                    if seen.insert((rep.tuple, rep.attr)) {
                        want.push(rep);
                    }
                }
            }
            prop_assert_eq!(&kernel, &want);
        }
    }
}
