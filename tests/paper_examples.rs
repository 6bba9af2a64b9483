//! End-to-end validation of every checkable claim in the paper's running
//! examples (Examples 1–9, Figures 1–4), through the public API.

use cfd_suite::datagen::cust::cust_relation;
use cfd_suite::prelude::*;

fn cfd(rel: &Relation, txt: &str) -> Cfd {
    parse_cfd(rel, txt).unwrap_or_else(|e| panic!("cannot parse {txt:?}: {e}"))
}

/// Example 1: the FDs f1, f2 and the CFDs φ0–φ3 hold on r0.
#[test]
fn example1_rules_hold() {
    let r = cust_relation();
    for txt in [
        "([CC, AC] -> CT, (_, _ || _))",
        "([CC, AC, PN] -> STR, (_, _, _ || _))",
        "([CC, ZIP] -> STR, (44, _ || _))",
        "([CC, AC] -> CT, (01, 908 || MH))",
        "([CC, AC] -> CT, (44, 131 || EDI))",
        "([CC, AC] -> CT, (01, 212 || NYC))",
    ] {
        assert!(satisfies(&r, &cfd(&r, txt)), "{txt}");
    }
}

/// Example 3: ψ and ψ′ are violated; ψ′ by a single tuple.
#[test]
fn example3_violations() {
    let r = cust_relation();
    let psi = cfd(&r, "([CC, ZIP] -> STR, (_, _ || _))");
    assert!(!satisfies(&r, &psi));
    let v = violations(&r, &psi);
    assert!(v.contains(&Violation::Pair(0, 3)), "t1,t4 violate ψ: {v:?}");

    let psi2 = cfd(&r, "(AC -> CT, (131 || EDI))");
    assert_eq!(violations(&r, &psi2), vec![Violation::Single(7)]);
}

/// Example 4: classification of the Example 1 rules.
#[test]
fn example4_classification() {
    let r = cust_relation();
    for txt in [
        "([CC, AC] -> CT, (_, _ || _))",
        "([CC, AC, PN] -> STR, (_, _, _ || _))",
        "([CC, ZIP] -> STR, (44, _ || _))",
    ] {
        assert_eq!(cfd(&r, txt).class(), CfdClass::Variable, "{txt}");
    }
    for txt in [
        "([CC, AC] -> CT, (01, 908 || MH))",
        "([CC, AC] -> CT, (44, 131 || EDI))",
        "([CC, AC] -> CT, (01, 212 || NYC))",
    ] {
        assert_eq!(cfd(&r, txt).class(), CfdClass::Constant, "{txt}");
    }
}

/// Section 2.2.2: support counts of φ1, φ2, f1, f2.
#[test]
fn support_claims() {
    let r = cust_relation();
    assert_eq!(
        support(&r, &cfd(&r, "([CC, AC] -> CT, (01, 908 || MH))")),
        3
    );
    assert_eq!(
        support(&r, &cfd(&r, "([CC, AC] -> CT, (44, 131 || EDI))")),
        2
    );
    assert_eq!(support(&r, &cfd(&r, "([CC, AC] -> CT, (_, _ || _))")), 8);
    assert_eq!(
        support(&r, &cfd(&r, "([CC, AC, PN] -> STR, (_, _, _ || _))")),
        8
    );
}

/// Example 5 / Example 7: minimality claims, through full discovery.
#[test]
fn example5_and_7_minimality_via_discovery() {
    let r = cust_relation();
    let cover = FastCfd::default().discover(&r, &DiscoverOptions::new(1));
    // minimal rules present
    for txt in [
        "([CC, AC] -> CT, (_, _ || _))",         // f1
        "([CC, AC, PN] -> STR, (_, _, _ || _))", // f2
        "([CC, ZIP] -> STR, (44, _ || _))",      // φ0
        "([CC, AC] -> CT, (44, 131 || EDI))",    // φ2
        "(AC -> CT, (908 || MH))",               // Example 7 reduction of φ1
        "(AC -> CT, (212 || NYC))",              // Example 5 reduction of φ3
    ] {
        assert!(cover.contains(&cfd(&r, txt)), "{txt} must be discovered");
    }
    // non-minimal rules absent: φ1, φ3, and the five f1-specializations
    for txt in [
        "([CC, AC] -> CT, (01, 908 || MH))",
        "([CC, AC] -> CT, (01, 212 || NYC))",
        "([CC, AC] -> CT, (01, _ || _))",
        "([CC, AC] -> CT, (44, _ || _))",
        "([CC, AC] -> CT, (_, 908 || _))",
        "([CC, AC] -> CT, (_, 212 || _))",
        "([CC, AC] -> CT, (_, 131 || _))",
    ] {
        assert!(!cover.contains(&cfd(&r, txt)), "{txt} must be excluded");
    }
}

/// Example 7: (AC → CT, (908 ‖ MH)) is a 4-frequent left-reduced constant
/// CFD, discovered by CFDMiner at k = 4 but φ1 is not.
#[test]
fn example7_cfdminer() {
    let r = cust_relation();
    let red = cfd(&r, "(AC -> CT, (908 || MH))");
    assert_eq!(support(&r, &red), 4);
    let cover4 = CfdMiner.discover(&r, &DiscoverOptions::new(4));
    assert!(cover4.contains(&red));
    // at k = 5 it is gone
    let cover5 = CfdMiner.discover(&r, &DiscoverOptions::new(5));
    assert!(!cover5.contains(&red));
}

/// Example 8: the CFDs CTANE finds at support threshold 3 (point C of
/// Fig. 3), plus the (CC,AC) pruning observation at point B.
#[test]
fn example8_ctane_run() {
    let r = cust_relation();
    let cover = Ctane.discover(&r, &DiscoverOptions::new(3));
    for txt in [
        "(ZIP -> CC, (07974 || 01))",
        "(ZIP -> AC, (07974 || 908))",
        "(STR -> ZIP, (_ || _))",
    ] {
        assert!(cover.contains(&cfd(&r, txt)), "{txt}");
    }
    // point B: the pair (CC,AC) = (44, ·) is not 3-frequent
    let p44 = cfd(&r, "([CC, AC] -> CT, (44, 131 || EDI))");
    assert_eq!(support(&r, &p44), 2);
    assert!(!cover.contains(&p44));
}

/// Example 9, point (C): ([CC,AC] → STR, (44, _ ‖ _)) is a minimal CFD at
/// k = 2; point (B)/(D): the φ′ and φ″ candidates are rejected.
#[test]
fn example9_fastcfd_run() {
    let r = cust_relation();
    let cover = FastCfd::default().discover(&r, &DiscoverOptions::new(2));
    let point_c = cfd(&r, "([CC, AC] -> STR, (44, _ || _))");
    assert!(cover.contains(&point_c), "cover:\n{}", cover.display(&r));
    // φ′ = ([CC,AC,PN] → STR, (01,_,_ ‖ _)) is subsumed by f2
    let phi_p = cfd(&r, "([CC, AC, PN] -> STR, (01, _, _ || _))");
    assert!(satisfies(&r, &phi_p));
    assert!(!cover.contains(&phi_p));
    // φ″ = ([CC,AC,PN] → STR, (01,908,_ ‖ _)) likewise
    let phi_pp = cfd(&r, "([CC, AC, PN] -> STR, (01, 908, _ || _))");
    assert!(satisfies(&r, &phi_pp));
    assert!(!cover.contains(&phi_pp));
    // f2 itself is in the cover
    assert!(cover.contains(&cfd(&r, "([CC, AC, PN] -> STR, (_, _, _ || _))")));
}

/// Lemma 1: normalization of constant-RHS CFDs with wildcard LHS values.
#[test]
fn lemma1_normalization() {
    let r = cust_relation();
    let mixed = cfd(&r, "([CC, AC] -> CT, (_, 908 || MH))");
    let norm = normalize_cfd(&mixed);
    assert_eq!(norm, cfd(&r, "(AC -> CT, (908 || MH))"));
    // equivalence: both hold or both fail together on r0 and on the
    // dirty variant
    let dirty = cfd_suite::datagen::cust::dirty_cust_relation();
    assert_eq!(satisfies(&r, &mixed), satisfies(&r, &norm));
    let mixed_d = cfd(&dirty, "([CC, AC] -> CT, (_, 908 || MH))");
    let norm_d = normalize_cfd(&mixed_d);
    assert_eq!(satisfies(&dirty, &mixed_d), satisfies(&dirty, &norm_d));
}

/// The quickstart of the README, kept honest.
#[test]
fn quickstart_flow() {
    let rel = cust_relation();
    let cover = FastCfd::default().discover(&rel, &DiscoverOptions::new(2));
    assert!(cover.iter().all(|c| satisfies(&rel, c)));
    let constants = CfdMiner.discover(&rel, &DiscoverOptions::new(2));
    assert_eq!(constants.cfds(), cover.constant_cover().cfds());
    let (n_const, n_var) = cover.counts();
    assert_eq!(n_const + n_var, cover.len());
}
