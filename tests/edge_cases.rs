//! Degenerate and adversarial inputs: every algorithm must agree and
//! stay sound on the boundaries of the input space.

use cfd_suite::core::audit_cover;
use cfd_suite::prelude::*;

fn rel_of(rows: &[Vec<&str>], names: &[&str]) -> Relation {
    let schema = Schema::new(names.to_vec()).unwrap();
    cfd_suite::model::relation::relation_from_rows(schema, rows).unwrap()
}

fn assert_all_agree(r: &Relation, k: usize) {
    let ctane = Ctane.discover(r, &DiscoverOptions::new(k));
    let fast = FastCfd::default().discover(r, &DiscoverOptions::new(k));
    let naive = FastCfd::naive().discover(r, &DiscoverOptions::new(k));
    assert_eq!(ctane.cfds(), fast.cfds(), "ctane vs fastcfd");
    assert_eq!(naive.cfds(), fast.cfds(), "naive vs fastcfd");
    assert!(audit_cover(r, fast.iter(), k).is_empty());
}

#[test]
fn empty_relation() {
    let schema = Schema::new(["A", "B"]).unwrap();
    let r = RelationBuilder::new(schema).finish();
    assert_eq!(r.n_rows(), 0);
    let opts = DiscoverOptions::new(1);
    for algo in [
        Algo::FastCfd,
        Algo::Ctane,
        Algo::CfdMiner,
        Algo::Tane,
        Algo::FastFd,
    ] {
        assert!(algo.discover(&r, &opts).is_empty(), "{algo}");
    }
}

#[test]
fn single_tuple() {
    let r = rel_of(&[vec!["x", "y", "z"]], &["A", "B", "C"]);
    assert_all_agree(&r, 1);
    let cover = FastCfd::default().discover(&r, &DiscoverOptions::new(1));
    // exactly the three constant CFDs (∅ → X, (‖ v)); nothing variable
    assert_eq!(cover.counts(), (3, 0), "{}", cover.display(&r));
}

#[test]
fn single_attribute() {
    let r = rel_of(&[vec!["x"], vec!["x"], vec!["y"]], &["A"]);
    assert_all_agree(&r, 1);
    let cover = FastCfd::default().discover(&r, &DiscoverOptions::new(1));
    // no LHS attributes exist, A is not constant ⇒ empty cover
    assert!(cover.is_empty());
    // but with identical rows it is the constant rule
    let c = rel_of(&[vec!["x"], vec!["x"]], &["A"]);
    let cover = FastCfd::default().discover(&c, &DiscoverOptions::new(1));
    assert_eq!(cover.counts(), (1, 0));
}

#[test]
fn all_rows_identical() {
    let r = rel_of(
        &[vec!["x", "y"], vec!["x", "y"], vec!["x", "y"]],
        &["A", "B"],
    );
    assert_all_agree(&r, 1);
    assert_all_agree(&r, 3);
    let cover = FastCfd::default().discover(&r, &DiscoverOptions::new(3));
    // both columns constant: two empty-LHS constant CFDs, no variable CFDs
    assert_eq!(cover.counts(), (2, 0), "{}", cover.display(&r));
}

#[test]
fn duplicated_column() {
    // B is a copy of A: A → B and B → A, plus value-level rules
    let r = rel_of(
        &[
            vec!["x", "x", "1"],
            vec!["y", "y", "2"],
            vec!["x", "x", "3"],
            vec!["z", "z", "1"],
        ],
        &["A", "B", "C"],
    );
    assert_all_agree(&r, 1);
    let fds = Tane.discover(&r, &DiscoverOptions::default());
    let a = 0;
    let b = 1;
    assert!(fds.contains(&Cfd::fd(AttrSet::singleton(a), b)));
    assert!(fds.contains(&Cfd::fd(AttrSet::singleton(b), a)));
}

#[test]
fn key_column() {
    // C is a key: C → A, C → B are minimal FDs
    let r = rel_of(
        &[
            vec!["x", "p", "1"],
            vec!["x", "q", "2"],
            vec!["y", "p", "3"],
            vec!["y", "q", "4"],
        ],
        &["A", "B", "C"],
    );
    assert_all_agree(&r, 1);
    let cover = FastCfd::default().discover(&r, &DiscoverOptions::new(1));
    assert!(cover.contains(&Cfd::fd(AttrSet::singleton(2), 0)));
    assert!(cover.contains(&Cfd::fd(AttrSet::singleton(2), 1)));
}

#[test]
fn k_equal_to_relation_size() {
    let r = rel_of(
        &[vec!["x", "1"], vec!["x", "1"], vec!["x", "2"]],
        &["A", "B"],
    );
    assert_all_agree(&r, 3);
    let cover = FastCfd::default().discover(&r, &DiscoverOptions::new(3));
    // only the pattern (A=x) reaches support 3; B varies ⇒ only (∅→A,(‖x))
    assert_eq!(cover.counts(), (1, 0), "{}", cover.display(&r));
    // k beyond |r| ⇒ nothing
    let beyond = DiscoverOptions::new(4);
    assert!(FastCfd::default().discover(&r, &beyond).is_empty());
    assert!(Ctane.discover(&r, &beyond).is_empty());
}

#[test]
fn binary_matrix_relation() {
    // adversarial: 6 boolean columns, half the rows complement the other
    let rows: Vec<Vec<String>> = (0..16u32)
        .map(|i| (0..6).map(|b| ((i >> (b % 4)) & 1).to_string()).collect())
        .collect();
    let rows_ref: Vec<Vec<&str>> = rows
        .iter()
        .map(|r| r.iter().map(String::as_str).collect())
        .collect();
    let r = rel_of(&rows_ref, &["b0", "b1", "b2", "b3", "b4", "b5"]);
    for k in [1, 2, 4] {
        assert_all_agree(&r, k);
    }
    // b4 = b0 and b5 = b1 by construction (bit index mod 4)
    let fds = FastFd.discover(&r, &DiscoverOptions::default());
    assert!(fds.contains(&Cfd::fd(AttrSet::singleton(0), 4)));
    assert!(fds.contains(&Cfd::fd(AttrSet::singleton(5), 1)));
}

#[test]
fn free_set_pruning_ablation_is_pure_optimization() {
    let r = cfd_suite::datagen::tax::TaxGenerator::new(400).generate();
    for k in [2, 4] {
        let with = FastCfd::default().discover(&r, &DiscoverOptions::new(k));
        let without = FastCfd::default()
            .free_set_pruning(false)
            .discover(&r, &DiscoverOptions::new(k));
        assert_eq!(with.cfds(), without.cfds(), "k={k}");
    }
    // and on adversarial random data
    for seed in 0..6 {
        let r = cfd_suite::datagen::random::RandomRelation::small(seed).generate();
        let with = FastCfd::default().discover(&r, &DiscoverOptions::new(1));
        let without = FastCfd::default()
            .free_set_pruning(false)
            .discover(&r, &DiscoverOptions::new(1));
        assert_eq!(with.cfds(), without.cfds(), "seed={seed}");
    }
}

#[test]
fn max_lhs_is_a_prefix_of_the_cover() {
    let r = cfd_suite::datagen::cust::cust_relation();
    let full = Ctane.discover(&r, &DiscoverOptions::new(2));
    let capped = Ctane.discover(&r, &DiscoverOptions::new(2).max_lhs(2));
    // capped = exactly the full-cover rules with LHS ≤ 2
    let expect: Vec<_> = full
        .iter()
        .filter(|c| c.lhs_attrs().len() <= 2)
        .cloned()
        .collect();
    assert_eq!(capped.cfds(), CanonicalCover::from_cfds(expect).cfds());
}

#[test]
fn unicode_values_survive_the_pipeline() {
    let r = rel_of(
        &[
            vec!["東京", "日本", "π≈3.14"],
            vec!["東京", "日本", "π≈3.14"],
            vec!["Zürich", "Schweiz", "έψιλον"],
        ],
        &["city", "country", "note"],
    );
    assert_all_agree(&r, 1);
    let cover = FastCfd::default().discover(&r, &DiscoverOptions::new(2));
    let rule = parse_cfd(&r, "(city -> country, (東京 || 日本))").unwrap();
    assert!(cover.contains(&rule), "{}", cover.display(&r));
    // display round-trips through the dictionaries
    assert!(rule.display(&r).contains("東京"));
}

#[test]
fn parallel_findcover_equals_serial() {
    let r = cfd_suite::datagen::tax::TaxGenerator::new(500).generate();
    for k in [2, 5] {
        let serial = FastCfd::default().discover(&r, &DiscoverOptions::new(k));
        let parallel = FastCfd::default().discover(&r, &DiscoverOptions::new(k).threads(4));
        assert_eq!(serial.cfds(), parallel.cfds(), "k={k}");
    }
    for seed in 0..4 {
        let r = cfd_suite::datagen::random::RandomRelation::small(seed).generate();
        let serial = FastCfd::default().discover(&r, &DiscoverOptions::new(1));
        let parallel = FastCfd::default().discover(&r, &DiscoverOptions::new(1).threads(3));
        assert_eq!(serial.cfds(), parallel.cfds(), "seed={seed}");
    }
}

#[test]
fn tableau_grouping_through_the_public_api() {
    use cfd_suite::model::tableau::group_into_tableaux;
    let r = cfd_suite::datagen::cust::cust_relation();
    let cover = FastCfd::default().discover(&r, &DiscoverOptions::new(2));
    let tableaux = group_into_tableaux(&cover);
    // fewer tableaux than single-pattern rules (grouping compresses)
    assert!(tableaux.len() < cover.len());
    // every tableau holds and its rows sum back to the cover
    let total_rows: usize = tableaux.iter().map(|t| t.rows().len()).sum();
    assert_eq!(total_rows, cover.len());
    for t in &tableaux {
        assert!(t.satisfied_by(&r), "{}", t.display(&r));
        assert!(t.support(&r) >= 2);
    }
}
