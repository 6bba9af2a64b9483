//! Property-based tests (proptest): the discovery algorithms are checked
//! on arbitrary small relations — soundness, minimality, completeness
//! against the brute-force oracle, and pairwise agreement.

use cfd_suite::core::{audit_cover, is_minimal};
use cfd_suite::prelude::*;
use proptest::prelude::*;

/// An arbitrary relation: 1–16 rows, 2–4 attributes, domain ≤ 3 per
/// attribute (kept tiny so the brute-force oracle stays cheap).
fn arb_relation() -> impl Strategy<Value = Relation> {
    (2usize..=4, 1usize..=16)
        .prop_flat_map(|(arity, rows)| {
            proptest::collection::vec(proptest::collection::vec(0u32..3, arity), rows)
        })
        .prop_map(coded_relation)
}

/// Up to six attributes and 30 rows over three values: CTANE reaches
/// levels 5–6, where a prefix run holds several same-attribute blocks
/// and an element carries up to five constants (too wide for the
/// brute-force oracle).
fn arb_wide_relation() -> impl Strategy<Value = Relation> {
    (2usize..=6, 1usize..=30)
        .prop_flat_map(|(arity, rows)| {
            proptest::collection::vec(proptest::collection::vec(0u32..3, arity), rows)
        })
        .prop_map(coded_relation)
}

fn coded_relation(rows: Vec<Vec<u32>>) -> Relation {
    let arity = rows[0].len();
    let schema = Schema::new((0..arity).map(|i| format!("A{i}"))).unwrap();
    let mut b = RelationBuilder::new(schema);
    for row in &rows {
        b.push_coded_row(row).unwrap();
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fastcfd_outputs_hold_and_are_minimal(rel in arb_relation(), k in 1usize..=3) {
        let cover = FastCfd::default().discover(&rel, &DiscoverOptions::new(k));
        let problems = audit_cover(&rel, cover.iter(), k);
        prop_assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn ctane_equals_fastcfd(
        narrow in arb_relation(),
        wide in arb_wide_relation(),
        k in 1usize..=3,
    ) {
        for rel in [&narrow, &wide] {
            let ctane = Ctane.discover(rel, &DiscoverOptions::new(k));
            let fast = FastCfd::default().discover(rel, &DiscoverOptions::new(k));
            prop_assert_eq!(ctane.cfds(), fast.cfds(), "arity {}", rel.arity());
        }
    }

    #[test]
    fn naive_equals_fastcfd(rel in arb_relation(), k in 1usize..=3) {
        let opts = DiscoverOptions::new(k);
        let fast = FastCfd::default().discover(&rel, &opts);
        let naive = FastCfd::naive().discover(&rel, &opts);
        prop_assert_eq!(naive.cfds(), fast.cfds());
        // without free-set pruning every k-frequent pattern is walked,
        // and CFDMiner's pass emits nothing on the non-free ones
        let unpruned = FastCfd::default().free_set_pruning(false).discover(&rel, &opts);
        prop_assert_eq!(unpruned.cfds(), fast.cfds());
    }

    #[test]
    fn complete_against_oracle(rel in arb_relation(), k in 1usize..=2) {
        let fast = FastCfd::default().discover(&rel, &DiscoverOptions::new(k));
        let want = BruteForce.discover(&rel, &DiscoverOptions::new(k));
        prop_assert_eq!(fast.cfds().to_vec(), want.cfds().to_vec());
    }

    #[test]
    fn cfdminer_is_the_constant_fragment(rel in arb_relation(), k in 1usize..=3) {
        let miner = CfdMiner.discover(&rel, &DiscoverOptions::new(k));
        let fast = FastCfd::default().discover(&rel, &DiscoverOptions::new(k));
        prop_assert_eq!(miner.cfds().to_vec(), fast.constant_cover().cfds().to_vec());
        prop_assert!(miner.iter().all(|c| c.is_constant()));
    }

    #[test]
    fn discovered_rules_transfer_to_satisfying_extensions(
        rel in arb_relation(), k in 1usize..=2
    ) {
        // duplicating rows preserves every discovered CFD (satisfaction is
        // closed under tuple duplication) and can only increase support
        let cover = FastCfd::default().discover(&rel, &DiscoverOptions::new(k));
        let rows: Vec<u32> = rel.tuples().chain(rel.tuples()).collect();
        let doubled = rel.restrict(&rows);
        for cfd in cover.iter() {
            prop_assert!(satisfies(&doubled, cfd), "{}", cfd.display(&rel));
            prop_assert!(support(&doubled, cfd) >= 2 * k.min(1));
        }
    }

    #[test]
    fn minimality_oracle_consistent_with_membership(
        rel in arb_relation()
    ) {
        // every CFD in the cover passes is_minimal; conversely the cover
        // is exactly the minimal set (spot-checked via the oracle above)
        let cover = FastCfd::default().discover(&rel, &DiscoverOptions::new(1));
        for cfd in cover.iter() {
            prop_assert!(is_minimal(&rel, cfd, 1));
        }
    }

    #[test]
    fn violations_iff_not_satisfied(rel in arb_relation()) {
        // violations() and satisfies() agree for arbitrary single rules
        let cover = FastCfd::default().discover(&rel, &DiscoverOptions::new(1));
        for cfd in cover.iter().take(10) {
            prop_assert!(violations(&rel, cfd).is_empty());
        }
    }

    /// The θ = 1.0 parity guarantee (DESIGN.md §8): the approximate
    /// path of CTANE/TANE/CFDMiner with `min_confidence = 1.0`
    /// reproduces today's exact covers bit for bit, through the unified
    /// API and through the struct builders alike.
    #[test]
    fn theta_one_reproduces_exact_covers(rel in arb_relation(), k in 1usize..=2) {
        let ctrl = Control::default();
        for algo in [Algo::Ctane, Algo::Tane, Algo::CfdMiner] {
            let exact = algo
                .discover_with(&rel, &DiscoverOptions::new(k), &ctrl)
                .unwrap();
            let via_theta = algo
                .discover_with(&rel, &DiscoverOptions::new(k).min_confidence(1.0), &ctrl)
                .unwrap();
            prop_assert_eq!(
                exact.cover.cfds(),
                via_theta.cover.cfds(),
                "{} at k={}",
                algo,
                k
            );
        }
        let pairs = [
            (
                Ctane.discover(&rel, &DiscoverOptions::new(k).min_confidence(1.0)),
                Ctane.discover(&rel, &DiscoverOptions::new(k)),
            ),
            (
                Tane.discover(&rel, &DiscoverOptions::default().min_confidence(1.0)),
                Tane.discover(&rel, &DiscoverOptions::default()),
            ),
            (
                CfdMiner.discover(&rel, &DiscoverOptions::new(k).min_confidence(1.0)),
                CfdMiner.discover(&rel, &DiscoverOptions::new(k)),
            ),
        ];
        for (via_theta, exact) in &pairs {
            prop_assert_eq!(via_theta.cfds(), exact.cfds());
        }
    }

    /// TANE is CTANE's level walk over the wildcard items alone: its
    /// cover and measures are the plain-FD rules of CTANE at k 1, exact
    /// and approximate, with or without an LHS bound.
    #[test]
    fn tane_is_the_plain_fd_fragment_of_ctane(
        rel in arb_relation(),
        wide in arb_wide_relation(),
        theta_pct in 50u32..=100,
        capped in 0u32..2,
    ) {
        let mut opts = DiscoverOptions::new(1).min_confidence(theta_pct as f64 / 100.0);
        opts.max_lhs = (capped == 1).then_some(2);
        let ctrl = Control::default();
        for r in [&rel, &wide] {
            let tane = Algo::Tane.discover_with(r, &opts, &ctrl).unwrap();
            let ctane = Algo::Ctane.discover_with(r, &opts, &ctrl).unwrap();
            let fds = ctane.cover.plain_fd_cover();
            let measures: Vec<RuleMeasure> = ctane
                .cover
                .iter()
                .zip(&ctane.measures)
                .filter(|(c, _)| c.is_plain_fd())
                .map(|(_, m)| *m)
                .collect();
            prop_assert_eq!(tane.cover.cfds(), fds.cfds(), "{:?}", opts);
            prop_assert_eq!(&tane.measures, &measures, "{:?}", opts);
        }
    }

    /// θ < 1.0 soundness: every rule an approximate run emits carries a
    /// kernel-validated confidence of at least θ, the attached measures
    /// agree with the per-rule reference measure, and the emitted
    /// constant rules stay k-frequent.
    #[test]
    fn approximate_rules_meet_their_threshold(
        rel in arb_relation(),
        k in 1usize..=2,
        theta_pct in 50u32..100,
    ) {
        let theta = theta_pct as f64 / 100.0;
        let ctrl = Control::default();
        for algo in [Algo::Ctane, Algo::Tane, Algo::CfdMiner] {
            let opts = DiscoverOptions::new(k).min_confidence(theta);
            let d = algo.discover_with(&rel, &opts, &ctrl).unwrap();
            prop_assert_eq!(d.measures.len(), d.cover.len());
            for (cfd, m) in d.cover.iter().zip(&d.measures) {
                let reference = cfd_suite::model::measure::measure(&rel, cfd);
                prop_assert_eq!(*m, reference, "{}: {}", algo, cfd.display(&rel));
                prop_assert!(
                    m.confidence() + 1e-9 >= theta,
                    "{}: {} has confidence {} < θ={}",
                    algo,
                    cfd.display(&rel),
                    m.confidence(),
                    theta
                );
                if algo == Algo::CfdMiner {
                    prop_assert!(
                        m.support - m.violations >= k,
                        "{}: full-pattern support below k",
                        cfd.display(&rel)
                    );
                }
            }
        }
    }

    /// Top-k truncation keeps exactly the best-scoring rules and their
    /// measures, for any algorithm.
    #[test]
    fn top_k_is_a_best_scored_subset(rel in arb_relation(), top in 1usize..=4) {
        let ctrl = Control::default();
        let full = Algo::FastCfd
            .discover_with(&rel, &DiscoverOptions::new(1), &ctrl)
            .unwrap();
        let trunc = Algo::FastCfd
            .discover_with(&rel, &DiscoverOptions::new(1).top_k(top), &ctrl)
            .unwrap();
        prop_assert_eq!(trunc.cover.len(), full.cover.len().min(top));
        prop_assert_eq!(trunc.measures.len(), trunc.cover.len());
        let score = |m: &RuleMeasure| (m.confidence(), m.support);
        let mut kept_scores: Vec<_> = trunc.measures.iter().map(score).collect();
        kept_scores.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let mut all_scores: Vec<_> = full.measures.iter().map(score).collect();
        all_scores.sort_by(|a, b| b.partial_cmp(a).unwrap());
        all_scores.truncate(top);
        prop_assert_eq!(kept_scores, all_scores);
        for cfd in trunc.cover.iter() {
            prop_assert!(full.cover.contains(cfd));
        }
    }
}

/// Parity guarantees of the partition engine: thread count is a pure
/// performance knob for every level-wise algorithm — discovery output
/// (rules AND measures, i.e. the full annotated wire document) is
/// byte-identical across it — and every miner's emitted measures are
/// the kernel's.
mod engine_parity {
    use super::*;

    fn discover_text(algo: Algo, rel: &Relation, opts: &DiscoverOptions) -> String {
        let d = algo
            .discover_with(rel, opts, &Control::default())
            .expect("discovery succeeds");
        d.to_annotated_text(rel)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn one_thread_equals_four_threads(
            narrow in arb_relation(),
            wide in arb_wide_relation(),
            k in 1usize..=2,
            exact in 0usize..=1,
        ) {
            let theta = if exact == 1 { 1.0 } else { 0.8 };
            for rel in [&narrow, &wide] {
                for algo in [Algo::Ctane, Algo::Tane, Algo::CfdMiner] {
                    let serial = DiscoverOptions::new(k).min_confidence(theta);
                    let sharded = DiscoverOptions::new(k).min_confidence(theta).threads(4);
                    prop_assert_eq!(
                        discover_text(algo, rel, &serial),
                        discover_text(algo, rel, &sharded),
                        "{} k={} θ={} arity {}", algo, k, theta, rel.arity()
                    );
                }
            }
        }

        #[test]
        fn emission_measures_equal_the_kernel_reference(
            rel in arb_relation(),
            k in 1usize..=2,
        ) {
            // the measures each miner's `Discoverer::run` takes at
            // emission must be exactly what a fresh per-rule scan
            // reports — for exact and θ < 1 runs
            for theta in [0.8, 1.0] {
                for algo in Algo::all() {
                    let opts = DiscoverOptions::new(k).min_confidence(theta);
                    let d = algo.discover_with(&rel, &opts, &Control::default()).unwrap();
                    prop_assert_eq!(d.measures.len(), d.cover.len());
                    for (cfd, m) in d.cover.iter().zip(&d.measures) {
                        prop_assert_eq!(
                            *m,
                            cfd_suite::model::measure::measure(&rel, cfd),
                            "{} θ={}: {}", algo, theta, cfd.display(&rel)
                        );
                    }
                }
            }
        }
    }
}
