//! Drift convergence, property-style: after any randomized sequence of
//! insert/delete batches — adversarially drawn from the warm data's own
//! domain, so colliding LHS groups push rules below θ — one re-mining
//! cycle leaves a cover whose *every* rule kernel-validates at
//! confidence ≥ θ, a second cycle finds nothing left to heal, and the
//! entire run is byte-identical at 1 and 4 threads.

use cfd_core::{DiscoverOptions, Discoverer, FastCfd};
use cfd_model::relation::{Relation, RelationBuilder};
use cfd_model::{Control, RuleMeasure, Schema};
use cfd_stream::{remine, RemineOptions, StreamEngine};
use cfd_validate::measure_cover;
use proptest::prelude::*;

/// An arbitrary warm relation: 1–10 rows, 2–4 attributes, domain ≤ 3.
fn arb_warm() -> impl Strategy<Value = Relation> {
    (2usize..=4, 1usize..=10)
        .prop_flat_map(|(arity, rows)| {
            proptest::collection::vec(proptest::collection::vec(0u32..3, arity), rows)
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

/// A stream script, as in the reconcile suite: even action ⇒ insert
/// (values from the warm domain plus one fresh code, so groups collide
/// *and* grow), odd action ⇒ delete of a live row.
fn arb_ops() -> impl Strategy<Value = Vec<(u8, Vec<u32>)>> {
    proptest::collection::vec((0u8..4, proptest::collection::vec(0u32..4, 4)), 0usize..=20)
}

/// The full scenario at one concurrency setting: warm from a
/// discovered cover, stream the script, run one re-mining cycle.
/// Returns the post-cycle rule texts, the *independently*
/// kernel-measured post-state, and whether the cycle triggered.
fn run_scenario(
    warm: &Relation,
    ops: &[(u8, Vec<u32>)],
    theta: f64,
    threads: usize,
) -> (Vec<String>, Vec<RuleMeasure>, bool) {
    let rules: Vec<_> = FastCfd::default()
        .discover(warm, &DiscoverOptions::new(1))
        .into_iter()
        .collect();
    let (mut engine, _) = StreamEngine::warm(warm, rules, threads);
    for (action, row) in ops {
        if *action % 2 == 0 || engine.n_live() == 0 {
            let arity = engine.schema().arity();
            let values: Vec<String> = row.iter().take(arity).map(|c| format!("v{c}")).collect();
            engine.insert_batch(&[values]).unwrap();
        } else {
            let live = engine.live_ids();
            let victim = live[row[0] as usize % live.len()];
            engine.delete_batch(&[victim]).unwrap();
        }
    }
    let opts = RemineOptions {
        theta,
        expand: 1,
        k: 1,
        max_lhs: None,
        threads,
    };
    let delta = remine(&mut engine, &opts, &Control::default()).unwrap();
    let texts: Vec<String> = (0..engine.rules().len())
        .map(|r| engine.rule_text(r).to_string())
        .collect();
    // measure the post-state through the kernel on the materialized
    // live instance — not through the engine's own counters, so the
    // convergence claim rests on the semantic reference
    let live = engine.materialize();
    let measures = measure_cover(&live, engine.rules(), 1);
    // convergence is a fixpoint: a second cycle finds nothing drifted
    let again = remine(&mut engine, &opts, &Control::default()).unwrap();
    assert!(
        again.is_none(),
        "second re-mining cycle triggered again: {again:?}"
    );
    (texts, measures, delta.is_some())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn remine_converges_to_theta_and_is_thread_invariant(
        warm in arb_warm(),
        ops in arb_ops(),
        theta in (0usize..3).prop_map(|i| [0.75, 0.9, 0.95][i]),
    ) {
        let (texts, measures, triggered) = run_scenario(&warm, &ops, theta, 1);

        // every surviving rule meets θ on the live instance, whether
        // the cycle triggered (healed cover) or not (nothing drifted)
        for (t, m) in texts.iter().zip(&measures) {
            prop_assert!(
                m.meets(theta),
                "rule {t} below θ={theta} after re-mining: {m:?} (triggered={triggered})"
            );
        }

        // byte-identical outcome at 4 threads
        let (texts4, measures4, triggered4) = run_scenario(&warm, &ops, theta, 4);
        prop_assert_eq!(texts, texts4);
        prop_assert_eq!(measures, measures4);
        prop_assert_eq!(triggered, triggered4);
    }
}
