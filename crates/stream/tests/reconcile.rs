//! The engine's correctness contract, checked property-style: after any
//! randomized sequence of insert/delete batches, the engine's live
//! violation set equals a batch `detect_violations` scan of the
//! materialized live instance, and the deltas it emitted compose to
//! exactly that set.

use cfd_core::{DiscoverOptions, Discoverer, FastCfd};
use cfd_model::relation::{Relation, RelationBuilder};
use cfd_model::{Schema, Violation};
use cfd_stream::{RowId, StreamEngine};
use cfd_validate::detect_violations;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// An arbitrary warm relation: 1–10 rows, 2–4 attributes, domain ≤ 3
/// (tiny, so FastCFD yields a rich rule mix quickly).
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

/// A stream script: per op, an action selector plus a row of value
/// indexes. Even action ⇒ insert (codes 0..4, so index 3 exercises the
/// out-of-dictionary path — the warm data only has `v0`–`v2`); odd
/// action ⇒ delete of the live row at position `row[0] % n_live`.
fn arb_ops() -> impl Strategy<Value = Vec<(u8, Vec<u32>)>> {
    proptest::collection::vec((0u8..4, proptest::collection::vec(0u32..4, 4)), 0usize..=24)
}

/// A batched stream script: batches of the ops of [`arb_ops`], applied
/// as `cfd watch` applies a batch, deletes first, then inserts.
fn arb_batches() -> impl Strategy<Value = Vec<Vec<(u8, Vec<u32>)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u8..4, proptest::collection::vec(0u32..4, 4)), 1usize..=8),
        0usize..=6,
    )
}

/// Maps a batch-scan violation (dense row ids) back to engine row ids.
fn to_engine_ids(ids: &[RowId], v: Violation) -> Violation {
    match v {
        Violation::Single(t) => Violation::Single(ids[t as usize]),
        Violation::Pair(a, b) => Violation::Pair(ids[a as usize], ids[b as usize]),
    }
}

/// A batch `detect_violations` scan of the materialized live instance,
/// in engine row ids and sorted: what `live_violations` must equal.
fn rescan(engine: &StreamEngine) -> Vec<(usize, Violation)> {
    let ids = engine.live_ids();
    let mut want: Vec<(usize, Violation)> =
        detect_violations(&engine.materialize(), engine.rules())
            .into_iter()
            .map(|(r, v)| (r, to_engine_ids(&ids, v)))
            .collect();
    want.sort_unstable();
    want
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn deltas_reconcile_with_batch_detection(
        warm in arb_warm(),
        ops in arb_ops(),
        threads in 1usize..=3,
    ) {
        // a real discovered cover: minimal 1-frequent constant+variable CFDs
        let rules: Vec<_> = FastCfd::default().discover(&warm, &DiscoverOptions::new(1)).into_iter().collect();
        let (mut engine, warm_delta) = StreamEngine::warm(&warm, rules, threads);
        // rules discovered on the warm data hold on the warm data
        prop_assert!(warm_delta.is_empty(), "{warm_delta:?}");

        // the violation set maintained *only* through emitted deltas
        let mut running: BTreeSet<(usize, Violation)> = BTreeSet::new();

        for (i, (action, row)) in ops.iter().enumerate() {
            let delta = if action % 2 == 0 || engine.n_live() == 0 {
                let arity = engine.schema().arity();
                let values: Vec<String> =
                    row.iter().take(arity).map(|c| format!("v{c}")).collect();
                let (_, delta) = engine.insert_batch(&[values]).unwrap();
                delta
            } else {
                let live = engine.live_ids();
                let victim = live[row[0] as usize % live.len()];
                engine.delete_batch(&[victim]).unwrap()
            };

            // deltas must be consistent with the running set …
            for rv in &delta.cleared {
                prop_assert!(running.remove(rv), "op {i}: cleared unknown {rv:?}");
            }
            for rv in &delta.raised {
                prop_assert!(running.insert(*rv), "op {i}: raised duplicate {rv:?}");
            }
            // … compose to exactly the engine's live set …
            let live_set: Vec<(usize, Violation)> = running.iter().copied().collect();
            prop_assert_eq!(&live_set, &engine.live_violations(), "op {}", i);

            // … and the live set must equal a full batch rescan of the
            // materialized live instance
            prop_assert_eq!(&rescan(&engine), &engine.live_violations(), "op {}", i);
            prop_assert_eq!(engine.n_violations(), live_set.len(), "op {}", i);
            let mat = engine.materialize();

            // counters stay coherent with the violation set
            let stats = engine.stats();
            for s in &stats {
                let per_rule = engine
                    .live_violations()
                    .iter()
                    .filter(|(r, _)| *r == s.rule)
                    .count();
                prop_assert_eq!(s.violations, per_rule);
                prop_assert!((0.0..=1.0).contains(&s.confidence()));
                prop_assert!(s.matched() <= engine.n_live());
                // the live measure equals the reference measure on the
                // materialized instance — the cross-crate contract of
                // cfd_model::RuleMeasure
                let want = cfd_model::measure::measure(&mat, &engine.rules()[s.rule]);
                prop_assert_eq!(s.measure, want, "op {} rule {}", i, s.rule);
            }
        }
    }

    #[test]
    fn mixed_batches_reconcile(
        warm in arb_warm(),
        batches in arb_batches(),
        threads in 1usize..=3,
    ) {
        let rules: Vec<_> = FastCfd::default().discover(&warm, &DiscoverOptions::new(1)).into_iter().collect();
        let (mut engine, _) = StreamEngine::warm(&warm, rules, threads);
        let arity = engine.schema().arity();
        for (i, batch) in batches.iter().enumerate() {
            let mut live = engine.live_ids();
            let mut deletes = Vec::new();
            let mut inserts: Vec<Vec<String>> = Vec::new();
            for (action, row) in batch {
                if action % 2 == 1 && !live.is_empty() {
                    deletes.push(live.remove(row[0] as usize % live.len()));
                } else {
                    inserts.push(row.iter().take(arity).map(|c| format!("v{c}")).collect());
                }
            }
            if !deletes.is_empty() {
                engine.delete_batch(&deletes).unwrap();
            }
            if !inserts.is_empty() {
                engine.insert_batch(&inserts).unwrap();
            }
            let live_set = engine.live_violations();
            prop_assert_eq!(engine.n_violations(), live_set.len(), "batch {}", i);
            prop_assert_eq!(&rescan(&engine), &live_set, "batch {}", i);
        }
    }

    #[test]
    fn shard_counts_agree_pairwise(
        warm in arb_warm(),
        ops in arb_ops(),
    ) {
        // the same script applied at different shard counts produces the
        // same deltas in the same order
        let rules: Vec<_> = FastCfd::default().discover(&warm, &DiscoverOptions::new(1)).into_iter().collect();
        let (mut e1, _) = StreamEngine::warm(&warm, rules.clone(), 1);
        let (mut e4, _) = StreamEngine::warm(&warm, rules, 4);
        for (action, row) in &ops {
            if *action % 2 == 0 || e1.n_live() == 0 {
                let arity = e1.schema().arity();
                let values: Vec<String> =
                    row.iter().take(arity).map(|c| format!("v{c}")).collect();
                let batch = std::slice::from_ref(&values);
                let (ids1, d1) = e1.insert_batch(batch).unwrap();
                let (ids4, d4) = e4.insert_batch(batch).unwrap();
                prop_assert_eq!(ids1, ids4);
                prop_assert_eq!(d1, d4);
            } else {
                let live = e1.live_ids();
                let victim = live[row[0] as usize % live.len()];
                let d1 = e1.delete_batch(&[victim]).unwrap();
                let d4 = e4.delete_batch(&[victim]).unwrap();
                prop_assert_eq!(d1, d4);
            }
        }
        prop_assert_eq!(e1.live_violations(), e4.live_violations());
        prop_assert_eq!(e1.stats(), e4.stats());
    }
}

/// A xorshift generator for the fixed data below.
struct Xorshift(u64);

impl Xorshift {
    fn below(&mut self, m: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % m
    }

    /// `v`, or one time in ten a value drawn below `m`.
    fn noisy(&mut self, v: u64, m: u64) -> u64 {
        if self.below(10) == 0 {
            self.below(m)
        } else {
            v
        }
    }
}

/// A tax-like row: CT follows AC, ZIP follows CT, and STR follows NM
/// where CC is `c1`, each with one value in ten noise.
fn tax_row(rng: &mut Xorshift) -> Vec<String> {
    let (cc, ac, nm) = (rng.below(2), rng.below(12), rng.below(40));
    let ct = rng.noisy(ac % 5, 5);
    let zip = rng.noisy(ct, 5);
    let street = if cc == 1 {
        rng.noisy(nm % 7, 7)
    } else {
        rng.below(7)
    };
    vec![
        format!("c{cc}"),
        format!("a{ac}"),
        format!("ct{ct}"),
        format!("z{zip}"),
        format!("n{nm}"),
        format!("s{street}"),
    ]
}

/// A fixed cover shaped like the `watch` benchmark's, where a tuple's
/// first LHS constant picks the rules it can match: one conditional
/// variable rule, 24 constant rules whose first constant is on AC, a
/// rule with two constants (first on CC) and a variable rule with no
/// constant. Sliding-window batches of 2,500 deletes and 2,500 inserts,
/// the benchmark's batch size, cross the engine's parallel threshold
/// (2,500 rows × the one rule with no constant), so at 2 and 3 threads
/// each worker keys its own chunk of the rules, the AC rules split
/// among them. After every batch the live set must equal a batch scan,
/// the O(rules) count its length, and every delta that of one thread.
#[test]
fn benchmark_shaped_cover_reconciles() {
    const BATCH: usize = 2_500;
    let mut rng = Xorshift(0x2545_f491_4f6c_dd1d);
    let schema = Schema::new(["CC", "AC", "CT", "ZIP", "NM", "STR"]).unwrap();
    let rows: Vec<Vec<String>> = (0..10_000).map(|_| tax_row(&mut rng)).collect();
    let (warm_rows, stream) = rows.split_at(BATCH);
    let mut warm = cfd_model::relation::relation_from_rows(schema, warm_rows).unwrap();
    let mut texts = vec!["([CC, NM] -> STR, (c1, _ || _))".to_string()];
    for a in 0..12 {
        texts.push(format!("([AC] -> CT, (a{a} || ct{}))", a % 5));
        texts.push(format!("([AC] -> ZIP, (a{a} || z{}))", a % 5));
    }
    texts.push("([CC, AC] -> CT, (c0, a3 || ct3))".into());
    texts.push("([CT] -> ZIP, (_ || _))".into());
    let cover: Vec<_> = texts
        .iter()
        .map(|t| cfd_model::cfd::parse_cfd_interning(&mut warm, t).unwrap())
        .collect();

    let run = |threads: usize| {
        let (mut engine, warm_delta) = StreamEngine::warm(&warm, cover.clone(), threads);
        let mut deltas = vec![warm_delta];
        for (i, batch) in stream.chunks(BATCH).enumerate() {
            let ids: Vec<RowId> = (i * BATCH..(i + 1) * BATCH).map(|id| id as RowId).collect();
            deltas.push(engine.delete_batch(&ids).unwrap());
            deltas.push(engine.insert_batch(batch).unwrap().1);
            let live = engine.live_violations();
            assert_eq!(
                engine.n_violations(),
                live.len(),
                "threads {threads} batch {i}"
            );
            assert_eq!(rescan(&engine), live, "threads {threads} batch {i}");
        }
        (deltas, engine.live_violations())
    };
    let serial = run(1);
    assert!(serial.0.iter().all(|d| !d.is_empty()), "{:?}", serial.0);
    for threads in [2, 3] {
        assert_eq!(run(threads), serial, "threads {threads}");
    }
}
