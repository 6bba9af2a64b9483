//! # cfd-stream
//!
//! Incremental violation detection for streaming tuple batches — the
//! serving half of the CFD story. Discovery (cfd-core) produces a
//! canonical cover offline; this crate compiles that cover into
//! per-rule incremental indexes and keeps the violation set of a *live*,
//! continuously changing instance current without ever rescanning it:
//!
//! * a **constant-RHS matcher** catches single-tuple violations the
//!   moment the tuple arrives,
//! * a **per-LHS-pattern group index** (key = codes on the wildcard
//!   attributes → ordered members) catches pair violations of the
//!   embedded FD and re-anchors groups when their witness is deleted,
//! * rules are **sharded across worker threads** (at most one per
//!   core), so a batch is encoded once and, when its work repays the
//!   workers, applied to all rule indexes in parallel,
//! * per-rule **support / violation / confidence counters** are
//!   queryable at any point, in O(#rules).
//!
//! [`StreamEngine::insert_batch`] / [`StreamEngine::delete_batch`]
//! return [`BatchDelta`]s — violations newly raised and newly cleared —
//! and the engine guarantees its live set always reconciles exactly with
//! a batch [`cfd_validate::detect_violations`] scan of the
//! materialized live instance.
//!
//! ```
//! use cfd_model::cfd::parse_cfd;
//! use cfd_model::csv::relation_from_csv_str;
//! use cfd_model::Violation;
//! use cfd_stream::StreamEngine;
//!
//! let warm = relation_from_csv_str("AC,CT\n908,MH\n131,EDI\n").unwrap();
//! let rule = parse_cfd(&warm, "(AC -> CT, (131 || EDI))").unwrap();
//! let (mut engine, warm_delta) = StreamEngine::warm(&warm, vec![rule], 1);
//! assert!(warm_delta.is_empty(), "the warm data is clean");
//!
//! // a violating tuple arrives …
//! let (ids, delta) = engine.insert_batch(&[vec!["131", "UN"]]).unwrap();
//! assert_eq!(delta.raised, vec![(0, Violation::Single(ids[0]))]);
//! // … and is corrected by the upstream producer
//! let delta = engine.delete_batch(&ids).unwrap();
//! assert_eq!(delta.cleared, vec![(0, Violation::Single(ids[0]))]);
//! assert!(engine.live_violations().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod engine;
pub mod remine;
mod rule;

pub use delta::{BatchDelta, RuleId};
pub use engine::StreamEngine;
pub use remine::{remine, remine_cover, CoverDelta, RemineOptions};
pub use rule::RuleStats;

/// Engine-assigned tuple identifier: monotone per insert, never reused,
/// stable across deletes (unlike the dense ids of a materialized scan).
pub type RowId = cfd_model::relation::TupleId;

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::cfd::parse_cfd;
    use cfd_model::relation::relation_from_rows;
    use cfd_model::{Schema, Violation};
    use cfd_validate::detect_violations;

    /// The cust relation of Fig. 1 (clean variant).
    fn cust() -> cfd_model::Relation {
        let schema = Schema::new(["CC", "AC", "PN", "NM", "STR", "CT", "ZIP"]).unwrap();
        relation_from_rows(
            schema,
            &[
                vec!["01", "908", "1111111", "Mike", "Tree Ave.", "MH", "07974"],
                vec!["01", "908", "1111111", "Rick", "Tree Ave.", "MH", "07974"],
                vec!["01", "212", "2222222", "Joe", "5th Ave", "NYC", "01202"],
                vec!["01", "908", "2222222", "Jim", "Tree Ave.", "MH", "07974"],
                vec!["44", "131", "3333333", "Ben", "High St.", "EDI", "EH4 1DT"],
            ],
        )
        .unwrap()
    }

    fn rules(rel: &cfd_model::Relation) -> Vec<cfd_model::Cfd> {
        vec![
            parse_cfd(rel, "([CC, ZIP] -> STR, (_, _ || _))").unwrap(),
            parse_cfd(rel, "(AC -> CT, (131 || EDI))").unwrap(),
            parse_cfd(rel, "([CC, AC] -> CT, (01, 908 || MH))").unwrap(),
        ]
    }

    #[test]
    fn warm_on_clean_data_reports_nothing() {
        let rel = cust();
        let (engine, delta) = StreamEngine::warm(&rel, rules(&rel), 2);
        assert!(delta.is_empty());
        assert!(engine.live_violations().is_empty());
        assert_eq!(engine.n_live(), 5);
        let stats = engine.stats();
        assert_eq!(stats.len(), 3);
        assert!(stats.iter().all(|s| s.violations == 0));
        assert!(stats.iter().all(|s| (s.confidence() - 1.0).abs() < 1e-12));
        // rule 0 is a plain-pattern FD: every tuple matches its LHS
        assert_eq!(stats[0].matched(), 5);
        // rule 1 matches only the AC=131 tuple
        assert_eq!(stats[1].matched(), 1);
    }

    #[test]
    fn pair_violation_raised_and_cleared() {
        let rel = cust();
        let (mut engine, _) = StreamEngine::warm(&rel, rules(&rel), 1);
        // the new tuple shares CC,ZIP with rows 0/1/3 but has a new street
        let (ids, delta) = engine
            .insert_batch(&[vec![
                "01", "908", "4444444", "Pat", "Oak Ln.", "MH", "07974",
            ]])
            .unwrap();
        let t = ids[0];
        assert_eq!(t, 5);
        assert_eq!(delta.cleared, vec![]);
        assert_eq!(delta.raised, vec![(0, Violation::Pair(0, t))]);
        let stats = engine.stats();
        assert_eq!(stats[0].violations, 1);
        assert!(stats[0].confidence() < 1.0);
        // deleting the dissenter restores a clean state
        let delta = engine.delete_batch(&[t]).unwrap();
        assert_eq!(delta.cleared, vec![(0, Violation::Pair(0, t))]);
        assert!(engine.live_violations().is_empty());
    }

    #[test]
    fn witness_deletion_reanchors_the_group() {
        let rel = cust();
        let rules = vec![parse_cfd(&rel, "([CC, ZIP] -> STR, (_, _ || _))").unwrap()];
        let (mut engine, _) = StreamEngine::warm(&rel, rules, 1);
        // two dissenting streets in the 01/07974 group anchored at row 0
        let (ids, delta) = engine
            .insert_batch(&[
                vec!["01", "908", "5555555", "Ann", "Oak Ln.", "MH", "07974"],
                vec!["01", "908", "6666666", "Bob", "Ash Rd.", "MH", "07974"],
            ])
            .unwrap();
        assert_eq!(
            delta.raised,
            vec![
                (0, Violation::Pair(0, ids[0])),
                (0, Violation::Pair(0, ids[1])),
            ]
        );
        // delete the witness (row 0): rows 1 and 3 (same street) survive;
        // the group re-anchors on row 1 and both dissenters re-attach
        let delta = engine.delete_batch(&[0]).unwrap();
        assert_eq!(
            delta.cleared,
            vec![
                (0, Violation::Pair(0, ids[0])),
                (0, Violation::Pair(0, ids[1])),
            ]
        );
        assert_eq!(
            delta.raised,
            vec![
                (0, Violation::Pair(1, ids[0])),
                (0, Violation::Pair(1, ids[1])),
            ]
        );
        // and the live set matches a fresh batch scan of the live instance
        reconcile(&engine);
    }

    #[test]
    fn unseen_values_get_fresh_codes() {
        let rel = cust();
        let (mut engine, _) = StreamEngine::warm(&rel, rules(&rel), 1);
        // a brand-new country/city pair, never in the warm dictionaries
        let (ids, delta) = engine
            .insert_batch(&[vec!["49", "308", "7", "Uwe", "Bahnstr.", "B", "10115"]])
            .unwrap();
        assert!(delta.is_empty(), "{delta:?}");
        assert_eq!(
            engine.row_values(ids[0]).unwrap(),
            vec!["49", "308", "7", "Uwe", "Bahnstr.", "B", "10115"]
        );
        // a second tuple in the same new group with a different street
        let (ids2, delta) = engine
            .insert_batch(&[vec!["49", "131", "8", "Eva", "Ringstr.", "B", "10115"]])
            .unwrap();
        assert!(delta
            .raised
            .contains(&(0, Violation::Pair(ids[0], ids2[0]))));
        reconcile(&engine);
    }

    #[test]
    fn transient_violations_cancel_within_a_batch() {
        let rel = cust();
        let rules = vec![parse_cfd(&rel, "([CC, ZIP] -> STR, (_, _ || _))").unwrap()];
        let (mut engine, _) = StreamEngine::warm(&rel, rules, 1);
        let (ids, _) = engine
            .insert_batch(&[vec![
                "01", "908", "5555555", "Ann", "Oak Ln.", "MH", "07974",
            ]])
            .unwrap();
        // delete the witness and the dissenter together: the re-anchored
        // dissent never surfaces in the delta
        let delta = engine.delete_batch(&[0, ids[0]]).unwrap();
        assert_eq!(delta.cleared, vec![(0, Violation::Pair(0, ids[0]))]);
        assert_eq!(delta.raised, vec![]);
        reconcile(&engine);
    }

    #[test]
    fn delete_validation() {
        let rel = cust();
        let (mut engine, _) = StreamEngine::warm(&rel, rules(&rel), 1);
        assert!(engine.delete_batch(&[99]).is_err(), "unknown id");
        assert!(engine.delete_batch(&[0, 0]).is_err(), "duplicate in batch");
        engine.delete_batch(&[0]).unwrap();
        assert!(engine.delete_batch(&[0]).is_err(), "double delete");
        assert_eq!(engine.n_live(), 4);
        assert_eq!(engine.n_total(), 5);
        // wrong-width insert is rejected before any mutation
        assert!(engine.insert_batch(&[vec!["just", "two"]]).is_err());
        assert_eq!(engine.n_total(), 5);

        // a rejected batch leaves every live flag as it was, whether a
        // dead id follows live ones or a live id repeats
        let err = |r: cfd_model::Result<BatchDelta>| r.unwrap_err().to_string();
        let ids = engine.live_ids();
        assert_eq!(ids, vec![1, 2, 3, 4]);
        let dead_last = err(engine.delete_batch(&[2, 3, 0]));
        assert!(dead_last.contains("row 0 is not live"), "{dead_last}");
        let repeated = err(engine.delete_batch(&[1, 4, 2, 4]));
        assert!(
            repeated.contains("row 4 deleted twice in batch"),
            "{repeated}"
        );
        let unknown = err(engine.delete_batch(&[3, 1, 99]));
        assert!(unknown.contains("row 99 is not live"), "{unknown}");
        assert_eq!(engine.live_ids(), ids);
        assert!(ids.iter().all(|&t| engine.is_live(t)));
        assert_eq!(engine.n_live(), 4);
        reconcile(&engine);
        // and the rows can still be deleted, each exactly once
        engine.delete_batch(&[2, 3]).unwrap();
        assert_eq!(engine.live_ids(), vec![1, 4]);
        reconcile(&engine);
    }

    #[test]
    fn width_rejected_insert_interns_nothing() {
        let rel = cust();
        let (mut engine, _) = StreamEngine::warm(&rel, rules(&rel), 1);
        let domains = |e: &StreamEngine| -> Vec<usize> {
            let mat = e.materialize();
            (0..mat.arity())
                .map(|a| mat.column(a).dict().len())
                .collect()
        };
        let before = domains(&engine);
        // a full row of unseen values ahead of a short one
        let fresh = vec!["49", "308", "7", "Uwe", "Bahnstr.", "B", "10115"];
        assert!(engine
            .insert_batch(&[fresh.clone(), vec!["49", "308"]])
            .is_err());
        assert_eq!(domains(&engine), before);
        assert_eq!((engine.n_total(), engine.n_live()), (5, 5));
        // the same row alone then takes the next code of every column
        let (ids, _) = engine.insert_batch(&[fresh]).unwrap();
        let mat = engine.materialize();
        for (a, &n) in before.iter().enumerate() {
            assert_eq!(mat.code(ids[0], a), n as u32, "column {a}");
        }
    }

    #[test]
    fn column_at_a_time_codes_equal_row_order_ones() {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let warm_rows = vec![vec!["x", "y", "z"], vec!["y", "x", "z"]];
        // values shared across columns and repeated within a batch, in
        // an order that differs from column to column
        let batches = vec![
            vec![
                vec!["z", "x", "q"],
                vec!["q", "q", "x"],
                vec!["z", "w", "y"],
            ],
            vec![vec!["w", "z", "w"]],
            vec![
                vec!["v", "v", "v"],
                vec!["x", "v", "u"],
                vec!["u", "u", "q"],
            ],
        ];
        let warm = relation_from_rows(schema.clone(), &warm_rows).unwrap();
        let (mut engine, _) = StreamEngine::warm(&warm, Vec::new(), 1);
        let mut all = warm_rows.clone();
        for batch in &batches {
            engine.insert_batch(batch).unwrap();
            all.extend(batch.iter().cloned());
        }
        let want = relation_from_rows(schema, &all).unwrap();
        let got = engine.materialize();
        assert_eq!(got.n_rows(), want.n_rows());
        for a in 0..want.arity() {
            let (g, w) = (got.column(a), want.column(a));
            assert_eq!(g.codes(), w.codes(), "codes of column {a}");
            let values = |d: &cfd_model::relation::Dict| -> Vec<String> {
                (0..d.len() as u32)
                    .map(|c| d.value(c).to_string())
                    .collect()
            };
            assert_eq!(
                values(g.dict()),
                values(w.dict()),
                "dictionary of column {a}"
            );
        }
    }

    #[test]
    fn a_sliding_window_keeps_a_bounded_store() {
        let rel = cust();
        let (engine, _) = StreamEngine::warm(&rel, rules(&rel), 1);
        let sink = std::sync::Arc::new(cfd_obs::Registry::new());
        let mut engine = engine.metrics_with(sink.clone());
        let gauge = |name| sink.snapshot().gauge(name).unwrap() as usize;
        // each batch deletes the 3 oldest live rows and inserts 3 more,
        // drawn round the cust rows with a dissenting street now and
        // then, so witnesses leave and violations come and go
        const BATCH: usize = 3;
        for i in 0..120 {
            let oldest: Vec<RowId> = engine.live_ids()[..BATCH].to_vec();
            engine.delete_batch(&oldest).unwrap();
            let rows: Vec<Vec<String>> = (0..BATCH)
                .map(|j| {
                    let mut row: Vec<String> = rel
                        .tuple_values(((i * BATCH + j) % rel.n_rows()) as u32)
                        .into_iter()
                        .map(String::from)
                        .collect();
                    if (i + j) % 7 == 0 {
                        row[4] = format!("Side St. {}", i % 3);
                    }
                    row
                })
                .collect();
            engine.insert_batch(&rows).unwrap();
            let (live, stored) = (gauge("stream.live_rows"), gauge("stream.stored_rows"));
            assert_eq!(live, engine.n_live());
            assert!(stored <= 2 * live + BATCH, "batch {i}: {stored} stored");
            if i % 10 == 9 {
                reconcile(&engine);
            }
        }
        assert_eq!(engine.n_total(), 5 + 120 * BATCH);
        assert!(gauge("stream.stored_rows") < 2 * 5 + BATCH);
        // ids below the reclaimed base read as dead, ids above as before
        assert!(!engine.is_live(0) && engine.row_values(0).is_none());
        let last = engine.n_total() as RowId - 1;
        assert!(engine.is_live(last) && engine.row_values(last).is_some());
        assert!(!engine.is_live(last + 1));
        assert!(engine.delete_batch(&[0]).is_err());
        reconcile(&engine);
    }

    #[test]
    fn sharding_is_behaviorally_invisible() {
        let rel = cust();
        let dirty = vec![
            vec!["01", "908", "9", "Zed", "Low St.", "MH", "07974"],
            vec!["44", "131", "9", "Kim", "High St.", "UN", "EH4 1DT"],
        ];
        let mut all: Vec<Vec<(usize, Violation)>> = Vec::new();
        for threads in [1usize, 2, 3, 8] {
            let (mut engine, warm_delta) = StreamEngine::warm(&rel, rules(&rel), threads);
            assert!(warm_delta.is_empty());
            let (_, d1) = engine.insert_batch(&dirty).unwrap();
            assert!(!d1.is_empty());
            all.push(engine.live_violations());
            reconcile(&engine);
        }
        assert!(all.windows(2).all(|w| w[0] == w[1]));

        // 8 rules over 500 warm rows and 500-row batches: the warm
        // (rows × rules), both batches (rows × the five rules with no
        // LHS constant) and the cover swap (rows × 7 rules) cross
        // `MIN_PARALLEL_WORK`, so they fan out, and a request for
        // `usize::MAX` workers runs on the cores the process has
        let rows = |ids: std::ops::Range<usize>| -> Vec<Vec<String>> {
            ids.map(|i| {
                [("a", 7), ("b", 5), ("c", 3), ("d", 11)]
                    .iter()
                    .map(|&(name, m)| format!("{name}{}", i % m))
                    .collect()
            })
            .collect()
        };
        let schema = Schema::new(["A", "B", "C", "D"]).unwrap();
        let warm = relation_from_rows(schema, &rows(0..500)).unwrap();
        let cover: Vec<cfd_model::Cfd> = [
            "(A -> B, (_ || _))",
            "(B -> C, (_ || _))",
            "([A, C] -> D, (_, _ || _))",
            "(D -> A, (_ || _))",
            "(C -> B, (c1 || _))",
            "(A -> D, (a1 || d1))",
            "([B, D] -> A, (b2, _ || _))",
            "(C -> A, (_ || a3))",
        ]
        .iter()
        .map(|r| parse_cfd(&warm, r).unwrap())
        .collect();
        let run = |threads: usize| {
            let (mut engine, warmed) = StreamEngine::warm(&warm, cover.clone(), threads);
            let (_, inserted) = engine.insert_batch(&rows(1000..1500)).unwrap();
            let deleted = engine.delete_batch(&(0..500).collect::<Vec<_>>()).unwrap();
            let swap = CoverDelta {
                neighborhood: Vec::new(),
                retired: [0, 3]
                    .map(|rule| remine::RetiredRule {
                        rule,
                        text: String::new(),
                        measure: cfd_model::RuleMeasure::exact(0),
                    })
                    .to_vec(),
                replacement: vec![cover[1].clone()],
                replacement_texts: Vec::new(),
                replacement_measures: Vec::new(),
                post_measures: Vec::new(),
            };
            engine.apply_cover_delta(&engine.materialize(), &swap);
            reconcile(&engine);
            (
                [warmed, inserted, deleted],
                engine.live_violations(),
                engine.stats(),
            )
        };
        let serial = run(1);
        assert!(serial.0.iter().all(|d| !d.is_empty()));
        for threads in [2, usize::MAX] {
            assert_eq!(run(threads), serial, "threads {threads}");
        }
    }

    /// Asserts the engine's live violation set equals a batch scan of
    /// the materialized live instance.
    fn reconcile(engine: &StreamEngine) {
        let mat = engine.materialize();
        let ids = engine.live_ids();
        let mut want: Vec<(usize, Violation)> = detect_violations(&mat, engine.rules())
            .into_iter()
            .map(|(r, v)| {
                (
                    r,
                    match v {
                        Violation::Single(t) => Violation::Single(ids[t as usize]),
                        Violation::Pair(a, b) => Violation::Pair(ids[a as usize], ids[b as usize]),
                    },
                )
            })
            .collect();
        want.sort_unstable();
        assert_eq!(engine.live_violations(), want);
    }

    #[test]
    fn materialize_preserves_codes_and_order() {
        let rel = cust();
        let (mut engine, _) = StreamEngine::warm(&rel, rules(&rel), 1);
        engine.delete_batch(&[1, 3]).unwrap();
        engine
            .insert_batch(&[vec!["01", "212", "2", "Max", "5th Ave", "NYC", "01202"]])
            .unwrap();
        let mat = engine.materialize();
        assert_eq!(mat.n_rows(), 4);
        assert_eq!(mat.tuple_values(0), rel.tuple_values(0));
        assert_eq!(mat.tuple_values(1), rel.tuple_values(2));
        assert_eq!(mat.tuple_values(2), rel.tuple_values(4));
        assert_eq!(
            mat.tuple_values(3),
            vec!["01", "212", "2", "Max", "5th Ave", "NYC", "01202"]
        );
        // codes comparable with the warm relation
        assert_eq!(mat.code(0, 0), rel.code(0, 0));
    }
}
