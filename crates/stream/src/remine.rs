//! Scoped re-discovery under streaming drift — the self-healing loop
//! that closes `cfd watch`'s detect-only gap (DESIGN.md §13).
//!
//! A [`StreamEngine`] keeps per-rule g1 confidence current at all
//! times; when a rule's live confidence falls below the watch θ the
//! rule has *drifted* — the data changed under it and the cover no
//! longer describes the stream. [`remine`] repairs the cover in place:
//!
//! 1. **Trigger** (`remine.trigger`): collect the rules whose live
//!    [`RuleStats`](crate::RuleStats) confidence is below θ (vacuous
//!    rules with zero matching support are skipped — nothing matches,
//!    so nothing drifted).
//! 2. **Project** (`remine.project`): take the drifted rules'
//!    attribute *neighborhood* — the union of their LHS∪RHS attributes
//!    plus up to `expand` co-occurring attributes from rules sharing
//!    an attribute with that core — and project the materialized live
//!    instance onto it. The projection shares the engine's
//!    dictionaries, so codes carry over; only attribute ids are
//!    renumbered.
//! 3. **Mine** (`remine.mine`): run a level-wise approximate miner
//!    (CTANE, or TANE when the retired rules are all plain FDs) on the
//!    projection under the watch θ, through the same
//!    [`Discoverer::discover_with`] door as every other consumer. The
//!    run builds its own partitions, so the cover is byte-identical at
//!    any thread count.
//! 4. **Apply** (`remine.apply`): retire every rule whose attributes
//!    fall inside the neighborhood (the scoped mine re-derives that
//!    area's cover wholesale) and install the re-mined rules through
//!    [`StreamEngine::apply_cover_delta`] — the atomic cover swap that
//!    rebuilds per-rule indexes via the shared
//!    [`cfd_validate::CoverPlan`] warm path.
//!
//! The returned [`CoverDelta`] carries the retired and replacement
//! rules plus `post_measures`: the *kernel-validated* measure of every
//! rule in the live cover after the swap, recomputed by
//! [`cfd_validate::measure_cover`] — every entry meets θ, because
//! kept rules were not drifted and replacements carry the miner's θ
//! guarantee (measures on the projection equal measures on the live
//! instance: same rows, same codes).

use crate::delta::{BatchDelta, RuleId};
use crate::engine::StreamEngine;
use cfd_core::api::{Algo, DiscoverError, DiscoverOptions, Discoverer};
use cfd_model::attrset::AttrSet;
use cfd_model::pattern::Pattern;
use cfd_model::progress::{Cancelled, Control};
use cfd_model::schema::AttrId;
use cfd_model::{Cfd, RuleMeasure};

/// Knobs of one re-mining cycle.
#[derive(Clone, Copy, Debug)]
pub struct RemineOptions {
    /// Drift threshold *and* re-discovery confidence floor: a rule
    /// whose live g1 confidence drops below θ triggers the cycle, and
    /// replacement rules are mined with `min_confidence = θ`.
    pub theta: f64,
    /// Maximum number of attributes added to the drifted rules' own
    /// LHS∪RHS when forming the projection neighborhood (smallest
    /// co-occurring attribute ids first — deterministic).
    pub expand: usize,
    /// Support threshold `k ≥ 1` for re-discovered rules (CTANE's `k`).
    pub k: usize,
    /// Optional LHS size cap for re-discovery.
    pub max_lhs: Option<usize>,
    /// Worker threads for mining and the post-apply validation pass.
    /// The outcome is byte-identical at any thread count.
    pub threads: usize,
}

impl Default for RemineOptions {
    fn default() -> RemineOptions {
        RemineOptions {
            theta: 0.95,
            expand: 1,
            k: 1,
            max_lhs: None,
            threads: 1,
        }
    }
}

impl RemineOptions {
    /// Checks that θ lies in (0, 1] — the one range check behind
    /// `cfd watch --remine-theta`, the serve `remine` op and [`remine`].
    pub fn check_theta(theta: f64) -> Result<(), String> {
        if theta > 0.0 && theta <= 1.0 {
            Ok(())
        } else {
            Err(format!("theta must be within (0, 1], got {theta}"))
        }
    }
}

/// A retired rule, as the cover held it before the swap.
#[derive(Clone, Debug)]
pub struct RetiredRule {
    /// The rule's id before the swap.
    pub rule: RuleId,
    /// Display form (the paper's syntax).
    pub text: String,
    /// Live measure at trigger time.
    pub measure: RuleMeasure,
}

/// The outcome of one re-mining cycle: what was retired, what replaced
/// it, and the kernel-validated state of the cover afterwards.
#[derive(Clone, Debug)]
pub struct CoverDelta {
    /// The projected attribute neighborhood, ascending.
    pub neighborhood: Vec<AttrId>,
    /// Rules retired by the swap (every rule whose LHS∪RHS fell inside
    /// the neighborhood, drifted or not — the scoped mine re-derives
    /// that area's cover wholesale).
    pub retired: Vec<RetiredRule>,
    /// Replacement rules, codes referring to the engine's dictionaries.
    pub replacement: Vec<Cfd>,
    /// Display forms of `replacement`, aligned.
    pub replacement_texts: Vec<String>,
    /// Miner-reported measures of `replacement`, aligned (computed on
    /// the projection; equal to live-instance measures by construction).
    pub replacement_measures: Vec<RuleMeasure>,
    /// Kernel-validated ([`cfd_validate::measure_cover`]) measure of
    /// every rule in the live cover *after* the swap, in rule-id order.
    /// Every entry's confidence meets θ.
    pub post_measures: Vec<RuleMeasure>,
    /// Violation transitions of the swap (see
    /// [`StreamEngine::apply_cover_delta`] for the id convention).
    pub batch: BatchDelta,
}

impl CoverDelta {
    /// The lowest confidence in [`post_measures`](CoverDelta::post_measures)
    /// (1.0 for an empty cover; a rule with no matching support counts
    /// as 1.0).
    pub fn min_confidence(&self) -> f64 {
        self.post_measures
            .iter()
            .map(RuleMeasure::confidence)
            .fold(1.0, f64::min)
    }
}

/// The rules whose live confidence has drifted below `theta`, in
/// rule-id order. Vacuous rules (zero matching live support) are not
/// drifted: their confidence is 1.0 by convention and there is no data
/// to re-mine.
fn drifted_rules(stats: &[crate::RuleStats], theta: f64) -> Vec<RuleId> {
    stats
        .iter()
        .filter(|s| s.matched() > 0 && s.confidence() < theta)
        .map(|s| s.rule)
        .collect()
}

/// Runs one re-mining cycle: trigger → project → mine → apply.
/// Returns `Ok(None)` when no rule has drifted (the engine is left
/// untouched). Cancellation via `ctrl` aborts during the mining phase
/// with the engine still untouched — the apply step itself is atomic
/// and uncancellable.
///
/// # Panics
///
/// When θ lies outside (0, 1] or `k` is 0: callers validate both.
pub fn remine(
    engine: &mut StreamEngine,
    opts: &RemineOptions,
    ctrl: &Control<'_>,
) -> Result<Option<CoverDelta>, Cancelled> {
    RemineOptions::check_theta(opts.theta).unwrap_or_else(|e| panic!("{e}"));
    let stats = {
        let _sp = cfd_obs::span!("remine.trigger");
        engine.stats()
    };
    let drifted = drifted_rules(&stats, opts.theta);
    if drifted.is_empty() {
        return Ok(None);
    }
    if let Some(m) = engine.metrics_sink() {
        m.add("remine.triggered", 1);
    }

    let nb_set = neighborhood(engine, &drifted, opts.expand);
    // retire every rule fully inside the neighborhood: the scoped mine
    // re-derives that area's cover, so keeping old rules there would
    // duplicate or contradict it
    let retired_ids: Vec<RuleId> = engine
        .rules()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.lhs_attrs().with(c.rhs_attr()).is_subset(nb_set))
        .map(|(i, _)| i)
        .collect();
    debug_assert!(drifted.iter().all(|r| retired_ids.contains(r)));

    // project the live instance onto the neighborhood (shared
    // dictionaries: codes carry over, only attribute ids renumber)
    let proj = {
        let _sp = cfd_obs::span!("remine.project");
        engine
            .materialize()
            .project(nb_set)
            .expect("neighborhood attrs come from the engine's own schema")
    };
    let nb: Vec<AttrId> = nb_set.iter().collect();

    // mine the neighborhood under θ
    let fd_only = retired_ids.iter().all(|&r| engine.rules()[r].is_plain_fd());
    let mined = {
        let _sp = cfd_obs::span!("remine.mine");
        let algo = if fd_only { Algo::Tane } else { Algo::Ctane };
        let dopts = DiscoverOptions {
            max_lhs: opts.max_lhs,
            threads: opts.threads.max(1),
            min_confidence: opts.theta,
            ..DiscoverOptions::new(opts.k)
        };
        match algo.discover_with(&proj, &dopts, ctrl) {
            Ok(d) => d,
            Err(DiscoverError::Cancelled) => return Err(Cancelled),
            Err(e) => panic!("{e}"),
        }
    };

    // map the mined cover back to engine attribute ids (codes are
    // already the engine's — the projection shares its dictionaries)
    let mut replacement: Vec<Cfd> = Vec::with_capacity(mined.cover.len());
    for cfd in mined.cover.iter() {
        let lhs = Pattern::from_pairs(cfd.lhs().iter().map(|(a, v)| (nb[a], v)));
        replacement.push(Cfd::new(lhs, nb[cfd.rhs_attr()], cfd.rhs_val()));
    }

    let retired: Vec<RetiredRule> = retired_ids
        .iter()
        .map(|&r| RetiredRule {
            rule: r,
            text: engine.rule_text(r).to_string(),
            measure: stats[r].measure,
        })
        .collect();

    let batch = {
        let _sp = cfd_obs::span!("remine.apply");
        engine.apply_cover_delta(&retired_ids, replacement.clone())
    };
    if let Some(m) = engine.metrics_sink() {
        m.add("remine.rules_retired", retired.len() as u64);
        m.add("remine.rules_added", replacement.len() as u64);
    }

    // kernel-validated acceptance: every surviving rule meets θ
    let live = engine.materialize();
    let post_measures = cfd_validate::measure_cover(&live, engine.rules(), opts.threads);
    debug_assert!(post_measures
        .iter()
        .all(|m| m.support == 0 || m.confidence() >= opts.theta));
    let replacement_texts = replacement.iter().map(|c| c.display(&live)).collect();

    Ok(Some(CoverDelta {
        neighborhood: nb,
        retired,
        replacement,
        replacement_texts,
        replacement_measures: mined.measures,
        post_measures,
        batch,
    }))
}

/// The drifted rules' attribute neighborhood: the union of their
/// LHS∪RHS attributes, expanded by up to `expand` more. Expansion
/// prefers attributes that co-occur (in any rule of the cover) with an
/// attribute of that core — they are the ones the cover already links
/// to the drifted area — and falls back to the remaining schema
/// attributes, so a replacement rule can pick up a determinant the old
/// cover never mentioned. Smallest attribute ids win within each tier —
/// deterministic regardless of rule order or thread count.
fn neighborhood(engine: &StreamEngine, drifted: &[RuleId], expand: usize) -> AttrSet {
    let attrs_of = |c: &Cfd| c.lhs_attrs().with(c.rhs_attr());
    let mut core = AttrSet::EMPTY;
    for &r in drifted {
        core = core.union(attrs_of(&engine.rules()[r]));
    }
    let mut candidates = AttrSet::EMPTY;
    for c in engine.rules() {
        let a = attrs_of(c);
        if a.intersects(core) {
            candidates = candidates.union(a);
        }
    }
    let mut nb = core;
    let mut budget = expand;
    for a in candidates.difference(core).iter() {
        if budget == 0 {
            break;
        }
        nb.insert(a);
        budget -= 1;
    }
    let all = AttrSet::full(engine.schema().arity());
    for a in all.difference(nb).iter() {
        if budget == 0 {
            break;
        }
        nb.insert(a);
        budget -= 1;
    }
    nb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StreamEngine;
    use cfd_model::cfd::parse_cfd;
    use cfd_model::relation::relation_from_rows;
    use cfd_model::{Schema, Violation};
    use cfd_validate::detect_violations;

    /// A relation where A → B holds on the warm window but only
    /// [A, C] → B survives the drift batch.
    fn warm_rel() -> cfd_model::Relation {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        relation_from_rows(
            schema,
            &[
                vec!["a1", "b1", "c1"],
                vec!["a1", "b1", "c1"],
                vec!["a2", "b2", "c1"],
                vec!["a2", "b2", "c1"],
            ],
        )
        .unwrap()
    }

    /// The plain FD of the drift fixture (re-mined by TANE) and a
    /// conditional rule it breaks the same way (re-mined by CTANE).
    const FD: &str = "(A -> B, (_ || _))";
    const CONDITIONAL: &str = "([A] -> B, (a1 || _))";

    fn drift_engine(rule: &str, threads: usize) -> StreamEngine {
        let rel = warm_rel();
        let rules = vec![parse_cfd(&rel, rule).unwrap()];
        let (mut engine, delta) = StreamEngine::warm(&rel, rules, threads);
        assert!(delta.is_empty());
        // drift: within A = a1, B now splits by C — A → B collapses
        // to 4/8 confidence, while [A, C] → B holds exactly
        engine
            .insert_batch(&[
                vec!["a1", "b9", "c2"],
                vec!["a1", "b9", "c2"],
                vec!["a2", "b8", "c2"],
                vec!["a2", "b8", "c2"],
            ])
            .unwrap();
        engine
    }

    /// Asserts the engine's live violation set still reconciles with a
    /// batch scan of the materialized live instance — the invariant the
    /// atomic cover swap must preserve.
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
    fn clean_engine_does_not_trigger() {
        let rel = warm_rel();
        let rules = vec![parse_cfd(&rel, "(A -> B, (_ || _))").unwrap()];
        let (mut engine, _) = StreamEngine::warm(&rel, rules, 1);
        let opts = RemineOptions::default();
        let out = remine(&mut engine, &opts, &Control::default()).unwrap();
        assert!(out.is_none());
        assert_eq!(engine.rules().len(), 1);
    }

    #[test]
    fn drift_retires_and_replaces_the_rule() {
        let mut engine = drift_engine(FD, 1);
        assert_eq!(drifted_rules(&engine.stats(), 0.95), vec![0]);
        let opts = RemineOptions {
            theta: 0.95,
            expand: 1,
            ..RemineOptions::default()
        };
        let delta = remine(&mut engine, &opts, &Control::default())
            .unwrap()
            .expect("drift triggers");
        // the neighborhood expanded to C (the only attr left)
        assert_eq!(delta.neighborhood, vec![0, 1, 2]);
        assert_eq!(delta.retired.len(), 1);
        assert_eq!(delta.retired[0].rule, 0);
        assert!(delta.retired[0].measure.confidence() < 0.95);
        // [A, C] → B is re-discovered (alongside whatever else meets θ)
        let ac_b = engine
            .rules()
            .iter()
            .any(|c| c.is_plain_fd() && c.lhs_attrs().contains(0) && c.lhs_attrs().contains(2));
        assert!(
            ac_b,
            "expected a [A, C] determinant: {:?}",
            delta.replacement_texts
        );
        // kernel-validated: every surviving rule meets θ
        assert_eq!(delta.post_measures.len(), engine.rules().len());
        for m in &delta.post_measures {
            assert!(m.support == 0 || m.confidence() >= 0.95);
        }
        // the swapped engine still reconciles with a batch scan …
        reconcile(&engine);
        // … and keeps absorbing traffic incrementally
        engine.insert_batch(&[vec!["a3", "b3", "c3"]]).unwrap();
        reconcile(&engine);
    }

    #[test]
    fn remine_is_thread_invariant() {
        let opts1 = RemineOptions {
            threads: 1,
            ..RemineOptions::default()
        };
        let opts4 = RemineOptions {
            threads: 4,
            ..RemineOptions::default()
        };
        let mut base = drift_engine(FD, 1);
        let d1 = remine(&mut base, &opts1, &Control::default())
            .unwrap()
            .unwrap();
        for (engine_threads, opts) in [(1, opts4), (2, opts1), (4, opts4)] {
            let mut engine = drift_engine(FD, engine_threads);
            let d = remine(&mut engine, &opts, &Control::default())
                .unwrap()
                .unwrap();
            assert_eq!(d.replacement_texts, d1.replacement_texts);
            assert_eq!(d.neighborhood, d1.neighborhood);
            assert_eq!(d.post_measures, d1.post_measures);
            assert_eq!(engine.rules(), base.rules());
        }
    }

    #[test]
    fn kept_rules_outside_the_neighborhood_survive() {
        let schema = Schema::new(["A", "B", "C", "D", "E"]).unwrap();
        let rel = relation_from_rows(
            schema,
            &[
                vec!["a1", "b1", "c1", "d1", "e1"],
                vec!["a1", "b1", "c1", "d1", "e1"],
                vec!["a2", "b2", "c1", "d2", "e2"],
                vec!["a2", "b2", "c1", "d2", "e2"],
            ],
        )
        .unwrap();
        let rules = vec![
            parse_cfd(&rel, "(A -> B, (_ || _))").unwrap(),
            parse_cfd(&rel, "(D -> E, (_ || _))").unwrap(),
        ];
        let (mut engine, _) = StreamEngine::warm(&rel, rules, 2);
        // drift A → B only; D → E stays exact
        engine
            .insert_batch(&[
                vec!["a1", "b9", "c2", "d1", "e1"],
                vec!["a1", "b9", "c2", "d1", "e1"],
            ])
            .unwrap();
        let opts = RemineOptions {
            expand: 1,
            ..RemineOptions::default()
        };
        let delta = remine(&mut engine, &opts, &Control::default())
            .unwrap()
            .unwrap();
        assert_eq!(delta.retired.len(), 1, "{:?}", delta.retired);
        // D → E survives the swap with its index intact
        assert!(engine
            .rules()
            .iter()
            .any(|c| c.is_plain_fd() && c.lhs_attrs().contains(3) && c.rhs_attr() == 4));
        reconcile(&engine);
    }

    #[test]
    fn cancellation_leaves_the_engine_untouched() {
        use std::sync::atomic::AtomicBool;
        let mut engine = drift_engine(FD, 1);
        let before = engine.rules().to_vec();
        let cancel = AtomicBool::new(true);
        let ctrl = Control::default().cancel_with(&cancel);
        let opts = RemineOptions::default();
        assert!(remine(&mut engine, &opts, &ctrl).is_err());
        assert_eq!(engine.rules(), &before[..]);
        reconcile(&engine);
    }

    /// A metrics sink that trips a cancellation flag after `after`
    /// `control.checks` emissions — `check()` counts before it polls
    /// the flag, so this cancels *exactly at* the `after`-th checkpoint
    /// of a run, deterministically.
    struct TripAfter<'a> {
        after: u64,
        seen: std::sync::atomic::AtomicU64,
        flag: &'a std::sync::atomic::AtomicBool,
    }

    impl cfd_model::progress::MetricsSink for TripAfter<'_> {
        fn add(&self, name: &'static str, delta: u64) {
            use std::sync::atomic::Ordering;
            if name == "control.checks"
                && self.seen.fetch_add(delta, Ordering::Relaxed) + delta >= self.after
            {
                self.flag.store(true, Ordering::Relaxed);
            }
        }
        fn set_gauge(&self, _name: &'static str, _value: u64) {}
        fn observe(&self, _name: &'static str, _value: u64) {}
    }

    /// Cancellation at *every* checkpoint a full run passes through:
    /// wherever mid-mine the run stops, the engine's cover and
    /// violation index are exactly the pre-remine ones — the swap is
    /// all-or-nothing, never a partially applied `CoverDelta`.
    #[test]
    fn mid_mine_cancellation_applies_no_partial_delta() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        let opts = RemineOptions {
            theta: 0.95,
            expand: 1,
            ..RemineOptions::default()
        };
        // count the checkpoints of an uncancelled run
        struct CountChecks(AtomicU64);
        impl cfd_model::progress::MetricsSink for CountChecks {
            fn add(&self, name: &'static str, delta: u64) {
                if name == "control.checks" {
                    self.0.fetch_add(delta, Ordering::Relaxed);
                }
            }
            fn set_gauge(&self, _name: &'static str, _value: u64) {}
            fn observe(&self, _name: &'static str, _value: u64) {}
        }
        // both branches: TANE for the plain FD, CTANE for the
        // conditional rule
        for rule in [FD, CONDITIONAL] {
            let counter = CountChecks(AtomicU64::new(0));
            let mut engine = drift_engine(rule, 1);
            remine(
                &mut engine,
                &opts,
                &Control::default().metrics_with(&counter),
            )
            .unwrap()
            .expect("drift triggers");
            let total = counter.0.load(Ordering::Relaxed);
            assert!(total > 1, "{rule}: remine passed only {total} checkpoints");

            for k in 1..=total {
                let mut engine = drift_engine(rule, 1);
                let before = engine.rules().to_vec();
                let flag = AtomicBool::new(false);
                let trip = TripAfter {
                    after: k,
                    seen: AtomicU64::new(0),
                    flag: &flag,
                };
                let ctrl = Control::default().cancel_with(&flag).metrics_with(&trip);
                assert!(
                    remine(&mut engine, &opts, &ctrl).is_err(),
                    "{rule}: checkpoint {k}/{total} did not stop the run"
                );
                assert_eq!(
                    engine.rules(),
                    &before[..],
                    "{rule}: partial swap at checkpoint {k}"
                );
                reconcile(&engine);
            }
        }
    }

    /// An already-expired deadline aborts like a pre-set cancel flag:
    /// before the swap, engine untouched.
    #[test]
    fn expired_deadline_aborts_before_the_swap() {
        use std::time::{Duration, Instant};
        let mut engine = drift_engine(FD, 1);
        let before = engine.rules().to_vec();
        let ctrl = Control::default().deadline_with(Instant::now() - Duration::from_millis(1));
        let opts = RemineOptions::default();
        assert!(remine(&mut engine, &opts, &ctrl).is_err());
        assert_eq!(engine.rules(), &before[..]);
        reconcile(&engine);
    }
}
