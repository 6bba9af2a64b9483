//! Scoped re-discovery under drift — the self-healing loop that closes
//! `cfd watch`'s detect-only gap (DESIGN.md §13).
//!
//! A rule has *drifted* when its confidence on the instance falls below
//! the watch θ: the data changed under it and the cover no longer
//! describes it. One cycle is a function of a relation, a cover whose
//! codes refer to it, and that cover's per-rule measures on it.
//! [`remine_cover`] runs it:
//!
//! 1. **Trigger**: collect the rules whose confidence is below θ
//!    (vacuous rules with zero matching support are skipped — nothing
//!    matches, so nothing drifted).
//! 2. **Project** (`remine.project`): take the drifted rules' attribute
//!    *neighborhood* — the union of their LHS∪RHS attributes plus up
//!    to `expand` co-occurring attributes from rules sharing an
//!    attribute with that core — and project the relation onto it. The
//!    projection shares the relation's dictionaries, so codes carry
//!    over; only attribute ids are renumbered.
//! 3. **Mine** (`remine.mine`): run a level-wise approximate miner
//!    (CTANE, or TANE when the retired rules are all plain FDs) on the
//!    projection under the watch θ, through the same
//!    [`Discoverer::discover_with`] door as every other consumer. The
//!    run builds its own partitions, so the cover is byte-identical at
//!    any thread count.
//! 4. **Verify**: retire every rule whose attributes fall inside the
//!    neighborhood (the scoped mine re-derives that area's cover
//!    wholesale), append the re-mined rules, and measure the swapped
//!    cover with [`cfd_validate::measure_cover`].
//!
//! [`remine`] runs the cycle on a [`StreamEngine`]: the trigger reads
//! its live per-rule stats (`remine.trigger`), and a cycle that
//! triggers materializes the live instance once, for both the cycle and
//! the atomic cover swap (`remine.apply`).

use crate::delta::RuleId;
use crate::engine::StreamEngine;
use cfd_core::api::{Algo, DiscoverError, DiscoverOptions, Discoverer};
use cfd_model::attrset::AttrSet;
use cfd_model::pattern::Pattern;
use cfd_model::progress::{Cancelled, Control};
use cfd_model::schema::AttrId;
use cfd_model::{Cfd, Relation, RuleMeasure};

/// Knobs of one re-mining cycle.
#[derive(Clone, Copy, Debug)]
pub struct RemineOptions {
    /// Drift threshold *and* re-discovery confidence floor: a rule
    /// whose g1 confidence drops below θ triggers the cycle, and
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
    /// Worker threads for mining and the verifying validation pass.
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
    /// `cfd watch --remine-theta`, the serve `remine` op and the cycle.
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
    /// The rule's index in the cover before the swap.
    pub rule: RuleId,
    /// Display form (the paper's syntax).
    pub text: String,
    /// Measure at trigger time.
    pub measure: RuleMeasure,
}

/// The outcome of one re-mining cycle: what was retired, what replaced
/// it, and the kernel-validated state of the swapped cover.
#[derive(Clone, Debug)]
pub struct CoverDelta {
    /// The projected attribute neighborhood, ascending.
    pub neighborhood: Vec<AttrId>,
    /// Rules retired by the swap, in rule-id order (every rule whose
    /// LHS∪RHS fell inside the neighborhood, drifted or not — the
    /// scoped mine re-derives that area's cover wholesale).
    pub retired: Vec<RetiredRule>,
    /// Replacement rules, codes referring to the cycle's relation.
    pub replacement: Vec<Cfd>,
    /// Display forms of `replacement`, aligned.
    pub replacement_texts: Vec<String>,
    /// Miner-reported measures of `replacement`, aligned (computed on
    /// the projection; equal to the relation's measures by construction).
    pub replacement_measures: Vec<RuleMeasure>,
    /// Kernel-validated ([`cfd_validate::measure_cover`]) measure of
    /// every rule of the swapped cover — the kept rules in their order,
    /// then the replacements. Every entry's confidence meets θ.
    pub post_measures: Vec<RuleMeasure>,
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

/// The rules whose confidence has drifted below `theta`, in rule-id
/// order; panics when θ lies outside (0, 1]. Vacuous rules (zero
/// matching support) are not drifted: their confidence is 1.0 by
/// convention and there is no data to re-mine.
fn drifted_rules(measures: &[RuleMeasure], theta: f64) -> Vec<RuleId> {
    RemineOptions::check_theta(theta).unwrap_or_else(|e| panic!("{e}"));
    (0..measures.len())
        .filter(|&r| measures[r].support > 0 && measures[r].confidence() < theta)
        .collect()
}

/// Runs one re-mining cycle on `rel`: trigger → project → mine →
/// verify. `cover`'s codes refer to `rel`, and `measures` are its
/// per-rule measures on `rel`, aligned. Returns `Ok(None)` when no rule
/// has drifted; cancellation via `ctrl` aborts during the mining phase.
///
/// # Panics
///
/// When θ lies outside (0, 1] or `k` is 0: callers validate both.
pub fn remine_cover(
    rel: &Relation,
    cover: &[Cfd],
    measures: &[RuleMeasure],
    opts: &RemineOptions,
    ctrl: &Control<'_>,
) -> Result<Option<CoverDelta>, Cancelled> {
    let drifted = drifted_rules(measures, opts.theta);
    if drifted.is_empty() {
        return Ok(None);
    }
    let nb_set = neighborhood(cover, rel.arity(), &drifted, opts.expand);
    // retire every rule fully inside the neighborhood: the scoped mine
    // re-derives that area's cover, so keeping old rules there would
    // duplicate or contradict it
    let inside = |c: &Cfd| attrs_of(c).is_subset(nb_set);
    debug_assert!(drifted.iter().all(|&r| inside(&cover[r])));
    let retired: Vec<RetiredRule> = (0..cover.len())
        .filter(|&r| inside(&cover[r]))
        .map(|rule| RetiredRule {
            rule,
            text: cover[rule].display(rel),
            measure: measures[rule],
        })
        .collect();

    // project onto the neighborhood (shared dictionaries: codes carry
    // over, only attribute ids renumber)
    let proj = {
        let _sp = cfd_obs::span!("remine.project");
        rel.project(nb_set)
            .expect("neighborhood attrs come from the relation's own schema")
    };
    let nb: Vec<AttrId> = nb_set.iter().collect();

    // mine the neighborhood under θ
    let fd_only = retired.iter().all(|r| cover[r.rule].is_plain_fd());
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

    // map the mined cover back to the relation's attribute ids (codes
    // are already its own — the projection shares its dictionaries)
    let replacement: Vec<Cfd> = mined
        .cover
        .iter()
        .map(|cfd| {
            let lhs = Pattern::from_pairs(cfd.lhs().iter().map(|(a, v)| (nb[a], v)));
            Cfd::new(lhs, nb[cfd.rhs_attr()], cfd.rhs_val())
        })
        .collect();

    // kernel-validated acceptance: every rule of the swapped cover
    // meets θ
    let kept = cover.iter().filter(|c| !inside(c));
    let post_measures = cfd_validate::measure_cover(rel, kept.chain(&replacement), opts.threads);
    debug_assert!(post_measures
        .iter()
        .all(|m| m.support == 0 || m.confidence() >= opts.theta));

    Ok(Some(CoverDelta {
        neighborhood: nb,
        retired,
        replacement_texts: replacement.iter().map(|c| c.display(rel)).collect(),
        replacement,
        replacement_measures: mined.measures,
        post_measures,
    }))
}

/// Runs [`remine_cover`] on the engine's live instance, triggered by
/// its live per-rule stats, and swaps the engine's cover to the
/// result: kept rules keep their order and take ids `0..kept`,
/// replacements follow. Returns `Ok(None)`, with nothing materialized,
/// when no rule has drifted. A cancelled cycle leaves the engine
/// untouched; the swap itself is atomic and uncancellable.
///
/// # Panics
///
/// When θ lies outside (0, 1] or `k` is 0: callers validate both.
pub fn remine(
    engine: &mut StreamEngine,
    opts: &RemineOptions,
    ctrl: &Control<'_>,
) -> Result<Option<CoverDelta>, Cancelled> {
    let measures: Vec<RuleMeasure> = {
        let _sp = cfd_obs::span!("remine.trigger");
        engine.stats().iter().map(|s| s.measure).collect()
    };
    if drifted_rules(&measures, opts.theta).is_empty() {
        return Ok(None);
    }
    if let Some(m) = engine.metrics_sink() {
        m.add("remine.triggered", 1);
    }
    let live = engine.materialize();
    let delta = remine_cover(&live, engine.rules(), &measures, opts, ctrl)?
        .expect("the trigger saw the same measures");
    {
        let _sp = cfd_obs::span!("remine.apply");
        engine.apply_cover_delta(&live, &delta);
    }
    if let Some(m) = engine.metrics_sink() {
        m.add("remine.rules_retired", delta.retired.len() as u64);
        m.add("remine.rules_added", delta.replacement.len() as u64);
    }
    Ok(Some(delta))
}

/// The attributes a rule mentions: its LHS and its RHS.
fn attrs_of(c: &Cfd) -> AttrSet {
    c.lhs_attrs().with(c.rhs_attr())
}

/// The drifted rules' attribute neighborhood: the union of their
/// LHS∪RHS attributes, expanded by up to `expand` more. Expansion
/// prefers attributes that co-occur (in any rule of the cover) with an
/// attribute of that core — they are the ones the cover already links
/// to the drifted area — and falls back to the remaining attributes of
/// the `arity`-wide schema, so a replacement rule can pick up a
/// determinant the old cover never mentioned. Smallest attribute ids
/// win within each tier — deterministic regardless of rule order or
/// thread count.
fn neighborhood(cover: &[Cfd], arity: usize, drifted: &[RuleId], expand: usize) -> AttrSet {
    let mut core = AttrSet::EMPTY;
    for &r in drifted {
        core = core.union(attrs_of(&cover[r]));
    }
    let mut candidates = AttrSet::EMPTY;
    for a in cover.iter().map(attrs_of) {
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
    for a in AttrSet::full(arity).difference(nb).iter() {
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
        let measures: Vec<RuleMeasure> = engine.stats().iter().map(|s| s.measure).collect();
        assert_eq!(drifted_rules(&measures, 0.95), vec![0]);
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
