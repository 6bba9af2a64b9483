//! TANE — level-wise FD discovery (Huhtala, Kärkkäinen, Porkka &
//! Toivonen, *The Computer Journal* 42(2), 1999).
//!
//! The level-wise lattice walk CTANE generalizes: levels hold attribute
//! sets with their partitions; `C⁺(X) = {A | ∀B ∈ X : X\{A,B} ↛ B}`
//! prunes candidate RHS attributes; (super)key sets are retired early
//! after emitting their remaining dependencies.
//!
//! Like CTANE, the walk runs on the stripped-partition engine of
//! `cfd-partition` (DESIGN.md §9); unlike CTANE's flat levels, node
//! partitions live in a [`PartitionStore`] keyed by attribute set —
//! current level pinned, previous level kept as evictable cache in
//! approximate mode — and level expansion refines through a reusable
//! [`RefineScratch`] into a caller-owned buffer
//! ([`StrippedPartition::refine_into`]), skipping materialization
//! entirely for the final level
//! ([`StrippedPartition::refine_counts`]). For plain FDs stripping is
//! exactly TANE's classic representation: wildcard refinement copies
//! the singleton side list with one `memcpy` instead of walking the
//! collapsed classes. With [`Tane::threads`] above 1 the expansion
//! shards its prefix-join runs across workers and merges in run order
//! (byte-identical output for every thread count).
//!
//! With [`Tane::min_confidence`] below `1.0` the dependency test
//! relaxes to TANE's classic approximate variant under the g1-style
//! partition error (DESIGN.md §8): `X\{A} → A` is emitted when the
//! per-class max-frequency sum of `A` over `π_{X\{A}}`
//! ([`StrippedPartition::keep_count`]) reaches `θ · |r|`. For plain FDs
//! this error is monotone under refinement, so the minimality story is
//! unchanged; at `θ = 1.0` the integer short-circuit reproduces the
//! exact test bit for bit.
//!
//! Every emitted FD is measured at emission (`support = |r|`,
//! `violations` = the partition error the dependency test computed), so
//! the unified API's measuring pass costs nothing extra.

use cfd_model::attrset::AttrSet;
use cfd_model::cfd::Cfd;
use cfd_model::cover::CanonicalCover;
use cfd_model::fxhash::FxHashMap;
use cfd_model::measure::{keep_meets, RuleMeasure};
use cfd_model::pattern::PVal;
use cfd_model::progress::{shard_runs, Cancelled, Control, SearchStats};
use cfd_model::relation::Relation;
use cfd_partition::{PartitionStore, RefineScratch, StrippedPartition};

/// One lattice node; its partition lives in the run's
/// [`PartitionStore`] under the attribute-set key.
struct Node {
    attrs: AttrSet,
    n_classes: usize,
    cplus: AttrSet,
}

/// A freshly generated node of the next level (partition absent for
/// the final level, whose partitions are never refined again).
struct Generated {
    node: Node,
    partition: Option<StrippedPartition>,
}

/// Level-wise minimal-FD discovery.
#[derive(Clone, Copy, Debug)]
pub struct Tane {
    pub(crate) max_lhs: Option<usize>,
    pub(crate) min_confidence: f64,
    pub(crate) threads: usize,
    pub(crate) cache_budget: usize,
}

impl Default for Tane {
    fn default() -> Tane {
        Tane::new()
    }
}

impl Tane {
    /// Creates the algorithm.
    pub fn new() -> Tane {
        Tane {
            max_lhs: None,
            min_confidence: 1.0,
            threads: 1,
            cache_budget: usize::MAX,
        }
    }

    /// Caps the LHS size of discovered FDs.
    pub fn max_lhs(mut self, m: usize) -> Tane {
        self.max_lhs = Some(m);
        self
    }

    /// Relaxes the dependency test to confidence `θ ∈ (0, 1]`
    /// (g1-style partition error — see the module docs); `1.0` (the
    /// default) is exact discovery.
    pub fn min_confidence(mut self, theta: f64) -> Tane {
        assert!(
            theta > 0.0 && theta <= 1.0,
            "min_confidence must be within (0, 1]"
        );
        self.min_confidence = theta;
        self
    }

    /// Shards level expansion across `threads` workers (`1`, the
    /// default, keeps the serial walk); output is byte-identical for
    /// every thread count.
    pub fn threads(mut self, threads: usize) -> Tane {
        self.threads = threads.max(1);
        self
    }

    /// Byte budget for the partitions the run's [`PartitionStore`]
    /// keeps beyond the level being expanded (`usize::MAX`, the
    /// default, keeps them all; `0` disables caching, and parent
    /// partitions are rebuilt on demand). Covers are identical either
    /// way.
    pub fn cache_budget(mut self, bytes: usize) -> Tane {
        self.cache_budget = bytes;
        self
    }

    /// Rebuilds the instance with the shared knobs the unified
    /// discovery API supplies (`DiscoverOptions` is the source of
    /// truth there), keeping the ablation knobs — the cache budget —
    /// from `self`.
    pub fn with_shared_knobs(&self, max_lhs: Option<usize>, theta: f64, threads: usize) -> Tane {
        Tane {
            max_lhs,
            min_confidence: theta,
            threads: threads.max(1),
            cache_budget: self.cache_budget,
        }
    }

    /// Discovers all minimal FDs `X → A` with `X ≠ ∅` of `rel`, as
    /// all-wildcard variable CFDs.
    pub fn discover(&self, rel: &Relation) -> CanonicalCover {
        self.run(rel, &Control::default(), &mut SearchStats::default())
            .expect("default Control is never cancelled")
    }

    /// [`Tane::discover`] with run control and instrumentation: polls
    /// `ctrl` once per lattice level (and per prefix run inside the
    /// expansion workers), reports `level` progress, and counts
    /// dependency tests (`candidates`), pruned lattice nodes
    /// (`pruned`) and materialized partitions (`partitions`).
    pub fn run(
        &self,
        rel: &Relation,
        ctrl: &Control<'_>,
        stats: &mut SearchStats,
    ) -> Result<CanonicalCover, Cancelled> {
        Ok(self.run_measured(rel, ctrl, stats)?.0)
    }

    /// [`Tane::run`], additionally returning each FD's `RuleMeasure`
    /// (aligned with the cover's canonical order) — computed at
    /// emission from the partitions the walk already holds.
    pub fn run_measured(
        &self,
        rel: &Relation,
        ctrl: &Control<'_>,
        stats: &mut SearchStats,
    ) -> Result<(CanonicalCover, Vec<RuleMeasure>), Cancelled> {
        let arity = rel.arity();
        let n = rel.n_rows();
        let theta = self.min_confidence;
        // approximate mode keeps the previous level's partitions as
        // cache, so candidates can be error-counted per class
        let approx = theta < 1.0;
        let mut out: Vec<Cfd> = Vec::new();
        let mut meas: Vec<RuleMeasure> = Vec::new();
        if n == 0 {
            return Ok((CanonicalCover::from_cfds(out), Vec::new()));
        }
        let mut store: PartitionStore<AttrSet> = PartitionStore::new(self.cache_budget);
        let mut scratch = RefineScratch::for_relation(rel);

        let full = AttrSet::full(arity);
        // level 1
        let mut level: Vec<Node> = (0..arity)
            .map(|a| {
                let p = StrippedPartition::by_attribute(rel, a);
                stats.partitions += 1;
                let attrs = AttrSet::singleton(a);
                let node = Node {
                    attrs,
                    n_classes: p.n_classes(),
                    cplus: full,
                };
                store.insert_pinned(attrs, 1, p);
                node
            })
            .collect();
        let mut prev_classes: FxHashMap<AttrSet, usize> = FxHashMap::default();
        prev_classes.insert(AttrSet::EMPTY, 1);
        if approx {
            store.insert_pinned(AttrSet::EMPTY, 0, StrippedPartition::full(n));
            store.unpin_level(0);
        }

        let mut ell = 1usize;
        loop {
            ctrl.check()?;
            ctrl.report("level", ell, arity);
            let _sp = cfd_obs::span!("tane.level");
            // compute dependencies
            #[allow(clippy::needless_range_loop)] // cplus is mutated in place
            for i in 0..level.len() {
                let x = level[i].attrs;
                for a in x.intersection(level[i].cplus).iter() {
                    let parent = x.without(a);
                    let &pc = prev_classes.get(&parent).expect("parent exists");
                    stats.candidates += 1;
                    // exact class-count test, or — below θ = 1.0 — the
                    // g1 relaxation keep ≥ θ·n (keep_meets short-circuits
                    // exactness with integer arithmetic); `violations`
                    // doubles as the emitted FD's measure
                    let (holds, violations) = if pc == level[i].n_classes {
                        (true, 0)
                    } else if approx {
                        let keep = parent_keep(&mut store, rel, parent, a, &mut scratch, stats);
                        (keep_meets(keep, n, theta), n - keep)
                    } else {
                        (false, 0)
                    };
                    if holds {
                        // X\{A} → A holds; ∅ → A (constant column) excluded
                        // per the canonical-cover convention
                        if !parent.is_empty() {
                            stats.emitted += 1;
                            out.push(Cfd::fd(parent, a));
                            meas.push(RuleMeasure {
                                support: n,
                                violations,
                            });
                        }
                        let cp = &mut level[i].cplus;
                        cp.remove(a);
                        // the classic RHS⁺ pruning (drop every B ∉ X)
                        // is justified by π(X\A) = π(X) — which only an
                        // *exact* dependency gives. A θ-hold with
                        // violations left removes just its own RHS:
                        // anything more over-prunes and loses minimal
                        // approximate FDs (the completeness probe below)
                        if violations == 0 {
                            *cp = cp.difference(full.difference(x));
                        }
                    }
                }
            }

            // prune: empty C⁺, then key pruning
            let keyed: Vec<bool> = level
                .iter()
                .map(|nd| nd.n_classes == n) // every class a singleton
                .collect();
            for (i, node) in level.iter().enumerate() {
                if !keyed[i] || node.cplus.is_empty() {
                    continue;
                }
                if self.max_lhs.is_some_and(|m| ell > m) {
                    break; // key-emits have LHS of size ℓ
                }
                // X is a superkey: X → A holds for every A; emit the
                // minimal ones. TANE's C⁺-intersection test is incomplete
                // here because referenced same-level sets may themselves
                // have been key-pruned away (their C⁺ no longer exists), so
                // minimality is checked directly: no immediate subset may
                // reach the threshold, by the keep count of its partition
                // (exact at θ = 1.0; the error is monotone, so immediate
                // subsets suffice — module docs).
                for a in node.cplus.difference(node.attrs).iter() {
                    stats.candidates += 1;
                    let minimal = node.attrs.iter().all(|b| {
                        let sub = node.attrs.without(b);
                        let keep = parent_keep(&mut store, rel, sub, a, &mut scratch, stats);
                        !keep_meets(keep, n, theta)
                    });
                    if minimal {
                        stats.emitted += 1;
                        out.push(Cfd::fd(node.attrs, a));
                        // a (super)key determines every attribute exactly
                        meas.push(RuleMeasure::exact(n));
                    }
                }
            }
            let mut kept: Vec<Node> = Vec::with_capacity(level.len());
            let level_size = level.len();
            for (i, node) in level.into_iter().enumerate() {
                if !node.cplus.is_empty() && !keyed[i] {
                    kept.push(node);
                }
            }
            let level_now = kept;
            stats.pruned += (level_size - level_now.len()) as u64;

            if level_now.len() < 2 || ell >= arity || self.max_lhs.is_some_and(|m| ell > m) {
                break;
            }

            // generate next level by prefix join, sharded across the
            // configured workers (run order keeps it deterministic)
            let index: FxHashMap<AttrSet, usize> = level_now
                .iter()
                .enumerate()
                .map(|(i, nd)| (nd.attrs, i))
                .collect();
            let mut order: Vec<usize> = (0..level_now.len()).collect();
            order.sort_unstable_by_key(|&i| level_now[i].attrs.iter().collect::<Vec<_>>());
            let mut runs: Vec<(usize, usize)> = Vec::new();
            let mut run_start = 0;
            while run_start < order.len() {
                let prefix: Vec<usize> = level_now[order[run_start]]
                    .attrs
                    .iter()
                    .take(ell - 1)
                    .collect();
                let mut run_end = run_start + 1;
                while run_end < order.len()
                    && level_now[order[run_end]]
                        .attrs
                        .iter()
                        .take(ell - 1)
                        .eq(prefix.iter().copied())
                {
                    run_end += 1;
                }
                runs.push((run_start, run_end));
                run_start = run_end;
            }
            let last_level = ell + 1 >= arity || self.max_lhs.is_some_and(|m| ell + 1 > m);

            let expand = ExpandCtx {
                rel,
                full,
                level: &level_now,
                index: &index,
                order: &order,
                store: &store,
                last_level,
            };
            // worker w owns runs w, w+T, …; batches merge in run
            // order, so the level comes out byte-identical to the
            // serial walk (the shared shard_runs harness)
            let produced: Vec<Generated> = shard_runs(
                &runs,
                self.threads,
                ctrl,
                stats,
                || RefineScratch::for_relation(rel),
                |run, scratch, local, out| expand.run_pairs(*run, scratch, local, |g| out.push(g)),
            )?;
            let mut next: Vec<Node> = Vec::new();
            for g in produced {
                if let Some(part) = g.partition {
                    store.insert_pinned(g.node.attrs, ell as u32 + 1, part);
                }
                next.push(g.node);
            }
            if next.is_empty() {
                break;
            }
            // slide the level window (see the module docs)
            if ell >= 1 {
                store.retire_level(ell as u32 - 1);
            }
            if approx {
                store.unpin_level(ell as u32);
            } else {
                store.retire_level(ell as u32);
            }
            prev_classes = level_now
                .into_iter()
                .map(|nd| (nd.attrs, nd.n_classes))
                .collect();
            level = next;
            ell += 1;
        }
        stats.store = store.stats().into();

        Ok(CanonicalCover::from_measured(
            out.into_iter().zip(meas).collect(),
        ))
    }
}

/// Everything an expansion worker needs, shared read-only.
struct ExpandCtx<'a> {
    rel: &'a Relation,
    full: AttrSet,
    level: &'a [Node],
    index: &'a FxHashMap<AttrSet, usize>,
    order: &'a [usize],
    store: &'a PartitionStore<AttrSet>,
    last_level: bool,
}

impl ExpandCtx<'_> {
    /// Expands one prefix run: every join pair inside it, in order.
    fn run_pairs(
        &self,
        (run_start, run_end): (usize, usize),
        scratch: &mut RefineScratch,
        stats: &mut SearchStats,
        mut emit: impl FnMut(Generated),
    ) {
        let mut buf = StrippedPartition::default();
        for xi in run_start..run_end {
            for yi in xi + 1..run_end {
                let (n1, n2) = (&self.level[self.order[xi]], &self.level[self.order[yi]]);
                let z = n1.attrs.union(n2.attrs);
                if z.len() != self.level[self.order[xi]].attrs.len() + 1 {
                    continue;
                }
                if !z.iter().all(|b| self.index.contains_key(&z.without(b))) {
                    continue;
                }
                let mut cplus = self.full;
                for b in z.iter() {
                    cplus = cplus.intersection(self.level[self.index[&z.without(b)]].cplus);
                }
                if cplus.is_empty() {
                    continue;
                }
                // refine the finer parent by the other's trailing
                // attribute (fewer splits to perform)
                let extra = n2.attrs.max().expect("nonempty");
                let base = if n1.n_classes >= n2.n_classes { n1 } else { n2 };
                let extra_attr = if base.attrs == n1.attrs {
                    extra
                } else {
                    n1.attrs.max().expect("nonempty")
                };
                let base_part = self
                    .store
                    .peek(&base.attrs)
                    .expect("current level is pinned in the store");
                if self.last_level {
                    let (n_classes, _) =
                        base_part.refine_counts(self.rel, extra_attr, PVal::Var, scratch);
                    emit(Generated {
                        node: Node {
                            attrs: z,
                            n_classes,
                            cplus,
                        },
                        partition: None,
                    });
                } else {
                    base_part.refine_into(self.rel, extra_attr, PVal::Var, scratch, &mut buf);
                    stats.partitions += 1;
                    emit(Generated {
                        node: Node {
                            attrs: z,
                            n_classes: buf.n_classes(),
                            cplus,
                        },
                        partition: Some(buf.take_compact()),
                    });
                }
            }
        }
    }
}

/// The keep count of the parent attribute set's partition w.r.t. RHS
/// `a` — served from the store, rebuilt from the relation on a miss.
fn parent_keep(
    store: &mut PartitionStore<AttrSet>,
    rel: &Relation,
    parent: AttrSet,
    a: usize,
    scratch: &mut RefineScratch,
    stats: &mut SearchStats,
) -> usize {
    if let Some(part) = store.get(&parent) {
        return part.keep_count(rel, a, scratch);
    }
    let rebuilt =
        StrippedPartition::of_pattern(rel, parent.iter().map(|b| (b, PVal::Var)), scratch);
    stats.partitions += 1;
    let keep = rebuilt.keep_count(rel, a, scratch);
    store.insert_pinned(parent, parent.len() as u32, rebuilt);
    store.unpin(&parent);
    keep
}
#[cfg(test)]
mod tests {
    use super::*;
    use cfd_datagen::cust::cust_relation;
    use cfd_model::cfd::parse_cfd;
    use cfd_model::satisfy::satisfies;

    #[test]
    fn finds_paper_fds_on_cust() {
        let r = cust_relation();
        let cover = Tane::new().discover(&r);
        for txt in [
            "([CC, AC] -> CT, (_, _ || _))",         // f1
            "([CC, AC, PN] -> STR, (_, _, _ || _))", // f2
        ] {
            let c = parse_cfd(&r, txt).unwrap();
            assert!(cover.contains(&c), "{txt} missing:\n{}", cover.display(&r));
        }
        // every output holds and is attribute-minimal
        for c in cover.iter() {
            assert!(c.is_plain_fd());
            assert!(satisfies(&r, c), "{}", c.display(&r));
            for b in c.lhs_attrs().iter() {
                let red = Cfd::fd(c.lhs_attrs().without(b), c.rhs_attr());
                assert!(!satisfies(&r, &red), "reducible: {}", c.display(&r));
            }
        }
    }

    #[test]
    fn key_pruning_handles_unique_columns() {
        use cfd_model::relation::relation_from_rows;
        use cfd_model::schema::Schema;
        let schema = Schema::new(["id", "x", "y"]).unwrap();
        let r = relation_from_rows(
            schema,
            &[
                vec!["1", "a", "p"],
                vec!["2", "a", "q"],
                vec!["3", "b", "p"],
                vec!["4", "b", "q"],
            ],
        )
        .unwrap();
        let cover = Tane::new().discover(&r);
        // id is a key: id → x and id → y are minimal
        assert!(cover.contains(&Cfd::fd(AttrSet::singleton(0), 1)));
        assert!(cover.contains(&Cfd::fd(AttrSet::singleton(0), 2)));
        // [x,y] is also a key: [x,y] → id
        assert!(cover.contains(&Cfd::fd(AttrSet::from_iter([1, 2]), 0)));
        assert_eq!(cover.len(), 3, "{}", cover.display(&r));
    }

    #[test]
    fn constant_columns_do_not_emit_empty_lhs_fds() {
        use cfd_model::relation::relation_from_rows;
        use cfd_model::schema::Schema;
        let schema = Schema::new(["A", "B"]).unwrap();
        let r =
            relation_from_rows(schema, &[vec!["x", "k"], vec!["y", "k"], vec!["z", "k"]]).unwrap();
        let cover = Tane::new().discover(&r);
        // B is constant: A → B would not be minimal (∅ → B holds), and
        // ∅ → B is excluded by convention
        assert!(cover.is_empty(), "{}", cover.display(&r));
    }

    #[test]
    fn max_lhs_caps() {
        let r = cust_relation();
        let capped = Tane::new().max_lhs(1).discover(&r);
        assert!(capped.iter().all(|c| c.lhs_attrs().len() <= 1));
    }

    #[test]
    fn approximate_discovery_admits_noisy_fds() {
        use cfd_model::measure::measure;
        let r = cust_relation();
        // AC → CT is spoiled only by the 131 → {EDI, EDI, UN} class:
        // keep 7 of 8 tuples, confidence 0.875
        let fd = parse_cfd(&r, "(AC -> CT, (_ || _))").unwrap();
        let exact = Tane::new().discover(&r);
        assert!(!exact.contains(&fd));
        let approx = Tane::new().min_confidence(0.875).discover(&r);
        assert!(approx.contains(&fd), "cover:\n{}", approx.display(&r));
        assert!(!Tane::new().min_confidence(0.9).discover(&r).contains(&fd));
        // soundness: every emitted FD clears the threshold, and is
        // minimal — no immediate subset clears it too
        for theta in [0.8, 0.875, 0.95] {
            let cover = Tane::new().min_confidence(theta).discover(&r);
            for c in cover.iter() {
                let m = measure(&r, c);
                assert!(m.meets(theta), "{} at θ={theta}", c.display(&r));
                for b in c.lhs_attrs().iter() {
                    let sub = Cfd::fd(c.lhs_attrs().without(b), c.rhs_attr());
                    assert!(
                        !measure(&r, &sub).meets(theta),
                        "{} is reducible at θ={theta}",
                        c.display(&r)
                    );
                }
            }
        }
        // θ = 1.0 is bit-for-bit the exact cover
        assert_eq!(
            Tane::new().min_confidence(1.0).discover(&r).cfds(),
            exact.cfds()
        );
    }
}

#[cfg(test)]
mod review_probe {
    use super::*;
    use cfd_model::cfd::parse_cfd;
    use cfd_model::relation::relation_from_rows;
    use cfd_model::schema::Schema;

    #[test]
    fn approx_completeness_probe() {
        // A: 9×x, 1×y (∅→A meets θ=0.9); B: x-rows 8×p 1×q, y-row q.
        // A→B keep = 8+1 = 9 ≥ 0.9·10 → meets θ; ∅→B keep = 8 < 9 → fails.
        // So (A -> B) is a minimal approximate FD at θ=0.9.
        let schema = Schema::new(["A", "B"]).unwrap();
        let mut rows: Vec<Vec<&str>> = vec![];
        for i in 0..9 {
            rows.push(vec!["x", if i < 8 { "p" } else { "q" }]);
        }
        rows.push(vec!["y", "q"]);
        let r = relation_from_rows(schema, &rows).unwrap();
        let fd = parse_cfd(&r, "(A -> B, (_ || _))").unwrap();
        let m = cfd_model::measure::measure(&r, &fd);
        assert!(m.meets(0.9), "premise: A->B meets 0.9 ({m:?})");
        let cover = Tane::new().min_confidence(0.9).discover(&r);
        assert!(
            cover.contains(&fd),
            "A->B missing from θ=0.9 cover:\n{}",
            cover.display(&r)
        );
    }
}

#[cfg(test)]
mod engine_tests {
    use super::*;
    use cfd_datagen::cust::cust_relation;

    #[test]
    fn threads_and_cache_do_not_change_the_cover() {
        let r = cust_relation();
        let serial = Tane::new().discover(&r);
        for t in [2, 4] {
            assert_eq!(serial.cfds(), Tane::new().threads(t).discover(&r).cfds());
        }
        for theta in [0.8, 0.875, 1.0] {
            let cached = Tane::new().min_confidence(theta).discover(&r);
            let uncached = Tane::new()
                .min_confidence(theta)
                .cache_budget(0)
                .discover(&r);
            assert_eq!(cached.cfds(), uncached.cfds(), "θ={theta}");
            let sharded = Tane::new().min_confidence(theta).threads(4).discover(&r);
            assert_eq!(cached.cfds(), sharded.cfds(), "θ={theta} sharded");
        }
    }

    #[test]
    fn emission_measures_match_the_reference() {
        use cfd_model::measure::measure;
        let r = cust_relation();
        for theta in [0.875, 1.0] {
            let (cover, measures) = Tane::new()
                .min_confidence(theta)
                .run_measured(&r, &Control::default(), &mut SearchStats::default())
                .unwrap();
            assert_eq!(cover.len(), measures.len());
            for (cfd, m) in cover.iter().zip(&measures) {
                assert_eq!(*m, measure(&r, cfd), "θ={theta}: {}", cfd.display(&r));
            }
        }
    }
}
