//! CTANE — level-wise discovery of general minimal k-frequent CFDs
//! (Section 4 of the paper).
//!
//! CTANE walks the attribute-set/pattern lattice level by level. An
//! element `(X, sp)` at level `ℓ = |X|` carries the partition of the
//! tuples matching `sp`'s constants grouped by their `X`-values, and a
//! candidate-RHS set `C⁺(X, sp)` maintained exactly as Section 4.1
//! prescribes:
//!
//! 1. `C⁺` entries `(A, c_A)` with `A ∈ X` must satisfy `c_A = sp[A]`;
//! 2. when a CFD `(X\A → A, (sp[X\A] ‖ c_A))` is found valid, `(A, c_A)`
//!    and every `(B, ·)` with `B ∉ X` are removed from the `C⁺` of the
//!    same-level elements whose pattern specializes `sp` (step 2.c);
//! 3. new levels intersect their parents' `C⁺` sets (step 1).
//!
//! Validity is partition-counting (Section 4.4): for a wildcard RHS the
//! class counts of parent and child must agree; for a *constant* RHS we
//! compare **row** counts instead — the paper's class-count test misses
//! single-tuple violations of constant RHS patterns (see DESIGN.md §2).
//!
//! ## The level in item order
//!
//! The walk handles no [`Pattern`]s. Every item of `C⁺(∅)` — each
//! `(A, _)` and k-frequent `(A, a)` — has an index in the sorted
//! candidate universe (the internal `Universe`), so an attribute's items
//! are contiguous and its `(A, _)` comes last; an element's pattern is
//! the ascending list of its items' indices. Level 1 is the universe's
//! order and the prefix join of an ascending level emits its children
//! ascending, so every level stays sorted by item list without a sort:
//! the join's prefix runs are contiguous, and inside a run the elements
//! sharing a last attribute form one block that each partner loop starts
//! past. Step 2 walks the level in *descending* order, which validates
//! every generalization of `sp` (some constants replaced by `_`, which
//! sorts after every constant of its attribute) before `sp` itself, so
//! step 2.c is a *pull*: each element looks up its at most `2^c − 1`
//! proper generalizations (`c` its number of constants) and applies the
//! prunes their valid candidates call for. Every lookup — the join's
//! subsets, step 2's parent counts and generalizations, the partition
//! store — keys on a borrowed item list; a `Pattern` is built only for
//! an emitted rule's LHS.
//!
//! ## The partition engine underneath
//!
//! Partitions live in a [`PartitionStore`] keyed by item list (DESIGN.md
//! §9): the current level is pinned (it feeds the next level's
//! refinements), the previous level is — in approximate mode — kept as
//! evictable cache for the per-class error counts, and everything
//! older is retired. Level expansion refines [`StrippedPartition`]s
//! through a reusable [`RefineScratch`] into a caller-owned buffer, so
//! candidates that fail k-frequency allocate nothing; elements of the
//! final lattice level skip materialization entirely
//! ([`StrippedPartition::refine_counts`] — their partitions would never
//! be refined again, and validity needs only the class/row counts).
//! With [`Ctane::threads`] above 1 the expansion shards its prefix-join
//! runs across worker threads and merges in run order, so the output
//! is byte-identical to the serial run.
//!
//! `C⁺` sets are bitsets over the candidate universe. The prefix join's
//! per-pair set intersection (`C⁺(Z) = ∩_B C⁺(Z\B)`) collapses from a
//! merge of sorted item lists to a handful of word ANDs, and
//! intersecting *all* `ℓ+1` parents makes condition 1 hold by
//! construction (each attribute of `Z` is constrained by every parent
//! that retains it), so no separate filtering pass is needed.
//!
//! With [`Ctane::min_confidence`] below `1.0` the validity test relaxes
//! to the g1-style partition error of DESIGN.md §8: a wildcard-RHS
//! candidate is valid when the parent partition's per-class
//! max-frequency sum ([`StrippedPartition::keep_count`]) reaches
//! `θ · rows`, a constant-RHS candidate when the child's row count
//! does. At `θ = 1.0` the integer short-circuit in
//! [`cfd_model::measure::keep_meets`] makes both tests *exactly* the
//! classical ones, so the approximate path is a superset — not a fork —
//! of the exact engine.
//!
//! Every emitted rule is measured *at emission* from the partitions in
//! hand (`support` = parent rows, `violations` = the partition error
//! the validity test just computed), so `discover_with` no longer
//! re-groups the relation to annotate the cover.
//!
//! Canonical-cover convention: a variable CFD whose LHS pattern is
//! all-constant holds iff the RHS attribute is constant on the matching
//! tuples, i.e. iff the corresponding *constant* CFD holds — it is
//! implied and therefore excluded, matching what FastCFD's `FindMin`
//! produces by construction.

use cfd_model::attrset::AttrSet;
use cfd_model::cfd::Cfd;
use cfd_model::cover::CanonicalCover;
use cfd_model::fxhash::FxHashMap;
use cfd_model::measure::{keep_meets, RuleMeasure};
use cfd_model::pattern::{PVal, Pattern};
use cfd_model::progress::{shard_runs, Cancelled, Control, SearchStats};
use cfd_model::relation::Relation;
use cfd_model::schema::AttrId;
use cfd_partition::{PartitionStore, RefineScratch, StrippedPartition};

/// A `C⁺` set: one bit per item of the candidate [`Universe`].
type Bits = Vec<u64>;

#[inline]
fn bit_test(bits: &[u64], i: u32) -> bool {
    bits[(i / 64) as usize] & (1u64 << (i % 64)) != 0
}

#[inline]
fn bit_clear(bits: &mut [u64], i: u32) {
    bits[(i / 64) as usize] &= !(1u64 << (i % 64));
}

#[inline]
fn bit_set(bits: &mut [u64], i: u32) {
    bits[(i / 64) as usize] |= 1u64 << (i % 64);
}

#[inline]
fn bits_and_assign(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d &= s;
    }
}

#[inline]
fn bits_is_empty(bits: &[u64]) -> bool {
    bits.iter().all(|&w| w == 0)
}

/// Keeps only the bits of `items`. By condition 1 an element's `C⁺`
/// holds no other item on its own attributes, so on an element's item
/// list this drops exactly the items outside `X`.
fn retain_items(bits: &mut [u64], items: &[u32]) {
    // bit p: items[p] was set (an element has at most 64 items)
    let mut kept = 0u64;
    for (p, &i) in items.iter().enumerate() {
        kept |= u64::from(bit_test(bits, i)) << p;
    }
    bits.fill(0);
    for (p, &i) in items.iter().enumerate() {
        if kept >> p & 1 == 1 {
            bit_set(bits, i);
        }
    }
}

/// The candidate universe `C⁺(∅)`: every `(A, _)` plus every
/// k-frequent `(A, a)`, sorted. Item `i` is `items[i]`, and bit `i` of
/// a `C⁺` bitset stands for it.
struct Universe {
    items: Vec<(AttrId, PVal)>,
    /// Per attribute: the index of its `(A, _)` item.
    wild: Vec<u32>,
    /// Per attribute: the items on every other attribute.
    others: Vec<Bits>,
    words: usize,
}

impl Universe {
    fn new(items: Vec<(AttrId, PVal)>, arity: usize) -> Universe {
        let words = items.len().div_ceil(64);
        let mut wild = vec![0; arity];
        let mut others = vec![vec![0; words]; arity];
        for (i, &(a, v)) in (0u32..).zip(&items) {
            if v == PVal::Var {
                wild[a] = i;
            }
            for (b, bits) in others.iter_mut().enumerate() {
                if b != a {
                    bit_set(bits, i);
                }
            }
        }
        Universe {
            items,
            wild,
            others,
            words,
        }
    }

    #[inline]
    fn attr(&self, i: u32) -> AttrId {
        self.items[i as usize].0
    }

    /// Condition 1 applied to the full universe: the `C⁺` of the
    /// level-1 element on item `i`.
    fn cond1(&self, i: u32) -> Bits {
        let mut bits = self.others[self.attr(i)].clone();
        bit_set(&mut bits, i);
        bits
    }
}

/// One lattice element `(X, sp)`. The partition lives in the run's
/// [`PartitionStore`] under the item list; elements carry only its
/// counts.
struct Element {
    /// `sp` as the ascending indices of its items in the [`Universe`].
    items: Vec<u32>,
    n_classes: usize,
    n_rows: usize,
    /// The candidate-RHS set `C⁺(X, sp)` as a [`Universe`] bitset.
    cplus: Bits,
}

/// A freshly generated element of the next level, as produced by an
/// expansion worker: the element plus its partition (absent for the
/// final level, whose partitions are never refined again).
struct Generated {
    element: Element,
    partition: Option<StrippedPartition>,
}
/// Level-wise CFD discovery (Section 4).
#[derive(Clone, Copy, Debug)]
pub struct Ctane {
    pub(crate) k: usize,
    pub(crate) max_lhs: Option<usize>,
    pub(crate) min_confidence: f64,
    pub(crate) threads: usize,
    pub(crate) cache_budget: usize,
}

impl Ctane {
    /// Creates the algorithm with support threshold `k ≥ 1`.
    pub fn new(k: usize) -> Ctane {
        assert!(k >= 1, "support threshold must be at least 1");
        Ctane {
            k,
            max_lhs: None,
            min_confidence: 1.0,
            threads: 1,
            cache_budget: usize::MAX,
        }
    }

    /// Caps the LHS size of discovered CFDs (a practical guard: CTANE is
    /// exponential in the arity — Fig. 7 of the paper).
    pub fn max_lhs(mut self, max_lhs: usize) -> Ctane {
        self.max_lhs = Some(max_lhs);
        self
    }

    /// Relaxes validity to confidence `θ ∈ (0, 1]` (g1-style partition
    /// error — see the module docs); `1.0` (the default) is exact
    /// discovery.
    pub fn min_confidence(mut self, theta: f64) -> Ctane {
        assert!(
            theta > 0.0 && theta <= 1.0,
            "min_confidence must be within (0, 1]"
        );
        self.min_confidence = theta;
        self
    }

    /// Shards level expansion across `threads` workers (`1`, the
    /// default, keeps the serial walk). The output is byte-identical
    /// for every thread count: workers own disjoint prefix-join runs
    /// and results merge in run order.
    pub fn threads(mut self, threads: usize) -> Ctane {
        self.threads = threads.max(1);
        self
    }

    /// Byte budget for the run's partition cache (retained *previous*
    /// levels — the working set is always kept). `usize::MAX` (the
    /// default) keeps everything a level window needs; `0` disables
    /// caching, forcing the approximate validity test to rebuild parent
    /// partitions from the relation. Covers are identical either way —
    /// the budget trades memory for recomputation only.
    pub fn cache_budget(mut self, bytes: usize) -> Ctane {
        self.cache_budget = bytes;
        self
    }

    /// The configured support threshold.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Discovers the canonical cover of minimal k-frequent CFDs.
    pub fn discover(&self, rel: &Relation) -> CanonicalCover {
        self.run(rel, &Control::default(), &mut SearchStats::default())
            .expect("default Control is never cancelled")
    }

    /// [`Ctane::discover`] with run control and instrumentation: polls
    /// `ctrl` once per lattice level (and per prefix run inside the
    /// expansion workers), reports `level` progress, and counts
    /// validity tests (`candidates`), retired lattice elements
    /// (`pruned`) and materialized partitions (`partitions`).
    pub fn run(
        &self,
        rel: &Relation,
        ctrl: &Control<'_>,
        stats: &mut SearchStats,
    ) -> Result<CanonicalCover, Cancelled> {
        Ok(self.run_measured(rel, ctrl, stats)?.0)
    }

    /// [`Ctane::run`], additionally returning each rule's
    /// [`RuleMeasure`] (aligned with the cover's canonical order) —
    /// computed at emission from the partitions the walk already holds,
    /// so no separate measuring pass over the relation is needed.
    pub fn run_measured(
        &self,
        rel: &Relation,
        ctrl: &Control<'_>,
        stats: &mut SearchStats,
    ) -> Result<(CanonicalCover, Vec<RuleMeasure>), Cancelled> {
        let n = rel.n_rows();
        let arity = rel.arity();
        let theta = self.min_confidence;
        // approximate mode keeps the previous level's partitions as
        // cache, so wildcard-RHS candidates can be error-counted
        let approx = theta < 1.0;
        let mut out: Vec<Cfd> = Vec::new();
        let mut meas: Vec<RuleMeasure> = Vec::new();
        if n == 0 || n < self.k {
            return Ok((CanonicalCover::from_cfds(out), Vec::new()));
        }
        let mut store: PartitionStore<Vec<u32>> = PartitionStore::new(self.cache_budget);
        let mut scratch = RefineScratch::for_relation(rel);

        // C⁺(∅) = L1: every (A, _) plus every k-frequent (A, a), read
        // off the columns' value regions
        let mut init_candidates: Vec<(AttrId, PVal)> = Vec::new();
        for a in 0..arity {
            let vidx = rel.column(a).regions();
            for c in 0..vidx.n_codes() as u32 {
                if vidx.region(c).len() >= self.k {
                    init_candidates.push((a, PVal::Const(c)));
                }
            }
            init_candidates.push((a, PVal::Var));
        }
        init_candidates.sort_unstable();
        let uni = Universe::new(init_candidates, arity);

        // level 1: one element per item of C⁺(∅), in the universe's
        // order, its partition built from the same regions
        let mut level: Vec<Element> = Vec::with_capacity(uni.items.len());
        for (i, &(a, v)) in (0u32..).zip(&uni.items) {
            let part = match v {
                PVal::Const(c) => {
                    StrippedPartition::from_single_class(rel.column(a).regions().region(c))
                }
                PVal::Var => StrippedPartition::by_attribute(rel, a),
            };
            stats.partitions += 1;
            level.push(Element {
                items: vec![i],
                n_classes: part.n_classes(),
                n_rows: part.n_rows(),
                cplus: uni.cond1(i),
            });
            store.insert_pinned(vec![i], 1, part);
        }

        // counts of the level below (the ∅ element at level 0)
        let mut prev_counts: FxHashMap<Vec<u32>, (usize, usize)> = FxHashMap::default();
        prev_counts.insert(Vec::new(), (1, n));
        if approx {
            store.insert_pinned(Vec::new(), 0, StrippedPartition::full(n));
            store.unpin_level(0);
        }
        // reused lookup keys: a candidate's parent, an element's
        // generalization
        let (mut parent, mut general) = (Vec::new(), Vec::new());

        let mut ell = 1usize;
        loop {
            ctrl.check()?;
            ctrl.report("level", ell, arity);
            let _sp = cfd_obs::span!("ctane.level");
            debug_assert!(
                level.windows(2).all(|w| w[0].items < w[1].items),
                "the level is kept in item order"
            );

            // Step 2: validate candidate CFDs, walking the level in
            // descending item order so that every generalization of an
            // element is validated before it (module docs). `held` maps
            // an element with a valid candidate to the attributes A
            // whose candidate held, and those that held exactly.
            let mut held: FxHashMap<&[u32], (AttrSet, AttrSet)> = FxHashMap::default();
            for e in level.iter_mut().rev() {
                let Element {
                    items,
                    n_classes,
                    n_rows,
                    cplus,
                } = e;
                let items: &[u32] = items;
                // Step 2.c, pulled: a generalization g of sp — the
                // constants on S replaced by `_` — whose candidate on
                // A ∉ S held removes (A, sp[A]) from C⁺(X, sp), and
                // everything outside X if it held exactly
                let consts: AttrSet = items
                    .iter()
                    .filter(|&&i| uni.items[i as usize].1.is_const())
                    .map(|&i| uni.attr(i))
                    .collect();
                let mut outside = false;
                for s in consts.subsets().filter(|s| !s.is_empty()) {
                    general.clear();
                    general.extend(items.iter().map(|&i| {
                        let a = uni.attr(i);
                        if s.contains(a) {
                            uni.wild[a]
                        } else {
                            i
                        }
                    }));
                    if let Some(&(ok, exact)) = held.get(general.as_slice()) {
                        let ok = ok.difference(s);
                        for &i in items {
                            if ok.contains(uni.attr(i)) {
                                bit_clear(cplus, i);
                            }
                        }
                        outside |= !exact.difference(s).is_empty();
                    }
                }

                let (mut ok, mut exact) = (AttrSet::EMPTY, AttrSet::EMPTY);
                for &i in items {
                    if !bit_test(cplus, i) {
                        continue;
                    }
                    let (a, ca) = uni.items[i as usize];
                    parent.clear();
                    parent.extend(items.iter().copied().filter(|&j| j != i));
                    let &(p_classes, p_rows) = prev_counts
                        .get(parent.as_slice())
                        .expect("parent element must exist (generation invariant)");
                    stats.candidates += 1;
                    // the exact count tests, or — below θ = 1.0 — the
                    // g1-style relaxation keep ≥ θ·rows (keep_meets
                    // short-circuits exactness with integer arithmetic).
                    // `violations` is the partition error p_rows − keep,
                    // i.e. the emitted rule's measure — computed here,
                    // where the partitions are at hand.
                    let (valid, violations) = match ca {
                        PVal::Var if p_classes == *n_classes => (true, 0),
                        PVal::Const(_) if p_rows == *n_rows => (true, 0),
                        _ if !approx => (false, 0),
                        PVal::Const(_) => (keep_meets(*n_rows, p_rows, theta), p_rows - *n_rows),
                        PVal::Var => {
                            // the parent's keep count: served from the
                            // cache, or rebuilt from the relation on a
                            // miss and re-offered to the cache — the
                            // budget only ever trades recomputation,
                            // never correctness
                            let keep = match store.get(&parent) {
                                Some(part) => part.keep_count(rel, a, &mut scratch),
                                None => {
                                    let pairs = parent.iter().map(|&j| uni.items[j as usize]);
                                    let rebuilt =
                                        StrippedPartition::of_pattern(rel, pairs, &mut scratch);
                                    stats.partitions += 1;
                                    let keep = rebuilt.keep_count(rel, a, &mut scratch);
                                    store.insert_pinned(parent.clone(), ell as u32 - 1, rebuilt);
                                    store.unpin(&parent);
                                    keep
                                }
                            };
                            (keep_meets(keep, p_rows, theta), p_rows - keep)
                        }
                    };
                    if !valid {
                        continue;
                    }
                    ok.insert(a);
                    if violations == 0 {
                        exact.insert(a);
                    }
                    // canonical-cover convention: skip all-constant-LHS
                    // variable CFDs (implied by their constant counterpart)
                    let lhs_all_const = parent.iter().all(|&j| uni.items[j as usize].1.is_const());
                    if !(ca == PVal::Var && lhs_all_const) {
                        stats.emitted += 1;
                        let lhs =
                            Pattern::from_pairs(parent.iter().map(|&j| uni.items[j as usize]));
                        out.push(Cfd::new(lhs, a, ca));
                        meas.push(RuleMeasure {
                            support: p_rows,
                            violations,
                        });
                    }
                }
                // step 2.c on the element itself, whose own valid
                // candidates prune it as they prune its specializations
                for &i in items {
                    if ok.contains(uni.attr(i)) {
                        bit_clear(cplus, i);
                    }
                }
                // dropping every item outside X (the second half of
                // step 2.c) relies on the parent and child partitions
                // coinciding — which only an *exact* validity gives. A
                // θ-hold with violations left removes just its own RHS
                // item; anything more over-prunes and loses minimal
                // approximate rules
                if outside || !exact.is_empty() {
                    retain_items(cplus, items);
                }
                if !ok.is_empty() {
                    held.insert(items, (ok, exact));
                }
            }

            // Step 3: prune empty-C⁺ elements
            let before = level.len();
            level.retain(|e| !bits_is_empty(&e.cplus));
            stats.pruned += (before - level.len()) as u64;

            if ell >= arity || self.max_lhs.is_some_and(|m| ell > m) {
                break;
            }

            // Step 4: generate level ℓ+1 by prefix join, sharded across
            // the configured workers (run order keeps it deterministic)
            let index: FxHashMap<&[u32], usize> = level
                .iter()
                .enumerate()
                .map(|(i, e)| (e.items.as_slice(), i))
                .collect();
            // prefix runs: maximal stretches sharing the first ℓ−1
            // items, contiguous in the level's item order
            let mut runs: Vec<(usize, usize)> = Vec::new();
            for run in level.chunk_by(|x, y| x.items[..ell - 1] == y.items[..ell - 1]) {
                let start = runs.last().map_or(0, |&(_, end)| end);
                runs.push((start, start + run.len()));
            }
            // elements of the *final* level are validated by their
            // counts alone and never refined again — skip materializing
            // their partitions altogether
            let last_level = ell + 1 >= arity || self.max_lhs.is_some_and(|m| ell + 1 > m);

            let expand = ExpandCtx {
                alg: self,
                rel,
                uni: &uni,
                level: &level,
                index: &index,
                store: &store,
                ell,
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
            let mut next: Vec<Element> = Vec::new();
            for g in produced {
                commit(&mut store, &mut next, g, ell);
            }

            if next.is_empty() {
                break;
            }
            // slide the level window: the generation below ℓ−1 is out
            // of every test's reach; in exact mode the freshly expanded
            // level ℓ is too, in approximate mode it becomes evictable
            // cache for the error counts of level ℓ+1's validity tests
            if ell >= 1 {
                store.retire_level(ell as u32 - 1);
            }
            if approx {
                store.unpin_level(ell as u32);
            } else {
                store.retire_level(ell as u32);
            }
            prev_counts = level
                .into_iter()
                .map(|e| (e.items, (e.n_classes, e.n_rows)))
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

/// Commits a generated element: partition into the store (pinned at
/// its level), element into the next level.
fn commit(store: &mut PartitionStore<Vec<u32>>, next: &mut Vec<Element>, g: Generated, ell: usize) {
    if let Some(part) = g.partition {
        store.insert_pinned(g.element.items.clone(), ell as u32 + 1, part);
    }
    next.push(g.element);
}

/// Everything an expansion worker needs, shared read-only.
struct ExpandCtx<'a> {
    alg: &'a Ctane,
    rel: &'a Relation,
    uni: &'a Universe,
    level: &'a [Element],
    index: &'a FxHashMap<&'a [u32], usize>,
    store: &'a PartitionStore<Vec<u32>>,
    ell: usize,
    last_level: bool,
}

impl ExpandCtx<'_> {
    /// Expands one prefix run: every join pair `(x, y)` inside it, in
    /// order, handing survivors to `emit`. The run's last items ascend,
    /// so the elements sharing a last attribute — which would give the
    /// child two items on one attribute — form one block, and each `x`
    /// pairs only with the elements past its own block.
    fn run_pairs(
        &self,
        (run_start, run_end): (usize, usize),
        scratch: &mut RefineScratch,
        stats: &mut SearchStats,
        mut emit: impl FnMut(Generated),
    ) {
        let last = |x: usize| *self.level[x].items.last().expect("level ≥ 1");
        let mut buf = StrippedPartition::default();
        let mut cplus: Bits = vec![0; self.uni.words];
        // the child's items, and the reused key of its other ℓ-subsets
        let mut z: Vec<u32> = Vec::with_capacity(self.ell + 1);
        let mut sub: Vec<u32> = Vec::with_capacity(self.ell);
        let mut block_end = run_start;
        for x in run_start..run_end {
            let e1 = &self.level[x];
            let (a1, v1) = self.uni.items[last(x) as usize];
            if x == block_end {
                block_end = (x + 1..run_end)
                    .find(|&y| self.uni.attr(last(y)) != a1)
                    .unwrap_or(run_end);
            }
            for y in block_end..run_end {
                let (e2, i2) = (&self.level[y], last(y));
                let (a2, v2) = self.uni.items[i2 as usize];
                z.clear();
                z.extend_from_slice(&e1.items);
                z.push(i2);
                // C⁺(Z) = ∩_B C⁺(Z\B) (step 1); intersecting all ℓ+1
                // parents implies condition 1 (module docs). e1 is Z
                // without its last item and e2 without the one before;
                // (iii) the other ℓ−1 subsets, each without one prefix
                // item, must be alive elements too
                cplus.copy_from_slice(&e1.cplus);
                bits_and_assign(&mut cplus, &e2.cplus);
                let mut all_present = true;
                for p in 0..self.ell - 1 {
                    sub.clear();
                    sub.extend_from_slice(&z[..p]);
                    sub.extend_from_slice(&z[p + 1..]);
                    match self.index.get(sub.as_slice()) {
                        Some(&pi) => bits_and_assign(&mut cplus, &self.level[pi].cplus),
                        None => {
                            all_present = false;
                            break;
                        }
                    }
                }
                if !all_present || bits_is_empty(&cplus) {
                    continue;
                }
                // (ii) refine the cheaper parent's partition and check
                // k-frequency of the constant part
                let (base, extra_attr, extra_val) = if e1.n_rows <= e2.n_rows {
                    (e1, a2, v2)
                } else {
                    (e2, a1, v1)
                };
                let base_part = self
                    .store
                    .peek(&base.items)
                    .expect("current level is pinned in the store");
                if self.last_level {
                    // counts suffice: this element's partition would
                    // never be refined or error-counted again
                    let (n_classes, n_rows) =
                        base_part.refine_counts(self.rel, extra_attr, extra_val, scratch);
                    if n_rows < self.alg.k {
                        stats.pruned += 1;
                        continue;
                    }
                    emit(Generated {
                        element: Element {
                            items: z.clone(),
                            n_classes,
                            n_rows,
                            cplus: cplus.clone(),
                        },
                        partition: None,
                    });
                } else {
                    base_part.refine_into(self.rel, extra_attr, extra_val, scratch, &mut buf);
                    stats.partitions += 1;
                    if buf.n_rows() < self.alg.k {
                        stats.pruned += 1;
                        continue; // rejected: the buffer is simply reused
                    }
                    emit(Generated {
                        element: Element {
                            items: z.clone(),
                            n_classes: buf.n_classes(),
                            n_rows: buf.n_rows(),
                            cplus: cplus.clone(),
                        },
                        partition: Some(buf.take_compact()),
                    });
                }
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::BruteForce;
    use crate::minimality::audit_cover;
    use cfd_datagen::cust::cust_relation;
    use cfd_datagen::random::RandomRelation;
    use cfd_model::cfd::parse_cfd;

    #[test]
    fn finds_paper_rules_on_cust() {
        let r = cust_relation();
        let cover = Ctane::new(2).discover(&r);
        for txt in [
            "([CC, AC] -> CT, (_, _ || _))",      // f1
            "([CC, ZIP] -> STR, (44, _ || _))",   // φ0
            "([CC, AC] -> CT, (44, 131 || EDI))", // φ2
            "(AC -> CT, (908 || MH))",            // Example 7
        ] {
            let c = parse_cfd(&r, txt).unwrap();
            assert!(cover.contains(&c), "{txt} missing:\n{}", cover.display(&r));
        }
        let phi1 = parse_cfd(&r, "([CC, AC] -> CT, (01, 908 || MH))").unwrap();
        assert!(!cover.contains(&phi1), "φ1 is not minimal");
    }

    #[test]
    fn example8_k3_rules() {
        // the valid CFDs highlighted at point (C) of Example 8, k = 3
        let r = cust_relation();
        let cover = Ctane::new(3).discover(&r);
        for txt in [
            "(ZIP -> CC, (07974 || 01))",
            "(ZIP -> AC, (07974 || 908))",
            "(STR -> ZIP, (_ || _))",
        ] {
            let c = parse_cfd(&r, txt).unwrap();
            assert!(cover.contains(&c), "{txt} missing:\n{}", cover.display(&r));
        }
        // (ZIP → CC, (07974 ‖ _)) is implied by the constant variant —
        // excluded under the canonical-cover convention
        let v = parse_cfd(&r, "(ZIP -> CC, (07974 || _))").unwrap();
        assert!(!cover.contains(&v));
    }

    #[test]
    fn matches_brute_force_on_cust() {
        let r = cust_relation();
        for k in [1, 2, 3] {
            let got = Ctane::new(k).discover(&r);
            let want = BruteForce::new(k).discover(&r);
            let (only_g, only_w) = got.diff(&want);
            assert!(
                only_g.is_empty() && only_w.is_empty(),
                "k={k}\nctane-only: {:?}\noracle-only: {:?}",
                only_g.iter().map(|c| c.display(&r)).collect::<Vec<_>>(),
                only_w.iter().map(|c| c.display(&r)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn matches_brute_force_on_random_relations() {
        for seed in 0..10 {
            let r = RandomRelation::small(seed).generate();
            for k in [1, 2] {
                let got = Ctane::new(k).discover(&r);
                let want = BruteForce::new(k).discover(&r);
                assert_eq!(
                    got.cfds(),
                    want.cfds(),
                    "seed {seed} k {k}\nctane:\n{}\noracle:\n{}",
                    got.display(&r),
                    want.display(&r)
                );
            }
        }
    }

    #[test]
    fn outputs_audit_clean() {
        let r = cust_relation();
        let cover = Ctane::new(2).discover(&r);
        let problems = audit_cover(&r, cover.iter(), 2);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn max_lhs_caps_output() {
        let r = cust_relation();
        let capped = Ctane::new(1).max_lhs(1).discover(&r);
        assert!(capped.iter().all(|c| c.lhs_attrs().len() <= 1));
        let full = Ctane::new(1).discover(&r);
        assert!(full.iter().any(|c| c.lhs_attrs().len() >= 2));
    }

    #[test]
    fn approximate_discovery_admits_noisy_rules() {
        use cfd_model::measure::measure;
        let r = cust_relation();
        // (AC → CT, (131 ‖ EDI)) is violated by t8 (AC=131, CT=UN):
        // confidence 2/3 — invisible to exact discovery, found at θ=0.6
        let noisy = parse_cfd(&r, "(AC -> CT, (131 || EDI))").unwrap();
        let exact = Ctane::new(2).discover(&r);
        assert!(!exact.contains(&noisy));
        let approx = Ctane::new(2).min_confidence(0.6).discover(&r);
        assert!(
            approx.contains(&noisy),
            "θ=0.6 cover:\n{}",
            approx.display(&r)
        );
        // every emitted rule's measured confidence clears the threshold
        for cfd in approx.iter() {
            let m = measure(&r, cfd);
            assert!(
                m.confidence() + 1e-9 >= 0.6,
                "{} has confidence {}",
                cfd.display(&r),
                m.confidence()
            );
        }
        // wildcard-RHS relaxation: AC → CT has one dissenter in the
        // 131-class (confidence 7/8 = 0.875)
        let fd = parse_cfd(&r, "(AC -> CT, (_ || _))").unwrap();
        assert!(!exact.contains(&fd));
        let approx = Ctane::new(1).min_confidence(0.875).discover(&r);
        assert!(
            approx.contains(&fd),
            "θ=0.875 cover:\n{}",
            approx.display(&r)
        );
        assert!(!Ctane::new(1).min_confidence(0.9).discover(&r).contains(&fd));
    }

    #[test]
    fn theta_one_reproduces_the_exact_cover() {
        for seed in 0..6 {
            let r = RandomRelation::small(seed).generate();
            for k in [1, 2] {
                let exact = Ctane::new(k).discover(&r);
                let via_theta = Ctane::new(k).min_confidence(1.0).discover(&r);
                assert_eq!(exact.cfds(), via_theta.cfds(), "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn empty_and_tiny_relations() {
        use cfd_model::relation::relation_from_rows;
        use cfd_model::schema::Schema;
        let schema = Schema::new(["A", "B"]).unwrap();
        let one = relation_from_rows(schema.clone(), &[vec!["x", "y"]]).unwrap();
        let cover = Ctane::new(1).discover(&one);
        // single tuple: constant CFDs (∅ → A, (‖x)) and (∅ → B, (‖y))
        let ca = parse_cfd(&one, "([] -> A, ( || x))").unwrap();
        let cb = parse_cfd(&one, "([] -> B, ( || y))").unwrap();
        assert!(cover.contains(&ca) && cover.contains(&cb));
        // k larger than |r| ⇒ empty cover
        assert!(Ctane::new(2).discover(&one).is_empty());
    }
}

#[cfg(test)]
mod engine_tests {
    use super::*;
    use cfd_datagen::cust::cust_relation;
    use cfd_datagen::random::RandomRelation;

    #[test]
    fn threads_do_not_change_the_cover() {
        let r = cust_relation();
        for k in [1, 2, 3] {
            let serial = Ctane::new(k).discover(&r);
            for t in [2, 4, 7] {
                let sharded = Ctane::new(k).threads(t).discover(&r);
                assert_eq!(serial.cfds(), sharded.cfds(), "k={k} t={t}");
            }
        }
        for seed in 0..4 {
            let r = RandomRelation::small(seed).generate();
            let serial = Ctane::new(1).min_confidence(0.8).discover(&r);
            let sharded = Ctane::new(1).min_confidence(0.8).threads(4).discover(&r);
            assert_eq!(serial.cfds(), sharded.cfds(), "seed {seed}");
        }
    }

    #[test]
    fn cache_budget_does_not_change_the_cover() {
        let r = cust_relation();
        for theta in [0.6, 0.875, 1.0] {
            let cached = Ctane::new(1).min_confidence(theta).discover(&r);
            let uncached = Ctane::new(1)
                .min_confidence(theta)
                .cache_budget(0)
                .discover(&r);
            assert_eq!(cached.cfds(), uncached.cfds(), "θ={theta}");
        }
    }

    #[test]
    fn emission_measures_match_the_reference() {
        use cfd_model::measure::measure;
        let r = cust_relation();
        for theta in [0.6, 1.0] {
            let (cover, measures) = Ctane::new(2)
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

#[cfg(test)]
mod completeness_probe {
    use super::*;
    use cfd_model::cfd::parse_cfd;
    use cfd_model::relation::relation_from_rows;
    use cfd_model::schema::Schema;

    #[test]
    fn approx_hold_does_not_over_prune() {
        // Same shape as TANE's review probe: ∅→A θ-holds approximately
        // (9×x, 1×y at θ=0.9), which must not erase the minimal
        // approximate FD A→B (keep 9/10; ∅→B keeps only 8/10)
        let schema = Schema::new(["A", "B"]).unwrap();
        let mut rows: Vec<Vec<&str>> = vec![];
        for i in 0..9 {
            rows.push(vec!["x", if i < 8 { "p" } else { "q" }]);
        }
        rows.push(vec!["y", "q"]);
        let r = relation_from_rows(schema, &rows).unwrap();
        let fd = parse_cfd(&r, "(A -> B, (_ || _))").unwrap();
        assert!(cfd_model::measure::measure(&r, &fd).meets(0.9), "premise");
        let cover = Ctane::new(1).min_confidence(0.9).discover(&r);
        assert!(
            cover.contains(&fd),
            "A->B missing from θ=0.9 cover:\n{}",
            cover.display(&r)
        );
    }

    #[test]
    fn approx_hold_of_a_generalization_does_not_over_prune() {
        // (A1, A2 → A0, (v1, _ ‖ _)) holds exactly on its 3 rows. At
        // level 2, the generalization ({A1, A2}, (_, _)) of its parent
        // ({A1, A2}, (v1, _)) θ-holds (A1 → A2, (_ ‖ _)) with one
        // violation (keep 5/6 ≥ 0.7). That may remove only (A2, _) from
        // the parent's C⁺: dropping every item outside {A1, A2} too, as
        // an exact hold does, takes (A0, _) along, and level 3 never
        // tests the rule
        let schema = Schema::new(["A0", "A1", "A2"]).unwrap();
        let rows = [
            ["v1", "v0", "v0"],
            ["v2", "v0", "v0"],
            ["v1", "v1", "v0"],
            ["v2", "v1", "v1"],
            ["v0", "v0", "v0"],
            ["v2", "v1", "v1"],
        ];
        let rows: Vec<Vec<&str>> = rows.iter().map(|r| r.to_vec()).collect();
        let r = relation_from_rows(schema, &rows).unwrap();
        let rule = parse_cfd(&r, "([A1, A2] -> A0, (v1, _ || _))").unwrap();
        let m = cfd_model::measure::measure(&r, &rule);
        assert_eq!((m.support, m.violations), (3, 0), "premise");
        let cover = Ctane::new(1).min_confidence(0.7).discover(&r);
        assert!(
            cover.contains(&rule),
            "rule missing from θ=0.7 cover:\n{}",
            cover.display(&r)
        );
    }
}
