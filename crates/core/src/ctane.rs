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
//! prunes their valid candidates call for. A `Pattern` is built only for
//! an emitted rule's LHS.
//!
//! ## One flat table per level
//!
//! A level keeps its elements in flat buffers addressed by position
//! (DESIGN.md §9): element `e` has its items at `items[e·ℓ..(e+1)·ℓ]`
//! and its `C⁺` at `cplus[e·w..(e+1)·w]`, and its counts, partition and
//! liveness sit at `e` in aligned vectors. The level is in item order,
//! so a binary search over its `items` answers every lookup by item
//! list: the join's subset checks, step 2.c's generalizations (whose
//! valid-candidate marks sit in a vector aligned with the level), and,
//! once the level has become the level below, step 2's parent counts.
//! Step 3 retires an element in place: it keeps its position and drops
//! its partition, and the join skips it.
//!
//! Partitions are read by position. In exact mode each prefix run of
//! the join takes its elements' partitions and frees them when the run
//! ends, on whichever worker owns it. In approximate mode the level's
//! partitions stay for the next step 2's error counts: in position
//! order, each is kept if it fits what is left of
//! [`Ctane::cache_budget`], a miss rebuilds the parent from the
//! relation for that one count, and all are dropped as soon as that
//! step 2 is done. Refinement runs through a reusable [`RefineScratch`]
//! into a reused buffer, so candidates that fail k-frequency allocate
//! nothing; elements of the final lattice level skip materialization
//! entirely ([`StrippedPartition::refine_counts`] — their partitions
//! would never be refined again, and validity needs only the class/row
//! counts).
//! With [`Ctane::threads`] above 1 the expansion shards its prefix-join
//! runs across worker threads and merges in run order, so the output
//! is byte-identical to the serial run.
//!
//! After step 3 at level 2 the alive pairs are kept as compressed
//! sparse rows, and every later join skips a pair `(x, y)` whose two
//! last items are not an alive pair before it copies, ANDs or looks up
//! anything. The filter is exact: every generated element had all its
//! immediate subsets alive, so every 2-subset of an alive element is an
//! alive pair, and `{last(x), last(y)}` is the one 2-subset of the
//! child `x ∪ {last(y)}` that lies inside neither `x` nor `y`.
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
use cfd_model::measure::{keep_meets, RuleMeasure};
use cfd_model::pattern::{PVal, Pattern};
use cfd_model::progress::{shard_runs, Cancelled, Control, SearchStats, StoreCounters};
use cfd_model::relation::Relation;
use cfd_model::schema::AttrId;
use cfd_partition::{RefineScratch, StrippedPartition};
use std::cmp::Ordering;
use std::sync::Mutex;

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

/// The position of `key` among the `n` lists of `len` items stored back
/// to back in `items`, which ascend: a binary search over the flat
/// buffer.
fn position(items: &[u32], len: usize, n: usize, key: &[u32]) -> Option<usize> {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match items[mid * len..(mid + 1) * len].cmp(key) {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Some(mid),
        }
    }
    None
}

/// One lattice level in item order, as one flat table (module docs).
/// Once it is the level below, only what step 2 reads stays: items,
/// counts and — in approximate mode — partitions.
#[derive(Default)]
struct Level {
    /// `ℓ`, the items per element.
    ell: usize,
    /// `w`, the words per `C⁺`.
    words: usize,
    items: Vec<u32>,
    cplus: Bits,
    /// Each element's `(classes, rows)`.
    counts: Vec<(usize, usize)>,
    /// Each element's partition while the level holds it: `None` when
    /// retired, count-only or dropped to fit the cache budget; empty
    /// once an exact join has freed the level's partitions.
    parts: Vec<Option<StrippedPartition>>,
    /// False once step 3 retired the element.
    alive: Vec<bool>,
}

impl Level {
    fn new(ell: usize, words: usize) -> Level {
        Level {
            ell,
            words,
            ..Level::default()
        }
    }

    fn len(&self) -> usize {
        self.counts.len()
    }

    fn push(
        &mut self,
        items: &[u32],
        cplus: &[u64],
        counts: (usize, usize),
        part: Option<StrippedPartition>,
    ) {
        self.items.extend_from_slice(items);
        self.cplus.extend_from_slice(cplus);
        self.counts.push(counts);
        self.parts.push(part);
        self.alive.push(true);
    }

    /// Appends `other`'s elements after this level's.
    fn append(&mut self, mut other: Level) {
        self.items.append(&mut other.items);
        self.cplus.append(&mut other.cplus);
        self.counts.append(&mut other.counts);
        self.parts.append(&mut other.parts);
        self.alive.append(&mut other.alive);
    }

    fn items(&self, e: usize) -> &[u32] {
        &self.items[e * self.ell..(e + 1) * self.ell]
    }

    fn cplus(&self, e: usize) -> &[u64] {
        &self.cplus[e * self.words..(e + 1) * self.words]
    }

    /// The position of the element on `key`, retired or not.
    fn find(&self, key: &[u32]) -> Option<usize> {
        position(&self.items, self.ell, self.len(), key)
    }

    /// The partitions the level holds, and their approximate bytes.
    fn held(&self) -> (u64, u64) {
        self.parts
            .iter()
            .flatten()
            .fold((0, 0), |(n, b), p| (n + 1, b + p.approx_bytes() as u64))
    }
}

/// Folds what `levels` hold into the run's high-water marks.
fn sample(store: &mut StoreCounters, levels: [&Level; 2]) {
    let (a, b) = (levels[0].held(), levels[1].held());
    store.entries = store.entries.max(a.0 + b.0);
    store.bytes = store.bytes.max(a.1 + b.1);
}

/// Approximate mode's retention: keeps each of `parts`, in position
/// order, that fits what is left of `budget`, and drops the rest,
/// counting them as evictions.
fn retain_within(parts: &mut [Option<StrippedPartition>], budget: usize, evictions: &mut u64) {
    let mut left = budget;
    for slot in parts {
        if let Some(bytes) = slot.as_ref().map(StrippedPartition::approx_bytes) {
            if bytes <= left {
                left -= bytes;
            } else {
                *slot = None;
                *evictions += 1;
            }
        }
    }
}

/// The alive level-2 pairs as compressed sparse rows: item `a`'s
/// partners, each above `a`, ascend in
/// `partners[starts[a]..starts[a + 1]]`. Memory is O(universe + pairs).
struct Pairs {
    starts: Vec<u32>,
    partners: Vec<u32>,
}

impl Pairs {
    /// The alive elements of level 2, over a universe of `n_items`.
    fn of_level(level: &Level, n_items: usize) -> Pairs {
        debug_assert_eq!(level.ell, 2);
        let mut starts = vec![0u32; n_items + 1];
        let mut partners = Vec::new();
        // the level is in item order: partners land grouped and ascending
        for e in (0..level.len()).filter(|&e| level.alive[e]) {
            let &[a, b] = level.items(e) else {
                unreachable!("level 2 holds pairs")
            };
            starts[a as usize + 1] += 1;
            partners.push(b);
        }
        for a in 0..n_items {
            starts[a + 1] += starts[a];
        }
        Pairs { starts, partners }
    }

    fn of(&self, a: u32) -> &[u32] {
        let a = a as usize;
        &self.partners[self.starts[a] as usize..self.starts[a + 1] as usize]
    }
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

    /// Byte budget for the partitions an approximate run keeps of the
    /// level below for its error counts (the level being expanded is
    /// always held). `usize::MAX` (the default) keeps them all; `0`
    /// keeps none, so every wildcard error count rebuilds its parent
    /// partition from the relation. Covers are identical either way —
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
    /// (`pruned`), materialized partitions (`partitions`) and the
    /// partition traffic of [`StoreCounters`] (`store`).
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
        // approximate mode keeps the level below's partitions, so
        // wildcard-RHS candidates can be error-counted
        let approx = theta < 1.0;
        let mut out: Vec<Cfd> = Vec::new();
        let mut meas: Vec<RuleMeasure> = Vec::new();
        if n == 0 || n < self.k {
            return Ok((CanonicalCover::from_cfds(out), Vec::new()));
        }
        let mut scratch = RefineScratch::for_relation(rel);
        let mut store = StoreCounters::default();

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
        let words = uni.words;

        // level 0: the ∅ element, whose partition (one class of every
        // row) level 1's approximate error counts read
        let mut below = Level::new(0, 0);
        below.push(&[], &[], (1, n), approx.then(|| StrippedPartition::full(n)));
        retain_within(&mut below.parts, self.cache_budget, &mut store.evictions);

        // level 1: one element per item of C⁺(∅), in the universe's
        // order, its partition built from the same regions
        let mut level = Level::new(1, words);
        for (i, &(a, v)) in (0u32..).zip(&uni.items) {
            let part = match v {
                PVal::Const(c) => {
                    StrippedPartition::from_single_class(rel.column(a).regions().region(c))
                }
                PVal::Var => StrippedPartition::by_attribute(rel, a),
            };
            stats.partitions += 1;
            let counts = (part.n_classes(), part.n_rows());
            level.push(&[i], &uni.cond1(i), counts, Some(part));
        }
        sample(&mut store, [&below, &level]);

        let mut pairs: Option<Pairs> = None;
        // reused lookup keys: a candidate's parent, an element's
        // generalization
        let (mut parent, mut general) = (Vec::new(), Vec::new());

        let mut ell = 1usize;
        loop {
            ctrl.check()?;
            ctrl.report("level", ell, arity);
            let _sp = cfd_obs::span!("ctane.level");
            debug_assert!(
                (1..level.len()).all(|e| level.items(e - 1) < level.items(e)),
                "the level is kept in item order"
            );

            // Step 2: validate candidate CFDs, walking the level in
            // descending item order so that every generalization of an
            // element is validated before it (module docs). `marks[e]`
            // holds the attributes A whose candidate held at e, and
            // those that held exactly.
            let mut marks = vec![(AttrSet::EMPTY, AttrSet::EMPTY); level.len()];
            for e in (0..level.len()).rev() {
                let items = &level.items[e * ell..(e + 1) * ell];
                let cplus = &mut level.cplus[e * words..(e + 1) * words];
                let (n_classes, n_rows) = level.counts[e];
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
                    let Some(g) = position(&level.items, ell, level.counts.len(), &general) else {
                        continue;
                    };
                    let (ok, exact) = marks[g];
                    let ok = ok.difference(s);
                    for &i in items {
                        if ok.contains(uni.attr(i)) {
                            bit_clear(cplus, i);
                        }
                    }
                    outside |= !exact.difference(s).is_empty();
                }

                let (mut ok, mut exact) = (AttrSet::EMPTY, AttrSet::EMPTY);
                for &i in items {
                    if !bit_test(cplus, i) {
                        continue;
                    }
                    let (a, ca) = uni.items[i as usize];
                    parent.clear();
                    parent.extend(items.iter().copied().filter(|&j| j != i));
                    let p = below
                        .find(&parent)
                        .expect("parent element must exist (generation invariant)");
                    let (p_classes, p_rows) = below.counts[p];
                    stats.candidates += 1;
                    // the exact count tests, or — below θ = 1.0 — the
                    // g1-style relaxation keep ≥ θ·rows (keep_meets
                    // short-circuits exactness with integer arithmetic).
                    // `violations` is the partition error p_rows − keep,
                    // i.e. the emitted rule's measure — computed here,
                    // where the partitions are at hand.
                    let (valid, violations) = match ca {
                        PVal::Var if p_classes == n_classes => (true, 0),
                        PVal::Const(_) if p_rows == n_rows => (true, 0),
                        _ if !approx => (false, 0),
                        PVal::Const(_) => (keep_meets(n_rows, p_rows, theta), p_rows - n_rows),
                        PVal::Var => {
                            // the parent's keep count: from its held
                            // partition, or rebuilt from the relation
                            // on a miss — the budget only ever trades
                            // recomputation, never correctness
                            let keep = match &below.parts[p] {
                                Some(part) => {
                                    store.hits += 1;
                                    part.keep_count(rel, a, &mut scratch)
                                }
                                None => {
                                    store.misses += 1;
                                    let pairs = parent.iter().map(|&j| uni.items[j as usize]);
                                    let rebuilt =
                                        StrippedPartition::of_pattern(rel, pairs, &mut scratch);
                                    stats.partitions += 1;
                                    rebuilt.keep_count(rel, a, &mut scratch)
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
                marks[e] = (ok, exact);
            }
            // the level below is done with: its partitions go
            drop(below);

            // Step 3: retire empty-C⁺ elements in place
            for e in 0..level.len() {
                if bits_is_empty(level.cplus(e)) {
                    level.alive[e] = false;
                    level.parts[e] = None;
                    stats.pruned += 1;
                }
            }

            if ell >= arity || self.max_lhs.is_some_and(|m| ell > m) {
                break;
            }
            if ell == 2 {
                pairs = Some(Pairs::of_level(&level, uni.items.len()));
            }

            // Step 4: generate level ℓ+1 by prefix join. Prefix runs —
            // maximal stretches sharing the first ℓ−1 items, contiguous
            // in the level's item order — each take their elements'
            // partitions
            let mut parts = std::mem::take(&mut level.parts).into_iter();
            let mut runs: Vec<Run> = Vec::new();
            let mut start = 0;
            for e in 1..=level.len() {
                if e == level.len() || level.items(e)[..ell - 1] != level.items(start)[..ell - 1] {
                    runs.push(Run {
                        start,
                        end: e,
                        parts: Mutex::new(parts.by_ref().take(e - start).collect()),
                    });
                    start = e;
                }
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
                pairs: pairs.as_ref(),
                last_level,
                free: !approx,
            };
            // worker w owns runs w, w+T, …; batches merge in run
            // order, so the level comes out byte-identical to the
            // serial walk (the shared shard_runs harness)
            let produced: Vec<Level> = shard_runs(
                &runs,
                self.threads,
                ctrl,
                stats,
                || JoinScratch::new(rel, words, ell),
                |run, scratch, local, out| {
                    let mut chunk = Level::new(ell + 1, words);
                    expand.run_pairs(run, scratch, local, &mut chunk);
                    if chunk.len() > 0 {
                        out.push(chunk);
                    }
                },
            )?;
            let mut next = Level::new(ell + 1, words);
            for chunk in produced {
                next.append(chunk);
            }
            // the level becomes the level below: step 2 reads its
            // counts, and in approximate mode the partitions that fit
            level.cplus = Bits::new();
            if approx {
                level.parts = runs
                    .into_iter()
                    .flat_map(|r| {
                        r.parts
                            .into_inner()
                            .expect("no worker panicked holding a run")
                    })
                    .collect();
                retain_within(&mut level.parts, self.cache_budget, &mut store.evictions);
            }
            sample(&mut store, [&level, &next]);

            if next.len() == 0 {
                break;
            }
            below = level;
            level = next;
            ell += 1;
        }
        stats.store = store;

        Ok(CanonicalCover::from_measured(
            out.into_iter().zip(meas).collect(),
        ))
    }
}

/// A prefix run of the join: positions `start..end` of the level and
/// their partitions, which the one worker that owns the run takes.
struct Run {
    start: usize,
    end: usize,
    parts: Mutex<Vec<Option<StrippedPartition>>>,
}

/// What a join worker reuses from run to run.
struct JoinScratch {
    refine: RefineScratch,
    /// The refinement target; a survivor leaves with a right-sized copy.
    buf: StrippedPartition,
    /// The child's `C⁺`.
    cplus: Bits,
    /// The child's items, and the reused key of its other ℓ-subsets.
    z: Vec<u32>,
    sub: Vec<u32>,
}

impl JoinScratch {
    fn new(rel: &Relation, words: usize, ell: usize) -> JoinScratch {
        JoinScratch {
            refine: RefineScratch::for_relation(rel),
            buf: StrippedPartition::default(),
            cplus: vec![0; words],
            z: Vec::with_capacity(ell + 1),
            sub: Vec::with_capacity(ell),
        }
    }
}

/// Everything an expansion worker needs, shared read-only.
struct ExpandCtx<'a> {
    alg: &'a Ctane,
    rel: &'a Relation,
    uni: &'a Universe,
    level: &'a Level,
    /// The alive level-2 pairs, once level 2 is done.
    pairs: Option<&'a Pairs>,
    last_level: bool,
    /// Exact mode: each run frees its partitions when it ends.
    free: bool,
}

impl ExpandCtx<'_> {
    /// Sets `z` to the child `x ∪ {i2}` and reports whether its ℓ−1
    /// subsets that drop a prefix item — the other two are `x` and `y`
    /// — are all alive, ANDing each one's `C⁺` into `cplus`.
    fn other_subsets(
        &self,
        x: usize,
        i2: u32,
        z: &mut Vec<u32>,
        sub: &mut Vec<u32>,
        cplus: &mut [u64],
    ) -> bool {
        let lv = self.level;
        z.clear();
        z.extend_from_slice(lv.items(x));
        z.push(i2);
        (0..lv.ell - 1).all(|p| {
            sub.clear();
            sub.extend_from_slice(&z[..p]);
            sub.extend_from_slice(&z[p + 1..]);
            let found = lv.find(sub).filter(|&q| lv.alive[q]);
            found
                .inspect(|&q| bits_and_assign(cplus, lv.cplus(q)))
                .is_some()
        })
    }

    /// Expands one prefix run: every join pair `(x, y)` of alive
    /// elements inside it, in order, appending survivors to `out`. The
    /// run's last items ascend, so the elements sharing a last
    /// attribute — which would give the child two items on one
    /// attribute — form one block, and each `x` pairs only with the
    /// elements past its own block.
    fn run_pairs(&self, run: &Run, s: &mut JoinScratch, stats: &mut SearchStats, out: &mut Level) {
        let lv = self.level;
        let mut parts = run.parts.lock().expect("no worker panicked holding a run");
        let last = |x: usize| lv.items[(x + 1) * lv.ell - 1];
        let mut block_end = run.start;
        for x in run.start..run.end {
            let (a1, v1) = self.uni.items[last(x) as usize];
            if x == block_end {
                block_end = (x + 1..run.end)
                    .find(|&y| self.uni.attr(last(y)) != a1)
                    .unwrap_or(run.end);
            }
            if !lv.alive[x] {
                continue;
            }
            let partners = self.pairs.map(|p| p.of(last(x)));
            let mut next_partner = 0;
            for y in (block_end..run.end).filter(|&y| lv.alive[y]) {
                let i2 = last(y);
                // the level-2 pair filter: x's partners and the ys'
                // last items both ascend, so one merge step decides
                if let Some(partners) = partners {
                    while partners.get(next_partner).is_some_and(|&p| p < i2) {
                        next_partner += 1;
                    }
                    if partners.get(next_partner) != Some(&i2) {
                        debug_assert!(
                            !self.other_subsets(x, i2, &mut s.z, &mut s.sub, &mut s.cplus),
                            "the pair filter skipped a child whose subsets are alive"
                        );
                        continue;
                    }
                }
                // C⁺(Z) = ∩_B C⁺(Z\B) (step 1); intersecting all ℓ+1
                // parents implies condition 1 (module docs). x is Z
                // without its last item and y without the one before;
                // the other ℓ−1 subsets must be alive elements too
                s.cplus.copy_from_slice(lv.cplus(x));
                bits_and_assign(&mut s.cplus, lv.cplus(y));
                if bits_is_empty(&s.cplus) {
                    continue;
                }
                if !self.other_subsets(x, i2, &mut s.z, &mut s.sub, &mut s.cplus)
                    || bits_is_empty(&s.cplus)
                {
                    continue;
                }
                // refine the cheaper parent's partition and check
                // k-frequency of the constant part
                let (a2, v2) = self.uni.items[i2 as usize];
                let (base, extra_attr, extra_val) = if lv.counts[x].1 <= lv.counts[y].1 {
                    (x, a2, v2)
                } else {
                    (y, a1, v1)
                };
                let base_part = parts[base - run.start]
                    .as_ref()
                    .expect("an alive element holds its partition through its run");
                if self.last_level {
                    // counts suffice: this element's partition would
                    // never be refined or error-counted again
                    let counts =
                        base_part.refine_counts(self.rel, extra_attr, extra_val, &mut s.refine);
                    if counts.1 < self.alg.k {
                        stats.pruned += 1;
                        continue;
                    }
                    out.push(&s.z, &s.cplus, counts, None);
                } else {
                    base_part.refine_into(
                        self.rel,
                        extra_attr,
                        extra_val,
                        &mut s.refine,
                        &mut s.buf,
                    );
                    stats.partitions += 1;
                    if s.buf.n_rows() < self.alg.k {
                        stats.pruned += 1;
                        continue; // rejected: the buffer is simply reused
                    }
                    let counts = (s.buf.n_classes(), s.buf.n_rows());
                    out.push(&s.z, &s.cplus, counts, Some(s.buf.take_compact()));
                }
            }
        }
        if self.free {
            // exact mode: no later step reads these partitions
            *parts = Vec::new();
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
    fn retention_stays_within_the_budget_and_drops_only_what_cannot_fit() {
        // large and small partitions alternate: a budget just below the
        // large one's size drops it and must still keep the small ones
        let parts: Vec<_> = [64, 2, 64, 2, 16]
            .into_iter()
            .map(|rows| Some(StrippedPartition::full(rows)))
            .collect();
        let bytes = |p: &Option<StrippedPartition>| p.as_ref().map_or(0, |p| p.approx_bytes());
        let total: usize = parts.iter().map(bytes).sum();
        for budget in [0, bytes(&parts[0]) - 1, total / 2, total - 1, total] {
            let mut held = parts.clone();
            let mut evictions = 0;
            retain_within(&mut held, budget, &mut evictions);
            let kept: usize = held.iter().map(bytes).sum();
            assert!(kept <= budget, "budget {budget}: {kept} bytes kept");
            // first fit: a dropped partition does not fit even the room
            // left once the pass is done
            let dropped: Vec<_> = (0..parts.len()).filter(|&i| held[i].is_none()).collect();
            for &i in &dropped {
                let room = budget - kept;
                assert!(
                    bytes(&parts[i]) > room,
                    "budget {budget}: dropped {i} would fit"
                );
            }
            assert_eq!(evictions, dropped.len() as u64, "budget {budget}");
        }
    }

    #[test]
    fn level_lookup_finds_each_list_at_its_position_and_nothing_else() {
        // level 0: the one empty list
        let mut level = Level::new(0, 0);
        level.push(&[], &[], (1, 1), None);
        assert_eq!(level.find(&[]), Some(0));
        assert_eq!(level.find(&[0]), None);

        // the 1,140 ascending triples over 0..20 but the last, in item
        // order
        let (len, u, n) = (3, 20u32, 1_139);
        let mut level = Level::new(len, 0);
        for a in 0..u {
            for b in a + 1..u {
                for c in b + 1..u {
                    if level.len() < n {
                        level.push(&[a, b, c], &[], (0, 0), None);
                    }
                }
            }
        }

        let mut key = Vec::new();
        for e in 0..n {
            let list = level.items(e).to_vec();
            assert_eq!(level.find(&list), Some(e));
            // its prefixes, and the list with one item appended
            for p in 0..len {
                assert_eq!(level.find(&list[..p]), None);
            }
            key.clone_from(&list);
            key.push(u);
            assert_eq!(level.find(&key), None);
            // one item changed: to a value outside the lists' range, or
            // swapped with its neighbour (no stored list descends)
            for p in 0..len {
                key.clone_from(&list);
                key[p] += u;
                assert_eq!(level.find(&key), None);
                if p + 1 < len {
                    key.clone_from(&list);
                    key.swap(p, p + 1);
                    assert_eq!(level.find(&key), None);
                }
            }
        }
        // the one left out
        assert_eq!(level.find(&[u - 3, u - 2, u - 1]), None);
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
