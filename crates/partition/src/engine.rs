//! The zero-allocation refinement engine: stripped partitions refined
//! into caller-owned buffers.
//!
//! A textbook refinement allocates a fresh partition (and, for wildcard
//! refinement, a hash map plus one `Vec` per sub-class) for **every**
//! candidate a level-wise miner tests — `O(candidates)` heap churn per
//! lattice level. This module builds the machinery around three ideas:
//!
//! * **Stripped storage** ([`StrippedPartition`]): classes of size ≥ 2
//!   are stored back to back; members of singleton classes live in a
//!   side list (`singles`). Singletons are invariant under wildcard
//!   refinement, so deep lattice levels — where most classes have
//!   collapsed to singletons — refine with one `memcpy` instead of a
//!   per-class walk. Unlike TANE's fully stripped partitions the
//!   singleton *members* are retained, because constant refinement and
//!   row counts (CTANE's constant-RHS validity, k-frequency) still
//!   need them; only the per-class bookkeeping is stripped.
//! * **Scratch reuse** ([`RefineScratch`]): wildcard splitting runs as
//!   a two-pass counting sort against a dense per-code array sized once
//!   for the widest column of the relation; only the codes actually
//!   touched are reset between classes. No hashing, no per-class
//!   allocation.
//! * **Caller-owned output** ([`StrippedPartition::refine_into`]): the
//!   result is written into a reusable buffer. Candidates that fail
//!   (k-infrequency, invalid) cost no allocation at all; survivors pay
//!   exactly one right-sized copy ([`StrippedPartition::take_compact`])
//!   when they are persisted. [`StrippedPartition::refine_counts`]
//!   goes further and computes only `(classes, rows)` — the validity
//!   counts — without materializing the child, for candidates whose
//!   partition is never needed again (the final lattice level).
//!
//! Invariants (see DESIGN.md §9): `n_rows`/`n_classes` always count the
//! stripped singletons, so every validity test — and the partition
//! error `e = rows − keep` behind approximate discovery — is computed
//! as if nothing were stripped.

use cfd_model::pattern::PVal;
use cfd_model::relation::{Relation, TupleId};
use cfd_model::schema::AttrId;

/// Reusable working state for refinement: a dense per-code counter
/// array (sized for the widest column), the list of codes touched by
/// the current class, and a row buffer for constant probes.
///
/// One scratch serves any number of `refine_into` / `refine_counts` /
/// `keep_count` calls on the same relation; parallel workers each own
/// one.
#[derive(Clone, Debug, Default)]
pub struct RefineScratch {
    counts: Vec<u32>,
    touched: Vec<u32>,
    row_buf: Vec<TupleId>,
}

impl RefineScratch {
    /// Scratch sized for `rel`: the counter array covers the widest
    /// column domain, so every attribute of the relation can refine
    /// through it.
    pub fn for_relation(rel: &Relation) -> RefineScratch {
        let widest = (0..rel.arity())
            .map(|a| rel.column(a).domain_size())
            .max()
            .unwrap_or(0);
        RefineScratch {
            counts: vec![0; widest],
            touched: Vec::new(),
            row_buf: Vec::new(),
        }
    }

    #[inline]
    fn ensure(&mut self, dom: usize) {
        if self.counts.len() < dom {
            self.counts.resize(dom, 0);
        }
    }
}

/// Sentinel destination for sub-classes of size 1 (they go to
/// `singles`, not the class area).
const SINGLE: u32 = u32::MAX;

/// A partition in stripped representation: classes of size ≥ 2 stored
/// back to back (class `i` spans `tuples[offsets[i]..offsets[i+1]]`),
/// singleton-class members in `singles`.
///
/// Logical counts include the singletons:
/// `n_classes = wide classes + |singles|`,
/// `n_rows = |tuples| + |singles|` — every count a level-wise miner
/// tests is the count of the unstripped equivalence relation.
#[derive(Clone, Debug, Default)]
pub struct StrippedPartition {
    tuples: Vec<TupleId>,
    offsets: Vec<u32>,
    singles: Vec<TupleId>,
}

impl StrippedPartition {
    /// The empty partition (no classes, no rows).
    pub fn empty() -> StrippedPartition {
        StrippedPartition::default()
    }

    /// The partition w.r.t. `(∅, ())`: one class holding every tuple.
    pub fn full(n_rows: usize) -> StrippedPartition {
        match n_rows {
            0 => StrippedPartition::default(),
            1 => StrippedPartition {
                tuples: Vec::new(),
                offsets: Vec::new(),
                singles: vec![0],
            },
            n => StrippedPartition {
                tuples: (0..n as TupleId).collect(),
                offsets: vec![0, n as u32],
                singles: Vec::new(),
            },
        }
    }

    /// The partition w.r.t. `({A}, (_))` of `rel`, from the column's
    /// value regions (regions of size 1 are stripped to `singles`).
    pub fn by_attribute(rel: &Relation, a: AttrId) -> StrippedPartition {
        let idx = rel.column(a).regions();
        let mut out = StrippedPartition::default();
        for c in 0..idx.n_codes() as u32 {
            out.push_class(idx.region(c));
        }
        out
    }

    /// A partition holding `class` as its only class (empty input gives
    /// the empty partition).
    pub fn from_single_class(class: &[TupleId]) -> StrippedPartition {
        let mut out = StrippedPartition::default();
        out.push_class(class);
        out
    }

    /// The partition of the tuples matching every `(attr, val)` item of
    /// `pattern`, grouped by their values on the pattern's attributes —
    /// built from scratch (the rebuild path behind a cache miss: an
    /// entry TANE's [`PartitionStore`](crate::PartitionStore) no longer
    /// holds, or a parent CTANE did not keep for its approximate error
    /// counts).
    pub fn of_pattern<I: IntoIterator<Item = (AttrId, PVal)>>(
        rel: &Relation,
        pattern: I,
        scratch: &mut RefineScratch,
    ) -> StrippedPartition {
        let mut cur = StrippedPartition::full(rel.n_rows());
        let mut buf = StrippedPartition::default();
        for (a, v) in pattern {
            cur.refine_into(rel, a, v, scratch, &mut buf);
            std::mem::swap(&mut cur, &mut buf);
        }
        cur
    }

    /// Appends one class, stripping it to `singles` when it has a
    /// single member. `class` must be disjoint from existing members.
    pub fn push_class(&mut self, class: &[TupleId]) {
        match class.len() {
            0 => {}
            1 => self.singles.push(class[0]),
            _ => {
                if self.offsets.is_empty() {
                    self.offsets.push(0);
                }
                self.tuples.extend_from_slice(class);
                self.offsets.push(self.tuples.len() as u32);
            }
        }
    }

    /// Number of equivalence classes, stripped singletons included.
    #[inline]
    pub fn n_classes(&self) -> usize {
        self.n_wide() + self.singles.len()
    }

    /// Number of member tuples (the support of the pattern's constant
    /// part), stripped singletons included.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.tuples.len() + self.singles.len()
    }

    /// Number of classes of size ≥ 2.
    #[inline]
    pub fn n_wide(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Members of the stripped singleton classes.
    #[inline]
    pub fn singles(&self) -> &[TupleId] {
        &self.singles
    }

    /// The classes of size ≥ 2.
    pub fn wide_classes(&self) -> impl Iterator<Item = &[TupleId]> {
        self.offsets
            .windows(2)
            .map(move |w| &self.tuples[w[0] as usize..w[1] as usize])
    }

    /// True iff every class is a singleton (`X` is a key of the
    /// matching sub-instance).
    #[inline]
    pub fn is_unique(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Approximate heap footprint in bytes — what a cache budget
    /// accounts ([`PartitionStore`](crate::PartitionStore)'s, and
    /// CTANE's approximate retention).
    pub fn approx_bytes(&self) -> usize {
        (self.tuples.len() + self.offsets.len() + self.singles.len()) * std::mem::size_of::<u32>()
    }

    /// Clears the buffer for reuse (capacity retained).
    pub fn clear(&mut self) {
        self.tuples.clear();
        self.offsets.clear();
        self.singles.clear();
    }

    /// Moves the contents out as a right-sized partition, leaving the
    /// buffer empty but with its capacity intact — the one allocation a
    /// surviving candidate pays.
    pub fn take_compact(&mut self) -> StrippedPartition {
        let out = StrippedPartition {
            tuples: self.tuples.clone(),
            offsets: self.offsets.clone(),
            singles: self.singles.clone(),
        };
        self.clear();
        out
    }

    /// Refines by one attribute into the caller-owned buffer `out`
    /// (cleared first): computes the partition w.r.t.
    /// `(X ∪ {B}, (sp, v))` from the partition w.r.t. `(X, sp)`.
    ///
    /// * `v = Var` splits every wide class by the code of `B` (two-pass
    ///   counting sort through `scratch`); singletons are copied over
    ///   wholesale — a singleton stays a singleton under refinement.
    /// * `v = Const(c)` keeps, per class, the members with `t[B] = c`:
    ///   each wide class is intersected with the (ascending) value
    ///   region of `c` ([`Column::regions`]) — per class, whichever of
    ///   "scan the class" and "probe the window" is cheaper. Both give
    ///   the same layout.
    ///
    /// Nothing is allocated beyond what `out`'s and `scratch`'s
    /// capacities already hold; repeated calls against same-sized
    /// inputs allocate nothing at all.
    ///
    /// [`Column::regions`]: cfd_model::relation::Column::regions
    pub fn refine_into(
        &self,
        rel: &Relation,
        b: AttrId,
        v: PVal,
        scratch: &mut RefineScratch,
        out: &mut StrippedPartition,
    ) {
        let _sp = cfd_obs::span!("partition.refine");
        out.clear();
        let col = rel.column(b);
        match v {
            PVal::Var => {
                scratch.ensure(col.domain_size());
                // singletons survive wildcard refinement unchanged
                out.singles.extend_from_slice(&self.singles);
                for class in self.wide_classes() {
                    split_class_into(class, col, scratch, out);
                }
            }
            PVal::Const(c) => {
                let region = col.regions().region(c);
                for class in self.wide_classes() {
                    scratch.row_buf.clear();
                    collect_const_matches(class, col, c, region, &mut scratch.row_buf);
                    // borrow dance: push_class reads from the scratch
                    let row_buf = std::mem::take(&mut scratch.row_buf);
                    out.push_class(&row_buf);
                    scratch.row_buf = row_buf;
                }
                out.singles
                    .extend(self.singles.iter().copied().filter(|&t| col.code(t) == c));
            }
        }
    }

    /// The `(n_classes, n_rows)` of [`refine_into`]'s result, computed
    /// without materializing it — for candidates whose child partition
    /// is never refined again (the final lattice level), validity and
    /// k-frequency need only these two numbers.
    ///
    /// [`refine_into`]: StrippedPartition::refine_into
    pub fn refine_counts(
        &self,
        rel: &Relation,
        b: AttrId,
        v: PVal,
        scratch: &mut RefineScratch,
    ) -> (usize, usize) {
        let _sp = cfd_obs::span!("partition.refine_counts");
        let col = rel.column(b);
        match v {
            PVal::Var => {
                scratch.ensure(col.domain_size());
                let mut classes = self.singles.len();
                for class in self.wide_classes() {
                    scratch.touched.clear();
                    for &t in class {
                        let c = col.code(t) as usize;
                        if scratch.counts[c] == 0 {
                            scratch.touched.push(c as u32);
                        }
                        scratch.counts[c] += 1;
                    }
                    classes += scratch.touched.len();
                    for &c in &scratch.touched {
                        scratch.counts[c as usize] = 0;
                    }
                }
                (classes, self.n_rows())
            }
            PVal::Const(c) => {
                let region = col.regions().region(c);
                let mut classes = 0usize;
                let mut rows = 0usize;
                for class in self.wide_classes() {
                    let m = count_const_matches(class, col, c, region);
                    if m > 0 {
                        classes += 1;
                        rows += m;
                    }
                }
                let matching_singles = self.singles.iter().filter(|&&t| col.code(t) == c).count();
                (classes + matching_singles, rows + matching_singles)
            }
        }
    }

    /// The g1-style *keep count* w.r.t. a candidate RHS attribute: the
    /// per-class max-frequency sum over column `a` — the maximum number
    /// of member tuples keepable such that every class agrees on `a`.
    /// Singletons keep their one tuple; `n_rows − keep` is the
    /// partition error `e(X → A)` (computed pre-strip by construction,
    /// since the counts include singletons).
    pub fn keep_count(&self, rel: &Relation, a: AttrId, scratch: &mut RefineScratch) -> usize {
        let col = rel.column(a);
        scratch.ensure(col.domain_size());
        let mut keep = self.singles.len();
        for class in self.wide_classes() {
            scratch.touched.clear();
            let mut best = 0u32;
            for &t in class {
                let c = col.code(t) as usize;
                if scratch.counts[c] == 0 {
                    scratch.touched.push(c as u32);
                }
                scratch.counts[c] += 1;
                best = best.max(scratch.counts[c]);
            }
            keep += best as usize;
            for &c in &scratch.touched {
                scratch.counts[c as usize] = 0;
            }
        }
        keep
    }

    /// Every class as a sorted list, the whole collection sorted —
    /// the layout-independent view parity tests compare.
    pub fn sorted_classes(&self) -> Vec<Vec<TupleId>> {
        let mut cs: Vec<Vec<TupleId>> = self
            .wide_classes()
            .map(|c| {
                let mut v = c.to_vec();
                v.sort_unstable();
                v
            })
            .chain(self.singles.iter().map(|&t| vec![t]))
            .collect();
        cs.sort();
        cs
    }
}

/// Splits one wide class by the codes of `col` into `out`: a two-pass
/// counting sort through the scratch's dense counter array. Sub-classes
/// come out in ascending code order (deterministic), size-1 sub-classes
/// go to `out.singles`.
fn split_class_into(
    class: &[TupleId],
    col: &cfd_model::relation::Column,
    scratch: &mut RefineScratch,
    out: &mut StrippedPartition,
) {
    scratch.touched.clear();
    for &t in class {
        let c = col.code(t) as usize;
        if scratch.counts[c] == 0 {
            scratch.touched.push(c as u32);
        }
        scratch.counts[c] += 1;
    }
    if scratch.touched.len() == 1 {
        // the class does not split
        scratch.counts[scratch.touched[0] as usize] = 0;
        if out.offsets.is_empty() {
            out.offsets.push(0);
        }
        out.tuples.extend_from_slice(class);
        out.offsets.push(out.tuples.len() as u32);
        return;
    }
    // deterministic sub-class order: ascending code
    scratch.touched.sort_unstable();
    // turn counts into destinations; wide sub-classes claim contiguous
    // ranges of `out.tuples`, singletons are marked for `out.singles`
    let mut cursor = out.tuples.len();
    if out.offsets.is_empty() {
        out.offsets.push(0);
    }
    for &c in &scratch.touched {
        let sz = scratch.counts[c as usize] as usize;
        if sz == 1 {
            scratch.counts[c as usize] = SINGLE;
        } else {
            scratch.counts[c as usize] = cursor as u32;
            cursor += sz;
            out.offsets.push(cursor as u32);
        }
    }
    out.tuples.resize(cursor, 0);
    for &t in class {
        let c = col.code(t) as usize;
        let d = scratch.counts[c];
        if d == SINGLE {
            out.singles.push(t);
        } else {
            out.tuples[d as usize] = t;
            scratch.counts[c] = d + 1;
        }
    }
    for &c in &scratch.touched {
        scratch.counts[c as usize] = 0;
    }
}

/// Collects the members of `class` carrying code `c` into `buf`, via
/// the cheaper of a class scan and a region-window probe.
fn collect_const_matches(
    class: &[TupleId],
    col: &cfd_model::relation::Column,
    c: u32,
    region: &[TupleId],
    buf: &mut Vec<TupleId>,
) {
    match const_window(class, region) {
        Some(window) => {
            for &t in window {
                if class.binary_search(&t).is_ok() {
                    buf.push(t);
                }
            }
        }
        None => buf.extend(class.iter().copied().filter(|&t| col.code(t) == c)),
    }
}

/// Counts the members of `class` carrying code `c` (same adaptive
/// strategy as [`collect_const_matches`], no writes).
fn count_const_matches(
    class: &[TupleId],
    col: &cfd_model::relation::Column,
    c: u32,
    region: &[TupleId],
) -> usize {
    match const_window(class, region) {
        Some(window) => window
            .iter()
            .filter(|t| class.binary_search(t).is_ok())
            .count(),
        None => class.iter().filter(|&&t| col.code(t) == c).count(),
    }
}

/// The region window overlapping `class`, when probing it beats
/// scanning the class (both slices are ascending). `None` means "scan
/// the class directly".
fn const_window<'a>(class: &[TupleId], region: &'a [TupleId]) -> Option<&'a [TupleId]> {
    debug_assert!(class.windows(2).all(|w| w[0] < w[1]));
    let log_region = (usize::BITS - region.len().leading_zeros()) as usize;
    // a class smaller than the cost of locating its window is cheapest
    // to filter directly
    if class.len() <= 2 * log_region {
        return None;
    }
    let lo = region.partition_point(|&t| t < class[0]);
    let hi = region.partition_point(|&t| t <= *class.last().unwrap());
    let window = &region[lo..hi];
    let log_class = (usize::BITS - class.len().leading_zeros()) as usize;
    if window.len() * log_class < class.len() {
        Some(window)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::relation::relation_from_rows;
    use cfd_model::schema::Schema;

    fn rel() -> Relation {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        relation_from_rows(
            schema,
            &[
                vec!["x", "1", "p"], // t0
                vec!["x", "2", "p"], // t1
                vec!["y", "1", "q"], // t2
                vec!["x", "1", "q"], // t3
                vec!["y", "2", "p"], // t4
                vec!["z", "1", "p"], // t5
            ],
        )
        .unwrap()
    }

    #[test]
    fn take_compact_leaves_buffer_reusable() {
        let r = rel();
        let mut scratch = RefineScratch::for_relation(&r);
        let mut buf = StrippedPartition::default();
        let s = StrippedPartition::full(r.n_rows());
        s.refine_into(&r, 0, PVal::Var, &mut scratch, &mut buf);
        let cap = buf.tuples.capacity();
        let taken = buf.take_compact();
        assert_eq!(taken.n_rows(), r.n_rows());
        assert_eq!(buf.n_rows(), 0);
        assert!(buf.tuples.capacity() >= cap.min(1));
        // reuse the buffer for a different refinement
        s.refine_into(&r, 2, PVal::Var, &mut scratch, &mut buf);
        assert_eq!(buf.n_rows(), r.n_rows());
    }

    #[test]
    fn tiny_partitions() {
        assert_eq!(StrippedPartition::full(0).n_classes(), 0);
        let one = StrippedPartition::full(1);
        assert_eq!((one.n_classes(), one.n_rows()), (1, 1));
        assert!(one.is_unique());
        let c = StrippedPartition::from_single_class(&[3, 7]);
        assert_eq!((c.n_classes(), c.n_rows()), (1, 2));
        assert!(!c.is_unique());
    }
}
