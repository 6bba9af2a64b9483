//! The zero-allocation refinement engine: stripped partitions refined
//! into caller-owned buffers.
//!
//! A textbook refinement allocates a fresh partition (and, for wildcard
//! refinement, a hash map plus one `Vec` per sub-class) for **every**
//! candidate a level-wise miner tests — `O(candidates)` heap churn per
//! lattice level. This module builds the machinery around three ideas:
//!
//! * **Stripped storage** ([`StrippedPartition`]): as in TANE, a
//!   partition stores its classes of at least two rows back to back and
//!   counts its rows; every row it does not store is a one-row class.
//!   Deep lattice levels, where most classes have collapsed to one row,
//!   hold and copy almost nothing. A partition none of whose rows is
//!   stripped — the full one, a single class, and their constant
//!   refinements — stores every class, one-row classes included, so it
//!   counts its own constant refinements. A stripped partition cannot
//!   tell which of its stripped rows carry a constant, so refining it by
//!   one takes the child's row count from the caller; CTANE reads it off
//!   the lattice (DESIGN.md §9).
//! * **Scratch reuse** ([`RefineScratch`]): wildcard splitting runs as
//!   a two-pass counting sort against a dense per-code array sized once
//!   for the widest column of the relation; only the codes actually
//!   touched are reset between classes. No hashing, no sort, no
//!   per-class allocation.
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
//! stripped rows, each as a one-row class, so every validity test — and
//! the partition error `e = rows − keep` behind approximate discovery —
//! is computed as if nothing were stripped.

use cfd_model::pattern::PVal;
use cfd_model::relation::{Column, Relation, TupleId};
use cfd_model::schema::AttrId;

/// Reusable working state for refinement: a dense per-code counter
/// array (sized for the widest column) and the list of codes touched by
/// the current class.
///
/// One scratch serves any number of `refine_into` / `refine_counts` /
/// `keep_count` calls on the same relation; parallel workers each own
/// one.
#[derive(Clone, Debug, Default)]
pub struct RefineScratch {
    counts: Vec<u32>,
    touched: Vec<u32>,
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
        }
    }

    #[inline]
    fn ensure(&mut self, dom: usize) {
        if self.counts.len() < dom {
            self.counts.resize(dom, 0);
        }
    }

    /// Counts the codes of `col` over `class`, listing each code in
    /// `touched` when it is first seen — so `touched` lists the class's
    /// sub-classes in first-appearance order. [`RefineScratch::reset`]
    /// undoes it.
    #[inline]
    fn tally(&mut self, class: &[TupleId], col: &Column) {
        self.touched.clear();
        for &t in class {
            let c = col.code(t) as usize;
            if self.counts[c] == 0 {
                self.touched.push(c as u32);
            }
            self.counts[c] += 1;
        }
    }

    /// Zeroes the counters of the touched codes.
    #[inline]
    fn reset(&mut self) {
        for &c in &self.touched {
            self.counts[c as usize] = 0;
        }
    }
}

/// Destination marker for sub-classes of one row, which are stripped.
const STRIPPED: u32 = u32::MAX;

/// A partition in stripped representation: stored classes back to back
/// (class `i` spans `tuples[offsets[i]..offsets[i+1]]`) and the number
/// of rows. Every row that is not stored is a one-row class.
///
/// While none of its rows is stripped, a partition stores every class,
/// one-row classes included: the full partition, a single class, and
/// their constant refinements. Otherwise it stores exactly its classes
/// of at least two rows.
///
/// Logical counts include the stripped rows:
/// `n_classes = stored classes + (n_rows − stored rows)` — every count
/// a level-wise miner tests is the count of the unstripped equivalence
/// relation.
#[derive(Clone, Debug, Default)]
pub struct StrippedPartition {
    tuples: Vec<TupleId>,
    offsets: Vec<u32>,
    n_rows: usize,
}

impl StrippedPartition {
    /// The empty partition (no classes, no rows).
    pub fn empty() -> StrippedPartition {
        StrippedPartition::default()
    }

    /// The partition w.r.t. `(∅, ())`: one class holding every tuple.
    pub fn full(n_rows: usize) -> StrippedPartition {
        let mut out = StrippedPartition::default();
        out.tuples.extend(0..n_rows as TupleId);
        out.close_class(0, 1);
        out.n_rows = n_rows;
        out
    }

    /// The partition w.r.t. `({A}, (_))` of `rel`, from the column's
    /// value regions (regions of one row are stripped).
    pub fn by_attribute(rel: &Relation, a: AttrId) -> StrippedPartition {
        let idx = rel.column(a).regions();
        let mut out = StrippedPartition::default();
        for c in 0..idx.n_codes() as u32 {
            let start = out.tuples.len();
            out.tuples.extend_from_slice(idx.region(c));
            out.close_class(start, 2);
        }
        out.n_rows = rel.n_rows();
        out
    }

    /// A partition holding `class` (ascending) as its only class; empty
    /// input gives the empty partition.
    pub fn from_single_class(class: &[TupleId]) -> StrippedPartition {
        let mut out = StrippedPartition::default();
        out.tuples.extend_from_slice(class);
        out.close_class(0, 1);
        out.n_rows = class.len();
        out
    }

    /// Keeps the members appended past `start` as one stored class when
    /// there are at least `min_len` (≥ 1) of them, and drops them
    /// otherwise.
    #[inline]
    fn close_class(&mut self, start: usize, min_len: usize) {
        if self.tuples.len() - start < min_len {
            self.tuples.truncate(start);
        } else {
            self.push_end(self.tuples.len());
        }
    }

    /// Records that a stored class ends at `end` of `tuples`.
    #[inline]
    fn push_end(&mut self, end: usize) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.offsets.push(end as u32);
    }

    /// The rows not stored, each a one-row class.
    #[inline]
    fn n_stripped(&self) -> usize {
        self.n_rows - self.tuples.len()
    }

    /// Number of equivalence classes, each stripped row counted as a
    /// one-row class.
    #[inline]
    pub fn n_classes(&self) -> usize {
        self.offsets.len().saturating_sub(1) + self.n_stripped()
    }

    /// Number of member tuples (the support of the pattern's constant
    /// part), stripped rows included.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The stored classes: every class while no row is stripped, else
    /// the classes of at least two rows.
    pub fn stored_classes(&self) -> impl Iterator<Item = &[TupleId]> {
        self.offsets
            .windows(2)
            .map(move |w| &self.tuples[w[0] as usize..w[1] as usize])
    }

    /// Approximate heap footprint in bytes — what the level walk
    /// reports as bytes held.
    pub fn approx_bytes(&self) -> usize {
        (self.tuples.len() + self.offsets.len()) * std::mem::size_of::<u32>()
    }

    /// Clears the buffer for reuse (capacity retained).
    pub fn clear(&mut self) {
        self.tuples.clear();
        self.offsets.clear();
        self.n_rows = 0;
    }

    /// Moves the contents out as a right-sized partition, leaving the
    /// buffer empty but with its capacity intact — the one allocation a
    /// surviving candidate pays.
    pub fn take_compact(&mut self) -> StrippedPartition {
        let out = self.clone();
        self.clear();
        out
    }

    /// Refines by one attribute into the caller-owned buffer `out`
    /// (cleared first): computes the partition w.r.t.
    /// `(X ∪ {B}, (sp, v))` from the partition w.r.t. `(X, sp)`.
    ///
    /// * `v = Var` splits every stored class by the code of `B` (two-pass
    ///   counting sort through `scratch`); stripped rows stay stripped —
    ///   a one-row class stays one under refinement.
    /// * `v = Const(c)` keeps, per stored class, the members with
    ///   `t[B] = c`: each class is intersected with the (ascending)
    ///   value region of `c` ([`Column::regions`]) — per class, whichever
    ///   of "scan the class" and "probe the window" is cheaper. Both give
    ///   the same layout. A stripped partition cannot see which of its
    ///   stripped rows carry `c`, so it keeps stripping and takes the
    ///   child's row count from `rows`.
    ///
    /// `rows` is the child's row count: required when a stripped
    /// partition is refined by a constant, otherwise optional (and, when
    /// given, checked in debug builds).
    ///
    /// Nothing is allocated beyond what `out`'s and `scratch`'s
    /// capacities already hold; repeated calls against same-sized
    /// inputs allocate nothing at all.
    ///
    /// # Panics
    ///
    /// When a stripped partition is refined by a constant without `rows`.
    pub fn refine_into(
        &self,
        rel: &Relation,
        b: AttrId,
        v: PVal,
        rows: Option<usize>,
        scratch: &mut RefineScratch,
        out: &mut StrippedPartition,
    ) {
        let _sp = cfd_obs::span!("partition.refine");
        out.clear();
        let col = rel.column(b);
        match v {
            PVal::Var => {
                scratch.ensure(col.domain_size());
                for class in self.stored_classes() {
                    split_class_into(class, col, scratch, out);
                }
                out.n_rows = self.n_rows;
            }
            PVal::Const(c) => {
                let region = col.regions().region(c);
                let stripped = self.n_stripped() > 0;
                let min_len = if stripped { 2 } else { 1 };
                for class in self.stored_classes() {
                    let start = out.tuples.len();
                    collect_const_matches(class, col, c, region, &mut out.tuples);
                    out.close_class(start, min_len);
                }
                out.n_rows = if stripped {
                    child_rows(rows)
                } else {
                    out.tuples.len()
                };
            }
        }
        debug_assert!(
            rows.is_none_or(|r| r == out.n_rows),
            "wrong child row count"
        );
    }

    /// The `(n_classes, n_rows)` of [`refine_into`]'s result, computed
    /// without materializing it — for candidates whose child partition
    /// is never refined again (the final lattice level), validity and
    /// k-frequency need only these two numbers. `rows` is as for
    /// [`refine_into`].
    ///
    /// [`refine_into`]: StrippedPartition::refine_into
    pub fn refine_counts(
        &self,
        rel: &Relation,
        b: AttrId,
        v: PVal,
        rows: Option<usize>,
        scratch: &mut RefineScratch,
    ) -> (usize, usize) {
        let _sp = cfd_obs::span!("partition.refine_counts");
        let col = rel.column(b);
        let counts = match v {
            PVal::Var => {
                scratch.ensure(col.domain_size());
                let mut classes = self.n_stripped();
                for class in self.stored_classes() {
                    scratch.tally(class, col);
                    classes += scratch.touched.len();
                    scratch.reset();
                }
                (classes, self.n_rows)
            }
            PVal::Const(c) => {
                let region = col.regions().region(c);
                let (mut classes, mut kept) = (0usize, 0usize);
                for class in self.stored_classes() {
                    let m = count_const_matches(class, col, c, region);
                    classes += usize::from(m > 0);
                    kept += m;
                }
                if self.n_stripped() > 0 {
                    // each matching row no stored class holds is a
                    // one-row class
                    let rows = child_rows(rows);
                    (classes + rows - kept, rows)
                } else {
                    (classes, kept)
                }
            }
        };
        debug_assert!(rows.is_none_or(|r| r == counts.1), "wrong child row count");
        counts
    }

    /// The g1-style *keep count* w.r.t. a candidate RHS attribute: the
    /// per-class max-frequency sum over column `a` — the maximum number
    /// of member tuples keepable such that every class agrees on `a`.
    /// A stripped row keeps itself; `n_rows − keep` is the partition
    /// error `e(X → A)` (computed pre-strip by construction, since the
    /// counts include stripped rows).
    pub fn keep_count(&self, rel: &Relation, a: AttrId, scratch: &mut RefineScratch) -> usize {
        let col = rel.column(a);
        scratch.ensure(col.domain_size());
        let mut keep = self.n_stripped();
        for class in self.stored_classes() {
            scratch.tally(class, col);
            let best = scratch.touched.iter().map(|&c| scratch.counts[c as usize]);
            keep += best.max().unwrap_or(0) as usize;
            scratch.reset();
        }
        keep
    }
}

/// The child's row count a stripped partition's constant refinement
/// needs.
fn child_rows(rows: Option<usize>) -> usize {
    rows.expect("refining a stripped partition by a constant needs the child's row count")
}

/// Splits one stored class by the codes of `col` into `out`: a two-pass
/// counting sort through the scratch's dense counter array. Sub-classes
/// come out in the order their first members appear, and sub-classes of
/// one row are stripped: a class whose members all differ stores
/// nothing and skips the routing pass.
fn split_class_into(
    class: &[TupleId],
    col: &Column,
    scratch: &mut RefineScratch,
    out: &mut StrippedPartition,
) {
    scratch.tally(class, col);
    let distinct = scratch.touched.len();
    if distinct == class.len() || distinct == 1 {
        scratch.reset();
        if distinct < class.len() {
            // the class does not split
            out.tuples.extend_from_slice(class);
            out.push_end(out.tuples.len());
        }
        return;
    }
    // turn counts into destinations: sub-classes of two rows or more
    // claim contiguous ranges of `out.tuples`, one-row ones are dropped
    let mut cursor = out.tuples.len();
    for &c in &scratch.touched {
        let count = &mut scratch.counts[c as usize];
        if *count == 1 {
            *count = STRIPPED;
        } else {
            let size = *count as usize;
            *count = cursor as u32;
            cursor += size;
            out.push_end(cursor);
        }
    }
    out.tuples.resize(cursor, 0);
    for &t in class {
        let d = &mut scratch.counts[col.code(t) as usize];
        if *d != STRIPPED {
            out.tuples[*d as usize] = t;
            *d += 1;
        }
    }
    scratch.reset();
}

/// Appends the members of `class` carrying code `c` to `buf`, via the
/// cheaper of a class scan and a region-window probe.
fn collect_const_matches(
    class: &[TupleId],
    col: &Column,
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
fn count_const_matches(class: &[TupleId], col: &Column, c: u32, region: &[TupleId]) -> usize {
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
        s.refine_into(&r, 0, PVal::Var, None, &mut scratch, &mut buf);
        let cap = buf.tuples.capacity();
        let taken = buf.take_compact();
        assert_eq!((taken.n_classes(), taken.n_rows()), (3, r.n_rows()));
        // z's one row is stripped: x's and y's classes are stored
        assert_eq!(taken.stored_classes().count(), 2);
        assert_eq!((buf.n_classes(), buf.n_rows()), (0, 0));
        assert!(buf.tuples.capacity() >= cap.min(1));
        // reuse the buffer for a different refinement
        s.refine_into(&r, 2, PVal::Var, None, &mut scratch, &mut buf);
        assert_eq!((buf.n_classes(), buf.n_rows()), (2, r.n_rows()));
    }

    #[test]
    fn tiny_partitions() {
        let r = rel();
        let mut scratch = RefineScratch::for_relation(&r);
        let mut buf = StrippedPartition::empty();
        assert_eq!(StrippedPartition::full(0).n_classes(), 0);
        // no row stripped: the one-row class is stored …
        let one = StrippedPartition::full(1);
        assert_eq!((one.n_classes(), one.n_rows()), (1, 1));
        assert!(one.stored_classes().eq([&[0][..]]));
        // … and refining it by a wildcard strips it, but still counts it
        one.refine_into(&r, 0, PVal::Var, None, &mut scratch, &mut buf);
        assert_eq!((buf.n_classes(), buf.n_rows()), (1, 1));
        assert_eq!(buf.stored_classes().count(), 0);
        let c = StrippedPartition::from_single_class(&[3, 7]);
        assert_eq!((c.n_classes(), c.n_rows()), (1, 2));
        // t5 is A's one z: refined by z, π(A) needs the child's rows
        let by_a = StrippedPartition::by_attribute(&r, 0);
        let z = r.column(0).dict().code("z").unwrap();
        by_a.refine_into(&r, 0, PVal::Const(z), Some(1), &mut scratch, &mut buf);
        assert_eq!((buf.n_classes(), buf.n_rows()), (1, 1));
        assert_eq!(
            by_a.refine_counts(&r, 0, PVal::Const(z), Some(1), &mut scratch),
            (1, 1)
        );
    }
}
