//! Compact attribute sets.
//!
//! `attr(R)` is a fixed universe of at most 64 attributes (the paper's
//! largest experiment uses arity 31), so subsets of `attr(R)` are `u64`
//! bitsets. All levelwise and depth-first search structures in the
//! discovery algorithms manipulate these sets in O(1).

use crate::schema::AttrId;
use std::fmt;

/// A set of attributes of a schema, stored as a 64-bit bitset.
///
/// Attribute `i` is a member iff bit `i` is set. The natural order on
/// attributes (used by the lattice of CTANE and the enumeration tree of
/// FastCFD's `FindMin`) is the ascending bit order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct AttrSet(u64);

impl AttrSet {
    /// The empty attribute set.
    pub const EMPTY: AttrSet = AttrSet(0);

    /// Returns the raw bitmask.
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// The singleton set `{a}`.
    #[inline]
    pub fn singleton(a: AttrId) -> Self {
        debug_assert!(a < 64);
        AttrSet(1u64 << a)
    }

    /// The full set `{0, 1, …, arity-1}`.
    #[inline]
    pub fn full(arity: usize) -> Self {
        debug_assert!(arity <= 64);
        if arity == 64 {
            AttrSet(u64::MAX)
        } else {
            AttrSet((1u64 << arity) - 1)
        }
    }

    /// Number of attributes in the set.
    #[inline]
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True iff the set is empty.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Membership test.
    #[inline]
    pub const fn contains(self, a: AttrId) -> bool {
        (self.0 >> a) & 1 == 1
    }

    /// Inserts an attribute (in place).
    #[inline]
    pub fn insert(&mut self, a: AttrId) {
        debug_assert!(a < 64);
        self.0 |= 1u64 << a;
    }

    /// Removes an attribute (in place).
    #[inline]
    pub fn remove(&mut self, a: AttrId) {
        self.0 &= !(1u64 << a);
    }

    /// `self ∪ {a}`.
    #[inline]
    pub const fn with(self, a: AttrId) -> Self {
        AttrSet(self.0 | (1u64 << a))
    }

    /// `self \ {a}`.
    #[inline]
    pub const fn without(self, a: AttrId) -> Self {
        AttrSet(self.0 & !(1u64 << a))
    }

    /// Set union.
    #[inline]
    pub const fn union(self, other: Self) -> Self {
        AttrSet(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub const fn intersection(self, other: Self) -> Self {
        AttrSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    #[inline]
    pub const fn difference(self, other: Self) -> Self {
        AttrSet(self.0 & !other.0)
    }

    /// True iff `self ⊆ other`.
    #[inline]
    pub const fn is_subset(self, other: Self) -> bool {
        self.0 & !other.0 == 0
    }

    /// True iff the two sets intersect.
    #[inline]
    pub const fn intersects(self, other: Self) -> bool {
        self.0 & other.0 != 0
    }

    /// Smallest attribute in the set, if any.
    #[inline]
    pub fn min(self) -> Option<AttrId> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0.trailing_zeros() as AttrId)
        }
    }

    /// Largest attribute in the set, if any.
    #[inline]
    pub fn max(self) -> Option<AttrId> {
        if self.0 == 0 {
            None
        } else {
            Some(63 - self.0.leading_zeros() as AttrId)
        }
    }

    /// Number of members strictly below `a`; this is the index of `a` in
    /// the ascending enumeration of the set (used to address the value
    /// slot of a [`crate::Pattern`]).
    #[inline]
    pub const fn rank(self, a: AttrId) -> usize {
        (self.0 & ((1u64 << a) - 1)).count_ones() as usize
    }

    /// Iterates over the members in ascending order.
    #[inline]
    pub fn iter(self) -> AttrIter {
        AttrIter(self.0)
    }

    /// Iterates over all subsets of the set (including the empty set and
    /// the set itself) in an arbitrary but deterministic order.
    ///
    /// Used by CFDMiner to enumerate candidate free sub-patterns; callers
    /// must keep `len()` small (it yields `2^len` sets).
    pub fn subsets(self) -> SubsetIter {
        SubsetIter {
            universe: self.0,
            current: 0,
            done: false,
        }
    }
}

/// Iterator over the attributes of an [`AttrSet`] in ascending order.
pub struct AttrIter(u64);

impl Iterator for AttrIter {
    type Item = AttrId;

    #[inline]
    fn next(&mut self) -> Option<AttrId> {
        if self.0 == 0 {
            None
        } else {
            let a = self.0.trailing_zeros() as AttrId;
            self.0 &= self.0 - 1;
            Some(a)
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for AttrIter {}

impl IntoIterator for AttrSet {
    type Item = AttrId;
    type IntoIter = AttrIter;

    fn into_iter(self) -> AttrIter {
        self.iter()
    }
}

impl FromIterator<AttrId> for AttrSet {
    fn from_iter<I: IntoIterator<Item = AttrId>>(iter: I) -> Self {
        let mut s = AttrSet::EMPTY;
        for a in iter {
            s.insert(a);
        }
        s
    }
}

/// Iterator over all subsets of a set (the classic `(s - u) & u` walk).
pub struct SubsetIter {
    universe: u64,
    current: u64,
    done: bool,
}

impl Iterator for SubsetIter {
    type Item = AttrSet;

    fn next(&mut self) -> Option<AttrSet> {
        if self.done {
            return None;
        }
        let out = AttrSet(self.current);
        if self.current == self.universe {
            self.done = true;
        } else {
            self.current = (self.current.wrapping_sub(self.universe)) & self.universe;
        }
        Some(out)
    }
}

impl fmt::Debug for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut s = AttrSet::EMPTY;
        assert!(s.is_empty());
        s.insert(3);
        s.insert(0);
        s.insert(5);
        assert_eq!(s.len(), 3);
        assert!(s.contains(3));
        assert!(!s.contains(1));
        s.remove(3);
        assert!(!s.contains(3));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5]);
    }

    #[test]
    fn set_algebra() {
        let a = AttrSet::from_iter([0, 1, 2]);
        let b = AttrSet::from_iter([1, 2, 3]);
        assert_eq!(a.union(b), AttrSet::from_iter([0, 1, 2, 3]));
        assert_eq!(a.intersection(b), AttrSet::from_iter([1, 2]));
        assert_eq!(a.difference(b), AttrSet::singleton(0));
        assert!(AttrSet::from_iter([1, 2]).is_subset(a));
        assert!(a.intersects(b));
    }

    #[test]
    fn rank_addresses_sorted_position() {
        let s = AttrSet::from_iter([2, 5, 9]);
        assert_eq!(s.rank(2), 0);
        assert_eq!(s.rank(5), 1);
        assert_eq!(s.rank(9), 2);
        // rank of a non-member is where it would be inserted
        assert_eq!(s.rank(7), 2);
    }

    #[test]
    fn full_and_minmax() {
        let s = AttrSet::full(7);
        assert_eq!(s.len(), 7);
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(6));
        assert_eq!(AttrSet::EMPTY.min(), None);
        assert_eq!(AttrSet::full(64).len(), 64);
    }

    #[test]
    fn subsets_enumerates_powerset() {
        let s = AttrSet::from_iter([1, 4, 6]);
        let subs: Vec<_> = s.subsets().collect();
        assert_eq!(subs.len(), 8);
        assert!(subs.contains(&AttrSet::EMPTY));
        assert!(subs.contains(&s));
        assert!(subs.contains(&AttrSet::from_iter([1, 6])));
        // all yielded sets are subsets
        assert!(subs.iter().all(|t| t.is_subset(s)));
        // no duplicates
        let uniq: std::collections::HashSet<_> = subs.iter().copied().collect();
        assert_eq!(uniq.len(), 8);
    }

    #[test]
    fn subsets_of_empty() {
        let subs: Vec<_> = AttrSet::EMPTY.subsets().collect();
        assert_eq!(subs, vec![AttrSet::EMPTY]);
    }

    #[test]
    fn debug_format() {
        let s = AttrSet::from_iter([0, 3]);
        assert_eq!(format!("{s:?}"), "{0,3}");
    }
}
