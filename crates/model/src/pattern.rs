//! Pattern tuples and the match order `⪯` (Section 2.1.2 of the paper).
//!
//! A pattern tuple `tp` over an attribute set `X` assigns each attribute
//! either a constant from its domain or the unnamed variable `_`. The
//! order `⪯` on values is: `a ⪯ a` and `a ⪯ _` for every constant `a`,
//! and `_ ⪯ _`; it extends pointwise to tuples. A data tuple `t` *matches*
//! `tp` when `t[X] ⪯ tp[X]`.

use crate::attrset::AttrSet;
use crate::relation::{Relation, TupleId};
use crate::schema::AttrId;
use std::fmt;

/// A pattern value: a dictionary-encoded constant or the unnamed variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum PVal {
    /// A constant, as a dictionary code of the owning attribute.
    Const(u32),
    /// The unnamed variable `_`, matching any value.
    Var,
}

impl PVal {
    /// True iff a data code matches this pattern value (`code ⪯ self`).
    #[inline]
    pub fn matches(self, code: u32) -> bool {
        match self {
            PVal::Const(c) => c == code,
            PVal::Var => true,
        }
    }

    /// The order `self ⪯ other` on pattern values (`other` at least as
    /// general as `self`).
    #[inline]
    pub fn leq(self, other: PVal) -> bool {
        match (self, other) {
            (_, PVal::Var) => true,
            (PVal::Const(a), PVal::Const(b)) => a == b,
            (PVal::Var, PVal::Const(_)) => false,
        }
    }

    /// True iff this is a constant.
    #[inline]
    pub fn is_const(self) -> bool {
        matches!(self, PVal::Const(_))
    }

    /// The constant code, if any.
    #[inline]
    pub fn as_const(self) -> Option<u32> {
        match self {
            PVal::Const(c) => Some(c),
            PVal::Var => None,
        }
    }
}

/// A pattern tuple over an attribute set.
///
/// Values are stored in ascending attribute order; `attrs.rank(a)` is the
/// index of attribute `a`'s value.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Debug)]
pub struct Pattern {
    attrs: AttrSet,
    vals: Vec<PVal>,
}

impl Pattern {
    /// The empty pattern (over no attributes); matches every tuple.
    pub fn empty() -> Pattern {
        Pattern::default()
    }

    /// Builds a pattern from an attribute set and values aligned with the
    /// ascending attribute order of the set.
    pub fn new(attrs: AttrSet, vals: Vec<PVal>) -> Pattern {
        assert_eq!(attrs.len(), vals.len(), "pattern arity mismatch");
        Pattern { attrs, vals }
    }

    /// Builds a pattern from `(attribute, value)` pairs (any order).
    pub fn from_pairs<I: IntoIterator<Item = (AttrId, PVal)>>(pairs: I) -> Pattern {
        let mut pairs: Vec<(AttrId, PVal)> = pairs.into_iter().collect();
        pairs.sort_unstable_by_key(|&(a, _)| a);
        let mut attrs = AttrSet::EMPTY;
        let mut vals = Vec::with_capacity(pairs.len());
        for (a, v) in pairs {
            assert!(!attrs.contains(a), "duplicate attribute {a} in pattern");
            attrs.insert(a);
            vals.push(v);
        }
        Pattern { attrs, vals }
    }

    /// An all-wildcard pattern over `attrs` (the pattern of a plain FD).
    pub fn wildcards(attrs: AttrSet) -> Pattern {
        Pattern {
            attrs,
            vals: vec![PVal::Var; attrs.len()],
        }
    }

    /// The attribute set of the pattern.
    #[inline]
    pub fn attrs(&self) -> AttrSet {
        self.attrs
    }

    /// Number of attributes in the pattern.
    #[inline]
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True iff the pattern covers no attribute.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// The value of attribute `a`, if `a` is in the pattern.
    #[inline]
    pub fn get(&self, a: AttrId) -> Option<PVal> {
        if self.attrs.contains(a) {
            Some(self.vals[self.attrs.rank(a)])
        } else {
            None
        }
    }

    /// Iterates over `(attribute, value)` pairs in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, PVal)> + '_ {
        self.attrs.iter().zip(self.vals.iter().copied())
    }

    /// The values slice, aligned with the ascending attribute order.
    #[inline]
    pub fn vals(&self) -> &[PVal] {
        &self.vals
    }

    /// Projects the pattern onto `subset` (`tp[Y]`); `subset` must be a
    /// subset of the pattern's attributes.
    pub fn project(&self, subset: AttrSet) -> Pattern {
        debug_assert!(subset.is_subset(self.attrs));
        Pattern {
            attrs: subset,
            vals: subset
                .iter()
                .map(|a| self.vals[self.attrs.rank(a)])
                .collect(),
        }
    }

    /// Returns the pattern with attribute `a` set to `v` (inserted or
    /// replaced).
    pub fn with(&self, a: AttrId, v: PVal) -> Pattern {
        let mut p = self.clone();
        if p.attrs.contains(a) {
            let i = p.attrs.rank(a);
            p.vals[i] = v;
        } else {
            let i = p.attrs.rank(a);
            p.attrs.insert(a);
            p.vals.insert(i, v);
        }
        p
    }

    /// Returns the pattern with attribute `a` removed.
    pub fn without(&self, a: AttrId) -> Pattern {
        if !self.attrs.contains(a) {
            return self.clone();
        }
        let mut p = self.clone();
        let i = p.attrs.rank(a);
        p.attrs.remove(a);
        p.vals.remove(i);
        p
    }

    /// Attributes whose value is a constant.
    pub fn const_attrs(&self) -> AttrSet {
        self.iter()
            .filter(|&(_, v)| v.is_const())
            .map(|(a, _)| a)
            .collect()
    }

    /// Attributes whose value is the unnamed variable.
    pub fn wildcard_attrs(&self) -> AttrSet {
        self.iter()
            .filter(|&(_, v)| !v.is_const())
            .map(|(a, _)| a)
            .collect()
    }

    /// The constant part `(Xᶜ, tpᶜ)` of the pattern (Section 5.1).
    pub fn constant_part(&self) -> Pattern {
        self.project(self.const_attrs())
    }

    /// True iff every value is a constant.
    pub fn is_all_const(&self) -> bool {
        self.vals.iter().all(|v| v.is_const())
    }

    /// True iff every value is the unnamed variable.
    pub fn is_all_wildcard(&self) -> bool {
        self.vals.iter().all(|v| !v.is_const())
    }

    /// True iff tuple `t` of `rel` matches the pattern
    /// (`t[attrs] ⪯ tp[attrs]`; only constants constrain).
    pub fn matches_row(&self, rel: &Relation, t: TupleId) -> bool {
        self.iter().all(|(a, v)| v.matches(rel.code(t, a)))
    }

    /// The tuple ids of `rel` matching the pattern, in ascending order.
    pub fn matching_rows(&self, rel: &Relation) -> Vec<TupleId> {
        rel.tuples().filter(|&t| self.matches_row(rel, t)).collect()
    }

    /// The order on *patterns over the same attributes*:
    /// `self ⪯ other` iff `self[B] ⪯ other[B]` for every attribute `B`.
    /// Returns `false` when the attribute sets differ.
    pub fn leq(&self, other: &Pattern) -> bool {
        self.attrs == other.attrs && self.vals.iter().zip(&other.vals).all(|(&a, &b)| a.leq(b))
    }

    /// The *item set* containment of Section 3.1 (constant patterns):
    /// `(X,tp) ⊑ (Y,sp)`, i.e. `other = (Y,sp)` is contained in
    /// `self = (X,tp)`: `Y ⊆ X` and `tp[Y] = sp`.
    pub fn contains_pattern(&self, other: &Pattern) -> bool {
        other.attrs.is_subset(self.attrs) && self.project(other.attrs) == *other
    }

    /// Renders the pattern with attribute names and decoded constants,
    /// e.g. `(CC=01, AC=908, CT=_)`.
    pub fn display(&self, rel: &Relation) -> String {
        let mut out = String::from("(");
        for (i, (a, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(rel.schema().name(a));
            out.push('=');
            match v {
                PVal::Const(c) => out.push_str(rel.column(a).dict().value(c)),
                PVal::Var => out.push('_'),
            }
        }
        out.push(')');
        out
    }
}

impl fmt::Display for PVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PVal::Const(c) => write!(f, "#{c}"),
            PVal::Var => write!(f, "_"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::relation_from_rows;
    use crate::schema::Schema;

    fn rel() -> Relation {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        relation_from_rows(
            schema,
            &[
                vec!["a1", "b1", "c1"],
                vec!["a1", "b2", "c2"],
                vec!["a2", "b1", "c1"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn pval_order() {
        let a = PVal::Const(1);
        let b = PVal::Const(2);
        assert!(a.leq(a));
        assert!(!a.leq(b));
        assert!(a.leq(PVal::Var));
        assert!(PVal::Var.leq(PVal::Var));
        assert!(!PVal::Var.leq(a));
        assert!(a.matches(1));
        assert!(!a.matches(2));
        assert!(PVal::Var.matches(7));
    }

    #[test]
    fn build_and_get() {
        let p = Pattern::from_pairs([(2, PVal::Var), (0, PVal::Const(5))]);
        assert_eq!(p.attrs(), AttrSet::from_iter([0, 2]));
        assert_eq!(p.get(0), Some(PVal::Const(5)));
        assert_eq!(p.get(2), Some(PVal::Var));
        assert_eq!(p.get(1), None);
        assert_eq!(p.const_attrs(), AttrSet::singleton(0));
        assert_eq!(p.wildcard_attrs(), AttrSet::singleton(2));
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicate_attr_panics() {
        let _ = Pattern::from_pairs([(0, PVal::Var), (0, PVal::Const(1))]);
    }

    #[test]
    fn project_with_without() {
        let p = Pattern::from_pairs([(0, PVal::Const(1)), (1, PVal::Var), (3, PVal::Const(2))]);
        let q = p.project(AttrSet::from_iter([0, 3]));
        assert_eq!(
            q,
            Pattern::from_pairs([(0, PVal::Const(1)), (3, PVal::Const(2))])
        );
        let r = p.with(1, PVal::Const(9));
        assert_eq!(r.get(1), Some(PVal::Const(9)));
        let s = p.with(2, PVal::Var);
        assert_eq!(s.len(), 4);
        assert_eq!(s.get(2), Some(PVal::Var));
        assert_eq!(s.get(3), Some(PVal::Const(2)));
        let t = p.without(1);
        assert_eq!(t.attrs(), AttrSet::from_iter([0, 3]));
        assert_eq!(t.get(3), Some(PVal::Const(2)));
        assert_eq!(p.without(5), p);
    }

    #[test]
    fn matching_rows() {
        let r = rel();
        // A = a1
        let p = Pattern::from_pairs([(0, PVal::Const(r.column(0).dict().code("a1").unwrap()))]);
        assert_eq!(p.matching_rows(&r), vec![0, 1]);
        // wildcard-only patterns match everything
        let q = Pattern::wildcards(AttrSet::from_iter([0, 1, 2]));
        assert_eq!(q.matching_rows(&r).len(), 3);
        // empty pattern matches everything
        assert_eq!(Pattern::empty().matching_rows(&r).len(), 3);
        // conjunction
        let b1 = r.column(1).dict().code("b1").unwrap();
        let pq = p.with(1, PVal::Const(b1));
        assert_eq!(pq.matching_rows(&r), vec![0]);
    }

    #[test]
    fn pattern_orders() {
        let tp = Pattern::from_pairs([(0, PVal::Const(1)), (1, PVal::Const(2))]);
        let sp = Pattern::from_pairs([(0, PVal::Const(1)), (1, PVal::Var)]);
        assert!(tp.leq(&sp));
        assert!(!sp.leq(&tp));
        assert!(tp.leq(&tp));
        // itemset containment requires equal constants
        let sub = Pattern::from_pairs([(0, PVal::Const(1))]);
        assert!(tp.contains_pattern(&sub));
        assert!(!tp.contains_pattern(&Pattern::from_pairs([(0, PVal::Const(9))])));
        assert!(tp.contains_pattern(&Pattern::empty()));
    }

    #[test]
    fn constant_part() {
        let p = Pattern::from_pairs([(0, PVal::Const(1)), (1, PVal::Var), (2, PVal::Const(3))]);
        let c = p.constant_part();
        assert_eq!(
            c,
            Pattern::from_pairs([(0, PVal::Const(1)), (2, PVal::Const(3))])
        );
        assert!(c.is_all_const());
        assert!(!p.is_all_const());
        assert!(Pattern::wildcards(AttrSet::from_iter([0, 1])).is_all_wildcard());
        assert!(Pattern::empty().is_all_const() && Pattern::empty().is_all_wildcard());
    }

    #[test]
    fn display_with_names() {
        let r = rel();
        let a1 = r.column(0).dict().code("a1").unwrap();
        let p = Pattern::from_pairs([(0, PVal::Const(a1)), (2, PVal::Var)]);
        assert_eq!(p.display(&r), "(A=a1, C=_)");
    }
}
