//! Inverted index over Closed₂(r), the 2-frequent closed item sets.
//!
//! FastCFD (Section 5.5) derives the difference sets of `r_tp` from the
//! closed sets that *match* the constant pattern `tp`. Every pair of
//! tuples of `r_tp` agrees on a closed set that contains `(X, tp)`, and
//! every other such closed set lies strictly inside the agree set of two
//! of its tuples that differ on the RHS, so minimizing the complements
//! keeps exactly the minimal difference sets (DESIGN.md §2.4). This
//! index answers "which closed sets contain pattern `p`?" by
//! intersecting per-item posting lists.

use crate::mine::closed2;
use cfd_model::attrset::AttrSet;
use cfd_model::pattern::Pattern;
use cfd_model::relation::Relation;

/// Inverted index: item `(attr, code)` → indices of the closed sets whose
/// pattern contains the item.
#[derive(Debug, PartialEq, Eq)]
pub struct ClosedSetIndex {
    /// Attribute sets of the indexed closed sets (what difference-set
    /// computation consumes), in mining order.
    attr_sets: Vec<AttrSet>,
    /// Dense item ids: item `(a, c)` is `item_base[a] + c`, and
    /// `item_base[arity]` is the number of items.
    item_base: Vec<usize>,
    /// The closed sets holding item `i` are
    /// `postings[starts[i]..starts[i + 1]]`, ascending.
    starts: Vec<usize>,
    postings: Vec<u32>,
}

impl ClosedSetIndex {
    /// Mines Closed₂(`rel`) and indexes it: the closures of the
    /// 2-frequent free sets, each once, in the order
    /// `mine_free_closed(rel, 2, _)` lists its closed sets. Only the
    /// closures are kept, as attribute sets and postings.
    pub fn mine(rel: &Relation) -> ClosedSetIndex {
        let closures = closed2(rel);
        let mut item_base = Vec::with_capacity(rel.arity() + 1);
        item_base.push(0);
        for a in 0..rel.arity() {
            item_base.push(item_base[a] + rel.column(a).domain_size());
        }
        // count each item's closed sets, then fill the lists in closure
        // order, so each comes out ascending
        let mut starts = vec![0usize; item_base[rel.arity()] + 1];
        for c in &closures {
            for (a, code) in c.items(rel) {
                starts[item_base[a] + code as usize + 1] += 1;
            }
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut fill = starts.clone();
        let mut postings = vec![0u32; starts[starts.len() - 1]];
        for (i, c) in (0u32..).zip(&closures) {
            for (a, code) in c.items(rel) {
                let slot = &mut fill[item_base[a] + code as usize];
                postings[*slot] = i;
                *slot += 1;
            }
        }
        ClosedSetIndex {
            attr_sets: closures.iter().map(|c| c.attrs).collect(),
            item_base,
            starts,
            postings,
        }
    }

    /// The closed sets holding item `(a, code)` (empty for an item the
    /// relation does not have).
    fn posting(&self, a: usize, code: u32) -> &[u32] {
        let item = self.item_base[a] + code as usize;
        if item >= self.item_base[a + 1] {
            return &[];
        }
        &self.postings[self.starts[item]..self.starts[item + 1]]
    }

    /// Number of indexed closed sets.
    pub fn len(&self) -> usize {
        self.attr_sets.len()
    }

    /// True iff no closed set is indexed.
    pub fn is_empty(&self) -> bool {
        self.attr_sets.is_empty()
    }

    /// Indices of the closed sets whose pattern contains `p` (an
    /// all-constant pattern). The empty pattern matches every closed set.
    pub fn containing(&self, p: &Pattern) -> Vec<u32> {
        debug_assert!(p.is_all_const());
        let mut lists: Vec<&[u32]> = Vec::with_capacity(p.len());
        for (a, v) in p.iter() {
            let code = v.as_const().expect("query patterns are all-constant");
            match self.posting(a, code) {
                [] => return Vec::new(),
                l => lists.push(l),
            }
        }
        if lists.is_empty() {
            return (0..self.len() as u32).collect();
        }
        // intersect smallest-first
        lists.sort_unstable_by_key(|l| l.len());
        let mut acc: Vec<u32> = lists[0].to_vec();
        for l in &lists[1..] {
            let mut out = Vec::with_capacity(acc.len().min(l.len()));
            let (mut i, mut j) = (0, 0);
            while i < acc.len() && j < l.len() {
                match acc[i].cmp(&l[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        out.push(acc[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            acc = out;
            if acc.is_empty() {
                break;
            }
        }
        acc
    }

    /// The attribute sets of the closed sets containing `p` — the agree
    /// sets FastCFD complements into difference sets.
    pub fn agree_attr_sets(&self, p: &Pattern) -> Vec<AttrSet> {
        self.containing(p)
            .into_iter()
            .map(|i| self.attr_sets[i as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mine::{mine_free_closed, MineOptions};
    use cfd_model::pattern::PVal;
    use cfd_model::relation::{relation_from_rows, Relation};
    use cfd_model::schema::Schema;

    fn cust() -> Relation {
        let schema = Schema::new(["CC", "AC", "PN", "NM", "STR", "CT", "ZIP"]).unwrap();
        relation_from_rows(
            schema,
            &[
                vec!["01", "908", "1111111", "Mike", "Tree Ave.", "MH", "07974"],
                vec!["01", "908", "1111111", "Rick", "Tree Ave.", "MH", "07974"],
                vec!["01", "212", "2222222", "Joe", "5th Ave", "NYC", "01202"],
                vec!["01", "908", "2222222", "Jim", "Elm Str.", "MH", "07974"],
                vec!["44", "131", "3333333", "Ben", "High St.", "EDI", "EH4 1DT"],
                vec!["44", "131", "2222222", "Ian", "High St.", "EDI", "EH4 1DT"],
                vec!["44", "908", "2222222", "Ian", "Port PI", "MH", "W1B 1JH"],
                vec!["01", "131", "2222222", "Sean", "3rd Str.", "UN", "01202"],
            ],
        )
        .unwrap()
    }

    fn pat(rel: &Relation, items: &[(&str, &str)]) -> Pattern {
        Pattern::from_pairs(items.iter().map(|&(a, v)| {
            let aid = rel.schema().attr_id(a).unwrap();
            let code = rel.column(aid).dict().code(v).unwrap();
            (aid, PVal::Const(code))
        }))
    }

    #[test]
    fn containing_matches_linear_scan() {
        let r = cust();
        let mined = mine_free_closed(&r, 2, MineOptions::default());
        let idx = ClosedSetIndex::mine(&r);
        assert_eq!(idx.len(), mined.closed.len());

        let queries = [
            Pattern::empty(),
            pat(&r, &[("CC", "01")]),
            pat(&r, &[("CC", "44")]),
            pat(&r, &[("CC", "01"), ("AC", "908")]),
            pat(&r, &[("AC", "212")]),
        ];
        for q in &queries {
            let got: std::collections::BTreeSet<u32> = idx.containing(q).into_iter().collect();
            let want: std::collections::BTreeSet<u32> = mined
                .closed
                .iter()
                .enumerate()
                .filter(|(_, c)| c.pattern.contains_pattern(q))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(got, want, "query {q:?}");
        }
    }

    #[test]
    fn unknown_item_yields_nothing() {
        let r = cust();
        let idx = ClosedSetIndex::mine(&r);
        // AC=212 has support 1, so no 2-frequent closed set contains it
        let q = pat(&r, &[("AC", "212")]);
        assert!(idx.containing(&q).is_empty());
    }

    #[test]
    fn agree_attr_sets_are_attr_projections() {
        let r = cust();
        let idx = ClosedSetIndex::mine(&r);
        let q = pat(&r, &[("CC", "44")]);
        let agree = idx.agree_attr_sets(&q);
        assert!(!agree.is_empty());
        let cc = r.schema().attr_id("CC").unwrap();
        assert!(agree.iter().all(|s| s.contains(cc)));
    }
}
