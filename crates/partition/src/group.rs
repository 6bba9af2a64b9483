//! Dense multi-column grouping: every tuple of a relation mapped to the
//! id of its equivalence class w.r.t. an attribute set.
//!
//! This is the grouping primitive shared by the validation kernel
//! (`cfd-validate` groups all rules with the same LHS wildcard set over
//! one [`GroupIds`]) and the streaming engine's warm start. Unlike
//! [`StrippedPartition`](crate::StrippedPartition), which materializes
//! class member lists, [`GroupIds`] is the *inverse* mapping
//! (`tuple → class id`):
//! the shape a validator wants, because per-rule state becomes a flat
//! array indexed by class id instead of a hash map keyed by
//! heap-allocated `Vec<u32>` value tuples.
//!
//! Multi-attribute grouping is a cascade of counting-sort pair
//! renumberings — dictionary codes are dense, so `(running id, next
//! code)` pairs can be renumbered with two stable counting passes per
//! extra attribute, touching no hash map at all. Ids come out
//! deterministic (lexicographic in the attribute-value code vectors),
//! independent of thread count or any map iteration order.

use cfd_model::relation::Relation;
use cfd_model::schema::AttrId;

/// The dense `tuple → group id` mapping w.r.t. an attribute set.
#[derive(Clone, Debug)]
pub struct GroupIds {
    gids: Vec<u32>,
    n_groups: u32,
}

impl GroupIds {
    /// Groups all tuples of `rel` by their values on `attrs`.
    ///
    /// * no attributes — every tuple lands in group 0 (the partition of
    ///   the empty attribute set has a single class);
    /// * one attribute — dictionary codes are already dense group ids,
    ///   so the column is used as-is (`n_groups` = the active-domain
    ///   size, which may include dictionary-only codes whose groups are
    ///   simply empty);
    /// * more attributes — one counting-sort pair renumbering per extra
    ///   attribute: rows are stably sorted by `(running id, code)` and
    ///   fresh dense ids assigned on key change. O(rows + domain) per
    ///   attribute, no hashing, no per-tuple heap allocation.
    pub fn build(rel: &Relation, attrs: &[AttrId]) -> GroupIds {
        let n = rel.n_rows();
        if attrs.is_empty() {
            return GroupIds {
                gids: vec![0; n],
                n_groups: if n > 0 { 1 } else { 0 },
            };
        }
        let mut gids = rel.column(attrs[0]).codes().to_vec();
        let mut width = rel.column(attrs[0]).domain_size();
        for &a in &attrs[1..] {
            let col = rel.column(a);
            width = combine(
                &mut gids,
                width,
                col.codes(),
                col.domain_size(),
                col.value_counts(),
            );
        }
        GroupIds {
            gids,
            n_groups: width as u32,
        }
    }

    /// The group id of tuple `t`.
    #[inline]
    pub fn gid(&self, t: cfd_model::relation::TupleId) -> u32 {
        self.gids[t as usize]
    }

    /// The full `tuple → group id` mapping, aligned with row ids.
    #[inline]
    pub fn gids(&self) -> &[u32] {
        &self.gids
    }

    /// Upper bound (exclusive) on group ids. For a single-attribute set
    /// this is the active-domain size, so some ids may label empty
    /// groups; for every other set, ids are exactly `0..n_groups`.
    #[inline]
    pub fn n_groups(&self) -> usize {
        self.n_groups as usize
    }

    /// The first (smallest-id) tuple of every group — the *witness* a
    /// scan in row order meets first, `u32::MAX` for groups no tuple
    /// inhabits (possible only for single-attribute sets whose
    /// dictionary has codes occurring in no tuple).
    pub fn witnesses(&self) -> Vec<u32> {
        let mut witness = vec![u32::MAX; self.n_groups()];
        for (t, &g) in self.gids.iter().enumerate() {
            let w = &mut witness[g as usize];
            if *w == u32::MAX {
                *w = t as u32;
            }
        }
        witness
    }
}

/// Renumbers `(gid, code)` pairs into fresh dense ids via two stable
/// counting passes, in place. Returns the new id width. The incoming
/// column's histogram (`code_counts`, maintained by the relation —
/// see `Column::value_counts`) stands in for the first counting pass,
/// so only its prefix sum is computed here.
fn combine(
    gids: &mut [u32],
    width: usize,
    codes: &[u32],
    dom: usize,
    code_counts: &[u32],
) -> usize {
    let n = gids.len();
    if n == 0 {
        return 0;
    }
    // stable counting sort of row ids by code (histogram pre-built) …
    debug_assert_eq!(code_counts.len(), dom);
    let mut cur = vec![0u32; dom + 1];
    for (c, &k) in code_counts.iter().enumerate() {
        cur[c + 1] = cur[c] + k;
    }
    let mut by_code = vec![0u32; n];
    for t in 0..n as u32 {
        let slot = &mut cur[codes[t as usize] as usize];
        by_code[*slot as usize] = t;
        *slot += 1;
    }
    // … then stably by the running group id: `order` ends up sorted by
    // (gid, code)
    let mut cur = vec![0u32; width + 1];
    for &g in gids.iter() {
        cur[g as usize + 1] += 1;
    }
    for i in 1..=width {
        cur[i] += cur[i - 1];
    }
    let mut order = vec![0u32; n];
    for &t in &by_code {
        let slot = &mut cur[gids[t as usize] as usize];
        order[*slot as usize] = t;
        *slot += 1;
    }
    // assign fresh ids on key change (each row is visited exactly once,
    // so its old id can be read just before being overwritten)
    let mut next = 0u32;
    let mut prev = (gids[order[0] as usize], codes[order[0] as usize]);
    for &t in &order {
        let key = (gids[t as usize], codes[t as usize]);
        if key != prev {
            next += 1;
            prev = key;
        }
        gids[t as usize] = next;
    }
    next as usize + 1
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
                vec!["x", "1", "p"],
                vec!["x", "2", "p"],
                vec!["y", "1", "q"],
                vec!["x", "1", "q"],
                vec!["y", "2", "p"],
            ],
        )
        .unwrap()
    }

    /// Reference: group rows by their value vectors on `attrs`.
    fn reference(rel: &Relation, attrs: &[usize]) -> Vec<Vec<u32>> {
        let mut groups: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
        for t in rel.tuples() {
            let key: Vec<u32> = attrs.iter().map(|&a| rel.code(t, a)).collect();
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(t),
                None => groups.push((key, vec![t])),
            }
        }
        let mut out: Vec<Vec<u32>> = groups.into_iter().map(|(_, m)| m).collect();
        out.sort();
        out
    }

    fn members_of(g: &GroupIds, n: usize) -> Vec<Vec<u32>> {
        let mut out: Vec<Vec<u32>> = vec![Vec::new(); g.n_groups()];
        for t in 0..n as u32 {
            out[g.gid(t) as usize].push(t);
        }
        out.retain(|m| !m.is_empty());
        out.sort();
        out
    }

    #[test]
    fn empty_attr_set_is_one_group() {
        let r = rel();
        let g = GroupIds::build(&r, &[]);
        assert_eq!(g.n_groups(), 1);
        assert!(g.gids().iter().all(|&x| x == 0));
        assert_eq!(g.witnesses(), vec![0]);
    }

    #[test]
    fn single_attribute_uses_codes() {
        let r = rel();
        let g = GroupIds::build(&r, &[0]);
        assert_eq!(g.gids(), r.column(0).codes());
        assert_eq!(g.n_groups(), r.column(0).domain_size());
    }

    #[test]
    fn multi_attribute_matches_reference_grouping() {
        let r = rel();
        for attrs in [vec![0, 1], vec![1, 2], vec![0, 1, 2], vec![0, 2]] {
            let g = GroupIds::build(&r, &attrs);
            assert_eq!(
                members_of(&g, r.n_rows()),
                reference(&r, &attrs),
                "attrs {attrs:?}"
            );
        }
    }

    #[test]
    fn ids_are_dense_and_deterministic() {
        let r = rel();
        let g = GroupIds::build(&r, &[0, 1]);
        // lexicographic in the (A, B) codes: (x,1)=0, (x,2)=1, (y,1)=2,
        // (y,2)=3
        assert_eq!(g.gids(), &[0, 1, 2, 0, 3]);
        assert_eq!(g.n_groups(), 4);
        // the witness of each group is its first member in row order
        assert_eq!(g.witnesses(), vec![0, 1, 2, 4]);
        let again = GroupIds::build(&r, &[0, 1]);
        assert_eq!(g.gids(), again.gids());
    }

    #[test]
    fn wide_domains_and_many_attributes() {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let rows: Vec<Vec<String>> = (0..200)
            .map(|i| {
                vec![
                    format!("a{}", i % 17),
                    format!("b{}", i % 13),
                    format!("c{}", i % 7),
                ]
            })
            .collect();
        let r = relation_from_rows(schema, &rows).unwrap();
        for attrs in [vec![0, 1], vec![0, 1, 2], vec![2, 0]] {
            let g = GroupIds::build(&r, &attrs);
            assert_eq!(members_of(&g, r.n_rows()), reference(&r, &attrs));
            // witnesses really are the per-group minima
            let wit = g.witnesses();
            for (t, &gid) in g.gids().iter().enumerate() {
                assert!(wit[gid as usize] as usize <= t);
            }
        }
    }
}
