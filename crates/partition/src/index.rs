//! Per-column value indexes: the counting-sort value regions behind
//! [`StrippedPartition::by_attribute`], kept around so constant lookups
//! stop re-scanning the relation.
//!
//! [`ValueIndex`] materializes, for one column, the tuple ids grouped by
//! dictionary code (codes are dense, so a counting sort lays every
//! value's *region* out contiguously). First-level partitions, constant
//! lookups and constant refinement all reduce to region lookups on it,
//! and [`RelationIndex`] caches one lazily-built index per column so a
//! discovery run (CTANE generates thousands of constant refinements) or
//! a validation pass (constant-LHS filters) pays the counting sort once
//! per column instead of once per lookup.
//!
//! [`StrippedPartition::by_attribute`]: crate::StrippedPartition::by_attribute

use cfd_model::relation::{Relation, TupleId};
use cfd_model::schema::AttrId;
use std::sync::OnceLock;

/// The counting-sort layout of one column: tuple ids grouped by code.
///
/// Region `c` spans `tuples[starts[c] .. starts[c + 1]]` and holds, in
/// ascending order, exactly the tuples with code `c` — including empty
/// regions for dictionary codes that occur in no tuple (a rule constant
/// interned ahead of the data), so every code of the dictionary has an
/// O(1) region.
#[derive(Clone, Debug)]
pub struct ValueIndex {
    tuples: Vec<TupleId>,
    starts: Vec<u32>,
}

impl ValueIndex {
    /// Builds the index for attribute `a` of `rel` — one counting sort.
    pub fn build(rel: &Relation, a: AttrId) -> ValueIndex {
        let col = rel.column(a);
        let codes = col.codes();
        let dom = col.domain_size();
        // warm start: the column's maintained per-code histogram
        // (built shard-wise during ingestion) replaces the counting
        // pass — only the prefix sum and the placement scan remain
        let counts = col.value_counts();
        debug_assert_eq!(counts.len(), dom);
        let mut starts = vec![0u32; dom + 1];
        for (c, &k) in counts.iter().enumerate() {
            starts[c + 1] = starts[c] + k;
        }
        let mut fill = starts.clone();
        let mut tuples = vec![0 as TupleId; codes.len()];
        for (t, &c) in codes.iter().enumerate() {
            let slot = &mut fill[c as usize];
            tuples[*slot as usize] = t as TupleId;
            *slot += 1;
        }
        ValueIndex { tuples, starts }
    }

    /// Number of codes indexed (the column's active-domain size).
    pub fn n_codes(&self) -> usize {
        self.starts.len() - 1
    }

    /// The tuples carrying `code`, in ascending order. Codes outside the
    /// dictionary return the empty region.
    pub fn region(&self, code: u32) -> &[TupleId] {
        let c = code as usize;
        if c >= self.n_codes() {
            return &[];
        }
        &self.tuples[self.starts[c] as usize..self.starts[c + 1] as usize]
    }
}

/// Lazily-built [`ValueIndex`] cache, one slot per column of a relation.
///
/// Build one next to the `Relation` it indexes and pass both around:
/// the first lookup on a column pays the counting sort, every later
/// lookup on that column is O(region). Thread-safe ([`OnceLock`] per
/// column), so parallel validation shards can share one cache.
pub struct RelationIndex {
    cols: Vec<OnceLock<ValueIndex>>,
}

impl RelationIndex {
    /// Creates an empty cache for a relation of `rel.arity()` columns.
    /// No index is built until a column is first queried.
    pub fn new(rel: &Relation) -> RelationIndex {
        RelationIndex {
            cols: (0..rel.arity()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The index of column `a`, building it on first use. `rel` must be
    /// the relation the cache was created for.
    pub fn column(&self, rel: &Relation, a: AttrId) -> &ValueIndex {
        self.cols[a].get_or_init(|| ValueIndex::build(rel, a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::relation::relation_from_rows;
    use cfd_model::schema::Schema;

    fn rel() -> Relation {
        let schema = Schema::new(["A", "B"]).unwrap();
        relation_from_rows(
            schema,
            &[
                vec!["x", "1"],
                vec!["y", "2"],
                vec!["x", "1"],
                vec!["z", "1"],
                vec!["x", "2"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn regions_group_tuples_by_code() {
        let r = rel();
        let idx = ValueIndex::build(&r, 0);
        let x = r.column(0).dict().code("x").unwrap();
        let z = r.column(0).dict().code("z").unwrap();
        assert_eq!(idx.n_codes(), 3);
        assert_eq!(idx.region(x), &[0, 2, 4]);
        assert_eq!(idx.region(z), &[3]);
        assert_eq!(idx.region(99), &[] as &[TupleId]);
    }

    #[test]
    fn dictionary_only_codes_have_empty_regions() {
        let mut r = rel();
        // a rule constant interned ahead of the data
        let ghost = r.intern_value(0, "ghost");
        let idx = ValueIndex::build(&r, 0);
        assert_eq!(idx.n_codes(), 4);
        assert_eq!(idx.region(ghost), &[] as &[TupleId]);
    }

    #[test]
    fn cache_builds_each_column_once() {
        let r = rel();
        let cache = RelationIndex::new(&r);
        let first = cache.column(&r, 1) as *const ValueIndex;
        let again = cache.column(&r, 1) as *const ValueIndex;
        assert_eq!(first, again, "second lookup reuses the built index");
        let b1 = r.column(1).dict().code("1").unwrap();
        assert_eq!(cache.column(&r, 1).region(b1), &[0, 2, 3]);
    }
}
