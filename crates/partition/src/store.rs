//! TANE's partition cache with level-scoped retirement.
//!
//! TANE produces one partition per attribute set and needs each for a
//! bounded window: the current level's partitions feed the next
//! level's refinements, and the previous level's feed the superkey
//! minimality checks and — in approximate mode — the per-class error
//! counts of the validity test. [`PartitionStore`] makes that lifecycle
//! explicit:
//!
//! * entries are **interned** under their attribute set, whose size is
//!   the lattice level that produced them;
//! * [`PartitionStore::retire_level`] drops a whole level once the
//!   miner has moved past its window. Nothing else removes an entry:
//!   the store has no budget, so a lookup misses only for a set never
//!   inserted or already retired, and the caller rebuilds it from the
//!   relation.
//!
//! Hit/miss counters and the high-water marks of the entries and bytes
//! held are kept for instrumentation as the run's
//! [`StoreCounters`]. CTANE keeps its partitions in its own flat lattice
//! levels instead (DESIGN.md §9).

use crate::engine::StrippedPartition;
use cfd_model::attrset::AttrSet;
use cfd_model::fxhash::FxHashMap;
use cfd_model::progress::StoreCounters;

/// The partition cache (see the module docs).
#[derive(Default)]
pub struct PartitionStore {
    entries: FxHashMap<AttrSet, StrippedPartition>,
    bytes: usize,
    /// Hits, misses and the high-water marks of `entries.len()` and
    /// `bytes`; `evictions` stays 0.
    counters: StoreCounters,
}

impl PartitionStore {
    /// Interns `part` under `attrs`, replacing any entry already there.
    pub fn insert(&mut self, attrs: AttrSet, part: StrippedPartition) {
        self.bytes += part.approx_bytes();
        if let Some(old) = self.entries.insert(attrs, part) {
            self.bytes -= old.approx_bytes();
        }
        let c = &mut self.counters;
        c.entries = c.entries.max(self.entries.len() as u64);
        c.bytes = c.bytes.max(self.bytes as u64);
    }

    /// The partition interned under `attrs` without touching the
    /// hit/miss counters — the shared-read accessor parallel expansion
    /// workers use (`&self`, so any number may read concurrently).
    pub fn peek(&self, attrs: &AttrSet) -> Option<&StrippedPartition> {
        self.entries.get(attrs)
    }

    /// The partition interned under `attrs`, if still live.
    pub fn get(&mut self, attrs: &AttrSet) -> Option<&StrippedPartition> {
        let part = self.entries.get(attrs);
        match part {
            Some(_) => self.counters.hits += 1,
            None => self.counters.misses += 1,
        }
        part
    }

    /// Drops every entry of `level`, i.e. every attribute set of that
    /// size.
    pub fn retire_level(&mut self, level: usize) {
        let bytes = &mut self.bytes;
        self.entries.retain(|attrs, part| {
            let live = attrs.len() != level;
            if !live {
                *bytes -= part.approx_bytes();
            }
            live
        });
    }

    /// Traffic counters and the footprint's high-water marks.
    pub fn stats(&self) -> StoreCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(n: usize) -> StrippedPartition {
        StrippedPartition::full(n)
    }

    #[test]
    fn insert_get_retire() {
        let mut s = PartitionStore::default();
        let (a, b) = (AttrSet::singleton(0), AttrSet::singleton(1));
        s.insert(a, part(10));
        s.insert(b, part(4));
        s.insert(a.with(1), part(2));
        assert_eq!(s.get(&a).unwrap().n_rows(), 10);
        assert!(s.get(&AttrSet::singleton(2)).is_none());
        assert_eq!(s.stats().entries, 3);
        assert_eq!((s.stats().hits, s.stats().misses), (1, 1));
        let peak = s.stats().bytes;
        s.retire_level(1);
        assert!(s.get(&a).is_none());
        assert_eq!(s.entries.len(), 1, "level 2 stays");
        s.retire_level(2);
        assert!(s.entries.is_empty());
        assert_eq!(s.bytes, 0);
        // the counters keep the high-water marks
        assert_eq!((s.stats().entries, s.stats().bytes), (3, peak));
    }

    #[test]
    fn replacing_a_key_keeps_byte_accounting() {
        let mut s = PartitionStore::default();
        let a = AttrSet::singleton(0);
        s.insert(a, part(100));
        let b100 = s.bytes;
        s.insert(a, part(10));
        assert!(s.bytes < b100);
        assert_eq!(s.entries.len(), 1);
        assert_eq!(s.stats().bytes, b100 as u64, "the high-water mark stays");
    }
}
