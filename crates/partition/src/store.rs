//! TANE's keyed, refcounted partition cache with a byte budget and
//! level-scoped retirement.
//!
//! TANE produces one partition per attribute set and needs each for a
//! bounded window: the current level's partitions feed the next
//! level's refinements, and the previous level's feed the superkey
//! minimality checks and — in approximate mode — the per-class error
//! counts of the validity test. [`PartitionStore`] makes that lifecycle
//! explicit:
//!
//! * entries are **interned** under a caller-chosen key (TANE keys by
//!   `AttrSet`) and tagged with the lattice level that produced them;
//! * entries carry a **pin count**: pinned entries (the working set —
//!   the level currently being expanded) are never evicted;
//! * unpinned entries are a *cache*: they stay as long as the **byte
//!   budget** allows and are evicted oldest-level-first beyond it. A
//!   budget of 0 disables caching entirely — every unpinned lookup
//!   misses and the caller rebuilds from the relation (the covers come
//!   out identical either way, a tested property);
//! * [`PartitionStore::retire_level`] drops a whole level once the
//!   miner has moved past its window.
//!
//! Hit/miss/eviction counters and the high-water marks of the entries
//! and bytes held are kept for instrumentation; they feed
//! `SearchStats` in the miner. CTANE keeps its partitions in its own
//! flat lattice levels instead (DESIGN.md §9).

use crate::engine::StrippedPartition;
use cfd_model::fxhash::FxHashMap;
use std::collections::VecDeque;
use std::hash::Hash;

struct Entry {
    part: StrippedPartition,
    level: u32,
    pins: u32,
    bytes: usize,
}

/// Counters describing a store's traffic (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing (never inserted, retired or evicted).
    pub misses: u64,
    /// Entries evicted to keep the byte budget.
    pub evictions: u64,
    /// The most partitions held at once (the high-water mark).
    pub entries: usize,
    /// The most approximate bytes held at once (the high-water mark).
    pub bytes: usize,
}

impl From<StoreStats> for cfd_model::progress::StoreCounters {
    /// The `SearchStats` mirror of these counters (`cfd-model` sits
    /// below this crate, so the copy type lives there).
    fn from(s: StoreStats) -> cfd_model::progress::StoreCounters {
        cfd_model::progress::StoreCounters {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            entries: s.entries as u64,
            bytes: s.bytes as u64,
        }
    }
}

/// The keyed partition cache (see the module docs).
pub struct PartitionStore<K> {
    entries: FxHashMap<K, Entry>,
    by_level: FxHashMap<u32, Vec<K>>,
    /// Unpinned keys in unpin order (levels only ever grow, so the
    /// front of the queue is always an oldest-level candidate).
    unpinned: VecDeque<K>,
    bytes: usize,
    /// Bytes held by entries with no pins — what the budget governs;
    /// the pinned working set is never counted against it.
    unpinned_bytes: usize,
    budget: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// High-water marks of `entries.len()` and `bytes`.
    peak_entries: usize,
    peak_bytes: usize,
}

impl<K: Clone + Eq + Hash> PartitionStore<K> {
    /// A store with the given byte budget for *unpinned* entries
    /// (`usize::MAX` = unbounded, `0` = cache nothing beyond the pins).
    pub fn new(budget: usize) -> PartitionStore<K> {
        PartitionStore {
            entries: FxHashMap::default(),
            by_level: FxHashMap::default(),
            unpinned: VecDeque::new(),
            bytes: 0,
            unpinned_bytes: 0,
            budget,
            hits: 0,
            misses: 0,
            evictions: 0,
            peak_entries: 0,
            peak_bytes: 0,
        }
    }

    /// Interns `part` under `key` at `level` with one pin held. An
    /// existing entry under the same key is replaced (its pins reset,
    /// and its level filing moved if the level changed).
    pub fn insert_pinned(&mut self, key: K, level: u32, part: StrippedPartition) {
        let bytes = part.approx_bytes();
        let entry = Entry {
            part,
            level,
            pins: 1,
            bytes,
        };
        match self.entries.insert(key.clone(), entry) {
            Some(old) => {
                self.bytes -= old.bytes;
                if old.pins == 0 {
                    self.unpinned_bytes -= old.bytes;
                }
                if old.level != level {
                    self.unfile(old.level, &key);
                    self.by_level.entry(level).or_default().push(key);
                }
            }
            None => self.by_level.entry(level).or_default().push(key),
        }
        self.bytes += bytes;
        self.peak_entries = self.peak_entries.max(self.entries.len());
        self.peak_bytes = self.peak_bytes.max(self.bytes);
    }

    /// Removes `key` from its level's filing list.
    fn unfile(&mut self, level: u32, key: &K) {
        if let Some(keys) = self.by_level.get_mut(&level) {
            keys.retain(|k| k != key);
        }
    }

    /// The partition interned under `key` without touching the
    /// hit/miss counters — the shared-read accessor parallel expansion
    /// workers use (`&self`, so any number may read concurrently).
    pub fn peek(&self, key: &K) -> Option<&StrippedPartition> {
        self.entries.get(key).map(|e| &e.part)
    }

    /// The partition interned under `key`, if still live.
    pub fn get(&mut self, key: &K) -> Option<&StrippedPartition> {
        match self.entries.get(key) {
            Some(e) => {
                self.hits += 1;
                Some(&e.part)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Releases one pin. An entry whose last pin drops becomes cache
    /// material: it joins the eviction queue and the budget is
    /// enforced.
    pub fn unpin(&mut self, key: &K) {
        let Some(e) = self.entries.get_mut(key) else {
            return;
        };
        debug_assert!(e.pins > 0, "unpin without a matching pin");
        e.pins = e.pins.saturating_sub(1);
        if e.pins == 0 {
            self.unpinned_bytes += e.bytes;
            self.unpinned.push_back(key.clone());
            self.enforce_budget();
        }
    }

    /// Unpins every entry of `level` (one pin each — the pin
    /// [`insert_pinned`](PartitionStore::insert_pinned) took), turning
    /// the level into evictable cache.
    pub fn unpin_level(&mut self, level: u32) {
        let keys = self.by_level.get(&level).cloned().unwrap_or_default();
        for key in &keys {
            self.unpin(key);
        }
    }

    /// Drops every entry of `level`, pinned or not.
    pub fn retire_level(&mut self, level: u32) {
        let Some(keys) = self.by_level.remove(&level) else {
            return;
        };
        for key in keys {
            if let Some(e) = self.entries.remove(&key) {
                self.bytes -= e.bytes;
                if e.pins == 0 {
                    self.unpinned_bytes -= e.bytes;
                }
            }
        }
    }

    /// Evicts unpinned entries, oldest first, until the *unpinned*
    /// footprint fits the budget — the pinned working set is never
    /// counted against it (nor evicted), so a budget smaller than one
    /// level degrades to recomputation, never to incorrectness.
    fn enforce_budget(&mut self) {
        while self.unpinned_bytes > self.budget {
            let Some(key) = self.unpinned.pop_front() else {
                break;
            };
            // stale queue entries: re-pinned or already removed
            let evict = matches!(self.entries.get(&key), Some(e) if e.pins == 0);
            if evict {
                if let Some(e) = self.entries.remove(&key) {
                    self.bytes -= e.bytes;
                    self.unpinned_bytes -= e.bytes;
                    let level = e.level;
                    self.unfile(level, &key);
                    self.evictions += 1;
                }
            }
        }
    }

    /// Traffic counters and the footprint's high-water marks.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.peak_entries,
            bytes: self.peak_bytes,
        }
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
        let mut s: PartitionStore<u32> = PartitionStore::new(usize::MAX);
        s.insert_pinned(1, 1, part(10));
        s.insert_pinned(2, 1, part(4));
        assert_eq!(s.get(&1).unwrap().n_rows(), 10);
        assert!(s.get(&3).is_none());
        assert_eq!(s.stats().entries, 2);
        assert_eq!((s.stats().hits, s.stats().misses), (1, 1));
        let peak = s.stats().bytes;
        s.retire_level(1);
        assert!(s.get(&1).is_none());
        assert!(s.entries.is_empty());
        assert_eq!(s.bytes, 0);
        // the counters keep the high-water marks
        assert_eq!((s.stats().entries, s.stats().bytes), (2, peak));
    }

    #[test]
    fn pinned_entries_survive_a_zero_budget() {
        let mut s: PartitionStore<u32> = PartitionStore::new(0);
        s.insert_pinned(1, 1, part(100));
        // pinned: over budget but not evictable
        assert!(s.get(&1).is_some());
        s.unpin_level(1);
        // last pin dropped: the zero budget evicts immediately
        assert!(s.get(&1).is_none());
        assert_eq!(s.stats().evictions, 1);
    }

    #[test]
    fn budget_evicts_oldest_level_first() {
        let bytes_each = part(100).approx_bytes();
        let mut s: PartitionStore<u32> = PartitionStore::new(2 * bytes_each);
        s.insert_pinned(1, 1, part(100));
        s.insert_pinned(2, 2, part(100));
        s.insert_pinned(3, 3, part(100));
        s.unpin_level(1);
        s.unpin_level(2);
        s.unpin_level(3);
        // three unpinned entries, budget fits two: level 1 went first
        assert!(s.get(&1).is_none());
        assert!(s.get(&2).is_some() && s.get(&3).is_some());
        assert_eq!(s.stats().evictions, 1);
    }

    #[test]
    fn pins_stay_off_the_books() {
        let bytes_each = part(50).approx_bytes();
        // budget fits exactly one *unpinned* entry
        let mut s: PartitionStore<u32> = PartitionStore::new(bytes_each);
        s.insert_pinned(1, 1, part(50)); // pinned until unpinned
        s.insert_pinned(2, 2, part(50));
        s.unpin_level(2); // one unpinned entry: fits the budget
        assert!(s.get(&1).is_some(), "pinned entries never count or evict");
        assert!(s.get(&2).is_some(), "budget covers unpinned bytes only");
        s.insert_pinned(3, 3, part(50));
        s.unpin_level(3); // two unpinned entries: oldest (2) must go
        assert!(s.get(&1).is_some());
        assert!(s.get(&2).is_none());
        assert!(s.get(&3).is_some());
        assert_eq!(s.stats().evictions, 1);
    }

    #[test]
    fn reinsert_after_eviction_keeps_level_filing_consistent() {
        let mut s: PartitionStore<u32> = PartitionStore::new(0);
        s.insert_pinned(1, 1, part(20));
        s.unpin_level(1); // zero budget: evicted immediately
        assert!(s.get(&1).is_none());
        // re-offer the same key (the parent_keep rebuild path), twice
        for _ in 0..2 {
            s.insert_pinned(1, 1, part(20));
            s.unpin(&1);
        }
        s.insert_pinned(1, 1, part(20));
        // exactly one pin is held, so one unpin_level must empty it —
        // a duplicate by_level filing would double-unpin and trip the
        // pin-balance debug assertion
        s.unpin_level(1);
        assert!(s.get(&1).is_none());
        s.retire_level(1);
        assert!(s.entries.is_empty());
        assert_eq!(s.bytes, 0);
    }

    #[test]
    fn replacing_a_key_keeps_byte_accounting() {
        let mut s: PartitionStore<u32> = PartitionStore::new(usize::MAX);
        s.insert_pinned(1, 1, part(100));
        let b100 = s.bytes;
        s.insert_pinned(1, 1, part(10));
        assert!(s.bytes < b100);
        assert_eq!(s.entries.len(), 1);
        assert_eq!(s.stats().bytes, b100, "the high-water mark stays");
    }
}
