//! The dataset registry: named relations, ingested once, shared by
//! every job.
//!
//! A registered dataset holds its [`Relation`] behind one `Arc`, so N
//! concurrent jobs on the same dataset share it without copying — and
//! with it each column's value regions
//! ([`Column::regions`](cfd_model::relation::Column::regions)), which
//! discovery *and* validation consult and which the first job to need
//! a column builds once for all. The regions are the only shared
//! derived state, and they are immutable once built: every CTANE job
//! builds its own partition store, as the one-shot CLI does, so jobs on
//! one dataset never wait for each other. DESIGN.md §12 spells out the
//! split.
//!
//! Admission control is by resident bytes: the registry carries a
//! budget and [`DatasetRegistry::insert`] admits against it — but it
//! degrades gracefully before it rejects. A registration that would
//! exceed the budget first evicts **idle, unpinned** datasets (no job
//! holds their `Arc`, registered without `"pin": true`) in
//! least-recently-used order; only when that still does not free
//! enough room does the structured `registry_budget` error surface.
//! Evictions are counted and reported (the `register` reply lists what
//! was evicted; `stats` carries the running total), so capacity
//! pressure is observable instead of silent.

use crate::protocol::ServeError;
use cfd_model::{Json, Relation};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A registered dataset: the relation and the byte size it is
/// accounted at.
pub struct Dataset {
    /// Registry name.
    pub name: String,
    /// The ingested relation.
    pub rel: Relation,
    /// `rel.memory_bytes()` at registration — what the budget charges.
    pub bytes: usize,
    /// Pinned datasets are never evicted under budget pressure.
    pub pinned: bool,
    /// Monotonic use stamp (bumped by [`DatasetRegistry::get`]) — the
    /// eviction order under budget pressure is ascending stamp (LRU).
    last_used: AtomicU64,
}

impl std::fmt::Debug for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dataset")
            .field("name", &self.name)
            .field("rows", &self.rel.n_rows())
            .field("arity", &self.rel.arity())
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl Dataset {
    /// Wraps an ingested relation for registration.
    pub fn new(name: impl Into<String>, rel: Relation) -> Dataset {
        let bytes = rel.memory_bytes();
        Dataset {
            name: name.into(),
            rel,
            bytes,
            pinned: false,
            last_used: AtomicU64::new(0),
        }
    }

    /// Marks the dataset never-evictable under budget pressure.
    pub fn pinned(mut self) -> Dataset {
        self.pinned = true;
        self
    }

    /// The dataset's registry row (`datasets` reply element).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("rows", Json::from(self.rel.n_rows())),
            ("arity", Json::from(self.rel.arity())),
            ("bytes", Json::from(self.bytes)),
            ("pinned", Json::from(self.pinned)),
        ])
    }
}

/// Named datasets behind a byte budget. All methods are `&self` — the
/// registry is shared across connection and worker threads.
pub struct DatasetRegistry {
    budget: usize,
    inner: Mutex<BTreeMap<String, Arc<Dataset>>>,
    /// Monotonic clock for LRU stamps.
    clock: AtomicU64,
    /// Datasets evicted under budget pressure since start.
    evictions: AtomicU64,
}

/// Locks a serve-internal mutex, recovering from poisoning. The state
/// behind these mutexes (registry map, job queue, job table, client
/// list, subscriber slots) is only mutated in short, non-panicking
/// critical sections — no user or algorithm code ever runs under them
/// — so on the rare poison (a panic elsewhere on the same thread while
/// unwinding) the data is still structurally consistent and serving
/// beats wedging.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl DatasetRegistry {
    /// An empty registry admitting up to `budget_bytes` of resident
    /// relation data.
    pub fn new(budget_bytes: usize) -> DatasetRegistry {
        DatasetRegistry {
            budget: budget_bytes,
            inner: Mutex::new(BTreeMap::new()),
            clock: AtomicU64::new(1),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured budget in bytes.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Registers `ds` under its name, returning the shared handle plus
    /// the names of any datasets evicted to make room. Rejects
    /// duplicates (`dataset_exists`); under budget pressure it first
    /// evicts idle unpinned datasets oldest-use-first, and only when
    /// the dataset *still* does not fit fails with `registry_budget` —
    /// in both failure cases the registry is left unchanged (nothing
    /// is evicted for a registration that does not go through).
    pub fn insert(&self, ds: Dataset) -> Result<(Arc<Dataset>, Vec<String>), ServeError> {
        let mut map = lock_unpoisoned(&self.inner);
        if map.contains_key(&ds.name) {
            return Err(ServeError::new(
                "dataset_exists",
                format!("dataset {:?} is already registered", ds.name),
            ));
        }
        let used: usize = map.values().map(|d| d.bytes).sum();
        let mut evicted: Vec<String> = Vec::new();
        if used + ds.bytes > self.budget {
            // idle = only the registry holds the Arc (no queued or
            // running job, no connection mid-dispatch); unpinned only
            let mut candidates: Vec<(u64, String, usize)> = map
                .values()
                .filter(|d| !d.pinned && Arc::strong_count(d) == 1)
                .map(|d| (d.last_used.load(Ordering::Relaxed), d.name.clone(), d.bytes))
                .collect();
            candidates.sort();
            let mut freeable = used;
            for (_, name, bytes) in &candidates {
                if freeable + ds.bytes <= self.budget {
                    break;
                }
                freeable -= bytes;
                evicted.push(name.clone());
            }
            if freeable + ds.bytes > self.budget {
                return Err(ServeError::new(
                    "registry_budget",
                    format!(
                        "dataset {:?} needs {} bytes but only {} of the {}-byte budget can be \
                         freed (idle unpinned datasets already considered for eviction; \
                         unregister something first)",
                        ds.name,
                        ds.bytes,
                        self.budget.saturating_sub(freeable),
                        self.budget
                    ),
                ));
            }
            for name in &evicted {
                map.remove(name);
            }
            self.evictions
                .fetch_add(evicted.len() as u64, Ordering::Relaxed);
        }
        let ds = Arc::new(ds);
        ds.last_used.store(
            self.clock.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
        map.insert(ds.name.clone(), ds.clone());
        Ok((ds, evicted))
    }

    /// Looks a dataset up by name (`unknown_dataset` when absent),
    /// bumping its LRU stamp.
    pub fn get(&self, name: &str) -> Result<Arc<Dataset>, ServeError> {
        lock_unpoisoned(&self.inner)
            .get(name)
            .cloned()
            .inspect(|ds| {
                ds.last_used.store(
                    self.clock.fetch_add(1, Ordering::Relaxed),
                    Ordering::Relaxed,
                );
            })
            .ok_or_else(|| ServeError::new("unknown_dataset", format!("no dataset named {name:?}")))
    }

    /// Removes a dataset by name, returning it. Jobs already holding
    /// the `Arc` finish against the old data; the bytes stop counting
    /// against the budget immediately.
    pub fn remove(&self, name: &str) -> Result<Arc<Dataset>, ServeError> {
        lock_unpoisoned(&self.inner)
            .remove(name)
            .ok_or_else(|| ServeError::new("unknown_dataset", format!("no dataset named {name:?}")))
    }

    /// Total bytes currently charged against the budget.
    pub fn total_bytes(&self) -> usize {
        lock_unpoisoned(&self.inner).values().map(|d| d.bytes).sum()
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Datasets evicted under budget pressure since server start
    /// (`stats` gauge).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Registry rows in name order (the `datasets` reply).
    pub fn list(&self) -> Vec<Json> {
        lock_unpoisoned(&self.inner)
            .values()
            .map(|d| d.to_json())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::csv::relation_from_csv_str;

    fn small() -> Relation {
        relation_from_csv_str("A,B\nx,1\ny,2\n").unwrap()
    }

    #[test]
    fn budget_and_duplicates_are_enforced() {
        let rel = small();
        let bytes = rel.memory_bytes();
        let reg = DatasetRegistry::new(bytes * 2 + bytes / 2);
        reg.insert(Dataset::new("a", small()).pinned()).unwrap();
        assert_eq!(
            reg.insert(Dataset::new("a", small())).unwrap_err().code,
            "dataset_exists"
        );
        // hold "b"'s Arc so it counts as busy (a running job would)
        let (_b, ev) = reg.insert(Dataset::new("b", small()).pinned()).unwrap();
        assert!(ev.is_empty());
        // a third copy exceeds the 2.5x budget and nothing is evictable
        // (a pinned, b pinned + busy)…
        let err = reg.insert(Dataset::new("c", small())).unwrap_err();
        assert_eq!(err.code, "registry_budget");
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.total_bytes(), bytes * 2);
        assert_eq!(reg.evictions(), 0);
        // …until something is unregistered
        reg.remove("a").unwrap();
        reg.insert(Dataset::new("c", small())).unwrap();
        assert_eq!(reg.remove("nope").unwrap_err().code, "unknown_dataset");
        assert_eq!(reg.get("zzz").unwrap_err().code, "unknown_dataset");
        let rows = reg.list();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("name").and_then(Json::as_str), Some("b"));
        assert_eq!(rows[0].get("pinned").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn budget_pressure_evicts_idle_unpinned_lru_first() {
        let bytes = small().memory_bytes();
        let reg = DatasetRegistry::new(bytes * 3);
        reg.insert(Dataset::new("old", small())).unwrap();
        reg.insert(Dataset::new("mid", small())).unwrap();
        reg.insert(Dataset::new("hot", small())).unwrap();
        // touch "old" so "mid" becomes the least recently used
        reg.get("old").unwrap();
        let (_d, evicted) = reg.insert(Dataset::new("d", small())).unwrap();
        assert_eq!(evicted, vec!["mid".to_string()]);
        assert_eq!(reg.evictions(), 1);
        assert!(reg.get("mid").is_err(), "mid was evicted");
        assert!(reg.get("old").is_ok() && reg.get("hot").is_ok());

        // pinned and busy datasets are never eviction candidates, and a
        // failed insert evicts nothing
        let reg = DatasetRegistry::new(bytes * 2);
        reg.insert(Dataset::new("pinned", small()).pinned())
            .unwrap();
        let (busy, _) = reg.insert(Dataset::new("busy", small())).unwrap();
        let err = reg.insert(Dataset::new("newcomer", small())).unwrap_err();
        assert_eq!(err.code, "registry_budget");
        assert_eq!(reg.len(), 2, "failed insert must not evict anything");
        drop(busy);
        // with the job done (Arc released), "busy" is idle and evictable
        let (_n, evicted) = reg.insert(Dataset::new("newcomer", small())).unwrap();
        assert_eq!(evicted, vec!["busy".to_string()]);
        assert_eq!(reg.evictions(), 1);
    }
}
