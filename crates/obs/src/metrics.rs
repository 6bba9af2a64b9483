//! Named counters, gauges and histograms behind a sharded registry.
//!
//! [`Registry`] is the canonical implementation of
//! `cfd_model::progress::MetricsSink`: instrumented layers emit through
//! the trait (usually via `Control::metric_add` and friends) and never
//! see this type. Internally metrics are striped over a fixed set of
//! mutex-guarded shards by an FNV hash of the metric *name*, so two
//! threads bumping different counters rarely share a lock; names are
//! `&'static str`, so registration never allocates for the key.
//!
//! [`Registry::snapshot`] freezes everything into a [`MetricsSnapshot`]
//! — plain owned data, sorted by name — which serializes through
//! `cfd_model::json` ([`MetricsSnapshot::to_json`]) and parses back
//! ([`MetricsSnapshot::from_json`]). Values survive the round trip
//! exactly up to 2^53 (the JSON number is an `f64`); the CFD workloads'
//! counters sit far below that.

use cfd_model::json::Json;
use cfd_model::progress::MetricsSink;
use std::sync::Mutex;

const SHARDS: usize = 8;

/// Histogram bucket count: bucket 0 holds value 0, bucket *i* ≥ 1 holds
/// values with bit length *i*, i.e. the range `[2^(i-1), 2^i)`.
const BUCKETS: usize = 65;

/// The power-of-two bucket index for `value`.
fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

#[derive(Clone)]
struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_of(value)] += 1;
    }
}

#[derive(Default)]
struct Shard {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, u64)>,
    histograms: Vec<(&'static str, Histogram)>,
}

fn slot<'v, V>(entries: &'v mut Vec<(&'static str, V)>, name: &'static str, init: V) -> &'v mut V {
    // Linear probe: a run touches a few dozen distinct names per shard
    // at most, and the probe is over a dense Vec — cheaper than hashing
    // into a map and allocation-free after warmup.
    match entries.iter().position(|(n, _)| *n == name) {
        Some(i) => &mut entries[i].1,
        None => {
            entries.push((name, init));
            &mut entries.last_mut().unwrap().1
        }
    }
}

/// FNV-1a over the name bytes — stable, fast, good enough to spread a
/// handful of metric names over [`SHARDS`] stripes.
fn shard_of(name: &str) -> usize {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h as usize % SHARDS
}

/// A thread-safe registry of named counters, gauges and histograms.
///
/// ```
/// use cfd_model::progress::MetricsSink;
/// let reg = cfd_obs::Registry::new();
/// reg.add("validate.rows_scanned", 3);
/// reg.add("validate.rows_scanned", 4);
/// reg.observe("stream.batch_rows", 100);
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("validate.rows_scanned"), Some(7));
/// assert_eq!(snap.histogram("stream.batch_rows").unwrap().count, 1);
/// ```
pub struct Registry {
    shards: [Mutex<Shard>; SHARDS],
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            shards: [const { Mutex::new(Shard::new_const()) }; SHARDS],
        }
    }

    /// Freezes current values into an owned, name-sorted snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for shard in &self.shards {
            let s = shard.lock().unwrap();
            for &(n, v) in &s.counters {
                snap.counters.push((n.to_string(), v));
            }
            for &(n, v) in &s.gauges {
                snap.gauges.push((n.to_string(), v));
            }
            for (n, h) in &s.histograms {
                snap.histograms.push((
                    n.to_string(),
                    HistogramSnapshot {
                        count: h.count,
                        sum: h.sum,
                        min: if h.count == 0 { 0 } else { h.min },
                        max: h.max,
                        buckets: h
                            .buckets
                            .iter()
                            .enumerate()
                            .filter(|&(_, &c)| c > 0)
                            .map(|(i, &c)| (i as u32, c))
                            .collect(),
                    },
                ));
            }
        }
        snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
        snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        snap
    }
}

impl Shard {
    const fn new_const() -> Shard {
        Shard {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        }
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl MetricsSink for Registry {
    fn add(&self, name: &'static str, delta: u64) {
        let mut s = self.shards[shard_of(name)].lock().unwrap();
        *slot(&mut s.counters, name, 0) += delta;
    }

    fn set_gauge(&self, name: &'static str, value: u64) {
        let mut s = self.shards[shard_of(name)].lock().unwrap();
        *slot(&mut s.gauges, name, 0) = value;
    }

    fn observe(&self, name: &'static str, value: u64) {
        let mut s = self.shards[shard_of(name)].lock().unwrap();
        slot(&mut s.histograms, name, Histogram::new()).observe(value);
    }
}

/// Frozen state of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Non-empty power-of-two buckets as `(bucket_index, count)`;
    /// bucket 0 is the value 0, bucket *i* ≥ 1 covers `[2^(i-1), 2^i)`.
    pub buckets: Vec<(u32, u64)>,
}

/// Frozen state of a [`Registry`]: every metric, sorted by name.
///
/// Counters and gauges whose emission is deterministic (rows scanned,
/// groups built, batch deltas) are identical across thread counts;
/// traffic-shaped counters (store evictions under a byte budget racing
/// across workers) can legitimately differ — DESIGN.md §10 marks which
/// are which.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Accumulating counters.
    pub counters: Vec<(String, u64)>,
    /// Last-write-wins gauges.
    pub gauges: Vec<(String, u64)>,
    /// Value distributions.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Serializes through `cfd_model::json`. Shape:
    ///
    /// ```json
    /// {"counters":{"a":1},"gauges":{"g":2},
    ///  "histograms":{"h":{"count":1,"sum":4,"min":4,"max":4,"buckets":[[3,1]]}}}
    /// ```
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::obj(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::from(*v))),
                ),
            ),
            (
                "gauges",
                Json::obj(self.gauges.iter().map(|(n, v)| (n.clone(), Json::from(*v)))),
            ),
            (
                "histograms",
                Json::obj(self.histograms.iter().map(|(n, h)| {
                    (
                        n.clone(),
                        Json::obj([
                            ("count", Json::from(h.count)),
                            ("sum", Json::from(h.sum)),
                            ("min", Json::from(h.min)),
                            ("max", Json::from(h.max)),
                            (
                                "buckets",
                                Json::arr(
                                    h.buckets
                                        .iter()
                                        .map(|&(b, c)| Json::arr([Json::from(b), Json::from(c)])),
                                ),
                            ),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Parses a document produced by [`MetricsSnapshot::to_json`].
    pub fn from_json(doc: &Json) -> Option<MetricsSnapshot> {
        fn as_u64(j: &Json) -> Option<u64> {
            let n = j.as_f64()?;
            (n >= 0.0 && n.fract() == 0.0 && n <= 9.0e15).then_some(n as u64)
        }
        fn pairs(j: &Json) -> Option<&[(String, Json)]> {
            match j {
                Json::Obj(p) => Some(p),
                _ => None,
            }
        }
        let mut snap = MetricsSnapshot::default();
        for (n, v) in pairs(doc.get("counters")?)? {
            snap.counters.push((n.clone(), as_u64(v)?));
        }
        for (n, v) in pairs(doc.get("gauges")?)? {
            snap.gauges.push((n.clone(), as_u64(v)?));
        }
        for (n, h) in pairs(doc.get("histograms")?)? {
            let mut buckets = Vec::new();
            for pair in h.get("buckets")?.as_array()? {
                let pair = pair.as_array()?;
                if pair.len() != 2 {
                    return None;
                }
                buckets.push((as_u64(&pair[0])? as u32, as_u64(&pair[1])?));
            }
            snap.histograms.push((
                n.clone(),
                HistogramSnapshot {
                    count: as_u64(h.get("count")?)?,
                    sum: as_u64(h.get("sum")?)?,
                    min: as_u64(h.get("min")?)?,
                    max: as_u64(h.get("max")?)?,
                    buckets,
                },
            ));
        }
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let reg = Registry::new();
        reg.add("c", 1);
        reg.add("c", 41);
        reg.add("other", 5);
        reg.set_gauge("g", 10);
        reg.set_gauge("g", 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), Some(42));
        assert_eq!(snap.counter("other"), Some(5));
        assert_eq!(snap.counter("absent"), None);
        assert_eq!(snap.gauge("g"), Some(3));
    }

    #[test]
    fn histogram_tracks_extrema_and_buckets() {
        let reg = Registry::new();
        for v in [0, 1, 5, 5, 700] {
            reg.observe("h", v);
        }
        let snap = reg.snapshot();
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 711);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 700);
        // 0 → bucket 0; 1 → bucket 1; 5,5 → bucket 3; 700 → bucket 10
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (3, 2), (10, 1)]);
    }

    #[test]
    fn concurrent_adds_merge_into_one_counter() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        reg.add("hot", 1);
                        reg.observe("dist", 2);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hot"), Some(4000));
        assert_eq!(snap.histogram("dist").unwrap().count, 4000);
        assert_eq!(snap.histogram("dist").unwrap().sum, 8000);
    }

    #[test]
    fn snapshots_are_name_sorted() {
        let reg = Registry::new();
        for name in ["zeta", "alpha", "mid"] {
            reg.add(name, 1);
        }
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn json_round_trip_exact() {
        let reg = Registry::new();
        reg.add("validate.rows_scanned", 123_456);
        reg.set_gauge("store.bytes", 1 << 20);
        reg.observe("stream.batch_rows", 0);
        reg.observe("stream.batch_rows", 512);
        let snap = reg.snapshot();
        let doc = snap.to_json();
        let text = doc.to_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(MetricsSnapshot::from_json(&parsed), Some(snap));
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        for bad in [
            r#"{}"#,
            r#"{"counters":{},"gauges":{}}"#,
            r#"{"counters":{"c":-1},"gauges":{},"histograms":{}}"#,
            r#"{"counters":{"c":1.5},"gauges":{},"histograms":{}}"#,
            r#"{"counters":{},"gauges":{},"histograms":{"h":{"count":1}}}"#,
        ] {
            let doc = Json::parse(bad).unwrap();
            assert!(MetricsSnapshot::from_json(&doc).is_none(), "{bad}");
        }
    }
}
