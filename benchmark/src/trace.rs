//! Spans recorded by the benchmark's own timer around each layer's
//! public call during the in-process replay. Spans stay in memory and
//! are written once, at the end of the run.

use crate::speed::Speed;
use cfd_suite::model::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: `op` is the index of the replayed program call it
/// belongs to (`None` during set-up), `parent` the enclosing span, and
/// `slowdown` the latest kernel run's when it opened.
pub struct Span {
    pub name: &'static str,
    pub op: Option<usize>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub slowdown: f64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<usize>,
    /// The speed of the replay's core, sampled outside every span.
    speed: Speed,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
            speed: Speed::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) -> usize {
        if self.open.is_empty() {
            self.speed.tick();
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            slowdown: self.speed.slowdown(),
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a span named after its layer.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Runs the replay of program call `op` under a root span named
    /// `"op"`; the layer spans `f` opens become its children.
    pub fn op<T>(&mut self, op: usize, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op = Some(op);
        let id = self.enter("op");
        let out = f(self);
        self.exit(id);
        self.op = None;
        out
    }

    /// A span's duration in ms at reference speed.
    fn ms(s: &Span) -> f64 {
        (s.end_ns - s.start_ns) as f64 / 1e6 / s.slowdown
    }

    /// Each span's self time in ms at reference speed: its duration minus
    /// the time its children cover (children of one span never overlap
    /// in the replay).
    fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Tracer::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = (own[p] - Tracer::ms(s)).max(0.0);
            }
        }
        own
    }

    /// Layer self time per replayed call, in ms at reference speed:
    /// `op → layer → ms`. The root `"op"` span's own remainder is not a
    /// layer and is left out.
    pub fn layers_by_op(&self) -> BTreeMap<usize, BTreeMap<&'static str, f64>> {
        let own = self.self_ms();
        let mut out: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (s, ms) in self.spans.iter().zip(own) {
            if let (Some(op), false) = (s.op, s.name == "op") {
                *out.entry(op).or_default().entry(s.name).or_default() += ms;
            }
        }
        out
    }

    /// Each replayed call's root span, in ms at reference speed.
    pub fn op_ms(&self) -> BTreeMap<usize, f64> {
        self.spans
            .iter()
            .filter(|s| s.name == "op")
            .filter_map(|s| Some((s.op?, Tracer::ms(s))))
            .collect()
    }

    pub fn speed(&self) -> &Speed {
        &self.speed
    }

    /// Total self time of every span named `name`, set-up included, in
    /// seconds at reference speed.
    pub fn total_s(&self, name: &str) -> f64 {
        let own = self.self_ms();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .fold(0.0, |a, (_, ms)| a + ms / 1e3)
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let opt = |v: Option<usize>| v.map_or(Json::Null, Json::from);
        Json::obj([
            ("workload", Json::from(workload)),
            (
                "spans",
                Json::arr(self.spans.iter().map(|s| {
                    Json::obj([
                        ("name", Json::from(s.name)),
                        ("workload", Json::from(workload)),
                        ("op", opt(s.op)),
                        ("parent", opt(s.parent)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        ("slowdown", Json::from(s.slowdown)),
                    ])
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("ingest", || ());
        t.op(3, |t| {
            t.span("mine", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("mine", || ());
        });
        let layers = t.layers_by_op();
        assert_eq!(layers.len(), 1, "set-up spans belong to no op");
        // one kernel run, before the first span, sets every span's slowdown
        assert_eq!(t.speed().samples().len(), 1);
        let slowdown = t.spans[0].slowdown;
        assert!(t.spans.iter().all(|s| s.slowdown == slowdown));
        let mine = layers[&3]["mine"];
        assert!(mine * slowdown >= 2.0, "{mine} at reference speed");
        assert!(t.op_ms()[&3] >= mine);
        assert_eq!(t.spans[2].parent, Some(1));
        assert!(t.total_s("ingest") >= 0.0);
        let doc = Json::parse(&t.to_json("w").to_string()).unwrap();
        assert_eq!(doc.get("spans").and_then(Json::as_array).unwrap().len(), 4);
    }
}
