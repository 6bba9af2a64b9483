//! Turning an [`Outcome`] into metrics: the end-to-end ones from the
//! untraced pass, the per-layer ones from the replay's spans, and the
//! result line, record and summary that carry them.

use crate::spec::{MetricSpec, Spec};
use crate::stats::{median, quantile, Dist};
use crate::workloads::{Outcome, Workload};
use crate::Res;
use cfd_suite::model::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// The layers the replay times, named after the modules they call.
pub const LAYERS: [&str; 9] = [
    "ingest",
    "rules",
    "mine",
    "validate",
    "stream",
    "protocol",
    "registry",
    "jobs",
    "serialize",
];

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Quartiles and sample count, for timings taken over samples.
    pub dist: Option<Dist>,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        dist: None,
    }
}

fn timing(name: &str, unit: &'static str, xs: &[f64]) -> Metric {
    let d = Dist::of(xs);
    Metric {
        name: name.to_string(),
        unit,
        value: d.p50,
        dist: Some(d),
    }
}

/// Per call kind, at reference speed: e2e and traced medians and the
/// residual between them (process start, argument and file parsing and
/// stdout for the CLI; socket I/O and queue wait for the server).
pub struct KindDetail {
    pub kind: &'static str,
    pub n: usize,
    pub e2e_p50_ms: f64,
    pub traced_p50_ms: f64,
    pub layers_p50_ms: BTreeMap<&'static str, f64>,
}

pub struct Report {
    pub workload: Workload,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub kinds: Vec<KindDetail>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Report {
    pub fn new(workload: Workload, o: &Outcome) -> Report {
        let failures: Vec<String> = o.calls.iter().filter_map(|c| c.failure.clone()).collect();
        let mut failed_ops: Vec<usize> = o
            .calls
            .iter()
            .filter(|c| c.timed && c.failure.is_some())
            .map(|c| c.op)
            .collect();
        failed_ops.sort_unstable();
        failed_ops.dedup();
        let op_ms = o.window.at_ref();
        let ok_ops = op_ms.len().saturating_sub(failed_ops.len());
        let end_to_end = vec![
            timing("setup_s", "s", &o.setup.at_ref()),
            timing("op.p50_ms", "ms", &op_ms),
            metric("rss_peak_mb", "MiB", o.rss_kb as f64 / 1024.0),
        ];

        // each layer's self time as a share of the replayed calls' root
        // spans: one pass, so the shares sum to at most 1
        let layers = o.tracer.layers_by_op();
        let traced = o.tracer.op_ms();
        let traced_total = traced.values().fold(0.0, |a, b| a + b);
        let mut per_layer = Vec::new();
        for layer in LAYERS {
            let total = layers
                .values()
                .filter_map(|l| l.get(layer))
                .fold(0.0, |a, b| a + b);
            per_layer.push(metric(
                &format!("{layer}.share"),
                "1",
                ratio(total, traced_total),
            ));
        }
        // the time no layer covers: the op's median end to end less its
        // median in the replay, both at reference speed
        let mut traced_ops: BTreeMap<usize, f64> = BTreeMap::new();
        for (&i, ms) in &traced {
            *traced_ops.entry(o.calls[i].op).or_default() += ms;
        }
        let traced_ops: Vec<f64> = traced_ops.into_values().collect();
        let residual_ms = median(&op_ms) - median(&traced_ops);
        per_layer.push(metric(
            "residual_share",
            "1",
            ratio(residual_ms, median(&op_ms)),
        ));
        per_layer.push(timing("traced_op.p50_ms", "ms", &traced_ops));
        per_layer.push(metric("residual_ms", "ms", residual_ms));
        per_layer.push(metric("op.p99_ms", "ms", quantile(&op_ms, 0.99)));
        per_layer.push(metric("op.wall_p50_ms", "ms", median(o.window.wall())));
        let samples: Vec<f64> = o
            .setup
            .speed
            .samples()
            .iter()
            .chain(o.window.speed.samples())
            .chain(o.tracer.speed().samples())
            .copied()
            .collect();
        per_layer.push(metric("speed.ref_ms", "ms", median(&samples)));
        // a window mean, so a slow stretch of the box moves it more than
        // the median: a per-layer number, not a bounded one
        per_layer.push(metric(
            "ops_per_s",
            "1/s",
            ratio(ok_ops as f64, o.elapsed_s),
        ));
        let c = &o.counters;
        per_layer.push(metric(
            "ingest.mb_per_s",
            "MB/s",
            ratio(c.ingest_bytes as f64 / 1e6, o.tracer.total_s("ingest")),
        ));
        per_layer.push(metric("output.bytes", "B", median(&o.op_bytes)));
        per_layer.push(metric(
            "mine.candidates",
            "count",
            if c.candidates.is_empty() {
                0.0
            } else {
                median(&c.candidates)
            },
        ));
        per_layer.push(metric(
            "partition.store_hit_ratio",
            "1",
            ratio(c.store_hits as f64, (c.store_hits + c.store_misses) as f64),
        ));
        per_layer.push(metric(
            "stream.deltas_per_update",
            "1",
            ratio(c.deltas as f64, c.updates as f64),
        ));

        let mut kinds: Vec<KindDetail> = Vec::new();
        for call in &o.calls {
            if call.timed && call.ms > 0.0 && !kinds.iter().any(|k| k.kind == call.kind) {
                let of_kind = |i: &usize| o.calls[*i].kind == call.kind;
                let e2e: Vec<f64> = o
                    .calls
                    .iter()
                    .filter(|c| c.kind == call.kind && c.timed)
                    .map(|c| c.ms)
                    .collect();
                let tr: Vec<f64> = traced
                    .iter()
                    .filter(|(i, _)| of_kind(i))
                    .map(|(_, ms)| *ms)
                    .collect();
                let layers_p50_ms = LAYERS
                    .into_iter()
                    .filter_map(|layer| {
                        let xs: Vec<f64> = layers
                            .iter()
                            .filter(|(i, _)| of_kind(i))
                            .filter_map(|(_, l)| l.get(layer).copied())
                            .collect();
                        (!xs.is_empty()).then(|| (layer, median(&xs)))
                    })
                    .collect();
                kinds.push(KindDetail {
                    kind: call.kind,
                    n: e2e.len(),
                    e2e_p50_ms: median(&e2e),
                    traced_p50_ms: median(&tr),
                    layers_p50_ms,
                });
            }
        }

        Report {
            workload,
            attempted: o.calls.len(),
            failed: failures.len(),
            failures,
            end_to_end,
            per_layer,
            kinds,
        }
    }

    fn find(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// The result line: `listed` metrics by name with their units.
    pub fn result_line(&self, listed: &[MetricSpec]) -> Res<String> {
        let mut metrics = Vec::new();
        for spec in listed {
            let m = self.find(&spec.name).ok_or_else(|| {
                format!(
                    "BENCHMARK.json lists {:?}, which the benchmark does not measure",
                    spec.name
                )
            })?;
            if m.unit != spec.unit {
                return Err(format!(
                    "{} is measured in {}, BENCHMARK.json says {}",
                    m.name, m.unit, spec.unit
                )
                .into());
            }
            if !m.value.is_finite() {
                return Err(
                    format!("{} {} is not a finite number", self.workload.name(), m.name).into(),
                );
            }
            metrics.push((
                m.name.clone(),
                Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
            ));
        }
        Ok(Json::obj([
            ("correct", Json::from(self.failed == 0)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string())
    }

    /// A fuller record for `agree`: both metric sets with quartiles,
    /// and the per-kind detail.
    pub fn record(&self, seed: u64, trace: bool) -> Json {
        let metrics = self.end_to_end.iter().chain(&self.per_layer).map(|m| {
            let mut fields = vec![("value", Json::from(m.value)), ("unit", Json::from(m.unit))];
            if let Some(d) = m.dist {
                fields.push(("p25", Json::from(d.p25)));
                fields.push(("p75", Json::from(d.p75)));
                fields.push(("n", Json::from(d.n)));
            }
            (m.name.clone(), Json::obj(fields))
        });
        let kinds = self.kinds.iter().map(|k| {
            (
                k.kind,
                Json::obj([
                    ("n", Json::from(k.n)),
                    ("e2e_p50_ms", Json::from(k.e2e_p50_ms)),
                    ("traced_p50_ms", Json::from(k.traced_p50_ms)),
                    ("residual_ms", Json::from(k.e2e_p50_ms - k.traced_p50_ms)),
                    (
                        "layers_p50_ms",
                        Json::obj(k.layers_p50_ms.iter().map(|(l, v)| (*l, Json::from(*v)))),
                    ),
                ]),
            )
        });
        Json::obj([
            ("workload", Json::from(self.workload.name())),
            ("seed", Json::from(seed)),
            ("trace", Json::from(trace)),
            ("correct", Json::from(self.failed == 0)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
            ("kinds", Json::obj(kinds)),
        ])
    }

    /// Human-readable summary on stderr.
    pub fn summary(&self, spec: &Spec) {
        let w = self.workload.name();
        eprintln!("# {w}: {} calls, {} failed", self.attempted, self.failed);
        for f in self.failures.iter().take(5) {
            eprintln!("# {w}: FAILED {f}");
        }
        let listed = spec.end_to_end.iter().chain(&spec.per_layer);
        for m in listed.filter_map(|s| self.find(&s.name)) {
            match m.dist {
                Some(d) => eprintln!(
                    "# {w}: {:<26} {:>12.4} {:<5} p25 {:.4} p75 {:.4} n {}",
                    m.name, m.value, m.unit, d.p25, d.p75, d.n
                ),
                None => eprintln!("# {w}: {:<26} {:>12.4} {}", m.name, m.value, m.unit),
            }
        }
        for k in &self.kinds {
            eprintln!(
                "# {w}: kind {:<10} n {:>5}  e2e p50 {:>9.3} ms  traced p50 {:>9.3} ms  residual {:>9.3} ms",
                k.kind,
                k.n,
                k.e2e_p50_ms,
                k.traced_p50_ms,
                k.e2e_p50_ms - k.traced_p50_ms
            );
        }
    }
}

pub fn append_record(path: &Path, record: &Json) -> Res<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{record}")?;
    Ok(())
}
