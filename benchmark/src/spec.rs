//! `BENCHMARK.json`: the metric names, units, directions and regression
//! bounds the result line and `agree` are held to.

use crate::Res;
use cfd_suite::model::Json;
use std::path::Path;

/// One metric listed in `BENCHMARK.json`.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the base median a change may worsen it by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Json, key: &str) -> Res<Vec<MetricSpec>> {
    let list = doc
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: {key:?} must be an array"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: a {key} entry lacks {k:?}"))
            };
            Ok(MetricSpec {
                name: field("name")?,
                unit: field("unit")?,
                lower_is_better: field("better")? == "lower",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

pub fn load(path: &Path) -> Res<Spec> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json: \"run_seconds\" must be a number")?,
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
    })
}
