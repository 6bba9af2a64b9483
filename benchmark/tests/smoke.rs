//! The benchmark's self-test: a `--smoke` run of every workload (same
//! code paths, about 1/50 of the input sizes) must print every metric
//! `BENCHMARK.json` names with its unit, fail no operation, and leave a
//! trace file that parses.

use cfd_suite::model::Json;
use std::path::Path;
use std::process::Command;

fn names(list: &Json) -> Vec<(String, Option<String>)> {
    list.as_array()
        .expect("a BENCHMARK.json list")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("a name");
            let unit = m.get("unit").and_then(Json::as_str).map(str::to_string);
            (name.to_string(), unit)
        })
        .collect()
}

#[test]
fn smoke_run_reports_every_metric_and_fails_nothing() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository");
    let spec = Json::parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap()).unwrap();
    let workloads = names(spec.get("workloads").unwrap());
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(["run", "--smoke", "--seed", "1", "--trace", trace])
            .output()
            .expect("the benchmark runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--trace {trace} failed:\n{stderr}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let results: Vec<&str> = stdout.lines().collect();
        assert_eq!(
            results.len(),
            workloads.len(),
            "one result line per workload"
        );
        for line in results {
            let doc = Json::parse(line).unwrap();
            let Json::Obj(fields) = &doc else {
                panic!("result is not an object: {line}")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                doc.get("correct").and_then(Json::as_bool),
                Some(true),
                "{line}"
            );
            assert_eq!(
                doc.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{line}"
            );
            assert!(doc.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let metrics = doc.get("metrics").unwrap();
            for (name, unit) in names(spec.get(list).unwrap()) {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{name} missing from {line}"));
                assert_eq!(m.get("unit").and_then(Json::as_str), unit.as_deref());
                assert!(m
                    .get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite));
            }
        }
    }
    for (w, _) in &workloads {
        let path = root.join(format!("benchmark/out/trace-{w}-1.json"));
        let trace = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let spans = trace.get("spans").and_then(Json::as_array).unwrap();
        assert!(!spans.is_empty(), "{w}: empty trace");
        for s in spans {
            let (start, end) = (s.get("start_ns").unwrap(), s.get("end_ns").unwrap());
            assert!(start.as_f64().unwrap() <= end.as_f64().unwrap());
        }
    }
}
