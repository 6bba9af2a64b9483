//! `agree`: the comparison rule next to the benchmark that defines it.
//!
//! Reads the records `run --out` appends, one side per flag. For every
//! (workload, end-to-end metric) it prints each side's median and
//! quartiles over runs, and whether the change's median is within the
//! metric's bound of the base median. With at least ten runs a side,
//! taken as pairs in file order, it also applies the win rule: the
//! change wins at least nine tenths of the pairs (ties count for
//! neither) and the medians differ by more than the base side's
//! inter-quartile distance. A gain does not count when the change fails
//! a larger share of its operations per run than the base. With only
//! `--base`, it prints each metric's spread (inter-quartile distance over
//! median) against its bound. Exits 1 when any median is worse than its
//! bound allows.

use crate::spec::{self, MetricSpec};
use crate::stats::Dist;
use crate::Res;
use cfd_suite::model::Json;
use std::path::Path;
use std::process::ExitCode;

/// Pairs needed before the win rule applies.
const MIN_PAIRS: usize = 10;

fn load(files: &[String]) -> Res<Vec<Json>> {
    let mut records = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}"))?;
        for (no, line) in text.lines().enumerate() {
            if !line.trim().is_empty() {
                records.push(Json::parse(line).map_err(|e| format!("{f}:{}: {e}", no + 1))?);
            }
        }
    }
    Ok(records)
}

fn workload(r: &Json) -> &str {
    r.get("workload").and_then(Json::as_str).unwrap_or("?")
}

fn values(records: &[Json], w: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| workload(r) == w)
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// The share of its attempted operations a run failed, averaged over
/// runs, so sides with different numbers of runs compare evenly.
fn failure_rate(records: &[Json], w: &str) -> f64 {
    let rates: Vec<f64> = records
        .iter()
        .filter(|r| workload(r) == w)
        .filter_map(|r| Some(r.get("failed")?.as_f64()? / r.get("attempted")?.as_f64()?))
        .collect();
    rates.iter().fold(0.0, |a, b| a + b) / rates.len().max(1) as f64
}

/// How much worse `to` is than `from`, as a share of `from` (negative
/// when better).
fn worse_by(m: &MetricSpec, from: f64, to: f64) -> f64 {
    let d = if m.lower_is_better {
        to - from
    } else {
        from - to
    };
    d / from
}

/// One metric's verdict line, and whether it is a regression.
/// `fails_more`: the change fails more operations per run than the base.
fn compare(m: &MetricSpec, base: &[f64], change: &[f64], fails_more: bool) -> (String, bool) {
    let (b, c) = (Dist::of(base), Dist::of(change));
    let bound = m.bound.unwrap_or(0.0);
    let worse = worse_by(m, b.p50, c.p50);
    let pairs = base.len().min(change.len());
    let wins = base
        .iter()
        .zip(change)
        .filter(|(b, c)| worse_by(m, **b, **c) < 0.0)
        .count();
    let cols = format!(
        "{:>11.4} [{:.4}, {:.4}]  {:>11.4} [{:.4}, {:.4}]  {:>+7.1}%",
        b.p50,
        b.p25,
        b.p75,
        c.p50,
        c.p25,
        c.p75,
        100.0 * (c.p50 - b.p50) / b.p50
    );
    if worse > bound {
        return (format!("{cols}  REGRESSION (bound {bound})"), true);
    }
    let verdict = if pairs < MIN_PAIRS {
        format!("within bound; {pairs} pairs, the win rule needs {MIN_PAIRS}")
    } else if wins * 10 >= pairs * 9 && worse < 0.0 && (c.p50 - b.p50).abs() > b.p75 - b.p25 {
        if fails_more {
            format!("no gain: {wins}/{pairs} pairs won, but the change fails more operations")
        } else {
            format!("GAIN ({wins}/{pairs} pairs won)")
        }
    } else {
        format!("within bound, no gain ({wins}/{pairs} pairs won)")
    };
    (format!("{cols}  {verdict}"), false)
}

pub fn main(args: &[String], spec_path: &Path) -> Res<ExitCode> {
    let (mut base, mut change) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<String>> = None;
    for a in args {
        match a.as_str() {
            "--base" => side = Some(&mut base),
            "--change" => side = Some(&mut change),
            f => match side.as_mut() {
                Some(files) => files.push(f.to_string()),
                None => return Err(format!("{f:?}: name --base or --change first").into()),
            },
        }
    }
    if base.is_empty() {
        return Err("agree needs --base FILE... [--change FILE...]".into());
    }
    let spec = spec::load(spec_path)?;
    let (base, change) = (load(&base)?, load(&change)?);
    let mut workloads: Vec<&str> = Vec::new();
    for r in &base {
        if !workloads.contains(&workload(r)) {
            workloads.push(workload(r));
        }
    }
    let mut regression = false;
    for w in workloads {
        let fails_more = failure_rate(&change, w) > failure_rate(&base, w);
        if change.is_empty() {
            println!("{w}: metric, base median [p25, p75], spread (IQR / median) against bound");
        } else {
            println!("{w}: metric, base median [p25, p75], change median [p25, p75], change");
        }
        for m in &spec.end_to_end {
            let b = values(&base, w, &m.name);
            if b.is_empty() {
                continue;
            }
            let c = values(&change, w, &m.name);
            if c.is_empty() {
                let d = Dist::of(&b);
                let spread = (d.p75 - d.p25) / d.p50;
                let bound = m.bound.unwrap_or(0.0);
                let verdict = if spread <= bound / 3.0 {
                    "steady (under a third of the bound)"
                } else if spread <= bound {
                    "within the bound"
                } else {
                    "WIDER THAN THE BOUND"
                };
                println!(
                    "  {:<14} {:>11.4} [{:.4}, {:.4}]  spread {:.3} of bound {bound}: {verdict}  (n {})",
                    m.name, d.p50, d.p25, d.p75, spread, d.n
                );
            } else {
                let (line, worse) = compare(m, &b, &c, fails_more);
                regression |= worse;
                println!("  {:<14} {line}", m.name);
            }
        }
    }
    Ok(if regression {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "op.p50_ms".into(),
            unit: "ms".into(),
            lower_is_better: true,
            bound: Some(bound),
        }
    }

    fn record(failed: f64, attempted: f64) -> Json {
        Json::obj([
            ("workload", Json::from("w")),
            ("attempted", Json::from(attempted)),
            ("failed", Json::from(failed)),
        ])
    }

    #[test]
    fn failure_rates_are_per_run() {
        // one run failing 1 of 10 against ten runs failing 1 of 100 each:
        // more failures per run, though fewer in total
        let base: Vec<Json> = (0..10).map(|_| record(1.0, 100.0)).collect();
        let change = [record(1.0, 10.0)];
        assert!(failure_rate(&change, "w") > failure_rate(&base, "w"));
        assert_eq!(failure_rate(&[], "w"), 0.0);
    }

    #[test]
    fn bounds_and_the_win_rule() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        // 20 % slower: outside a 0.1 bound
        let slow: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        assert!(compare(&lower(0.1), &base, &slow, false).1);
        // 3 % slower: within
        let (line, worse) = compare(
            &lower(0.1),
            &base,
            &base.iter().map(|x| x * 1.03).collect::<Vec<_>>(),
            false,
        );
        assert!(!worse && line.contains("no gain"), "{line}");
        // every pair won by far more than the base IQR: a gain
        let fast: Vec<f64> = base.iter().map(|x| x * 0.5).collect();
        let (line, _) = compare(&lower(0.1), &base, &fast, false);
        assert!(line.contains("GAIN (10/10"), "{line}");
        // the same gain with more failed operations does not count
        let (line, _) = compare(&lower(0.1), &base, &fast, true);
        assert!(line.contains("no gain") && !line.contains("GAIN"), "{line}");
        // too few pairs for the rule
        let (line, _) = compare(&lower(0.1), &base[..3], &fast[..3], false);
        assert!(line.contains("needs 10"), "{line}");
    }
}
