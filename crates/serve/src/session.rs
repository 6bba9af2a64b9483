//! One request/session abstraction shared by the CLI and the server.
//!
//! `cfd discover`, `cfd check`, `cfd watch` and every server job do
//! the same bookkeeping around the actual work: install tracing, own a
//! metrics [`Registry`](cfd_obs::Registry), load the CSV through the chunked ingestion
//! pipeline with that registry attached, parse a rule file under the
//! strict/lenient policy, decorate report JSON with rule texts, and
//! flush the span totals / metrics snapshot at the end. This module
//! hosts that bookkeeping once — the CLI drives one [`ObsSession`] per
//! invocation, `cfd serve` drives one for the whole server lifetime
//! and shares its registry across every connection and job.

use cfd_model::measure::split_annotation;
use cfd_model::{Cfd, Control, Error, IngestOptions, Json, Relation, Result};
use std::sync::Arc;

/// The observability side of one run: owns the metrics
/// [`Registry`](cfd_obs::Registry) work emits into (attach it via
/// [`ObsSession::control`]) and, on [`ObsSession::finish`], prints the
/// span totals to stderr and writes the metrics snapshot JSON.
/// Start it *before* loading data so `ingest.*` spans and counters
/// land in the same session as the algorithm's own.
pub struct ObsSession {
    registry: Arc<cfd_obs::Registry>,
    trace: bool,
    metrics_out: Option<String>,
}

impl ObsSession {
    /// Starts a session with a fresh registry, installing the tracing
    /// subscriber when `trace` is set.
    pub fn start(trace: bool, metrics_out: Option<String>) -> ObsSession {
        ObsSession::with_registry(Arc::new(cfd_obs::Registry::new()), trace, metrics_out)
    }

    /// Starts a session around an existing registry — the server path,
    /// where the registry outlives any one request.
    pub fn with_registry(
        registry: Arc<cfd_obs::Registry>,
        trace: bool,
        metrics_out: Option<String>,
    ) -> ObsSession {
        if trace {
            cfd_obs::install_tracing();
        }
        ObsSession {
            registry,
            trace,
            metrics_out,
        }
    }

    /// The session's metrics registry.
    pub fn registry(&self) -> &Arc<cfd_obs::Registry> {
        &self.registry
    }

    /// A run handle with the registry attached as metrics sink.
    pub fn control(&self) -> Control<'_> {
        Control::default().metrics_with(&*self.registry)
    }

    /// Loads a CSV through the chunked ingestion pipeline (with
    /// `threads > 1`, a large block's columns encode in parallel),
    /// spans/metrics flowing into this session. Memory stays O(chunk +
    /// longest record) on the reader side regardless of file size.
    pub fn load_csv(&self, path: &str, threads: usize) -> Result<Relation> {
        let opts = IngestOptions::default().threads(threads);
        cfd_model::ingest_csv_path(path, &opts, &self.control())
    }

    /// Prints the exact span totals (stderr, `# trace …` lines,
    /// heaviest first) and writes the metrics snapshot to the
    /// `metrics_out` path, when either was requested.
    pub fn finish(&self) -> Result<()> {
        if self.trace {
            cfd_obs::shutdown_tracing();
            for t in cfd_obs::span_totals() {
                eprintln!(
                    "# trace {}: count={} total={}us max={}us",
                    t.name,
                    t.count,
                    t.total.as_micros(),
                    t.max.as_micros()
                );
            }
        }
        if let Some(path) = &self.metrics_out {
            let snap = self.registry.snapshot();
            std::fs::write(path, format!("{}\n", snap.to_json())).map_err(Error::from)?;
            eprintln!("# metrics written to {path}");
        }
        Ok(())
    }
}

/// The one strict/lenient rule loop (blank/`#` lines skipped,
/// `[support=N conf=F]` annotations stripped — approximate `discover`
/// output loads unchanged), parameterized over the parser so
/// `check`/`repair` (dictionary lookups), `watch` (interning) and the
/// server's inline rule arrays share the policy and its wording.
/// Strict by default: the first unparseable line aborts with
/// `source`-qualified position. With `lenient`, bad lines are skipped
/// with a stderr warning — the pre-strictness behavior.
pub fn parse_rules_with(
    source: &str,
    text: &str,
    lenient: bool,
    mut parse: impl FnMut(&str) -> Result<Cfd>,
) -> Result<Vec<(String, Cfd)>> {
    let mut rules: Vec<(String, Cfd)> = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parsed = split_annotation(line).and_then(|(rule, _)| Ok((rule, parse(rule)?)));
        match parsed {
            Ok((rule, cfd)) => rules.push((rule.to_string(), cfd)),
            Err(e) if lenient => eprintln!("# skipping line {}: {e}", no + 1),
            Err(e) => {
                return Err(Error::Parse(format!(
                    "{source}:{}: unparseable rule: {e} (pass --lenient to skip bad lines)",
                    no + 1
                )))
            }
        }
    }
    Ok(rules)
}

/// [`parse_rules_with`] over a rule *file* — the `cfd check` /
/// `cfd repair` / `cfd watch` entry point.
pub fn load_rules_file_with(
    path: &str,
    lenient: bool,
    parse: impl FnMut(&str) -> Result<Cfd>,
) -> Result<Vec<(String, Cfd)>> {
    let text = std::fs::read_to_string(path)?;
    parse_rules_with(path, &text, lenient, parse)
}

/// Attaches each rule's wire text to its object in a
/// [`ValidationReport`](cfd_validate::ValidationReport) JSON document
/// (the `"rules"` array), keyed by the per-rule `"rule"` index — the
/// decoration `cfd check --format json` and the server's check results
/// both apply.
pub fn attach_rule_texts(doc: &mut Json, rules: &[(String, Cfd)]) {
    let Json::Obj(pairs) = doc else { return };
    let Some(Json::Arr(rule_docs)) = pairs.iter_mut().find(|(k, _)| k == "rules").map(|(_, v)| v)
    else {
        return;
    };
    for rd in rule_docs.iter_mut() {
        if let Json::Obj(fields) = rd {
            let idx = fields
                .iter()
                .find(|(k, _)| k == "rule")
                .and_then(|(_, v)| v.as_f64())
                .map(|n| n as usize);
            if let Some(i) = idx {
                if let Some((text, _)) = rules.get(i) {
                    fields.insert(1, ("text".into(), Json::from(text.as_str())));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::cfd::parse_cfd;
    use cfd_model::csv::relation_from_csv_str;

    #[test]
    fn strict_rule_parsing_reports_source_and_line() {
        let rel = relation_from_csv_str("AC,CT\n908,MH\n").unwrap();
        let text = "# comment\n(AC -> CT, (908 || MH))\n\nnot a rule\n";
        let err = parse_rules_with("inline", text, false, |l| parse_cfd(&rel, l)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("inline:4"), "got {msg:?}");
        assert!(msg.contains("--lenient"), "got {msg:?}");
        // lenient skips the bad line, keeps the good one
        let rules = parse_rules_with("inline", text, true, |l| parse_cfd(&rel, l)).unwrap();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].0, "(AC -> CT, (908 || MH))");
        // annotated lines load unchanged
        let annotated = "(AC -> CT, (908 || MH)) [support=1 conf=1.000]\n";
        let rules = parse_rules_with("inline", annotated, false, |l| parse_cfd(&rel, l)).unwrap();
        assert_eq!(rules.len(), 1);
    }

    #[test]
    fn rule_texts_attach_by_rule_index() {
        let rel = relation_from_csv_str("AC,CT\n908,MH\n908,MH\n").unwrap();
        let rules = parse_rules_with("inline", "(AC -> CT, (_ || _))", false, |l| {
            parse_cfd(&rel, l)
        })
        .unwrap();
        let report = cfd_validate::validate(
            &rel,
            rules.iter().map(|(_, c)| c),
            &cfd_validate::ValidateOptions::default(),
        );
        let mut doc = report.to_json();
        attach_rule_texts(&mut doc, &rules);
        let rd = &doc.get("rules").and_then(Json::as_array).unwrap()[0];
        assert_eq!(
            rd.get("text").and_then(Json::as_str),
            Some("(AC -> CT, (_ || _))")
        );
    }
}
