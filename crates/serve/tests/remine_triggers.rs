//! The two re-mining triggers agree. Serve's `remine` job triggers on the
//! cover's kernel measures over the dataset; `cfd watch --remine`
//! triggers on a streaming engine's live measures. Warmed on the same
//! relation, the engine's cycle and the job give the same neighborhood,
//! retired and added rules with their measures, rule count and
//! `min_confidence`.

use cfd_datagen::TaxGenerator;
use cfd_model::cfd::parse_cfd;
use cfd_model::{Cfd, Control, Json, Relation, RuleMeasure};
use cfd_serve::{Dataset, JobOutcome, JobSpec};
use cfd_stream::{RemineOptions, StreamEngine};
use std::sync::Arc;

/// The `serve` benchmark's drift at a fifth of its size: from row 800
/// on, each row takes the CT of the row 400 before it, so `[AC] -> CT`
/// (exact on the generated rows) drifts. With `head`, rows 0..200 take
/// the CT of the row 400 after them instead: a group's witness (its
/// first row) then often holds a minority CT, so the engine's violation
/// records and its minimal-removal measure part ways.
fn drifted(head: bool) -> Relation {
    let tax = TaxGenerator::new(1_000).generate();
    let ct = tax.schema().attr_id("CT").expect("tax has CT");
    // row i of either 200-row stretch takes the CT of row 400 + i
    let edits: Vec<(u32, usize, u32)> = (0..200)
        .map(|i| (if head { i } else { 800 + i }, ct, tax.code(400 + i, ct)))
        .collect();
    tax.with_replaced_codes(&edits)
}

fn rule_docs<'a>(rules: impl Iterator<Item = (&'a str, &'a RuleMeasure)>) -> Json {
    Json::arr(rules.map(|(text, m)| {
        Json::obj([
            ("text", Json::from(text)),
            ("support", Json::from(m.support)),
            ("removals", Json::from(m.violations)),
            ("confidence", Json::from(m.confidence())),
        ])
    }))
}

/// The `remine` reply the engine's cycle implies: its delta, and the
/// rule count of its cover after the swap.
fn engine_doc(rel: &Relation, cover: Vec<Cfd>, opts: &RemineOptions) -> Json {
    let (mut engine, _) = StreamEngine::warm(rel, cover, 1);
    let Some(delta) = cfd_stream::remine(&mut engine, opts, &Control::default()).unwrap() else {
        return Json::obj([
            ("triggered", Json::from(false)),
            ("rules", Json::from(engine.rules().len())),
        ]);
    };
    let names = delta.neighborhood.iter().map(|&a| rel.schema().name(a));
    let retired = delta.retired.iter().map(|r| (r.text.as_str(), &r.measure));
    let added = delta.replacement_texts.iter().map(String::as_str);
    Json::obj([
        ("triggered", Json::from(true)),
        ("neighborhood", Json::arr(names.map(Json::from))),
        ("retired", rule_docs(retired)),
        ("added", rule_docs(added.zip(&delta.replacement_measures))),
        ("rules", Json::from(engine.rules().len())),
        ("min_confidence", Json::from(delta.min_confidence())),
    ])
}

#[test]
fn the_job_and_the_engine_cycle_agree() {
    for head in [false, true] {
        agree_on(&drifted(head));
    }
}

fn agree_on(rel: &Relation) {
    let fd = "([AC] -> CT, (_ || _))";
    let variant = RemineOptions {
        theta: 0.9,
        expand: 2,
        k: 3,
        threads: 2,
        ..RemineOptions::default()
    };
    let cases: [(&[&str], RemineOptions, bool); 5] = [
        (&[fd], RemineOptions::default(), true),
        // `[AC] -> ZIP` shares AC, so ZIP joins the neighborhood and the
        // exact rule retires with the drifted one; the PN, NM rule lies
        // outside and is kept
        (
            &[
                "([PN, NM] -> CC, (_, _ || _))",
                fd,
                "([AC] -> ZIP, (_ || _))",
            ],
            RemineOptions::default(),
            true,
        ),
        // a conditional rule takes the CTANE branch
        (&["([AC] -> CT, (v1 || _))"], RemineOptions::default(), true),
        (
            &["([AC] -> ZIP, (_ || _))"],
            RemineOptions::default(),
            false,
        ),
        (&[fd, "([CT] -> ZIP, (_ || _))"], variant, true),
    ];
    for (texts, opts, triggered) in cases {
        let rules: Vec<(String, Cfd)> = texts
            .iter()
            .map(|t| (t.to_string(), parse_cfd(rel, t).unwrap()))
            .collect();
        let want = engine_doc(rel, rules.iter().map(|(_, c)| c.clone()).collect(), &opts);
        let spec = JobSpec::Remine {
            ds: Arc::new(Dataset::new("drift", rel.clone())),
            rules,
            opts,
        };
        let JobOutcome::Done(got) = cfd_serve::jobs::run_spec(&spec, &Control::default()) else {
            panic!("{texts:?}: remine job failed");
        };
        assert_eq!(got.to_string(), want.to_string(), "{texts:?}");
        let fired = got.get("triggered").and_then(Json::as_bool);
        assert_eq!(fired, Some(triggered), "{texts:?}: {got}");
    }
}
