//! `bulk`: the mirror of `mine`. A 200k-row tax relation with 1 % cell
//! noise is checked against a 60-rule cover that holds on its clean
//! version (`cfd check --format json`) and mined for constant rules
//! (`cfd discover --algo cfdminer`). Chunked ingest and
//! the validation scan dominate; lattice mining is small. An op is one
//! round of the two processes.

use super::{
    ingest, path_str, setup_stats, until_deadline, Call, Ctx, Outcome, SETUPS_AFTER, SETUPS_BEFORE,
};
use crate::speed::OneCpu;
use crate::{inputs, proc, Res};
use cfd_suite::core::api::{Algo, DiscoverOptions, Discoverer};
use cfd_suite::model::cfd::parse_cfd;
use cfd_suite::model::{Control, Json};
use cfd_suite::serve::session::{attach_rule_texts, load_rules_file_with};
use cfd_suite::validate::{validate_with, ValidateOptions};

/// `cfd check`'s default per-rule sample cap.
const CHECK_LIMIT: usize = 20;

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    // the program is single-threaded: it and the speed kernel share a core
    let _pin = OneCpu::pin()?;
    let mut o = Outcome::new();
    let rel = inputs::tax(ctx.scale.bulk_rows, ctx.seed).generate();
    let rules_path = ctx.path("rules.txt");
    inputs::write_rules(&rules_path, &inputs::cover(&rel)?)?;
    let csv_path = ctx.path("bulk.csv");
    let bytes = inputs::write_relation(&csv_path, &inputs::dirty(&rel, ctx.seed))?;
    drop(rel);
    let (csv, rules) = (path_str(&csv_path)?, path_str(&rules_path)?);
    let k = ctx.scale.bulk_k.to_string();
    setup_stats(ctx, csv, SETUPS_BEFORE, &mut o.setup)?;

    let check_args = ["check", csv, rules, "--format", "json"];
    let mine_args = ["discover", csv, "--algo", "cfdminer", "--k", &k];
    // first (exit code, stdout) per kind; later rounds must repeat it
    let mut first: [Option<(Option<i32>, Vec<u8>)>; 2] = Default::default();
    let elapsed = until_deadline(ctx, &mut o.window, |round, slowdown| {
        let t = std::time::Instant::now();
        let mut round_bytes = 0;
        for ((kind, args), first) in [("check", &check_args[..]), ("cfdminer", &mine_args[..])]
            .into_iter()
            .zip(&mut first)
        {
            let r = proc::run_once(ctx.cfd, args)?;
            o.rss_kb = o.rss_kb.max(r.maxrss_kb);
            round_bytes += r.stdout.len();
            let failure = match first {
                None => {
                    *first = Some((r.code, r.stdout.clone()));
                    None
                }
                Some((code, out)) if *code == r.code && *out == r.stdout => None,
                Some(_) => Some(format!(
                    "exit code or stdout differs from the first round's: {}",
                    r.stderr.trim()
                )),
            };
            o.calls.push(Call {
                kind,
                op: round,
                ms: r.secs * 1e3 / slowdown,
                timed: true,
                failure,
            });
        }
        o.op_bytes.push(round_bytes as f64);
        Ok(t.elapsed().as_secs_f64() * 1e3)
    })?;
    o.elapsed_s = elapsed;
    setup_stats(ctx, csv, SETUPS_AFTER, &mut o.setup)?;

    let rounds = if ctx.trace { 3 } else { 1 }.min(o.window.wall().len());
    let opts = DiscoverOptions::new(ctx.scale.bulk_k);
    let vopts = ValidateOptions {
        threads: 1,
        limit: CHECK_LIMIT,
    };
    for round in 0..rounds {
        let (code, text) = o.tracer.op(round * 2, |t| -> Res<_> {
            let rel = t.span("ingest", || ingest(&csv_path))?;
            let loaded = t.span("rules", || {
                load_rules_file_with(rules, false, |line| parse_cfd(&rel, line))
            })?;
            let report = t.span("validate", || {
                validate_with(
                    &rel,
                    loaded.iter().map(|(_, c)| c),
                    &vopts,
                    &Control::default(),
                )
            });
            // the document `cfd check --format json` prints
            let text = t.span("serialize", || {
                let mut doc = report.to_json();
                if let Json::Obj(pairs) = &mut doc {
                    pairs.insert(0, ("command".into(), Json::from("check")));
                    pairs.insert(1, ("dataset".into(), Json::from(csv)));
                    pairs.insert(2, ("rules_file".into(), Json::from(rules)));
                }
                attach_rule_texts(&mut doc, &loaded);
                format!("{doc}\n")
            });
            Ok((if report.satisfied() { 0 } else { 1 }, text))
        })?;
        o.counters.ingest_bytes += bytes;
        let mined = o.tracer.op(round * 2 + 1, |t| -> Res<_> {
            let rel = t.span("ingest", || ingest(&csv_path))?;
            let d = t.span("mine", || {
                Algo::CfdMiner.discover_with(&rel, &opts, &Control::default())
            })?;
            let text = t.span("serialize", || d.cover.to_text(d.relation(&rel)));
            Ok((text, d.stats))
        })?;
        o.counters.ingest_bytes += bytes;
        o.counters.candidates.push(mined.1.candidates as f64);
        if round > 0 {
            continue;
        }
        if let Some((c, out)) = &first[0] {
            if *c != Some(code) || *out != text.as_bytes() {
                o.fail_kind("check", "exit code or JSON differs from validate_with");
            }
        }
        if first[1]
            .as_ref()
            .is_some_and(|(c, out)| *c != Some(0) || *out != mined.0.as_bytes())
        {
            o.fail_kind("cfdminer", "exit code or stdout differs from to_text");
        }
    }
    Ok(o)
}
