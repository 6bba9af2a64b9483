//! `mine`: one-shot `cfd discover` with CTANE, FastCFD and CFDMiner on a
//! 20k-row tax relation. Mining dominates each process; ingest is a few
//! percent, so a miner or partition change shows here and an ingest one
//! should not. An op is one round of the three processes.

use super::{
    ingest, path_str, setup_stats, until_deadline, Call, Ctx, Outcome, SETUPS_AFTER, SETUPS_BEFORE,
};
use crate::speed::OneCpu;
use crate::{inputs, proc, Res};
use cfd_suite::core::api::{Algo, DiscoverOptions, Discoverer};
use cfd_suite::model::Control;

const ALGOS: [(&str, Algo); 3] = [
    ("ctane", Algo::Ctane),
    ("fastcfd", Algo::FastCfd),
    ("cfdminer", Algo::CfdMiner),
];

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    // the program is single-threaded: it and the speed kernel share a core
    let _pin = OneCpu::pin()?;
    let mut o = Outcome::new();
    let csv_path = ctx.path("mine.csv");
    let bytes = inputs::write_generated(&csv_path, &inputs::tax(ctx.scale.mine_rows, ctx.seed))?;
    let csv = path_str(&csv_path)?;
    let k = ctx.scale.mine_k.to_string();
    setup_stats(ctx, csv, SETUPS_BEFORE, &mut o.setup)?;

    // the first output of each algorithm; later rounds must repeat it
    let mut first: [Option<Vec<u8>>; 3] = Default::default();
    let elapsed = until_deadline(ctx, &mut o.window, |round, slowdown| {
        let t = std::time::Instant::now();
        let mut round_bytes = 0;
        for ((name, _), first) in ALGOS.iter().zip(&mut first) {
            let r = proc::run_once(ctx.cfd, &["discover", csv, "--algo", name, "--k", &k])?;
            o.rss_kb = o.rss_kb.max(r.maxrss_kb);
            round_bytes += r.stdout.len();
            let failure = proc::exit_failure(&r, 0).or_else(|| match first {
                None => {
                    *first = Some(r.stdout.clone());
                    None
                }
                Some(f) if *f == r.stdout => None,
                Some(_) => Some("stdout differs from the first round's".into()),
            });
            o.calls.push(Call {
                kind: name,
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

    // replay: the first round is the reference; a traced run replays
    // up to three rounds for steadier layer times
    let rounds = if ctx.trace { 3 } else { 1 }.min(o.window.wall().len());
    let opts = DiscoverOptions::new(ctx.scale.mine_k);
    for round in 0..rounds {
        for (i, ((name, algo), first)) in ALGOS.iter().zip(&first).enumerate() {
            let (text, stats) = o.tracer.op(round * ALGOS.len() + i, |t| -> Res<_> {
                let rel = t.span("ingest", || ingest(&csv_path))?;
                let d = t.span("mine", || {
                    algo.discover_with(&rel, &opts, &Control::default())
                })?;
                let text = t.span("serialize", || d.cover.to_text(d.relation(&rel)));
                Ok((text, d.stats))
            })?;
            o.counters.ingest_bytes += bytes;
            o.counters.candidates.push(stats.candidates as f64);
            o.counters.store_hits += stats.store.hits;
            o.counters.store_misses += stats.store.misses;
            if round == 0 && first.as_deref().is_some_and(|f| f != text.as_bytes()) {
                o.fail_kind(name, "stdout differs from the in-process to_text");
            }
        }
    }
    Ok(o)
}
