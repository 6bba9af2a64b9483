//! `watch`: `cfd watch` warmed on the first 20k rows of the `bulk`
//! relation (1 % cell noise, `cfd_datagen::noise::inject_noise`) with
//! the same cover, then fed batches of 2,500 deletes of the oldest live
//! rows plus 2,500 inserts of the following rows, so the live window
//! stays at 20k and deletes re-anchor witnesses. Each batch is written,
//! then its `BATCH` line is read before the next one (closed loop). The
//! incremental engine and the CLI's per-line parsing and delta printing
//! dominate; ingest and mining happen only in set-up. An op is one batch.
//! A batch of 250 + 250 takes about a millisecond, of which the two pipe
//! wake-ups and the per-batch violation count are a fixed part that
//! swings with the box's load: across ten seeds its median spread by a
//! third of itself, against a seventh at 2,500 + 2,500.

use super::{
    ingest, path_str, time_setups, until_deadline, Call, Ctx, Outcome, SETUPS_AFTER, SETUPS_BEFORE,
};
use crate::proc::Proc;
use crate::speed::OneCpu;
use crate::{inputs, Res};
use cfd_suite::model::cfd::parse_cfd_interning;
use cfd_suite::serve::session::load_rules_file_with;
use cfd_suite::stream::StreamEngine;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{ChildStderr, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// `rss_peak_mb` is read once the window has turned over this many
/// times: the engine keeps every row ever inserted, so its memory grows
/// with the number of batches, which would make a later reading depend
/// on how fast the box ran.
const RSS_TURNOVERS: usize = 4;

/// The numbers of one `BATCH` line (or of the final `STATS` line, with
/// zero raised/cleared).
#[derive(Debug, PartialEq, Eq)]
struct BatchLine {
    raised: usize,
    cleared: usize,
    live: usize,
    violations: usize,
}

/// `BATCH +i -d raised=R cleared=C live=L violations=V`, or
/// `STATS live=L violations=V`.
fn parse_counts(line: &str) -> Option<BatchLine> {
    let field = |key: &str| {
        line.split_whitespace()
            .find_map(|w| w.strip_prefix(key)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
    };
    Some(BatchLine {
        raised: field("raised").unwrap_or(0),
        cleared: field("cleared").unwrap_or(0),
        live: field("live")?,
        violations: field("violations")?,
    })
}

struct Watcher {
    proc: Proc,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// Held open so a late stderr line cannot fail the watcher.
    _stderr: BufReader<ChildStderr>,
}

impl Watcher {
    /// Spawns `cfd watch` and waits until it has reported its initial
    /// state: the `# watching` line (window ingested, rules parsed,
    /// engine warm), the warm window's violations, and the final line of
    /// its answer to `?`.
    fn start(cfd: &Path, warm: &str, rules: &str) -> Res<Watcher> {
        let mut proc = Proc::spawn(
            Command::new(cfd)
                .args(["watch", warm, rules])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped()),
        )?;
        let mut stderr = BufReader::new(proc.child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        while !line.starts_with("# watching") {
            line.clear();
            if stderr.read_line(&mut line)? == 0 {
                return Err("cfd watch exited before it was ready".into());
            }
        }
        let mut w = Watcher {
            stdin: proc.child.stdin.take(),
            stdout: BufReader::new(proc.child.stdout.take().expect("stdout is piped")),
            _stderr: stderr,
            proc,
        };
        w.stdin
            .as_mut()
            .expect("stdin is piped")
            .write_all(b"?\n")?;
        while !line.starts_with("STATS live=") {
            line.clear();
            if w.stdout.read_line(&mut line)? == 0 {
                return Err("cfd watch exited before reporting its state".into());
            }
        }
        Ok(w)
    }

    /// Closes stdin and reads the rest of stdout: returns the final
    /// `STATS live=…` counts and the exit code.
    fn finish(mut self) -> Res<(Option<BatchLine>, Option<i32>)> {
        drop(self.stdin.take());
        let mut last = None;
        let mut line = String::new();
        while self.stdout.read_line(&mut line)? > 0 {
            if line.starts_with("STATS live=") {
                last = parse_counts(&line);
            }
            line.clear();
        }
        Ok((last, self.proc.wait()?.code))
    }
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let s = ctx.scale;
    // the program is single-threaded: it and the speed kernel share a core
    let _pin = OneCpu::pin()?;
    let mut o = Outcome::new();
    let clean = inputs::tax(s.bulk_rows, ctx.seed).generate();
    let rules_path = ctx.path("rules.txt");
    inputs::write_rules(&rules_path, &inputs::cover(&clean)?)?;
    // the window starts as dirty as the stream, so every batch meets the
    // same steady state
    let rel = inputs::dirty(&clean, ctx.seed);
    drop(clean);
    let warm_path = ctx.path("warm.csv");
    let warm_bytes = inputs::write_relation(&warm_path, &inputs::rows(&rel, 0, s.watch_window))?;
    let pool: Vec<String> = (s.watch_window as u32..rel.n_rows() as u32)
        .map(|t| rel.tuple_values(t).join(","))
        .collect();
    drop(rel);
    let (warm, rules) = (path_str(&warm_path)?, path_str(&rules_path)?);

    let start = || Watcher::start(ctx.cfd, warm, rules);
    let stop = |w: Watcher| w.finish().map(drop);
    let mut w = time_setups(SETUPS_BEFORE, &mut o.setup, start, stop)?;

    // batch i deletes ids [i·b, (i+1)·b) and inserts pool rows from i·b
    // on (cycling): the window slides and stays at `watch_window` rows
    let b = s.batch;
    let rss_at = RSS_TURNOVERS * s.watch_window / b;
    let mut seen: Vec<BatchLine> = Vec::new();
    let mut text = String::new();
    let mut line = String::new();
    let elapsed = until_deadline(ctx, &mut o.window, |i, slowdown| {
        text.clear();
        for id in i * b..(i + 1) * b {
            text.push_str(&format!("-{id}\n"));
        }
        for j in i * b..(i + 1) * b {
            text.push_str(&pool[j % pool.len()]);
            text.push('\n');
        }
        text.push_str(".\n");
        let t = Instant::now();
        w.stdin
            .as_mut()
            .expect("stdin stays open until finish")
            .write_all(text.as_bytes())?;
        let mut bytes = 0;
        let counts = loop {
            line.clear();
            let n = w.stdout.read_line(&mut line)?;
            if n == 0 {
                return Err("cfd watch exited mid-stream".into());
            }
            bytes += n;
            if line.starts_with("BATCH ") {
                break parse_counts(&line);
            }
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        o.op_bytes.push(bytes as f64);
        o.calls.push(Call {
            kind: "batch",
            op: i,
            ms: ms / slowdown,
            timed: true,
            failure: None,
        });
        seen.push(counts.ok_or_else(|| format!("unparseable BATCH line {line:?}"))?);
        if i + 1 == rss_at {
            o.rss_kb = w.proc.peak_rss_kb()?;
        }
        Ok(ms)
    })?;
    o.elapsed_s = elapsed;
    if seen.len() < rss_at {
        o.rss_kb = w.proc.peak_rss_kb()?;
    }
    let (stats, code) = w.finish()?;
    stop(time_setups(SETUPS_AFTER, &mut o.setup, start, stop)?)?;

    // replay every batch through the engine, as the CLI drives it
    let mut rel = o.tracer.span("ingest", || ingest(&warm_path))?;
    o.counters.ingest_bytes += warm_bytes;
    let loaded = o.tracer.span("rules", || {
        load_rules_file_with(rules, false, |l| parse_cfd_interning(&mut rel, l))
    })?;
    let cfds = loaded.into_iter().map(|(_, c)| c).collect();
    let (mut engine, warm_delta) = o
        .tracer
        .span("stream", || StreamEngine::warm(&rel, cfds, 1));
    // deltas are net changes of the live violation set, so its size is
    // a running sum; a traced run also times the `live_violations` call
    // the CLI makes for every BATCH line
    let mut violations = warm_delta.raised.len();
    for (i, e2e) in seen.iter().enumerate() {
        let ids: Vec<u32> = (i * b..(i + 1) * b).map(|id| id as u32).collect();
        let rows: Vec<Vec<&str>> = (i * b..(i + 1) * b)
            .map(|j| pool[j % pool.len()].split(',').collect())
            .collect();
        let got = o.tracer.op(i, |t| -> Res<_> {
            let del = t.span("stream", || engine.delete_batch(&ids))?;
            let (_, ins) = t.span("stream", || engine.insert_batch(&rows))?;
            let (raised, cleared) = (
                del.raised.len() + ins.raised.len(),
                del.cleared.len() + ins.cleared.len(),
            );
            violations = (violations + raised)
                .checked_sub(cleared)
                .ok_or("a batch cleared more violations than were live")?;
            if ctx.trace {
                violations = t.span("stream", || engine.live_violations().len());
            }
            Ok(BatchLine {
                raised,
                cleared,
                live: engine.n_live(),
                violations,
            })
        })?;
        o.counters.deltas += (got.raised + got.cleared) as u64;
        o.counters.updates += (ids.len() + rows.len()) as u64;
        if got != *e2e {
            o.calls[i].failure = Some(format!("BATCH {e2e:?} differs from the engine's {got:?}"));
        }
    }
    let violations = engine.live_violations().len();
    let expected = BatchLine {
        raised: 0,
        cleared: 0,
        live: engine.n_live(),
        violations,
    };
    let expected_code = if violations == 0 { 0 } else { 1 };
    o.calls.push(Call {
        kind: "eof",
        op: seen.len(),
        ms: 0.0,
        timed: false,
        failure: (stats.as_ref() != Some(&expected) || code != Some(expected_code)).then(|| {
            format!("final STATS {stats:?} (exit {code:?}) differs from the engine's {expected:?}")
        }),
    });
    Ok(o)
}
