//! `serve`: `cfd serve` with its default settings (2 workers, queue
//! depth 32) and three datasets registered by path, driven by two
//! closed-loop connections — one thread each, no think time — because
//! callers of a data-quality service are scripts that wait for each
//! reply. Each draw is 60 % `check` (a cover, on a 20k-row dataset with
//! 1 % cell noise), 20 % `discover` (CTANE, top 20, on a 1k-row
//! dataset), 10 % `remine` (a drifted `[AC] -> CT`, θ 0.95) and 10 %
//! `register` of a fresh inline CSV followed by its `unregister`; every
//! job is `"sync": true`.
//! `check` and `remine` jobs take 1–5 ms (`discover` about 40), so for
//! most requests parsing, queueing, serialization and the wire
//! dominate; this is the only workload where concurrent jobs share the
//! registry, a dataset's partition-store lock and the queue.
//!
//! The client sends each request in one write with `TCP_NODELAY` set, so
//! it measures the server, not a client's framing. An op is one request.

use super::{ingest, time_setups, Call, Counters, Ctx, Outcome, SETUPS_AFTER, SETUPS_BEFORE};
use crate::inputs::{self, SplitMix};
use crate::proc::{self, Proc};
use crate::speed::OneCpu;
use crate::trace::Tracer;
use crate::Res;
use cfd_suite::model::cfd::parse_cfd;
use cfd_suite::model::csv::relation_from_csv_str;
use cfd_suite::model::{Control, Json};
use cfd_suite::serve::jobs::{run_spec, JobOutcome, JobSpec};
use cfd_suite::serve::protocol::{ok_reply, Request};
use cfd_suite::serve::session::parse_rules_with;
use cfd_suite::serve::{Dataset, DatasetRegistry};
use cfd_suite::stream::RemineOptions;
use cfd_suite::validate::ValidateOptions;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `cfd serve`'s default `--registry-budget-mb`, for the replay's
/// registry.
const REGISTRY_BUDGET: usize = 1024 << 20;
/// A reply slower than this means the server is wedged.
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// Distinct inline CSVs the `register` draws cycle through.
const REGISTER_POOL: usize = 4;

fn line(doc: Json) -> Arc<str> {
    format!("{doc}\n").into()
}

struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> Res<Conn> {
        let w = TcpStream::connect(addr)?;
        w.set_nodelay(true)?;
        w.set_read_timeout(Some(IO_TIMEOUT))?;
        let r = BufReader::new(w.try_clone()?);
        Ok(Conn { w, r })
    }

    /// Sends one newline-terminated request in a single write and
    /// returns its reply line, skipping the job events streamed first.
    fn request(&mut self, line: &str) -> Res<String> {
        self.w.write_all(line.as_bytes())?;
        let mut reply = String::new();
        loop {
            reply.clear();
            if self.r.read_line(&mut reply)? == 0 {
                return Err("the server hung up".into());
            }
            if reply.starts_with("{\"ok\"") {
                reply.truncate(reply.trim_end().len());
                return Ok(reply);
            }
        }
    }

    fn request_ok(&mut self, line: &str) -> Res<String> {
        let reply = self.request(line)?;
        if !reply.starts_with("{\"ok\":true") {
            return Err(format!("request failed: {reply}").into());
        }
        Ok(reply)
    }
}

/// A running server, ready: its base datasets are registered.
struct Server {
    proc: Proc,
    _stdout: BufReader<ChildStdout>,
    addr: String,
    conn: Conn,
}

impl Server {
    fn start(cfd: &Path, base: &[(&str, PathBuf)]) -> Res<Server> {
        let mut proc = Proc::spawn(
            Command::new(cfd)
                .args(["serve", "--addr", "127.0.0.1:0"])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::null()),
        )?;
        let mut stdout = BufReader::new(proc.child.stdout.take().expect("stdout is piped"));
        let mut first = String::new();
        stdout.read_line(&mut first)?;
        let addr = first
            .trim()
            .strip_prefix("SERVE ")
            .ok_or_else(|| format!("unexpected first line from cfd serve: {first:?}"))?
            .to_string();
        let mut conn = Conn::connect(&addr)?;
        for (name, path) in base {
            conn.request_ok(&line(Json::obj([
                ("op", Json::from("register")),
                ("name", Json::from(*name)),
                ("path", Json::from(super::path_str(path)?)),
            ])))?;
        }
        Ok(Server {
            proc,
            _stdout: stdout,
            addr,
            conn,
        })
    }

    fn stop(mut self) -> Res<()> {
        self.conn
            .request_ok(&line(Json::obj([("op", Json::from("shutdown"))])))?;
        drop(self.conn);
        match self.proc.wait()?.code {
            Some(0) => Ok(()),
            code => Err(format!("cfd serve exited with {code:?} after shutdown").into()),
        }
    }
}

/// The request lines a draw can send.
struct Lines {
    check: Arc<str>,
    discover: Arc<str>,
    remine: Arc<str>,
    register_csv: Vec<String>,
}

struct Sent {
    kind: &'static str,
    line: Arc<str>,
    reply: String,
    at: Instant,
    ms: f64,
}

/// What both load threads share.
struct Load<'a> {
    lines: &'a Lines,
    seed: u64,
    deadline: Instant,
    /// The server's pid, the requests answered so far, and its peak RSS
    /// read when that count reached `rss_after` (0 until then).
    pid: u32,
    rss_after: usize,
    answered: AtomicUsize,
    rss_kb: AtomicU64,
}

/// Ten draws of the mix: 60 % check, 20 % discover, 10 % remine and
/// 10 % register. Each connection deals the deck, shuffled, ten draws at
/// a time, so every stretch of requests holds the mix exactly and a
/// reading taken at a fixed request count (peak RSS) sees the same work
/// on every seed.
const DECK: [&str; 10] = [
    "check", "check", "check", "check", "check", "check", "discover", "discover", "remine",
    "register",
];

/// One connection's closed loop until the load's deadline.
fn drive(conn: &mut Conn, c: usize, load: &Load) -> Result<Vec<Sent>, String> {
    let lines = load.lines;
    let mut rng = SplitMix::new(inputs::derive(load.seed, 100 + c as u64));
    let mut deck = DECK;
    let mut sent = Vec::new();
    let mut draw = 0;
    while Instant::now() < load.deadline {
        if draw % DECK.len() == 0 {
            for i in (1..deck.len()).rev() {
                deck.swap(i, (rng.unit() * (i + 1) as f64) as usize);
            }
        }
        let reqs: Vec<(&'static str, Arc<str>)> = match deck[draw % DECK.len()] {
            "check" => vec![("check", lines.check.clone())],
            "discover" => vec![("discover", lines.discover.clone())],
            "remine" => vec![("remine", lines.remine.clone())],
            _ => {
                let name = format!("tmp-{c}-{draw}");
                let csv = &lines.register_csv[draw % lines.register_csv.len()];
                vec![
                    (
                        "register",
                        line(Json::obj([
                            ("op", Json::from("register")),
                            ("name", Json::from(name.as_str())),
                            ("csv", Json::from(csv.as_str())),
                        ])),
                    ),
                    (
                        "unregister",
                        line(Json::obj([
                            ("op", Json::from("unregister")),
                            ("name", Json::from(name)),
                        ])),
                    ),
                ]
            }
        };
        for (kind, line) in reqs {
            let at = Instant::now();
            let reply = conn.request(&line).map_err(|e| e.to_string())?;
            let ms = at.elapsed().as_secs_f64() * 1e3;
            if load.answered.fetch_add(1, Ordering::Relaxed) + 1 == load.rss_after {
                let kb = proc::peak_rss_kb(load.pid)?;
                load.rss_kb.store(kb, Ordering::Relaxed);
            }
            sent.push(Sent {
                kind,
                line,
                reply,
                at,
                ms,
            });
        }
        draw += 1;
    }
    Ok(sent)
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let s = ctx.scale;
    let mut o = Outcome::new();
    let small = ctx.path("small.csv");
    inputs::write_generated(&small, &inputs::tax(s.serve_small_rows, ctx.seed))?;
    let main_rel = inputs::tax(s.serve_rows, ctx.seed).generate();
    let rules = inputs::cover(&main_rel)?;
    let main = ctx.path("main.csv");
    inputs::write_relation(&main, &inputs::dirty(&main_rel, ctx.seed))?;
    drop(main_rel);
    let (drift_rel, fd) = inputs::drift(s.drift_rows, s.drift_warm, ctx.seed)?;
    let drift = ctx.path("drift.csv");
    inputs::write_relation(&drift, &drift_rel)?;
    let base = [("small", small), ("main", main), ("drift", drift)];
    let lines = Lines {
        check: line(Json::obj([
            ("op", Json::from("check")),
            ("dataset", Json::from("main")),
            (
                "rules",
                Json::arr(rules.iter().map(|r| Json::from(r.as_str()))),
            ),
            ("sync", Json::from(true)),
        ])),
        discover: line(Json::obj([
            ("op", Json::from("discover")),
            ("dataset", Json::from("small")),
            ("algo", Json::from("ctane")),
            ("k", Json::from(s.discover_k)),
            ("top_k", Json::from(s.discover_top_k)),
            ("sync", Json::from(true)),
        ])),
        remine: line(Json::obj([
            ("op", Json::from("remine")),
            ("dataset", Json::from("drift")),
            ("rules", Json::arr([Json::from(fd)])),
            ("theta", Json::from(0.95)),
            ("sync", Json::from(true)),
        ])),
        register_csv: (0..REGISTER_POOL as u64)
            .map(|i| {
                let gen = inputs::tax(s.register_rows, inputs::derive(ctx.seed, 200 + i));
                inputs::csv_string(&gen.generate())
            })
            .collect::<Res<_>>()?,
    };

    // Set-up: spawn until ready with the base datasets registered, one
    // request after another. The set-ups are timed on instances of their
    // own, pinned to one core like the single-threaded workloads. The
    // server under load runs unpinned, its connections and two workers
    // on both cores, so no one core's speed describes it: its requests
    // take no speed samples and stand as measured. A request waits
    // mostly on the delayed-ACK timer (see the README's first finding),
    // which no core's speed moves.
    let start = || Server::start(ctx.cfd, &base);
    let pin = OneCpu::pin()?;
    time_setups(SETUPS_BEFORE, &mut o.setup, start, Server::stop)?.stop()?;
    drop(pin);
    let mut server = start()?;

    let warm_until = Instant::now() + Duration::from_secs_f64(s.warmup_s);
    let load = Load {
        lines: &lines,
        seed: ctx.seed,
        deadline: warm_until + ctx.window(),
        pid: server.proc.child.id(),
        rss_after: s.serve_rss_after,
        answered: AtomicUsize::new(0),
        rss_kb: AtomicU64::new(0),
    };
    let (log0, log1) = std::thread::scope(|scope| {
        let other = scope.spawn(|| {
            let mut conn = Conn::connect(&server.addr).map_err(|e| e.to_string())?;
            drive(&mut conn, 1, &load)
        });
        let mine = drive(&mut server.conn, 0, &load);
        let theirs = other
            .join()
            .unwrap_or_else(|_| Err("load thread panicked".into()));
        (mine, theirs)
    });
    let mut sent = log0?;
    sent.extend(log1?);
    sent.sort_by_key(|s| s.at);

    let mut window_end = warm_until;
    for (i, s) in sent.iter().enumerate() {
        let timed = s.at >= warm_until;
        if timed {
            o.window.push(s.ms);
            o.op_bytes.push(s.reply.len() as f64);
            window_end = window_end.max(s.at + Duration::from_secs_f64(s.ms / 1e3));
        }
        o.calls.push(Call {
            kind: s.kind,
            op: i,
            ms: s.ms,
            timed,
            failure: None,
        });
    }
    o.elapsed_s = (window_end - warm_until).as_secs_f64();

    let stats = server
        .conn
        .request(&line(Json::obj([("op", Json::from("stats"))])))?;
    o.calls.push(Call {
        kind: "stats",
        op: sent.len(),
        ms: 0.0,
        timed: false,
        failure: stats_failure(&stats),
    });
    o.rss_kb = match load.rss_kb.into_inner() {
        0 => server.proc.peak_rss_kb()?,
        kb => kb,
    };
    server.stop()?;
    // the rest runs on one core: the set-ups after the window, and the
    // replay, which samples that core's speed
    let _pin = OneCpu::pin()?;
    time_setups(SETUPS_AFTER, &mut o.setup, start, Server::stop)?.stop()?;

    // replay the requests in send order against an in-process registry
    // warmed the same way, keeping each distinct line's documents
    let registry = DatasetRegistry::new(REGISTRY_BUDGET);
    for (name, path) in &base {
        let rel = o.tracer.span("ingest", || ingest(path))?;
        o.counters.ingest_bytes += std::fs::metadata(path)?.len();
        o.tracer
            .span("registry", || registry.insert(Dataset::new(*name, rel)))?;
    }
    // an untraced run needs each distinct line's documents only: one
    // replay, two for discover (the shared store cold, then warm)
    let mut expected: HashMap<Arc<str>, Vec<String>> = HashMap::new();
    for (i, s) in sent.iter().enumerate() {
        let needed = if s.kind == "discover" { 2 } else { 1 };
        if !ctx.trace && expected.get(&s.line).is_some_and(|d| d.len() >= needed) {
            continue;
        }
        let counters = &mut o.counters;
        let reply = o
            .tracer
            .op(i, |t| replay(t, &registry, &s.line, counters))?;
        expected
            .entry(s.line.clone())
            .or_default()
            .push(normalize(&reply)?);
    }
    for (s, call) in sent.iter().zip(&mut o.calls) {
        call.failure = check_reply(s, &expected[&s.line], ctx.scale.register_rows);
    }
    Ok(o)
}

/// The failure, if any, of one e2e reply: it must equal a document the
/// replay produced for the same request line (concurrent CTANE jobs may
/// see the shared partition store cold or warm), and carry the
/// properties its op promises.
fn check_reply(s: &Sent, expected: &[String], register_rows: usize) -> Option<String> {
    let (kind, reply) = (s.kind, s.reply.as_str());
    let doc = match Json::parse(reply) {
        Ok(d) => d,
        Err(e) => return Some(format!("{kind}: unparseable reply: {e}")),
    };
    let result = doc.get("result");
    let promise = match kind {
        "remine" => {
            result
                .and_then(|r| r.get("triggered"))
                .and_then(Json::as_bool)
                == Some(true)
        }
        "register" => doc.get("rows").and_then(Json::as_f64) == Some(register_rows as f64),
        _ => true,
    };
    if !promise {
        return Some(format!("{kind}: reply lacks its promised result: {reply}"));
    }
    match normalize(reply) {
        Ok(n) if expected.contains(&n) => None,
        Ok(_) => Some(format!(
            "{kind}: reply differs from the replayed run_spec document (line {:?}…)",
            s.line.chars().take(60).collect::<String>()
        )),
        Err(e) => Some(format!("{kind}: {e}")),
    }
}

/// A reply with the fields that legitimately vary removed: the job id
/// and the discovery's wall-clock `timings`.
fn normalize(reply: &str) -> Res<String> {
    let mut doc = Json::parse(reply)?;
    if let Json::Obj(fields) = &mut doc {
        fields.retain(|(k, _)| k != "job");
        for (k, v) in fields.iter_mut() {
            if let (true, Json::Obj(result)) = (k == "result", v) {
                result.retain(|(k, _)| k != "timings");
            }
        }
    }
    Ok(doc.to_string())
}

fn stats_failure(reply: &str) -> Option<String> {
    let doc = match Json::parse(reply) {
        Ok(d) => d,
        Err(e) => return Some(format!("stats: unparseable reply: {e}")),
    };
    let counters = doc.get("metrics").and_then(|m| m.get("counters"));
    let count = |name: &str| {
        counters
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let (errors, panics) = (count("serve.errors"), count("serve.panics"));
    (errors > 0.0 || panics > 0.0)
        .then(|| format!("stats: serve.errors = {errors}, serve.panics = {panics}"))
}

/// Replays one request line the way the server handles it: parse,
/// resolve the dataset and rules, run the job, serialize the reply.
fn replay(t: &mut Tracer, reg: &DatasetRegistry, line: &str, c: &mut Counters) -> Res<String> {
    let req = t
        .span("protocol", || Request::parse(line.trim_end()))
        .map_err(|(_, e)| e)?;
    let (op, fields): (&str, Vec<(&str, Json)>) = match req {
        Request::Check {
            dataset,
            rules,
            limit,
            threads,
            ..
        } => {
            let ds = reg.get(&dataset)?;
            let rules = t.span("rules", || {
                parse_rules_with("rules", &rules.join("\n"), false, |l| parse_cfd(&ds.rel, l))
            })?;
            let opts = ValidateOptions {
                threads: threads.max(1),
                limit,
            };
            let doc = job(t, JobSpec::Check { ds, rules, opts })?;
            ("check", vec![("job", Json::from(0usize)), ("result", doc)])
        }
        Request::Discover(d) => {
            let ds = reg.get(&d.dataset)?;
            let spec = JobSpec::Discover {
                ds,
                algo: d.algo,
                opts: d.opts,
                cache_budget: d.cache_budget,
            };
            let doc = job(t, spec)?;
            let stat = |path: &[&str]| {
                path.iter()
                    .try_fold(&doc, |v, k| v.get(k))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            c.candidates.push(stat(&["stats", "candidates"]));
            c.store_hits += stat(&["stats", "store", "hits"]) as u64;
            c.store_misses += stat(&["stats", "store", "misses"]) as u64;
            (
                "discover",
                vec![("job", Json::from(0usize)), ("result", doc)],
            )
        }
        Request::Remine {
            dataset,
            rules,
            theta,
            expand,
            k,
            threads,
            ..
        } => {
            let ds = reg.get(&dataset)?;
            let rules = t.span("rules", || {
                parse_rules_with("rules", &rules.join("\n"), false, |l| parse_cfd(&ds.rel, l))
            })?;
            let opts = RemineOptions {
                theta,
                expand,
                k,
                max_lhs: None,
                threads: threads.max(1),
            };
            let doc = job(t, JobSpec::Remine { ds, rules, opts })?;
            ("remine", vec![("job", Json::from(0usize)), ("result", doc)])
        }
        Request::Register {
            name,
            csv: Some(csv),
            ..
        } => {
            let rel = t.span("ingest", || relation_from_csv_str(&csv))?;
            c.ingest_bytes += csv.len() as u64;
            let (ds, _) = t.span("registry", || reg.insert(Dataset::new(name, rel)))?;
            let fields = vec![
                ("name", Json::from(ds.name.as_str())),
                ("rows", Json::from(ds.rel.n_rows())),
                ("arity", Json::from(ds.rel.arity())),
                ("bytes", Json::from(ds.bytes)),
            ];
            ("register", fields)
        }
        Request::Unregister { name } => {
            let ds = t.span("registry", || reg.remove(&name))?;
            let fields = vec![
                ("name", Json::from(ds.name.as_str())),
                ("bytes", Json::from(ds.bytes)),
            ];
            ("unregister", fields)
        }
        other => return Err(format!("the load generator never sends {other:?}").into()),
    };
    Ok(t.span("serialize", || ok_reply(op, fields).to_string()))
}

fn job(t: &mut Tracer, spec: JobSpec) -> Res<Json> {
    match t.span("jobs", || run_spec(&spec, &Control::default())) {
        JobOutcome::Done(doc) => Ok(doc),
        JobOutcome::Failed(e) => Err(e.into()),
        JobOutcome::Cancelled => Err("an uncancellable job reported cancellation".into()),
    }
}
