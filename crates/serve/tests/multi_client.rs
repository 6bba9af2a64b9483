//! End-to-end tests of the resident server over real TCP: one
//! registration shared by several concurrent clients, results
//! byte-identical to one-shot library runs, cancellation of queued
//! *and* running jobs, and structured (non-fatal) protocol errors.

use cfd_core::api::{Algo, DiscoverOptions, Discoverer};
use cfd_core::FastCfd;
use cfd_datagen::TaxGenerator;
use cfd_model::cfd::parse_cfd;
use cfd_model::csv::relation_from_csv_str;
use cfd_model::{ingest_csv_path, Cfd, Control, IngestOptions, Json};
use cfd_serve::client::{Client, ClientRead};
use cfd_serve::session::attach_rule_texts;
use cfd_serve::{ServeOptions, Server};
use cfd_validate::{validate_with, ValidateOptions};
use std::collections::VecDeque;
use std::io::Write;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

/// The cust relation of the paper's Fig. 1, as CSV.
const CUST_CSV: &str = "\
CC,AC,PN,NM,STR,CT,ZIP
01,908,1111111,Mike,Tree Ave.,MH,07974
01,908,1111111,Rick,Tree Ave.,MH,07974
01,212,2222222,Joe,5th Ave,NYC,01202
01,908,2222222,Jim,Elm Str.,MH,07974
44,131,3333333,Ben,High St.,EDI,EH4 1DT
44,131,4444444,Ian,High St.,EDI,EH4 1DT
44,908,4444444,Ian,Port PI,MH,W1B 1JH
01,212,5555555,Sean,3rd Str.,NYC,01202
";

fn spawn_server(opts: ServeOptions) -> (SocketAddr, thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(&opts).expect("bind");
    let addr = server.local_addr();
    (addr, thread::spawn(move || server.run()))
}

/// Writes a deterministic tax instance to a temp CSV and returns the
/// path (the server ingests it by path, exactly like `cfd discover`).
fn tax_csv(rows: usize, arity: usize, seed: u64, tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "cfd_serve_{tag}_{}_{rows}x{arity}.csv",
        std::process::id()
    ));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("temp csv"));
    TaxGenerator::new(rows)
        .arity(arity)
        .seed(seed)
        .write_csv(&mut f)
        .expect("write tax csv");
    f.flush().expect("flush tax csv");
    path
}

/// A protocol connection plus the job events that arrived while a
/// reply was awaited, kept apart for [`Conn::event`].
struct Conn {
    client: Client,
    stash: VecDeque<Json>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Conn {
        // generous, but bounded: a hung server fails the test instead
        // of wedging the suite
        let client = Client::connect(addr, Some(Duration::from_secs(180))).expect("connect");
        Conn {
            client,
            stash: VecDeque::new(),
        }
    }

    fn send<T: std::fmt::Display + ?Sized>(&mut self, request: &T) {
        self.client.send(request).expect("send");
    }

    fn recv(&mut self) -> Json {
        match self.client.read().expect("read reply") {
            ClientRead::Line(line) => Json::parse(&line).expect("server sent invalid JSON"),
            other => panic!("server closed the connection unexpectedly: {other:?}"),
        }
    }

    /// Next reply (a line with an `"ok"` field); event lines arriving
    /// first are stashed for [`Conn::event`].
    fn reply(&mut self) -> Json {
        loop {
            let doc = self.recv();
            if doc.get("ok").is_some() {
                return doc;
            }
            self.stash.push_back(doc);
        }
    }

    /// Next `kind` event for `job`, looking at stashed lines first.
    fn event(&mut self, kind: &str, job: u64) -> Json {
        let matches = |d: &Json| {
            d.get("event").and_then(Json::as_str) == Some(kind)
                && d.get("job").and_then(Json::as_f64) == Some(job as f64)
        };
        if let Some(i) = self.stash.iter().position(matches) {
            return self.stash.remove(i).expect("stash index");
        }
        loop {
            let doc = self.recv();
            if matches(&doc) {
                return doc;
            }
            self.stash.push_back(doc);
        }
    }
}

fn assert_ok(doc: &Json) {
    assert_eq!(
        doc.get("ok").and_then(Json::as_bool),
        Some(true),
        "expected ok reply, got {doc}"
    );
}

fn error_code(doc: &Json) -> &str {
    assert_eq!(
        doc.get("ok").and_then(Json::as_bool),
        Some(false),
        "expected error reply, got {doc}"
    );
    doc.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("error reply without code: {doc}"))
}

fn job_id(doc: &Json) -> u64 {
    doc.get("job")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("reply without job id: {doc}")) as u64
}

/// `"rules"` and `"counts"` of a discovery document, serialized — the
/// deterministic subset (`"timings"` is wall-clock and excluded).
fn rules_and_counts(doc: &Json) -> (String, String) {
    (
        doc.get("rules").expect("rules").to_string(),
        doc.get("counts").expect("counts").to_string(),
    )
}

/// Issues `shutdown` and asserts the drain report: `jobs_drained`
/// counts the jobs that were *running* at close (drained to
/// completion), `jobs_flushed` the queued ones deterministically
/// cancelled. Returns the pair for tests that assert exact counts.
fn shutdown(wire: &mut Conn, handle: thread::JoinHandle<std::io::Result<()>>) -> (u64, u64) {
    wire.send(&Json::obj([("op", Json::from("shutdown"))]));
    let rep = wire.reply();
    assert_ok(&rep);
    let drained = rep
        .get("jobs_drained")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("shutdown reply without numeric jobs_drained: {rep}"))
        as u64;
    let flushed = rep
        .get("jobs_flushed")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("shutdown reply without numeric jobs_flushed: {rep}"))
        as u64;
    handle.join().expect("server thread").expect("server run");
    (drained, flushed)
}

/// The tentpole scenario: register two datasets once, then serve three
/// concurrent clients — an exact discover, a θ/top-k discover, and a
/// check — each byte-identical to the corresponding one-shot library
/// run on the same input.
#[test]
fn three_concurrent_clients_match_one_shot_results() {
    let (addr, handle) = spawn_server(ServeOptions {
        workers: 3,
        ..ServeOptions::default()
    });
    let tax_path = tax_csv(800, 7, 42, "shared");

    let mut main = Conn::connect(addr);
    main.send(&Json::obj([
        ("op", Json::from("register")),
        ("name", Json::from("cust")),
        ("csv", Json::from(CUST_CSV)),
    ]));
    let rep = main.reply();
    assert_ok(&rep);
    assert_eq!(rep.get("rows").and_then(Json::as_f64), Some(8.0));
    main.send(&Json::obj([
        ("op", Json::from("register")),
        ("name", Json::from("tax")),
        ("path", Json::from(tax_path.to_str().expect("utf8 path"))),
    ]));
    let rep = main.reply();
    assert_ok(&rep);
    assert_eq!(rep.get("rows").and_then(Json::as_f64), Some(800.0));

    // one-shot expectations on identically-ingested local relations
    let cust = relation_from_csv_str(CUST_CSV).expect("cust");
    let tax = ingest_csv_path(&tax_path, &IngestOptions::default(), &Control::default())
        .expect("tax ingest");
    let exact = Algo::FastCfd
        .discover_with(&cust, &DiscoverOptions::new(2), &Control::default())
        .expect("fastcfd")
        .to_json(&cust);
    let mut approx_opts = DiscoverOptions::new(2);
    approx_opts.min_confidence = 0.9;
    approx_opts.top_k = Some(15);
    let approx = Algo::Ctane
        .discover_with(&tax, &approx_opts, &Control::default())
        .expect("ctane")
        .to_json(&tax);
    let rules: Vec<(String, Cfd)> = FastCfd::default()
        .discover(&cust, &DiscoverOptions::new(2))
        .to_text(&cust)
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| (l.to_string(), parse_cfd(&cust, l).expect("round-trip rule")))
        .collect();
    assert!(rules.len() >= 5, "cust cover unexpectedly small");
    let opts = ValidateOptions {
        threads: 1,
        limit: 20,
    };
    let mut expected_report = validate_with(
        &cust,
        rules.iter().map(|(_, c)| c),
        &opts,
        &Control::default(),
    )
    .to_json();
    attach_rule_texts(&mut expected_report, &rules);

    thread::scope(|s| {
        s.spawn(|| {
            let mut w = Conn::connect(addr);
            w.send(&Json::obj([
                ("op", Json::from("discover")),
                ("dataset", Json::from("cust")),
                ("sync", Json::from(true)),
            ]));
            let rep = w.reply();
            assert_ok(&rep);
            let got = rep.get("result").expect("result");
            assert_eq!(rules_and_counts(got), rules_and_counts(&exact));
        });
        s.spawn(|| {
            let mut w = Conn::connect(addr);
            w.send(&Json::obj([
                ("op", Json::from("discover")),
                ("dataset", Json::from("tax")),
                ("algo", Json::from("ctane")),
                ("min_confidence", Json::from(0.9)),
                ("top_k", Json::from(15usize)),
                ("sync", Json::from(true)),
            ]));
            let rep = w.reply();
            assert_ok(&rep);
            let id = job_id(&rep);
            let got = rep.get("result").expect("result");
            assert_eq!(rules_and_counts(got), rules_and_counts(&approx));
            // sync jobs still stream progress to their own connection
            w.event("started", id);
        });
        s.spawn(|| {
            let mut w = Conn::connect(addr);
            w.send(&Json::obj([
                ("op", Json::from("check")),
                ("dataset", Json::from("cust")),
                (
                    "rules",
                    Json::arr(rules.iter().map(|(t, _)| Json::from(t.as_str()))),
                ),
                ("limit", Json::from(20usize)),
                ("threads", Json::from(1usize)),
                ("sync", Json::from(true)),
            ]));
            let rep = w.reply();
            assert_ok(&rep);
            // the report has no wall-clock fields: full byte identity
            assert_eq!(
                rep.get("result").expect("result").to_string(),
                expected_report.to_string()
            );
        });
    });

    // all three jobs ran against the single shared registration
    main.send(&Json::obj([("op", Json::from("jobs"))]));
    let rep = main.reply();
    assert_ok(&rep);
    let jobs = rep.get("jobs").and_then(Json::as_array).expect("jobs");
    assert_eq!(jobs.len(), 3);
    assert!(jobs
        .iter()
        .all(|j| j.get("state").and_then(Json::as_str) == Some("done")));
    // a sync job's result went out in its reply; its row keeps the state
    main.send(&Json::obj([
        ("op", Json::from("status")),
        ("job", Json::from(job_id(&jobs[0]))),
    ]));
    let rep = main.reply();
    assert_ok(&rep);
    assert_eq!(rep.get("state").and_then(Json::as_str), Some("done"));
    assert!(rep.get("result").is_none(), "sync result kept: {rep}");

    main.send(&Json::obj([("op", Json::from("stats"))]));
    let rep = main.reply();
    assert_ok(&rep);
    let server = rep.get("server").expect("server gauges");
    assert_eq!(server.get("datasets").and_then(Json::as_f64), Some(2.0));
    let counters = rep
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .expect("metric counters");
    assert_eq!(
        counters.get("serve.jobs_completed").and_then(Json::as_f64),
        Some(3.0)
    );

    shutdown(&mut main, handle);
    let _ = std::fs::remove_file(&tax_path);
}

/// Cancellation and queue admission on a deliberately tiny server:
/// one worker, queue depth one. The running job stops at its next
/// control checkpoint, the queued job is removed immediately, and a
/// third submission bounces with `queue_full`.
#[test]
fn cancel_stops_running_and_queued_jobs_and_queue_is_bounded() {
    let (addr, handle) = spawn_server(ServeOptions {
        workers: 1,
        queue_depth: 1,
        ..ServeOptions::default()
    });
    let tax_path = tax_csv(20_000, 8, 7, "cancel");

    let mut w = Conn::connect(addr);
    w.send(&Json::obj([
        ("op", Json::from("register")),
        ("name", Json::from("big")),
        ("path", Json::from(tax_path.to_str().expect("utf8 path"))),
    ]));
    assert_ok(&w.reply());

    let discover = || {
        Json::obj([
            ("op", Json::from("discover")),
            ("dataset", Json::from("big")),
            ("algo", Json::from("ctane")),
            ("max_lhs", Json::from(3usize)),
        ])
    };
    // j1 occupies the single worker…
    w.send(&discover());
    let rep = w.reply();
    assert_ok(&rep);
    let j1 = job_id(&rep);
    assert_eq!(rep.get("state").and_then(Json::as_str), Some("queued"));
    w.event("started", j1);
    // …j2 occupies the single queue slot…
    w.send(&discover());
    let rep = w.reply();
    assert_ok(&rep);
    let j2 = job_id(&rep);
    // …and j3 is rejected by admission control, not buffered
    w.send(&discover());
    assert_eq!(error_code(&w.reply()), "queue_full");

    // cancelling the queued job removes it without running it
    w.send(&Json::obj([
        ("op", Json::from("cancel")),
        ("job", Json::from(j2)),
    ]));
    let rep = w.reply();
    assert_ok(&rep);
    assert_eq!(rep.get("state").and_then(Json::as_str), Some("cancelled"));
    w.event("cancelled", j2);

    // cancelling the running job stops it mid-discovery (well before
    // a full CTANE run over 20k rows could finish)
    w.send(&Json::obj([
        ("op", Json::from("cancel")),
        ("job", Json::from(j1)),
    ]));
    assert_ok(&w.reply());
    w.event("cancelled", j1);
    w.send(&Json::obj([
        ("op", Json::from("status")),
        ("job", Json::from(j1)),
    ]));
    let rep = w.reply();
    assert_ok(&rep);
    assert_eq!(rep.get("state").and_then(Json::as_str), Some("cancelled"));

    // the freed worker still serves new jobs after both cancellations
    w.send(&Json::obj([
        ("op", Json::from("register")),
        ("name", Json::from("cust")),
        ("csv", Json::from(CUST_CSV)),
    ]));
    assert_ok(&w.reply());
    w.send(&Json::obj([
        ("op", Json::from("discover")),
        ("dataset", Json::from("cust")),
        ("algo", Json::from("cfdminer")),
        ("sync", Json::from(true)),
    ]));
    let rep = w.reply();
    assert_ok(&rep);
    assert!(rep.get("result").is_some());

    shutdown(&mut w, handle);
    let _ = std::fs::remove_file(&tax_path);
}

/// Malformed, oversized, and semantically invalid lines each get a
/// structured error — and the connection keeps working afterwards.
#[test]
fn protocol_errors_are_structured_and_nonfatal() {
    let (addr, handle) = spawn_server(ServeOptions {
        max_line: 300,
        ..ServeOptions::default()
    });
    let mut w = Conn::connect(addr);

    w.send("this is not json");
    assert_eq!(error_code(&w.reply()), "bad_json");
    w.send("[1,2,3]");
    assert_eq!(error_code(&w.reply()), "bad_request");
    w.send("{\"op\":\"frobnicate\"}");
    let rep = w.reply();
    assert_eq!(error_code(&rep), "unknown_op");
    assert_eq!(rep.get("op").and_then(Json::as_str), Some("frobnicate"));

    // an oversized line is discarded without killing the connection
    w.send(&"x".repeat(400));
    assert_eq!(error_code(&w.reply()), "line_too_long");

    w.send(&Json::obj([
        ("op", Json::from("discover")),
        ("dataset", Json::from("nope")),
    ]));
    assert_eq!(error_code(&w.reply()), "unknown_dataset");

    w.send(&Json::obj([
        ("op", Json::from("register")),
        ("name", Json::from("t")),
        ("csv", Json::from("A,B\nx,1\ny,2\n")),
    ]));
    assert_ok(&w.reply());
    w.send(&Json::obj([
        ("op", Json::from("register")),
        ("name", Json::from("t")),
        ("csv", Json::from("A,B\nx,1\n")),
    ]));
    assert_eq!(error_code(&w.reply()), "dataset_exists");

    w.send(&Json::obj([
        ("op", Json::from("check")),
        ("dataset", Json::from("t")),
        ("rules", Json::arr([Json::from("garbage -> more garbage")])),
        ("sync", Json::from(true)),
    ]));
    assert_eq!(error_code(&w.reply()), "bad_rules");

    w.send(&Json::obj([
        ("op", Json::from("status")),
        ("job", Json::from(99usize)),
    ]));
    assert_eq!(error_code(&w.reply()), "unknown_job");

    // after all of the above, the same connection still works
    w.send(&Json::obj([("op", Json::from("ping"))]));
    assert_ok(&w.reply());

    shutdown(&mut w, handle);
}

/// A sync job answers in CPU time, not on a kernel timer. Its reply
/// follows its `started` event; were the server to leave Nagle on, the
/// reply would wait for the client's delayed ACK of that event, and
/// Linux's delayed-ACK timer is at least 40 ms.
#[test]
fn sync_round_trips_are_not_held_back_by_delayed_acks() {
    let (addr, handle) = spawn_server(ServeOptions::default());
    let mut w = Conn::connect(addr);
    w.send(&Json::obj([
        ("op", Json::from("register")),
        ("name", Json::from("tiny")),
        ("csv", Json::from("A,B\na1,b1\na1,b1\na2,b2\n")),
    ]));
    assert_ok(&w.reply());

    let check = Json::obj([
        ("op", Json::from("check")),
        ("dataset", Json::from("tiny")),
        ("rules", Json::arr([Json::from("(A -> B, (_ || _))")])),
        ("sync", Json::from(true)),
    ]);
    let mut round_trips: Vec<Duration> = (0..20)
        .map(|_| {
            let start = Instant::now();
            w.send(&check);
            assert_ok(&w.reply());
            start.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median sync round trip {median:?} (all: {round_trips:?})"
    );

    shutdown(&mut w, handle);
}

/// The `remine` verb end to end: a drifted cover is healed (retired +
/// replaced, post-state kernel-validated at θ), a clean cover answers
/// `triggered: false`, and bad requests get structured errors.
#[test]
fn remine_job_heals_a_drifted_cover() {
    // [A] -> B holds on the first four rows and is violated by the
    // last four: live confidence 0.5, well under θ = 0.95
    const DRIFT_CSV: &str = "\
A,B,C
a1,b1,c1
a1,b1,c1
a2,b2,c1
a2,b2,c1
a1,b9,c2
a1,b9,c2
a2,b8,c2
a2,b8,c2
";
    let (addr, handle) = spawn_server(ServeOptions::default());
    let mut w = Conn::connect(addr);
    w.send(&Json::obj([
        ("op", Json::from("register")),
        ("name", Json::from("drift")),
        ("csv", Json::from(DRIFT_CSV)),
    ]));
    assert_ok(&w.reply());

    w.send(&Json::obj([
        ("op", Json::from("remine")),
        ("dataset", Json::from("drift")),
        ("rules", Json::arr([Json::from("(A -> B, (_ || _))")])),
        ("theta", Json::from(0.95)),
        ("expand", Json::from(1usize)),
        ("sync", Json::from(true)),
    ]));
    let rep = w.reply();
    assert_ok(&rep);
    let result = rep.get("result").expect("result");
    assert_eq!(result.get("triggered").and_then(Json::as_bool), Some(true));
    let retired = result
        .get("retired")
        .and_then(Json::as_array)
        .expect("retired");
    assert_eq!(retired.len(), 1);
    assert_eq!(
        retired[0].get("confidence").and_then(Json::as_f64),
        Some(0.5)
    );
    let added = result.get("added").and_then(Json::as_array).expect("added");
    assert!(!added.is_empty(), "nothing replaced the drifted rule");
    assert!(
        added.iter().any(|r| r
            .get("text")
            .and_then(Json::as_str)
            .is_some_and(|t| t.contains("[A, C] -> B"))),
        "expected the C-qualified replacement in {result}"
    );
    let min_conf = result
        .get("min_confidence")
        .and_then(Json::as_f64)
        .expect("min_confidence");
    assert!(min_conf >= 0.95, "post-state under θ: {min_conf}");

    // a cover that holds at θ does not trigger
    w.send(&Json::obj([
        ("op", Json::from("remine")),
        ("dataset", Json::from("drift")),
        (
            "rules",
            Json::arr([Json::from("([A, C] -> B, (_, _ || _))")]),
        ),
        ("sync", Json::from(true)),
    ]));
    let rep = w.reply();
    assert_ok(&rep);
    assert_eq!(
        rep.get("result")
            .and_then(|r| r.get("triggered"))
            .and_then(Json::as_bool),
        Some(false)
    );

    // structured errors: unknown dataset, unparseable rule, bad theta,
    // and k = 0 on a conditional cover (the CTANE branch)
    w.send(&Json::obj([
        ("op", Json::from("remine")),
        ("dataset", Json::from("nope")),
        ("rules", Json::arr([Json::from("(A -> B, (_ || _))")])),
    ]));
    assert_eq!(error_code(&w.reply()), "unknown_dataset");
    w.send(&Json::obj([
        ("op", Json::from("remine")),
        ("dataset", Json::from("drift")),
        ("rules", Json::arr([Json::from("garbage")])),
    ]));
    assert_eq!(error_code(&w.reply()), "bad_rules");
    w.send(&Json::obj([
        ("op", Json::from("remine")),
        ("dataset", Json::from("drift")),
        ("rules", Json::arr([Json::from("(A -> B, (_ || _))")])),
        ("theta", Json::from(2.0)),
    ]));
    assert_eq!(error_code(&w.reply()), "bad_request");
    w.send(&Json::obj([
        ("op", Json::from("remine")),
        ("dataset", Json::from("drift")),
        ("rules", Json::arr([Json::from("([A] -> B, (a1 || _))")])),
        ("k", Json::from(0usize)),
        ("sync", Json::from(true)),
    ]));
    assert_eq!(error_code(&w.reply()), "bad_request");

    shutdown(&mut w, handle);
}

/// Shutdown under load is a *deterministic drain*: the job running at
/// close completes (its result is never thrown away), queued jobs are
/// flushed as cancelled (never silently lost, never started), and the
/// reply reports both counts exactly.
#[test]
fn shutdown_under_load_drains_running_and_flushes_queued() {
    let (addr, handle) = spawn_server(ServeOptions {
        workers: 1,
        queue_depth: 4,
        ..ServeOptions::default()
    });
    let tax_path = tax_csv(600, 7, 13, "drain");
    let mut w = Conn::connect(addr);
    w.send(&Json::obj([
        ("op", Json::from("register")),
        ("name", Json::from("tax")),
        ("path", Json::from(tax_path.to_str().expect("utf8 path"))),
    ]));
    assert_ok(&w.reply());
    let discover = || {
        Json::obj([
            ("op", Json::from("discover")),
            ("dataset", Json::from("tax")),
            ("algo", Json::from("ctane")),
            ("max_lhs", Json::from(3usize)),
        ])
    };
    // j1 occupies the single worker; j2 and j3 sit in the queue
    w.send(&discover());
    let rep = w.reply();
    assert_ok(&rep);
    let j1 = job_id(&rep);
    w.event("started", j1);
    w.send(&discover());
    let rep = w.reply();
    assert_ok(&rep);
    let j2 = job_id(&rep);
    w.send(&discover());
    let rep = w.reply();
    assert_ok(&rep);
    let j3 = job_id(&rep);

    let (drained, flushed) = shutdown(&mut w, handle);
    assert_eq!(
        (drained, flushed),
        (1, 2),
        "one running job drained, two queued jobs flushed"
    );
    // the terminal events all preceded the shutdown reply: queued jobs
    // were cancelled, the running one finished with a result
    w.event("cancelled", j2);
    w.event("cancelled", j3);
    let done = w.event("done", j1);
    assert!(done.get("result").is_some(), "drained job lost its result");
    let _ = std::fs::remove_file(&tax_path);
}

/// A sync job whose reply is out is not drained: the queue stops
/// counting it before its waiter sees the outcome. Over many fresh
/// servers, a session of sync jobs alone always shuts down with
/// nothing running and nothing queued.
#[test]
fn sync_jobs_answered_before_shutdown_are_never_drained() {
    let check = Json::obj([
        ("op", Json::from("check")),
        ("dataset", Json::from("cust")),
        (
            "rules",
            Json::arr([Json::from("([CC, AC] -> CT, (_, _ || _))")]),
        ),
        ("sync", Json::from(true)),
    ]);
    for server in 0..30 {
        let (addr, handle) = spawn_server(ServeOptions::default());
        let mut w = Conn::connect(addr);
        w.send(&Json::obj([
            ("op", Json::from("register")),
            ("name", Json::from("cust")),
            ("csv", Json::from(CUST_CSV)),
        ]));
        assert_ok(&w.reply());
        for _ in 0..2 {
            w.send(&check);
            assert_ok(&w.reply());
        }
        assert_eq!(shutdown(&mut w, handle), (0, 0), "server {server}");
    }
}

/// The registry byte budget rejects registrations instead of growing
/// without bound.
#[test]
fn registry_budget_bounds_resident_bytes() {
    let (addr, handle) = spawn_server(ServeOptions {
        registry_budget: 64,
        ..ServeOptions::default()
    });
    let mut w = Conn::connect(addr);
    w.send(&Json::obj([
        ("op", Json::from("register")),
        ("name", Json::from("cust")),
        ("csv", Json::from(CUST_CSV)),
    ]));
    assert_eq!(error_code(&w.reply()), "registry_budget");
    w.send(&Json::obj([("op", Json::from("datasets"))]));
    let rep = w.reply();
    assert_ok(&rep);
    assert_eq!(
        rep.get("datasets")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(0)
    );
    shutdown(&mut w, handle);
}
