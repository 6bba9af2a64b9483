//! Chaos test: the server vs. randomized fault schedules.
//!
//! Seeded rounds of injected socket deaths, torn frames, stalls, and
//! panics run against concurrent scripted clients, then the
//! post-chaos server must uphold the robustness invariants:
//!
//! 1. every request line produced exactly one structured reply — or
//!    the connection died cleanly (no phantom requests, no garbage
//!    mid-stream; a torn final line right before EOF is the one
//!    tolerated artifact);
//! 2. no worker thread was lost — a full complement of concurrent
//!    sync jobs still completes;
//! 3. the queue drains back to depth zero;
//! 4. a post-chaos discovery is byte-identical to the pristine run;
//! 5. `internal_panic` and `deadline_exceeded` surface as structured
//!    errors while the server keeps serving.
//!
//! Everything runs in one `#[test]`: fault-point state is
//! process-global, so the rounds must not interleave with other
//! arming tests (this file is its own test binary — the lib's
//! faultpoint unit test lives in a different process).

use cfd_model::Json;
use cfd_serve::client::{Client, ClientRead};
use cfd_serve::{faultpoint, ServeOptions, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

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

/// One scripted connection; every receive tolerates disconnects.
fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr, Some(Duration::from_secs(20))).expect("connect")
}

/// Reads until this request's reply (events pass through); `None` on
/// disconnect or a torn frame.
fn reply(w: &mut Client) -> Option<Json> {
    loop {
        let Ok(ClientRead::Line(line)) = w.read() else {
            return None;
        };
        match Json::parse(&line) {
            Ok(doc) if doc.get("ok").is_some() => return Some(doc),
            Ok(_) => continue, // event
            Err(_) => {
                // unparseable bytes are a reply a fault tore in half
                // (a prefix of a JSON object never parses), legal only
                // as the very last bytes of the stream
                assert!(
                    !matches!(w.read(), Ok(ClientRead::Line(_))),
                    "garbage mid-stream: {line:?}"
                );
                return None;
            }
        }
    }
}

fn req(op: &str, fields: &[(&str, Json)]) -> Json {
    let mut all = vec![("op", Json::from(op))];
    all.extend(fields.iter().cloned());
    Json::obj(all)
}

fn assert_ok(doc: &Json) {
    assert_eq!(
        doc.get("ok").and_then(Json::as_bool),
        Some(true),
        "expected ok reply, got {doc}"
    );
}

fn error_code(doc: &Json) -> &str {
    doc.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("reply without error code: {doc}"))
}

fn sync_discover() -> Json {
    req(
        "discover",
        &[
            ("dataset", Json::from("cust")),
            ("algo", Json::from("fastcfd")),
            ("sync", Json::from(true)),
        ],
    )
}

/// The deterministic portion of a discovery reply (timings excluded).
fn rules_and_counts(rep: &Json) -> (String, String) {
    let result = rep.get("result").expect("result");
    (
        result.get("rules").expect("rules").to_string(),
        result.get("counts").expect("counts").to_string(),
    )
}

/// Arms 3–6 random global faults for one chaos round. Panic actions
/// are restricted to the *shielded* points (`job_run`, `ingest`):
/// connection-thread panics are survivable too, but their backtraces
/// would spam the test log for no extra coverage.
fn arm_random_round(rng: &mut StdRng) {
    const MENU: &[(&str, &[&str])] = &[
        ("read_line", &["io_error", "short_read", "delay"]),
        ("reply_write", &["io_error", "short_read", "delay"]),
        ("ingest", &["io_error", "delay", "panic"]),
        ("job_run", &["io_error", "delay", "panic"]),
    ];
    let n = rng.gen_range(3usize..=6);
    for _ in 0..n {
        let (point, actions) = MENU[rng.gen_range(0..MENU.len())];
        let action = actions[rng.gen_range(0..actions.len())];
        let act = faultpoint::parse_action(action, Some(rng.gen_range(5u64..=20)))
            .expect("menu actions parse");
        let skip = rng.gen_range(0u64..=3);
        let times = rng.gen_range(1u64..=2);
        faultpoint::arm(point, None, act, skip, times).expect("arm round fault");
    }
}

/// One chaos client: a short scripted session in lockstep. Returns
/// `(requests_sent, replies_received)`; panics only on a *protocol*
/// violation (reply surplus, garbage mid-stream), never on a clean
/// disconnect or structured failure.
fn chaos_client(addr: SocketAddr, round: usize, id: usize) -> (usize, usize) {
    let mut w = connect(addr);
    let name = format!("chaos_r{round}c{id}");
    let script = [
        req("ping", &[]),
        req(
            "register",
            &[
                ("name", Json::from(name.as_str())),
                ("csv", Json::from("A,B\nx,1\ny,2\n")),
            ],
        ),
        sync_discover(),
        req("unregister", &[("name", Json::from(name.as_str()))]),
        req("stats", &[]),
    ];
    let mut sent = 0usize;
    let mut replies = 0usize;
    for r in &script {
        if w.send(r).is_err() {
            break;
        }
        sent += 1;
        match reply(&mut w) {
            Some(_) => replies += 1,
            None => break, // clean disconnect — stop the script
        }
    }
    assert!(
        replies <= sent,
        "round {round} client {id}: {replies} replies for {sent} requests"
    );
    (sent, replies)
}

#[test]
fn chaos_rounds_preserve_service_invariants() {
    faultpoint::clear();
    let server = Server::bind(&ServeOptions {
        workers: 2,
        queue_depth: 8,
        fault_injection: true,
        ..ServeOptions::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let metrics = server.metrics();
    let handle = thread::spawn(move || server.run());

    // pristine baseline, no faults armed
    let mut main = connect(addr);
    assert!(main
        .send(&req(
            "register",
            &[
                ("name", Json::from("cust")),
                ("csv", Json::from(CUST_CSV)),
                ("pin", Json::from(true)),
            ],
        ))
        .is_ok());
    assert_ok(&reply(&mut main).expect("pristine register"));
    assert!(main.send(&sync_discover()).is_ok());
    let pristine = reply(&mut main).expect("pristine discover");
    assert_ok(&pristine);
    let baseline = rules_and_counts(&pristine);

    // chaos rounds: seeded fault schedules vs concurrent clients plus
    // one abrupt disconnecter per round
    let mut rng = StdRng::seed_from_u64(0xc4a05);
    for round in 0..3 {
        arm_random_round(&mut rng);
        thread::scope(|s| {
            for id in 0..4 {
                s.spawn(move || chaos_client(addr, round, id));
            }
            s.spawn(move || {
                // send two requests and slam the connection shut
                let mut w = connect(addr);
                let _ = w.send(&req("ping", &[]));
                let _ = w.send(&sync_discover());
                drop(w);
            });
        });
        faultpoint::clear();
    }

    // a deterministic torn inbound frame: the session disconnects
    // without a phantom request or a reply. The fault is armed for this
    // session only — a session left over from the rounds (a slammed
    // connection's queued job) must not take the hit instead
    {
        let mut w = connect(addr);
        let torn = [
            ("point", Json::from("read_line")),
            ("action", Json::from("short_read")),
        ];
        assert!(w.send(&req("inject", &torn)).is_ok());
        assert_ok(&reply(&mut w).expect("inject short_read reply"));
        assert!(w.send(&req("ping", &[])).is_ok());
        assert!(reply(&mut w).is_none(), "torn frame must not get a reply");
    }
    faultpoint::clear();

    // invariant: the server still answers on a fresh connection
    let mut w = connect(addr);
    assert!(w.send(&req("ping", &[])).is_ok());
    assert_ok(&reply(&mut w).expect("post-chaos ping"));

    // invariant: a panicking job is a structured internal_panic, armed
    // over the wire via the test-only inject op, and the *next* job on
    // the same connection succeeds
    assert!(w
        .send(&req(
            "inject",
            &[
                ("point", Json::from("job_run")),
                ("action", Json::from("panic")),
                ("global", Json::from(true)),
            ],
        ))
        .is_ok());
    assert_ok(&reply(&mut w).expect("inject reply"));
    assert!(w.send(&sync_discover()).is_ok());
    let failed = reply(&mut w).expect("panicked job reply");
    assert_eq!(failed.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_code(&failed), "internal_panic");
    assert!(w.send(&sync_discover()).is_ok());
    let healed = reply(&mut w).expect("post-panic discover");
    assert_ok(&healed);
    assert_eq!(rules_and_counts(&healed), baseline, "panic corrupted state");

    // invariant: a stalled job with a 1 ms budget fails deadline_exceeded
    assert!(w
        .send(&req(
            "inject",
            &[
                ("point", Json::from("job_run")),
                ("action", Json::from("delay")),
                ("delay_ms", Json::from(100u64)),
                ("global", Json::from(true)),
            ],
        ))
        .is_ok());
    assert_ok(&reply(&mut w).expect("inject delay reply"));
    let mut slow = sync_discover();
    if let Json::Obj(fields) = &mut slow {
        fields.insert(0, ("timeout_ms".into(), Json::from(1u64)));
    }
    assert!(w.send(&slow).is_ok());
    let timed_out = reply(&mut w).expect("deadline reply");
    assert_eq!(error_code(&timed_out), "deadline_exceeded");

    // invariant: both workers survived — a full complement of
    // concurrent sync jobs completes, each byte-identical to pristine
    thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut w = connect(addr);
                assert!(w.send(&sync_discover()).is_ok());
                let rep = reply(&mut w).expect("post-chaos worker check");
                assert_ok(&rep);
                assert_eq!(rules_and_counts(&rep), baseline);
            });
        }
    });

    // invariant: the queue drained and the chaos left its fingerprints
    // in the metrics (faults fired, at least one partial disconnect)
    assert!(w.send(&req("stats", &[])).is_ok());
    let stats = reply(&mut w).expect("stats reply");
    assert_ok(&stats);
    let server_obj = stats.get("server").expect("server gauges");
    assert_eq!(
        server_obj.get("queue_depth").and_then(Json::as_f64),
        Some(0.0),
        "queue did not drain: {stats}"
    );
    assert!(
        server_obj
            .get("faults_injected")
            .and_then(Json::as_f64)
            .expect("faults_injected gauge")
            > 0.0
    );
    let snapshot = metrics.snapshot().to_json();
    let counter = |name: &str| {
        snapshot
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    assert!(counter("serve.panics") >= 1.0, "panic shield never fired");
    assert!(
        counter("serve.deadline_exceeded") >= 1.0,
        "deadline classification never fired"
    );
    assert!(
        counter("serve.partial_disconnects") >= 1.0,
        "torn frame was not recorded"
    );

    // shutdown still drains cleanly after everything above
    assert!(w.send(&req("shutdown", &[])).is_ok());
    let bye = reply(&mut w).expect("shutdown reply");
    assert_ok(&bye);
    assert!(bye.get("jobs_drained").and_then(Json::as_f64).is_some());
    handle.join().expect("server thread").expect("server run");
    faultpoint::clear();
}
