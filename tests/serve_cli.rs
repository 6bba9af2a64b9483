//! End-to-end tests of `cfd serve` / `cfd client` as real child
//! processes: the resident server's results must match the one-shot
//! CLI byte for byte (modulo wall-clock timings), however many jobs
//! ran before on the same dataset, and the scripted client must
//! report protocol failures through its exit code.

use cfd_suite::prelude::Json;
use cfd_suite::serve::client::{Client, ClientRead};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
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

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cfd"))
}

/// Forks `cfd serve` on an ephemeral port and parses the `SERVE <addr>`
/// line it prints once the socket is bound.
fn start_server() -> (Child, String) {
    let mut child = bin()
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cfd serve");
    let stdout = child.stdout.take().expect("serve stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read SERVE line");
    let addr = line
        .trim()
        .strip_prefix("SERVE ")
        .unwrap_or_else(|| panic!("first stdout line is not SERVE: {line:?}"))
        .to_string();
    (child, addr)
}

/// Next reply, skipping job-event lines.
fn reply(w: &mut Client) -> Json {
    match w.reply(|_event| {}).expect("read reply") {
        ClientRead::Line(l) => Json::parse(&l).expect("server sent invalid JSON"),
        other => panic!("server closed the connection unexpectedly: {other:?}"),
    }
}

fn assert_ok(doc: &Json) {
    assert_eq!(
        doc.get("ok").and_then(Json::as_bool),
        Some(true),
        "expected ok reply, got {doc}"
    );
}

/// Drops the `command` / `dataset` / `rules_file` keys the CLI's
/// `--format json` injects in front of a result document, and the
/// wall-clock `timings`.
fn strip_cli_keys(doc: Json) -> Json {
    match doc {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| {
                    !matches!(k.as_str(), "command" | "dataset" | "rules_file" | "timings")
                })
                .collect(),
        ),
        other => other,
    }
}

#[test]
fn resident_server_matches_one_shot_cli_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("cfd-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = dir.join("cust.csv");
    let rules_path = dir.join("rules.txt");
    std::fs::write(&csv, CUST_CSV).expect("write csv");

    // one-shot CLI runs first: discover (text for the rules file, JSON
    // for the comparison document), then check
    let out = bin()
        .args(["discover", csv.to_str().unwrap(), "--k", "2"])
        .output()
        .expect("cfd discover");
    assert!(out.status.success());
    let rules_text = String::from_utf8(out.stdout).expect("utf8 rules");
    std::fs::write(&rules_path, &rules_text).expect("write rules");
    let algos = ["fastcfd", "ctane"];
    let cli_discover: Vec<Json> = algos
        .iter()
        .map(|algo| {
            let out = bin()
                .args([
                    "discover",
                    csv.to_str().unwrap(),
                    "--k",
                    "2",
                    "--algo",
                    algo,
                    "--format",
                    "json",
                ])
                .output()
                .expect("cfd discover --format json");
            assert!(out.status.success());
            strip_cli_keys(
                Json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("discover json"),
            )
        })
        .collect();
    let out = bin()
        .args([
            "check",
            csv.to_str().unwrap(),
            rules_path.to_str().unwrap(),
            "--format",
            "json",
        ])
        .output()
        .expect("cfd check --format json");
    assert!(out.status.success());
    let cli_check = strip_cli_keys(
        Json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("check json"),
    );

    // the same work through the resident server
    let (mut child, addr) = start_server();
    let mut w = Client::connect(addr.as_str(), Some(Duration::from_secs(120))).expect("connect");
    w.send(&format!(
        "{{\"op\":\"register\",\"name\":\"cust\",\"path\":{}}}",
        Json::from(csv.to_str().unwrap())
    ))
    .expect("send");
    assert_ok(&reply(&mut w));

    // every job on the dataset, not just the first, runs the CLI's
    // path: same rules, counts, options and search stats (store
    // counters included); only the wall-clock timings differ
    for (algo, cli) in algos.iter().zip(&cli_discover) {
        for run in 1..=2 {
            w.send(&format!(
                "{{\"op\":\"discover\",\"dataset\":\"cust\",\"algo\":\"{algo}\",\"k\":2,\"sync\":true}}"
            ))
            .expect("send");
            let rep = reply(&mut w);
            assert_ok(&rep);
            let got = strip_cli_keys(rep.get("result").expect("discover result").clone());
            assert_eq!(
                got.to_string(),
                cli.to_string(),
                "{algo} job {run}: server and one-shot CLI disagree"
            );
        }
    }

    let rule_lines = Json::arr(
        rules_text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(Json::from),
    );
    w.send(&format!(
        "{{\"op\":\"check\",\"dataset\":\"cust\",\"rules\":{rule_lines},\"sync\":true}}"
    ))
    .expect("send");
    let rep = reply(&mut w);
    assert_ok(&rep);
    assert_eq!(
        rep.get("result").expect("check result").to_string(),
        cli_check.to_string(),
        "server check report differs from one-shot CLI"
    );

    w.send("{\"op\":\"stats\"}").expect("send");
    let rep = reply(&mut w);
    assert_ok(&rep);
    assert!(rep.get("server").is_some() && rep.get("metrics").is_some());

    w.send("{\"op\":\"shutdown\"}").expect("send");
    assert_ok(&reply(&mut w));
    let status = child.wait().expect("serve exit");
    assert!(status.success(), "cfd serve exited with {status}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_subcommand_scripts_a_session_and_reports_failures() {
    // a clean session exits 0
    let (mut server, addr) = start_server();
    let mut client = bin()
        .args(["client", &addr])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cfd client");
    client
        .stdin
        .take()
        .expect("client stdin")
        .write_all(
            b"# comment lines and blanks are skipped\n\n\
              {\"op\":\"ping\"}\n{\"op\":\"shutdown\"}\n",
        )
        .expect("write session");
    let out = client.wait_with_output().expect("client exit");
    assert!(out.status.success(), "clean session must exit 0");
    let lines: Vec<Json> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| Json::parse(l).expect("client echoes JSON lines"))
        .collect();
    assert_eq!(lines.len(), 2);
    assert!(lines
        .iter()
        .all(|d| d.get("ok").and_then(Json::as_bool) == Some(true)));
    assert!(server.wait().expect("serve exit").success());

    // a session with a protocol error exits nonzero
    let (mut server, addr) = start_server();
    let mut client = bin()
        .args(["client", &addr])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cfd client");
    client
        .stdin
        .take()
        .expect("client stdin")
        .write_all(b"{\"op\":\"frobnicate\"}\n{\"op\":\"shutdown\"}\n")
        .expect("write session");
    let out = client.wait_with_output().expect("client exit");
    assert!(
        !out.status.success(),
        "a failed reply must flip the client's exit code"
    );
    assert!(server.wait().expect("serve exit").success());
}

#[test]
fn client_ends_quietly_when_its_stdout_closes() {
    // stdout is a pipe whose read end is closed before the client
    // starts, so its first write fails with a broken pipe: the client
    // stops the script and exits with the status of the replies it got
    let (mut server, addr) = start_server();
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let mut client = bin()
        .args(["client", &addr])
        .stdin(Stdio::piped())
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cfd client");
    client
        .stdin
        .take()
        .expect("client stdin")
        .write_all(b"{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n")
        .ok();
    let out = client.wait_with_output().expect("client exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");

    let mut w = Client::connect(addr.as_str(), None).expect("connect");
    w.send("{\"op\":\"shutdown\"}").expect("send shutdown");
    assert_ok(&reply(&mut w));
    assert!(server.wait().expect("serve exit").success());
}

#[test]
fn client_io_timeout_turns_silence_into_a_clean_failure() {
    // a fake server that accepts, reads the request, and never replies
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("fake addr").to_string();
    let mute = std::thread::spawn(move || {
        let (conn, _) = listener.accept().expect("accept");
        let mut line = String::new();
        let _ = BufReader::new(&conn).read_line(&mut line);
        // hold the connection open well past the client's patience
        std::thread::sleep(Duration::from_secs(5));
        drop(conn);
    });

    let mut client = bin()
        .args(["client", &addr, "--io-timeout-ms", "300"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cfd client");
    client
        .stdin
        .take()
        .expect("client stdin")
        .write_all(b"{\"op\":\"ping\"}\n")
        .expect("write session");
    let out = client.wait_with_output().expect("client exit");
    assert!(
        !out.status.success(),
        "a silent server must flip the client's exit code"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("server stopped responding (no data for 300 ms)"),
        "missing timeout diagnostic, stderr was: {stderr}"
    );
    mute.join().expect("fake server thread");
}

#[test]
fn client_retries_transient_overload_until_it_clears() {
    // a fake server that sheds the first attempt with a retry hint and
    // accepts the identical resend
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("fake addr").to_string();
    let shedder = std::thread::spawn(move || {
        let (conn, _) = listener.accept().expect("accept");
        let mut r = BufReader::new(conn.try_clone().expect("clone"));
        let mut w = conn;
        let mut first = String::new();
        r.read_line(&mut first).expect("first attempt");
        w.write_all(
            b"{\"ok\":false,\"op\":\"ping\",\"error\":{\"code\":\"queue_full\",\
              \"message\":\"job queue is full\",\"retry_after_ms\":10}}\n",
        )
        .expect("shed reply");
        let mut second = String::new();
        r.read_line(&mut second).expect("retried attempt");
        assert_eq!(first, second, "the retry must resend the same request");
        w.write_all(b"{\"ok\":true,\"op\":\"ping\"}\n")
            .expect("ok reply");
        // drain until the client half-closes, then hang up
        let mut rest = String::new();
        while r.read_line(&mut rest).expect("drain") > 0 {
            rest.clear();
        }
    });

    let mut client = bin()
        .args(["client", &addr, "--retries", "2", "--backoff-ms", "20"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cfd client");
    client
        .stdin
        .take()
        .expect("client stdin")
        .write_all(b"{\"op\":\"ping\"}\n")
        .expect("write session");
    let out = client.wait_with_output().expect("client exit");
    assert!(
        out.status.success(),
        "a shed-then-served session must exit 0, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "only the final reply is echoed: {stdout}");
    let doc = Json::parse(lines[0]).expect("client echoes JSON");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("# transient queue_full — retrying in"),
        "missing retry note, stderr was: {stderr}"
    );
    shedder.join().expect("fake server thread");
}
