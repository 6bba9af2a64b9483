//! End-to-end tests of the `cfd` command-line tool: discover on clean
//! data, pipe the rules into check, and validate dirty data fails —
//! plus the unified-API surface: the `Algo::all()` algorithm matrix,
//! `--format json` validity, argument-error reporting, and the strict
//! rule-file policy.

use cfd_suite::prelude::{Algo, Json};
use std::io::Write;
use std::process::Command;

fn write_csv(path: &std::path::Path, dirty: bool) {
    let mut rows = vec![
        "01,908,1111111,Mike,Tree Ave.,MH,07974",
        "01,908,1111111,Rick,Tree Ave.,MH,07974",
        "01,212,2222222,Joe,5th Ave,NYC,01202",
        "01,908,2222222,Jim,Elm Str.,MH,07974",
        "44,131,3333333,Ben,High St.,EDI,EH4 1DT",
        "44,131,2222222,Ian,High St.,EDI,EH4 1DT",
        "44,908,2222222,Ian,Port PI,MH,W1B 1JH",
        "01,131,2222222,Sean,3rd Str.,UN,01202",
    ];
    if dirty {
        rows[5] = "44,131,2222222,Ian,Low St.,EDI,EH4 1DT";
    }
    let mut f = std::fs::File::create(path).unwrap();
    writeln!(f, "CC,AC,PN,NM,STR,CT,ZIP").unwrap();
    for r in rows {
        writeln!(f, "{r}").unwrap();
    }
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cfd"))
}

#[test]
fn discover_check_round_trip() {
    let dir = std::env::temp_dir().join(format!("cfd-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean = dir.join("clean.csv");
    let dirty = dir.join("dirty.csv");
    let rules = dir.join("rules.txt");
    write_csv(&clean, false);
    write_csv(&dirty, true);

    // discover on clean data
    let out = bin()
        .args(["discover", clean.to_str().unwrap(), "--k", "2"])
        .output()
        .expect("cfd discover runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rules_text = String::from_utf8(out.stdout).unwrap();
    assert!(
        rules_text.contains("([AC] -> CT, (908 || MH))"),
        "{rules_text}"
    );
    std::fs::write(&rules, &rules_text).unwrap();

    // clean data passes
    let ok = bin()
        .args(["check", clean.to_str().unwrap(), rules.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(ok.status.success());
    assert!(String::from_utf8_lossy(&ok.stdout).contains("OK"));

    // dirty data fails, naming the corrupted tuple (t6)
    let bad = bin()
        .args(["check", dirty.to_str().unwrap(), rules.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    let report = String::from_utf8_lossy(&bad.stdout).to_string();
    assert!(report.contains("VIOLATED"), "{report}");
    assert!(report.contains("Low St."), "{report}");

    // the kernel shards rules across threads without changing the report
    let bad4 = bin()
        .args([
            "check",
            dirty.to_str().unwrap(),
            rules.to_str().unwrap(),
            "--threads",
            "4",
        ])
        .output()
        .unwrap();
    assert!(!bad4.status.success());
    assert_eq!(
        report,
        String::from_utf8_lossy(&bad4.stdout).to_string(),
        "4-thread check output differs from single-threaded"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn threads_are_honored_by_every_algorithm() {
    let dir = std::env::temp_dir().join(format!("cfd-cli5-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("data.csv");
    write_csv(&csv, false);
    let path = csv.to_str().unwrap();

    // every algorithm parallelizes now (the level-wise miners shard
    // level expansion, cfdminer its mining pass): --threads never
    // warns, and the output is identical to the single-threaded run
    for algo in Algo::all() {
        let serial = bin()
            .args(["discover", path, "--k", "2", "--algo", algo.name()])
            .output()
            .unwrap();
        assert!(serial.status.success(), "{algo}");
        let sharded = bin()
            .args([
                "discover",
                path,
                "--k",
                "2",
                "--algo",
                algo.name(),
                "--threads",
                "4",
            ])
            .output()
            .unwrap();
        assert!(sharded.status.success(), "{algo}");
        // tane/fastfd still note the unrelated --k; --threads itself
        // must never be reported as ignored
        let stderr = String::from_utf8_lossy(&sharded.stderr).to_string();
        assert!(!stderr.contains("--threads"), "{algo}: {stderr}");
        assert_eq!(
            String::from_utf8_lossy(&serial.stdout),
            String::from_utf8_lossy(&sharded.stdout),
            "{algo}: 4-thread discovery output differs from single-threaded"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn discover_algorithms_and_flags() {
    let dir = std::env::temp_dir().join(format!("cfd-cli2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("data.csv");
    write_csv(&csv, false);
    let path = csv.to_str().unwrap();

    // all algorithms run; fastcfd/ctane/naive agree on output lines
    let run = |args: &[&str]| {
        let out = bin().args(args).output().unwrap();
        assert!(out.status.success(), "{args:?}");
        let mut lines: Vec<String> = String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        lines.sort();
        lines
    };
    let fast = run(&["discover", path, "--k", "2"]);
    let ctane = run(&["discover", path, "--k", "2", "--algo", "ctane"]);
    let naive = run(&["discover", path, "--k", "2", "--algo", "naive"]);
    assert_eq!(fast, ctane);
    assert_eq!(fast, naive);

    // cfdminer emits a subset (the constant rules)
    let constants = run(&["discover", path, "--k", "2", "--algo", "cfdminer"]);
    assert!(constants.iter().all(|l| fast.contains(l)));
    let co = run(&["discover", path, "--k", "2", "--constants-only"]);
    assert_eq!(constants, co);

    // FD baselines agree with each other
    let tane = run(&["discover", path, "--algo", "tane"]);
    let fastfd = run(&["discover", path, "--algo", "fastfd"]);
    assert_eq!(tane, fastfd);

    // tableau output groups rules
    let tab = run(&["discover", path, "--k", "2", "--tableau"]);
    assert!(tab.iter().any(|l| l.contains("tableau:")), "{tab:?}");

    // stats runs
    let stats = bin().args(["stats", path]).output().unwrap();
    assert!(stats.status.success());
    assert!(String::from_utf8_lossy(&stats.stdout).contains("arity:   7"));

    // bad usage exits 2
    let bad = bin().args(["frobnicate"]).output().unwrap();
    assert_eq!(bad.status.code(), Some(2));
    let bad2 = bin().args(["discover"]).output().unwrap();
    assert_eq!(bad2.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn algorithm_matrix_runs_every_registered_algo() {
    let dir = std::env::temp_dir().join(format!("cfd-cli6-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("data.csv");
    write_csv(&csv, false);
    let path = csv.to_str().unwrap();

    // `cfd algos` is the registry: the matrix below covers exactly it
    let listed = bin().args(["algos"]).output().unwrap();
    assert!(listed.status.success());
    let names: Vec<String> = String::from_utf8(listed.stdout)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    let registry: Vec<String> = Algo::all().iter().map(|a| a.name().to_string()).collect();
    assert_eq!(names, registry, "`cfd algos` must mirror Algo::all()");

    let mut general: Vec<Vec<String>> = Vec::new();
    for algo in Algo::all() {
        let out = bin()
            .args(["discover", path, "--k", "2", "--algo", algo.name()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "--algo {algo} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let mut lines: Vec<String> = String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        lines.sort();
        assert!(!lines.is_empty(), "--algo {algo} found no rules");
        if matches!(
            algo,
            Algo::Ctane | Algo::FastCfd | Algo::Naive | Algo::BruteForce
        ) {
            general.push(lines);
        }
    }
    // all general-cover algorithms print the identical rule set
    for w in general.windows(2) {
        assert_eq!(w[0], w[1]);
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn argument_errors_name_the_offending_flag() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["discover", "x.csv", "--k", "abc"],
            "invalid value \"abc\" for --k",
        ),
        (&["discover", "x.csv", "--k"], "missing value for --k"),
        (&["discover", "x.csv", "--frob"], "unknown flag \"--frob\""),
        (
            &["discover", "x.csv", "--algo", "levelwise"],
            "unknown algorithm \"levelwise\"",
        ),
        (
            &["discover", "x.csv", "--format", "xml"],
            "invalid value \"xml\" for --format",
        ),
        (&["check", "x.csv"], "takes 2 positional argument(s), got 1"),
        (
            &["watch", "x.csv", "r.txt", "--remine-theta", "1.5"],
            "invalid value \"1.5\" for --remine-theta",
        ),
        // byte budgets that overflow are usage errors, not wrapped values
        (
            &["serve", "--registry-budget-mb", "18446744073709551615"],
            "invalid value 18446744073709551615 for --registry-budget-mb",
        ),
        (
            &["serve", "--max-line-kb", "18446744073709551615"],
            "invalid value 18446744073709551615 for --max-line-kb",
        ),
    ];
    for (args, want) in cases {
        let out = bin().args(*args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(stderr.contains(want), "{args:?}: {stderr}");
    }
}

#[test]
fn check_is_strict_about_rule_files_unless_lenient() {
    let dir = std::env::temp_dir().join(format!("cfd-cli7-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("data.csv");
    let rules = dir.join("rules.txt");
    write_csv(&csv, false);
    let path = csv.to_str().unwrap();

    let out = bin().args(["discover", path, "--k", "2"]).output().unwrap();
    let mut text = String::from_utf8(out.stdout).unwrap();
    text.push_str("this is not a rule\n");
    std::fs::write(&rules, &text).unwrap();
    let rules_path = rules.to_str().unwrap();

    // strict default: the bad line aborts the check (no truncated-rule-set OK)
    let strict = bin().args(["check", path, rules_path]).output().unwrap();
    assert!(!strict.status.success());
    let stderr = String::from_utf8_lossy(&strict.stderr).to_string();
    assert!(
        stderr.contains("unparseable rule") && stderr.contains("--lenient"),
        "{stderr}"
    );
    assert!(
        !String::from_utf8_lossy(&strict.stdout).contains("OK"),
        "strict check must not report OK"
    );

    // --lenient restores skip-with-warning
    let lenient = bin()
        .args(["check", path, rules_path, "--lenient"])
        .output()
        .unwrap();
    assert!(lenient.status.success());
    assert!(String::from_utf8_lossy(&lenient.stdout).contains("OK"));
    assert!(String::from_utf8_lossy(&lenient.stderr).contains("skipping line"));

    // watch applies the same policy
    let watch = bin().args(["watch", path, rules_path]).output().unwrap();
    assert!(!watch.status.success());
    assert!(
        String::from_utf8_lossy(&watch.stderr).contains("unparseable rule"),
        "watch must be strict too"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_output_is_parseable_and_structured() {
    let dir = std::env::temp_dir().join(format!("cfd-cli8-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean = dir.join("clean.csv");
    let dirty = dir.join("dirty.csv");
    let rules = dir.join("rules.txt");
    write_csv(&clean, false);
    write_csv(&dirty, true);

    // discover --format json: parseable, with rules/stats/notes
    let out = bin()
        .args([
            "discover",
            clean.to_str().unwrap(),
            "--k",
            "2",
            "--algo",
            "ctane",
            "--threads",
            "4",
            "--format",
            "json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).expect("valid JSON");
    assert_eq!(doc.get("command").and_then(Json::as_str), Some("discover"));
    assert_eq!(doc.get("algorithm").and_then(Json::as_str), Some("ctane"));
    let rule_docs = doc.get("rules").unwrap().as_array().unwrap();
    assert!(!rule_docs.is_empty());
    let texts: Vec<&str> = rule_docs
        .iter()
        .map(|r| r.get("text").unwrap().as_str().unwrap())
        .collect();
    assert!(texts.contains(&"([AC] -> CT, (908 || MH))"), "{texts:?}");
    // the counters counted real work; --threads is honored by ctane
    // now, so the notes array stays empty
    assert!(
        doc.get("stats")
            .unwrap()
            .get("candidates")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0
    );
    let notes = doc.get("notes").unwrap().as_array().unwrap();
    assert!(notes.is_empty(), "{notes:?}");
    std::fs::write(&rules, texts.join("\n")).unwrap();

    // check --format json on dirty data: unsatisfied, violations listed
    let out = bin()
        .args([
            "check",
            dirty.to_str().unwrap(),
            rules.to_str().unwrap(),
            "--format",
            "json",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).expect("valid JSON");
    assert_eq!(doc.get("command").and_then(Json::as_str), Some("check"));
    assert_eq!(doc.get("satisfied").and_then(Json::as_bool), Some(false));
    assert!(doc.get("total_violations").unwrap().as_f64().unwrap() > 0.0);
    let violated: Vec<&Json> = doc
        .get("rules")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .filter(|r| r.get("satisfied").and_then(Json::as_bool) == Some(false))
        .collect();
    assert!(!violated.is_empty());
    // every violated rule carries its wire text and a non-empty sample
    for r in &violated {
        assert!(r.get("text").unwrap().as_str().is_some());
        assert!(!r.get("sample").unwrap().as_array().unwrap().is_empty());
    }
    // and the clean file satisfies the same rules
    let out = bin()
        .args([
            "check",
            clean.to_str().unwrap(),
            rules.to_str().unwrap(),
            "--format",
            "json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(doc.get("satisfied").and_then(Json::as_bool), Some(true));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn discover_approximate_top_k_json_round_trip() {
    use cfd_suite::prelude::{relation_from_csv_path, CanonicalCover, RuleMeasure};

    let dir = std::env::temp_dir().join(format!("cfd-cli10-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dirty = dir.join("dirty.csv");
    write_csv(&dirty, true); // t6's street is corrupted: real noise
    let path = dirty.to_str().unwrap();

    // approximate top-k discovery, machine-readable
    let out = bin()
        .args([
            "discover",
            path,
            "--k",
            "2",
            "--algo",
            "ctane",
            "--min-confidence",
            "0.9",
            "--top-k",
            "5",
            "--format",
            "json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).expect("valid JSON");
    let opts = doc.get("options").unwrap();
    assert_eq!(opts.get("min_confidence").and_then(Json::as_f64), Some(0.9));
    assert_eq!(opts.get("top_k").and_then(Json::as_f64), Some(5.0));
    // the printed options parse back into the options the run used
    assert_eq!(
        cfd_suite::prelude::DiscoverOptions::from_json(opts),
        Ok(cfd_suite::prelude::DiscoverOptions::new(2)
            .min_confidence(0.9)
            .top_k(5))
    );
    let rule_docs = doc.get("rules").unwrap().as_array().unwrap();
    assert_eq!(rule_docs.len(), 5, "top-k truncates to 5");
    // every rule carries measured support/confidence and parses back
    let rel = relation_from_csv_path(path).unwrap();
    for r in rule_docs {
        let support = r.get("support").unwrap().as_f64().unwrap();
        let conf = r.get("confidence").unwrap().as_f64().unwrap();
        assert!(support >= 2.0, "k-frequent support");
        assert!((0.9..=1.0).contains(&conf), "confidence within [θ, 1]");
        let text = r.get("text").unwrap().as_str().unwrap();
        assert!(cfd_suite::prelude::parse_cfd(&rel, text).is_ok(), "{text}");
    }

    // text mode prints annotated rules; the annotated file round-trips
    // through the wire format and feeds straight back into check
    let out = bin()
        .args([
            "discover",
            path,
            "--k",
            "2",
            "--algo",
            "ctane",
            "--min-confidence",
            "0.9",
            "--top-k",
            "5",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().count(), 5);
    assert!(text.lines().all(|l| l.contains(" [support=")), "{text}");
    let (cover, measures) = CanonicalCover::from_annotated_text(&rel, &text).unwrap();
    assert_eq!(cover.len(), 5);
    let measures: Vec<RuleMeasure> = measures.into_iter().map(Option::unwrap).collect();
    assert_eq!(
        cover.to_annotated_text(&rel, &measures),
        text,
        "annotated wire format must round-trip"
    );
    let rules = dir.join("rules.txt");
    std::fs::write(&rules, &text).unwrap();
    let chk = bin()
        .args(["check", path, rules.to_str().unwrap(), "--format", "json"])
        .output()
        .unwrap();
    let doc = Json::parse(&String::from_utf8(chk.stdout).unwrap()).expect("check JSON");
    assert_eq!(
        doc.get("rules").unwrap().as_array().unwrap().len(),
        5,
        "check loads all annotated rules"
    );

    // an out-of-range θ is a usage error naming the flag
    let bad = bin()
        .args(["discover", path, "--min-confidence", "1.5"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("min_confidence"),
        "{}",
        String::from_utf8_lossy(&bad.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn discover_project_restricts_the_schema() {
    let dir = std::env::temp_dir().join(format!("cfd-cli9-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("data.csv");
    write_csv(&csv, false);
    let path = csv.to_str().unwrap();

    let out = bin()
        .args(["discover", path, "--k", "2", "--project", "CC,AC,CT"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("([AC] -> CT, (908 || MH))"), "{stdout}");
    for dropped in ["PN", "NM", "STR", "ZIP"] {
        assert!(
            !stdout.contains(dropped),
            "{dropped} should be projected away"
        );
    }
    // unknown attribute names are usage errors: exit 2, named verbatim
    let bad = bin()
        .args(["discover", path, "--k", "2", "--project", "CC,NOPE"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("NOPE"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watch_streams_violation_deltas() {
    use std::process::Stdio;

    let dir = std::env::temp_dir().join(format!("cfd-cli4-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean = dir.join("clean.csv");
    let rules = dir.join("rules.txt");
    write_csv(&clean, false);

    // rules discovered on the clean data feed the watch loop
    let out = bin()
        .args(["discover", clean.to_str().unwrap(), "--k", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::write(&rules, out.stdout).unwrap();

    // script: a violating insert (AC=131 with CT=UN breaks
    // (AC -> CT, (131 || EDI))), stats, then delete it again
    let script = "44,131,9999999,Eve,High St.,UN,EH4 1DT\n.\n?\n-8\n.\n";
    let mut child = bin()
        .args([
            "watch",
            clean.to_str().unwrap(),
            rules.to_str().unwrap(),
            "--threads",
            "2",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cfd watch starts");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();

    // warm data is clean, so the first delta comes from the insert
    // (the 8 warm tuples take ids 0..=7, the insert is row 8)
    assert!(stderr.contains("watching"), "{stderr}");
    assert!(stdout.contains("APPLIED +1 rows 8..=8"), "{stdout}");
    assert!(stdout.contains("RAISED"), "{stdout}");
    assert!(stdout.contains("tuple 8"), "{stdout}");
    // the mid-stream stats snapshot sees the violation …
    assert!(stdout.contains("violations=1"), "{stdout}");
    // … and deleting the tuple clears it again
    assert!(stdout.contains("CLEARED"), "{stdout}");
    assert!(stdout.contains("STATS live=8 violations=0"), "{stdout}");
    // final state is clean ⇒ exit 0
    assert!(out.status.success(), "{stdout}\n{stderr}");

    // a stream ending in a dirty state exits 1
    let mut child = bin()
        .args(["watch", clean.to_str().unwrap(), rules.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"44,131,9999999,Eve,High St.,UN,EH4 1DT\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("RAISED"));

    std::fs::remove_dir_all(&dir).ok();
}

/// Discovers the cust rules (k 2) on `clean` into `rules`.
fn discover_rules(clean: &std::path::Path, rules: &std::path::Path) {
    let out = bin()
        .args(["discover", clean.to_str().unwrap(), "--k", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::write(rules, out.stdout).unwrap();
}

/// Spawns `cfd watch` with piped stdin, stdout and stderr.
fn spawn_watch(args: &[&str]) -> std::process::Child {
    use std::process::Stdio;
    bin()
        .arg("watch")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cfd watch starts")
}

#[test]
fn watch_rejects_bad_batches_whole() {
    let dir = std::env::temp_dir().join(format!("cfd-cli13-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean = dir.join("clean.csv");
    let rules = dir.join("rules.txt");
    write_csv(&clean, false);
    discover_rules(&clean, &rules);

    // each batch pairs one bad half with a good one: a dead id, a
    // repeated id and a short row must each discard the whole batch
    let script = "?\n\
                  -99\n44,131,9999999,Eve,High St.,UN,EH4 1DT\n.\n?\n\
                  -2\n-2\n44,131,9999999,Eve,High St.,UN,EH4 1DT\n.\n?\n\
                  01,908\n-3\n.\n?\n";
    let mut child = spawn_watch(&[clean.to_str().unwrap(), rules.to_str().unwrap()]);
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert_eq!(
        stderr
            .matches("# batch rejected (both halves discarded): ")
            .count(),
        3,
        "{stderr}"
    );
    assert!(stderr.contains("row 99 is not live"), "{stderr}");
    assert!(stderr.contains("row 2 deleted twice in batch"), "{stderr}");
    assert!(
        stderr.contains("row has 2 values, schema has arity 7"),
        "{stderr}"
    );
    // nothing was applied: every line is a STATS line, and the four `?`
    // answers and the final statistics at EOF are one block repeated
    assert!(stdout.lines().all(|l| l.starts_with("STATS ")), "{stdout}");
    let blocks: Vec<&str> = stdout
        .split_inclusive("STATS live=8 violations=0\n")
        .collect();
    assert_eq!(blocks.len(), 5, "{stdout}");
    assert!(blocks.iter().all(|b| *b == blocks[0]), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watch_trims_a_padded_plus_row_to_its_twin() {
    let dir = std::env::temp_dir().join(format!("cfd-cli16-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean = dir.join("clean.csv");
    let rules = dir.join("rules.txt");
    write_csv(&clean, false);
    discover_rules(&clean, &rules);

    // the same violating tuple, once plain and once `+`-prefixed with
    // every field padded with spaces or a tab (inner spaces are part of
    // the value)
    let run = |row: &str| {
        let mut child = spawn_watch(&[clean.to_str().unwrap(), rules.to_str().unwrap()]);
        let script = format!("{row}\n.\n");
        child
            .stdin
            .take()
            .unwrap()
            .write_all(script.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        let raised: Vec<String> = stdout
            .lines()
            .filter(|l| l.starts_with("RAISED "))
            .map(String::from)
            .collect();
        (raised, stdout, out.status.code())
    };
    let (trimmed, stdout, code) = run("44,131,9999999,Eve,High St.,UN,EH4 1DT");
    assert!(!trimmed.is_empty(), "{stdout}");
    let values = r#": ["44", "131", "9999999", "Eve", "High St.", "UN", "EH4 1DT"]"#;
    assert!(trimmed.iter().all(|l| l.ends_with(values)), "{stdout}");
    let padded = run("+ 44 ,131,  9999999,Eve ,\tHigh St. ,UN,  EH4 1DT  ");
    assert_eq!(padded, (trimmed, stdout, code));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watch_trace_covers_the_warm_and_its_index_build() {
    let dir = std::env::temp_dir().join(format!("cfd-cli17-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean = dir.join("clean.csv");
    let rules = dir.join("rules.txt");
    write_csv(&clean, false);
    discover_rules(&clean, &rules);

    // one warm, whose bulk index build is the only one: no cover swap
    let mut child = spawn_watch(&[clean.to_str().unwrap(), rules.to_str().unwrap(), "--trace"]);
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"44,131,9999999,Eve,High St.,UN,EH4 1DT\n.\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    for name in ["stream.warm", "stream.index"] {
        assert!(
            stderr.contains(&format!("# trace {name}: count=1 ")),
            "{stderr}"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watch_flushes_each_batch_while_stdin_stays_open() {
    use std::sync::mpsc::{channel, Receiver};
    use std::time::{Duration, Instant};

    /// Forwards the child's stdout lines to a channel, so every read
    /// below can give up at a deadline instead of hanging.
    fn lines_of(child: &mut std::process::Child) -> Receiver<String> {
        use std::io::BufRead;
        let stdout = std::io::BufReader::new(child.stdout.take().unwrap());
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            for line in stdout.lines() {
                if tx.send(line.unwrap()).is_err() {
                    break;
                }
            }
        });
        rx
    }
    /// Reads lines up to and including the first that starts with
    /// `prefix`. A missed flush leaves it waiting: that fails the test
    /// after 30 seconds.
    fn read_until(lines: &Receiver<String>, prefix: &str) -> Vec<String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut seen = Vec::new();
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match lines.recv_timeout(left) {
                Ok(line) => {
                    let done = line.starts_with(prefix);
                    seen.push(line);
                    if done {
                        return seen;
                    }
                }
                Err(e) => panic!("no {prefix:?} line ({e}); read so far: {seen:?}"),
            }
        }
    }

    let dir = std::env::temp_dir().join(format!("cfd-cli14-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean = dir.join("clean.csv");
    let rules = dir.join("rules.txt");
    write_csv(&clean, false);
    discover_rules(&clean, &rules);

    // one batch, then a `?`, each answered while stdin is still open
    let mut child = spawn_watch(&[clean.to_str().unwrap(), rules.to_str().unwrap()]);
    let mut stdin = child.stdin.take().unwrap();
    let lines = lines_of(&mut child);
    stdin
        .write_all(b"44,131,9999999,Eve,High St.,UN,EH4 1DT\n.\n")
        .unwrap();
    let batch = read_until(&lines, "BATCH ");
    assert_eq!(batch[0], "APPLIED +1 rows 8..=8", "{batch:?}");
    assert!(batch.iter().any(|l| l.starts_with("RAISED ")), "{batch:?}");
    stdin.write_all(b"?\n").unwrap();
    let stats = read_until(&lines, "STATS live=");
    let violations = batch.last().unwrap().rsplit(' ').next().unwrap();
    assert_eq!(
        *stats.last().unwrap(),
        format!("STATS live=9 {violations}"),
        "{batch:?}"
    );
    drop(stdin);
    assert_eq!(child.wait().unwrap().code(), Some(1));

    // with --remine, the REMINE lines arrive with their batch
    let stream = dir.join("tax-stream.csv");
    let stream_rules = dir.join("tax-stream-rules.txt");
    std::fs::write(
        &stream,
        "AC,CT,ZIP\n908,MH,07974\n908,MH,07974\n131,EDI,EH4\n131,EDI,EH4\n",
    )
    .unwrap();
    std::fs::write(&stream_rules, "([AC] -> CT, (_ || _))\n").unwrap();
    let mut child = spawn_watch(&[
        stream.to_str().unwrap(),
        stream_rules.to_str().unwrap(),
        "--remine",
        "--remine-theta",
        "0.95",
    ]);
    let mut stdin = child.stdin.take().unwrap();
    let lines = lines_of(&mut child);
    stdin
        .write_all(b"908,NYC,10001\n908,NYC,10001\n131,GLA,G1\n131,GLA,G1\n.\n")
        .unwrap();
    let batch = read_until(&lines, "REMINE verified ");
    let at = |prefix: &str| batch.iter().position(|l| l.starts_with(prefix));
    assert!(at("BATCH +4 -0 ") < at("REMINE retired="), "{batch:?}");
    assert!(at("REMINE- ([AC] -> CT").is_some(), "{batch:?}");
    assert!(at("REMINE+ ").is_some(), "{batch:?}");
    drop(stdin);
    assert_eq!(child.wait().unwrap().code(), Some(0));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn closed_stdout_ends_commands_quietly() {
    let dir = std::env::temp_dir().join(format!("cfd-cli15-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean = dir.join("clean.csv");
    let dirty = dir.join("dirty.csv");
    let rules = dir.join("rules.txt");
    write_csv(&clean, false);
    write_csv(&dirty, true);
    discover_rules(&clean, &rules);
    let (clean, dirty, rules) = (
        clean.to_str().unwrap(),
        dirty.to_str().unwrap(),
        rules.to_str().unwrap(),
    );

    // stdout is a pipe whose read end is closed before the command
    // starts, so its first write fails with a broken pipe; each command
    // must end with the exit code of its result, without a panic
    let cases: [(&[&str], i32); 7] = [
        (&["discover", clean, "--k", "2"], 0),
        (&["discover", clean, "--k", "2", "--format", "json"], 0),
        (&["check", dirty, rules], 1),
        (&["check", clean, rules, "--format", "json"], 0),
        (&["stats", clean], 0),
        (&["algos"], 0),
        (&["watch", clean, rules], 1),
    ];
    for (args, code) in cases {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let mut child = bin()
            .args(args)
            .stdin(std::process::Stdio::piped())
            .stdout(writer)
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        // a violating insert for `watch`; the others never read stdin
        child
            .stdin
            .take()
            .unwrap()
            .write_all(b"44,131,9999999,Eve,High St.,UN,EH4 1DT\n.\n")
            .ok();
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn discover_json_exposes_store_stats_and_metrics_out() {
    let dir = std::env::temp_dir().join(format!("cfd-cli11-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("data.csv");
    let metrics = dir.join("metrics.json");
    write_csv(&csv, false);
    let path = csv.to_str().unwrap();

    // ctane counts its partition traffic, so the JSON stats must
    // surface those counters alongside the search counters
    let out = bin()
        .args([
            "discover",
            path,
            "--k",
            "2",
            "--algo",
            "ctane",
            "--format",
            "json",
            "--trace",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).expect("valid JSON");
    let store = doc.get("stats").unwrap().get("store").expect("stats.store");
    for key in ["hits", "misses", "evictions", "entries", "bytes"] {
        assert!(store.get(key).unwrap().as_f64().is_some(), "store.{key}");
    }
    // ctane held real partitions (an exact run reads them by position
    // and counts no hits or misses — the high-water marks of the
    // partitions and bytes held prove they carried the search)
    assert!(store.get("entries").unwrap().as_f64().unwrap() > 0.0);
    assert!(store.get("bytes").unwrap().as_f64().unwrap() > 0.0);

    // --trace prints the span totals to stderr (stdout JSON stays clean)
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("# trace ctane.level"), "{stderr}");
    assert!(stderr.contains("# trace partition.refine"), "{stderr}");

    // the totals are exact: a CTANE run with more refinements than a
    // 4,096-record sample keeps shows its ingestion, drops nothing, and
    // counts the same lattice at one and two threads
    let tax = dir.join("tax.csv");
    cfd_suite::datagen::tax::TaxGenerator::new(1000)
        .seed(1)
        .write_csv(&mut std::fs::File::create(&tax).unwrap())
        .unwrap();
    let span_counts = |threads: &str| -> Vec<(String, u64)> {
        let out = bin()
            .args(["discover", tax.to_str().unwrap(), "--k", "20"])
            .args(["--algo", "ctane", "--trace", "--threads", threads])
            .output()
            .unwrap();
        assert!(out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(!stderr.contains("overwritten"), "{stderr}");
        for name in ["ingest.read", "ingest.parse", "ingest.encode"] {
            assert!(stderr.contains(&format!("# trace {name}: ")), "{stderr}");
        }
        stderr
            .lines()
            .filter_map(|l| {
                let (name, rest) = l.strip_prefix("# trace ")?.split_once(": ")?;
                let count = rest.strip_prefix("count=")?.split(' ').next()?;
                Some((name.to_string(), count.parse().unwrap()))
            })
            .collect()
    };
    let (one, two) = (span_counts("1"), span_counts("2"));
    let count = |spans: &[(String, u64)], name: &str| {
        spans.iter().find(|(n, _)| n == name).map(|&(_, c)| c)
    };
    assert!(count(&one, "partition.refine") > Some(4096), "{one:?}");
    for name in [
        "discover.run",
        "ctane.level",
        "partition.refine",
        "partition.refine_counts",
    ] {
        assert_eq!(count(&one, name), count(&two, name), "{name}");
    }

    // --metrics-out is a parseable snapshot mirroring the same run
    let snap_text = std::fs::read_to_string(&metrics).unwrap();
    let snap = Json::parse(&snap_text).expect("metrics JSON parses");
    let counters = snap.get("counters").expect("counters object");
    assert!(
        counters
            .get("discover.candidates")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0
    );
    assert_eq!(
        snap.get("gauges")
            .unwrap()
            .get("store.entries")
            .and_then(Json::as_f64),
        store.get("entries").unwrap().as_f64(),
        "metrics snapshot and JSON stats must agree on store entries"
    );
    // the search polled the cancellation token, which is itself metered
    // (ctane self-measures, so no validate.* counters appear here —
    // fastcfd's kernel measure pass is covered by the smoke workloads)
    assert!(counters.get("control.checks").unwrap().as_f64().unwrap() > 0.0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watch_applies_staged_ops_and_flushes_stats_at_eof() {
    use std::process::Stdio;

    let dir = std::env::temp_dir().join(format!("cfd-cli12-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean = dir.join("clean.csv");
    let rules = dir.join("rules.txt");
    let metrics = dir.join("metrics.json");
    write_csv(&clean, false);
    let out = bin()
        .args(["discover", clean.to_str().unwrap(), "--k", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::write(&rules, out.stdout).unwrap();

    // the violating insert is staged but never followed by an apply
    // line: EOF must apply it, print the BATCH summary, and flush the
    // final STATS lines even though stdout is a pipe
    let mut child = bin()
        .args([
            "watch",
            clean.to_str().unwrap(),
            rules.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"44,131,9999999,Eve,High St.,UN,EH4 1DT")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(!out.status.success(), "dirty final state exits 1");
    assert!(stdout.contains("APPLIED +1 rows 8..=8"), "{stdout}");
    assert!(stdout.contains("RAISED"), "{stdout}");
    let batch = stdout
        .lines()
        .find(|l| l.starts_with("BATCH "))
        .unwrap_or_else(|| panic!("no BATCH line in {stdout}"));
    assert!(batch.starts_with("BATCH +1 -0 raised="), "{batch}");
    assert!(batch.contains("cleared=0"), "{batch}");
    assert!(batch.contains("live=9"), "{batch}");
    assert!(stdout.contains("STATS live=9"), "{stdout}");

    // the stream engine metered the batch into the snapshot
    let snap = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let counters = snap.get("counters").unwrap();
    assert_eq!(
        counters.get("stream.batches").and_then(Json::as_f64),
        Some(1.0)
    );
    assert!(
        counters
            .get("stream.raised")
            .and_then(Json::as_f64)
            .unwrap()
            >= 1.0
    );
    assert_eq!(
        snap.get("gauges")
            .unwrap()
            .get("stream.live_rows")
            .and_then(Json::as_f64),
        Some(9.0)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repair_command_round_trip() {
    let dir = std::env::temp_dir().join(format!("cfd-cli3-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean = dir.join("clean.csv");
    let dirty = dir.join("dirty.csv");
    let rules = dir.join("rules.txt");
    let fixed = dir.join("fixed.csv");
    write_csv(&clean, false);
    write_csv(&dirty, true);

    let out = bin()
        .args(["discover", clean.to_str().unwrap(), "--k", "2"])
        .output()
        .unwrap();
    std::fs::write(&rules, out.stdout).unwrap();

    // repair the dirty file
    let rep = bin()
        .args([
            "repair",
            dirty.to_str().unwrap(),
            rules.to_str().unwrap(),
            fixed.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        rep.status.success(),
        "{}",
        String::from_utf8_lossy(&rep.stderr)
    );
    let log = String::from_utf8_lossy(&rep.stderr).to_string();
    assert!(log.contains("cell edits applied"), "{log}");
    // the one corrupted street breaks nine rule records, and its one
    // edit clears them all
    assert!(
        log.contains("# 1 cell edits applied; violations 9 -> 0;"),
        "{log}"
    );

    // the repaired file restores the corrupted street and passes check
    let fixed_text = std::fs::read_to_string(&fixed).unwrap();
    assert!(fixed_text.contains("High St."), "{fixed_text}");
    assert!(!fixed_text.contains("Low St."), "{fixed_text}");
    let chk = bin()
        .args(["check", fixed.to_str().unwrap(), rules.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        chk.status.success(),
        "{}",
        String::from_utf8_lossy(&chk.stdout)
    );

    std::fs::remove_dir_all(&dir).ok();
}
