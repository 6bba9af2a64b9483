//! `cfd` — command-line CFD discovery and data validation.
//!
//! ```text
//! cfd discover <data.csv> [--k N] [--algo NAME] [--max-lhs N] [--threads N]
//!              [--min-confidence F] [--top-k N] [--constants-only]
//!              [--project A,B,...] [--tableau] [--format text|json]
//! cfd check    <data.csv> <rules.txt> [--limit N] [--threads N] [--lenient]
//!              [--format text|json]
//! cfd repair   <data.csv> <rules.txt> <out.csv> [--lenient]
//! cfd stats    <data.csv>
//! cfd watch    <initial.csv> <rules.txt> [--threads N] [--lenient]
//! cfd serve    [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!              [--registry-budget-mb N] [--max-line-kb N] [--job-timeout-ms N]
//!              [--io-timeout-ms N] [--idle-ms N] [--faults]
//! cfd client   <HOST:PORT> [--io-timeout-ms N] [--retries N] [--backoff-ms N]
//! cfd algos
//! ```
//!
//! Every algorithm runs through the unified `Discoverer` API
//! (`cfd_core::api`): `--algo` names resolve via the `Algo` registry
//! (`cfd algos` lists them), options an algorithm ignores surface as
//! structured notes (stderr warnings in text mode, a `notes` array in
//! JSON), and `--format json` emits the full machine-readable
//! `Discovery` / `ValidationReport` documents.
//!
//! `discover` prints one rule per line in the stable wire-format — the
//! same syntax `check` parses back, so the two commands compose:
//!
//! ```sh
//! cfd discover clean.csv --k 20 > rules.txt
//! cfd check dirty.csv rules.txt
//! ```
//!
//! `--min-confidence θ` switches ctane/tane/cfdminer to *approximate*
//! discovery: rules are emitted when their g1-style confidence reaches
//! θ rather than only at exactness, and `--top-k N` keeps the N best
//! rules by (confidence, support) with any algorithm. Approximate and
//! top-k runs print each rule with its measured `[support=N conf=F]`
//! suffix; `check`, `repair` and `watch` accept (and ignore) the
//! annotations, so the pipeline above still composes.
//!
//! Rule files are strict by default: an unparseable line aborts the
//! command (a truncated rule set silently turning `check` green is
//! worse than an error). Pass `--lenient` to skip bad lines with a
//! warning instead.
//!
//! `watch` keeps checking as the data changes: it warms the incremental
//! engine on the initial CSV, then reads a stream of operations from
//! stdin — one CSV row (optionally prefixed `+`) per insert, `-<id>`
//! per delete, an empty line (or `.`) to apply the pending batch — and
//! prints the violation deltas (`RAISED` / `CLEARED` lines), a `BATCH`
//! summary per applied batch, and per-rule statistics instead of
//! rescanning. At stdin EOF any staged operations are applied and the
//! final statistics are flushed before exiting:
//!
//! ```sh
//! cfd discover clean.csv --k 20 > rules.txt
//! tail -f updates.log | cfd watch clean.csv rules.txt --threads 4
//! ```
//!
//! `serve` keeps datasets resident and answers many clients over one
//! process: register a CSV once, then submit discover/check/repair
//! jobs, stream their progress, cancel them by id, and read server
//! stats — newline-delimited JSON over TCP (grammar in DESIGN.md §12).
//! `client` is the matching scripted client:
//!
//! ```sh
//! cfd serve --addr 127.0.0.1:4617 &
//! cfd client 127.0.0.1:4617 <<'EOF'
//! {"op": "register", "name": "tax", "path": "tax.csv"}
//! {"op": "discover", "dataset": "tax", "algo": "ctane", "sync": true}
//! {"op": "shutdown"}
//! EOF
//! ```

use cfd_suite::model::csv::relation_from_csv_path;
use cfd_suite::model::tableau::group_into_tableaux;
use cfd_suite::prelude::*;
use cfd_suite::serve::session::{attach_rule_texts, load_rules_file_with, ObsSession};
use cfd_suite::serve::{ServeOptions, Server};
use std::io::{BufRead, BufWriter, ErrorKind, StdoutLock, Write};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         cfd discover <data.csv> [--k N] [--algo NAME] [--max-lhs N] [--threads N]\n\
         \x20              [--min-confidence F] [--top-k N] [--constants-only]\n\
         \x20              [--project A,B,...] [--tableau] [--format text|json]\n\
         \x20              [--trace] [--metrics-out FILE]\n  \
         cfd check <data.csv> <rules.txt> [--limit N] [--threads N] [--lenient] [--format text|json]\n\
         \x20           [--trace] [--metrics-out FILE]\n  \
         cfd repair <data.csv> <rules.txt> <out.csv> [--lenient]\n  \
         cfd stats <data.csv>\n  \
         cfd watch <initial.csv> <rules.txt> [--threads N] [--lenient] [--trace] [--metrics-out FILE]\n\
         \x20          [--remine] [--remine-theta F] [--remine-expand N] [--remine-timeout-ms N]\n  \
         cfd serve [--addr HOST:PORT] [--workers N] [--queue-depth N]\n\
         \x20          [--registry-budget-mb N] [--max-line-kb N] [--job-timeout-ms N]\n\
         \x20          [--io-timeout-ms N] [--idle-ms N] [--faults] [--trace] [--metrics-out FILE]\n  \
         cfd client <HOST:PORT> [--io-timeout-ms N] [--retries N] [--backoff-ms N]\n  \
         cfd algos\n\
         \n\
         algorithms (cfd algos): {}\n\
         (--threads parallelizes discovery with every algorithm — fastcfd/naive shard\n\
         \x20 FindCover, ctane/tane shard level expansion, cfdminer its mining pass —\n\
         \x20 check, and watch's batches and re-mining, on at most as many workers as\n\
         \x20 there are cores; output is identical at any thread count;\n\
         \x20 --min-confidence mines approximate covers with ctane/tane/cfdminer;\n\
         \x20 rule files are strict — --lenient skips unparseable lines instead;\n\
         \x20 watch --remine re-mines drifted rules in place: when a rule's live\n\
         \x20 confidence drops below --remine-theta, its attribute neighborhood\n\
         \x20 (LHS u RHS plus --remine-expand extra attributes) is re-discovered\n\
         \x20 under theta and the cover is atomically repaired (REMINE lines);\n\
         \x20 serve hosts a dataset registry + job queue over newline-delimited JSON/TCP\n\
         \x20 (--job-timeout-ms caps each job, --io-timeout-ms/--idle-ms reap stalled or\n\
         \x20 idle connections, --faults unlocks the test-only inject op);\n\
         \x20 client pipes a scripted session to it in lockstep (stdin -> requests,\n\
         \x20 stdout <- replies; --retries/--backoff-ms retry transient overload errors,\n\
         \x20 --io-timeout-ms turns a silent server into a clean nonzero exit);\n\
         \x20 --trace prints a span-time summary to stderr, --metrics-out FILE\n\
         \x20 writes the run's counters/gauges/histograms as JSON)",
        Algo::all().map(|a| a.name()).join("|")
    );
    ExitCode::from(2)
}

/// A bad invocation: the offending flag/value, reported verbatim.
fn arg_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("(run `cfd` without arguments for usage)");
    ExitCode::from(2)
}

/// Stdout for one command: locked once and buffered, so output reaches
/// the reader at each flush and in 8 KiB writes, not one write per line.
fn stdout() -> BufWriter<StdoutLock<'static>> {
    BufWriter::new(std::io::stdout().lock())
}

/// Flushes `out` after a command's writes (`written`) and ends the
/// command with `code`. A reader that closed stdout early (`cfd
/// discover … | head`) is no error: the command ends quietly, with the
/// exit code of its result.
fn finish_output(
    out: &mut impl Write,
    written: std::io::Result<()>,
    code: ExitCode,
) -> Result<ExitCode> {
    match written.and_then(|()| out.flush()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(Error::from(e)),
        _ => Ok(code),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

/// One [`ObsSession`] per CLI invocation (`cfd serve` keeps one for
/// the whole server lifetime instead; see `cfd_serve::session`).
fn obs_session(a: &Args) -> ObsSession {
    ObsSession::start(a.trace, a.metrics_out.clone())
}

struct Args {
    positional: Vec<String>,
    algo: Algo,
    /// The discover flags; `--threads` also sizes ingest, `check`,
    /// `watch` and re-mining.
    opts: DiscoverOptions,
    project: Option<String>,
    tableau: bool,
    limit: usize,
    lenient: bool,
    format: Format,
    remine: bool,
    /// `--remine-theta` and `--remine-expand`.
    remine_opts: RemineOptions,
    trace: bool,
    metrics_out: Option<String>,
    addr: String,
    workers: usize,
    queue_depth: usize,
    registry_budget_mb: usize,
    max_line_kb: usize,
    job_timeout_ms: u64,
    io_timeout_ms: u64,
    idle_ms: u64,
    faults: bool,
    retries: usize,
    backoff_ms: u64,
    remine_timeout_ms: u64,
}

/// Parses flags, reporting the offending flag/value on failure (the
/// caller exits 2 with the message).
fn parse_args(argv: &[String]) -> std::result::Result<Args, String> {
    let mut a = Args {
        positional: Vec::new(),
        algo: Algo::FastCfd,
        opts: DiscoverOptions::default(),
        project: None,
        tableau: false,
        limit: 20,
        lenient: false,
        format: Format::Text,
        remine: false,
        remine_opts: RemineOptions::default(),
        trace: false,
        metrics_out: None,
        addr: "127.0.0.1:4617".to_string(),
        workers: 2,
        queue_depth: 32,
        registry_budget_mb: 1024,
        max_line_kb: 64,
        job_timeout_ms: 0,
        io_timeout_ms: 0,
        idle_ms: 0,
        faults: false,
        retries: 0,
        backoff_ms: 250,
        remine_timeout_ms: 0,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("missing value for {flag}"));
        let number = |flag: &str, v: &str| {
            v.parse::<usize>().map_err(|_| {
                format!("invalid value {v:?} for {flag}: expected a non-negative integer")
            })
        };
        match arg.as_str() {
            "--k" => a.opts.k = number("--k", value("--k")?)?,
            "--algo" => {
                let v = value("--algo")?;
                a.algo = Algo::parse(v).map_err(|e| e.to_string())?;
            }
            "--max-lhs" => a.opts.max_lhs = Some(number("--max-lhs", value("--max-lhs")?)?),
            "--threads" => a.opts.threads = number("--threads", value("--threads")?)?,
            "--min-confidence" => {
                let v = value("--min-confidence")?;
                a.opts.min_confidence = v.parse::<f64>().map_err(|_| {
                    format!("invalid value {v:?} for --min-confidence: expected a number in (0, 1]")
                })?;
            }
            "--top-k" => a.opts.top_k = Some(number("--top-k", value("--top-k")?)?),
            "--limit" => a.limit = number("--limit", value("--limit")?)?,
            "--project" => a.project = Some(value("--project")?.clone()),
            "--format" => {
                a.format = match value("--format")?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => {
                        return Err(format!(
                            "invalid value {other:?} for --format: expected \"text\" or \"json\""
                        ))
                    }
                }
            }
            "--addr" => a.addr = value("--addr")?.clone(),
            "--workers" => a.workers = number("--workers", value("--workers")?)?,
            "--queue-depth" => a.queue_depth = number("--queue-depth", value("--queue-depth")?)?,
            "--registry-budget-mb" => {
                a.registry_budget_mb =
                    number("--registry-budget-mb", value("--registry-budget-mb")?)?
            }
            "--max-line-kb" => a.max_line_kb = number("--max-line-kb", value("--max-line-kb")?)?,
            "--job-timeout-ms" => {
                a.job_timeout_ms = number("--job-timeout-ms", value("--job-timeout-ms")?)? as u64
            }
            "--io-timeout-ms" => {
                a.io_timeout_ms = number("--io-timeout-ms", value("--io-timeout-ms")?)? as u64
            }
            "--idle-ms" => a.idle_ms = number("--idle-ms", value("--idle-ms")?)? as u64,
            "--faults" => a.faults = true,
            "--retries" => a.retries = number("--retries", value("--retries")?)?,
            "--backoff-ms" => a.backoff_ms = number("--backoff-ms", value("--backoff-ms")?)? as u64,
            "--remine-timeout-ms" => {
                a.remine_timeout_ms =
                    number("--remine-timeout-ms", value("--remine-timeout-ms")?)? as u64
            }
            "--remine" => a.remine = true,
            "--remine-theta" => {
                let v = value("--remine-theta")?;
                let invalid =
                    |why: String| format!("invalid value {v:?} for --remine-theta: {why}");
                a.remine_opts.theta = v
                    .parse::<f64>()
                    .map_err(|_| invalid("expected a number".into()))?;
                RemineOptions::check_theta(a.remine_opts.theta).map_err(invalid)?;
            }
            "--remine-expand" => {
                a.remine_opts.expand = number("--remine-expand", value("--remine-expand")?)?
            }
            "--constants-only" => a.opts.constants_only = true,
            "--tableau" => a.tableau = true,
            "--lenient" => a.lenient = true,
            "--trace" => a.trace = true,
            "--metrics-out" => a.metrics_out = Some(value("--metrics-out")?.clone()),
            other if !other.starts_with('-') => a.positional.push(other.to_string()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(a)
}

fn discover(a: &Args) -> Result<ExitCode> {
    // flag-conflict check before the (possibly huge) CSV is parsed
    if a.tableau && a.format == Format::Json {
        return Ok(arg_error("--tableau conflicts with --format json"));
    }
    let obs = obs_session(a);
    let rel = obs.load_csv(&a.positional[0], a.opts.threads)?;
    let mut opts = a.opts.clone();
    if let Some(names) = &a.project {
        let parts: Vec<&str> = names.split(',').map(str::trim).collect();
        match rel.schema().attr_set(&parts) {
            Ok(set) => opts.project = Some(set),
            // a bad attribute name is a usage error (exit 2), like
            // every other bad flag value
            Err(e) => {
                return Ok(arg_error(&format!(
                    "invalid value {names:?} for --project: {e}"
                )))
            }
        }
    }
    eprintln!(
        "# {}: {} tuples x {} attributes, k = {}, algo = {}",
        a.positional[0],
        rel.n_rows(),
        rel.arity(),
        opts.k,
        a.algo,
    );
    let discovery = match a.algo.discover_with(&rel, &opts, &obs.control()) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::from(2));
        }
    };
    obs.finish()?;
    // ignored options surface as structured notes; in text mode they
    // render as warnings, in JSON they ride along in the document
    for note in &discovery.notes {
        eprintln!("# warning: {note}");
    }
    let out_rel = discovery.relation(&rel);
    let (nc, nv) = discovery.cover.counts();
    eprintln!(
        "# {} rules ({nc} constant, {nv} variable) in {:.2?}",
        discovery.cover.len(),
        discovery.total_time(),
    );
    let mut out = stdout();
    let written = match a.format {
        Format::Json => {
            let mut doc = discovery.to_json(&rel);
            if let Json::Obj(pairs) = &mut doc {
                pairs.insert(0, ("command".into(), Json::from("discover")));
                pairs.insert(1, ("dataset".into(), Json::from(a.positional[0].as_str())));
            }
            writeln!(out, "{doc}")
        }
        Format::Text if a.tableau => group_into_tableaux(&discovery.cover)
            .iter()
            .try_for_each(|t| write!(out, "{}", t.display(out_rel))),
        // approximate and top-k runs print each rule with its measured
        // [support=N conf=F] suffix (check/repair/watch parse past it);
        // exact full covers keep the bare wire format
        Format::Text if opts.min_confidence < 1.0 || opts.top_k.is_some() => {
            write!(out, "{}", discovery.to_annotated_text(&rel))
        }
        Format::Text => write!(out, "{}", discovery.cover.to_text(out_rel)),
    };
    finish_output(&mut out, written, ExitCode::SUCCESS)
}

/// Rule loading for `check`/`repair`: constants must occur in `rel`.
/// The strict/lenient policy lives in `cfd_serve::session`, shared
/// with `watch` (interning parser) and the server's inline rules.
fn load_rules(rel: &Relation, path: &str, lenient: bool) -> Result<Vec<(String, Cfd)>> {
    load_rules_file_with(path, lenient, |line| parse_cfd(rel, line))
}

fn check(a: &Args) -> Result<ExitCode> {
    let obs = obs_session(a);
    let rel = obs.load_csv(&a.positional[0], a.opts.threads)?;
    let rules = load_rules(&rel, &a.positional[1], a.lenient)?;
    eprintln!(
        "# checking {} rules against {} ({} threads)",
        rules.len(),
        a.positional[0],
        a.opts.threads.max(1),
    );
    // one kernel pass over the relation for the whole cover: rules
    // sharing an LHS wildcard set share a grouping, and the sample cap
    // keeps per-rule output bounded while the counters stay exact
    let report = validate_with(
        &rel,
        rules.iter().map(|(_, cfd)| cfd),
        &ValidateOptions {
            threads: a.opts.threads,
            limit: a.limit,
        },
        &obs.control(),
    );
    obs.finish()?;
    let code = if report.satisfied() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    };
    let mut out = stdout();
    let written = if a.format == Format::Json {
        let mut doc = report.to_json();
        if let Json::Obj(pairs) = &mut doc {
            pairs.insert(0, ("command".into(), Json::from("check")));
            pairs.insert(1, ("dataset".into(), Json::from(a.positional[0].as_str())));
            pairs.insert(
                2,
                ("rules_file".into(), Json::from(a.positional[1].as_str())),
            );
        }
        // attach each rule's wire text to its report object (shared
        // with the server's check results)
        attach_rule_texts(&mut doc, &rules);
        writeln!(out, "{doc}")
    } else {
        print_report(&mut out, &report, &rules, &rel)
    };
    finish_output(&mut out, written, code)
}

/// `check`'s text report: each violated rule with its sampled
/// violations, or `OK` when every rule holds.
fn print_report(
    out: &mut impl Write,
    report: &ValidationReport,
    rules: &[(String, Cfd)],
    rel: &Relation,
) -> std::io::Result<()> {
    for r in &report.rules {
        if r.satisfied() {
            continue;
        }
        let (text, _) = &rules[r.rule];
        writeln!(out, "VIOLATED {text}")?;
        for v in &r.sample {
            match v {
                Violation::Single(t) => {
                    writeln!(out, "  tuple {}: {:?}", t + 1, rel.tuple_values(*t))?
                }
                Violation::Pair(t1, t2) => writeln!(
                    out,
                    "  tuples {} and {}: {:?} vs {:?}",
                    t1 + 1,
                    t2 + 1,
                    rel.tuple_values(*t1),
                    rel.tuple_values(*t2)
                )?,
            }
        }
        if r.violations > r.sample.len() {
            writeln!(
                out,
                "  ... {} more violations (raise --limit)",
                r.violations - r.sample.len()
            )?;
        }
    }
    if report.satisfied() {
        writeln!(out, "OK: all rules hold")?;
    }
    Ok(())
}

fn repair(a: &Args) -> Result<ExitCode> {
    let rel = relation_from_csv_path(&a.positional[0])?;
    let rules: Vec<Cfd> = load_rules(&rel, &a.positional[1], a.lenient)?
        .into_iter()
        .map(|(_, cfd)| cfd)
        .collect();
    let repair = repair_cover(&rel, &rules);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&a.positional[2])?);
    cfd_suite::model::csv::relation_to_csv(&repair.repaired, &mut out)?;
    out.flush().map_err(cfd_suite::prelude::Error::from)?;
    eprintln!(
        "# {} cell edits applied; violations {} -> {}; wrote {}",
        repair.edits.len(),
        repair.violations_before,
        repair.violations_after,
        a.positional[2]
    );
    for r in repair.edits.iter().take(10) {
        eprintln!(
            "#   tuple {} {}: {:?} -> {:?}",
            r.tuple + 1,
            rel.schema().name(r.attr),
            rel.column(r.attr).dict().value(r.current),
            rel.column(r.attr).dict().value(r.suggested),
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs one `--remine` cycle after an applied batch: trigger on any
/// rule whose live confidence fell below `--remine-theta`, re-discover
/// its attribute neighborhood, swap the cover atomically, and narrate
/// the delta as `REMINE` lines (`REMINE-` retired, `REMINE+` added,
/// then the kernel-validated post-state).
fn remine_cycle(out: &mut impl Write, engine: &mut StreamEngine, a: &Args) -> std::io::Result<()> {
    use cfd_suite::model::progress::Control;
    let ropts = RemineOptions {
        threads: a.opts.threads,
        ..a.remine_opts
    };
    let mut ctrl = Control::default();
    let deadline = (a.remine_timeout_ms > 0)
        .then(|| std::time::Instant::now() + std::time::Duration::from_millis(a.remine_timeout_ms));
    if let Some(d) = deadline {
        ctrl = ctrl.deadline_with(d);
    }
    let Ok(outcome) = remine(engine, &ropts, &ctrl) else {
        // the deadline tripped mid-mine; the cover swap is atomic, so
        // the engine still runs the pre-remine rules — keep watching
        return writeln!(
            out,
            "REMINE timeout after {} ms (cover unchanged, rules={})",
            a.remine_timeout_ms,
            engine.rules().len()
        );
    };
    let Some(delta) = outcome else { return Ok(()) };
    let names: Vec<&str> = delta
        .neighborhood
        .iter()
        .map(|&at| engine.schema().name(at))
        .collect();
    writeln!(
        out,
        "REMINE retired={} added={} theta={} neighborhood=[{}]",
        delta.retired.len(),
        delta.replacement.len(),
        ropts.theta,
        names.join(", "),
    )?;
    for r in &delta.retired {
        writeln!(
            out,
            "REMINE- {} confidence={:.4}",
            r.text,
            r.measure.confidence()
        )?;
    }
    for (text, m) in delta
        .replacement_texts
        .iter()
        .zip(&delta.replacement_measures)
    {
        writeln!(out, "REMINE+ {text} confidence={:.4}", m.confidence())?;
    }
    writeln!(
        out,
        "REMINE verified rules={} min_confidence={:.4} live_violations={}",
        engine.rules().len(),
        delta.min_confidence(),
        engine.n_violations()
    )
}

/// Streaming watch loop: warm the incremental engine on the initial
/// CSV, then apply insert/delete batches from stdin and print violation
/// deltas. Protocol, one operation per line:
///
/// * `<v1>,<v2>,…` or `+<v1>,<v2>,…` — stage a tuple insert (use the
///   `+` prefix when the first field itself starts with `#` or `-`),
/// * `-<row id>` — stage a delete (ids are printed on insert and are
///   stable: the initial CSV occupies `0..n`),
/// * empty line or `.` — apply the staged batch (deletes first, then
///   inserts, so a row can be replaced in one flush) and print its
///   delta; a rejected half (bad width, dead id) aborts the whole
///   flush, discarding both halves,
/// * `#…` — comment, ignored,
/// * `?` — print per-rule statistics.
///
/// Unlike `check`, rule constants need not occur in the initial CSV:
/// they are interned into the dictionaries up front, so a monitoring
/// rule can precede the first tuple it matches. Rule files follow the
/// same strictness policy as `check`: unparseable lines abort unless
/// `--lenient`. EOF applies any staged batch and prints final
/// statistics. Stdout is flushed after the warm window's violations,
/// after each applied batch (its `BATCH` and `REMINE` lines included),
/// after each `?` answer and at EOF. Exit code 0 when the final live
/// instance satisfies every rule, 1 otherwise.
fn watch(a: &Args) -> Result<ExitCode> {
    use cfd_suite::model::cfd::parse_cfd_interning;

    let obs = obs_session(a);
    let mut rel = obs.load_csv(&a.positional[0], 1)?;
    let loaded = load_rules_file_with(&a.positional[1], a.lenient, |line| {
        parse_cfd_interning(&mut rel, line)
    })?;
    let cfds: Vec<Cfd> = loaded.into_iter().map(|(_, c)| c).collect();
    let (engine, warm) = StreamEngine::warm(&rel, cfds, a.opts.threads);
    let mut engine = engine.metrics_with(obs.registry().clone());
    eprintln!(
        "# watching {} rules over {} ({} tuples)",
        engine.rules().len(),
        a.positional[0],
        engine.n_live(),
    );
    let mut out = stdout();
    let streamed = stream_ops(&mut out, &mut engine, a, &warm);
    obs.finish()?;
    let code = if engine.n_violations() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    };
    finish_output(&mut out, streamed, code)
}

/// `watch`'s session on `out`: the warm window's violations, then the
/// stdin operations until EOF, which applies whatever is staged (a
/// piped session need not end with a flush line) and prints the final
/// statistics.
fn stream_ops(
    out: &mut impl Write,
    engine: &mut StreamEngine,
    a: &Args,
    warm: &BatchDelta,
) -> std::io::Result<()> {
    print_delta(out, engine, warm)?;
    out.flush()?;
    let mut stdin = std::io::stdin().lock();
    let mut line = String::new();
    // the staged insert rows, one line each, split into fields when the
    // batch is applied
    let mut inserts = String::new();
    let mut deletes: Vec<u32> = Vec::new();
    loop {
        line.clear();
        if stdin.read_line(&mut line)? == 0 {
            break;
        }
        match line.trim() {
            "" | "." => {
                apply_batch(out, engine, a, &inserts, &deletes)?;
                inserts.clear();
                deletes.clear();
            }
            "?" => {
                print_stats(out, engine)?;
                out.flush()?;
            }
            op if op.starts_with('#') => {}
            op => match op.strip_prefix('-') {
                Some(id) => match id.trim().parse::<u32>() {
                    Ok(id) => deletes.push(id),
                    Err(_) => eprintln!("# bad delete (want -<row id>): {op:?}"),
                },
                None => {
                    inserts.push_str(op.strip_prefix('+').unwrap_or(op));
                    inserts.push('\n');
                }
            },
        }
    }
    apply_batch(out, engine, a, &inserts, &deletes)?;
    print_stats(out, engine)?;
    out.flush()
}

/// Applies one staged batch, deletes first, then inserts, and prints
/// its delta, its `BATCH` summary and any `--remine` cycle, then
/// flushes. The batch is all or nothing: a row of the wrong width, or a
/// dead or repeated id, rejects both halves before either is applied.
fn apply_batch(
    out: &mut impl Write,
    engine: &mut StreamEngine,
    a: &Args,
    inserts: &str,
    deletes: &[u32],
) -> std::io::Result<()> {
    let rejected = |why: &dyn std::fmt::Display| {
        eprintln!("# batch rejected (both halves discarded): {why}");
        Ok(())
    };
    // the staged rows split into one flat field list, each row
    // width-checked as it is split, then taken `arity` fields at a time
    let arity = engine.schema().arity();
    let mut fields: Vec<&str> = Vec::new();
    for row in inserts.split_terminator('\n') {
        let start = fields.len();
        fields.extend(row.split(',').map(str::trim));
        let width = fields.len() - start;
        if width != arity {
            return rejected(&format_args!(
                "row has {width} values, schema has arity {arity}"
            ));
        }
    }
    let rows: Vec<&[&str]> = fields.chunks_exact(arity).collect();
    let (mut raised, mut cleared) = (0, 0);
    if !deletes.is_empty() {
        // `delete_batch` rejects a dead or repeated id before it
        // touches any row
        let delta = match engine.delete_batch(deletes) {
            Ok(delta) => delta,
            Err(e) => return rejected(&e),
        };
        raised += delta.raised.len();
        cleared += delta.cleared.len();
        print_delta(out, engine, &delta)?;
    }
    if !rows.is_empty() {
        let (ids, delta) = engine
            .insert_batch(&rows)
            .expect("row widths are checked above");
        writeln!(
            out,
            "APPLIED +{} rows {}..={}",
            ids.len(),
            ids[0],
            ids[ids.len() - 1]
        )?;
        raised += delta.raised.len();
        cleared += delta.cleared.len();
        print_delta(out, engine, &delta)?;
    }
    // per-batch summary: what this flush changed and where the live
    // window stands now
    if !deletes.is_empty() || !rows.is_empty() {
        writeln!(
            out,
            "BATCH +{} -{} raised={raised} cleared={cleared} live={} violations={}",
            rows.len(),
            deletes.len(),
            engine.n_live(),
            engine.n_violations(),
        )?;
    }
    if a.remine {
        remine_cycle(out, engine, a)?;
    }
    out.flush()
}

/// Prints a delta as `RAISED` / `CLEARED` lines. Rule texts come from
/// the engine (not the rules file): a `--remine` swap retires and adds
/// rules mid-session, and the engine's cached display strings are the
/// only ones that stay in sync.
fn print_delta(
    out: &mut impl Write,
    engine: &StreamEngine,
    delta: &BatchDelta,
) -> std::io::Result<()> {
    for &(r, v) in &delta.raised {
        match v {
            Violation::Single(t) => {
                let vals = engine.row_values(t).unwrap_or_default();
                writeln!(out, "RAISED {} tuple {t}: {vals:?}", engine.rule_text(r))?;
            }
            Violation::Pair(t1, t2) => {
                let v2 = engine.row_values(t2).unwrap_or_default();
                writeln!(
                    out,
                    "RAISED {} tuples {t1} and {t2}: {v2:?}",
                    engine.rule_text(r)
                )?;
            }
        }
    }
    for &(r, v) in &delta.cleared {
        match v {
            Violation::Single(t) => writeln!(out, "CLEARED {} tuple {t}", engine.rule_text(r))?,
            Violation::Pair(t1, t2) => {
                writeln!(out, "CLEARED {} tuples {t1} and {t2}", engine.rule_text(r))?
            }
        }
    }
    Ok(())
}

/// Prints the per-rule `STATS` lines and the live totals.
fn print_stats(out: &mut impl Write, engine: &StreamEngine) -> std::io::Result<()> {
    for s in engine.stats() {
        writeln!(
            out,
            "STATS rule {} matched={} violations={} confidence={:.4}  {}",
            s.rule,
            s.matched(),
            s.violations,
            s.confidence(),
            engine.rule_text(s.rule)
        )?;
    }
    writeln!(
        out,
        "STATS live={} violations={}",
        engine.n_live(),
        engine.n_violations()
    )
}

/// Binds and runs the resident service. The first stdout line is
/// `SERVE <addr>` (the resolved address — pass `--addr host:0` for an
/// ephemeral port), so scripts can wait for readiness and learn the
/// port in one read. Runs until a client sends `{"op": "shutdown"}`.
fn serve(a: &Args) -> Result<ExitCode> {
    let ms = |v: u64| (v > 0).then(|| std::time::Duration::from_millis(v));
    let bytes = |flag: &str, n: usize, unit: usize| {
        n.checked_mul(unit)
            .ok_or_else(|| format!("invalid value {n} for {flag}: too large"))
    };
    let budgets = bytes("--registry-budget-mb", a.registry_budget_mb, 1 << 20)
        .and_then(|r| Ok((r, bytes("--max-line-kb", a.max_line_kb, 1 << 10)?)));
    let (registry_budget, max_line) = match budgets {
        Ok(b) => b,
        Err(e) => return Ok(arg_error(&e)),
    };
    let opts = ServeOptions {
        addr: a.addr.clone(),
        workers: a.workers,
        queue_depth: a.queue_depth,
        registry_budget,
        max_line,
        job_timeout: ms(a.job_timeout_ms),
        io_timeout: ms(a.io_timeout_ms),
        idle_timeout: ms(a.idle_ms),
        fault_injection: a.faults,
    };
    let server = Server::bind(&opts).map_err(Error::from)?;
    // the server's registry is the session's: ingest/job/serve metrics
    // from every connection land in one place, flushed at shutdown
    let obs = ObsSession::with_registry(server.metrics(), a.trace, a.metrics_out.clone());
    let addr = server.local_addr();
    println!("SERVE {addr}");
    std::io::stdout().flush().map_err(Error::from)?;
    eprintln!(
        "# cfd serve: listening on {addr} ({} workers, queue depth {}, registry {} MiB, \
         lines capped at {} KiB)",
        opts.workers.max(1),
        opts.queue_depth.max(1),
        a.registry_budget_mb,
        a.max_line_kb,
    );
    server.run().map_err(Error::from)?;
    obs.finish()?;
    Ok(ExitCode::SUCCESS)
}

/// A scripted client: sends stdin lines (blank/`#` skipped) to the
/// server *in lockstep* — each request waits for its reply (event lines
/// stream through as they arrive) before the next is sent. Exits 0 when
/// every reply was `"ok": true`, 1 otherwise — so a scripted session
/// doubles as a smoke test. A reader that closes stdout early (`cfd
/// client … | head`) ends the script quietly: no further request is
/// sent, and the exit code is that of the replies received.
///
/// Transient overload replies (`queue_full`, `registry_budget`) are
/// retried up to `--retries` times with exponential backoff and jitter,
/// seeded by the server's `retry_after_ms` hint (else `--backoff-ms`).
/// With `--io-timeout-ms`, a server that stops responding mid-session
/// is a clear error and a nonzero exit, not a hang.
fn client(a: &Args) -> Result<ExitCode> {
    use cfd_suite::serve::client::{Client, ClientRead};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::Duration;

    let io_timeout = (a.io_timeout_ms > 0).then(|| Duration::from_millis(a.io_timeout_ms));
    // retry briefly: the usual caller just forked `cfd serve`
    let mut attempt = 0;
    let mut conn = loop {
        match Client::connect(a.positional[0].as_str(), io_timeout) {
            Ok(c) => break c,
            Err(_) if attempt < 25 => {
                attempt += 1;
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(e) => return Err(Error::from(e)),
        }
    };
    let stalled = || -> Result<ExitCode> {
        eprintln!(
            "error: server stopped responding (no data for {} ms)",
            a.io_timeout_ms
        );
        std::io::stdout().flush().map_err(Error::from)?;
        Ok(ExitCode::FAILURE)
    };
    // fixed seed: jitter exists to spread a herd of clients, and these
    // are independent processes — determinism per process keeps
    // scripted sessions reproducible
    let mut rng = StdRng::seed_from_u64(0xcfd_c11e47);
    let mut failed = false;
    let mut server_gone = false;
    // each line flushes as it ends, so scripts can drive the session in
    // lockstep; `open` turns false once the reader of stdout went away
    let mut out = std::io::stdout().lock();
    let mut open = true;
    let stdin = std::io::stdin();
    'script: for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim().to_string();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut attempts_left = a.retries;
        let mut backoff = a.backoff_ms.max(1);
        loop {
            if conn.send(&line).is_err() {
                server_gone = true;
                break 'script;
            }
            // stream events through until this request's reply arrives
            let text = match conn
                .reply(|event| open = open && writeln!(out, "{event}").is_ok())
                .map_err(Error::from)?
            {
                ClientRead::Line(l) => l,
                ClientRead::Eof => {
                    server_gone = true;
                    break 'script;
                }
                ClientRead::TimedOut => return stalled(),
            };
            let doc = Json::parse(&text).ok();
            let ok = doc
                .as_ref()
                .and_then(|d| d.get("ok"))
                .and_then(Json::as_bool);
            let error = doc.as_ref().and_then(|d| d.get("error"));
            let code = error.and_then(|e| e.get("code")).and_then(Json::as_str);
            let transient = matches!(code, Some("queue_full" | "registry_budget"));
            if ok == Some(false) && transient && attempts_left > 0 {
                // prefer the server's own estimate of when capacity
                // frees up; fall back to the local backoff schedule
                let hint = error
                    .and_then(|e| e.get("retry_after_ms"))
                    .and_then(Json::as_f64)
                    .map(|ms| ms as u64);
                let base = hint.unwrap_or(backoff).max(1);
                let jitter = rng.gen_range(0..=base / 4);
                eprintln!(
                    "# transient {} — retrying in {} ms ({} attempts left)",
                    code.unwrap_or("error"),
                    base + jitter,
                    attempts_left,
                );
                std::thread::sleep(Duration::from_millis(base + jitter));
                attempts_left -= 1;
                backoff = (backoff * 2).min(30_000);
                continue;
            }
            if ok == Some(false) {
                failed = true;
            }
            open = open && writeln!(out, "{text}").is_ok();
            break;
        }
        if !open {
            break;
        }
    }
    // half-close: the server keeps streaming (async job events) until
    // its side is done
    let _ = conn.finish_sending();
    loop {
        match conn.read().map_err(Error::from)? {
            ClientRead::Eof => break,
            ClientRead::TimedOut => return stalled(),
            ClientRead::Line(l) => {
                if let Ok(doc) = Json::parse(&l) {
                    if doc.get("ok").and_then(Json::as_bool) == Some(false) {
                        failed = true;
                    }
                }
                open = open && writeln!(out, "{l}").is_ok();
            }
        }
    }
    // a server that vanished mid-script (crash, injected disconnect)
    // is a failure even if every completed reply was ok
    Ok(if failed || server_gone {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn stats(a: &Args) -> Result<ExitCode> {
    let rel = relation_from_csv_path(&a.positional[0])?;
    let mut out = stdout();
    let written = (|| -> std::io::Result<()> {
        writeln!(out, "file:    {}", a.positional[0])?;
        writeln!(out, "tuples:  {}", rel.n_rows())?;
        writeln!(out, "arity:   {}", rel.arity())?;
        writeln!(out, "CF:      {:.4}", rel.correlation_factor())?;
        writeln!(out, "columns:")?;
        for at in 0..rel.arity() {
            writeln!(
                out,
                "  {:<20} |dom| = {}",
                rel.schema().name(at),
                rel.column(at).domain_size()
            )?;
        }
        Ok(())
    })();
    finish_output(&mut out, written, ExitCode::SUCCESS)
}

/// Lists the registered algorithm names, one per line — `Algo::all()`
/// drives this, the `--algo` table, and the CI algorithm matrix, so
/// the three can never drift apart.
fn algos() -> Result<ExitCode> {
    let mut out = stdout();
    let written = Algo::all()
        .iter()
        .try_for_each(|a| writeln!(out, "{}", a.name()));
    finish_output(&mut out, written, ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return usage();
    }
    let cmd = argv[0].clone();
    let args = match parse_args(&argv[1..]) {
        Ok(a) => a,
        Err(msg) => return arg_error(&msg),
    };
    let need = match cmd.as_str() {
        "discover" | "stats" | "client" => 1,
        "check" | "watch" => 2,
        "repair" => 3,
        "algos" | "serve" => 0,
        _ => return usage(),
    };
    if args.positional.len() != need {
        return arg_error(&format!(
            "`cfd {cmd}` takes {need} positional argument(s), got {}",
            args.positional.len()
        ));
    }
    let run = match cmd.as_str() {
        "discover" => discover(&args),
        "check" => check(&args),
        "repair" => repair(&args),
        "stats" => stats(&args),
        "watch" => watch(&args),
        "serve" => serve(&args),
        "client" => client(&args),
        "algos" => algos(),
        _ => unreachable!(),
    };
    match run {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
