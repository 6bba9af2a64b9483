//! The wire protocol: newline-delimited JSON requests and replies.
//!
//! Every request is one JSON object on one line with an `"op"` field;
//! every reply is one JSON object on one line with `"ok": true` (plus
//! op-specific fields) or `"ok": false` and a structured
//! `{"code", "message"}` error. Job events (`started` / `progress` /
//! `done` / `failed` / `cancelled`) are objects with an `"event"` field
//! instead of `"ok"`, so a client can tell replies from asynchronous
//! notifications without tracking state. The full grammar is DESIGN.md
//! §12.
//!
//! Parsing is defensive by construction: requests run through the
//! strict [`cfd_model::json`] parser (depth-capped, full-line, no
//! trailing garbage), lines longer than the configured cap are
//! discarded *without buffering them* ([`read_line_capped`]), and
//! every failure maps to a [`ServeError`] code the client can switch
//! on. A malformed line never kills the connection — the reader
//! answers with the error and keeps going.

use cfd_core::api::{Algo, DiscoverOptions};
use cfd_model::Json;
use cfd_stream::RemineOptions;
use std::io::BufRead;

/// Default cap on one protocol line (64 KiB): generous for any real
/// request (a `check` with hundreds of inline rules fits comfortably)
/// while bounding what one client can make the server buffer.
pub const DEFAULT_MAX_LINE: usize = 64 * 1024;

/// A structured protocol error: a stable machine-readable `code` plus
/// a human-readable message. The codes are part of the wire contract
/// (DESIGN.md §12 lists them all; §14 classifies each by trigger and
/// retryability). Transient overload errors (`queue_full`,
/// `registry_budget`) additionally carry a computed `retry_after_ms`
/// hint so clients can back off intelligently instead of guessing.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeError {
    /// Stable error code (`bad_json`, `unknown_dataset`, `queue_full`, …).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// For transient overload errors: how long the server suggests
    /// waiting before a retry. `None` for every non-retryable code.
    pub retry_after_ms: Option<u64>,
}

impl ServeError {
    /// Builds an error with `code` and `message`.
    pub fn new(code: &'static str, message: impl Into<String>) -> ServeError {
        ServeError {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Attaches a retry hint (transient overload errors only).
    pub fn retry_after(mut self, ms: u64) -> ServeError {
        self.retry_after_ms = Some(ms);
        self
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServeError {}

/// The `{"ok": false, …}` reply for `err`, tagged with the op when it
/// is known (a line that failed to parse has none).
pub fn error_reply(op: Option<&str>, err: &ServeError) -> Json {
    let mut fields = vec![("ok".to_string(), Json::from(false))];
    if let Some(op) = op {
        fields.push(("op".to_string(), Json::from(op)));
    }
    fields.push(("error".to_string(), error_json(err)));
    Json::Obj(fields)
}

/// The `{"code", "message"[, "retry_after_ms"]}` error object embedded
/// in replies, `failed` events, and `status` rows.
pub fn error_json(err: &ServeError) -> Json {
    let mut detail = vec![
        ("code".to_string(), Json::from(err.code)),
        ("message".to_string(), Json::from(err.message.as_str())),
    ];
    if let Some(ms) = err.retry_after_ms {
        detail.push(("retry_after_ms".to_string(), Json::from(ms)));
    }
    Json::Obj(detail)
}

/// The `{"ok": true, "op": …, …}` reply skeleton: `fields` ride after
/// the two fixed keys.
pub fn ok_reply<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(op: &str, fields: I) -> Json {
    let mut pairs = vec![
        ("ok".to_string(), Json::from(true)),
        ("op".to_string(), Json::from(op)),
    ];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.into(), v)));
    Json::Obj(pairs)
}

/// A job event line: `{"event": …, "job": N, …}`.
pub fn event(kind: &str, job: u64, fields: Vec<(String, Json)>) -> Json {
    let mut pairs = vec![
        ("event".to_string(), Json::from(kind)),
        ("job".to_string(), Json::from(job)),
    ];
    pairs.extend(fields);
    Json::Obj(pairs)
}

/// Discover-job knobs carried by a `discover` request. Mirrors the
/// `cfd discover` flags (same defaults), minus `--project`: the options
/// codec ([`DiscoverOptions::from_json`]) does not read it, since
/// resolving attribute names needs the dataset's schema (run
/// `cfd discover --project` one-shot, or register the projected CSV).
#[derive(Clone, Debug, PartialEq)]
pub struct DiscoverRequest {
    /// Target dataset (registry name).
    pub dataset: String,
    /// Algorithm (`"fastcfd"` default, as in the CLI).
    pub algo: Algo,
    /// Discovery options (`k`, `max_lhs`, `threads`, `constants_only`,
    /// `min_confidence`, `top_k`).
    pub opts: DiscoverOptions,
    /// `cache_budget_mb`, in bytes. No algorithm keeps partitions
    /// under a budget, so every run notes it as ignored
    /// (`cache-budget-mb`).
    pub cache_budget: Option<usize>,
    /// Block the connection until the job finishes and carry the
    /// result in the reply (progress events still stream).
    pub sync: bool,
    /// Per-job deadline in milliseconds (overrides the server-wide
    /// `--job-timeout-ms` default; `None` inherits it).
    pub timeout_ms: Option<u64>,
}

/// A parsed protocol request — one variant per op.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Ingest and name a dataset: from a server-side CSV `path` or an
    /// inline `csv` body (exactly one of the two).
    Register {
        /// Registry name for the dataset.
        name: String,
        /// Server-side CSV path to ingest.
        path: Option<String>,
        /// Inline CSV text.
        csv: Option<String>,
        /// Pinned datasets are never evicted under budget pressure.
        pin: bool,
    },
    /// List registered datasets.
    Datasets,
    /// Drop a dataset (running jobs keep their `Arc` until they end).
    Unregister {
        /// Registry name to drop.
        name: String,
    },
    /// Submit a discovery job.
    Discover(DiscoverRequest),
    /// Submit a validation job over inline rule texts.
    Check {
        /// Target dataset.
        dataset: String,
        /// Rule texts in the `cfd check` wire format.
        rules: Vec<String>,
        /// Violation-sample cap per rule (counters stay exact).
        limit: usize,
        /// Kernel worker threads.
        threads: usize,
        /// Reply with the report instead of a job ticket.
        sync: bool,
        /// Per-job deadline in milliseconds.
        timeout_ms: Option<u64>,
    },
    /// Submit a re-mining job: run one drift-triggered
    /// [`cfd_stream::remine_cover`] cycle on the dataset, triggered by
    /// the cover's kernel measures on it, and return the cover delta
    /// (retired/replacement rules with measures). A cover with no
    /// drifted rule answers `{"triggered": false}`.
    Remine {
        /// Target dataset.
        dataset: String,
        /// Rule texts in the `cfd check` wire format.
        rules: Vec<String>,
        /// Drift threshold and re-discovery confidence floor θ ∈ (0, 1].
        theta: f64,
        /// Neighborhood expansion budget (attributes added to the
        /// drifted rules' own LHS∪RHS).
        expand: usize,
        /// Support threshold for re-discovered rules.
        k: usize,
        /// Worker threads (the engine's warm and cover swap, mining and
        /// the post-apply validation pass), at most one per core.
        threads: usize,
        /// Reply with the cover delta instead of a job ticket.
        sync: bool,
        /// Per-job deadline in milliseconds.
        timeout_ms: Option<u64>,
    },
    /// Submit a repair-suggestion job (edits are returned, never
    /// applied server-side).
    Repair {
        /// Target dataset.
        dataset: String,
        /// Rule texts in the `cfd check` wire format.
        rules: Vec<String>,
        /// Reply with the edits instead of a job ticket.
        sync: bool,
        /// Per-job deadline in milliseconds.
        timeout_ms: Option<u64>,
    },
    /// Cancel a job by id (sets its cancellation flag; a queued job is
    /// removed immediately, a running one stops at its next
    /// checkpoint).
    Cancel {
        /// Job id from the submission reply.
        job: u64,
    },
    /// Report one job's state (and result, when finished).
    Status {
        /// Job id from the submission reply.
        job: u64,
    },
    /// List all jobs the server remembers.
    Jobs,
    /// Server-wide metrics snapshot plus registry/queue gauges.
    Stats,
    /// Test-only: arm (or clear) a fault-injection schedule. Rejected
    /// unless the server was started with fault injection enabled.
    Inject {
        /// Fault point name (`None` with `clear` disarms everything).
        point: Option<String>,
        /// Action name (`io_error`, `short_read`, `delay`, `panic`).
        action: Option<String>,
        /// Delay parameter for `delay`, in milliseconds.
        delay_ms: Option<u64>,
        /// Matching hits to skip before the first firing.
        skip: u64,
        /// Number of firings before the fault disarms itself.
        times: u64,
        /// Arm for every session, not just the submitting one.
        global: bool,
        /// Disarm all faults instead of arming one.
        clear: bool,
    },
    /// Drain the queue and stop the server.
    Shutdown,
}

fn bad(msg: impl Into<String>) -> ServeError {
    ServeError::new("bad_request", msg)
}

fn str_field(obj: &Json, key: &str) -> Result<String, ServeError> {
    match obj.get(key) {
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| bad(format!("field {key:?} must be a string"))),
        None => Err(bad(format!("missing required field {key:?}"))),
    }
}

fn opt_str_field(obj: &Json, key: &str) -> Result<Option<String>, ServeError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| bad(format!("field {key:?} must be a string"))),
    }
}

fn opt_usize_field(obj: &Json, key: &str) -> Result<Option<usize>, ServeError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => match v.as_f64() {
            Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(Some(n as usize)),
            _ => Err(bad(format!("field {key:?} must be a non-negative integer"))),
        },
    }
}

fn opt_u64_field(obj: &Json, key: &str) -> Result<Option<u64>, ServeError> {
    Ok(opt_usize_field(obj, key)?.map(|n| n as u64))
}

/// A millisecond deadline: absent or positive (0 would be a job that
/// can never run).
fn timeout_field(obj: &Json) -> Result<Option<u64>, ServeError> {
    match opt_u64_field(obj, "timeout_ms")? {
        Some(0) => Err(bad("field \"timeout_ms\" must be a positive integer")),
        other => Ok(other),
    }
}

fn opt_bool_field(obj: &Json, key: &str) -> Result<bool, ServeError> {
    match obj.get(key) {
        None => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| bad(format!("field {key:?} must be a boolean"))),
    }
}

fn job_field(obj: &Json) -> Result<u64, ServeError> {
    match obj.get("job").and_then(Json::as_f64) {
        Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
        _ => Err(bad("field \"job\" must be a non-negative integer")),
    }
}

fn rules_field(obj: &Json) -> Result<Vec<String>, ServeError> {
    let arr = obj
        .get("rules")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("field \"rules\" must be an array of rule strings"))?;
    let mut rules = Vec::with_capacity(arr.len());
    for r in arr {
        match r.as_str() {
            Some(s) => rules.push(s.to_string()),
            None => return Err(bad("field \"rules\" must contain only strings")),
        }
    }
    if rules.is_empty() {
        return Err(bad("field \"rules\" must not be empty"));
    }
    Ok(rules)
}

impl Request {
    /// Parses one protocol line. Returns the structured error the
    /// server should answer with — the line's op (when one could be
    /// read) rides along so the error reply can echo it.
    pub fn parse(line: &str) -> Result<Request, (Option<String>, ServeError)> {
        let doc =
            Json::parse(line).map_err(|e| (None, ServeError::new("bad_json", format!("{e}"))))?;
        if doc.get("op").is_none() && !matches!(doc, Json::Obj(_)) {
            return Err((
                None,
                ServeError::new("bad_request", "request must be a JSON object"),
            ));
        }
        let op = match doc.get("op").and_then(Json::as_str) {
            Some(op) => op.to_string(),
            None => {
                return Err((
                    None,
                    ServeError::new("bad_request", "missing string field \"op\""),
                ))
            }
        };
        Request::parse_op(&op, &doc).map_err(|e| (Some(op), e))
    }

    fn parse_op(op: &str, doc: &Json) -> Result<Request, ServeError> {
        match op {
            "ping" => Ok(Request::Ping),
            "register" => {
                let name = str_field(doc, "name")?;
                let path = opt_str_field(doc, "path")?;
                let csv = opt_str_field(doc, "csv")?;
                let pin = opt_bool_field(doc, "pin")?;
                match (&path, &csv) {
                    (Some(_), Some(_)) => Err(bad("register takes \"path\" or \"csv\", not both")),
                    (None, None) => Err(bad("register needs a \"path\" or a \"csv\" body")),
                    _ => Ok(Request::Register {
                        name,
                        path,
                        csv,
                        pin,
                    }),
                }
            }
            "datasets" => Ok(Request::Datasets),
            "unregister" => Ok(Request::Unregister {
                name: str_field(doc, "name")?,
            }),
            "discover" => {
                let dataset = str_field(doc, "dataset")?;
                let algo = match opt_str_field(doc, "algo")? {
                    Some(name) => Algo::parse(&name)
                        .map_err(|e| ServeError::new("bad_options", e.to_string()))?,
                    None => Algo::FastCfd,
                };
                let opts = DiscoverOptions::from_json(doc).map_err(|e| bad(e.to_string()))?;
                let cache_budget = opt_usize_field(doc, "cache_budget_mb")?
                    .map(|mb| {
                        mb.checked_mul(1 << 20)
                            .ok_or_else(|| bad("field \"cache_budget_mb\" is too large"))
                    })
                    .transpose()?;
                Ok(Request::Discover(DiscoverRequest {
                    dataset,
                    algo,
                    opts,
                    cache_budget,
                    sync: opt_bool_field(doc, "sync")?,
                    timeout_ms: timeout_field(doc)?,
                }))
            }
            "check" => Ok(Request::Check {
                dataset: str_field(doc, "dataset")?,
                rules: rules_field(doc)?,
                limit: opt_usize_field(doc, "limit")?.unwrap_or(20),
                threads: opt_usize_field(doc, "threads")?.unwrap_or(1),
                sync: opt_bool_field(doc, "sync")?,
                timeout_ms: timeout_field(doc)?,
            }),
            "remine" => {
                let d = RemineOptions::default();
                let theta = match doc.get("theta") {
                    None => d.theta,
                    Some(v) => v
                        .as_f64()
                        .ok_or_else(|| bad("field \"theta\" must be a number"))?,
                };
                RemineOptions::check_theta(theta)
                    .map_err(|e| bad(format!("field \"theta\": {e}")))?;
                let k = opt_usize_field(doc, "k")?.unwrap_or(d.k);
                if k < 1 {
                    return Err(bad("field \"k\" must be at least 1"));
                }
                Ok(Request::Remine {
                    dataset: str_field(doc, "dataset")?,
                    rules: rules_field(doc)?,
                    theta,
                    expand: opt_usize_field(doc, "expand")?.unwrap_or(d.expand),
                    k,
                    threads: opt_usize_field(doc, "threads")?.unwrap_or(d.threads),
                    sync: opt_bool_field(doc, "sync")?,
                    timeout_ms: timeout_field(doc)?,
                })
            }
            "repair" => Ok(Request::Repair {
                dataset: str_field(doc, "dataset")?,
                rules: rules_field(doc)?,
                sync: opt_bool_field(doc, "sync")?,
                timeout_ms: timeout_field(doc)?,
            }),
            "cancel" => Ok(Request::Cancel {
                job: job_field(doc)?,
            }),
            "status" => Ok(Request::Status {
                job: job_field(doc)?,
            }),
            "jobs" => Ok(Request::Jobs),
            "stats" => Ok(Request::Stats),
            "inject" => {
                let clear = opt_bool_field(doc, "clear")?;
                let point = opt_str_field(doc, "point")?;
                let action = opt_str_field(doc, "action")?;
                if !clear && (point.is_none() || action.is_none()) {
                    return Err(bad(
                        "inject needs \"point\" and \"action\" (or \"clear\": true)",
                    ));
                }
                Ok(Request::Inject {
                    point,
                    action,
                    delay_ms: opt_u64_field(doc, "delay_ms")?,
                    skip: opt_u64_field(doc, "skip")?.unwrap_or(0),
                    times: opt_u64_field(doc, "times")?.unwrap_or(1),
                    global: opt_bool_field(doc, "global")?,
                    clear,
                })
            }
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ServeError::new(
                "unknown_op",
                format!("unknown op {other:?}"),
            )),
        }
    }
}

/// Outcome of one capped line read.
#[derive(Debug, PartialEq, Eq)]
pub enum LineRead {
    /// A complete line (without its terminator).
    Line(String),
    /// The line exceeded the cap; its bytes were discarded and the
    /// reader is positioned at the start of the next line.
    TooLong,
    /// End of stream with no buffered data — a clean disconnect.
    Eof,
    /// End of stream *mid-line*: the connection died before the line's
    /// terminator arrived. The partial bytes are discarded — a torn
    /// frame is a disconnect, never a phantom request.
    Partial,
    /// The underlying stream's read timeout fired. `mid_line` says
    /// whether bytes of an unfinished line had already arrived (a
    /// stalled frame — slow-loris) as opposed to a fully idle wait.
    TimedOut {
        /// True when the timeout interrupted an unfinished line.
        mid_line: bool,
    },
}

/// Reads one `\n`-terminated line, buffering at most `cap` bytes. A
/// longer line is *consumed and discarded* to the terminator without
/// ever holding more than the cap in memory, so a hostile client
/// cannot make the server allocate its line — the caller answers with
/// a `line_too_long` error and keeps the connection.
///
/// A protocol line is only a request once its `\n` arrives: EOF with
/// partial buffered data is reported as [`LineRead::Partial`] (a
/// dropped connection mid-line), never as a line. Read timeouts on the
/// underlying stream surface as [`LineRead::TimedOut`] rather than an
/// error, carrying whether the wait interrupted an unfinished line —
/// the caller distinguishes an idle session (reap after the idle
/// budget) from a stalled frame (slow-loris, disconnect). Bytes of an
/// unfinished line are *not* preserved across a timeout return, so
/// callers must treat `TimedOut { mid_line: true }` as fatal to the
/// connection.
pub fn read_line_capped<R: BufRead>(r: &mut R, cap: usize) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut over = false;
    loop {
        let chunk = match r.fill_buf() {
            Ok(c) => c,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(LineRead::TimedOut {
                    mid_line: !buf.is_empty() || over,
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(match (buf.is_empty(), over) {
                (true, false) => LineRead::Eof,
                // EOF mid-line: the unterminated tail (oversized or
                // not) is a torn frame, not a request
                _ => LineRead::Partial,
            });
        }
        let (take, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => (i, true),
            None => (chunk.len(), false),
        };
        if !over {
            if buf.len() + take > cap {
                over = true;
                buf.clear();
            } else {
                buf.extend_from_slice(&chunk[..take]);
            }
        }
        r.consume(take + usize::from(done));
        if done {
            return Ok(if over {
                LineRead::TooLong
            } else {
                LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn rejects_malformed_lines_with_structured_errors() {
        // not JSON at all
        let (op, e) = Request::parse("hello there").unwrap_err();
        assert_eq!((op, e.code), (None, "bad_json"));
        // valid JSON, wrong shape
        let (op, e) = Request::parse("[1,2,3]").unwrap_err();
        assert_eq!((op, e.code), (None, "bad_request"));
        let (op, e) = Request::parse("{\"no_op\": 1}").unwrap_err();
        assert_eq!((op, e.code), (None, "bad_request"));
        // unknown op echoes the op back
        let (op, e) = Request::parse("{\"op\": \"frobnicate\"}").unwrap_err();
        assert_eq!(op.as_deref(), Some("frobnicate"));
        assert_eq!(e.code, "unknown_op");
        // missing required fields
        let (op, e) = Request::parse("{\"op\": \"register\", \"name\": \"t\"}").unwrap_err();
        assert_eq!(op.as_deref(), Some("register"));
        assert_eq!(e.code, "bad_request");
        let (_, e) = Request::parse("{\"op\": \"check\", \"dataset\": \"t\"}").unwrap_err();
        assert_eq!(e.code, "bad_request");
        let (_, e) =
            Request::parse("{\"op\": \"check\", \"dataset\": \"t\", \"rules\": []}").unwrap_err();
        assert_eq!(e.code, "bad_request");
        // wrong field types
        let (_, e) = Request::parse("{\"op\": \"cancel\", \"job\": \"two\"}").unwrap_err();
        assert_eq!(e.code, "bad_request");
        let (_, e) =
            Request::parse("{\"op\": \"discover\", \"dataset\": \"t\", \"k\": -1}").unwrap_err();
        assert_eq!(e.code, "bad_request");
        // a budget whose byte count overflows is a shape error, not a
        // panic or a silently wrapped budget
        let (_, e) = Request::parse(
            "{\"op\":\"discover\",\"dataset\":\"nope\",\"cache_budget_mb\":17592186044417}",
        )
        .unwrap_err();
        assert_eq!(e.code, "bad_request");
        // bad algorithm name is an options error, not a shape error
        let (_, e) = Request::parse("{\"op\": \"discover\", \"dataset\": \"t\", \"algo\": \"x\"}")
            .unwrap_err();
        assert_eq!(e.code, "bad_options");
        // register path/csv are mutually exclusive and one is required
        let (_, e) = Request::parse(
            "{\"op\": \"register\", \"name\": \"t\", \"path\": \"a\", \"csv\": \"b\"}",
        )
        .unwrap_err();
        assert_eq!(e.code, "bad_request");
    }

    #[test]
    fn parses_discover_defaults_like_the_cli() {
        let r = Request::parse("{\"op\": \"discover\", \"dataset\": \"tax\"}").unwrap();
        match r {
            Request::Discover(d) => {
                assert_eq!(d.algo, Algo::FastCfd);
                assert_eq!(d.opts, DiscoverOptions::new(2));
                assert!(!d.sync);
                assert_eq!(d.cache_budget, None);
            }
            other => panic!("wrong request: {other:?}"),
        }
        let r = Request::parse(
            "{\"op\": \"discover\", \"dataset\": \"tax\", \"algo\": \"ctane\", \"k\": 5, \
             \"threads\": 2, \"min_confidence\": 0.9, \"top_k\": 10, \"sync\": true, \
             \"cache_budget_mb\": 8}",
        )
        .unwrap();
        match r {
            Request::Discover(d) => {
                assert_eq!(d.algo, Algo::Ctane);
                assert_eq!(d.opts.k, 5);
                assert_eq!(d.opts.threads, 2);
                assert_eq!(d.opts.min_confidence, 0.9);
                assert_eq!(d.opts.top_k, Some(10));
                assert_eq!(d.cache_budget, Some(8 * 1024 * 1024));
                assert!(d.sync);
            }
            other => panic!("wrong request: {other:?}"),
        }
        // null reads as unset, as in the options object of a result
        let r = Request::parse(
            "{\"op\": \"discover\", \"dataset\": \"tax\", \"max_lhs\": null, \"top_k\": null}",
        )
        .unwrap();
        match r {
            Request::Discover(d) => assert_eq!(d.opts, DiscoverOptions::default()),
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_remine_with_defaults_and_rejects_bad_theta() {
        let r = Request::parse("{\"op\": \"remine\", \"dataset\": \"tax\", \"rules\": [\"r\"]}")
            .unwrap();
        match r {
            Request::Remine {
                dataset,
                rules,
                theta,
                expand,
                k,
                threads,
                sync,
                timeout_ms: None,
            } => {
                assert_eq!(dataset, "tax");
                assert_eq!(rules, vec!["r".to_string()]);
                let d = RemineOptions::default();
                assert_eq!(theta, d.theta);
                assert_eq!(
                    (expand, k, threads, sync),
                    (d.expand, d.k, d.threads, false)
                );
            }
            other => panic!("wrong request: {other:?}"),
        }
        let r = Request::parse(
            "{\"op\": \"remine\", \"dataset\": \"tax\", \"rules\": [\"r\"], \"theta\": 0.8, \
             \"expand\": 2, \"k\": 3, \"threads\": 4, \"sync\": true}",
        )
        .unwrap();
        match r {
            Request::Remine {
                theta,
                expand,
                k,
                threads,
                sync,
                ..
            } => assert_eq!((theta, expand, k, threads, sync), (0.8, 2, 3, 4, true)),
            other => panic!("wrong request: {other:?}"),
        }
        // θ outside (0, 1] and k below 1 are shape errors, and rules
        // stay required
        for fields in [
            "\"rules\": [\"r\"], \"theta\": 0.0",
            "\"rules\": [\"r\"], \"theta\": 1.5",
            "\"rules\": [\"r\"], \"k\": 0",
            "\"theta\": 0.9",
        ] {
            let line = format!("{{\"op\": \"remine\", \"dataset\": \"t\", {fields}}}");
            let (_, e) = Request::parse(&line).unwrap_err();
            assert_eq!(e.code, "bad_request", "{line}");
        }
    }

    #[test]
    fn capped_reader_discards_long_lines_and_keeps_the_stream_usable() {
        let long = "x".repeat(100);
        let input = format!("short\n{long}\nafter\nexactly__8\n");
        let mut r = BufReader::with_capacity(7, input.as_bytes());
        assert_eq!(
            read_line_capped(&mut r, 10).unwrap(),
            LineRead::Line("short".into())
        );
        // the 100-byte line is discarded, never buffered whole…
        assert_eq!(read_line_capped(&mut r, 10).unwrap(), LineRead::TooLong);
        // …and the next line still arrives intact
        assert_eq!(
            read_line_capped(&mut r, 10).unwrap(),
            LineRead::Line("after".into())
        );
        assert_eq!(
            read_line_capped(&mut r, 10).unwrap(),
            LineRead::Line("exactly__8".into())
        );
        assert_eq!(read_line_capped(&mut r, 10).unwrap(), LineRead::Eof);

        // a line of exactly cap bytes passes; cap + 1 does not
        let mut r = BufReader::new("abcde\nabcdef\n".as_bytes());
        assert_eq!(
            read_line_capped(&mut r, 5).unwrap(),
            LineRead::Line("abcde".into())
        );
        assert_eq!(read_line_capped(&mut r, 5).unwrap(), LineRead::TooLong);

        // a connection dropped mid-line (EOF with partial buffered
        // data) is a torn frame — a clean disconnect, never a phantom
        // request built from the tail bytes
        let mut r = BufReader::new("tail".as_bytes());
        assert_eq!(read_line_capped(&mut r, 10).unwrap(), LineRead::Partial);
        let mut r = BufReader::new("{\"op\": \"shutdown\"}".as_bytes());
        assert_eq!(read_line_capped(&mut r, 64).unwrap(), LineRead::Partial);
        // …same for an oversized unterminated tail
        let data = "y".repeat(20);
        let mut r = BufReader::with_capacity(4, data.as_bytes());
        assert_eq!(read_line_capped(&mut r, 10).unwrap(), LineRead::Partial);
        assert_eq!(read_line_capped(&mut r, 10).unwrap(), LineRead::Eof);
        // a terminated line followed by a torn one: the request still
        // arrives, then the disconnect is reported
        let mut r = BufReader::new("whole\npart".as_bytes());
        assert_eq!(
            read_line_capped(&mut r, 10).unwrap(),
            LineRead::Line("whole".into())
        );
        assert_eq!(read_line_capped(&mut r, 10).unwrap(), LineRead::Partial);
    }

    /// A reader whose `Read` returns `WouldBlock` like a socket with a
    /// read timeout: `data` first, then timeouts forever.
    struct StallingReader {
        data: Vec<u8>,
        at: usize,
    }

    impl std::io::Read for StallingReader {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.at >= self.data.len() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "read timed out",
                ));
            }
            let n = out.len().min(self.data.len() - self.at);
            out[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn read_timeouts_surface_idle_vs_mid_line() {
        // timeout with nothing buffered: an idle session
        let mut r = BufReader::new(StallingReader {
            data: b"full\n".to_vec(),
            at: 0,
        });
        assert_eq!(
            read_line_capped(&mut r, 10).unwrap(),
            LineRead::Line("full".into())
        );
        assert_eq!(
            read_line_capped(&mut r, 10).unwrap(),
            LineRead::TimedOut { mid_line: false }
        );
        // timeout after a partial line: a stalled frame (slow-loris)
        let mut r = BufReader::new(StallingReader {
            data: b"stuck".to_vec(),
            at: 0,
        });
        assert_eq!(
            read_line_capped(&mut r, 10).unwrap(),
            LineRead::TimedOut { mid_line: true }
        );
    }

    #[test]
    fn reply_builders_produce_the_wire_shapes() {
        let ok = ok_reply("ping", Vec::<(String, Json)>::new());
        assert_eq!(ok.to_string(), "{\"ok\":true,\"op\":\"ping\"}");
        let err = error_reply(Some("register"), &ServeError::new("dataset_exists", "dup"));
        assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            err.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("dataset_exists")
        );
        let ev = event("progress", 3, vec![("phase".into(), Json::from("level"))]);
        assert_eq!(ev.get("event").and_then(Json::as_str), Some("progress"));
        assert_eq!(ev.get("job").and_then(Json::as_f64), Some(3.0));
        // transient errors carry the retry hint; others omit the key
        let busy = ServeError::new("queue_full", "busy").retry_after(250);
        let rep = error_reply(Some("discover"), &busy);
        assert_eq!(
            rep.get("error")
                .and_then(|e| e.get("retry_after_ms"))
                .and_then(Json::as_f64),
            Some(250.0)
        );
        let plain = error_reply(None, &ServeError::new("bad_json", "nope"));
        assert!(plain.get("error").unwrap().get("retry_after_ms").is_none());
    }

    #[test]
    fn parses_timeouts_pin_and_inject() {
        // timeout_ms rides on every job op; zero is rejected
        let r = Request::parse("{\"op\": \"discover\", \"dataset\": \"t\", \"timeout_ms\": 1500}")
            .unwrap();
        match r {
            Request::Discover(d) => assert_eq!(d.timeout_ms, Some(1500)),
            other => panic!("wrong request: {other:?}"),
        }
        let (_, e) = Request::parse(
            "{\"op\": \"check\", \"dataset\": \"t\", \"rules\": [\"r\"], \
                            \"timeout_ms\": 0}",
        )
        .unwrap_err();
        assert_eq!(e.code, "bad_request");
        match Request::parse("{\"op\": \"repair\", \"dataset\": \"t\", \"rules\": [\"r\"]}")
            .unwrap()
        {
            Request::Repair { timeout_ms, .. } => assert_eq!(timeout_ms, None),
            other => panic!("wrong request: {other:?}"),
        }
        // register pin flag
        match Request::parse(
            "{\"op\": \"register\", \"name\": \"t\", \"csv\": \"A\\n1\\n\", \
                              \"pin\": true}",
        )
        .unwrap()
        {
            Request::Register { pin, .. } => assert!(pin),
            other => panic!("wrong request: {other:?}"),
        }
        // inject: needs point+action unless clearing
        match Request::parse(
            "{\"op\": \"inject\", \"point\": \"job_run\", \"action\": \
                              \"delay\", \"delay_ms\": 40, \"skip\": 2, \"times\": 3, \
                              \"global\": true}",
        )
        .unwrap()
        {
            Request::Inject {
                point,
                action,
                delay_ms,
                skip,
                times,
                global,
                clear,
            } => {
                assert_eq!(point.as_deref(), Some("job_run"));
                assert_eq!(action.as_deref(), Some("delay"));
                assert_eq!((delay_ms, skip, times), (Some(40), 2, 3));
                assert!(global && !clear);
            }
            other => panic!("wrong request: {other:?}"),
        }
        match Request::parse("{\"op\": \"inject\", \"clear\": true}").unwrap() {
            Request::Inject { clear, .. } => assert!(clear),
            other => panic!("wrong request: {other:?}"),
        }
        let (_, e) = Request::parse("{\"op\": \"inject\", \"point\": \"job_run\"}").unwrap_err();
        assert_eq!(e.code, "bad_request");
    }
}
