//! The TCP server: accept loop, per-connection threads, worker pool,
//! and the shutdown drain.
//!
//! Concurrency layout (DESIGN.md §12): one acceptor (the thread inside
//! [`Server::run`]), one reader/dispatch thread plus one writer thread
//! per connection, and a fixed pool of job workers draining the
//! bounded [`JobQueue`]. The writer thread owns the socket's write
//! half and consumes an `mpsc` channel of serialized lines; the
//! connection's dispatcher *and* every job the connection submitted
//! hold senders, so replies and asynchronous job events interleave
//! without ever contending on the socket itself, and a job that
//! finishes after its client sent EOF still gets its terminal event
//! flushed before the socket closes.
//!
//! Shutdown (`{"op": "shutdown"}`) is a drain, not an abort: admission
//! stops (`shutting_down` errors), pending and running jobs finish
//! (cancel them first for a fast exit), the reply goes out, and only
//! then are the acceptor and the remaining connections unblocked.

use crate::faultpoint::{self, FaultAction};
use crate::jobs::{run_spec, Job, JobKind, JobOutcome, JobQueue, JobSpec};
use crate::protocol::{
    error_reply, ok_reply, read_line_capped, LineRead, Request, ServeError, DEFAULT_MAX_LINE,
};
use crate::registry::{lock_unpoisoned, Dataset, DatasetRegistry};
use crate::session::parse_rules_with;
use cfd_model::cfd::parse_cfd;
use cfd_model::progress::MetricsSink;
use cfd_model::{Control, IngestOptions, Json, Progress};
use cfd_validate::ValidateOptions;
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Server configuration: listen address, the three admission budgets
/// (worker pool size, queue depth, registry bytes), the per-line cap,
/// and the robustness knobs (deadlines, io/idle timeouts, fault
/// injection).
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Listen address (`"127.0.0.1:0"` picks an ephemeral port;
    /// [`Server::local_addr`] reports the choice).
    pub addr: String,
    /// Job worker threads.
    pub workers: usize,
    /// Pending-job cap; submissions past it fail with `queue_full`.
    pub queue_depth: usize,
    /// Registry byte budget; registrations past it evict idle unpinned
    /// datasets, then fail with `registry_budget`.
    pub registry_budget: usize,
    /// Protocol line cap in bytes; longer lines are discarded and
    /// answered with `line_too_long`.
    pub max_line: usize,
    /// Default per-job deadline (a request's `timeout_ms` overrides
    /// it). `None`: jobs may run forever.
    pub job_timeout: Option<Duration>,
    /// Socket read/write timeout per connection. A read that times out
    /// *mid-line* (slow-loris) disconnects the session; writes that
    /// stall past it fail the writer. `None`: blocking sockets.
    pub io_timeout: Option<Duration>,
    /// Idle budget per session: a connection with no complete request
    /// for this long is reaped. `None`: idle sessions live forever.
    pub idle_timeout: Option<Duration>,
    /// Test-only: accept the `inject` op (fault-injection arming over
    /// the wire).
    pub fault_injection: bool,
}

impl Default for ServeOptions {
    /// Loopback on an ephemeral port, 2 workers, 32 queued jobs, a
    /// 1 GiB registry, 64 KiB lines; no deadlines or socket timeouts,
    /// fault injection off.
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 32,
            registry_budget: 1 << 30,
            max_line: DEFAULT_MAX_LINE,
            job_timeout: None,
            io_timeout: None,
            idle_timeout: None,
            fault_injection: false,
        }
    }
}

struct State {
    registry: DatasetRegistry,
    queue: JobQueue,
    metrics: Arc<cfd_obs::Registry>,
    shutdown: AtomicBool,
    next_job: AtomicU64,
    next_session: AtomicU64,
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    clients: Mutex<Vec<(u64, TcpStream)>>,
    addr: SocketAddr,
    max_line: usize,
    workers: usize,
    job_timeout: Option<Duration>,
    io_timeout: Option<Duration>,
    idle_timeout: Option<Duration>,
    faults: bool,
    /// Exponential moving average of job wall-clock ms — feeds the
    /// `retry_after_ms` hint on `queue_full`/`registry_budget`.
    job_ewma_ms: AtomicU64,
}

impl State {
    /// The backoff hint attached to transient overload errors: the
    /// smoothed job duration scaled by the backlog each worker would
    /// have to clear first, clamped to a sane range. Before any job
    /// has finished the EWMA is unknown; 100 ms stands in.
    fn retry_hint_ms(&self) -> u64 {
        let per_job = self.job_ewma_ms.load(Ordering::Relaxed).max(100);
        let backlog = (self.queue.depth() + self.queue.running()) as u64;
        (per_job * backlog.max(1) / self.workers.max(1) as u64).clamp(50, 60_000)
    }
}

/// Renders a caught panic payload (the `&str`/`String` carried by
/// `panic!`) for an `internal_panic` error message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// A bound (not yet running) server. [`Server::bind`] reserves the
/// socket so callers can learn the ephemeral port and clone the
/// metrics registry before [`Server::run`] takes over the thread.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    /// Binds the listen socket and builds the shared state. No thread
    /// is spawned yet.
    pub fn bind(opts: &ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(State {
            registry: DatasetRegistry::new(opts.registry_budget),
            queue: JobQueue::new(opts.queue_depth.max(1)),
            metrics: Arc::new(cfd_obs::Registry::new()),
            shutdown: AtomicBool::new(false),
            next_job: AtomicU64::new(1),
            next_session: AtomicU64::new(1),
            jobs: Mutex::new(BTreeMap::new()),
            clients: Mutex::new(Vec::new()),
            addr,
            max_line: opts.max_line.max(256),
            workers: opts.workers.max(1),
            job_timeout: opts.job_timeout,
            io_timeout: opts.io_timeout,
            idle_timeout: opts.idle_timeout,
            faults: opts.fault_injection,
            job_ewma_ms: AtomicU64::new(0),
        });
        Ok(Server { listener, state })
    }

    /// The bound address (the resolved port when `addr` asked for 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// The server-wide metrics registry (`serve.*` counters, job
    /// metrics, ingest metrics) — clone it before [`Server::run`] to
    /// read or snapshot it afterwards.
    pub fn metrics(&self) -> Arc<cfd_obs::Registry> {
        self.state.metrics.clone()
    }

    /// Serves until a `shutdown` request completes: spawns the worker
    /// pool, accepts connections, and on shutdown joins every worker
    /// and connection thread before returning.
    pub fn run(self) -> std::io::Result<()> {
        let state = self.state;
        let workers: Vec<_> = (0..state.workers)
            .map(|_| {
                let st = state.clone();
                thread::spawn(move || worker_loop(&st))
            })
            .collect();
        let mut conns = Vec::new();
        for stream in self.listener.incoming() {
            if state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            let st = state.clone();
            conns.push(thread::spawn(move || connection(&st, stream)));
        }
        // the queue was closed by the shutdown handler; workers exit
        // once the backlog drains (already drained — the handler waits)
        state.queue.close();
        for w in workers {
            let _ = w.join();
        }
        // unblock any connection still parked in a read
        for (_, c) in lock_unpoisoned(&state.clients).drain(..) {
            let _ = c.shutdown(Shutdown::Read);
        }
        for c in conns {
            let _ = c.join();
        }
        Ok(())
    }
}

/// One job worker: pop, run under a per-job [`Control`] inside a
/// panic shield, classify the outcome, finish. The worker thread
/// itself survives *anything* a job does: panics become structured
/// `internal_panic` failures, and a run stopped by its deadline rather
/// than its cancel flag becomes `deadline_exceeded`. A panic leaves
/// nothing half-updated for later jobs: each column of a dataset
/// builds its own value regions once, behind a `OnceLock`, and every
/// job builds its own partitions.
fn worker_loop(state: &Arc<State>) {
    while let Some((job, spec)) = state.queue.pop() {
        if job.cancel.load(Ordering::Relaxed) {
            // cancelled while queued but popped before the cancel
            // handler could remove it
            state.metrics.add("serve.jobs_cancelled", 1);
            end_job(state, &job, JobOutcome::Cancelled);
            continue;
        }
        job.set_running();
        let started = Instant::now();
        let deadline = job.timeout.map(|t| started + t);
        let outcome = {
            let _sp = cfd_obs::span!("serve.job");
            let progress = |p: Progress| {
                job.send_event(
                    "progress",
                    vec![
                        ("phase".to_string(), Json::from(p.phase)),
                        ("done".to_string(), Json::from(p.done)),
                        ("total".to_string(), Json::from(p.total)),
                    ],
                );
            };
            let mut ctrl = Control::default()
                .cancel_with(&job.cancel)
                .progress_with(&progress)
                .metrics_with(&*state.metrics);
            if let Some(d) = deadline {
                ctrl = ctrl.deadline_with(d);
            }
            let shielded = catch_unwind(AssertUnwindSafe(|| {
                match faultpoint::hit("job_run", job.session) {
                    Some(FaultAction::Panic) => panic!("injected fault: job_run panic"),
                    Some(FaultAction::Delay(ms)) => thread::sleep(Duration::from_millis(ms)),
                    Some(FaultAction::IoError | FaultAction::ShortRead) => {
                        return JobOutcome::Failed(ServeError::new(
                            "io",
                            "injected fault: job_run io error",
                        ));
                    }
                    None => {}
                }
                run_spec(&spec, &ctrl)
            }));
            match shielded {
                Ok(outcome) => outcome,
                Err(payload) => {
                    state.metrics.add("serve.panics", 1);
                    JobOutcome::Failed(ServeError::new(
                        "internal_panic",
                        format!("job panicked: {}", panic_message(payload)),
                    ))
                }
            }
        };
        // a run that stopped `Cancelled` without its flag set, with an
        // expired deadline, timed out — reclassify it
        let outcome = match outcome {
            JobOutcome::Cancelled
                if !job.cancel.load(Ordering::Relaxed)
                    && deadline.is_some_and(|d| Instant::now() >= d) =>
            {
                state.metrics.add("serve.deadline_exceeded", 1);
                let budget = job.timeout.unwrap_or_default().as_millis();
                let elapsed = started.elapsed().as_millis();
                JobOutcome::Failed(ServeError::new(
                    "deadline_exceeded",
                    format!("job exceeded its {budget} ms deadline (stopped after {elapsed} ms)"),
                ))
            }
            other => other,
        };
        // smoothed job duration feeds the retry_after_ms hints
        let elapsed_ms = (started.elapsed().as_millis() as u64).max(1);
        let prev = state.job_ewma_ms.load(Ordering::Relaxed);
        let ewma = if prev == 0 {
            elapsed_ms
        } else {
            (prev * 7 + elapsed_ms) / 8
        };
        state.job_ewma_ms.store(ewma, Ordering::Relaxed);
        state.metrics.observe("serve.job_ms", elapsed_ms);
        let counter = match &outcome {
            JobOutcome::Done(_) => "serve.jobs_completed",
            JobOutcome::Failed(_) => "serve.jobs_failed",
            JobOutcome::Cancelled => "serve.jobs_cancelled",
        };
        state.metrics.add(counter, 1);
        end_job(state, &job, outcome);
    }
}

/// Finishes a popped job and stops the queue counting it, in the order
/// that keeps the shutdown reply's `jobs_drained` exact. A sync job's
/// outcome is its reply, so the queue lets go of it first: a job whose
/// reply is out is never drained. An async job's terminal event goes
/// to its writer first, so the drain cannot end ahead of it.
fn end_job(state: &State, job: &Job, outcome: JobOutcome) {
    if job.sync {
        state.queue.done();
        job.finish(outcome);
    } else {
        job.finish(outcome);
        state.queue.done();
    }
}

/// One connection: a writer thread owning the socket's write half and
/// a read/dispatch loop on this thread. Returns when the client hangs
/// up, errors, stalls past its timeouts, or a `shutdown` request
/// completes. A connection dropped mid-line (EOF with a partial
/// buffered frame) is a clean disconnect — the torn tail is never
/// dispatched as a request.
fn connection(state: &Arc<State>, stream: TcpStream) {
    state.metrics.add("serve.connections", 1);
    let sid = state.next_session.fetch_add(1, Ordering::Relaxed);
    // the read timeout doubles as the idle-reaping tick when only the
    // idle budget is configured
    let read_timeout = state.io_timeout.or(state.idle_timeout);
    if read_timeout.is_some() {
        let _ = stream.set_read_timeout(read_timeout);
    }
    if state.io_timeout.is_some() {
        let _ = stream.set_write_timeout(state.io_timeout);
    }
    // a sync job's reply follows its `started` event; under Nagle it
    // would wait for the client's delayed ACK of that event (~40 ms)
    let _ = stream.set_nodelay(true);
    // register a clone so server teardown can interrupt this thread's
    // blocking read; hang_up removes it on every exit path, closing
    // the socket for the peer even while other clones linger
    if let Ok(clone) = stream.try_clone() {
        lock_unpoisoned(&state.clients).push((sid, clone));
    }
    if state.shutdown.load(Ordering::SeqCst) {
        // raced past the acceptor's shutdown check: teardown may have
        // already drained the registry, so nobody would wake us
        hang_up(state, sid);
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        hang_up(state, sid);
        return;
    };
    let mut reader = BufReader::new(read_half);
    let (tx, rx) = channel::<String>();
    let writer = thread::spawn(move || writer_loop(stream, rx, sid));
    let mut idle = Duration::ZERO;
    'conn: loop {
        match faultpoint::hit("read_line", sid) {
            Some(FaultAction::Delay(ms)) => thread::sleep(Duration::from_millis(ms)),
            Some(FaultAction::IoError) => break 'conn,
            Some(FaultAction::ShortRead) => {
                // torn inbound frame: half a request arrived, then the
                // connection died — consume and discard, disconnect
                let _ = read_line_capped(&mut reader, state.max_line);
                state.metrics.add("serve.partial_disconnects", 1);
                break 'conn;
            }
            Some(FaultAction::Panic) => panic!("injected fault: read_line panic"),
            None => {}
        }
        match read_line_capped(&mut reader, state.max_line) {
            Err(_) | Ok(LineRead::Eof) => break,
            Ok(LineRead::Partial) => {
                // client died mid-line: no phantom request, no reply
                state.metrics.add("serve.partial_disconnects", 1);
                break;
            }
            Ok(LineRead::TimedOut { mid_line: true }) => {
                // slow-loris: a frame that stalls mid-line holds no
                // session thread hostage
                state.metrics.add("serve.io_timeouts", 1);
                break;
            }
            Ok(LineRead::TimedOut { mid_line: false }) => {
                idle += read_timeout.unwrap_or_default();
                if state.idle_timeout.is_some_and(|budget| idle >= budget) {
                    state.metrics.add("serve.idle_reaped", 1);
                    break;
                }
            }
            Ok(LineRead::TooLong) => {
                state.metrics.add("serve.errors", 1);
                let e = ServeError::new(
                    "line_too_long",
                    format!("request lines are capped at {} bytes", state.max_line),
                );
                let _ = tx.send(error_reply(None, &e).to_string());
            }
            Ok(LineRead::Line(line)) => {
                idle = Duration::ZERO;
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                // the dispatch panic shield: a request that panics
                // (ingest faults, future bugs) answers internal_panic
                // and the connection keeps serving
                let (reply, quit) =
                    match catch_unwind(AssertUnwindSafe(|| dispatch(state, &tx, line, sid))) {
                        Ok(out) => out,
                        Err(payload) => {
                            state.metrics.add("serve.panics", 1);
                            let e = ServeError::new(
                                "internal_panic",
                                format!("request panicked: {}", panic_message(payload)),
                            );
                            (error_reply(None, &e), false)
                        }
                    };
                let _ = tx.send(reply.to_string());
                if quit {
                    break;
                }
            }
        }
    }
    drop(tx);
    let _ = writer.join();
    hang_up(state, sid);
}

/// Deregisters a connection's teardown clone and closes the socket in
/// both directions. Without this, the registry clone would hold the
/// fd open after the session threads exit — the peer of a
/// server-initiated disconnect would see silence instead of EOF until
/// the whole server shut down.
fn hang_up(state: &Arc<State>, sid: u64) {
    let mut clients = lock_unpoisoned(&state.clients);
    if let Some(i) = clients.iter().position(|(s, _)| *s == sid) {
        let (_, c) = clients.swap_remove(i);
        let _ = c.shutdown(Shutdown::Both);
    }
}

/// The connection's writer: drains the serialized-line channel into
/// the socket. Write errors are not fatal to the *channel* — the loop
/// keeps draining so job senders never see it close early — but an
/// injected `reply_write` fault kills the socket both ways first, so a
/// dropped reply always surfaces to the client as a disconnect, never
/// as silence on a live connection.
fn writer_loop(stream: TcpStream, rx: Receiver<String>, sid: u64) {
    let Ok(write_half) = stream.try_clone() else {
        for _ in rx {}
        return;
    };
    let mut w = BufWriter::new(write_half);
    let mut dead = false;
    for line in rx {
        if dead {
            continue;
        }
        match faultpoint::hit("reply_write", sid) {
            Some(FaultAction::Delay(ms)) => thread::sleep(Duration::from_millis(ms)),
            Some(FaultAction::IoError) => {
                let _ = stream.shutdown(Shutdown::Both);
                dead = true;
                continue;
            }
            Some(FaultAction::ShortRead) => {
                // torn reply: half the line goes out, then the socket
                // dies — the client sees an unterminated tail + EOF
                let half = &line.as_bytes()[..line.len() / 2];
                let _ = w.write_all(half);
                let _ = w.flush();
                let _ = stream.shutdown(Shutdown::Both);
                dead = true;
                continue;
            }
            Some(FaultAction::Panic) => {
                let _ = w.flush();
                let _ = stream.shutdown(Shutdown::Both);
                panic!("injected fault: reply_write panic");
            }
            None => {}
        }
        let _ = w.write_all(line.as_bytes());
        let _ = w.write_all(b"\n");
        let _ = w.flush();
    }
}

/// Parses and executes one request line; the bool asks the connection
/// loop to stop (shutdown).
fn dispatch(state: &Arc<State>, tx: &Sender<String>, line: &str, sid: u64) -> (Json, bool) {
    let _sp = cfd_obs::span!("serve.request");
    state.metrics.add("serve.requests", 1);
    let req = match Request::parse(line) {
        Ok(r) => r,
        Err((op, e)) => {
            state.metrics.add("serve.errors", 1);
            return (error_reply(op.as_deref(), &e), false);
        }
    };
    let result: Result<(Json, bool), (&'static str, ServeError)> = match req {
        Request::Ping => Ok((ok_reply("ping", Vec::<(String, Json)>::new()), false)),
        Request::Register {
            name,
            path,
            csv,
            pin,
        } => register(state, &name, path, csv, pin, sid)
            .map(|(ds, evicted)| {
                let mut fields = vec![
                    ("name", Json::from(ds.name.as_str())),
                    ("rows", Json::from(ds.rel.n_rows())),
                    ("arity", Json::from(ds.rel.arity())),
                    ("bytes", Json::from(ds.bytes)),
                ];
                if !evicted.is_empty() {
                    state
                        .metrics
                        .add("serve.registry_evictions", evicted.len() as u64);
                    fields.push(("evicted", Json::arr(evicted.into_iter().map(Json::from))));
                }
                (ok_reply("register", fields), false)
            })
            .map_err(|e| ("register", e)),
        Request::Datasets => Ok((
            ok_reply("datasets", [("datasets", Json::arr(state.registry.list()))]),
            false,
        )),
        Request::Unregister { name } => state
            .registry
            .remove(&name)
            .map(|ds| {
                (
                    ok_reply(
                        "unregister",
                        [
                            ("name", Json::from(ds.name.as_str())),
                            ("bytes", Json::from(ds.bytes)),
                        ],
                    ),
                    false,
                )
            })
            .map_err(|e| ("unregister", e)),
        Request::Discover(d) => submit(state, tx, JobKind::Discover, d.sync, sid, d.timeout_ms, {
            move |st| {
                let ds = st.registry.get(&d.dataset)?;
                d.opts
                    .validate(&ds.rel)
                    .map_err(|e| ServeError::new("bad_options", e.to_string()))?;
                Ok(JobSpec::Discover {
                    ds,
                    algo: d.algo,
                    opts: d.opts.clone(),
                    cache_budget: d.cache_budget,
                })
            }
        }),
        Request::Check {
            dataset,
            rules,
            limit,
            threads,
            sync,
            timeout_ms,
        } => submit(
            state,
            tx,
            JobKind::Check,
            sync,
            sid,
            timeout_ms,
            move |st| {
                let ds = st.registry.get(&dataset)?;
                let rules = parse_inline_rules(&ds, &rules)?;
                Ok(JobSpec::Check {
                    ds,
                    rules,
                    opts: ValidateOptions {
                        threads: threads.max(1),
                        limit,
                    },
                })
            },
        ),
        Request::Repair {
            dataset,
            rules,
            sync,
            timeout_ms,
        } => submit(
            state,
            tx,
            JobKind::Repair,
            sync,
            sid,
            timeout_ms,
            move |st| {
                let ds = st.registry.get(&dataset)?;
                let rules = parse_inline_rules(&ds, &rules)?;
                Ok(JobSpec::Repair { ds, rules })
            },
        ),
        Request::Remine {
            dataset,
            rules,
            theta,
            expand,
            k,
            threads,
            sync,
            timeout_ms,
        } => submit(
            state,
            tx,
            JobKind::Remine,
            sync,
            sid,
            timeout_ms,
            move |st| {
                let ds = st.registry.get(&dataset)?;
                let rules = parse_inline_rules(&ds, &rules)?;
                Ok(JobSpec::Remine {
                    ds,
                    rules,
                    opts: cfd_stream::RemineOptions {
                        theta,
                        expand,
                        k,
                        max_lhs: None,
                        threads: threads.max(1),
                    },
                })
            },
        ),
        Request::Cancel { job } => cancel(state, job).map_err(|e| ("cancel", e)),
        Request::Status { job } => {
            let found = lock_unpoisoned(&state.jobs).get(&job).cloned();
            match found {
                Some(j) => {
                    let Json::Obj(fields) = j.to_json(true) else {
                        unreachable!("job rows are objects")
                    };
                    Ok((ok_reply("status", fields), false))
                }
                None => Err((
                    "status",
                    ServeError::new("unknown_job", format!("no job {job}")),
                )),
            }
        }
        Request::Jobs => {
            let rows: Vec<Json> = lock_unpoisoned(&state.jobs)
                .values()
                .map(|j| j.to_json(false))
                .collect();
            Ok((ok_reply("jobs", [("jobs", Json::arr(rows))]), false))
        }
        Request::Stats => Ok((stats(state), false)),
        Request::Inject {
            point,
            action,
            delay_ms,
            skip,
            times,
            global,
            clear,
        } => (|| {
            if !state.faults {
                return Err(ServeError::new(
                    "bad_request",
                    "fault injection is disabled; start the server with --faults",
                ));
            }
            if clear {
                faultpoint::clear();
                return Ok((ok_reply("inject", [("cleared", Json::from(true))]), false));
            }
            let (point, action) = match (point, action) {
                (Some(p), Some(a)) => (p, a),
                _ => {
                    return Err(ServeError::new(
                        "bad_request",
                        "inject needs \"point\" and \"action\" (or \"clear\": true)",
                    ))
                }
            };
            let act = faultpoint::parse_action(&action, delay_ms)
                .map_err(|e| ServeError::new("bad_request", e))?;
            let session = if global { None } else { Some(sid) };
            faultpoint::arm(&point, session, act, skip, times)
                .map_err(|e| ServeError::new("bad_request", e))?;
            Ok((
                ok_reply(
                    "inject",
                    [
                        ("point", Json::from(point.as_str())),
                        ("action", Json::from(act.name())),
                        ("times", Json::from(times)),
                    ],
                ),
                false,
            ))
        })()
        .map_err(|e| ("inject", e)),
        Request::Shutdown => {
            state.shutdown.store(true, Ordering::SeqCst);
            // flush the backlog deterministically (queued jobs are
            // cancelled, never silently lost), then drain the running
            let (flushed, running) = state.queue.close_and_flush();
            let n_flushed = flushed.len();
            for job in flushed {
                job.cancel.store(true, Ordering::Relaxed);
                state.metrics.add("serve.jobs_cancelled", 1);
                job.finish(JobOutcome::Cancelled);
            }
            state.queue.wait_idle();
            // wake the acceptor so `run` can tear down; the reply is
            // already queued on this connection's writer
            let _ = TcpStream::connect(state.addr);
            Ok((
                ok_reply(
                    "shutdown",
                    [
                        ("jobs_drained", Json::from(running)),
                        ("jobs_flushed", Json::from(n_flushed)),
                    ],
                ),
                true,
            ))
        }
    };
    match result {
        Ok(out) => out,
        Err((op, e)) => {
            state.metrics.add("serve.errors", 1);
            (error_reply(Some(op), &e), false)
        }
    }
}

/// Ingests and registers a dataset from a server-side path or an
/// inline CSV body. Under budget pressure the registry may evict idle
/// unpinned datasets to make room; their names ride back in the reply.
fn register(
    state: &Arc<State>,
    name: &str,
    path: Option<String>,
    csv: Option<String>,
    pin: bool,
    sid: u64,
) -> Result<(Arc<Dataset>, Vec<String>), ServeError> {
    let _sp = cfd_obs::span!("serve.register");
    match faultpoint::hit("ingest", sid) {
        Some(FaultAction::Delay(ms)) => thread::sleep(Duration::from_millis(ms)),
        Some(FaultAction::IoError | FaultAction::ShortRead) => {
            return Err(ServeError::new("io", "injected fault: ingest io error"));
        }
        Some(FaultAction::Panic) => panic!("injected fault: ingest panic"),
        None => {}
    }
    let ctrl = Control::default().metrics_with(&*state.metrics);
    let rel = match (path, csv) {
        (Some(p), None) => ingest_path(&p, &ctrl)?,
        (None, Some(body)) => cfd_model::ingest_csv_str(&body, &ctrl)
            .map_err(|e| ServeError::new("io", format!("inline csv: {e}")))?,
        _ => unreachable!("protocol parser enforces path xor csv"),
    };
    let mut ds = Dataset::new(name, rel);
    if pin {
        ds = ds.pinned();
    }
    state.registry.insert(ds).map_err(|e| match e.code {
        "registry_budget" => e.retry_after(state.retry_hint_ms()),
        _ => e,
    })
}

fn ingest_path(path: &str, ctrl: &Control<'_>) -> Result<cfd_model::Relation, ServeError> {
    cfd_model::ingest_csv_path(path, &IngestOptions::default(), ctrl)
        .map_err(|e| ServeError::new("io", format!("{path}: {e}")))
}

/// Parses a request's inline rule array against the dataset's
/// dictionaries, strict (`bad_rules` carries the offending index).
fn parse_inline_rules(
    ds: &Dataset,
    rules: &[String],
) -> Result<Vec<(String, cfd_model::Cfd)>, ServeError> {
    let text = rules.join("\n");
    let parsed = parse_rules_with("rules", &text, false, |line| parse_cfd(&ds.rel, line))
        .map_err(|e| ServeError::new("bad_rules", e.to_string()))?;
    if parsed.is_empty() {
        return Err(ServeError::new(
            "bad_rules",
            "no rules left after skipping blank/comment lines",
        ));
    }
    Ok(parsed)
}

/// Allocates a job, admission-checks it (`build` resolves the dataset
/// and validates options), queues it, and answers — synchronously when
/// asked, with a `{job, queued}` ticket otherwise. The job's deadline
/// is the request's `timeout_ms` when given, else the server default;
/// a `queue_full` rejection carries a computed `retry_after_ms` hint.
fn submit(
    state: &Arc<State>,
    tx: &Sender<String>,
    kind: JobKind,
    sync: bool,
    sid: u64,
    timeout_ms: Option<u64>,
    build: impl FnOnce(&State) -> Result<JobSpec, ServeError>,
) -> Result<(Json, bool), (&'static str, ServeError)> {
    let spec = build(state).map_err(|e| (kind.name(), e))?;
    let dataset = match &spec {
        JobSpec::Discover { ds, .. }
        | JobSpec::Check { ds, .. }
        | JobSpec::Repair { ds, .. }
        | JobSpec::Remine { ds, .. } => ds.name.clone(),
    };
    let timeout = timeout_ms.map(Duration::from_millis).or(state.job_timeout);
    let id = state.next_job.fetch_add(1, Ordering::SeqCst);
    let job = Job::with_limits(id, kind, dataset, sync, tx.clone(), timeout, sid);
    lock_unpoisoned(&state.jobs).insert(id, job.clone());
    if let Err(e) = state.queue.submit(job.clone(), spec) {
        lock_unpoisoned(&state.jobs).remove(&id);
        state.metrics.add("serve.jobs_rejected", 1);
        let e = match e.code {
            "queue_full" => e.retry_after(state.retry_hint_ms()),
            _ => e,
        };
        return Err((kind.name(), e));
    }
    state.metrics.add("serve.jobs_submitted", 1);
    if !sync {
        return Ok((
            ok_reply(
                kind.name(),
                [
                    ("job", Json::from(id)),
                    ("queued", Json::from(true)),
                    ("state", Json::from("queued")),
                ],
            ),
            false,
        ));
    }
    match job.wait() {
        JobOutcome::Done(result) => Ok((
            ok_reply(kind.name(), [("job", Json::from(id)), ("result", result)]),
            false,
        )),
        JobOutcome::Failed(e) => Err((kind.name(), e)),
        JobOutcome::Cancelled => Err((
            kind.name(),
            ServeError::new("cancelled", format!("job {id} was cancelled")),
        )),
    }
}

/// Cancels a job: flag first (a running job stops at its next
/// checkpoint), then the queued-job fast path.
fn cancel(state: &Arc<State>, job_id: u64) -> Result<(Json, bool), ServeError> {
    let job = lock_unpoisoned(&state.jobs)
        .get(&job_id)
        .cloned()
        .ok_or_else(|| ServeError::new("unknown_job", format!("no job {job_id}")))?;
    job.cancel.store(true, Ordering::Relaxed);
    if state.queue.take_pending(job_id).is_some() {
        state.metrics.add("serve.jobs_cancelled", 1);
        job.finish(JobOutcome::Cancelled);
    }
    Ok((
        ok_reply(
            "cancel",
            [
                ("job", Json::from(job_id)),
                ("state", Json::from(job.state_name())),
            ],
        ),
        false,
    ))
}

/// The `stats` reply: server gauges (also written into the metrics
/// registry as `serve.*` gauges) plus the full metrics snapshot.
fn stats(state: &Arc<State>) -> Json {
    let datasets = state.registry.len();
    let registry_bytes = state.registry.total_bytes();
    let queue_depth = state.queue.depth();
    let running = state.queue.running();
    let jobs_total = lock_unpoisoned(&state.jobs).len();
    let clients = lock_unpoisoned(&state.clients).len();
    let evictions = state.registry.evictions();
    let faults_injected = faultpoint::injected();
    state
        .metrics
        .set_gauge("serve.registry_datasets", datasets as u64);
    state
        .metrics
        .set_gauge("serve.registry_bytes", registry_bytes as u64);
    state
        .metrics
        .set_gauge("serve.queue_depth", queue_depth as u64);
    state
        .metrics
        .set_gauge("serve.jobs_running", running as u64);
    state.metrics.set_gauge("serve.clients", clients as u64);
    state.metrics.set_gauge("serve.registry_evicted", evictions);
    state
        .metrics
        .set_gauge("serve.faults_injected", faults_injected);
    let snapshot = state.metrics.snapshot();
    ok_reply(
        "stats",
        [
            (
                "server",
                Json::obj([
                    ("datasets", Json::from(datasets)),
                    ("registry_bytes", Json::from(registry_bytes)),
                    ("registry_budget", Json::from(state.registry.budget())),
                    ("queue_depth", Json::from(queue_depth)),
                    ("jobs_running", Json::from(running)),
                    ("jobs_total", Json::from(jobs_total)),
                    ("workers", Json::from(state.workers)),
                    ("registry_evictions", Json::from(evictions)),
                    ("faults_injected", Json::from(faults_injected)),
                ]),
            ),
            ("metrics", snapshot.to_json()),
        ],
    )
}
