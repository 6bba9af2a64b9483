//! Jobs: submitted work, its lifecycle, and the bounded queue workers
//! drain.
//!
//! A [`Job`] is the server-side ticket for one discover/check/repair
//! request: a global sequential id, a cancellation flag, a state
//! machine (`queued → running → done | failed | cancelled`), and the
//! subscriber channel its progress events and final result stream to.
//! The [`JobQueue`] in front of the workers is bounded — a submission
//! past the cap is *rejected* with a structured `queue_full` error
//! rather than queued without limit, so a flood of requests degrades
//! into fast failures instead of unbounded memory growth (admission
//! control, like the registry's byte budget).
//!
//! Execution ([`run_spec`]) is deliberately a pure function of the
//! spec and a [`Control`]: workers own nothing but the borrowed
//! handle, which is how `cancel` reaches a running job (its flag is
//! polled at the algorithm's own checkpoints) and how per-job metrics
//! and progress reach the server's registry and the subscribed client.

use crate::protocol::{error_json, event, ServeError};
use crate::registry::{lock_unpoisoned, Dataset};
use crate::session::attach_rule_texts;
use cfd_core::api::{Algo, DiscoverError, DiscoverOptions, Discoverer};
use cfd_core::Ctane;
use cfd_model::{Cfd, Control, Json, RuleMeasure};
use cfd_stream::{CoverDelta, RemineOptions, StreamEngine};
use cfd_validate::ValidateOptions;
use std::collections::VecDeque;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// What kind of work a job carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// CFD discovery over a registered dataset.
    Discover,
    /// Cover validation over a registered dataset.
    Check,
    /// Repair suggestion (edits are returned, never applied).
    Repair,
    /// Drift-triggered scoped re-mining of a cover over a registered
    /// dataset.
    Remine,
}

impl JobKind {
    /// Wire name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Discover => "discover",
            JobKind::Check => "check",
            JobKind::Repair => "repair",
            JobKind::Remine => "remine",
        }
    }
}

/// Terminal outcome of a job.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// Finished; the op-specific result document.
    Done(Json),
    /// Failed with a structured error.
    Failed(ServeError),
    /// Stopped through its cancellation flag (or cancelled while
    /// still queued).
    Cancelled,
}

enum Phase {
    Queued,
    Running,
    Finished(JobOutcome),
}

/// One submitted job: id, cancellation flag, state machine, and the
/// subscriber its events stream to.
pub struct Job {
    /// Global sequential id (1-based).
    pub id: u64,
    /// What the job does.
    pub kind: JobKind,
    /// The dataset it runs against.
    pub dataset: String,
    /// Sync jobs carry their result in the submission reply; their
    /// terminal event is suppressed (progress still streams).
    pub sync: bool,
    /// The flag `cancel` sets and [`Control::check`] polls.
    pub cancel: AtomicBool,
    /// Per-job deadline budget (request `timeout_ms`, else the
    /// server-wide default). The clock starts when a worker *picks the
    /// job up*, not at submission — queue wait does not count.
    pub timeout: Option<Duration>,
    /// The submitting session's id (fault-point scoping).
    pub session: u64,
    phase: Mutex<Phase>,
    done_cv: Condvar,
    subscriber: Mutex<Option<Sender<String>>>,
}

impl Job {
    /// A queued job whose events go to `subscriber` (the submitting
    /// connection's writer channel).
    pub fn new(
        id: u64,
        kind: JobKind,
        dataset: String,
        sync: bool,
        subscriber: Sender<String>,
    ) -> Arc<Job> {
        Job::with_limits(id, kind, dataset, sync, subscriber, None, 0)
    }

    /// [`Job::new`] plus the robustness knobs: a deadline budget and
    /// the submitting session's id.
    pub fn with_limits(
        id: u64,
        kind: JobKind,
        dataset: String,
        sync: bool,
        subscriber: Sender<String>,
        timeout: Option<Duration>,
        session: u64,
    ) -> Arc<Job> {
        Arc::new(Job {
            id,
            kind,
            dataset,
            sync,
            cancel: AtomicBool::new(false),
            timeout,
            session,
            phase: Mutex::new(Phase::Queued),
            done_cv: Condvar::new(),
            subscriber: Mutex::new(Some(subscriber)),
        })
    }

    /// Streams one event line to the subscriber (silently dropped when
    /// the client is gone — a job never fails because its watcher
    /// hung up).
    pub fn send_event(&self, kind: &str, fields: Vec<(String, Json)>) {
        if let Some(tx) = lock_unpoisoned(&self.subscriber).as_ref() {
            let _ = tx.send(event(kind, self.id, fields).to_string());
        }
    }

    /// Marks the job running and announces it.
    pub fn set_running(&self) {
        *lock_unpoisoned(&self.phase) = Phase::Running;
        self.send_event(
            "started",
            vec![("kind".into(), Json::from(self.kind.name()))],
        );
    }

    /// Records the terminal outcome, wakes waiters, emits the terminal
    /// event (async jobs only), and drops the subscriber sender — a
    /// finished job must not keep its connection's writer thread
    /// alive.
    pub fn finish(&self, outcome: JobOutcome) {
        {
            let mut phase = lock_unpoisoned(&self.phase);
            if matches!(*phase, Phase::Finished(_)) {
                return;
            }
            *phase = Phase::Finished(outcome.clone());
        }
        self.done_cv.notify_all();
        if !self.sync {
            match &outcome {
                JobOutcome::Done(result) => {
                    self.send_event("done", vec![("result".into(), result.clone())])
                }
                JobOutcome::Failed(e) => {
                    self.send_event("failed", vec![("error".into(), error_json(e))])
                }
                JobOutcome::Cancelled => self.send_event("cancelled", Vec::new()),
            }
        }
        *lock_unpoisoned(&self.subscriber) = None;
    }

    /// Blocks until the job reaches a terminal state (the sync-mode
    /// wait), returning the outcome. A sync job's result document moves
    /// out to the caller, whose reply carries it: the job row keeps its
    /// state but not a second copy of the document.
    pub fn wait(&self) -> JobOutcome {
        let mut phase = lock_unpoisoned(&self.phase);
        loop {
            if let Phase::Finished(outcome) = &mut *phase {
                return match outcome {
                    JobOutcome::Done(doc) if self.sync => {
                        JobOutcome::Done(std::mem::replace(doc, Json::Null))
                    }
                    other => other.clone(),
                };
            }
            phase = self
                .done_cv
                .wait(phase)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Wire name of the current state.
    pub fn state_name(&self) -> &'static str {
        match &*lock_unpoisoned(&self.phase) {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Finished(JobOutcome::Done(_)) => "done",
            Phase::Finished(JobOutcome::Failed(_)) => "failed",
            Phase::Finished(JobOutcome::Cancelled) => "cancelled",
        }
    }

    /// The job's row for `jobs` / `status` replies; `with_result`
    /// additionally carries a terminal error, or the result of an async
    /// job (a sync job's result went out in its reply).
    pub fn to_json(&self, with_result: bool) -> Json {
        let mut fields = vec![
            ("job".to_string(), Json::from(self.id)),
            ("kind".to_string(), Json::from(self.kind.name())),
            ("dataset".to_string(), Json::from(self.dataset.as_str())),
            ("state".to_string(), Json::from(self.state_name())),
        ];
        if with_result {
            if let Phase::Finished(outcome) = &*lock_unpoisoned(&self.phase) {
                match outcome {
                    JobOutcome::Done(Json::Null) | JobOutcome::Cancelled => {}
                    JobOutcome::Done(result) => fields.push(("result".to_string(), result.clone())),
                    JobOutcome::Failed(e) => fields.push(("error".to_string(), error_json(e))),
                }
            }
        }
        Json::Obj(fields)
    }
}

/// The parsed, admission-checked work a worker executes: every variant
/// holds its dataset `Arc` (so `unregister` cannot pull data out from
/// under a running job) and everything else was validated at
/// submission, so workers never reject.
pub enum JobSpec {
    /// Discovery via [`Discoverer::discover_with`], as `cfd discover`
    /// runs it.
    Discover {
        /// Target dataset.
        ds: Arc<Dataset>,
        /// Algorithm to run.
        algo: Algo,
        /// Validated options.
        opts: DiscoverOptions,
        /// Byte budget for the level-below partitions this job's
        /// approximate CTANE run keeps for its error counts.
        cache_budget: Option<usize>,
    },
    /// Validation via [`cfd_validate::validate_with`], as `cfd check`
    /// runs it.
    Check {
        /// Target dataset.
        ds: Arc<Dataset>,
        /// Parsed rules with their wire texts.
        rules: Vec<(String, Cfd)>,
        /// Kernel options.
        opts: ValidateOptions,
    },
    /// Repair suggestion for a cover.
    Repair {
        /// Target dataset.
        ds: Arc<Dataset>,
        /// Parsed rules with their wire texts.
        rules: Vec<(String, Cfd)>,
    },
    /// One [`cfd_stream::remine()`] cycle: warm a streaming engine over
    /// the dataset with the cover, then re-mine whatever drifted.
    Remine {
        /// Target dataset.
        ds: Arc<Dataset>,
        /// Parsed rules with their wire texts.
        rules: Vec<(String, Cfd)>,
        /// Cycle knobs (θ, expansion budget, support, threads).
        opts: RemineOptions,
    },
}

/// Runs a spec under `ctrl`, returning the result document. This is
/// the entire worker-side logic: cancellation surfaces as
/// [`JobOutcome::Cancelled`], any other failure as a structured error.
pub fn run_spec(spec: &JobSpec, ctrl: &Control<'_>) -> JobOutcome {
    match spec {
        JobSpec::Discover {
            ds,
            algo,
            opts,
            cache_budget,
        } => {
            // `cache_budget_mb` is `Ctane::cache_budget`: it caps the
            // level-below partitions an approximate CTANE run keeps for
            // its error counts (other algorithms ignore it)
            let disc: Box<dyn Discoverer> = match (algo, cache_budget) {
                (Algo::Ctane, Some(bytes)) => Box::new(Ctane::new(opts.k).cache_budget(*bytes)),
                _ => algo.discoverer(),
            };
            match disc.discover_with(&ds.rel, opts, ctrl) {
                Ok(d) => JobOutcome::Done(d.to_json(&ds.rel)),
                Err(DiscoverError::Cancelled) => JobOutcome::Cancelled,
                Err(e) => JobOutcome::Failed(ServeError::new("bad_options", e.to_string())),
            }
        }
        JobSpec::Check { ds, rules, opts } => {
            if ctrl.check().is_err() {
                return JobOutcome::Cancelled;
            }
            let report =
                cfd_validate::validate_with(&ds.rel, rules.iter().map(|(_, c)| c), opts, ctrl);
            let mut doc = report.to_json();
            attach_rule_texts(&mut doc, rules);
            JobOutcome::Done(doc)
        }
        JobSpec::Repair { ds, rules } => {
            if ctrl.check().is_err() {
                return JobOutcome::Cancelled;
            }
            let cfds: Vec<&Cfd> = rules.iter().map(|(_, c)| c).collect();
            let before = cfd_validate::detect_violations(&ds.rel, cfds.iter().copied()).len();
            let edits = cfd_validate::suggest_repairs_for_cover(&ds.rel, cfds.iter().copied());
            let fixed = cfd_model::apply_repairs(&ds.rel, &edits);
            let after = cfd_validate::detect_violations(&fixed, cfds.iter().copied()).len();
            let edit_docs = Json::arr(edits.iter().map(|r| {
                let dict = ds.rel.column(r.attr).dict();
                Json::obj([
                    ("tuple", Json::from(r.tuple)),
                    ("attr", Json::from(ds.rel.schema().name(r.attr))),
                    ("current", Json::from(dict.value(r.current))),
                    ("suggested", Json::from(dict.value(r.suggested))),
                ])
            }));
            JobOutcome::Done(Json::obj([
                ("edits", edit_docs),
                ("violations_before", Json::from(before)),
                ("violations_after", Json::from(after)),
            ]))
        }
        JobSpec::Remine { ds, rules, opts } => {
            if ctrl.check().is_err() {
                return JobOutcome::Cancelled;
            }
            let cfds: Vec<Cfd> = rules.iter().map(|(_, c)| c.clone()).collect();
            let (mut engine, _) = StreamEngine::warm(&ds.rel, cfds, opts.threads.max(1));
            match cfd_stream::remine(&mut engine, opts, ctrl) {
                Err(_) => JobOutcome::Cancelled,
                Ok(None) => JobOutcome::Done(Json::obj([
                    ("triggered", Json::from(false)),
                    ("rules", Json::from(engine.rules().len())),
                ])),
                Ok(Some(delta)) => JobOutcome::Done(remine_result(&engine, &delta)),
            }
        }
    }
}

/// Serializes one [`CoverDelta`] as the `remine` job's result
/// document: neighborhood (attribute names), retired and added rules
/// with their measures, and the kernel-validated post-state.
fn remine_result(engine: &StreamEngine, delta: &CoverDelta) -> Json {
    let schema = engine.schema();
    let neighborhood = Json::arr(
        delta
            .neighborhood
            .iter()
            .map(|&a| Json::from(schema.name(a))),
    );
    let rule_doc = |text: &str, m: &RuleMeasure| {
        Json::obj([
            ("text", Json::from(text)),
            ("support", Json::from(m.support)),
            ("removals", Json::from(m.violations)),
            ("confidence", Json::from(m.confidence())),
        ])
    };
    let retired = Json::arr(delta.retired.iter().map(|r| rule_doc(&r.text, &r.measure)));
    let added = Json::arr(
        delta
            .replacement_texts
            .iter()
            .zip(&delta.replacement_measures)
            .map(|(t, m)| rule_doc(t, m)),
    );
    Json::obj([
        ("triggered", Json::from(true)),
        ("neighborhood", neighborhood),
        ("retired", retired),
        ("added", added),
        ("rules", Json::from(engine.rules().len())),
        ("min_confidence", Json::from(delta.min_confidence())),
    ])
}

struct QueueInner {
    pending: VecDeque<(Arc<Job>, JobSpec)>,
    running: usize,
    closed: bool,
}

/// The bounded FIFO between connections and workers. Submission past
/// the depth cap fails fast (`queue_full`); closing lets workers drain
/// what is pending, then stop.
pub struct JobQueue {
    max_depth: usize,
    inner: Mutex<QueueInner>,
    work_cv: Condvar,
    idle_cv: Condvar,
}

impl JobQueue {
    /// A queue admitting at most `max_depth` pending jobs.
    pub fn new(max_depth: usize) -> JobQueue {
        JobQueue {
            max_depth,
            inner: Mutex::new(QueueInner {
                pending: VecDeque::new(),
                running: 0,
                closed: false,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
        }
    }

    /// Enqueues a job, or rejects it: `shutting_down` once closed,
    /// `queue_full` past the depth cap.
    pub fn submit(&self, job: Arc<Job>, spec: JobSpec) -> Result<(), ServeError> {
        let mut q = lock_unpoisoned(&self.inner);
        if q.closed {
            return Err(ServeError::new(
                "shutting_down",
                "server is shutting down; no new jobs",
            ));
        }
        if q.pending.len() >= self.max_depth {
            return Err(ServeError::new(
                "queue_full",
                format!(
                    "job queue is at its depth cap ({}); retry after a job finishes",
                    self.max_depth
                ),
            ));
        }
        q.pending.push_back((job, spec));
        drop(q);
        self.work_cv.notify_one();
        Ok(())
    }

    /// Worker entry: blocks for the next job, `None` once the queue is
    /// closed *and* drained. The popped job counts as running until
    /// [`JobQueue::done`].
    pub fn pop(&self) -> Option<(Arc<Job>, JobSpec)> {
        let mut q = lock_unpoisoned(&self.inner);
        loop {
            if let Some(item) = q.pending.pop_front() {
                q.running += 1;
                return Some(item);
            }
            if q.closed {
                return None;
            }
            q = self.work_cv.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks one popped job finished.
    pub fn done(&self) {
        let mut q = lock_unpoisoned(&self.inner);
        q.running -= 1;
        if q.pending.is_empty() && q.running == 0 {
            drop(q);
            self.idle_cv.notify_all();
        }
    }

    /// Removes `job_id` from the pending queue if it has not been
    /// picked up yet — the fast path of `cancel`. Returns the job when
    /// it was still pending.
    pub fn take_pending(&self, job_id: u64) -> Option<Arc<Job>> {
        let mut q = lock_unpoisoned(&self.inner);
        let at = q.pending.iter().position(|(j, _)| j.id == job_id)?;
        let (job, _) = q.pending.remove(at)?;
        if q.pending.is_empty() && q.running == 0 {
            drop(q);
            self.idle_cv.notify_all();
        }
        Some(job)
    }

    /// Stops admission and wakes idle workers so they can exit once
    /// the backlog drains.
    pub fn close(&self) {
        lock_unpoisoned(&self.inner).closed = true;
        self.work_cv.notify_all();
    }

    /// The shutdown snapshot, atomically: stops admission, removes
    /// every still-pending job (returned for deterministic
    /// cancellation — queued work is *flushed*, not drained), and
    /// reports how many jobs were running at that instant (the ones
    /// the shutdown drain will wait for). Workers are woken so they
    /// exit once the running set finishes.
    pub fn close_and_flush(&self) -> (Vec<Arc<Job>>, usize) {
        let (flushed, running) = {
            let mut q = lock_unpoisoned(&self.inner);
            q.closed = true;
            let flushed: Vec<Arc<Job>> = q.pending.drain(..).map(|(job, _)| job).collect();
            (flushed, q.running)
        };
        self.work_cv.notify_all();
        if running == 0 {
            self.idle_cv.notify_all();
        }
        (flushed, running)
    }

    /// Blocks until nothing is pending or running — the shutdown
    /// drain (cancelled jobs exit at their next checkpoint, so this
    /// terminates).
    pub fn wait_idle(&self) {
        let mut q = lock_unpoisoned(&self.inner);
        while !(q.pending.is_empty() && q.running == 0) {
            q = self.idle_cv.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Pending jobs right now (`stats` gauge).
    pub fn depth(&self) -> usize {
        lock_unpoisoned(&self.inner).pending.len()
    }

    /// Running jobs right now (`stats` gauge).
    pub fn running(&self) -> usize {
        lock_unpoisoned(&self.inner).running
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn ticket(id: u64) -> (Arc<Job>, std::sync::mpsc::Receiver<String>) {
        let (tx, rx) = channel();
        (Job::new(id, JobKind::Discover, "t".into(), false, tx), rx)
    }

    fn noop_spec() -> JobSpec {
        use cfd_model::csv::relation_from_csv_str;
        let rel = relation_from_csv_str("A,B\nx,1\n").unwrap();
        JobSpec::Repair {
            ds: Arc::new(crate::registry::Dataset::new("t", rel)),
            rules: Vec::new(),
        }
    }

    #[test]
    fn queue_enforces_depth_and_drains_on_close() {
        let q = JobQueue::new(2);
        let (j1, _r1) = ticket(1);
        let (j2, _r2) = ticket(2);
        let (j3, _r3) = ticket(3);
        q.submit(j1, noop_spec()).unwrap();
        q.submit(j2, noop_spec()).unwrap();
        assert_eq!(q.submit(j3, noop_spec()).unwrap_err().code, "queue_full");
        assert_eq!(q.depth(), 2);
        // cancel-while-queued removes from the backlog
        assert_eq!(q.take_pending(2).unwrap().id, 2);
        assert!(q.take_pending(2).is_none());
        q.close();
        let (j4, _r4) = ticket(4);
        assert_eq!(q.submit(j4, noop_spec()).unwrap_err().code, "shutting_down");
        // closed + non-empty still hands out work, then stops
        assert_eq!(q.pop().unwrap().0.id, 1);
        q.done();
        assert!(q.pop().is_none());
        q.wait_idle();
    }

    #[test]
    fn close_and_flush_reports_the_shutdown_snapshot() {
        let q = JobQueue::new(8);
        let (j1, _r1) = ticket(1);
        let (j2, _r2) = ticket(2);
        let (j3, _r3) = ticket(3);
        q.submit(j1, noop_spec()).unwrap();
        q.submit(j2, noop_spec()).unwrap();
        q.submit(j3, noop_spec()).unwrap();
        // one job is mid-run when shutdown arrives
        let popped = q.pop().unwrap();
        assert_eq!(popped.0.id, 1);
        let (flushed, running) = q.close_and_flush();
        assert_eq!(running, 1, "job 1 was running at the snapshot");
        let ids: Vec<u64> = flushed.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![2, 3], "queued jobs are flushed in order");
        assert_eq!(q.depth(), 0);
        // the running job finishes; wait_idle returns; workers stop
        q.done();
        q.wait_idle();
        assert!(q.pop().is_none());
        // an empty queue reports (nothing flushed, nothing running)
        let q = JobQueue::new(2);
        let (flushed, running) = q.close_and_flush();
        assert!(flushed.is_empty() && running == 0);
        q.wait_idle();
    }

    #[test]
    fn job_lifecycle_streams_events_and_wakes_waiters() {
        let (job, rx) = ticket(7);
        assert_eq!(job.state_name(), "queued");
        job.set_running();
        assert_eq!(job.state_name(), "running");
        let started = rx.recv().unwrap();
        assert!(started.contains("\"started\""), "got {started}");
        assert!(started.contains("\"job\":7"), "got {started}");
        job.send_event("progress", vec![("done".into(), Json::from(1usize))]);
        assert!(rx.recv().unwrap().contains("\"progress\""));
        job.finish(JobOutcome::Done(Json::obj([("x", Json::from(1usize))])));
        assert_eq!(job.state_name(), "done");
        let done = rx.recv().unwrap();
        assert!(done.contains("\"done\""), "got {done}");
        assert!(done.contains("\"result\""), "got {done}");
        // terminal: subscriber dropped, no more events possible
        assert!(rx.recv().is_err());
        assert!(matches!(job.wait(), JobOutcome::Done(_)));
        // double-finish is a no-op
        job.finish(JobOutcome::Cancelled);
        assert_eq!(job.state_name(), "done");
    }

    #[test]
    fn sync_jobs_suppress_the_terminal_event() {
        let (tx, rx) = channel();
        let job = Job::new(9, JobKind::Check, "t".into(), true, tx);
        job.set_running();
        let _ = rx.recv().unwrap(); // started still streams
        job.finish(JobOutcome::Cancelled);
        assert!(rx.recv().is_err(), "no terminal event in sync mode");
        assert!(matches!(job.wait(), JobOutcome::Cancelled));
        let row = job.to_json(true);
        assert_eq!(row.get("state").and_then(Json::as_str), Some("cancelled"));
        assert!(row.get("result").is_none(), "{row}");
    }

    #[test]
    fn sync_jobs_hand_their_result_to_the_waiter() {
        let (tx, rx) = channel();
        let job = Job::new(10, JobKind::Check, "t".into(), true, tx);
        job.set_running();
        let _ = rx.recv().unwrap(); // started still streams
        job.finish(JobOutcome::Done(Json::obj([("x", Json::from(1usize))])));
        assert!(rx.recv().is_err(), "no terminal event in sync mode");
        // the waiter takes the result; the row keeps the state only
        match job.wait() {
            JobOutcome::Done(doc) => assert_eq!(doc.to_string(), "{\"x\":1}"),
            other => panic!("wrong outcome: {other:?}"),
        }
        let row = job.to_json(true);
        assert_eq!(row.get("state").and_then(Json::as_str), Some("done"));
        assert!(row.get("result").is_none(), "{row}");
    }
}
