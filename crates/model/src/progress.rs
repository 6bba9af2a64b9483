//! Run control and instrumentation for long-running operations.
//!
//! Discovery over a large instance can run for minutes; a server or UI
//! embedding it needs to cancel a run, observe its progress, and read
//! search counters afterwards. This module provides the shared
//! substrate: a [`Control`] handle (cancellation flag + optional
//! deadline + progress sink + optional [`MetricsSink`]) that algorithms
//! poll at coarse checkpoints, and [`SearchStats`], the
//! machine-readable counters every algorithm fills in best-effort.
//!
//! The high-level API that consumes these (the `Discoverer` trait, the
//! `Algo` registry) lives in `cfd-core`; this crate only hosts the
//! types — and the shared [`DiscoverOptions`](crate::options::DiscoverOptions)
//! — so that `cfd-fd`'s baselines can be instrumented and configured
//! without depending on `cfd-core`. Likewise the
//! [`MetricsSink`] *trait* lives here so every layer (kernel, stream,
//! miners) can emit named metrics without depending on the `cfd-obs`
//! registry that implements it, and the span guard ([`span!`](crate::span),
//! [`SpanGuard`]) lives here so every layer, this crate's ingestion
//! pipeline included, times its work through the one global switch and
//! the one set of exact per-name [`SpanTotal`]s. `cfd-obs` re-exports
//! both.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A named-metrics consumer: counters accumulate, gauges hold the last
/// written value, histograms record value distributions. The `cfd-obs`
/// `Registry` is the canonical implementation; the trait lives in
/// `cfd-model` so instrumented layers need no `cfd-obs` dependency.
///
/// Implementations must be cheap and thread-safe: parallel algorithms
/// emit from worker threads. Metric names are `&'static str` by design
/// — the emitting site owns the name, so a sink never allocates to
/// store one (the naming scheme is documented in DESIGN.md §10).
pub trait MetricsSink: Send + Sync {
    /// Adds `delta` to the counter `name` (creating it at 0).
    fn add(&self, name: &'static str, delta: u64);
    /// Sets the gauge `name` to `value` (last write wins).
    fn set_gauge(&self, name: &'static str, value: u64);
    /// Records `value` into the histogram `name`.
    fn observe(&self, name: &'static str, value: u64);
}

/// A coarse progress event reported by an algorithm mid-run.
///
/// `done`/`total` are in algorithm-specific units (lattice levels for
/// the level-wise algorithms, RHS attributes for the depth-first ones);
/// `total == 0` means the total is unknown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Progress {
    /// The phase the algorithm is in (e.g. `"mine"`, `"level"`, `"rhs"`).
    pub phase: &'static str,
    /// Units of work completed within the phase.
    pub done: usize,
    /// Units of work expected within the phase (0 when unknown).
    pub total: usize,
}

/// The run was cancelled through its [`Control`] handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("run cancelled")
    }
}

impl std::error::Error for Cancelled {}

/// Cancellation and progress plumbing for a single run.
///
/// `Control::default()` is a no-op handle (never cancelled, progress
/// dropped) — the right argument when no supervision is needed.
/// Algorithms poll [`Control::check`] at coarse checkpoints (per lattice
/// level, per RHS attribute, per free pattern), so cancellation latency
/// is bounded by the largest single unit of work, not by the whole run.
///
/// The handle is `Copy` and shares the flag/sink by reference, so one
/// flag can supervise the worker threads of a parallel run.
///
/// ```
/// use cfd_model::progress::Control;
/// use std::sync::atomic::{AtomicBool, Ordering};
///
/// let stop = AtomicBool::new(false);
/// let ctrl = Control::default().cancel_with(&stop);
/// assert!(ctrl.check().is_ok());
/// stop.store(true, Ordering::Relaxed);
/// assert!(ctrl.check().is_err());
/// ```
#[derive(Clone, Copy, Default)]
pub struct Control<'a> {
    cancel: Option<&'a AtomicBool>,
    progress: Option<&'a (dyn Fn(Progress) + Sync)>,
    metrics: Option<&'a dyn MetricsSink>,
    deadline: Option<Instant>,
}

impl<'a> Control<'a> {
    /// Attaches a cancellation flag: once the flag is set (any thread,
    /// `Ordering::Relaxed` suffices), [`Control::check`] fails.
    pub fn cancel_with(mut self, flag: &'a AtomicBool) -> Control<'a> {
        self.cancel = Some(flag);
        self
    }

    /// Attaches a deadline: once `Instant::now()` passes it,
    /// [`Control::check`] fails at the next checkpoint. The deadline is
    /// polled at the *same* coarse checkpoints as the cancellation flag,
    /// so timeout latency is bounded by the largest single unit of work
    /// — there is no extra timer thread. A run that misses its deadline
    /// still surfaces as [`Cancelled`]; the embedding layer (e.g. the
    /// serve worker pool) distinguishes "cancelled by the user" from
    /// "timed out" by inspecting [`Control::deadline_exceeded`] and the
    /// flag after the run returns.
    pub fn deadline_with(mut self, deadline: Instant) -> Control<'a> {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a progress sink. The callback must be `Sync`: parallel
    /// algorithms report from worker threads.
    pub fn progress_with(mut self, sink: &'a (dyn Fn(Progress) + Sync)) -> Control<'a> {
        self.progress = Some(sink);
        self
    }

    /// Attaches a metrics sink: instrumented layers emit named
    /// counters/gauges/histograms into it (dropped when absent, so an
    /// un-instrumented run pays one branch per emission site).
    pub fn metrics_with(mut self, sink: &'a dyn MetricsSink) -> Control<'a> {
        self.metrics = Some(sink);
        self
    }

    /// The attached metrics sink, if any.
    pub fn metrics(&self) -> Option<&'a dyn MetricsSink> {
        self.metrics
    }

    /// True iff the cancellation flag is set.
    pub fn cancelled(&self) -> bool {
        self.cancel.is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// The attached deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// True iff a deadline is attached and has already passed. Reads
    /// the clock only when a deadline is set, so un-deadlined runs pay
    /// one branch per checkpoint.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Checkpoint: `Err(Cancelled)` once the flag is set or the
    /// deadline has passed. Each call counts into the `control.checks`
    /// metric, so a metrics snapshot shows how responsive a run would
    /// have been to cancellation.
    pub fn check(&self) -> Result<(), Cancelled> {
        self.metric_add("control.checks", 1);
        if self.cancelled() || self.deadline_exceeded() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }

    /// Reports a progress event (dropped when no sink is attached).
    pub fn report(&self, phase: &'static str, done: usize, total: usize) {
        if let Some(sink) = self.progress {
            sink(Progress { phase, done, total });
        }
    }

    /// Adds to a counter on the attached metrics sink (no-op without one).
    pub fn metric_add(&self, name: &'static str, delta: u64) {
        if let Some(m) = self.metrics {
            m.add(name, delta);
        }
    }

    /// Sets a gauge on the attached metrics sink (no-op without one).
    pub fn metric_gauge(&self, name: &'static str, value: u64) {
        if let Some(m) = self.metrics {
            m.set_gauge(name, value);
        }
    }
}

impl std::fmt::Debug for Control<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Control")
            .field("cancel", &self.cancel.map(|c| c.load(Ordering::Relaxed)))
            .field("progress", &self.progress.is_some())
            .field("metrics", &self.metrics.is_some())
            .field("deadline", &self.deadline)
            .finish()
    }
}

/// The global span switch: the only thing a disabled [`SpanGuard`]
/// reads.
static TRACING: AtomicBool = AtomicBool::new(false);

/// Shards of the per-name span totals. A thread adds into the shard of
/// its dense id, so up to this many threads record without contending
/// on one lock.
const SPAN_SHARDS: usize = 8;

static SPAN_TOTALS: [Mutex<Vec<SpanTotal>>; SPAN_SHARDS] =
    [const { Mutex::new(Vec::new()) }; SPAN_SHARDS];

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SPAN_SHARD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % SPAN_SHARDS;
}

/// Every closed span of one name since [`install_tracing`]: exact, as
/// each span adds itself when it closes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanTotal {
    /// Span name (a static site-owned string, e.g. `"validate.family_scan"`).
    pub name: &'static str,
    /// Spans closed.
    pub count: u64,
    /// Sum of their durations.
    pub total: Duration,
    /// Longest single span.
    pub max: Duration,
}

/// Turns span recording on and clears the totals of any earlier
/// session. A span records only if the switch was on when it opened.
pub fn install_tracing() {
    for shard in &SPAN_TOTALS {
        lock(shard).clear();
    }
    TRACING.store(true, Ordering::Release);
}

/// Turns span recording off; the totals stay for [`span_totals`].
/// Spans open at this point still add themselves when they close.
pub fn shutdown_tracing() {
    TRACING.store(false, Ordering::Release);
}

/// True iff spans are recording.
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// The totals of every span name recorded since [`install_tracing`],
/// heaviest first (descending `total`, then name, so the order is
/// deterministic).
pub fn span_totals() -> Vec<SpanTotal> {
    let mut all: Vec<SpanTotal> = Vec::new();
    for shard in &SPAN_TOTALS {
        for &t in lock(shard).iter() {
            add_into(&mut all, t);
        }
    }
    all.sort_by(|a, b| b.total.cmp(&a.total).then(a.name.cmp(b.name)));
    all
}

/// An open span; adds its duration to its name's [`SpanTotal`] when
/// dropped. Bind it — `let _g = span!(..)` — or the span closes on the
/// same line it opened.
#[must_use = "a span guard measures until it is dropped; bind it with `let`"]
pub struct SpanGuard {
    name: &'static str,
    /// `None` when tracing was off at entry — drop is then a no-op.
    start: Option<Instant>,
}

impl SpanGuard {
    /// Opens a span. When tracing is disabled this is one relaxed
    /// atomic load: no clock read, no allocation, and its drop does
    /// nothing.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        let start = TRACING.load(Ordering::Relaxed).then(Instant::now);
        SpanGuard { name, start }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            add_span(self.name, start.elapsed());
        }
    }
}

/// Adds one closed span to its name's total in this thread's shard.
fn add_span(name: &'static str, took: Duration) {
    let shard = SPAN_SHARD.with(|s| *s);
    let one = SpanTotal {
        name,
        count: 1,
        total: took,
        max: took,
    };
    add_into(&mut lock(&SPAN_TOTALS[shard]), one);
}

/// Locks one shard of the totals. Every update leaves a shard's list
/// whole, so a shard a panicking thread poisoned is still used, and a
/// guard dropped while unwinding does not panic again.
fn lock(shard: &Mutex<Vec<SpanTotal>>) -> MutexGuard<'_, Vec<SpanTotal>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Adds `t` into the entry of its name in `totals`, or appends it.
fn add_into(totals: &mut Vec<SpanTotal>, t: SpanTotal) {
    match totals.iter_mut().find(|a| a.name == t.name) {
        Some(a) => {
            a.count += t.count;
            a.total += t.total;
            a.max = a.max.max(t.max);
        }
        None => totals.push(t),
    }
}

/// Opens a named span for the enclosing scope (`cfd_obs::span!` is
/// this macro).
///
/// ```
/// use cfd_model::progress::{install_tracing, shutdown_tracing, span_totals};
/// install_tracing();
/// for _ in 0..3 {
///     let _span = cfd_model::span!("validate.family_scan");
///     // ... measured work ...
/// }
/// shutdown_tracing();
/// let scan = span_totals()[0];
/// assert_eq!((scan.name, scan.count), ("validate.family_scan", 3));
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::progress::SpanGuard::enter($name)
    };
}

/// One named phase of a run with its wall-clock duration.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseTiming {
    /// Phase name (e.g. `"mine"`, `"findcover"`, `"total"`).
    pub name: &'static str,
    /// Wall-clock time spent in the phase.
    pub duration: Duration,
}

/// Partition traffic of the level walk CTANE and TANE run (the type
/// lives here so `SearchStats` stays below `cfd-partition` in the crate
/// graph). All-zero for the other algorithms.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Parent-partition lookups served from a held partition (the
    /// approximate error counts).
    pub hits: u64,
    /// Always 0: the walk holds every parent partition it looks up, so
    /// none is rebuilt.
    pub misses: u64,
    /// Always 0: the walk drops no partition to fit a budget.
    pub evictions: u64,
    /// The most partitions held at once during the run: its high-water
    /// mark (the walk samples what it holds as each level completes).
    pub entries: u64,
    /// The most approximate partition bytes held at once during the
    /// run, sampled like `entries`.
    pub bytes: u64,
}

/// Search counters filled in (best-effort) by every discovery
/// algorithm. Counters an algorithm has no notion of stay 0; the
/// semantics of each counter in a given algorithm are documented on the
/// algorithm.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SearchStats {
    /// Candidate rules subjected to a validity / minimality test.
    pub candidates: u64,
    /// Candidates rejected before emission (pruned lattice elements,
    /// covers failing left-reduction, forbidden RHS items, …).
    pub pruned: u64,
    /// Partitions / groupings materialized.
    pub partitions: u64,
    /// k-frequent free patterns mined.
    pub free_sets: u64,
    /// Closed patterns mined.
    pub closed_sets: u64,
    /// Minimal difference-set families computed.
    pub diff_set_families: u64,
    /// Rules emitted before canonical-cover normalization.
    pub emitted: u64,
    /// Partition traffic of the level-wise miners, all-zero elsewhere.
    pub store: StoreCounters,
    /// Per-phase wall-clock timings recorded by the algorithm.
    pub phases: Vec<PhaseTiming>,
}

impl SearchStats {
    /// Accumulates `other` into `self` (counters add, phases append) —
    /// used to merge worker-thread stats.
    pub fn merge(&mut self, other: &SearchStats) {
        self.candidates += other.candidates;
        self.pruned += other.pruned;
        self.partitions += other.partitions;
        self.free_sets += other.free_sets;
        self.closed_sets += other.closed_sets;
        self.diff_set_families += other.diff_set_families;
        self.emitted += other.emitted;
        self.store.hits += other.store.hits;
        self.store.misses += other.store.misses;
        self.store.evictions += other.store.evictions;
        self.store.entries += other.store.entries;
        self.store.bytes += other.store.bytes;
        self.phases.extend(other.phases.iter().cloned());
    }

    /// Records a completed phase.
    pub fn phase(&mut self, name: &'static str, duration: Duration) {
        self.phases.push(PhaseTiming { name, duration });
    }
}

/// The number of workers a parallel phase runs for a requested
/// `threads`: at least one, and no more than the cores this process
/// may use. `threads` arrives unchecked from the command line and the
/// wire, so a huge value must not become one thread per work item.
pub fn workers(threads: usize) -> usize {
    // serial runs, the default, skip the core query: on Linux it reads
    // the process's affinity mask and cgroup quota
    if threads <= 1 {
        return 1;
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    threads.min(cores)
}

/// Runs `work` over `runs` on up to [`workers`]`(threads)` scoped
/// workers with a deterministic merge — the one sharding harness every
/// parallel phase runs on: ingest's per-column encoding, the level-wise
/// miners (CTANE/TANE expansion, the item-set miner's free-set pass),
/// FastCFD's per-RHS `FindCover`, the validation kernel and the
/// streaming engine.
///
/// `runs` is any exact-size sequence: a slice's items by reference, a
/// range, or `chunks_mut()`/`iter_mut()` when each run mutates the
/// state it names.
/// Each worker takes the next unclaimed run from one shared queue, so a
/// heavy run holds up only the worker that took it; each run's outputs
/// are collected into a private batch and the batches are concatenated
/// in *run order*, so the result is byte-identical to the serial loop
/// for every thread count. Workers poll `ctrl` once per run
/// (cancellation keeps working mid-phase), build worker-local state via
/// `scratch`, and fill a private [`SearchStats`] that is merged into
/// `stats` at the end.
pub fn shard_runs<I, S, T, G, F>(
    runs: I,
    threads: usize,
    ctrl: &Control<'_>,
    stats: &mut SearchStats,
    scratch: G,
    work: F,
) -> Result<Vec<T>, Cancelled>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Send,
    T: Send,
    G: Fn() -> S + Sync,
    F: Fn(I::Item, &mut S, &mut SearchStats, &mut Vec<T>) + Sync,
{
    let runs = runs.into_iter();
    let workers = workers(threads).min(runs.len().max(1));
    if workers <= 1 {
        let mut out = Vec::new();
        let mut local = SearchStats::default();
        let mut s = scratch();
        for run in runs {
            ctrl.check()?;
            work(run, &mut s, &mut local, &mut out);
        }
        stats.merge(&local);
        return Ok(out);
    }
    // the runs in order, numbered: a worker's next run is the queue's
    // next entry
    let queue = std::sync::Mutex::new(runs.enumerate().collect::<Vec<_>>().into_iter());
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (work, scratch, queue) = (&work, &scratch, &queue);
                let ctrl = *ctrl;
                scope.spawn(move || {
                    let mut s = scratch();
                    let mut produced: Vec<(usize, Vec<T>)> = Vec::new();
                    let mut local = SearchStats::default();
                    loop {
                        let next = queue
                            .lock()
                            .expect("no worker panics holding the queue")
                            .next();
                        let Some((ri, run)) = next else { break };
                        ctrl.check()?;
                        let mut batch = Vec::new();
                        work(run, &mut s, &mut local, &mut batch);
                        produced.push((ri, batch));
                    }
                    Ok((produced, local))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard_runs worker panicked"))
            .collect::<Vec<Result<_, Cancelled>>>()
    });
    let mut merged: Vec<(usize, Vec<T>)> = Vec::new();
    for r in results {
        let (produced, local) = r?;
        merged.extend(produced);
        stats.merge(&local);
    }
    merged.sort_unstable_by_key(|&(ri, _)| ri);
    Ok(merged.into_iter().flat_map(|(_, batch)| batch).collect())
}

/// Maps `f` over `items` on up to [`workers`]`(threads)` scoped
/// workers, each owning one `scratch`, results in input order —
/// [`shard_runs`] with one item per run and no cancellation.
pub fn par_map<I, S, R>(
    items: I,
    threads: usize,
    scratch: impl Fn() -> S + Sync,
    f: impl Fn(I::Item, &mut S) -> R + Sync,
) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Send,
    R: Send,
{
    shard_runs(
        items,
        threads,
        &Control::default(),
        &mut SearchStats::default(),
        scratch,
        |item, scratch, _stats, out| out.push(f(item, scratch)),
    )
    .expect("default Control is never cancelled")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn default_control_never_cancels() {
        let c = Control::default();
        assert!(!c.cancelled());
        assert!(c.check().is_ok());
        c.report("phase", 1, 2); // dropped, must not panic
    }

    #[test]
    fn cancellation_flag_trips_check() {
        let flag = AtomicBool::new(false);
        let c = Control::default().cancel_with(&flag);
        assert!(c.check().is_ok());
        flag.store(true, Ordering::Relaxed);
        assert_eq!(c.check(), Err(Cancelled));
    }

    #[test]
    fn deadline_trips_check_once_passed() {
        let now = Instant::now();
        let live = Control::default().deadline_with(now + Duration::from_secs(3600));
        assert!(!live.deadline_exceeded());
        assert!(live.check().is_ok());
        let expired = Control::default().deadline_with(now - Duration::from_millis(1));
        assert!(expired.deadline_exceeded());
        assert_eq!(expired.check(), Err(Cancelled));
        // an expired deadline does not set the cancellation *flag* view
        assert!(!expired.cancelled());
        // no deadline attached: never exceeded
        assert!(!Control::default().deadline_exceeded());
        assert_eq!(Control::default().deadline(), None);
    }

    #[test]
    fn progress_events_reach_the_sink() {
        use std::sync::Mutex;
        let events: Mutex<Vec<Progress>> = Mutex::new(Vec::new());
        let sink = |p: Progress| events.lock().unwrap().push(p);
        let c = Control::default().progress_with(&sink);
        c.report("level", 1, 7);
        c.report("level", 2, 7);
        let seen = events.into_inner().unwrap();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].phase, "level");
        assert_eq!(seen[1].done, 2);
    }

    #[test]
    fn shard_runs_is_deterministic_and_cancellable() {
        let runs: Vec<usize> = (0..23).collect();
        let ctrl = Control::default();
        let work = |&r: &usize, s: &mut usize, st: &mut SearchStats, out: &mut Vec<usize>| {
            *s += 1;
            st.candidates += 1;
            out.extend([r * 2, r * 2 + 1]);
        };
        let mut stats1 = SearchStats::default();
        let serial = shard_runs(&runs, 1, &ctrl, &mut stats1, || 0usize, work).unwrap();
        for threads in [2, 4, 16] {
            let mut statsn = SearchStats::default();
            let sharded = shard_runs(&runs, threads, &ctrl, &mut statsn, || 0usize, work).unwrap();
            assert_eq!(serial, sharded, "threads={threads}");
            assert_eq!(statsn.candidates, stats1.candidates);
        }
        // pre-cancelled: workers bail on their first checkpoint
        let flag = AtomicBool::new(true);
        let ctrl = Control::default().cancel_with(&flag);
        let mut stats = SearchStats::default();
        let r = shard_runs(&runs, 4, &ctrl, &mut stats, || 0usize, work);
        assert_eq!(r, Err(Cancelled));
        // no runs at all is fine
        let none: Vec<usize> = Vec::new();
        let got = shard_runs(&none, 4, &Control::default(), &mut stats, || 0usize, work).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn shard_runs_hands_each_free_worker_the_next_run() {
        if workers(2) < 2 {
            return; // one core: the runs go serially
        }
        // run 0 waits until every other run is done, so it completes
        // only if the worker holding it is handed none of them
        let runs: Vec<usize> = (0..9).collect();
        let done = std::sync::Mutex::new(0usize);
        let woke = std::sync::Condvar::new();
        let work = |&r: &usize, _: &mut (), _: &mut SearchStats, out: &mut Vec<(usize, bool)>| {
            let mut others = done.lock().unwrap();
            if r == 0 {
                let wait = Duration::from_secs(10);
                let (others, waited) = woke
                    .wait_timeout_while(others, wait, |d| *d < runs.len() - 1)
                    .unwrap();
                drop(others);
                out.push((r, !waited.timed_out()));
            } else {
                *others += 1;
                woke.notify_all();
                out.push((r, true));
            }
        };
        let mut stats = SearchStats::default();
        let got = shard_runs(&runs, 2, &Control::default(), &mut stats, || (), work).unwrap();
        let want: Vec<(usize, bool)> = runs.iter().map(|&r| (r, true)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_map_runs_no_more_workers_than_cores() {
        let items: Vec<u64> = (0..10_000).collect();
        let ids = std::sync::Mutex::new(std::collections::HashSet::new());
        let out = par_map(
            &items,
            usize::MAX,
            || (),
            |&x, _| {
                ids.lock().unwrap().insert(std::thread::current().id());
                x * x
            },
        );
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(ids.into_inner().unwrap().len() <= cores);
    }

    #[test]
    fn stats_merge_adds_counters() {
        let mut a = SearchStats {
            candidates: 2,
            pruned: 1,
            ..SearchStats::default()
        };
        let mut b = SearchStats {
            candidates: 3,
            ..SearchStats::default()
        };
        b.phase("mine", Duration::from_millis(5));
        a.merge(&b);
        assert_eq!(a.candidates, 5);
        assert_eq!(a.pruned, 1);
        assert_eq!(a.phases.len(), 1);
    }
}
