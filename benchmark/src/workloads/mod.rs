//! The four workloads. Each one prepares its inputs, sets the program up
//! several times before and after the measured window (`setup_s` is the
//! median), drives it for the window with tracing off, then replays the
//! same calls in-process under the [`Tracer`] and checks every output
//! against that replay.

mod bulk;
mod mine;
mod serve;
mod watch;

use crate::inputs::Scale;
use crate::proc;
use crate::speed::Timings;
use crate::trace::Tracer;
use crate::Res;
use cfd_suite::model::{Control, IngestOptions, Relation};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run before and after the measured window; `setup_s`
/// reports the median of all of them, each divided by the slowdown of
/// the kernel run just before it. A set-up takes tens of milliseconds
/// (hundreds on `bulk`), so a run of them catches the box in one moment:
/// as measured, runs' medians differed by up to 1.8× while the set-ups
/// within each agreed to a few percent. Splitting them around the window
/// samples two moments.
const SETUPS_BEFORE: usize = 4;
const SETUPS_AFTER: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Mine,
    Bulk,
    Serve,
    Watch,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Mine,
        Workload::Bulk,
        Workload::Serve,
        Workload::Watch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Mine => "mine",
            Workload::Bulk => "bulk",
            Workload::Serve => "serve",
            Workload::Watch => "watch",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

pub struct Ctx<'a> {
    pub cfd: &'a Path,
    /// Work directory for this run's generated inputs.
    pub work: &'a Path,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: &'a Scale,
}

impl Ctx<'_> {
    fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

/// One program call: a process, a request or a batch.
pub struct Call {
    pub kind: &'static str,
    /// The op it belongs to: a round of processes for the one-shot
    /// workloads, the call itself otherwise.
    pub op: usize,
    /// Latency divided by the slowdown measured before it: at reference
    /// speed where the workload measures speed, as measured elsewhere.
    pub ms: f64,
    /// Inside the measured window (serve also sends warm-up requests).
    pub timed: bool,
    pub failure: Option<String>,
}

/// Counts taken from the values the replayed calls return.
#[derive(Default)]
pub struct Counters {
    pub ingest_bytes: u64,
    pub candidates: Vec<f64>,
    pub store_hits: u64,
    pub store_misses: u64,
    pub deltas: u64,
    pub updates: u64,
}

pub struct Outcome {
    /// Set-up times in s, and the latency in ms and output bytes of each
    /// op in the measured window.
    pub setup: Timings,
    pub window: Timings,
    pub op_bytes: Vec<f64>,
    pub elapsed_s: f64,
    /// Peak RSS of the measured program process(es).
    pub rss_kb: u64,
    pub calls: Vec<Call>,
    pub tracer: Tracer,
    pub counters: Counters,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            setup: Timings::default(),
            window: Timings::default(),
            op_bytes: Vec::new(),
            elapsed_s: 0.0,
            rss_kb: 0,
            calls: Vec::new(),
            tracer: Tracer::new(),
            counters: Counters::default(),
        }
    }

    /// Marks every call of `kind` failed (its shared reference output
    /// disagreed with the replay).
    fn fail_kind(&mut self, kind: &str, why: &str) {
        for c in self.calls.iter_mut().filter(|c| c.kind == kind) {
            c.failure.get_or_insert_with(|| why.to_string());
        }
    }
}

pub fn run(w: Workload, ctx: &Ctx) -> Res<Outcome> {
    match w {
        Workload::Mine => mine::run(ctx),
        Workload::Bulk => bulk::run(ctx),
        Workload::Serve => serve::run(ctx),
        Workload::Watch => watch::run(ctx),
    }
}

/// The run's work directory, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(path: &Path) -> Res<WorkDir> {
        std::fs::create_dir_all(path)?;
        Ok(WorkDir(path.to_path_buf()))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Loads a CSV the way `cfd discover|check|watch` and the server's
/// by-path `register` do: the chunked pipeline, one thread.
fn ingest(path: &Path) -> Res<Relation> {
    let opts = IngestOptions::default().threads(1);
    Ok(cfd_suite::model::ingest_csv_path(
        path,
        &opts,
        &Control::default(),
    )?)
}

/// Times `n ≥ 1` set-ups of a resident program into `setup`, each after
/// a kernel run, ending each instance but the last with `stop`; returns
/// the last, running.
fn time_setups<T>(
    n: usize,
    setup: &mut Timings,
    start: impl Fn() -> Res<T>,
    stop: impl Fn(T) -> Res<()>,
) -> Res<T> {
    let mut last = None;
    for _ in 0..n {
        if let Some(previous) = last.take() {
            stop(previous)?;
        }
        setup.speed.sample();
        let t = Instant::now();
        last = Some(start()?);
        setup.push(t.elapsed().as_secs_f64());
    }
    Ok(last.expect("at least one set-up"))
}

/// The one-shot workloads' set-up: `cfd stats` on the input, the first
/// look a user takes at a file (a cold process loading it). Adds `n`
/// timings to `setup`, each after a kernel run.
fn setup_stats(ctx: &Ctx, csv: &str, n: usize, setup: &mut Timings) -> Res<()> {
    for _ in 0..n {
        setup.speed.sample();
        let r = proc::run_once(ctx.cfd, &["stats", csv])?;
        if let Some(why) = proc::exit_failure(&r, 0) {
            return Err(format!("cfd stats: {why}").into());
        }
        setup.push(r.secs);
    }
    Ok(())
}

/// Runs `round(i, slowdown)`, op `i`, until the measured window closes
/// (at least once), with a kernel run between ops at most once a second;
/// `slowdown` is the latest run's, for the op's calls. Records the ms
/// each op returns in `window` and returns the window's length in
/// seconds: the last op finishes.
fn until_deadline(
    ctx: &Ctx,
    window: &mut Timings,
    mut round: impl FnMut(usize, f64) -> Res<f64>,
) -> Res<f64> {
    let start = Instant::now();
    let deadline = start + ctx.window();
    let mut i = 0;
    loop {
        window.speed.tick();
        let ms = round(i, window.speed.slowdown())?;
        window.push(ms);
        i += 1;
        if Instant::now() >= deadline {
            return Ok(start.elapsed().as_secs_f64());
        }
    }
}

fn path_str(p: &Path) -> Res<&str> {
    p.to_str()
        .ok_or_else(|| format!("non-UTF-8 path {}", p.display()).into())
}
