//! Named fault-injection points for chaos testing.
//!
//! The serve stack is sprinkled with a handful of *fault points* —
//! named places where an injected failure is representative of a whole
//! class of real-world trouble:
//!
//! | point         | where it fires                         | simulates                         |
//! |---------------|----------------------------------------|-----------------------------------|
//! | `read_line`   | before reading a request line          | dead/flaky client sockets         |
//! | `job_run`     | inside a worker, before running a job  | panicking / wedged algorithms     |
//! | `ingest`      | before a `register` ingests its CSV    | disk/parse failures mid-ingest    |
//! | `reply_write` | in the writer thread, per reply line   | broken pipes, torn replies        |
//!
//! The module is compiled unconditionally (same spirit as the
//! `cfd-obs` spans): when nothing is armed, [`hit`] is one relaxed
//! atomic load — no lock, no clock, no allocation — so production
//! binaries carry the harness for free. Faults are armed through the
//! test-only `inject` op of a server started with fault injection
//! enabled (`cfd serve --faults`), or by [`arm`] in-process, and each
//! armed fault is a finite schedule: *skip* the first S matching hits,
//! then *fire* the next T, then disarm.
//!
//! Actions model the four failure shapes the chaos suite needs:
//! [`FaultAction::IoError`] (the stream dies), [`FaultAction::ShortRead`]
//! (torn frame: half the data arrives, then the stream dies),
//! [`FaultAction::Delay`] (a stall, in ms — exercises deadlines and
//! io-timeouts), and [`FaultAction::Panic`] (the code at the point
//! panics — exercises panic isolation).
//!
//! State is process-global by design: the chaos tests run one server
//! per process and arm faults over the wire, exactly as an operator
//! would against a staging instance.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// The valid fault-point names, in stack order.
pub const POINTS: &[&str] = &["read_line", "job_run", "ingest", "reply_write"];

/// What an armed fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// The operation at the point fails as if the underlying stream
    /// died (connection-level points disconnect; `job_run` fails the
    /// job with an `io` error).
    IoError,
    /// A torn frame: roughly half the data is delivered, then the
    /// stream dies.
    ShortRead,
    /// The point stalls for this many milliseconds, then proceeds.
    Delay(u64),
    /// The code at the point panics.
    Panic,
}

impl FaultAction {
    /// Wire name of the action (without the delay parameter).
    pub fn name(self) -> &'static str {
        match self {
            FaultAction::IoError => "io_error",
            FaultAction::ShortRead => "short_read",
            FaultAction::Delay(_) => "delay",
            FaultAction::Panic => "panic",
        }
    }
}

/// One armed fault: a point, an optional session filter, an action,
/// and a finite firing schedule.
#[derive(Clone, Copy, Debug)]
struct Arm {
    point: &'static str,
    /// Only hits from this session match (`None`: any session).
    /// `job_run` hits carry the *submitting* session's id.
    session: Option<u64>,
    action: FaultAction,
    /// Matching hits to let pass before the first firing.
    skip: u64,
    /// Firings left; the arm is removed at zero.
    times: u64,
    /// Matching hits seen so far.
    seen: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ARMS: Mutex<Vec<Arm>> = Mutex::new(Vec::new());
static INJECTED: AtomicU64 = AtomicU64::new(0);

fn arms() -> std::sync::MutexGuard<'static, Vec<Arm>> {
    // a panic injected *at* a fault point can never happen while this
    // lock is held, but recover from poisoning anyway: the Vec is
    // always left consistent
    ARMS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Resolves a point name to its canonical `&'static str`.
fn canonical(point: &str) -> Result<&'static str, String> {
    POINTS
        .iter()
        .find(|p| **p == point)
        .copied()
        .ok_or_else(|| {
            format!(
                "unknown fault point {point:?} (valid: {})",
                POINTS.join(", ")
            )
        })
}

/// Arms a fault: after `skip` matching hits, the next `times` hits at
/// `point` (filtered to `session` when given) perform `action`.
/// Rejects unknown point names and zero-shot schedules.
pub fn arm(
    point: &str,
    session: Option<u64>,
    action: FaultAction,
    skip: u64,
    times: u64,
) -> Result<(), String> {
    let point = canonical(point)?;
    if times == 0 {
        return Err("fault schedule must fire at least once (times >= 1)".to_string());
    }
    arms().push(Arm {
        point,
        session,
        action,
        skip,
        times,
        seen: 0,
    });
    ENABLED.store(true, Ordering::Relaxed);
    Ok(())
}

/// Disarms everything; [`hit`] goes back to its one-load fast path.
pub fn clear() {
    let mut a = arms();
    a.clear();
    ENABLED.store(false, Ordering::Relaxed);
}

/// Total faults fired since process start (the `serve.faults_injected`
/// stats gauge).
pub fn injected() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

/// The instrumented code's probe: did an armed fault fire for
/// `session` at `point`? The caller performs the returned action.
/// When nothing is armed this is a single relaxed load.
pub fn hit(point: &'static str, session: u64) -> Option<FaultAction> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    let mut a = arms();
    let mut fired = None;
    for arm in a.iter_mut() {
        if arm.point != point || arm.session.is_some_and(|s| s != session) {
            continue;
        }
        arm.seen += 1;
        if arm.seen > arm.skip && arm.times > 0 {
            arm.times -= 1;
            fired = Some(arm.action);
            break;
        }
    }
    a.retain(|arm| arm.times > 0);
    if a.is_empty() {
        ENABLED.store(false, Ordering::Relaxed);
    }
    if fired.is_some() {
        INJECTED.fetch_add(1, Ordering::Relaxed);
    }
    fired
}

/// Parses one action name: `io_error`, `short_read`, `panic`, or
/// `delay` (for `delay_ms`, 10 ms when unset).
pub fn parse_action(spec: &str, delay_ms: Option<u64>) -> Result<FaultAction, String> {
    match spec {
        "io_error" => Ok(FaultAction::IoError),
        "short_read" => Ok(FaultAction::ShortRead),
        "panic" => Ok(FaultAction::Panic),
        "delay" => Ok(FaultAction::Delay(delay_ms.unwrap_or(10))),
        other => Err(format!(
            "unknown fault action {other:?} (valid: io_error, short_read, delay, panic)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // faultpoint state is process-global; this single test exercises
    // the whole lifecycle so no two tests race on the static arms.
    #[test]
    fn arming_firing_and_clearing_lifecycle() {
        clear();
        assert_eq!(hit("read_line", 1), None, "disarmed: fast path");

        // unknown points and empty schedules are rejected
        assert!(arm("no_such_point", None, FaultAction::Panic, 0, 1).is_err());
        assert!(arm("job_run", None, FaultAction::Panic, 0, 0).is_err());

        // skip 1, fire 2, session-filtered
        arm("job_run", Some(7), FaultAction::Panic, 1, 2).unwrap();
        let before = injected();
        assert_eq!(hit("job_run", 9), None, "other session never matches");
        assert_eq!(hit("job_run", 7), None, "first matching hit is skipped");
        assert_eq!(hit("job_run", 7), Some(FaultAction::Panic));
        assert_eq!(hit("job_run", 7), Some(FaultAction::Panic));
        assert_eq!(hit("job_run", 7), None, "schedule exhausted");
        assert_eq!(injected(), before + 2);
        clear();
    }
}
