//! Span tracing: exact per-name totals behind one global switch.
//!
//! A span is entered with the [`span!`](crate::span) macro and closed
//! when the returned [`SpanGuard`] drops; closing adds its duration to
//! its name's [`SpanTotal`] (count, total, max). The totals are kept in
//! a fixed set of mutex-guarded shards, one per thread id modulo the
//! shard count, so parallel scans rarely contend on one lock; a run
//! records any number of spans in a few dozen entries per shard.
//!
//! The guard, the switch and the totals live in
//! `cfd_model::progress`, below every instrumented layer, ingestion
//! included; this module re-exports them. Until [`install_tracing`]
//! runs, [`SpanGuard::enter`] is a single relaxed atomic load — no
//! clock read, no thread-id lookup, no allocation — which is what lets
//! the hot layers keep their `span!` calls compiled in permanently (the
//! disabled-cost budget is tested; see DESIGN.md §10).

pub use cfd_model::progress::{
    install_tracing, shutdown_tracing, span_totals, tracing_enabled, SpanGuard, SpanTotal,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn total(name: &str) -> Option<SpanTotal> {
        span_totals().into_iter().find(|t| t.name == name)
    }

    /// Global tracing state is shared by the whole test binary, so the
    /// lifecycle checks run as one sequential test.
    #[test]
    fn span_totals_are_exact_and_reset_on_install() {
        // Disabled: guards are inert and nothing is recorded.
        assert!(!tracing_enabled());
        {
            let _g = crate::span!("off");
        }
        assert!(span_totals().is_empty());

        install_tracing();
        assert!(tracing_enabled());
        // More spans of one name on one thread than a 4,096-record
        // sample would keep: every one is counted.
        for _ in 0..5_000 {
            let _g = crate::span!("spin");
        }
        // Spans from two threads land in their own shards and add up.
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..3 {
                        let _w = crate::span!("worker");
                        std::thread::sleep(Duration::from_millis(2));
                    }
                });
            }
        });
        assert_eq!(total("spin").unwrap().count, 5_000);
        let worker = total("worker").unwrap();
        assert_eq!(worker.count, 6);
        assert!(worker.total >= 6 * Duration::from_millis(2), "{worker:?}");
        assert!(worker.max >= Duration::from_millis(2) && worker.max <= worker.total);
        // Heaviest first.
        let totals = span_totals();
        assert!(totals.windows(2).all(|w| w[0].total >= w[1].total));
        assert_eq!(totals[0].name, "worker", "{totals:?}");

        shutdown_tracing();
        assert!(!tracing_enabled());
        {
            let _g = crate::span!("late");
        }
        assert_eq!(
            span_totals(),
            totals,
            "spans opened after shutdown record nothing"
        );

        // Installing again starts from zero.
        install_tracing();
        assert!(span_totals().is_empty());
        {
            let _g = crate::span!("spin");
        }
        assert_eq!(total("spin").unwrap().count, 1);
        shutdown_tracing();
    }
}
