//! Proof that instrumentation is free when off: with no subscriber
//! installed, entering and dropping spans performs **zero heap
//! allocations**. This is the contract that lets `span!` stay compiled
//! into the validate kernel's family scans and the stream engine's
//! batch path permanently (overhead budget: DESIGN.md §10).
//!
//! Runs as its own integration-test binary so the counting allocator
//! and the never-installed tracing state can't interfere with the
//! crate's other tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn disabled_spans_allocate_nothing() {
    assert!(!cfd_obs::tracing_enabled());
    // Warm anything lazy (thread-local registration, test harness I/O).
    {
        let _g = cfd_obs::span!("warmup");
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        let _g = cfd_obs::span!("validate.family_scan");
        let _h = cfd_obs::span!("stream.apply_batch");
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "disabled span guards must not touch the heap"
    );
    // And they record nothing.
    assert!(cfd_obs::span_totals().is_empty());
}
