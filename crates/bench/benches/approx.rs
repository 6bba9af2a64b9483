//! Approximate-vs-exact CTANE on the synthetic tax workload: one group
//! per θ ∈ {0.9, 0.95, 1.0} plus the legacy exact path as the control.
//!
//! What this measures: the θ < 1.0 validity test swaps CTANE's O(1)
//! class/row-count comparison for a per-class max-frequency walk over
//! the *parent* partition (`StrippedPartition::keep_count`) and retains one
//! extra level of partitions — and a relaxed test prunes less, so the
//! lattice itself grows. The θ = 1.0 group must sit on top of the
//! exact control (the parity guarantee of DESIGN.md §8 means the two
//! run the identical code path).
//!
//! The recorded baseline for this bench lives in `BENCH_APPROX.json`
//! at the repository root; re-run with
//! `cargo bench -p cfd-bench --bench approx` and update the file when
//! the numbers move.

use cfd_core::api::{Algo, Control, DiscoverOptions, Discoverer};
use cfd_datagen::tax::TaxGenerator;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("approx_ctane");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    let ctrl = Control::default();
    for dbsize in [500usize, 1_000] {
        let rel = TaxGenerator::new(dbsize).generate();
        let k = (dbsize / 1000).max(2);
        // control: the exact engine, untouched by the θ machinery
        let exact = DiscoverOptions::new(k);
        group.bench_with_input(BenchmarkId::new("exact", dbsize), &rel, |b, rel| {
            b.iter(|| Algo::Ctane.discover_with(rel, &exact, &ctrl).unwrap().cover)
        });
        for theta in [0.9f64, 0.95, 1.0] {
            let opts = DiscoverOptions::new(k).min_confidence(theta);
            let id = BenchmarkId::new(format!("theta-{theta}"), dbsize);
            group.bench_with_input(id, &rel, |b, rel| {
                b.iter(|| Algo::Ctane.discover_with(rel, &opts, &ctrl).unwrap().cover)
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
