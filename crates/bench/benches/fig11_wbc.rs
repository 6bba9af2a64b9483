//! Criterion micro-benchmark for Figs. 11/14: the Wisconsin breast
//! cancer dataset (simulated, 699 × 11), runtime vs k. CTANE runs with a
//! bounded LHS so the bench stays criterion-sized; the shape (CTANE
//! falls quickly with k, FastCFD nearly flat) is the paper's claim.

use cfd_core::{Ctane, DiscoverOptions, Discoverer, FastCfd};
use cfd_datagen::wbc::wbc_relation;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_wbc");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(2000));
    let rel = wbc_relation();
    for k in [60usize, 100, 140] {
        group.bench_with_input(BenchmarkId::new("CTANE", k), &rel, |b, rel| {
            b.iter(|| Ctane.discover(rel, &DiscoverOptions::new(k).max_lhs(3)))
        });
        group.bench_with_input(BenchmarkId::new("FastCFD", k), &rel, |b, rel| {
            b.iter(|| FastCfd::default().discover(rel, &DiscoverOptions::new(k)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
