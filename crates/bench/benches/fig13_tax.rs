//! Criterion micro-benchmark for Figs. 13/16: the tax dataset, runtime
//! vs k (CTANE vs FastCFD head-to-head, as the paper plots).

use cfd_core::{Ctane, DiscoverOptions, Discoverer, FastCfd};
use cfd_datagen::tax::TaxGenerator;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig13_tax");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(2000));
    let rel = TaxGenerator::new(2_000).arity(9).generate();
    for k in [4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::new("CTANE", k), &rel, |b, rel| {
            b.iter(|| Ctane.discover(rel, &DiscoverOptions::new(k)))
        });
        group.bench_with_input(BenchmarkId::new("FastCFD", k), &rel, |b, rel| {
            b.iter(|| FastCfd::default().discover(rel, &DiscoverOptions::new(k)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
