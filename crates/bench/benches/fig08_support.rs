//! Criterion micro-benchmark for Figs. 8/9: runtime vs support threshold
//! k on the tax workload. CTANE improves sharply with k; FastCFD and
//! NaiveFast barely move — the paper's headline sensitivity result.

use cfd_core::{Ctane, DiscoverOptions, Discoverer, FastCfd};
use cfd_datagen::tax::TaxGenerator;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig08_support");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    let rel = TaxGenerator::new(2_000).generate();
    for k in [2usize, 3, 4, 6] {
        group.bench_with_input(BenchmarkId::new("CTANE", k), &rel, |b, rel| {
            b.iter(|| Ctane.discover(rel, &DiscoverOptions::new(k)))
        });
        group.bench_with_input(BenchmarkId::new("NaiveFast", k), &rel, |b, rel| {
            b.iter(|| FastCfd::naive().discover(rel, &DiscoverOptions::new(k)))
        });
        group.bench_with_input(BenchmarkId::new("FastCFD", k), &rel, |b, rel| {
            b.iter(|| FastCfd::default().discover(rel, &DiscoverOptions::new(k)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
