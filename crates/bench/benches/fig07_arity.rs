//! Criterion micro-benchmark for Fig. 7: runtime vs ARITY
//! (DBSIZE scaled down, CF = 0.7). CTANE is benchmarked only on the
//! small-arity prefix — the paper reports it cannot complete beyond
//! arity 17, and its blow-up is visible well before that.

use cfd_core::{Ctane, DiscoverOptions, Discoverer, FastCfd};
use cfd_datagen::tax::TaxGenerator;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig07_arity");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    let dbsize = 800;
    let k = 2;
    for arity in [7usize, 11, 15, 19] {
        let rel = TaxGenerator::new(dbsize).arity(arity).generate();
        if arity <= 9 {
            group.bench_with_input(BenchmarkId::new("CTANE", arity), &rel, |b, rel| {
                b.iter(|| Ctane.discover(rel, &DiscoverOptions::new(k)))
            });
        }
        group.bench_with_input(BenchmarkId::new("NaiveFast", arity), &rel, |b, rel| {
            b.iter(|| FastCfd::naive().discover(rel, &DiscoverOptions::new(k)))
        });
        group.bench_with_input(BenchmarkId::new("FastCFD", arity), &rel, |b, rel| {
            b.iter(|| FastCfd::default().discover(rel, &DiscoverOptions::new(k)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
