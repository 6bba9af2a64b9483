//! Criterion micro-benchmark for Fig. 10: runtime vs correlation factor
//! CF (ARITY = 9). Lower CF ⇒ more duplicate values ⇒ more frequent item
//! sets ⇒ CTANE degrades while the depth-first algorithms barely move.

use cfd_core::{Ctane, DiscoverOptions, Discoverer, FastCfd};
use cfd_datagen::tax::TaxGenerator;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_cf");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    let dbsize = 600;
    let k = 2;
    for cf in [3usize, 5, 7] {
        let rel = TaxGenerator::new(dbsize)
            .arity(9)
            .cf(cf as f64 / 10.0)
            .generate();
        group.bench_with_input(BenchmarkId::new("CTANE", cf), &rel, |b, rel| {
            b.iter(|| Ctane.discover(rel, &DiscoverOptions::new(k)))
        });
        group.bench_with_input(BenchmarkId::new("NaiveFast", cf), &rel, |b, rel| {
            b.iter(|| FastCfd::naive().discover(rel, &DiscoverOptions::new(k)))
        });
        group.bench_with_input(BenchmarkId::new("FastCFD", cf), &rel, |b, rel| {
            b.iter(|| FastCfd::default().discover(rel, &DiscoverOptions::new(k)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
