//! Criterion micro-benchmark for Figs. 12/15: the chess endgame dataset
//! (simulated KRK), runtime vs k on a criterion-sized sample.

use cfd_core::{Ctane, DiscoverOptions, Discoverer, FastCfd};
use cfd_datagen::chess::chess_relation;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig12_chess");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(2000));
    let full = chess_relation();
    let rows: Vec<u32> = (0..3_000).collect();
    let rel = full.restrict(&rows);
    for k in [32usize, 64, 128] {
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
