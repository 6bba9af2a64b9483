//! Criterion micro-benchmark for the streaming engine: tuple-update
//! throughput (inserts + deletes per second) of `StreamEngine` batch
//! application at 1/2/4 threads, on the tax workload.
//!
//! Each iteration inserts one batch of fresh string tuples (interned as
//! `cfd watch` interns them) and deletes it again, so the engine's live
//! state is identical across samples and the number reported is
//! steady-state update throughput under a rule cover actually
//! discovered on the warm data. Future PRs track this line to keep the
//! serving path's perf trajectory visible.

use cfd_core::{DiscoverOptions, Discoverer, FastCfd};
use cfd_datagen::tax::TaxGenerator;
use cfd_stream::StreamEngine;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    const WARM: usize = 2_000;
    const BATCH: usize = 256;

    // one relation: the warm prefix, and the tail as string rows
    let rel = TaxGenerator::new(WARM + BATCH).generate();
    let warm_rows: Vec<u32> = (0..WARM as u32).collect();
    let warm = rel.restrict(&warm_rows);
    let rules: Vec<_> = FastCfd::default()
        .discover(&warm, &DiscoverOptions::new((WARM / 100).max(2)))
        .into_iter()
        .collect();
    let batch: Vec<Vec<&str>> = (WARM as u32..(WARM + BATCH) as u32)
        .map(|t| rel.tuple_values(t))
        .collect();

    let mut group = c.benchmark_group("streaming");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500))
        // one iteration applies BATCH inserts and BATCH deletes
        .throughput(Throughput::Elements(2 * BATCH as u64));
    for threads in [1usize, 2, 4] {
        let (mut engine, _) = StreamEngine::warm(&warm, rules.clone(), threads);
        group.bench_with_input(
            BenchmarkId::new("insert_delete", threads),
            &batch,
            |b, batch| {
                b.iter(|| {
                    let (ids, _) = engine
                        .insert_batch(batch)
                        .expect("batch rows have the schema's width");
                    engine.delete_batch(&ids).expect("batch rows are live");
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
