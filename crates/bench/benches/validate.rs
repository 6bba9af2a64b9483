//! Cover-validation throughput: the shared kernel (`cfd-validate`)
//! against the per-rule reference scans, on a tax-style instance with a
//! realistic discovered cover — the `cfd check` serving path.
//!
//! The workload is 100k rows × 10 attributes with a 120-rule cover
//! (discovered on a 2k-row sample of the same instance, so rule codes
//! transfer directly). The baseline re-scans the relation once per rule
//! with hashed `Vec<u32>` group keys; the kernel shares one grouping
//! pass per distinct LHS wildcard set and scans with flat group ids.
//! Throughput is rows/s over the whole cover; the kernel runs at 1, 2
//! and 4 worker threads.
//!
//! This workload once regressed 50× without any test noticing (the
//! in-scan measure accumulation, DESIGN.md §3); a scaled-down pin of
//! it now lives in the CI perf-smoke guard (`src/bin/guard.rs`,
//! baselines in `BENCH_GUARD.json`), so the next cliff fails CI.

use cfd_core::{DiscoverOptions, Discoverer, FastCfd};
use cfd_datagen::tax::TaxGenerator;
use cfd_model::violation::violations;
use cfd_model::{Cfd, Relation};
use cfd_validate::{validate, ValidateOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

const ROWS: usize = 100_000;
const RULES: usize = 120;

/// The instance and a cover discovered on a 2k-row sample of it
/// (dictionaries shared via `restrict`, so codes transfer), thinned to
/// a RULES-sized spread across the canonical order.
fn workload() -> (Relation, Vec<Cfd>) {
    let rel = TaxGenerator::new(ROWS).arity(10).seed(7).generate();
    let sample_ids: Vec<u32> = (0..2_000u32).collect();
    let sample = rel.restrict(&sample_ids);
    let cover: Vec<Cfd> = FastCfd::default()
        .discover(&sample, &DiscoverOptions::new(40))
        .into_iter()
        .collect();
    let step = (cover.len() / RULES).max(1);
    let rules: Vec<Cfd> = cover.into_iter().step_by(step).take(RULES).collect();
    assert!(rules.len() >= 100, "want a 100+ rule cover");
    (rel, rules)
}

fn bench(c: &mut Criterion) {
    let (rel, rules) = workload();
    let mut group = c.benchmark_group("validate");
    group
        .sample_size(3)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(rel.n_rows() as u64));

    group.bench_with_input(
        BenchmarkId::new("baseline", "per-rule"),
        &(&rel, &rules),
        |b, (rel, rules)| {
            b.iter(|| {
                let mut n = 0usize;
                for cfd in rules.iter() {
                    n += violations(rel, cfd).len();
                }
                n
            })
        },
    );
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("kernel", threads),
            &(&rel, &rules),
            |b, (rel, rules)| {
                b.iter(|| {
                    validate(
                        rel,
                        rules.iter(),
                        &ValidateOptions {
                            threads,
                            ..Default::default()
                        },
                    )
                    .total_violations()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
