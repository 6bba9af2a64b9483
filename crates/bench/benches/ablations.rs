//! Criterion micro-benchmarks for the design-choice ablations of
//! DESIGN.md: Lemma 5 free-set pruning, the Closed₂ vs stripped-partition
//! difference-set engines, FindMin dynamic reordering, the classical
//! FD baselines (TANE vs FastFD), and the partition-layer constant
//! lookups (full-relation scans vs cached counting-sort value regions).

use cfd_core::{DiffSetMode, DiscoverOptions, Discoverer, FastCfd, Tane};
use cfd_datagen::tax::TaxGenerator;
use cfd_fd::FastFd;
use cfd_model::pattern::PVal;
use cfd_partition::{RefineScratch, StrippedPartition};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    let rel = TaxGenerator::new(1_500).generate();
    let k = 2;

    group.bench_with_input(BenchmarkId::new("freeset", "on"), &rel, |b, rel| {
        b.iter(|| FastCfd::default().discover(rel, &DiscoverOptions::new(k)))
    });
    group.bench_with_input(BenchmarkId::new("freeset", "off"), &rel, |b, rel| {
        b.iter(|| {
            FastCfd::default()
                .free_set_pruning(false)
                .discover(rel, &DiscoverOptions::new(k))
        })
    });

    group.bench_with_input(BenchmarkId::new("engine", "closed2"), &rel, |b, rel| {
        b.iter(|| FastCfd::default().discover(rel, &DiscoverOptions::new(k)))
    });
    group.bench_with_input(BenchmarkId::new("engine", "stripped"), &rel, |b, rel| {
        b.iter(|| {
            FastCfd::default()
                .mode(DiffSetMode::StrippedPartitions)
                .discover(rel, &DiscoverOptions::new(k))
        })
    });

    group.bench_with_input(BenchmarkId::new("reorder", "on"), &rel, |b, rel| {
        b.iter(|| FastCfd::default().discover(rel, &DiscoverOptions::new(k)))
    });
    group.bench_with_input(BenchmarkId::new("reorder", "off"), &rel, |b, rel| {
        b.iter(|| {
            FastCfd::default()
                .dynamic_reorder(false)
                .discover(rel, &DiscoverOptions::new(k))
        })
    });

    // the FD baselines
    let opts = DiscoverOptions::default();
    group.bench_with_input(BenchmarkId::new("fd", "tane"), &rel, |b, rel| {
        b.iter(|| Tane.discover(rel, &opts))
    });
    group.bench_with_input(BenchmarkId::new("fd", "fastfd"), &rel, |b, rel| {
        b.iter(|| FastFd.discover(rel, &opts))
    });

    // partition-layer constant lookups: the CTANE-shaped workload of
    // repeated constant lookups + constant refinements over every value
    // of the small-domain columns, through the columns' value regions
    // (built by the first iteration, kept by the columns after that).
    // (base column, refining column, code) triples over the
    // small-domain columns — large equivalence classes refined by
    // selective constants, the shape CTANE's lattice walk produces
    let small: Vec<usize> = (0..rel.arity())
        .filter(|&a| rel.column(a).domain_size() <= 64)
        .collect();
    let rel_ref = &rel;
    let lookups: Vec<(usize, usize, u32)> = small
        .iter()
        .flat_map(|&base| {
            small
                .iter()
                .filter(move |&&a| a != base)
                .flat_map(move |&a| {
                    (0..rel_ref.column(a).domain_size() as u32).map(move |c| (base, a, c))
                })
        })
        .collect();
    let bases: Vec<StrippedPartition> = (0..rel.arity())
        .map(|a| StrippedPartition::by_attribute(&rel, a))
        .collect();
    let mut scratch = RefineScratch::for_relation(&rel);
    let mut out = StrippedPartition::empty();
    group.bench_with_input(
        BenchmarkId::new("const-lookup", "regions"),
        &(&rel, &lookups, &bases),
        |b, (rel, lookups, bases)| {
            b.iter(|| {
                let mut total = 0usize;
                for &(base, a, c) in lookups.iter() {
                    let members = rel.column(a).regions().region(c).len();
                    bases[base].refine_into(rel, a, PVal::Const(c), &mut scratch, &mut out);
                    total += members + out.n_rows();
                }
                total
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
