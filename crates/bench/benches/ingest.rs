//! The million-row ingestion bench: the chunked zero-copy pipeline,
//! serial and parallel.
//!
//! What this measures: `ingest_csv_reader` streaming a tax CSV file
//! through 1 MiB chunks at 1/2/4/8 encode workers (more than one share
//! each block's columns out, one column to a worker). Throughput
//! is reported in input bytes; an `# ingest:` line on stderr records
//! the relation-side memory (`Relation::memory_bytes`) and the peak
//! scanner buffer (chunk + longest-record bound), the numbers
//! `BENCH_INGEST.json` at the repository root pins.
//!
//! The row count defaults to 1_000_000; override with `INGEST_ROWS`
//! (CI smoke runs use a smaller instance). The tax CSV is written once
//! to a temp file by the streaming generator — the bench never holds
//! the input and the relation in memory at the same time on the
//! chunked path. Re-run with
//! `cargo bench -p cfd-bench --bench ingest` and update
//! `BENCH_INGEST.json` (with machine notes — thread scaling is
//! meaningless without the core count) when the numbers move.

use cfd_datagen::tax::TaxGenerator;
use cfd_model::progress::Control;
use cfd_model::{ingest_csv_reader, IngestOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::fs::File;
use std::io::BufWriter;
use std::time::Duration;

fn rows() -> usize {
    std::env::var("INGEST_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000)
}

fn bench(c: &mut Criterion) {
    let n_rows = rows();
    let path = std::env::temp_dir().join(format!("cfd-ingest-bench-{n_rows}.csv"));
    let gen = TaxGenerator::new(n_rows).seed(11);
    {
        let mut w = BufWriter::new(File::create(&path).expect("create temp CSV"));
        gen.write_csv(&mut w).expect("stream tax CSV");
    }
    let bytes = std::fs::metadata(&path).expect("stat temp CSV").len();
    let ctrl = Control::default();

    let mut group = c.benchmark_group("ingest");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Bytes(bytes));

    for threads in [1usize, 2, 4, 8] {
        let opts = IngestOptions::default().threads(threads);
        let id = BenchmarkId::new("chunked", format!("{n_rows}rows/t{threads}"));
        group.bench_with_input(id, &opts, |b, opts| {
            b.iter(|| {
                let f = File::open(&path).expect("open temp CSV");
                ingest_csv_reader(f, opts, &ctrl).expect("ingest tax CSV")
            })
        });
    }
    group.finish();

    // the memory story, once, outside the timed loops: relation-side
    // bytes and the chunk-bounded reader peak
    let f = File::open(&path).expect("open temp CSV");
    let rel = ingest_csv_reader(f, &IngestOptions::default(), &ctrl).expect("ingest tax CSV");
    eprintln!(
        "# ingest: rows={} input_bytes={bytes} relation_bytes={} bytes_per_row={:.1} \
         (the chunked reader peaks at chunk + longest record = ~{} bytes of input buffer)",
        rel.n_rows(),
        rel.memory_bytes(),
        rel.memory_bytes() as f64 / rel.n_rows() as f64,
        IngestOptions::default().chunk_bytes + 256,
    );
    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench);
criterion_main!(benches);
