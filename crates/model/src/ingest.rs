//! Streaming, chunked, parallel CSV → [`Relation`] ingestion.
//!
//! This module is the engine behind every CSV load in the workspace,
//! string, reader and path alike:
//!
//! 1. **Read** — a [`BlockReader`] pulls fixed-size chunks from any
//!    [`Read`] and emits blocks of *whole records*. A quote-free stretch
//!    ends just past its last `\n`; a stretch with a quote runs the
//!    quote-aware scan, so a quoted newline spanning chunks parses the
//!    same as in one piece. Peak buffered input is O(chunk + longest
//!    record); the serial path hands each consumed block's buffer back
//!    to the reader for the next read.
//! 2. **Parse + encode** — each block is parsed zero-copy, column-major:
//!    every field becomes an 8-byte span into the block in its column's
//!    span vector, and record widths are checked on the way. Each
//!    column is then dictionary-encoded from its contiguous spans.
//!    The serial path (`threads <= 1`) encodes straight into the
//!    relation's columns, so each value is interned once. With
//!    `threads > 1`, workers pull blocks from a shared reader and
//!    encode each against *block-local* dictionaries in parallel.
//! 3. **Merge** (parallel path only) — blocks merge into the global
//!    columns strictly in input order: each block's local values are
//!    interned into the global dictionary in local-code order, which
//!    reproduces exactly the first-seen code assignment of the serial
//!    row scan. Final codes are therefore **independent of thread
//!    count and chunk size** (property-tested in
//!    `tests/ingest_equiv.rs`). The per-code histograms counted here
//!    become each column's first-level partition
//!    ([`crate::relation::Column::value_counts`]), warm for downstream
//!    grouping. A finished relation holds its codes and histograms at
//!    their length, so its memory figure does not depend on how the
//!    input was cut.
//!
//! Observability: `ingest.read` / `ingest.parse` / `ingest.encode`
//! spans, plus `ingest.merge` on the parallel path, open through the
//! same [`span!`](crate::span) guard as every other layer's; the
//! `ingest.rows` and `ingest.chunk_bytes` counters and the
//! `ingest.relation_bytes` / `ingest.max_block_bytes` gauges (the RSS
//! proxies) flow through the [`Control`] handle. See DESIGN.md §11.
//!
//! ```
//! use cfd_model::ingest::{ingest_csv_reader, IngestOptions};
//! use cfd_model::progress::Control;
//!
//! let csv = "CC,AC\n01,908\n44,131\n";
//! let opts = IngestOptions::default().threads(4).chunk_bytes(8);
//! let rel = ingest_csv_reader(csv.as_bytes(), &opts, &Control::default()).unwrap();
//! assert_eq!(rel.n_rows(), 2);
//! assert_eq!(rel.value(1, 1), "131");
//! ```

use crate::csv::{
    block_str, parse_record_fields, BlockReader, BlockRecords, RecordFields, BOM,
    DEFAULT_CHUNK_BYTES,
};
use crate::error::{Error, Result};
use crate::progress::{workers, Control};
use crate::relation::{Column, Dict, Relation};
use crate::schema::Schema;
use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;
use std::sync::mpsc::{self, SyncSender};
use std::sync::Mutex;

/// Options of the chunked ingestion pipeline.
#[derive(Clone, Debug)]
pub struct IngestOptions {
    /// Bytes per read chunk (min 1). Default [`DEFAULT_CHUNK_BYTES`].
    pub chunk_bytes: usize,
    /// Worker threads dictionary-encoding blocks (at most one per
    /// core); `<= 1` runs the serial path. The resulting relation is
    /// identical either way.
    pub threads: usize,
}

impl Default for IngestOptions {
    fn default() -> IngestOptions {
        IngestOptions {
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            threads: 1,
        }
    }
}

impl IngestOptions {
    /// Sets the chunk size in bytes.
    pub fn chunk_bytes(mut self, n: usize) -> IngestOptions {
        self.chunk_bytes = n;
        self
    }

    /// Sets the number of encode workers.
    pub fn threads(mut self, n: usize) -> IngestOptions {
        self.threads = n;
        self
    }
}

/// One column under construction: codes over a dictionary, plus the
/// per-code histogram. The serial path encodes straight into the
/// global columns; each parallel block gets fresh block-local ones.
struct LocalCol {
    codes: Vec<u32>,
    dict: Dict,
    counts: Vec<u32>,
}

fn new_cols(arity: usize) -> Vec<LocalCol> {
    (0..arity)
        .map(|_| LocalCol {
            codes: Vec::new(),
            dict: Dict::default(),
            counts: Vec::new(),
        })
        .collect()
}

/// Dictionary-encodes every record of a parsed block into `cols`
/// (new values take the next codes of `cols`' dictionaries, in
/// first-seen order).
///
/// The block is encoded one column at a time, from that column's
/// contiguous spans, so one dictionary's table and arena stay hot for
/// a whole column. Each dictionary sees its column's values in row
/// order either way, so codes, dictionary order and histograms are
/// those of a row-by-row scan (DESIGN.md §11).
fn encode_block(block: &str, recs: &BlockRecords, cols: &mut [LocalCol]) {
    let (spans, scratch) = recs.columns();
    for (col, spans) in cols.iter_mut().zip(spans) {
        col.codes.reserve(spans.len());
        for &span in spans {
            let c = col.dict.intern(span.get(block, scratch));
            if c as usize == col.counts.len() {
                col.counts.push(0);
            }
            col.counts[c as usize] += 1;
            col.codes.push(c);
        }
    }
}

/// Merges one block's local columns into the global ones, remapping
/// block-local codes through the global dictionaries.
///
/// Blocks must be merged in input order. Interning each block's local
/// values in local-code order then reproduces exactly the first-seen
/// global code assignment of a serial row scan: a value's first global
/// appearance is in its earliest containing block, at its first local
/// occurrence. This is the determinism argument of DESIGN.md §11.
fn merge_block(global: &mut [LocalCol], block: Vec<LocalCol>, remap: &mut Vec<u32>) {
    for (g, l) in global.iter_mut().zip(block) {
        remap.clear();
        for lc in 0..l.dict.len() as u32 {
            let gc = g.dict.intern(l.dict.value(lc));
            if gc as usize == g.counts.len() {
                g.counts.push(0);
            }
            g.counts[gc as usize] += l.counts[lc as usize];
            remap.push(gc);
        }
        g.codes.extend(l.codes.iter().map(|&c| remap[c as usize]));
    }
}

/// Reads blocks until the first non-blank record appears; returns the
/// schema it defines plus the unconsumed remainder of its block. A
/// UTF-8 byte-order mark at the very start of the input is skipped:
/// it marks the encoding, not the first column's name.
fn read_header<R: Read>(blocks: &mut BlockReader<R>) -> Result<(Schema, Vec<u8>)> {
    let mut rf = RecordFields::default();
    let mut at_input_start = true;
    loop {
        let Some(block) = blocks.next_block()? else {
            return Err(Error::Parse("empty CSV input".into()));
        };
        let s = block_str(&block)?;
        // the first block starts at byte 0 and holds a whole record, so
        // a leading mark is never split across blocks
        let mut at = if at_input_start && s.starts_with(BOM) {
            BOM.len_utf8()
        } else {
            0
        };
        at_input_start = false;
        while at < s.len() {
            rf.clear();
            let next = parse_record_fields(s, at, &mut rf)?;
            if !(rf.len() == 1 && rf.get(s, 0).is_empty()) {
                let names: Vec<&str> = (0..rf.len()).map(|i| rf.get(s, i)).collect();
                let schema = Schema::new(names)?;
                return Ok((schema, block[next..].to_vec()));
            }
            at = next;
        }
        // the whole block was blank lines: keep reading
    }
}

/// Parses one raw block and encodes it into `cols` (the per-block
/// step of both paths); returns its record count.
fn encode_one(block: &[u8], recs: &mut BlockRecords, cols: &mut [LocalCol]) -> Result<usize> {
    let s = block_str(block)?;
    {
        let _sp = crate::span!("ingest.parse");
        recs.parse_into(s)?;
    }
    let _sp = crate::span!("ingest.encode");
    encode_block(s, recs, cols);
    Ok(recs.n_records())
}

/// The serial path: every block encodes in place into the global
/// columns, so each value is interned once and nothing is merged. Each
/// consumed block goes back to the reader, whose next read refills it.
fn ingest_serial<R: Read>(
    blocks: &mut BlockReader<R>,
    first: Option<Vec<u8>>,
    global: &mut [LocalCol],
    ctrl: &Control<'_>,
) -> Result<()> {
    let mut recs = BlockRecords::new(global.len());
    let mut pending = first;
    loop {
        let block = match pending.take() {
            Some(b) => b,
            None => {
                let _sp = crate::span!("ingest.read");
                match blocks.next_block()? {
                    Some(b) => b,
                    None => return Ok(()),
                }
            }
        };
        ctrl.metric_add("ingest.chunk_bytes", block.len() as u64);
        let rows = encode_one(&block, &mut recs, global)?;
        ctrl.metric_add("ingest.rows", rows as u64);
        blocks.recycle(block);
    }
}

/// The shared block source workers pull from: the reader, the
/// remainder of the header block, and the index of the next block
/// (indices keep the merge in input order).
struct Source<R> {
    blocks: BlockReader<R>,
    pending: Option<Vec<u8>>,
    next_index: u64,
    /// Set on the first source error so other workers stop pulling.
    failed: bool,
}

type BlockResult = (u64, Result<(usize, Vec<LocalCol>)>);

/// A parallel encode worker: pulls blocks and encodes each into fresh
/// block-local columns for the in-order merge.
fn worker<R: Read>(
    source: &Mutex<Source<R>>,
    tx: SyncSender<BlockResult>,
    arity: usize,
    ctrl: Control<'_>,
) {
    let mut recs = BlockRecords::new(arity);
    loop {
        let (idx, block) = {
            let mut s = source.lock().unwrap();
            if s.failed {
                return;
            }
            let taken = match s.pending.take() {
                Some(b) => Ok(Some(b)),
                None => {
                    let _sp = crate::span!("ingest.read");
                    s.blocks.next_block()
                }
            };
            let idx = s.next_index;
            match taken {
                Ok(Some(b)) => {
                    s.next_index += 1;
                    (idx, b)
                }
                Ok(None) => return,
                Err(e) => {
                    s.failed = true;
                    s.next_index += 1;
                    drop(s);
                    let _ = tx.send((idx, Err(e)));
                    return;
                }
            }
        };
        ctrl.metric_add("ingest.chunk_bytes", block.len() as u64);
        let mut cols = new_cols(arity);
        let res = encode_one(&block, &mut recs, &mut cols).map(|rows| (rows, cols));
        // send fails only when the merger bailed on an earlier error
        if tx.send((idx, res)).is_err() {
            return;
        }
    }
}

fn ingest_parallel<R: Read + Send>(
    blocks: BlockReader<R>,
    first: Option<Vec<u8>>,
    global: &mut [LocalCol],
    arity: usize,
    threads: usize,
    ctrl: &Control<'_>,
) -> Result<usize> {
    let threads = workers(threads);
    let source = Mutex::new(Source {
        blocks,
        pending: first,
        next_index: 0,
        failed: false,
    });
    // bounded channel: backpressure keeps at most ~2 encoded blocks
    // per worker in flight, so memory stays O(threads × chunk)
    let (tx, rx) = mpsc::sync_channel::<BlockResult>(threads * 2);
    let merged = std::thread::scope(|scope| -> Result<()> {
        for _ in 0..threads {
            let tx = tx.clone();
            let source = &source;
            let ctrl = *ctrl;
            scope.spawn(move || worker(source, tx, arity, ctrl));
        }
        drop(tx);
        // merge strictly in block order; out-of-order arrivals wait
        let mut held: BTreeMap<u64, Result<(usize, Vec<LocalCol>)>> = BTreeMap::new();
        let mut next = 0u64;
        let mut remap: Vec<u32> = Vec::new();
        for (idx, res) in rx {
            held.insert(idx, res);
            while let Some(res) = held.remove(&next) {
                next += 1;
                let (rows, cols) = res?;
                ctrl.metric_add("ingest.rows", rows as u64);
                let _sp = crate::span!("ingest.merge");
                merge_block(global, cols, &mut remap);
            }
        }
        // a worker that died without sending leaves a hole; surface
        // the earliest leftover result rather than dropping rows
        if let Some((_, res)) = held.into_iter().next() {
            res?;
        }
        Ok(())
    });
    merged?;
    Ok(source.into_inner().unwrap().blocks.max_block_bytes())
}

/// Assembles the merged global columns into a relation and reports the
/// memory gauges.
fn finish_relation(
    schema: Schema,
    global: Vec<LocalCol>,
    max_block: usize,
    ctrl: &Control<'_>,
) -> Relation {
    let n_rows = global.first().map_or(0, |c| c.codes.len());
    let cols = global
        .into_iter()
        .map(|c| {
            let mut col = Column::from_parts(c.codes, c.dict, c.counts);
            col.shrink_to_fit();
            col
        })
        .collect();
    let rel = Relation::from_parts(schema, cols, n_rows);
    ctrl.metric_gauge("ingest.max_block_bytes", max_block as u64);
    ctrl.metric_gauge("ingest.relation_bytes", rel.memory_bytes() as u64);
    rel
}

/// The serial pipeline over any [`Read`] — no `Send` bound, so
/// `relation_from_csv_reader` can keep its original signature.
/// `opts.threads` is ignored.
pub(crate) fn ingest_csv_reader_serial<R: Read>(
    reader: R,
    opts: &IngestOptions,
    ctrl: &Control<'_>,
) -> Result<Relation> {
    let mut blocks = BlockReader::new(reader, opts.chunk_bytes);
    let (schema, first) = {
        let _sp = crate::span!("ingest.read");
        read_header(&mut blocks)?
    };
    let mut global = new_cols(schema.arity());
    let first = (!first.is_empty()).then_some(first);
    ingest_serial(&mut blocks, first, &mut global, ctrl)?;
    Ok(finish_relation(
        schema,
        global,
        blocks.max_block_bytes(),
        ctrl,
    ))
}

/// Streams CSV with a header row into a [`Relation`] through the
/// chunked pipeline. The relation — codes, dictionary order and
/// histograms — is the same for every chunk size and thread count, and
/// the same as [`relation_from_csv_str`](crate::csv::relation_from_csv_str)
/// builds from the same bytes. Peak input-side memory is
/// O(`chunk_bytes` × threads), not O(file).
pub fn ingest_csv_reader<R: Read + Send>(
    reader: R,
    opts: &IngestOptions,
    ctrl: &Control<'_>,
) -> Result<Relation> {
    if opts.threads <= 1 {
        return ingest_csv_reader_serial(reader, opts, ctrl);
    }
    let mut blocks = BlockReader::new(reader, opts.chunk_bytes);
    let (schema, first) = {
        let _sp = crate::span!("ingest.read");
        read_header(&mut blocks)?
    };
    let arity = schema.arity();
    let mut global = new_cols(arity);
    let first = (!first.is_empty()).then_some(first);
    let max_block = ingest_parallel(blocks, first, &mut global, arity, opts.threads, ctrl)?;
    Ok(finish_relation(schema, global, max_block, ctrl))
}

/// Opens `path` and streams it through [`ingest_csv_reader`].
pub fn ingest_csv_path<P: AsRef<Path>>(
    path: P,
    opts: &IngestOptions,
    ctrl: &Control<'_>,
) -> Result<Relation> {
    let f = std::fs::File::open(path)?;
    ingest_csv_reader(f, opts, ctrl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::{parse_csv, relation_from_csv_str};
    use crate::progress::{install_tracing, shutdown_tracing, span_totals, MetricsSink};
    use crate::relation::RelationBuilder;
    use std::collections::HashMap;
    use std::sync::{PoisonError, RwLock};

    /// Tests that load on the parallel path hold this shared; the span
    /// test holds it alone, so no other test's `ingest.merge` lands in
    /// the global span totals it reads.
    static PARALLEL: RwLock<()> = RwLock::new(());

    /// [`ingest_csv_reader`] over `text` with no metrics sink, holding
    /// [`PARALLEL`] shared.
    fn ingest(text: &str, opts: &IngestOptions) -> Result<Relation> {
        let _shared = PARALLEL.read().unwrap_or_else(PoisonError::into_inner);
        ingest_csv_reader(text.as_bytes(), opts, &Control::default())
    }

    /// The reference reader the pipeline is held to: whole-text records
    /// pushed row by row through [`RelationBuilder`].
    fn oracle(text: &str) -> Relation {
        let mut records = parse_csv(text).unwrap().into_iter();
        let schema = Schema::new(records.next().expect("a header")).unwrap();
        let mut b = RelationBuilder::new(schema);
        for rec in records {
            b.push_row(&rec).unwrap();
        }
        b.finish()
    }

    /// Full structural equality: schema, codes, dictionary order,
    /// histograms.
    fn assert_rel_identical(a: &Relation, b: &Relation) {
        assert_eq!(a.arity(), b.arity());
        assert_eq!(a.n_rows(), b.n_rows());
        for at in 0..a.arity() {
            assert_eq!(a.schema().name(at), b.schema().name(at));
            let (ca, cb) = (a.column(at), b.column(at));
            assert_eq!(ca.codes(), cb.codes(), "attribute {at}: codes");
            assert_eq!(ca.domain_size(), cb.domain_size());
            for c in 0..ca.domain_size() as u32 {
                assert_eq!(ca.dict().value(c), cb.dict().value(c), "attr {at} code {c}");
            }
            assert_eq!(
                ca.value_counts(),
                cb.value_counts(),
                "attribute {at}: counts"
            );
        }
    }

    const TRICKY: &str =
        "H1,H2,H3\r\n\"multi\nline\",\"q\"\"q\",plain\r\n\n1,\"a,b\",2\nx\ry,\"\",last";

    #[test]
    fn chunked_matches_string_parse_at_all_chunk_sizes() {
        let expected = oracle(TRICKY);
        assert_rel_identical(&expected, &relation_from_csv_str(TRICKY).unwrap());
        for chunk in [1, 2, 3, 5, 7, 16, 64, 4096] {
            for threads in [1, 4, usize::MAX] {
                let opts = IngestOptions::default().chunk_bytes(chunk).threads(threads);
                let got = ingest(TRICKY, &opts).unwrap();
                assert_rel_identical(&expected, &got);
            }
        }
    }

    #[test]
    fn a_leading_byte_order_mark_is_skipped_and_any_other_is_data() {
        // Excel's "CSV UTF-8" opens the file with EF BB BF; a mark at
        // the start of a data record, after a blank first line, or a
        // second one, is a value
        let csv = "\u{feff}CC,AC\n\u{feff}01,908\n44,\u{feff}131\n";
        let want = oracle(csv);
        assert_eq!(want.schema().name(0), "CC");
        assert_eq!(want.tuple_values(0), ["\u{feff}01", "908"]);
        assert_eq!(want.value(1, 1), "\u{feff}131");
        let late = "\n\u{feff}CC,AC\n01,908\n";
        assert_eq!(oracle(late).schema().name(0), "\u{feff}CC");
        for text in [csv, late] {
            let want = oracle(text);
            assert_rel_identical(&want, &relation_from_csv_str(text).unwrap());
            for chunk in 1..=4 {
                for threads in [1, 4] {
                    let opts = IngestOptions::default().chunk_bytes(chunk).threads(threads);
                    let got = ingest(text, &opts).unwrap();
                    assert_rel_identical(&want, &got);
                }
            }
        }
        let twice = relation_from_csv_str("\u{feff}\u{feff}CC,AC\n01,908\n").unwrap();
        assert_eq!(twice.schema().name(0), "\u{feff}CC");
        let blank_first = relation_from_csv_str("\u{feff}\n\nCC,AC\n01,908\n").unwrap();
        assert_eq!(blank_first.schema().name(0), "CC");
    }

    /// 30k tax rows grow every high-cardinality dictionary through many
    /// table doublings, at every thread count, in 4 KiB chunks.
    #[test]
    fn tax_rows_match_the_oracle_at_every_thread_count() {
        let mut csv = Vec::new();
        cfd_datagen::tax::TaxGenerator::new(30_000)
            .seed(3)
            .write_csv(&mut csv)
            .unwrap();
        let text = String::from_utf8(csv).unwrap();
        let want = oracle(&text);
        let widest = (0..want.arity())
            .map(|a| want.column(a).domain_size())
            .max();
        assert!(widest > Some(10_000), "widest domain {widest:?}");
        for threads in [1, 2, 4] {
            let opts = IngestOptions::default().chunk_bytes(4096).threads(threads);
            let got = ingest(&text, &opts).unwrap();
            assert_rel_identical(&want, &got);
        }
    }

    #[test]
    fn errors_match_the_string_api() {
        let opts = IngestOptions::default().chunk_bytes(4);
        for threads in [1, 4] {
            let opts = opts.clone().threads(threads);
            let e = ingest("", &opts).unwrap_err();
            assert!(e.to_string().contains("empty CSV input"), "{e}");
            let e = ingest("\n\n\n", &opts).unwrap_err();
            assert!(e.to_string().contains("empty CSV input"), "{e}");
            let e = ingest("a,b\n1\n", &opts).unwrap_err();
            assert!(e.to_string().contains("schema has arity 2"), "{e}");
            let e = ingest("a,b\n\"oops\n", &opts).unwrap_err();
            assert!(e.to_string().contains("unterminated quoted field"), "{e}");
        }
        // a short row after good rows, then a long one: the first bad
        // row is reported whether it sits in a later block (chunk 4) or
        // in the good rows' block (4096)
        let short = "a,b\n1,2\n3,4\n5\n6,7,8\n";
        let want = relation_from_csv_str(short).unwrap_err().to_string();
        assert!(
            want.contains("row has 1 values, schema has arity 2"),
            "{want}"
        );
        for chunk in [4, 4096] {
            for threads in [1, 4] {
                let opts = IngestOptions::default().chunk_bytes(chunk).threads(threads);
                let e = ingest(short, &opts).unwrap_err();
                assert_eq!(e.to_string(), want, "chunk {chunk}, threads {threads}");
            }
        }
    }

    /// Within one block a parse error wins over a width error, in
    /// either order; a width error in an earlier block wins over a
    /// parse error in a later one. An unterminated quote runs to the
    /// end of the input, so it is always in the last block.
    #[test]
    fn a_parse_error_wins_within_its_block_and_an_earlier_block_wins_across() {
        let short_then_quote = "a,b\n1,2\n3\n4,\"oops\n5,6\n";
        let long_then_quote = "a,b\n1,2,3\n4,\"oops\n";
        let quote_then_short = "a,b\n1,\"oops\n3\n4,5\n";
        let quote = "parse error: unterminated quoted field";
        let short = "relation error: row has 1 values, schema has arity 2";
        let long = "relation error: row has 3 values, schema has arity 2";
        // one 4 KiB chunk holds each input whole; in 4-byte chunks the
        // bad row's block ends before the quote's
        for (text, whole, cut) in [
            (short_then_quote, quote, short),
            (long_then_quote, quote, long),
            (quote_then_short, quote, quote),
        ] {
            for (chunk, want) in [(4096, whole), (4, cut)] {
                for threads in [1, 2] {
                    let opts = IngestOptions::default().chunk_bytes(chunk).threads(threads);
                    let e = ingest(text, &opts).unwrap_err();
                    assert_eq!(
                        e.to_string(),
                        want,
                        "{text:?}, chunk {chunk}, threads {threads}"
                    );
                }
            }
        }
    }

    /// Codes and histograms are held at their length, so the memory
    /// figure is the same whatever the chunk size and thread count,
    /// and the same as the row-by-row builder's.
    #[test]
    fn memory_figures_do_not_depend_on_how_the_input_was_cut() {
        let mut csv = Vec::new();
        cfd_datagen::tax::TaxGenerator::new(3_000)
            .seed(5)
            .write_csv(&mut csv)
            .unwrap();
        let text = String::from_utf8(csv).unwrap();
        let want = oracle(&text).memory_bytes();
        for chunk in [7, 4096, DEFAULT_CHUNK_BYTES] {
            for threads in [1, 2] {
                let opts = IngestOptions::default().chunk_bytes(chunk).threads(threads);
                let got = ingest(&text, &opts).unwrap().memory_bytes();
                assert_eq!(got, want, "chunk {chunk}, threads {threads}");
            }
        }
    }

    #[derive(Default)]
    struct TestSink {
        counters: Mutex<HashMap<&'static str, u64>>,
        gauges: Mutex<HashMap<&'static str, u64>>,
    }

    impl MetricsSink for TestSink {
        fn add(&self, name: &'static str, delta: u64) {
            *self.counters.lock().unwrap().entry(name).or_insert(0) += delta;
        }
        fn set_gauge(&self, name: &'static str, value: u64) {
            self.gauges.lock().unwrap().insert(name, value);
        }
        fn observe(&self, _name: &'static str, _value: u64) {}
    }

    /// Metrics flow through the control handle; spans through the
    /// global guard into the span totals.
    #[test]
    fn metrics_and_spans_flow_through_the_control_handle() {
        let _alone = PARALLEL.write().unwrap_or_else(PoisonError::into_inner);
        for threads in [1, 2] {
            let sink = TestSink::default();
            let ctrl = Control::default().metrics_with(&sink);
            let csv = "A,B\n1,2\n3,4\n5,6\n";
            let opts = IngestOptions::default().chunk_bytes(6).threads(threads);
            install_tracing();
            let rel = ingest_csv_reader(csv.as_bytes(), &opts, &ctrl).unwrap();
            shutdown_tracing();
            assert_eq!(rel.n_rows(), 3);

            let counters = sink.counters.lock().unwrap();
            assert_eq!(counters["ingest.rows"], 3);
            // every data byte flows through exactly one counted block
            assert_eq!(counters["ingest.chunk_bytes"], (csv.len() - 4) as u64);
            let gauges = sink.gauges.lock().unwrap();
            assert_eq!(gauges["ingest.relation_bytes"], rel.memory_bytes() as u64);
            // chunk-bounded: no record here is longer than 6 bytes + carry
            assert!(gauges["ingest.max_block_bytes"] <= 6 + 6);

            let spans: Vec<&str> = span_totals().iter().map(|t| t.name).collect();
            for name in ["ingest.read", "ingest.parse", "ingest.encode"] {
                assert!(spans.contains(&name), "missing span {name}: {spans:?}");
            }
            // the serial path encodes in place: nothing to merge
            assert_eq!(
                spans.contains(&"ingest.merge"),
                threads > 1,
                "threads={threads}: {spans:?}"
            );
        }
    }

    #[test]
    fn header_larger_than_chunk_and_values_interned_once() {
        let csv = "LongHeaderA,LongHeaderB\nsame,same\nsame,other\n";
        let opts = IngestOptions::default().chunk_bytes(3).threads(4);
        let rel = ingest(csv, &opts).unwrap();
        assert_eq!(rel.schema().name(0), "LongHeaderA");
        assert_eq!(rel.n_rows(), 2);
        assert_eq!(rel.column(0).domain_size(), 1);
        assert_eq!(rel.column(0).value_counts(), &[2]);
        assert_eq!(rel.column(1).value_counts(), &[1, 1]);
    }
}
