//! Streaming, chunked CSV → [`Relation`] ingestion.
//!
//! This module is the engine behind every CSV load in the workspace,
//! string, reader and path alike. It runs one loop over blocks:
//!
//! 1. **Read** — a [`BlockReader`] pulls fixed-size chunks from any
//!    [`Read`] and emits blocks of *whole records*. A quote-free stretch
//!    ends just past its last `\n`; a stretch with a quote runs the
//!    quote-aware scan, so a quoted newline spanning chunks parses the
//!    same as in one piece. Peak buffered input is O(chunk + longest
//!    record); each consumed block's buffer goes back to the reader for
//!    the next read.
//! 2. **Parse** — each block is parsed zero-copy, column-major: every
//!    field becomes an 8-byte span into the block in its column's span
//!    vector, and record widths are checked on the way.
//! 3. **Encode** — each column is dictionary-encoded from its
//!    contiguous spans straight into the relation's column, so each
//!    value is interned once. With `threads > 1` a large block's
//!    columns are shared out among workers, each column to exactly one
//!    worker. A column's codes depend only on the order in which its
//!    own dictionary sees its own values, and that is row order at any
//!    thread count, so final codes are **independent of thread count
//!    and chunk size** (property-tested in `tests/ingest_equiv.rs`).
//!    The per-code histograms counted here become each column's
//!    first-level partition
//!    ([`crate::relation::Column::value_counts`]), warm for downstream
//!    grouping. A finished relation holds its codes and histograms at
//!    their length, so its memory figure does not depend on how the
//!    input was cut.
//!
//! Observability: `ingest.read` / `ingest.parse` / `ingest.encode`
//! spans open one after another on the loading thread, through the same
//! [`span!`](crate::span) guard as every other layer's, so they add up
//! to the load; the `ingest.rows` and `ingest.chunk_bytes` counters and
//! the `ingest.relation_bytes` / `ingest.max_block_bytes` gauges (the
//! RSS proxies) flow through the [`Control`] handle. See DESIGN.md §11.
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
    block_str, parse_record_fields, BlockReader, BlockRecords, RecordFields, Span, BOM,
    DEFAULT_CHUNK_BYTES,
};
use crate::error::{Error, Result};
use crate::progress::{par_map, Control};
use crate::relation::{Column, Dict, Relation};
use crate::schema::Schema;
use std::io::Read;
use std::path::Path;

/// Options of the chunked ingestion pipeline.
#[derive(Clone, Debug)]
pub struct IngestOptions {
    /// Bytes per read chunk (min 1). Default [`DEFAULT_CHUNK_BYTES`].
    pub chunk_bytes: usize,
    /// Workers that share out a block's columns for encoding (at most
    /// one per core, and one per column); `<= 1` encodes every column
    /// on the loading thread, as does any block of fewer than 4,096
    /// records. The resulting relation is identical either way.
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

/// The fewest records for which a block's columns are shared out among
/// workers; a smaller block encodes on the loading thread. Each shared
/// block starts its workers afresh, which a small block does not repay.
/// With no minimum, 200k tax rows on a 2-core box loaded at two threads
/// against one in 113–123 against 98–102 ms in blocks of ~1,024
/// records, broke even at ~4,096, and won at the default 1 MiB block
/// (~28,000 records), 84–115 against 97–130 ms. In a debug build the
/// property tests of `tests/ingest_equiv.rs` (thousands of inputs in
/// chunks of a few bytes, at up to four threads) took 11.9–14.3 s with
/// no minimum and 0.6–0.8 s with this one.
pub(crate) const PAR_MIN_RECORDS: usize = 4096;

/// One column under construction: codes over its dictionary, plus the
/// per-code histogram.
#[derive(Default)]
struct ColumnBuilder {
    codes: Vec<u32>,
    dict: Dict,
    counts: Vec<u32>,
}

impl ColumnBuilder {
    /// Appends the values of `spans`, in order: a new value takes the
    /// dictionary's next code.
    fn encode(&mut self, spans: &[Span], block: &str, scratch: &str) {
        self.codes.reserve(spans.len());
        for &span in spans {
            let c = self.dict.intern(span.get(block, scratch));
            if c as usize == self.counts.len() {
                self.counts.push(0);
            }
            self.counts[c as usize] += 1;
            self.codes.push(c);
        }
    }
}

/// Dictionary-encodes every record of a parsed block into `cols`, one
/// column at a time, each from its contiguous spans, so one
/// dictionary's table and arena stay hot for a whole column. A block of
/// at least [`PAR_MIN_RECORDS`] records shares its columns out among
/// up to `threads` workers, each column to exactly one of them. Either
/// way each dictionary sees its own column's values in row order on one
/// thread, and no dictionary is shared between columns, so codes,
/// dictionary order and histograms are those of a serial row-by-row
/// scan (DESIGN.md §11).
fn encode_block(block: &str, recs: &BlockRecords, cols: &mut [ColumnBuilder], threads: usize) {
    let (spans, scratch) = recs.columns();
    let threads = if recs.n_records() < PAR_MIN_RECORDS {
        1
    } else {
        threads
    };
    par_map(
        cols.iter_mut().zip(spans),
        threads,
        || (),
        |(col, spans), _| col.encode(spans, block, scratch),
    );
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

/// Streams CSV with a header row into a [`Relation`] through the
/// chunked pipeline. The relation — codes, dictionary order and
/// histograms — is the same for every chunk size and thread count, and
/// the same as [`relation_from_csv_str`](crate::csv::relation_from_csv_str)
/// builds from the same bytes. Peak input-side memory is
/// O(`chunk_bytes`), not O(file).
///
/// Each block is read, parsed and encoded before the next is read, and
/// the first failing block in input order gives the error. Within a
/// block a parse error wins over a width error (DESIGN.md §11).
pub fn ingest_csv_reader<R: Read>(
    reader: R,
    opts: &IngestOptions,
    ctrl: &Control<'_>,
) -> Result<Relation> {
    let mut blocks = BlockReader::new(reader, opts.chunk_bytes);
    let (schema, first) = {
        let _sp = crate::span!("ingest.read");
        read_header(&mut blocks)?
    };
    let mut cols: Vec<ColumnBuilder> = (0..schema.arity()).map(|_| Default::default()).collect();
    let mut recs = BlockRecords::new(schema.arity());
    let mut pending = (!first.is_empty()).then_some(first);
    loop {
        let block = match pending.take() {
            Some(b) => b,
            None => {
                let _sp = crate::span!("ingest.read");
                match blocks.next_block()? {
                    Some(b) => b,
                    None => break,
                }
            }
        };
        ctrl.metric_add("ingest.chunk_bytes", block.len() as u64);
        let s = block_str(&block)?;
        {
            let _sp = crate::span!("ingest.parse");
            recs.parse_into(s)?;
        }
        {
            let _sp = crate::span!("ingest.encode");
            encode_block(s, &recs, &mut cols, opts.threads);
        }
        ctrl.metric_add("ingest.rows", recs.n_records() as u64);
        blocks.recycle(block);
    }
    let n_rows = cols.first().map_or(0, |c| c.codes.len());
    let cols = cols
        .into_iter()
        .map(|c| {
            let mut col = Column::from_parts(c.codes, c.dict, c.counts);
            col.shrink_to_fit();
            col
        })
        .collect();
    let rel = Relation::from_parts(schema, cols, n_rows);
    ctrl.metric_gauge("ingest.max_block_bytes", blocks.max_block_bytes() as u64);
    ctrl.metric_gauge("ingest.relation_bytes", rel.memory_bytes() as u64);
    Ok(rel)
}

/// Loads an in-memory CSV text through [`ingest_csv_reader`] in one
/// chunk one byte longer than the text, capped at
/// [`DEFAULT_CHUNK_BYTES`]. The first read then reaches the end of the
/// input, so a text under the cap is one block, as for
/// [`relation_from_csv_reader`](crate::csv::relation_from_csv_reader),
/// and both report the same error on the same bytes. A chunk exactly
/// the text's length would end its first block at the last complete
/// record and read the rest as a second block.
pub fn ingest_csv_str(text: &str, ctrl: &Control<'_>) -> Result<Relation> {
    let opts = IngestOptions::default().chunk_bytes((text.len() + 1).min(DEFAULT_CHUNK_BYTES));
    ingest_csv_reader(text.as_bytes(), &opts, ctrl)
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
    use crate::csv::{parse_csv, relation_from_csv_reader, relation_from_csv_str};
    use crate::progress::{install_tracing, shutdown_tracing, span_totals, MetricsSink};
    use crate::relation::RelationBuilder;
    use std::collections::HashMap;
    use std::sync::Mutex;

    /// [`ingest_csv_reader`] over `text` with no metrics sink.
    fn ingest(text: &str, opts: &IngestOptions) -> Result<Relation> {
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

    /// Blocks at and above the fan-out minimum share their columns out
    /// among workers; the last block, one record short of it, encodes
    /// on the loading thread. The header and every row are 21 bytes and
    /// a chunk holds `PAR_MIN_RECORDS + 1` of them, so each quote-free
    /// chunk ends at a row boundary: the blocks hold `PAR_MIN_RECORDS`
    /// rows (after the header), `PAR_MIN_RECORDS + 1` twice, and
    /// `PAR_MIN_RECORDS - 1`.
    #[test]
    fn blocks_above_and_below_the_fan_out_minimum_match_the_oracle() {
        let m = PAR_MIN_RECORDS + 1;
        let n = (m - 1) + 2 * m + (PAR_MIN_RECORDS - 1);
        let mut text = String::from("H00000,H00001,H00002\n");
        for i in 0..n {
            // a small domain, a wide one, and one whose values first
            // appear in later blocks
            let wide = i * 7919 % 100_003;
            text += &format!("{:06},{wide:06},{:06}\n", i % 7, (i / 3) % 6000);
        }
        assert_eq!(text.len(), 21 * (n + 1));
        let want = oracle(&text);
        for threads in [1, 2, 4] {
            let opts = IngestOptions::default()
                .chunk_bytes(21 * m)
                .threads(threads);
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

    /// An in-memory text is one block, as the reader's default chunk
    /// makes it, so a parse error near its end wins over a width error
    /// before it under both APIs.
    #[test]
    fn the_string_api_reports_the_readers_error() {
        for text in [
            "a,b\n1,2\n3\n4,\"oops\n5,6\n",
            "a,b\n1,2\n3,4,5\n\"x\n",
            "a,b\n1\n\"\n",
        ] {
            let from_str = relation_from_csv_str(text).unwrap_err().to_string();
            let from_reader = relation_from_csv_reader(text.as_bytes())
                .unwrap_err()
                .to_string();
            assert_eq!(from_str, from_reader, "{text:?}");
            assert!(from_str.contains("unterminated quoted field"), "{text:?}");
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
            // every thread count encodes in place: nothing to merge
            assert!(
                !spans.contains(&"ingest.merge"),
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
