//! Property tests for the chunked ingestion pipeline: for every CSV the
//! whole-input parser accepts, the chunked scanner must produce the
//! *same relation* (schema, codes, dictionary order, histograms) as
//! the reference reader at every chunk size — including 1-byte chunks,
//! which force every quoted comma, escaped quote and quoted CRLF to
//! straddle a block boundary — and at every thread count (DESIGN.md
//! §11). Long quote-free stretches around a quoted one drive the
//! scanner's switch between its quote-free shortcut and its quote state
//! machine.

use cfd_model::csv::{parse_csv, relation_from_csv_str};
use cfd_model::progress::Control;
use cfd_model::relation::{Relation, RelationBuilder};
use cfd_model::{ingest_csv_reader, IngestOptions, Schema};
use proptest::prelude::*;

/// The reference reader: whole-text records ([`parse_csv`]) pushed row
/// by row through [`RelationBuilder`] — independent of the pipeline
/// that every other reader runs.
fn oracle(text: &str) -> Relation {
    let mut records = parse_csv(text).expect("writer output parses").into_iter();
    let schema = Schema::new(records.next().expect("a header")).unwrap();
    let mut b = RelationBuilder::new(schema);
    for rec in records {
        b.push_row(&rec).unwrap();
    }
    b.finish()
}

/// The adversarial field alphabet: quoted commas, escaped quotes,
/// quoted newlines and CRLFs (record terminators that must *not*
/// terminate when quoted), bare CRs, empty and whitespace fields, and
/// multi-byte UTF-8 — every class the quote-aware boundary scan must
/// carry across chunks.
const FIELDS: &[&str] = &[
    "plain",
    "v17",
    "",
    " ",
    "  pad  ",
    "a,b",
    ",",
    ",,",
    "say \"hi\"",
    "\"",
    "\"\"",
    "line\nbreak",
    "\n",
    "crlf\r\nhere",
    "\r\n",
    "bare\rcr",
    "\r",
    "mix,\"q\",\r\n,end",
    "ünïcode ✓",
    "长字段",
];

/// Values with no `,`, `"`, `\n` or `\r`: written bare, so rows of
/// them hold no quote.
const PLAIN: &[&str] = &[
    "v1",
    "v22",
    "plain",
    "",
    " ",
    "  pad  ",
    "ünïcode ✓",
    "长字段",
];

/// The header `H0,…` of `arity` columns, with its terminator.
fn header(arity: usize) -> String {
    let names: Vec<String> = (0..arity).map(|a| format!("H{a}")).collect();
    names.join(",") + "\n"
}

/// Appends `row` without a terminator, quoting exactly like the writer
/// in `cfd_model::csv` (quote when a field contains `,`, `"`, `\n` or
/// `\r`).
fn push_record(out: &mut String, row: &[&str]) {
    for (a, f) in row.iter().enumerate() {
        if a > 0 {
            out.push(',');
        }
        if f.contains(['"', ',', '\n', '\r']) {
            out.push('"');
            out.push_str(&f.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(f);
        }
    }
}

/// Renders `rows` as CSV with a fixed header.
fn to_csv(rows: &[Vec<&str>], arity: usize) -> String {
    let mut out = header(arity);
    for row in rows {
        push_record(&mut out, row);
        out.push('\n');
    }
    out
}

/// One quote-free row: indices into [`PLAIN`], and a style. Odd styles
/// end the row in `\r\n`, even ones in `\n`; styles 2 and 3 add a
/// blank line with the same terminator.
type PlainRow = (Vec<usize>, usize);

/// Appends a quote-free stretch.
fn push_plain(out: &mut String, rows: &[PlainRow]) {
    for (row, style) in rows {
        let values: Vec<&str> = row.iter().map(|&i| PLAIN[i]).collect();
        push_record(out, &values);
        let end = if style % 2 == 1 { "\r\n" } else { "\n" };
        out.push_str(end);
        if *style >= 2 {
            out.push_str(end);
        }
    }
}

/// Chunk sizes from 1 to past `len`: every size up to 32, then steps
/// of about a quarter.
fn chunk_sweep(len: usize) -> Vec<usize> {
    let mut sizes: Vec<usize> = (1..=32).collect();
    let mut c = 32;
    while c <= len {
        c += c / 4;
        sizes.push(c);
    }
    sizes
}

/// Full structural equality: schema names, row count, per-column codes,
/// dictionary contents *in code order*, and value histograms.
fn assert_identical(a: &Relation, b: &Relation, what: &str) {
    assert_eq!(a.arity(), b.arity(), "{what}: arity");
    assert_eq!(a.n_rows(), b.n_rows(), "{what}: rows");
    for at in 0..a.arity() {
        assert_eq!(a.schema().name(at), b.schema().name(at), "{what}: name");
        let (ca, cb) = (a.column(at), b.column(at));
        assert_eq!(ca.codes(), cb.codes(), "{what}: codes of column {at}");
        assert_eq!(
            ca.domain_size(),
            cb.domain_size(),
            "{what}: domain of column {at}"
        );
        for c in 0..ca.domain_size() as u32 {
            assert_eq!(
                ca.dict().value(c),
                cb.dict().value(c),
                "{what}: dict code {c} of column {at}"
            );
        }
        assert_eq!(
            ca.value_counts(),
            cb.value_counts(),
            "{what}: histogram of column {at}"
        );
    }
}

/// Rows over the adversarial alphabet; arity ≥ 2 so no generated row
/// can collapse into the blank-line form (a single empty field) the
/// parser deliberately skips.
fn rows_strategy() -> impl Strategy<Value = (usize, Vec<Vec<&'static str>>)> {
    (2usize..=4).prop_flat_map(|arity| {
        prop_collection::vec(
            prop_collection::vec((0..FIELDS.len()).prop_map(|i| FIELDS[i]), arity),
            0..12,
        )
        .prop_map(move |rows| (arity, rows))
    })
}

/// A short stretch of rows over the adversarial alphabet, between two
/// quote-free stretches of up to 40 rows each.
#[allow(clippy::type_complexity)]
fn mixed_strategy(
) -> impl Strategy<Value = (usize, Vec<PlainRow>, Vec<Vec<&'static str>>, Vec<PlainRow>)> {
    (2usize..=4).prop_flat_map(|arity| {
        let plain = move || {
            prop_collection::vec(
                (prop_collection::vec(0..PLAIN.len(), arity), 0usize..4),
                0..=40,
            )
        };
        let quoted = prop_collection::vec(
            prop_collection::vec((0..FIELDS.len()).prop_map(|i| FIELDS[i]), arity),
            1..=3,
        );
        (Just(arity), plain(), quoted, plain())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chunked ≡ whole-input at chunk sizes down to a single byte, and
    /// so is the string API.
    #[test]
    fn chunked_scanner_matches_whole_input_parse(
        input in rows_strategy(),
        chunk in 1usize..=48,
    ) {
        let (arity, rows) = input;
        let csv = to_csv(&rows, arity);
        let want = oracle(&csv);
        let opts = IngestOptions::default().chunk_bytes(chunk);
        let got = ingest_csv_reader(csv.as_bytes(), &opts, &Control::default())
            .expect("chunked ingest parses");
        assert_identical(&want, &got, &format!("chunk={chunk}"));
        let from_str = relation_from_csv_str(&csv).expect("string API parses");
        assert_identical(&want, &from_str, "relation_from_csv_str");
    }

    /// 1 thread ≡ 4 threads, byte-identical relations at any chunk
    /// size. These blocks are below the fan-out minimum; the unit test
    /// `blocks_above_and_below_the_fan_out_minimum_match_the_oracle`
    /// covers blocks that share their columns out.
    #[test]
    fn thread_count_never_changes_the_relation(
        input in rows_strategy(),
        chunk in 1usize..=32,
    ) {
        let (arity, rows) = input;
        let csv = to_csv(&rows, arity);
        let serial = ingest_csv_reader(
            csv.as_bytes(),
            &IngestOptions::default().chunk_bytes(chunk).threads(1),
            &Control::default(),
        )
        .expect("serial ingest parses");
        let parallel = ingest_csv_reader(
            csv.as_bytes(),
            &IngestOptions::default().chunk_bytes(chunk).threads(4),
            &Control::default(),
        )
        .expect("four-thread ingest parses");
        assert_identical(&serial, &parallel, &format!("chunk={chunk}"));
    }

    /// Quote-free stretches (`\n` and `\r\n` terminators, blank lines)
    /// around a short quoted one load the same relation at every chunk
    /// size from 1 to past the input, at one and two threads, as the
    /// reference reader and the string API.
    #[test]
    fn quote_free_stretches_around_a_quoted_one_match_the_oracle(
        input in mixed_strategy(),
    ) {
        let (arity, before, quoted, after) = input;
        let mut csv = header(arity);
        push_plain(&mut csv, &before);
        for row in &quoted {
            push_record(&mut csv, row);
            csv.push('\n');
        }
        push_plain(&mut csv, &after);
        let want = oracle(&csv);
        assert_identical(
            &want,
            &relation_from_csv_str(&csv).expect("string API parses"),
            "relation_from_csv_str",
        );
        for chunk in chunk_sweep(csv.len()) {
            for threads in [1, 2] {
                let opts = IngestOptions::default().chunk_bytes(chunk).threads(threads);
                let got = ingest_csv_reader(csv.as_bytes(), &opts, &Control::default())
                    .expect("chunked ingest parses");
                assert_identical(&want, &got, &format!("chunk={chunk} threads={threads}"));
            }
        }
    }
}
