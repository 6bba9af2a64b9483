//! Property tests for the chunked ingestion pipeline: for every CSV the
//! whole-input parser accepts, the chunked scanner must produce the
//! *same relation* (schema, codes, dictionary order, histograms) as
//! the reference reader at every chunk size — including 1-byte chunks,
//! which force every quoted comma, escaped quote and quoted CRLF to
//! straddle a block boundary — and at every thread count, which
//! exercises the local-dictionary merge's determinism argument
//! (DESIGN.md §11).

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

/// Renders `rows` as CSV with a fixed header, quoting exactly like the
/// writer in `cfd_model::csv` (quote when a field contains `,`, `"`,
/// `\n` or `\r`).
fn to_csv(rows: &[Vec<&str>], arity: usize) -> String {
    let mut out = String::new();
    for a in 0..arity {
        if a > 0 {
            out.push(',');
        }
        out.push_str(&format!("H{a}"));
    }
    out.push('\n');
    for row in rows {
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
        out.push('\n');
    }
    out
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

    /// 1 thread ≡ 4 threads, byte-identical relations: the per-block
    /// local dictionaries merged in block order must reproduce the
    /// serial first-seen global code assignment at any chunk size.
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
        .expect("parallel ingest parses");
        assert_identical(&serial, &parallel, &format!("chunk={chunk}"));
    }
}
