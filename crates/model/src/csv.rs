//! Minimal CSV reader/writer (RFC 4180 subset) so relations can be loaded
//! from files without external dependencies. Supports quoted fields with
//! embedded commas, quotes (`""`) and newlines; both `\n` and `\r\n` row
//! terminators.
//!
//! Every relation is read by the chunked scanner ([`BlockReader`]):
//! it reads fixed-size buffers from any [`Read`], carries partial
//! records across chunk boundaries and hands out blocks of whole
//! records for the pipeline in [`crate::ingest`] —
//! [`relation_from_csv_str`] included. While the buffered bytes hold no
//! `"`, a block ends just past their last `\n`; once a quote appears, a
//! quote state machine decides which newlines end records, so a quoted
//! newline spanning two chunks parses the same as in one piece. A
//! consumed block's buffer can be handed back ([`BlockReader::recycle`])
//! and is refilled by the next read. [`parse_csv`] parses a whole text
//! into string records on the same grammar; it is the reference the
//! pipeline is tested against.
//!
//! Record parsing itself is zero-copy and runs on one state machine,
//! `parse_record_fields` (crate private), which emits byte ranges into
//! the block and unescapes into a shared scratch buffer only for fields
//! that used quotes. Where the ranges go is the caller's choice: the
//! header and [`parse_csv`] keep them row-major, a block of data
//! records sends each field to its column's vector of 8-byte spans and
//! checks record widths as it goes. The invariants of the boundary scan
//! and of the spans are spelled out in DESIGN.md §11.

use crate::error::{Error, Result};
use crate::ingest::{ingest_csv_reader, ingest_csv_str, IngestOptions};
use crate::progress::Control;
use crate::relation::Relation;
use std::io::{Read, Write};
use std::path::Path;

/// Default chunk size of the streaming reader path (1 MiB).
pub const DEFAULT_CHUNK_BYTES: usize = 1 << 20;

/// The byte-order mark (U+FEFF) that may open a UTF-8 file, as Excel's
/// "CSV UTF-8" writes it. It is skipped at the start of the input and
/// is data anywhere else.
pub(crate) const BOM: char = '\u{feff}';

/// Where [`parse_record_fields`] puts the fields it splits off. A field
/// is a byte range of the parsed text, or of the sink's scratch buffer
/// when it used quotes.
pub(crate) trait FieldSink {
    /// The buffer quoted fields are unescaped into.
    fn scratch(&mut self) -> &mut String;
    /// Takes the record's next field: `start..end` of the parsed text,
    /// or of [`FieldSink::scratch`] when `in_scratch`.
    fn field(&mut self, start: usize, end: usize, in_scratch: bool);
}

/// One field of [`RecordFields`]: a byte range into either the parsed
/// text (`scratch == false`) or the unescape scratch buffer.
#[derive(Clone, Copy)]
struct FieldSpan {
    start: usize,
    end: usize,
    scratch: bool,
}

/// Reusable row-major span/scratch buffers filled by
/// [`parse_record_fields`] — for the header and [`parse_csv`].
#[derive(Default)]
pub(crate) struct RecordFields {
    spans: Vec<FieldSpan>,
    scratch: String,
}

impl FieldSink for RecordFields {
    fn scratch(&mut self) -> &mut String {
        &mut self.scratch
    }

    fn field(&mut self, start: usize, end: usize, scratch: bool) {
        self.spans.push(FieldSpan {
            start,
            end,
            scratch,
        });
    }
}

impl RecordFields {
    pub(crate) fn clear(&mut self) {
        self.spans.clear();
        self.scratch.clear();
    }

    /// Number of field spans accumulated so far.
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// The text of field `i`, resolved against the block it was parsed
    /// from.
    pub(crate) fn get<'a>(&'a self, block: &'a str, i: usize) -> &'a str {
        let s = self.spans[i];
        if s.scratch {
            &self.scratch[s.start..s.end]
        } else {
            &block[s.start..s.end]
        }
    }
}

/// Parses one record of `block` starting at byte `at`, handing each
/// field to `out`; returns the offset just past the record's terminator
/// (or `block.len()` for a final record without one).
///
/// This is the one CSV state machine in the crate — the string API and
/// the chunked pipeline both run on it, so they cannot drift apart.
/// Grammar notes: a quote opens a field only when nothing precedes it
/// in the field; `""` inside quotes is an escaped quote; after a
/// closing quote the field continues unquoted (so `"x"y` is `xy`); a
/// lone `\r` not followed by `\n` is an ordinary character.
pub(crate) fn parse_record_fields<S: FieldSink>(
    block: &str,
    at: usize,
    out: &mut S,
) -> Result<usize> {
    let bytes = block.as_bytes();
    let mut i = at;
    let mut field_begin = i;
    // scratch offset where this field's unescaped text began; `None`
    // while the field is still a pure block range
    let mut owned_begin: Option<usize> = None;
    let mut in_quotes = false;

    macro_rules! flush {
        ($end:expr) => {
            match owned_begin {
                Some(ob) => {
                    let end = out.scratch().len();
                    out.field(ob, end, true)
                }
                None => out.field(field_begin, $end, false),
            }
        };
    }

    loop {
        if in_quotes {
            match bytes.get(i) {
                None => return Err(Error::Parse("unterminated quoted field".into())),
                Some(b'"') => {
                    if bytes.get(i + 1) == Some(&b'"') {
                        out.scratch().push('"');
                        i += 2;
                    } else {
                        in_quotes = false;
                        i += 1;
                    }
                }
                Some(_) => {
                    // copy the whole run up to the next quote at once
                    let mut j = i + 1;
                    while j < bytes.len() && bytes[j] != b'"' {
                        j += 1;
                    }
                    out.scratch().push_str(&block[i..j]);
                    i = j;
                }
            }
        } else {
            match bytes.get(i) {
                None => {
                    flush!(i);
                    return Ok(i);
                }
                Some(b',') => {
                    flush!(i);
                    i += 1;
                    field_begin = i;
                    owned_begin = None;
                }
                Some(b'\r') if bytes.get(i + 1) == Some(&b'\n') => {
                    flush!(i);
                    return Ok(i + 2);
                }
                Some(b'\n') => {
                    flush!(i);
                    return Ok(i + 1);
                }
                Some(b'"') if owned_begin.is_none() && i == field_begin => {
                    // a quote opens the field only when the field is
                    // still empty (an escaped section can never be
                    // re-entered: the byte after a closing quote is
                    // never itself a quote — that parses as `""`)
                    in_quotes = true;
                    owned_begin = Some(out.scratch().len());
                    i += 1;
                }
                Some(_) => {
                    // run of ordinary bytes up to the next structural
                    // byte (all structural bytes are ASCII, so byte-wise
                    // scanning is UTF-8 safe)
                    let mut j = i + 1;
                    while j < bytes.len() && !matches!(bytes[j], b',' | b'\r' | b'\n' | b'"') {
                        j += 1;
                    }
                    if owned_begin.is_some() {
                        out.scratch().push_str(&block[i..j]);
                    }
                    i = j;
                }
            }
        }
    }
}

/// Set in a [`Span`]'s start when the span points into the scratch
/// buffer, not the block.
const SCRATCH_BIT: u32 = 1 << 31;

/// The longest block [`BlockRecords`] parses. Every offset into it, and
/// into its scratch buffer (unescaping never lengthens a field), then
/// stays below [`SCRATCH_BIT`].
const MAX_BLOCK_BYTES: usize = SCRATCH_BIT as usize - 1;

/// Fails a block too long for [`Span`]'s offsets.
fn check_block_len(len: usize) -> Result<()> {
    if len > MAX_BLOCK_BYTES {
        return Err(Error::Parse(format!(
            "a block of {len} bytes is longer than the {MAX_BLOCK_BYTES} bytes one parse can address"
        )));
    }
    Ok(())
}

/// One field of [`BlockRecords`] in 8 bytes: a byte range of the block,
/// or of the scratch buffer when `start` carries [`SCRATCH_BIT`].
#[derive(Clone, Copy)]
pub(crate) struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn is_empty(self) -> bool {
        self.start & !SCRATCH_BIT == self.end
    }

    /// The field's text, resolved against the block it was parsed from
    /// and that block's scratch buffer.
    #[inline]
    pub(crate) fn get<'a>(self, block: &'a str, scratch: &'a str) -> &'a str {
        let range = (self.start & !SCRATCH_BIT) as usize..self.end as usize;
        if self.start & SCRATCH_BIT == 0 {
            &block[range]
        } else {
            &scratch[range]
        }
    }
}

/// All records of one block, parsed column-major: field `a` of every
/// record goes to column `a`'s span vector, so a column's fields sit
/// contiguously for the encoder. Blank lines are dropped, matching
/// [`parse_csv`]. One instance is reused block after block, so
/// steady-state parsing allocates nothing.
pub(crate) struct BlockRecords {
    cols: Vec<Vec<Span>>,
    scratch: String,
    /// Fields seen so far in the record being parsed.
    width: usize,
}

impl FieldSink for BlockRecords {
    fn scratch(&mut self) -> &mut String {
        &mut self.scratch
    }

    #[inline]
    fn field(&mut self, start: usize, end: usize, in_scratch: bool) {
        // a field past the arity has no column; `parse_into` reports
        // the record's width once it ends
        if let Some(col) = self.cols.get_mut(self.width) {
            // `parse_into` bounds every offset below SCRATCH_BIT
            let flag = if in_scratch { SCRATCH_BIT } else { 0 };
            col.push(Span {
                start: start as u32 | flag,
                end: end as u32,
            });
        }
        self.width += 1;
    }
}

impl BlockRecords {
    /// Buffers for records of `arity` fields (a header has at least
    /// one).
    pub(crate) fn new(arity: usize) -> BlockRecords {
        BlockRecords {
            cols: vec![Vec::new(); arity],
            scratch: String::new(),
            width: 0,
        }
    }

    /// Parses every record of `block`, replacing previous contents.
    ///
    /// Fails with the block's first parse error, or, when it has none,
    /// with the width of its first record that does not have one field
    /// per column (the error `RelationBuilder::push_row` gives). So a
    /// parse error anywhere in a block wins over a width error in it. A
    /// block longer than [`MAX_BLOCK_BYTES`] is a parse error.
    pub(crate) fn parse_into(&mut self, block: &str) -> Result<()> {
        check_block_len(block.len())?;
        for col in &mut self.cols {
            col.clear();
        }
        self.scratch.clear();
        let arity = self.cols.len();
        let mut bad_width = None;
        let mut at = 0;
        while at < block.len() {
            self.width = 0;
            at = parse_record_fields(block, at, self)?;
            if self.width == 1 && self.cols[0].last().is_some_and(|s| s.is_empty()) {
                // a blank line: one empty field
                self.cols[0].pop();
            } else if self.width != arity && bad_width.is_none() {
                bad_width = Some(self.width);
            }
        }
        match bad_width {
            Some(w) => Err(Error::Relation(format!(
                "row has {w} values, schema has arity {arity}"
            ))),
            None => Ok(()),
        }
    }

    /// Number of records of the last block parsed without error.
    pub(crate) fn n_records(&self) -> usize {
        self.cols[0].len()
    }

    /// Every column's spans, in column order, with the scratch buffer
    /// they resolve against.
    pub(crate) fn columns(&self) -> (&[Vec<Span>], &str) {
        (&self.cols, &self.scratch)
    }
}

/// Validates a raw block as UTF-8, mirroring the error
/// `Read::read_to_string` would have produced on the same input.
pub(crate) fn block_str(block: &[u8]) -> Result<&str> {
    std::str::from_utf8(block).map_err(|_| {
        Error::from(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        ))
    })
}

/// Resumable search for record boundaries in a byte buffer that starts
/// at one. While the bytes seen hold no `"`, no quote is open, so every
/// `\n` ends a record and the last one is the boundary. From the first
/// `"` on, a quote state machine tracks just enough (`in_quotes` +
/// are-we-at-field-start) to know whether a newline terminates a
/// record, without parsing fields.
#[derive(Clone, Copy)]
struct BoundaryScan {
    /// Resume position: bytes before it have been classified.
    pos: usize,
    /// A `"` was seen: the state machine classifies from `last_end` on.
    quoted: bool,
    in_quotes: bool,
    /// True when nothing precedes `pos` in the current field (a quote
    /// here opens the field).
    field_start: bool,
    /// Offset just past the last complete record seen.
    last_end: usize,
}

impl BoundaryScan {
    fn new() -> BoundaryScan {
        BoundaryScan {
            pos: 0,
            quoted: false,
            in_quotes: false,
            field_start: true,
            last_end: 0,
        }
    }

    /// Advances over `buf[self.pos..]`.
    ///
    /// Quote-free bytes cost one search for a `"` and one backward
    /// search for the last `\n`. The state machine starts at the last
    /// boundary found so far, where no field has begun, and stops early at a final byte whose meaning needs lookahead — a
    /// `"` inside quotes (closing quote vs first half of an escape) or
    /// a `\r` outside (possible split `\r\n`) — leaving `pos` on it so
    /// the scan resumes after the buffer grows. Multi-byte UTF-8
    /// continuation bytes are all ≥ 0x80 and never match a structural
    /// byte, so scanning bytes is safe.
    fn advance(&mut self, buf: &[u8]) {
        if !self.quoted {
            let fresh = &buf[self.pos..];
            if !fresh.contains(&b'"') {
                if let Some(i) = fresh.iter().rposition(|&b| b == b'\n') {
                    self.last_end = self.pos + i + 1;
                }
                self.pos = buf.len();
                return;
            }
            self.quoted = true;
            self.pos = self.last_end;
        }
        while self.pos < buf.len() {
            let b = buf[self.pos];
            if self.in_quotes {
                if b == b'"' {
                    match buf.get(self.pos + 1) {
                        Some(b'"') => self.pos += 2, // escaped quote
                        Some(_) => {
                            self.in_quotes = false;
                            self.field_start = false;
                            self.pos += 1;
                        }
                        None => return, // ambiguous: close vs escape half
                    }
                } else {
                    self.pos += 1;
                }
            } else {
                match b {
                    b',' => {
                        self.field_start = true;
                        self.pos += 1;
                    }
                    b'\n' => {
                        self.pos += 1;
                        self.last_end = self.pos;
                        self.field_start = true;
                    }
                    b'\r' => match buf.get(self.pos + 1) {
                        Some(b'\n') => {
                            self.pos += 2;
                            self.last_end = self.pos;
                            self.field_start = true;
                        }
                        Some(_) => {
                            // lone \r: an ordinary character
                            self.field_start = false;
                            self.pos += 1;
                        }
                        None => return, // ambiguous: maybe a split \r\n
                    },
                    b'"' if self.field_start => {
                        self.in_quotes = true;
                        self.field_start = false;
                        self.pos += 1;
                    }
                    _ => {
                        self.field_start = false;
                        self.pos += 1;
                    }
                }
            }
        }
    }
}

/// Chunked CSV block reader: reads fixed-size chunks from any [`Read`]
/// and yields buffers of *whole records*, carrying partial trailing
/// records (quote-aware, so a quoted newline spanning two chunks is
/// never mistaken for a record boundary) into the next block. Peak
/// buffered memory is O(chunk size + longest record), observable via
/// [`BlockReader::max_block_bytes`]. Scanner invariants: DESIGN.md §11.
pub struct BlockReader<R> {
    reader: R,
    chunk: usize,
    /// Bytes read but not yet emitted; always starts at a record
    /// boundary.
    carry: Vec<u8>,
    /// A consumed block handed back by [`BlockReader::recycle`]; the
    /// next emitted block's leftover bytes move into it.
    spare: Vec<u8>,
    /// Scan state over `carry`, resumable across chunk growth.
    scan: BoundaryScan,
    eof: bool,
    max_block: usize,
}

impl<R: Read> BlockReader<R> {
    /// Wraps `reader`, reading `chunk_bytes` (min 1) at a time.
    pub fn new(reader: R, chunk_bytes: usize) -> BlockReader<R> {
        BlockReader {
            reader,
            chunk: chunk_bytes.max(1),
            carry: Vec::new(),
            spare: Vec::new(),
            scan: BoundaryScan::new(),
            eof: false,
            max_block: 0,
        }
    }

    /// The next block of complete records, or `Ok(None)` at end of
    /// input. The final block may lack a trailing terminator (and may
    /// hold an unterminated quote — the parser reports that, exactly as
    /// the string API does). A record longer than the chunk size grows
    /// the buffer until the record completes.
    pub fn next_block(&mut self) -> Result<Option<Vec<u8>>> {
        loop {
            if self.eof {
                if self.carry.is_empty() {
                    return Ok(None);
                }
                self.scan = BoundaryScan::new();
                self.max_block = self.max_block.max(self.carry.len());
                return Ok(Some(std::mem::take(&mut self.carry)));
            }
            // grow the carry by one chunk of fresh bytes
            let mut buf = std::mem::take(&mut self.carry);
            let old = buf.len();
            buf.resize(old + self.chunk, 0);
            let mut filled = old;
            while filled < buf.len() {
                let n = self.reader.read(&mut buf[filled..])?;
                if n == 0 {
                    self.eof = true;
                    break;
                }
                filled += n;
            }
            buf.truncate(filled);
            self.max_block = self.max_block.max(filled);
            self.carry = buf;
            if self.eof {
                continue; // the eof arm above flushes whatever is left
            }
            self.scan.advance(&self.carry);
            let end = self.scan.last_end;
            if end == 0 {
                continue; // no complete record yet: grow further
            }
            // the bytes past the last record move into the spare buffer,
            // which becomes the carry
            let mut rest = std::mem::take(&mut self.spare);
            rest.clear();
            rest.extend_from_slice(&self.carry[end..]);
            let mut block = std::mem::replace(&mut self.carry, rest);
            block.truncate(end);
            // the carry starts at a record boundary: fresh scan state
            self.scan = BoundaryScan::new();
            return Ok(Some(block));
        }
    }

    /// Hands a consumed block back, so a later read refills its buffer
    /// instead of allocating a fresh one. The ingest loop hands back
    /// every block at every thread count, so a load cycles two buffers.
    pub fn recycle(&mut self, block: Vec<u8>) {
        self.spare = block;
    }

    /// Largest buffer this reader ever held — the peak-memory witness
    /// of the O(chunk) claim (grows past the chunk size only when a
    /// single record does).
    pub fn max_block_bytes(&self) -> usize {
        self.max_block
    }
}

/// Parses one CSV record from raw text; returns the fields and the
/// number of bytes consumed.
fn parse_record(input: &str) -> Result<(Vec<String>, usize)> {
    let mut rf = RecordFields::default();
    let used = parse_record_fields(input, 0, &mut rf)?;
    let fields = (0..rf.len()).map(|i| rf.get(input, i).to_owned()).collect();
    Ok((fields, used))
}

/// Parses CSV text into records, skipping a leading byte-order mark.
pub fn parse_csv(text: &str) -> Result<Vec<Vec<String>>> {
    let mut records = Vec::new();
    let mut rest = text.strip_prefix(BOM).unwrap_or(text);
    while !rest.is_empty() {
        let (fields, used) = parse_record(rest)?;
        // skip blank lines
        if !(fields.len() == 1 && fields[0].is_empty()) {
            records.push(fields);
        }
        rest = &rest[used..];
    }
    Ok(records)
}

/// Reads a relation from CSV text. The first record is the header and
/// becomes the schema. Runs the pipeline over the text's bytes through
/// [`ingest_csv_str`], so a text under [`DEFAULT_CHUNK_BYTES`] is one
/// block.
pub fn relation_from_csv_str(text: &str) -> Result<Relation> {
    ingest_csv_str(text, &Control::default())
}

/// Reads a relation from any reader producing CSV with a header row.
///
/// Streams through the chunked scanner ([`BlockReader`]) in O(chunk)
/// memory instead of buffering the whole input into a `String`; the
/// resulting relation and every error are identical to feeding the
/// same bytes to [`relation_from_csv_str`].
pub fn relation_from_csv_reader<R: Read>(reader: R) -> Result<Relation> {
    ingest_csv_reader(reader, &IngestOptions::default(), &Control::default())
}

/// Reads a relation from a CSV file with a header row.
pub fn relation_from_csv_path<P: AsRef<Path>>(path: P) -> Result<Relation> {
    let f = std::fs::File::open(path)?;
    relation_from_csv_reader(f)
}

fn needs_quoting(field: &str) -> bool {
    field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r')
}

fn write_field<W: Write>(w: &mut W, field: &str) -> std::io::Result<()> {
    if needs_quoting(field) {
        write!(w, "\"{}\"", field.replace('"', "\"\""))
    } else {
        w.write_all(field.as_bytes())
    }
}

/// Writes a relation as CSV (header + rows).
pub fn relation_to_csv<W: Write>(rel: &Relation, w: &mut W) -> Result<()> {
    for a in 0..rel.arity() {
        if a > 0 {
            w.write_all(b",")?;
        }
        write_field(w, rel.schema().name(a))?;
    }
    w.write_all(b"\n")?;
    for t in rel.tuples() {
        for a in 0..rel.arity() {
            if a > 0 {
                w.write_all(b",")?;
            }
            write_field(w, rel.value(t, a))?;
        }
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Renders a relation as a CSV string.
pub fn relation_to_csv_string(rel: &Relation) -> String {
    let mut buf = Vec::new();
    relation_to_csv(rel, &mut buf).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("CSV output is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_parse() {
        let r = parse_csv("a,b,c\n1,2,3\n").unwrap();
        assert_eq!(r, vec![vec!["a", "b", "c"], vec!["1", "2", "3"]]);
    }

    #[test]
    fn quoted_fields() {
        let r = parse_csv("a,\"b,with,commas\",\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(r, vec![vec!["a", "b,with,commas", "say \"hi\""]]);
    }

    #[test]
    fn embedded_newline_and_crlf() {
        let r = parse_csv("a,\"line1\nline2\"\r\nx,y\n").unwrap();
        assert_eq!(r, vec![vec!["a", "line1\nline2"], vec!["x", "y"]]);
    }

    #[test]
    fn blank_lines_skipped_and_no_trailing_newline() {
        let r = parse_csv("a,b\n\n1,2").unwrap();
        assert_eq!(r, vec![vec!["a", "b"], vec!["1", "2"]]);
    }

    #[test]
    fn unterminated_quote_errors() {
        assert!(parse_csv("a,\"oops\n").is_err());
    }

    #[test]
    fn quote_after_close_and_mid_field_quotes() {
        // `"x"y` continues unquoted after the close; quotes inside a
        // non-empty field are literal
        let r = parse_csv("\"x\"y,a\"b\n\"\",\"\"z\n").unwrap();
        assert_eq!(r, vec![vec!["xy", "a\"b"], vec!["", "z"]]);
        // lone \r is an ordinary character
        let r = parse_csv("a\rb,c\n").unwrap();
        assert_eq!(r, vec![vec!["a\rb", "c"]]);
    }

    #[test]
    fn relation_round_trip() {
        let text = "CC,AC,CT\n01,908,MH\n44,131,EDI\n01,908,MH\n";
        let rel = relation_from_csv_str(text).unwrap();
        assert_eq!(rel.n_rows(), 3);
        assert_eq!(rel.arity(), 3);
        assert_eq!(rel.value(1, 2), "EDI");
        assert_eq!(relation_to_csv_string(&rel), text);
    }

    #[test]
    fn round_trip_with_quoting() {
        let text = "A,B\n\"x,1\",\"say \"\"hi\"\"\"\n";
        let rel = relation_from_csv_str(text).unwrap();
        assert_eq!(rel.value(0, 0), "x,1");
        assert_eq!(rel.value(0, 1), "say \"hi\"");
        assert_eq!(relation_to_csv_string(&rel), text);
    }

    #[test]
    fn empty_input_errors() {
        assert!(relation_from_csv_str("").is_err());
    }

    #[test]
    fn bad_row_width_errors() {
        assert!(relation_from_csv_str("a,b\n1\n").is_err());
    }

    #[test]
    fn reader_api() {
        let rel = relation_from_csv_reader("A,B\nx,y\n".as_bytes()).unwrap();
        assert_eq!(rel.n_rows(), 1);
    }

    /// Reassembles `text` from a [`BlockReader`]'s blocks and checks
    /// each block holds whole records only, for every chunk size.
    fn assert_blocks_clean(text: &str) {
        let reference = parse_csv(text).unwrap();
        for chunk in 1..=text.len().max(1) {
            let mut r = BlockReader::new(text.as_bytes(), chunk);
            let mut rebuilt = Vec::new();
            let mut parsed = Vec::new();
            while let Some(block) = r.next_block().unwrap() {
                rebuilt.extend_from_slice(&block);
                let s = std::str::from_utf8(&block).unwrap();
                parsed.extend(parse_csv(s).unwrap());
            }
            assert_eq!(rebuilt, text.as_bytes(), "chunk={chunk}: bytes lost");
            assert_eq!(parsed, reference, "chunk={chunk}: records differ");
        }
    }

    #[test]
    fn block_reader_respects_record_boundaries() {
        assert_blocks_clean("a,b\n1,2\n3,4\n");
        // quoted newline, CRLF terminator, escaped quotes, lone \r —
        // every chunk size forces each ambiguity onto a boundary
        assert_blocks_clean("h1,h2\r\n\"multi\nline\",\"q\"\"q\"\r\nx\ry,z\n");
        // blank lines and a final record without terminator
        assert_blocks_clean("a,b\n\n\n1,2");
        // record much longer than any small chunk
        let long = format!("A,B\n{},{}\n", "x".repeat(100), "y".repeat(100));
        assert_blocks_clean(&long);
    }

    #[test]
    fn quote_free_stretches_around_a_quoted_one_keep_their_records() {
        // `\n` and `\r\n` terminators and blank lines, no quote
        let plain: String = (0..40)
            .map(|i| match i % 5 {
                0 => format!("r{i},v{i}\r\n"),
                1 => "\n".to_string(),
                2 => "\r\n".to_string(),
                _ => format!("r{i},v{i}\n"),
            })
            .collect();
        let text = format!("A,B\n{plain}");
        assert_blocks_clean(&text);
        // a quoted newline, an escaped quote and a quoted CRLF after a
        // long quote-free stretch, then quote-free bytes again
        let mixed = format!("A,B\n{plain}\"q\nq\",\"x\"\"\r\n\"\r\n{plain}");
        assert_blocks_clean(&mixed);
    }

    /// However the bytes arrive, the quote-free shortcut finds the
    /// record boundary that the state machine finds from the start.
    #[test]
    fn quote_free_shortcut_agrees_with_the_state_machine() {
        const ALPHABET: [u8; 5] = [b'a', b',', b'"', b'\r', b'\n'];
        for len in 0..=6u32 {
            for n in 0..ALPHABET.len().pow(len) {
                let buf: Vec<u8> = (0..len)
                    .map(|i| ALPHABET[n / ALPHABET.len().pow(i) % ALPHABET.len()])
                    .collect();
                let mut machine = BoundaryScan::new();
                machine.quoted = true;
                machine.advance(&buf);
                for split in 0..=buf.len() {
                    let mut scan = BoundaryScan::new();
                    scan.advance(&buf[..split]);
                    scan.advance(&buf);
                    assert_eq!(scan.last_end, machine.last_end, "{buf:?} split at {split}");
                }
            }
        }
    }

    #[test]
    fn blocks_past_the_span_range_fail_with_a_parse_error() {
        assert!(check_block_len(MAX_BLOCK_BYTES).is_ok());
        for len in [MAX_BLOCK_BYTES + 1, u32::MAX as usize + 1, usize::MAX] {
            let e = check_block_len(len).unwrap_err().to_string();
            assert!(e.starts_with("parse error: a block of "), "{e}");
        }
        // the largest offset keeps its value beside the scratch flag
        let at_limit = MAX_BLOCK_BYTES as u32;
        let span = Span {
            start: at_limit | SCRATCH_BIT,
            end: at_limit,
        };
        assert!(span.is_empty());
    }

    #[test]
    fn block_reader_memory_stays_chunk_bounded() {
        // 200 short records, chunk of 32 bytes: the reader must never
        // buffer more than chunk + one partial record
        let text: String = std::iter::once("A,B\n".to_string())
            .chain((0..200).map(|i| format!("r{i},v{i}\n")))
            .collect();
        let mut r = BlockReader::new(text.as_bytes(), 32);
        while r.next_block().unwrap().is_some() {}
        assert!(
            r.max_block_bytes() <= 32 + 16,
            "peak {} exceeds chunk + record bound",
            r.max_block_bytes()
        );
    }

    #[test]
    fn block_reader_invalid_utf8_matches_slurp_error() {
        let bytes: &[u8] = b"A,B\nx,\xff\xfe\n";
        let err = relation_from_csv_reader(bytes).unwrap_err();
        assert!(
            err.to_string()
                .contains("stream did not contain valid UTF-8"),
            "unexpected error: {err}"
        );
    }
}
