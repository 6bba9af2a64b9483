//! Dictionary-encoded, column-oriented relation instances.
//!
//! Every attribute stores its values as dense `u32` codes plus a
//! per-attribute dictionary mapping codes back to the original strings.
//! All discovery algorithms operate on codes only; strings are touched
//! solely at ingestion and display time. This is the standard layout for
//! dependency-discovery implementations (TANE, FastFD and their CFD
//! extensions all pre-encode the input this way).
//!
//! Memory layout matters at the million-row scale the ingestion
//! pipeline ([`crate::ingest`]) targets: [`Dict`] stores each distinct
//! string exactly once, in one arena, every [`Column`] carries its
//! first-level partition histogram ([`Column::value_counts`]) built
//! during ingestion, and [`Relation::memory_bytes`] makes the
//! footprint observable (DESIGN.md §11). From the histogram each
//! column builds, on first use, its value regions ([`Column::regions`]):
//! the tuple ids grouped by code, behind first-level partitions,
//! constant lookups and constant refinement.

use crate::error::{Error, Result};
use crate::fxhash::FxHasher;
use crate::schema::{AttrId, Schema};
use std::fmt;
use std::hash::Hasher;
use std::sync::OnceLock;

/// Dense tuple identifier (row index).
pub type TupleId = u32;

/// Free slot marker in [`Dict`]'s code table. A real code can never be
/// `u32::MAX`: that would need more than 4 G distinct values in one
/// column, which the `u32` code space cannot represent anyway.
const EMPTY_SLOT: u32 = u32::MAX;

/// One slot of [`Dict`]'s table: a code and the low 32 bits of its
/// value's [`hash_value`], which place the slot and filter probes.
#[derive(Clone, Copy)]
struct Slot {
    code: u32,
    hash: u32,
}

const FREE: Slot = Slot {
    code: EMPTY_SLOT,
    hash: 0,
};

fn hash_value(v: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(v.as_bytes());
    // FxHash ends in a multiply, so the low bits of the state depend
    // only on the low input bytes — for short code-like values
    // ("v0".."v99999", shared first byte) the masked bucket index
    // collapses to a handful of slots and probing goes quadratic. An
    // xor-shift-multiply finalizer folds the strong high bits back
    // down before the table mask is applied.
    let x = h.finish();
    let x = (x ^ (x >> 32)).wrapping_mul(0xd6e8_feb8_6659_fd93);
    x ^ (x >> 32)
}

/// Per-attribute value dictionary: code → string and string → code.
///
/// Each interned string is stored **once**, back to back with the
/// others in one arena `String`; code `c`'s value ends at `ends[c]` and
/// starts where code `c - 1`'s ends. The reverse direction is an
/// open-addressing table (power-of-two capacity, linear probing, grown
/// at 7/8 load) whose slots keep each code beside the low 32 bits of
/// its value's hash ([`FxHasher`] plus a finalizer). A probe compares
/// strings only where those bits match, growth re-slots entries from
/// the stored bits without reading a string, a miss inserts where its
/// probe stopped, and a clone copies three flat buffers (DESIGN.md §11).
#[derive(Clone, Default)]
pub struct Dict {
    /// Every interned string, in code order.
    bytes: String,
    /// `ends[c]` is the arena offset just past code `c`'s string.
    ends: Vec<usize>,
    /// Open-addressing table over the codes (capacity zero or a power
    /// of two; free slots hold `EMPTY_SLOT`).
    table: Vec<Slot>,
}

impl Dict {
    /// The slot holding `v`'s code, or else the free slot where the
    /// probe for `v` stopped (`Err(0)` on the empty table, which the
    /// caller grows before inserting).
    fn find(&self, v: &str, hash: u32) -> std::result::Result<u32, usize> {
        if self.table.is_empty() {
            return Err(0);
        }
        let mask = self.table.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let s = self.table[i];
            if s.code == EMPTY_SLOT {
                return Err(i);
            }
            if s.hash == hash && self.value(s.code) == v {
                return Ok(s.code);
            }
            i = (i + 1) & mask;
        }
    }

    /// The first free slot of `hash`'s probe chain.
    fn free_slot(table: &[Slot], hash: u32) -> usize {
        let mask = table.len() - 1;
        let mut i = hash as usize & mask;
        while table[i].code != EMPTY_SLOT {
            i = (i + 1) & mask;
        }
        i
    }

    /// Rebuilds the table at double capacity (min 16 slots), placing
    /// every entry by its stored hash bits.
    fn grow(&mut self) {
        let mut table = vec![FREE; (self.table.len() * 2).max(16)];
        for &s in self.table.iter().filter(|s| s.code != EMPTY_SLOT) {
            let i = Dict::free_slot(&table, s.hash);
            table[i] = s;
        }
        self.table = table;
    }

    /// Interns `v`, returning its code.
    pub fn intern(&mut self, v: &str) -> u32 {
        let hash = hash_value(v) as u32;
        let mut slot = match self.find(v, hash) {
            Ok(c) => return c,
            Err(slot) => slot,
        };
        // keep load ≤ 7/8 so probe chains stay short
        if (self.ends.len() + 1) * 8 > self.table.len() * 7 {
            self.grow();
            slot = Dict::free_slot(&self.table, hash);
        }
        let code = self.ends.len() as u32;
        self.bytes.push_str(v);
        self.ends.push(self.bytes.len());
        self.table[slot] = Slot { code, hash };
        code
    }

    /// Looks up the code of `v`, if it was interned.
    pub fn code(&self, v: &str) -> Option<u32> {
        self.find(v, hash_value(v) as u32).ok()
    }

    /// The string for a code.
    pub fn value(&self, code: u32) -> &str {
        let c = code as usize;
        let start = if c == 0 { 0 } else { self.ends[c - 1] };
        &self.bytes[start..self.ends[c]]
    }

    /// Number of distinct values (the size of the *active domain*).
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True iff no value has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Releases the arena's and the offsets' spare capacity — for a
    /// dictionary that is done growing.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Approximate heap bytes held: the arena (each string once), the
    /// end offsets, and the table, all at their allocated capacity.
    pub fn memory_bytes(&self) -> usize {
        self.bytes.capacity()
            + self.ends.capacity() * std::mem::size_of::<usize>()
            + self.table.capacity() * std::mem::size_of::<Slot>()
    }
}

/// One column: codes aligned with row ids, the dictionary, the
/// per-code multiplicity histogram, and the value regions built from it.
#[derive(Clone)]
pub struct Column {
    codes: Vec<u32>,
    dict: Dict,
    /// `counts[c]` = number of rows whose code is `c`. Always exactly
    /// `dict.len()` long (dictionary-only values count 0). This is the
    /// column's first-level partition histogram: counted during
    /// ingestion and kept correct by every constructor in this
    /// module, so downstream grouping ([`ValueIndex`], `GroupIds`)
    /// skips its first counting pass (DESIGN.md §11).
    counts: Vec<u32>,
    /// The value regions, built on first use. Every edit of `codes` or
    /// `dict` starts the column without them.
    regions: OnceLock<ValueIndex>,
}

/// Per-code row multiplicities of `codes` over a domain of `dom` codes.
fn recount(codes: &[u32], dom: usize) -> Vec<u32> {
    let mut counts = vec![0u32; dom];
    for &c in codes {
        counts[c as usize] += 1;
    }
    counts
}

impl Column {
    /// Assembles a column from pre-built parts, without value regions
    /// — the ingestion pipeline's merge step and every constructor in
    /// this module. The histogram invariant is the caller's to uphold
    /// (checked in debug builds).
    pub(crate) fn from_parts(codes: Vec<u32>, dict: Dict, counts: Vec<u32>) -> Column {
        debug_assert_eq!(counts.len(), dict.len());
        debug_assert_eq!(
            counts.iter().map(|&c| c as usize).sum::<usize>(),
            codes.len()
        );
        Column {
            codes,
            dict,
            counts,
            regions: OnceLock::new(),
        }
    }

    /// A copy of the codes, dictionary and histogram without the value
    /// regions — for a copy whose codes or dictionary are about to
    /// change.
    fn without_regions(&self) -> Column {
        Column::from_parts(self.codes.clone(), self.dict.clone(), self.counts.clone())
    }

    /// The dictionary of this column.
    pub fn dict(&self) -> &Dict {
        &self.dict
    }

    /// The code of row `t`.
    #[inline]
    pub fn code(&self, t: TupleId) -> u32 {
        self.codes[t as usize]
    }

    /// All codes, aligned with row ids.
    #[inline]
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Size of the active domain of this column.
    pub fn domain_size(&self) -> usize {
        self.dict.len()
    }

    /// Per-code row multiplicities: `value_counts()[c]` is the number
    /// of rows whose code is `c` (0 for values interned into the
    /// dictionary without occurring in any row). The slice is always
    /// exactly [`Column::domain_size`] long — it is the first level of
    /// the column's partition, maintained incrementally so grouping
    /// passes need not recount.
    #[inline]
    pub fn value_counts(&self) -> &[u32] {
        &self.counts
    }

    /// The column's value regions, built on first use (one prefix sum
    /// over [`Column::value_counts`] and one placement pass) and shared
    /// by every later caller, on any thread.
    pub fn regions(&self) -> &ValueIndex {
        self.regions.get_or_init(|| ValueIndex::build(self))
    }

    /// Releases the spare capacity of the codes, the histogram and the
    /// dictionary — for a column that is done growing, so that
    /// [`Column::memory_bytes`] does not depend on how it grew.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.codes.shrink_to_fit();
        self.counts.shrink_to_fit();
        self.dict.shrink_to_fit();
    }

    /// Approximate heap bytes held by this column: codes, histogram,
    /// and dictionary.
    pub fn memory_bytes(&self) -> usize {
        self.codes.capacity() * std::mem::size_of::<u32>()
            + self.counts.capacity() * std::mem::size_of::<u32>()
            + self.dict.memory_bytes()
    }
}

/// The counting-sort layout of one column: tuple ids grouped by code
/// ([`Column::regions`]).
///
/// Region `c` spans `tuples[starts[c] .. starts[c + 1]]` and holds, in
/// ascending order, exactly the tuples with code `c` — including empty
/// regions for dictionary codes that occur in no tuple (a rule constant
/// interned ahead of the data), so every code of the dictionary has an
/// O(1) region.
#[derive(Clone, Debug)]
pub struct ValueIndex {
    tuples: Vec<TupleId>,
    starts: Vec<u32>,
}

impl ValueIndex {
    /// One counting sort of `col`. The column's maintained histogram
    /// replaces the counting pass: only the prefix sum and the
    /// placement scan remain.
    fn build(col: &Column) -> ValueIndex {
        let mut starts = vec![0u32; col.domain_size() + 1];
        for (c, &k) in col.counts.iter().enumerate() {
            starts[c + 1] = starts[c] + k;
        }
        let mut fill = starts.clone();
        let mut tuples = vec![0 as TupleId; col.codes.len()];
        for (t, &c) in col.codes.iter().enumerate() {
            let slot = &mut fill[c as usize];
            tuples[*slot as usize] = t as TupleId;
            *slot += 1;
        }
        ValueIndex { tuples, starts }
    }

    /// Number of codes indexed (the column's active-domain size).
    pub fn n_codes(&self) -> usize {
        self.starts.len() - 1
    }

    /// The tuples carrying `code`, in ascending order. Codes outside the
    /// dictionary return the empty region.
    pub fn region(&self, code: u32) -> &[TupleId] {
        let c = code as usize;
        if c >= self.n_codes() {
            return &[];
        }
        &self.tuples[self.starts[c] as usize..self.starts[c + 1] as usize]
    }
}

/// An instance `r` of a schema `R`.
#[derive(Clone)]
pub struct Relation {
    schema: Schema,
    cols: Vec<Column>,
    n_rows: usize,
}

impl Relation {
    /// Assembles a relation from per-column parts — used by the
    /// ingestion pipeline's final merge.
    pub(crate) fn from_parts(schema: Schema, cols: Vec<Column>, n_rows: usize) -> Relation {
        debug_assert_eq!(cols.len(), schema.arity());
        debug_assert!(cols.iter().all(|c| c.codes.len() == n_rows));
        Relation {
            schema,
            cols,
            n_rows,
        }
    }

    /// The schema of the relation.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples (`|r|`, the paper's DBSIZE).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes (the paper's ARITY).
    #[inline]
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Column accessor.
    #[inline]
    pub fn column(&self, a: AttrId) -> &Column {
        &self.cols[a]
    }

    /// The code of tuple `t` at attribute `a`.
    #[inline]
    pub fn code(&self, t: TupleId, a: AttrId) -> u32 {
        self.cols[a].codes[t as usize]
    }

    /// The string value of tuple `t` at attribute `a`.
    pub fn value(&self, t: TupleId, a: AttrId) -> &str {
        self.cols[a].dict.value(self.code(t, a))
    }

    /// Iterates over all tuple ids.
    pub fn tuples(&self) -> impl Iterator<Item = TupleId> {
        0..self.n_rows as TupleId
    }

    /// Renders tuple `t` as its string values, in schema order.
    pub fn tuple_values(&self, t: TupleId) -> Vec<&str> {
        (0..self.arity()).map(|a| self.value(t, a)).collect()
    }

    /// Approximate heap bytes held by the relation's codes, histograms
    /// and dictionaries — the "relation-side memory" number the
    /// ingestion pipeline reports as the `ingest.relation_bytes` gauge
    /// (DESIGN.md §11). Dictionaries shared between cloned relations
    /// are counted in each holder.
    pub fn memory_bytes(&self) -> usize {
        self.cols.iter().map(Column::memory_bytes).sum()
    }

    /// Builds a sub-relation containing only the given rows (in the given
    /// order). Dictionaries are shared with the original relation, so codes
    /// remain comparable across the two instances.
    pub fn restrict(&self, rows: &[TupleId]) -> Relation {
        let cols = self
            .cols
            .iter()
            .map(|c| {
                let codes: Vec<u32> = rows.iter().map(|&t| c.codes[t as usize]).collect();
                let counts = recount(&codes, c.dict.len());
                Column::from_parts(codes, c.dict.clone(), counts)
            })
            .collect();
        Relation {
            schema: self.schema.clone(),
            cols,
            n_rows: rows.len(),
        }
    }

    /// Returns a copy with the given cells replaced by other *codes* of
    /// the same column (dictionaries are shared, so CFDs discovered on
    /// either relation remain directly evaluable on the other). Panics if
    /// a code is outside the column's dictionary.
    pub fn with_replaced_codes(&self, edits: &[(TupleId, AttrId, u32)]) -> Relation {
        let mut cols: Vec<Column> = self.cols.iter().map(Column::without_regions).collect();
        for &(t, a, code) in edits {
            assert!(
                (code as usize) < cols[a].dict.len(),
                "code {code} outside the dictionary of attribute {a}"
            );
            let old = cols[a].codes[t as usize];
            cols[a].counts[old as usize] -= 1;
            cols[a].counts[code as usize] += 1;
            cols[a].codes[t as usize] = code;
        }
        Relation {
            schema: self.schema.clone(),
            cols,
            n_rows: self.n_rows,
        }
    }

    /// Returns a copy with the given cells replaced by (possibly new)
    /// string values. Existing values keep their codes — the dictionaries
    /// are extended, never reshuffled — so rules discovered on the
    /// original stay directly evaluable on the edited copy.
    pub fn with_replaced_values(&self, edits: &[(TupleId, AttrId, &str)]) -> Relation {
        let mut cols: Vec<Column> = self.cols.iter().map(Column::without_regions).collect();
        for &(t, a, value) in edits {
            let code = cols[a].dict.intern(value);
            if code as usize == cols[a].counts.len() {
                cols[a].counts.push(0);
            }
            let old = cols[a].codes[t as usize];
            cols[a].counts[old as usize] -= 1;
            cols[a].counts[code as usize] += 1;
            cols[a].codes[t as usize] = code;
        }
        Relation {
            schema: self.schema.clone(),
            cols,
            n_rows: self.n_rows,
        }
    }

    /// Projects the relation onto a subset of attributes (in ascending
    /// attribute order), e.g. to drop a column the way Example 9 of the
    /// paper sets NM aside. Duplicate rows are kept (bag semantics);
    /// dictionaries are shared with the original columns, and so are
    /// any value regions they have built.
    pub fn project(&self, attrs: crate::attrset::AttrSet) -> crate::error::Result<Relation> {
        let names: Vec<&str> = attrs.iter().map(|a| self.schema.name(a)).collect();
        let schema = Schema::new(names)?;
        let cols: Vec<Column> = attrs.iter().map(|a| self.cols[a].clone()).collect();
        Ok(Relation {
            schema,
            cols,
            n_rows: self.n_rows,
        })
    }

    /// Clones the per-attribute dictionaries — the encoding state a
    /// streaming consumer seeds [`RelationBuilder::from_dicts`] (or its
    /// own interner) with to keep codes comparable with this instance.
    pub fn dicts(&self) -> Vec<Dict> {
        self.cols.iter().map(|c| c.dict.clone()).collect()
    }

    /// Interns `v` into attribute `a`'s dictionary, returning its code —
    /// the other encoding hook for values arriving at runtime. Existing
    /// codes are never reshuffled, so rules and relations previously
    /// resolved against this instance stay valid; the value becomes
    /// representable (e.g. as a rule constant) without occurring in any
    /// tuple yet.
    pub fn intern_value(&mut self, a: AttrId, v: &str) -> u32 {
        let col = &mut self.cols[a];
        let code = col.dict.intern(v);
        if code as usize == col.counts.len() {
            col.counts.push(0);
            col.regions.take();
        }
        code
    }

    /// Average active-domain fraction relative to the number of rows — the
    /// paper's *correlation factor* (CF) of Section 6, measured on an
    /// actual instance.
    pub fn correlation_factor(&self) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        let total: usize = self.cols.iter().map(|c| c.domain_size()).sum();
        total as f64 / (self.arity() as f64 * self.n_rows as f64)
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Relation ({} rows) {:?}", self.n_rows, self.schema)?;
        let limit = self.n_rows.min(20);
        for t in 0..limit as TupleId {
            writeln!(f, "  t{}: {:?}", t + 1, self.tuple_values(t))?;
        }
        if self.n_rows > limit {
            writeln!(f, "  … {} more", self.n_rows - limit)?;
        }
        Ok(())
    }
}

/// Incremental [`Relation`] construction.
///
/// ```
/// use cfd_model::{Schema, RelationBuilder};
/// let schema = Schema::new(["A", "B"]).unwrap();
/// let mut b = RelationBuilder::new(schema);
/// b.push_row(&["1", "x"]).unwrap();
/// b.push_row(&["2", "y"]).unwrap();
/// let r = b.finish();
/// assert_eq!(r.n_rows(), 2);
/// assert_eq!(r.value(1, 1), "y");
/// ```
pub struct RelationBuilder {
    schema: Schema,
    cols: Vec<Column>,
    n_rows: usize,
}

impl RelationBuilder {
    /// Starts building a relation over `schema`.
    pub fn new(schema: Schema) -> Self {
        let cols = (0..schema.arity())
            .map(|_| Column::from_parts(Vec::new(), Dict::default(), Vec::new()))
            .collect();
        RelationBuilder {
            schema,
            cols,
            n_rows: 0,
        }
    }

    /// Starts building an *empty* relation whose dictionaries are seeded
    /// with existing value↔code assignments — the encoding hook for
    /// streamed tuples. Values already present keep their codes (so CFDs
    /// discovered against the seeding relation remain directly
    /// evaluable), and unseen values arriving later are interned with
    /// fresh codes instead of erroring.
    pub fn from_dicts(schema: Schema, dicts: Vec<Dict>) -> Result<Self> {
        if dicts.len() != schema.arity() {
            return Err(Error::Relation(format!(
                "{} dictionaries for schema of arity {}",
                dicts.len(),
                schema.arity()
            )));
        }
        let cols = dicts
            .into_iter()
            .map(|dict| {
                let counts = vec![0; dict.len()];
                Column::from_parts(Vec::new(), dict, counts)
            })
            .collect();
        Ok(RelationBuilder {
            schema,
            cols,
            n_rows: 0,
        })
    }

    /// Resumes building from an existing relation: the builder starts
    /// with all of `rel`'s rows and dictionaries, so appended rows extend
    /// the instance in place while every existing code stays stable.
    /// The columns start without value regions, since appended rows
    /// change them.
    pub fn from_relation(rel: &Relation) -> Self {
        RelationBuilder {
            schema: rel.schema.clone(),
            cols: rel.cols.iter().map(Column::without_regions).collect(),
            n_rows: rel.n_rows,
        }
    }

    /// Reserves capacity for `n` additional rows.
    pub fn reserve(&mut self, n: usize) {
        for c in &mut self.cols {
            c.codes.reserve(n);
        }
    }

    /// Appends a row of string values (one per attribute, in schema order).
    pub fn push_row<S: AsRef<str>>(&mut self, row: &[S]) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(Error::Relation(format!(
                "row has {} values, schema has arity {}",
                row.len(),
                self.schema.arity()
            )));
        }
        for (c, v) in self.cols.iter_mut().zip(row) {
            let code = c.dict.intern(v.as_ref());
            if code as usize == c.counts.len() {
                c.counts.push(0);
            }
            c.counts[code as usize] += 1;
            c.codes.push(code);
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Appends a row of pre-encoded codes. The caller owns the dictionary
    /// discipline: a code `c` for attribute `a` is rendered as the string
    /// interned for it, or interned on the fly as `"v<c>"` if never seen.
    /// Intended for generators that work directly in code space.
    pub fn push_coded_row(&mut self, row: &[u32]) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(Error::Relation(format!(
                "row has {} values, schema has arity {}",
                row.len(),
                self.schema.arity()
            )));
        }
        for (c, &code) in self.cols.iter_mut().zip(row) {
            // keep the dictionary dense: intern synthetic strings up to `code`
            while c.dict.len() <= code as usize {
                let next = c.dict.len();
                c.dict.intern(&format!("v{next}"));
                c.counts.push(0);
            }
            c.counts[code as usize] += 1;
            c.codes.push(code);
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Current number of rows pushed.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Finalizes the relation.
    pub fn finish(mut self) -> Relation {
        for c in &mut self.cols {
            c.shrink_to_fit();
        }
        Relation {
            schema: self.schema,
            cols: self.cols,
            n_rows: self.n_rows,
        }
    }
}

/// Builds a relation from string rows in one call (test/demo helper).
pub fn relation_from_rows<S: AsRef<str>>(schema: Schema, rows: &[Vec<S>]) -> Result<Relation> {
    let mut b = RelationBuilder::new(schema);
    b.reserve(rows.len());
    for row in rows {
        b.push_row(row)?;
    }
    Ok(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn sample() -> Relation {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        relation_from_rows(
            schema,
            &[
                vec!["a1", "b1", "c1"],
                vec!["a1", "b2", "c1"],
                vec!["a2", "b1", "c2"],
            ],
        )
        .unwrap()
    }

    /// Every column's histogram must match a recount of its codes.
    fn assert_counts_consistent(r: &Relation) {
        for a in 0..r.arity() {
            let col = r.column(a);
            assert_eq!(
                col.value_counts(),
                &recount(col.codes(), col.domain_size())[..],
                "attribute {a}"
            );
        }
    }

    #[test]
    fn encoding_round_trip() {
        let r = sample();
        assert_eq!(r.n_rows(), 3);
        assert_eq!(r.arity(), 3);
        assert_eq!(r.value(0, 0), "a1");
        assert_eq!(r.value(2, 2), "c2");
        // same string ⇒ same code
        assert_eq!(r.code(0, 0), r.code(1, 0));
        assert_ne!(r.code(0, 0), r.code(2, 0));
        assert_eq!(r.column(1).domain_size(), 2);
        assert_counts_consistent(&r);
    }

    #[test]
    fn row_width_checked() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let mut b = RelationBuilder::new(schema);
        assert!(b.push_row(&["x"]).is_err());
        assert!(b.push_row(&["x", "y", "z"]).is_err());
        assert!(b.push_row(&["x", "y"]).is_ok());
    }

    #[test]
    fn coded_rows() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let mut b = RelationBuilder::new(schema);
        b.push_coded_row(&[0, 2]).unwrap();
        b.push_coded_row(&[1, 0]).unwrap();
        let r = b.finish();
        assert_eq!(r.code(0, 1), 2);
        assert_eq!(r.value(0, 1), "v2");
        assert_eq!(r.column(1).domain_size(), 3);
        // synthetic fill-in codes v0/v1 of column B occur 1 and 0 times
        assert_eq!(r.column(1).value_counts(), &[1, 0, 1]);
        assert_counts_consistent(&r);
    }

    #[test]
    fn restrict_preserves_codes() {
        let r = sample();
        let s = r.restrict(&[2, 0]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.value(0, 0), "a2");
        assert_eq!(s.code(1, 0), r.code(0, 0));
        assert_counts_consistent(&s);
    }

    #[test]
    fn correlation_factor() {
        let r = sample();
        // domains: A=2, B=2, C=2 over 3 rows, arity 3 ⇒ 6 / 9
        assert!((r.correlation_factor() - 6.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn project_keeps_columns_and_codes() {
        let r = sample();
        let p = r
            .project(crate::attrset::AttrSet::from_iter([0, 2]))
            .unwrap();
        assert_eq!(p.arity(), 2);
        assert_eq!(p.n_rows(), 3);
        assert_eq!(p.schema().name(0), "A");
        assert_eq!(p.schema().name(1), "C");
        assert_eq!(p.value(2, 1), "c2");
        // codes are shared with the original columns
        assert_eq!(p.code(0, 0), r.code(0, 0));
        assert_counts_consistent(&p);
    }

    #[test]
    fn from_dicts_interns_unseen_values_with_fresh_codes() {
        let r = sample();
        // a fresh (empty) relation sharing r's code space
        let mut b = RelationBuilder::from_dicts(r.schema().clone(), r.dicts()).unwrap();
        // seen values keep their codes, unseen values get fresh ones
        b.push_row(&["a1", "b9", "c1"]).unwrap();
        b.push_row(&["a3", "b9", "c2"]).unwrap();
        let s = b.finish();
        assert_eq!(s.code(0, 0), r.code(0, 0), "known value keeps its code");
        assert_eq!(s.code(0, 2), r.code(0, 2));
        // "b9" and "a3" were out-of-dictionary: fresh codes past the seeds
        assert_eq!(s.code(0, 1) as usize, r.column(1).domain_size());
        assert_eq!(s.code(1, 0) as usize, r.column(0).domain_size());
        // same unseen string twice ⇒ same fresh code
        assert_eq!(s.code(0, 1), s.code(1, 1));
        // and the round trip decodes back to the original strings
        assert_eq!(s.tuple_values(0), vec!["a1", "b9", "c1"]);
        assert_eq!(s.tuple_values(1), vec!["a3", "b9", "c2"]);
        assert_counts_consistent(&s);
        // arity mismatch is rejected
        let schema2 = Schema::new(["A", "B"]).unwrap();
        assert!(RelationBuilder::from_dicts(schema2, r.dicts()).is_err());
    }

    #[test]
    fn from_relation_appends_with_stable_codes() {
        let r = sample();
        let mut b = RelationBuilder::from_relation(&r);
        assert_eq!(b.n_rows(), 3);
        b.push_row(&["a2", "b7", "c1"]).unwrap();
        let s = b.finish();
        assert_eq!(s.n_rows(), 4);
        // old rows untouched, old codes stable
        for t in 0..3 {
            assert_eq!(s.tuple_values(t), r.tuple_values(t));
        }
        assert_eq!(s.code(3, 0), r.code(2, 0), "known value keeps its code");
        // the unseen "b7" extended the dictionary rather than erroring
        assert_eq!(s.value(3, 1), "b7");
        assert_eq!(s.column(1).domain_size(), r.column(1).domain_size() + 1);
        assert_counts_consistent(&s);
    }

    #[test]
    fn tuple_values_and_debug() {
        let r = sample();
        assert_eq!(r.tuple_values(1), vec!["a1", "b2", "c1"]);
        let dbg = format!("{r:?}");
        assert!(dbg.contains("3 rows"));
    }

    #[test]
    fn dict_handles_many_distinct_values() {
        let mut d = Dict::default();
        for i in 0..10_000u32 {
            let v = format!("value-{i}");
            assert_eq!(d.intern(&v), i, "fresh values get sequential codes");
            assert_eq!(d.intern(&v), i, "re-interning is stable");
        }
        assert_eq!(d.len(), 10_000);
        for i in (0..10_000u32).rev() {
            let v = format!("value-{i}");
            assert_eq!(d.code(&v), Some(i));
            assert_eq!(d.value(i), v);
        }
        assert_eq!(d.code("value-10000"), None);
        assert_eq!(d.code(""), None);
    }

    /// Values a [`Dict`] property case draws from: the empty string,
    /// multi-byte UTF-8, and chains of prefixes (`v1`, `v10`, `v100`) —
    /// 702 in all, so a case interns past several table growths.
    fn dict_pool() -> Vec<String> {
        let mut pool = vec![String::new(), "长字段".to_string()];
        for i in 0..350 {
            pool.push(format!("v{i}"));
            pool.push(format!("é{i}"));
        }
        pool
    }

    /// `d` against the oracle: same values in code order, and `code`
    /// finds exactly the oracle's values among `pool`.
    fn check_dict(
        d: &Dict,
        values: &[String],
        codes: &HashMap<String, u32>,
        pool: &[String],
    ) -> std::result::Result<(), TestCaseError> {
        prop_assert_eq!(d.len(), values.len());
        prop_assert_eq!(d.is_empty(), values.is_empty());
        for (c, v) in values.iter().enumerate() {
            prop_assert_eq!(d.value(c as u32), v.as_str());
        }
        for v in pool {
            prop_assert_eq!(d.code(v), codes.get(v).copied(), "code of {:?}", v);
        }
        Ok(())
    }

    /// Interns `v` into both `d` and the oracle; the codes must agree.
    fn intern_both(
        d: &mut Dict,
        values: &mut Vec<String>,
        codes: &mut HashMap<String, u32>,
        v: &str,
    ) -> std::result::Result<(), TestCaseError> {
        let want = *codes.entry(v.to_string()).or_insert_with(|| {
            values.push(v.to_string());
            values.len() as u32 - 1
        });
        prop_assert_eq!(d.intern(v), want, "intern {:?}", v);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `Dict` agrees with a `Vec<String>` plus `HashMap` oracle:
        /// codes in first-seen order, `code` and `value` alike. Interning
        /// into a clone leaves the original unchanged.
        #[test]
        fn dict_matches_a_vec_and_map_oracle(
            picks in prop_collection::vec(0usize..702, 0..2500),
            split in 0usize..2500,
        ) {
            let pool = dict_pool();
            let (mut values, mut codes) = (Vec::new(), HashMap::new());
            let mut d = Dict::default();
            let split = split.min(picks.len());
            for &p in &picks[..split] {
                intern_both(&mut d, &mut values, &mut codes, &pool[p])?;
            }
            check_dict(&d, &values, &codes, &pool)?;
            let mut copy = d.clone();
            let (mut copy_values, mut copy_codes) = (values.clone(), codes.clone());
            for &p in &picks[split..] {
                intern_both(&mut copy, &mut copy_values, &mut copy_codes, &pool[p])?;
            }
            check_dict(&copy, &copy_values, &copy_codes, &pool)?;
            check_dict(&d, &values, &codes, &pool)?;
        }
    }

    #[test]
    fn values_with_equal_stored_hash_bits_keep_their_own_codes() {
        // found once by a birthday search over "v0", "v1", …
        let (a, b) = ("v11249", "v70307");
        assert_eq!(hash_value(a) as u32, hash_value(b) as u32);
        let mut d = Dict::default();
        let ca = d.intern(a);
        assert_eq!(d.code(b), None);
        let cb = d.intern(b);
        assert_ne!(ca, cb);
        // and still after the table has grown around them
        for i in 0..100 {
            d.intern(&format!("w{i}"));
        }
        assert_eq!((d.code(a), d.code(b)), (Some(ca), Some(cb)));
        assert_eq!((d.value(ca), d.value(cb)), (a, b));
    }

    /// The satellite's acceptance test: on a 100k-distinct-value column
    /// the single-copy dictionary must be measurably smaller than the
    /// old layout, which held every string in both `Vec<String>` and
    /// the key of a `HashMap<String, u32>`.
    #[test]
    fn dict_memory_drops_versus_two_copy_baseline() {
        const N: usize = 100_000;
        let schema = Schema::new(["V"]).unwrap();
        let mut b = RelationBuilder::new(schema);
        for i in 0..N {
            b.push_row(&[format!("distinct-value-{i:06}")]).unwrap();
        }
        let r = b.finish();
        let dict = r.column(0).dict();
        assert_eq!(dict.len(), N);

        let string_bytes: usize = (0..N as u32).map(|c| dict.value(c).len()).sum();
        // Two-copy model of the old layout: every string's bytes twice,
        // plus a `String` header in the vector and another in the map
        // key, plus the map's u32 payload. (Real `HashMap` overhead —
        // control bytes, load factor — would only add to this, so the
        // baseline is conservative.)
        let two_copy =
            2 * string_bytes + N * (2 * std::mem::size_of::<String>() + std::mem::size_of::<u32>());
        let now = dict.memory_bytes();
        // the arena and table run at power-of-two capacities, so allow
        // their slack while still demanding a real drop
        assert!(
            now < two_copy * 2 / 3,
            "single-copy dict ({now} B) should be well under the \
             two-copy baseline ({two_copy} B)"
        );
        // and it can never be below one copy of the raw string bytes
        assert!(now > string_bytes);

        // relation-level accounting includes codes and histogram
        let rel_bytes = r.memory_bytes();
        assert!(rel_bytes >= now + N * 2 * std::mem::size_of::<u32>());
    }

    /// Every column's regions must equal a scan of its codes, one
    /// region per dictionary code.
    fn assert_regions_match_scan(r: &Relation) {
        for a in 0..r.arity() {
            let col = r.column(a);
            let idx = col.regions();
            assert_eq!(idx.n_codes(), col.domain_size(), "attribute {a}");
            for c in 0..col.domain_size() as u32 {
                let scan: Vec<TupleId> = r.tuples().filter(|&t| col.code(t) == c).collect();
                assert_eq!(idx.region(c), &scan[..], "attribute {a}, code {c}");
            }
        }
    }

    #[test]
    fn regions_group_tuples_by_code() {
        let r = sample();
        let idx = r.column(1).regions();
        let b1 = r.column(1).dict().code("b1").unwrap();
        assert_eq!(idx.n_codes(), 2);
        assert_eq!(idx.region(b1), &[0, 2]);
        assert_eq!(idx.region(99), &[] as &[TupleId]);
        assert_regions_match_scan(&r);
    }

    #[test]
    fn regions_are_built_once_for_all_threads() {
        let r = sample();
        let start = std::sync::Barrier::new(4);
        let built: Vec<usize> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        r.column(1).regions() as *const ValueIndex as usize
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let again = r.column(1).regions() as *const ValueIndex as usize;
        assert!(built.iter().all(|&p| p == again), "one build, shared");
    }

    #[test]
    fn regions_never_go_stale() {
        let built = || {
            let r = sample();
            assert_regions_match_scan(&r);
            r
        };
        // a rule constant interned ahead of the data
        let mut interned = built();
        let ghost = interned.intern_value(0, "ghost");
        assert_regions_match_scan(&interned);
        assert_eq!(
            interned.column(0).regions().region(ghost),
            &[] as &[TupleId]
        );

        let r = built();
        assert_regions_match_scan(&r.with_replaced_codes(&[(0, 1, r.code(1, 1))]));
        assert_regions_match_scan(&r.with_replaced_values(&[(2, 0, "a1"), (1, 2, "c9")]));
        let mut b = RelationBuilder::from_relation(&r);
        b.push_row(&["a2", "b1", "c1"]).unwrap();
        assert_regions_match_scan(&b.finish());
        assert_regions_match_scan(&r.restrict(&[2, 0]));
        let p = r
            .project(crate::attrset::AttrSet::from_iter([1, 2]))
            .unwrap();
        assert_regions_match_scan(&p);
        assert_regions_match_scan(&r);
    }

    #[test]
    fn replacement_constructors_keep_histograms_consistent() {
        let r = sample();
        let by_code = r.with_replaced_codes(&[(0, 0, r.code(2, 0)), (1, 1, r.code(0, 1))]);
        assert_counts_consistent(&by_code);
        let by_value = r.with_replaced_values(&[(0, 2, "c9"), (2, 0, "a1")]);
        assert_eq!(by_value.value(0, 2), "c9");
        assert_counts_consistent(&by_value);
        // interning a rule-only constant extends the histogram with a 0
        let mut m = sample();
        let c = m.intern_value(1, "b42");
        assert_eq!(m.column(1).value_counts()[c as usize], 0);
        assert_counts_consistent(&m);
    }
}
