//! Inputs, all generated from the run's seed: tax relations from the
//! paper's generator (`cfd_datagen::tax`), the rule covers the checking
//! workloads validate against, and the drifted relation `remine` heals.

use crate::Res;
use cfd_suite::datagen::noise::inject_noise;
use cfd_suite::datagen::tax::TaxGenerator;
use cfd_suite::model::csv::relation_to_csv;
use cfd_suite::model::{AttrSet, Cfd, PVal, Pattern, Relation};
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Share of cells the dirty inputs flip.
const NOISE: f64 = 0.01;

/// Input sizes. [`Scale::full`] is what `BENCHMARK.json` describes;
/// [`Scale::smoke`] runs the same code paths at about 1/50 size.
pub struct Scale {
    /// `mine`: rows of the tax relation and the support threshold.
    pub mine_rows: usize,
    pub mine_k: usize,
    /// `bulk`: rows of the tax relation (`watch` streams its tail) and
    /// the `cfdminer` support threshold (0.1 % of the rows).
    pub bulk_rows: usize,
    pub bulk_k: usize,
    /// `serve`: the discover dataset, the check dataset, the drift
    /// dataset (`drift_warm` clean rows, then drifted ones), and the
    /// inline CSV each `register` sends.
    pub serve_small_rows: usize,
    pub serve_rows: usize,
    pub drift_rows: usize,
    pub drift_warm: usize,
    pub register_rows: usize,
    pub discover_k: usize,
    pub discover_top_k: usize,
    /// Requests answered before the server's peak RSS is read: it keeps
    /// every finished job's result, so its memory grows with the
    /// requests served, and a reading at the end would depend on how
    /// fast the box ran.
    pub serve_rss_after: usize,
    /// `watch`: the live window and the inserts (= deletes) per batch.
    pub watch_window: usize,
    pub batch: usize,
    /// Seconds of `serve` load before the measured window.
    pub warmup_s: f64,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            mine_rows: 20_000,
            mine_k: 20,
            bulk_rows: 200_000,
            bulk_k: 200,
            serve_small_rows: 1_000,
            serve_rows: 20_000,
            drift_rows: 5_000,
            drift_warm: 4_000,
            register_rows: 500,
            discover_k: 10,
            discover_top_k: 20,
            serve_rss_after: 400,
            watch_window: 20_000,
            batch: 2_500,
            warmup_s: 1.0,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            mine_rows: 400,
            mine_k: 2,
            bulk_rows: 4_000,
            bulk_k: 4,
            serve_small_rows: 100,
            serve_rows: 400,
            drift_rows: 500,
            drift_warm: 400,
            register_rows: 10,
            discover_k: 2,
            discover_top_k: 20,
            serve_rss_after: 20,
            watch_window: 400,
            batch: 50,
            warmup_s: 0.1,
        }
    }
}

/// The tax generator at `rows` rows (arity 7, CF 0.7), seeded.
pub fn tax(rows: usize, seed: u64) -> TaxGenerator {
    TaxGenerator::new(rows).seed(seed)
}

/// A seed derived from the run's seed, so inputs that must differ do.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic generator for the load generator's draws.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        (derive(self.0, 0) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Streams a generated relation to `path` as CSV; returns its bytes.
pub fn write_generated(path: &Path, gen: &TaxGenerator) -> Res<u64> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    gen.write_csv(&mut w)?;
    w.flush()?;
    Ok(std::fs::metadata(path)?.len())
}

/// Writes `rel` to `path` as CSV; returns its bytes.
pub fn write_relation(path: &Path, rel: &Relation) -> Res<u64> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    relation_to_csv(rel, &mut w)?;
    w.flush()?;
    Ok(std::fs::metadata(path)?.len())
}

pub fn csv_string(rel: &Relation) -> Res<String> {
    let mut out = Vec::new();
    relation_to_csv(rel, &mut out)?;
    Ok(String::from_utf8(out)?)
}

/// Rows `from..to` of `rel`, sharing its dictionaries.
pub fn rows(rel: &Relation, from: usize, to: usize) -> Relation {
    let ids: Vec<u32> = (from as u32..to as u32).collect();
    rel.restrict(&ids)
}

/// The checking workloads' cover: the conditional dependency the tax
/// generator plants (STR is a function of NM where CC = v1) and, for
/// every AC value, the constant rules `AC = a -> CT` and `AC = a -> ZIP`
/// that its planted CT = f(AC), ZIP = g(CT) imply. All of them hold on
/// the clean relation and every constant occurs in it, so a dirty copy
/// violates the cover only where noise was injected, and the cover's
/// make-up (hence the work it costs) is the same for every seed. A cover
/// mined from a sample is not: which accidental dependencies a sample
/// holds varies. The plain FDs `[AC] -> CT` and `[CT] -> ZIP` are left
/// out: their groups are thousands of rows (AC has 24 Zipf-skewed
/// values), so each noisy witness flips a whole group's violations and
/// a batch's output would measure the pipe rather than the program.
pub fn cover(rel: &Relation) -> Res<Vec<String>> {
    let id = |name: &str| {
        rel.schema()
            .attr_id(name)
            .ok_or_else(|| format!("tax has no {name}"))
    };
    let (cc, ac, nm, st, ct, zip) = (
        id("CC")?,
        id("AC")?,
        id("NM")?,
        id("STR")?,
        id("CT")?,
        id("ZIP")?,
    );
    let guard = rel
        .column(cc)
        .dict()
        .code("v1")
        .ok_or("tax has no CC = v1")?;
    let mut rules = vec![Cfd::variable(
        Pattern::from_pairs([(cc, PVal::Const(guard)), (nm, PVal::Var)]),
        st,
    )];
    let mut images: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
    for t in rel.tuples() {
        images
            .entry(rel.code(t, ac))
            .or_insert((rel.code(t, ct), rel.code(t, zip)));
    }
    for (a, (c, z)) in images {
        let lhs = Pattern::from_pairs([(ac, PVal::Const(a))]);
        rules.push(Cfd::constant(lhs.clone(), ct, c));
        rules.push(Cfd::constant(lhs, zip, z));
    }
    Ok(rules.iter().map(|c| c.display(rel)).collect())
}

/// `rel` with each cell flipped to another value of its column with
/// probability `NOISE` (`cfd_datagen::noise::inject_noise`).
pub fn dirty(rel: &Relation, seed: u64) -> Relation {
    inject_noise(rel, NOISE, derive(seed, 400)).0
}

pub fn write_rules(path: &Path, rules: &[String]) -> Res<()> {
    std::fs::write(path, rules.join("\n") + "\n")?;
    Ok(())
}

/// A relation on which `[AC] -> CT` has drifted: after `warm` clean
/// rows, each row takes the CT of the row `warm / 2` before it, so
/// matching ACs disagree (the perf guard's `remine_drift` recipe).
/// Returns it with the FD's wire text.
pub fn drift(rows: usize, warm: usize, seed: u64) -> Res<(Relation, String)> {
    let rel = tax(rows, seed).generate();
    let ac = rel.schema().attr_id("AC").ok_or("tax has no AC")?;
    let ct = rel.schema().attr_id("CT").ok_or("tax has no CT")?;
    let edits: Vec<(u32, usize, u32)> = (warm as u32..rows as u32)
        .map(|t| (t, ct, rel.code(t - warm as u32 / 2, ct)))
        .collect();
    let fd = Cfd::fd(AttrSet::singleton(ac), ct).display(&rel);
    Ok((rel.with_replaced_codes(&edits), fd))
}
