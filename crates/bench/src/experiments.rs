//! One experiment per table/figure of Section 6 (plus ablations).
//!
//! Identifiers:
//!
//! | id | regenerates |
//! |----|-------------|
//! | `table1` | the §6.1 dataset table |
//! | `fig5`   | Fig. 5 (runtime vs DBSIZE) **and** Fig. 6 (#CFDs vs DBSIZE) |
//! | `fig7`   | Fig. 7 (runtime vs ARITY) |
//! | `fig8`   | Fig. 8 (runtime vs k) **and** Fig. 9 (#CFDs vs k) |
//! | `fig10`  | Fig. 10 (runtime vs CF) |
//! | `fig11`  | Fig. 11 (WBC, runtime vs k) **and** Fig. 14 (#CFDs) |
//! | `fig12`  | Fig. 12 (Chess, runtime vs k) **and** Fig. 15 (#CFDs) |
//! | `fig13`  | Fig. 13 (Tax, runtime vs k) **and** Fig. 16 (#CFDs) |
//! | `abl-freeset` | Lemma 5 free-set pruning ablation |
//! | `abl-parallel` | per-RHS FindCover parallelism (extension) |
//! | `sampling` | §8 future work: discovery on stratified samples |
//! | `abl-engine`  | Closed₂ vs stripped-partition difference sets |
//! | `abl-reorder` | FindMin dynamic attribute reordering ablation |
//! | `fd-baseline` | TANE vs FastFD on the Fig. 5 workload |
//!
//! `fig6`, `fig9`, `fig14`–`fig16` are aliases that run the experiment
//! producing them.

use crate::table::{Cell, Table};
use cfd_core::api::{Algo, DiscoverOptions, Discoverer};
use cfd_core::FastCfd;
use cfd_model::relation::Relation;
use cfd_model::CanonicalCover;
use std::path::Path;
use std::time::Instant;

/// All primary experiment identifiers, in suite order.
pub const EXPERIMENT_IDS: &[&str] = &[
    "table1",
    "fig5",
    "fig7",
    "fig8",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "abl-freeset",
    "abl-engine",
    "abl-reorder",
    "abl-parallel",
    "sampling",
    "fd-baseline",
];

/// Sweep scale: quick (default) or the paper's full parameters.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Use the paper's full parameter ranges (hours of runtime).
    pub full: bool,
}

impl Scale {
    fn pick<T: Clone>(&self, quick: &[T], full: &[T]) -> Vec<T> {
        if self.full {
            full.to_vec()
        } else {
            quick.to_vec()
        }
    }

    /// Per-point time budget before a series is marked DNF.
    fn budget(&self) -> f64 {
        if self.full {
            3600.0
        } else {
            90.0
        }
    }

    /// Largest arity CTANE is attempted at (the paper reports CTANE
    /// cannot complete above arity 17).
    fn ctane_arity_cap(&self) -> usize {
        if self.full {
            17
        } else {
            11
        }
    }
}

/// A per-series give-up guard: once a point exceeds the budget, later
/// (larger) points are reported as DNF, mirroring how the paper reports
/// CTANE beyond its feasible range.
struct Guard {
    budget: f64,
    dead: bool,
}

impl Guard {
    fn new(budget: f64) -> Guard {
        Guard {
            budget,
            dead: false,
        }
    }

    fn run<T>(&mut self, f: impl FnOnce() -> T) -> (Option<T>, Cell) {
        if self.dead {
            return (None, Cell::Dnf);
        }
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        if secs > self.budget {
            self.dead = true;
        }
        (Some(out), Cell::Secs(secs))
    }

    fn skip(&mut self) -> Cell {
        self.dead = true;
        Cell::Dnf
    }
}

fn tax(dbsize: usize, arity: usize, cf: f64) -> Relation {
    cfd_datagen::tax::TaxGenerator {
        arity,
        dbsize,
        cf,
        seed: 0x5eed,
    }
    .generate()
}

/// SUP% = 0.1% of DBSIZE, floor 2 — the paper's fixed support ratio.
fn k_of(dbsize: usize) -> usize {
    (dbsize / 1000).max(2)
}

// ---------------------------------------------------------------- table 1

fn table1(_scale: Scale) -> Vec<(String, Table)> {
    let mut t = Table::new(
        "Table 1 (§6.1). Evaluation datasets",
        "dataset",
        &["arity", "size", "max |dom|", "CF"],
    );
    let describe = |rel: &Relation| {
        let maxdom = (0..rel.arity())
            .map(|a| rel.column(a).domain_size())
            .max()
            .unwrap_or(0);
        (
            Cell::Count(rel.arity()),
            Cell::Count(rel.n_rows()),
            Cell::Count(maxdom),
            Cell::Text(format!("{:.3}", rel.correlation_factor())),
        )
    };
    let wbc = cfd_datagen::wbc::wbc_relation();
    let chess = cfd_datagen::chess::chess_relation();
    let taxr = tax(20_000, 9, 0.7);
    for (name, rel) in [("WBC", &wbc), ("Chess", &chess), ("Tax", &taxr)] {
        let (a, s, d, c) = describe(rel);
        t.push_row(name, vec![a, s, d, c]);
    }
    vec![("table1".into(), t)]
}

// ------------------------------------------------------------- figs 5 & 6

fn fig5(scale: Scale) -> Vec<(String, Table)> {
    let sizes = scale.pick(
        &[1_000, 2_000, 4_000, 8_000, 16_000],
        &[20_000, 50_000, 100_000, 300_000, 1_000_000],
    );
    let mut t5 = Table::new(
        "Fig 5. Scalability w.r.t. DBSIZE (ARITY=7, CF=0.7, SUP%=0.1%)",
        "DBSIZE",
        &["CFDMiner", "CFDMiner(2)", "CTANE", "NaiveFast", "FastCFD"],
    );
    let mut t6 = Table::new(
        "Fig 6. #CFDs w.r.t. DBSIZE (from FastCFD)",
        "DBSIZE",
        &["constant", "variable"],
    );
    let mut g_ctane = Guard::new(scale.budget());
    let mut g_naive = Guard::new(scale.budget());
    for dbsize in sizes {
        let rel = tax(dbsize, 7, 0.7);
        let k = k_of(dbsize);
        let (_, c_miner) =
            Guard::new(f64::MAX).run(|| Algo::CfdMiner.discover(&rel, &DiscoverOptions::new(k)));
        let (_, c_miner2) =
            Guard::new(f64::MAX).run(|| Algo::CfdMiner.discover(&rel, &DiscoverOptions::new(2)));
        let (_, c_ctane) = g_ctane.run(|| Algo::Ctane.discover(&rel, &DiscoverOptions::new(k)));
        let (_, c_naive) = g_naive.run(|| Algo::Naive.discover(&rel, &DiscoverOptions::new(k)));
        let (cover, c_fast) =
            Guard::new(f64::MAX).run(|| Algo::FastCfd.discover(&rel, &DiscoverOptions::new(k)));
        t5.push_row(dbsize, vec![c_miner, c_miner2, c_ctane, c_naive, c_fast]);
        let (nc, nv) = cover.expect("fastcfd always runs").counts();
        t6.push_row(dbsize, vec![Cell::Count(nc), Cell::Count(nv)]);
    }
    vec![("fig5".into(), t5), ("fig6".into(), t6)]
}

// ------------------------------------------------------------------ fig 7

fn fig7(scale: Scale) -> Vec<(String, Table)> {
    let arities = scale.pick(
        &[7, 9, 11, 13, 15, 19, 23, 31],
        &[7, 11, 15, 17, 19, 23, 27, 31],
    );
    let dbsize = if scale.full { 20_000 } else { 2_000 };
    let k = k_of(dbsize);
    let mut t = Table::new(
        &format!("Fig 7. Scalability w.r.t. ARITY (DBSIZE={dbsize}, CF=0.7, SUP%=0.1%)"),
        "ARITY",
        &["CTANE", "NaiveFast", "FastCFD"],
    );
    let mut g_ctane = Guard::new(scale.budget());
    let mut g_naive = Guard::new(scale.budget());
    let mut g_fast = Guard::new(scale.budget());
    for arity in arities {
        let rel = tax(dbsize, arity, 0.7);
        let c_ctane = if arity > scale.ctane_arity_cap() {
            g_ctane.skip()
        } else {
            g_ctane
                .run(|| Algo::Ctane.discover(&rel, &DiscoverOptions::new(k)))
                .1
        };
        let (_, c_naive) = g_naive.run(|| Algo::Naive.discover(&rel, &DiscoverOptions::new(k)));
        let (_, c_fast) = g_fast.run(|| Algo::FastCfd.discover(&rel, &DiscoverOptions::new(k)));
        t.push_row(arity, vec![c_ctane, c_naive, c_fast]);
    }
    vec![("fig7".into(), t)]
}

// ------------------------------------------------------------- figs 8 & 9

fn fig8(scale: Scale) -> Vec<(String, Table)> {
    let dbsize = if scale.full { 100_000 } else { 8_000 };
    // the paper varies k ∈ [50, 150] at 100K rows (0.05%–0.15%)
    let ks: Vec<usize> = scale
        .pick(&[0.5, 0.75, 1.0, 1.25, 1.5], &[0.5, 0.75, 1.0, 1.25, 1.5])
        .into_iter()
        .map(|f| ((dbsize as f64 * f * 0.001) as usize).max(2))
        .collect();
    let rel = tax(dbsize, 7, 0.7);
    let mut t8 = Table::new(
        &format!(
            "Fig 8. Scalability w.r.t. support threshold k (DBSIZE={dbsize}, ARITY=7, CF=0.7)"
        ),
        "k",
        &["CTANE", "NaiveFast", "FastCFD"],
    );
    let mut t9 = Table::new(
        "Fig 9. #CFDs w.r.t. k (from FastCFD)",
        "k",
        &["constant", "variable"],
    );
    // note: k *descends* in difficulty — run high-k first so the guard
    // only suppresses genuinely harder points
    let mut g_ctane = Guard::new(scale.budget());
    let mut g_naive = Guard::new(scale.budget());
    for &k in ks.iter().rev() {
        let (_, c_ctane) = g_ctane.run(|| Algo::Ctane.discover(&rel, &DiscoverOptions::new(k)));
        let (_, c_naive) = g_naive.run(|| Algo::Naive.discover(&rel, &DiscoverOptions::new(k)));
        let (cover, c_fast) =
            Guard::new(f64::MAX).run(|| Algo::FastCfd.discover(&rel, &DiscoverOptions::new(k)));
        t8.rows
            .insert(0, (k.to_string(), vec![c_ctane, c_naive, c_fast]));
        let (nc, nv) = cover.expect("fastcfd always runs").counts();
        t9.rows
            .insert(0, (k.to_string(), vec![Cell::Count(nc), Cell::Count(nv)]));
    }
    vec![("fig8".into(), t8), ("fig9".into(), t9)]
}

// ----------------------------------------------------------------- fig 10

fn fig10(scale: Scale) -> Vec<(String, Table)> {
    let dbsize = if scale.full { 50_000 } else { 6_000 };
    let k = k_of(dbsize);
    let cfs = [0.3, 0.4, 0.5, 0.6, 0.7];
    let mut t = Table::new(
        &format!("Fig 10. Scalability w.r.t. CF (DBSIZE={dbsize}, ARITY=9, k={k})"),
        "CF",
        &["CTANE", "NaiveFast", "FastCFD"],
    );
    // low CF is the hard end — sweep downward so the guard works
    let mut g_ctane = Guard::new(scale.budget());
    let mut g_naive = Guard::new(scale.budget());
    let mut g_fast = Guard::new(scale.budget());
    for &cf in cfs.iter().rev() {
        let rel = tax(dbsize, 9, cf);
        let (_, c_ctane) = g_ctane.run(|| Algo::Ctane.discover(&rel, &DiscoverOptions::new(k)));
        let (_, c_naive) = g_naive.run(|| Algo::Naive.discover(&rel, &DiscoverOptions::new(k)));
        let (_, c_fast) = g_fast.run(|| Algo::FastCfd.discover(&rel, &DiscoverOptions::new(k)));
        t.rows
            .insert(0, (format!("{cf:.1}"), vec![c_ctane, c_naive, c_fast]));
    }
    vec![("fig10".into(), t)]
}

// ---------------------------------------------- figs 11–16 (real datasets)

fn dataset_k_sweep(
    name: &str,
    fig_time: &str,
    fig_counts: &str,
    rel: &Relation,
    ks: &[usize],
    scale: Scale,
    ctane_max_lhs: Option<usize>,
) -> Vec<(String, Table)> {
    let fig_no = fig_time.trim_start_matches("fig");
    let counts_no = fig_counts.trim_start_matches("fig");
    let mut tt = Table::new(
        &format!(
            "Fig {fig_no}. {name} ({} × {}): runtime vs k",
            rel.n_rows(),
            rel.arity()
        ),
        "k",
        &["CTANE", "FastCFD"],
    );
    let mut tc = Table::new(
        &format!("Fig {counts_no}. {name}: #CFDs vs k (from FastCFD)"),
        "k",
        &["constant", "variable"],
    );
    let mut g_ctane = Guard::new(scale.budget());
    let mut g_fast = Guard::new(scale.budget());
    for &k in ks.iter().rev() {
        let c_ctane = {
            let mut opts = DiscoverOptions::new(k);
            opts.max_lhs = ctane_max_lhs;
            g_ctane.run(|| Algo::Ctane.discover(rel, &opts)).1
        };
        let (cover, c_fast) = g_fast.run(|| Algo::FastCfd.discover(rel, &DiscoverOptions::new(k)));
        tt.rows.insert(0, (k.to_string(), vec![c_ctane, c_fast]));
        let counts = match cover {
            Some(c) => {
                let (nc, nv) = c.counts();
                vec![Cell::Count(nc), Cell::Count(nv)]
            }
            None => vec![Cell::Dnf, Cell::Dnf],
        };
        tc.rows.insert(0, (k.to_string(), counts));
    }
    vec![(fig_time.to_string(), tt), (fig_counts.to_string(), tc)]
}

fn fig11(scale: Scale) -> Vec<(String, Table)> {
    let rel = cfd_datagen::wbc::wbc_relation();
    let ks = scale.pick(&[40, 60, 80, 100, 140], &[10, 20, 40, 60, 80, 100, 140]);
    let cap = if scale.full { None } else { Some(4) };
    let mut out = dataset_k_sweep(
        "Wisconsin breast cancer",
        "fig11",
        "fig14",
        &rel,
        &ks,
        scale,
        cap,
    );
    if !scale.full {
        out[0].1.title.push_str(" [CTANE LHS ≤ 4 in quick mode]");
    }
    out
}

fn fig12(scale: Scale) -> Vec<(String, Table)> {
    let full_rel = cfd_datagen::chess::chess_relation();
    let rel = if scale.full {
        full_rel
    } else {
        let rows: Vec<u32> = (0..8_000).collect();
        full_rel.restrict(&rows)
    };
    let ks = scale.pick(&[16, 32, 64, 128, 256], &[30, 60, 120, 240, 480]);
    dataset_k_sweep("Chess", "fig12", "fig15", &rel, &ks, scale, None)
}

fn fig13(scale: Scale) -> Vec<(String, Table)> {
    let dbsize = if scale.full { 20_000 } else { 5_000 };
    let rel = tax(dbsize, 9, 0.7);
    let ks = scale.pick(&[5, 10, 20, 40, 80], &[20, 40, 80, 160, 320]);
    dataset_k_sweep("Tax", "fig13", "fig16", &rel, &ks, scale, None)
}

// -------------------------------------------------------------- ablations

/// Times `a`, then `b`, two configurations that must mine the same
/// cover: `(seconds of a, seconds of b, the cover)`.
fn paired(
    a: impl FnOnce() -> CanonicalCover,
    b: impl FnOnce() -> CanonicalCover,
) -> (f64, f64, CanonicalCover) {
    let t0 = Instant::now();
    let cover = a();
    let secs_a = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let other = b();
    let secs_b = t1.elapsed().as_secs_f64();
    assert_eq!(
        cover.cfds(),
        other.cfds(),
        "both configurations mine one cover"
    );
    (secs_a, secs_b, cover)
}

/// How many times faster `fast` ran than `slow`.
fn speedup(slow: f64, fast: f64) -> Cell {
    Cell::Text(format!("{:.1}x", slow / fast.max(1e-9)))
}

fn abl_freeset(scale: Scale) -> Vec<(String, Table)> {
    let sizes = scale.pick(&[1_000, 2_000, 4_000], &[10_000, 20_000, 50_000]);
    let mut t = Table::new(
        "Ablation: Lemma 5 free-set pruning (FastCFD, ARITY=7, CF=0.7, SUP%=0.1%)",
        "DBSIZE",
        &["free sets only", "all frequent sets", "speedup"],
    );
    for dbsize in sizes {
        let rel = tax(dbsize, 7, 0.7);
        let opts = DiscoverOptions::new(k_of(dbsize));
        let (with, without, _) = paired(
            || FastCfd::default().discover(&rel, &opts),
            || {
                FastCfd::default()
                    .free_set_pruning(false)
                    .discover(&rel, &opts)
            },
        );
        let row = vec![
            Cell::Secs(with),
            Cell::Secs(without),
            speedup(without, with),
        ];
        t.push_row(dbsize, row);
    }
    vec![("abl-freeset".into(), t)]
}

fn abl_engine(scale: Scale) -> Vec<(String, Table)> {
    let arities = scale.pick(&[7, 11, 15, 19], &[7, 15, 23, 31]);
    let dbsize = if scale.full { 20_000 } else { 2_000 };
    let opts = DiscoverOptions::new(k_of(dbsize));
    let stripped = FastCfd::default().mode(cfd_core::DiffSetMode::StrippedPartitions);
    let mut t = Table::new(
        &format!("Ablation: difference-set engine (DBSIZE={dbsize}, SUP%=0.1%)"),
        "ARITY",
        &["Closed₂ sets", "stripped partitions"],
    );
    for arity in arities {
        let rel = tax(dbsize, arity, 0.7);
        let (s_closed, s_stripped, _) = paired(
            || FastCfd::default().discover(&rel, &opts),
            || stripped.discover(&rel, &opts),
        );
        t.push_row(arity, vec![Cell::Secs(s_closed), Cell::Secs(s_stripped)]);
    }
    vec![("abl-engine".into(), t)]
}

fn abl_reorder(scale: Scale) -> Vec<(String, Table)> {
    let arities = scale.pick(&[7, 11, 15, 19, 23], &[7, 15, 23, 31]);
    let dbsize = if scale.full { 20_000 } else { 2_000 };
    let opts = DiscoverOptions::new(k_of(dbsize));
    let mut t = Table::new(
        &format!("Ablation: FindMin dynamic attribute reordering (DBSIZE={dbsize})"),
        "ARITY",
        &["reorder on", "reorder off"],
    );
    for arity in arities {
        let rel = tax(dbsize, arity, 0.7);
        let (s_on, s_off, _) = paired(
            || FastCfd::default().discover(&rel, &opts),
            || {
                FastCfd::default()
                    .dynamic_reorder(false)
                    .discover(&rel, &opts)
            },
        );
        t.push_row(arity, vec![Cell::Secs(s_on), Cell::Secs(s_off)]);
    }
    vec![("abl-reorder".into(), t)]
}

fn abl_parallel(scale: Scale) -> Vec<(String, Table)> {
    let sizes = scale.pick(&[2_000, 4_000, 8_000], &[20_000, 50_000, 100_000]);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    let mut t = Table::new(
        &format!("Ablation: per-RHS FindCover parallelism ({threads} threads; extension)"),
        "DBSIZE",
        &["1 thread", "N threads", "speedup"],
    );
    for dbsize in sizes {
        let rel = tax(dbsize, 9, 0.7);
        let opts = DiscoverOptions::new(k_of(dbsize));
        let (serial, parallel, _) = paired(
            || FastCfd::default().discover(&rel, &opts),
            || FastCfd::default().discover(&rel, &opts.clone().threads(threads)),
        );
        let row = vec![
            Cell::Secs(serial),
            Cell::Secs(parallel),
            speedup(serial, parallel),
        ];
        t.push_row(dbsize, row);
    }
    vec![("abl-parallel".into(), t)]
}

fn sampling(scale: Scale) -> Vec<(String, Table)> {
    let dbsize = if scale.full { 100_000 } else { 10_000 };
    let rel = tax(dbsize, 9, 0.7);
    let k_full = k_of(dbsize);
    let cc = 0; // stratify on the country-code-like attribute
    let mut t = Table::new(
        &format!(
            "Sampling (§8 future work): discovery on stratified samples of Tax {dbsize}×9              (precision = sampled rules that hold on the full data)"
        ),
        "fraction",
        &["time", "#rules", "precision", "full-data time"],
    );
    let t0 = Instant::now();
    FastCfd::default().discover(&rel, &DiscoverOptions::new(k_full));
    let full_time = t0.elapsed().as_secs_f64();
    for fraction in [0.05f64, 0.1, 0.2, 0.4] {
        let s = cfd_datagen::sample::stratified_sample(&rel, cc, fraction, 0xab);
        let k = ((k_full as f64 * fraction).round() as usize).max(2);
        let t1 = Instant::now();
        let cover = FastCfd::default().discover(&s, &DiscoverOptions::new(k));
        let secs = t1.elapsed().as_secs_f64();
        let good = cover
            .iter()
            .filter(|c| cfd_model::satisfy::satisfies(&rel, c))
            .count();
        t.push_row(
            format!("{fraction:.2}"),
            vec![
                Cell::Secs(secs),
                Cell::Count(cover.len()),
                Cell::Text(format!(
                    "{:.0}%",
                    100.0 * good as f64 / cover.len().max(1) as f64
                )),
                Cell::Secs(full_time),
            ],
        );
    }
    vec![("sampling".into(), t)]
}

fn fd_baseline(scale: Scale) -> Vec<(String, Table)> {
    let sizes = scale.pick(
        &[1_000, 2_000, 4_000, 8_000, 16_000],
        &[20_000, 50_000, 100_000, 300_000],
    );
    let mut t = Table::new(
        "FD baselines on the Fig. 5 workload (ARITY=7, CF=0.7)",
        "DBSIZE",
        &["TANE", "FastFD", "#FDs"],
    );
    let opts = DiscoverOptions::new(1);
    for dbsize in sizes {
        let rel = tax(dbsize, 7, 0.7);
        let (s_tane, s_fastfd, fds) = paired(
            || Algo::Tane.discover(&rel, &opts),
            || Algo::FastFd.discover(&rel, &opts),
        );
        let row = vec![
            Cell::Secs(s_tane),
            Cell::Secs(s_fastfd),
            Cell::Count(fds.len()),
        ];
        t.push_row(dbsize, row);
    }
    vec![("fd-baseline".into(), t)]
}

/// Runs one experiment by id, printing each produced table and writing
/// CSVs under `out` when given. Count-figure aliases (fig6/9/14/15/16)
/// resolve to the experiment that computes them.
pub fn run_experiment(id: &str, scale: Scale, out: Option<&Path>) -> Vec<(String, Table)> {
    let tables = match id {
        "table1" => table1(scale),
        "fig5" | "fig6" => fig5(scale),
        "fig7" => fig7(scale),
        "fig8" | "fig9" => fig8(scale),
        "fig10" => fig10(scale),
        "fig11" | "fig14" => fig11(scale),
        "fig12" | "fig15" => fig12(scale),
        "fig13" | "fig16" => fig13(scale),
        "abl-freeset" => abl_freeset(scale),
        "abl-parallel" => abl_parallel(scale),
        "sampling" => sampling(scale),
        "abl-engine" => abl_engine(scale),
        "abl-reorder" => abl_reorder(scale),
        "fd-baseline" => fd_baseline(scale),
        other => panic!(
            "unknown experiment {other:?}; known: {:?} (+ count aliases fig6/fig9/fig14/fig15/fig16)",
            EXPERIMENT_IDS
        ),
    };
    for (tid, table) in &tables {
        println!("{}", table.render());
        if let Some(dir) = out {
            table
                .write_csv(dir, tid)
                .unwrap_or_else(|e| eprintln!("cannot write {tid}.csv: {e}"));
        }
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_of_matches_sup_ratio() {
        assert_eq!(k_of(20_000), 20);
        assert_eq!(k_of(1_000), 2);
        assert_eq!(k_of(100), 2);
    }

    #[test]
    fn table1_runs() {
        let tables = table1(Scale { full: false });
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].1.rows.len(), 3);
    }

    #[test]
    fn guard_marks_dnf_after_budget() {
        let mut g = Guard::new(0.0);
        let (out, cell) = g.run(|| 42);
        assert_eq!(out, Some(42));
        assert!(matches!(cell, Cell::Secs(_)));
        // the zero budget is now exhausted
        let (out2, cell2) = g.run(|| 43);
        assert_eq!(out2, None);
        assert_eq!(cell2, Cell::Dnf);
    }

    #[test]
    fn unknown_experiment_panics() {
        let r = std::panic::catch_unwind(|| run_experiment("fig99", Scale { full: false }, None));
        assert!(r.is_err());
    }
}
