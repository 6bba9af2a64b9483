//! # cfd-bench
//!
//! The experiment harness that regenerates **every table and figure** of
//! the paper's evaluation (Section 6): the dataset table of §6.1 and
//! Figures 5–16, plus the ablations DESIGN.md calls out.
//!
//! Two scales are supported:
//!
//! * **quick** (default) — parameter sweeps scaled down so the whole
//!   suite finishes in minutes on a laptop; the *shape* of every curve
//!   (who wins, by what factor, where the crossovers fall) is preserved;
//! * **full** (`--full`) — the paper's parameters (up to 10⁶ tuples,
//!   arity 31); expect hours, exactly like the original study.
//!
//! Run `cargo run --release -p cfd-bench --bin experiments -- all`: it
//! prints each table and writes its CSV to `bench-results/` (DESIGN.md
//! §6 describes the experiments and ablations).
//!
//! ```
//! use cfd_bench::{Cell, Table, EXPERIMENT_IDS};
//!
//! // every experiment of the harness is addressable by id
//! assert!(EXPERIMENT_IDS.contains(&"fig5"));
//! // the report tables render fixed-width text and export CSV
//! let mut t = Table::new("Fig 5. Scalability", "DBSIZE", &["ctane"]);
//! t.push_row(1000usize, vec![Cell::Secs(1.37)]);
//! assert!(t.render().contains("DBSIZE"));
//! assert!(t.to_csv().contains("1.370000"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use experiments::{run_experiment, Scale, EXPERIMENT_IDS};
pub use table::{Cell, Table};
