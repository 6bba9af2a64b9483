//! # cfd-fd
//!
//! FastFD, the depth-first classical FD-discovery baseline (Wyss et al.
//! \[14\]) that FastCFD extends: difference sets and minimal-cover
//! enumeration. Its search ([`fastfd::min_diff_sets`],
//! [`fastfd::minimal_covers`]) is the one FastCFD runs per free
//! pattern. TANE, the level-wise baseline, is CTANE's level walk over
//! the wildcard items `(A, _)` and lives beside it in `cfd_core`.
//!
//! FastFD returns plain FDs as all-wildcard variable CFDs, so its output
//! is directly comparable with the plain-FD fragment of a discovered CFD
//! cover (`CanonicalCover::plain_fd_cover`). Like that fragment, and
//! unlike some classical presentations, `∅ → A` dependencies (constant
//! columns) are *excluded* — in the CFD world they are represented by the
//! constant CFD `(∅ → A, (‖ a))`.
//!
//! FastFD reads no shared knob: it mines exact FDs, with no support
//! threshold, LHS bound or workers. `cfd_core::api` wraps it in the
//! `Discoverer` trait. Called directly, its one entry point is `run`:
//!
//! ```
//! use cfd_fd::FastFd;
//! use cfd_model::csv::relation_from_csv_str;
//! use cfd_model::progress::{Control, SearchStats};
//!
//! // AC → CT fails on the 131 rows; CT → AC holds
//! let rel = relation_from_csv_str("AC,CT\n908,MH\n908,MH\n131,EDI\n131,UN\n").unwrap();
//! let cover = FastFd
//!     .run(&rel, &Control::default(), &mut SearchStats::default())
//!     .unwrap();
//! let fd = |text| cfd_model::cfd::parse_cfd(&rel, text).unwrap();
//! assert!(!cover.contains(&fd("(AC -> CT, (_ || _))")));
//! assert!(cover.contains(&fd("(CT -> AC, (_ || _))")));
//! assert_eq!(cover.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fastfd;

pub use fastfd::FastFd;
