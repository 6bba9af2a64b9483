//! # cfd-fd
//!
//! The classical FD-discovery baselines that CTANE and FastCFD extend:
//!
//! * [`Tane`] — the level-wise algorithm of Huhtala et al. \[13\], with
//!   partition refinement, `C⁺` pruning and key pruning;
//! * [`FastFd`] — the depth-first algorithm of Wyss et al. \[14\], with
//!   difference sets and minimal-cover enumeration. Its search
//!   ([`fastfd::min_diff_sets`], [`fastfd::minimal_covers`]) is the one
//!   FastCFD runs per free pattern.
//!
//! Both return plain FDs as all-wildcard variable CFDs, so their output
//! is directly comparable with the plain-FD fragment of a discovered CFD
//! cover (`CanonicalCover::plain_fd_cover`). Like that fragment, and
//! unlike some classical presentations, `∅ → A` dependencies (constant
//! columns) are *excluded* — in the CFD world they are represented by the
//! constant CFD `(∅ → A, (‖ a))`. TANE additionally supports the classic
//! approximate variant: at a confidence threshold `θ` below 1 it emits
//! `X → A` when the g1-style partition error stays within `1 − θ`
//! (DESIGN.md §8).
//!
//! TANE reads its shared knobs (LHS bound, `θ`, threads) from
//! [`DiscoverOptions`](cfd_model::options::DiscoverOptions), the one
//! options type of every miner; FastFD reads none. `cfd_core::api`
//! wraps both in the `Discoverer` trait. Called directly, each has one
//! entry point, `run`:
//!
//! ```
//! use cfd_fd::Tane;
//! use cfd_model::csv::relation_from_csv_str;
//! use cfd_model::options::DiscoverOptions;
//! use cfd_model::progress::{Control, SearchStats};
//!
//! // AC → CT holds on 3 of 4 tuples (131 maps to both EDI and UN)
//! let rel = relation_from_csv_str("AC,CT\n908,MH\n908,MH\n131,EDI\n131,UN\n").unwrap();
//! let fd = cfd_model::cfd::parse_cfd(&rel, "(AC -> CT, (_ || _))").unwrap();
//! let tane = |opts: &DiscoverOptions| {
//!     Tane.run(&rel, opts, &Control::default(), &mut SearchStats::default())
//!         .unwrap()
//!         .0
//! };
//! assert!(!tane(&DiscoverOptions::default()).contains(&fd));
//! let approx = tane(&DiscoverOptions::default().min_confidence(0.75));
//! assert!(approx.contains(&fd));
//! assert!(approx.iter().all(|c| c.is_plain_fd()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fastfd;
pub mod tane;

pub use fastfd::FastFd;
pub use tane::Tane;
