//! # cfd-core
//!
//! The discovery algorithms of *Discovering Conditional Functional
//! Dependencies* (Fan, Geerts, Li & Xiong, ICDE 2009 / TKDE 2011):
//!
//! * [`CfdMiner`] — constant CFDs via free/closed item sets (Section 3);
//! * [`Ctane`] — general CFDs, level-wise with `C⁺` pruning (Section 4);
//! * [`Tane`] — the classical minimal FDs: the same level walk over the
//!   wildcard items `(A, _)` alone;
//! * [`FastCfd`] — general CFDs, depth-first over difference sets
//!   (Section 5), in both the closed-set (`FastCFD`) and
//!   stripped-partition (`NaiveFast`) configurations;
//! * [`BruteForce`] — an exhaustive oracle for testing;
//! * [`minimality`] — the left-reducedness referee (Section 2.2.1).
//!
//! All algorithms return the same [`cfd_model::CanonicalCover`] — the set
//! of minimal, k-frequent constant and variable CFDs holding on the
//! input — which the workspace test suites cross-validate pairwise and
//! against the oracle. They implement one trait, [`Discoverer`], and
//! read the knobs they share (support `k`, LHS bound, confidence `θ`,
//! threads) from one [`DiscoverOptions`]; a miner struct carries only
//! its ablation knobs.
//!
//! ```
//! use cfd_core::{CfdMiner, Ctane, DiscoverOptions, Discoverer, FastCfd};
//! use cfd_datagen::cust::cust_relation;
//!
//! let rel = cust_relation();
//! let opts = DiscoverOptions::new(2);
//! let fast = FastCfd::default().discover(&rel, &opts);
//! let ctane = Ctane.discover(&rel, &opts);
//! assert_eq!(fast.cfds(), ctane.cfds());
//! let constants = CfdMiner.discover(&rel, &opts);
//! assert_eq!(constants.cfds(), fast.constant_cover().cfds());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod bruteforce;
pub mod cfdminer;
pub mod ctane;
pub mod fastcfd;
pub mod minimality;

pub use api::{Algo, DiscoverError, DiscoverOptions, Discoverer, Discovery, Note, UnknownAlgo};
pub use bruteforce::BruteForce;
pub use cfdminer::CfdMiner;
pub use ctane::{Ctane, Tane};
pub use fastcfd::{DiffSetMode, FastCfd};
pub use minimality::{audit_cover, holds_and_frequent, is_minimal};
