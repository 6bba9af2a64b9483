//! # cfd-itemset
//!
//! Free and closed item-set mining over relation instances (Section 3.1
//! of the paper).
//!
//! An *item set* `(X, tp)` pairs an attribute set with an all-constant
//! pattern over it; its support is the set of tuples matching `tp`. The
//! set is **closed** when no strictly larger pattern has the same support
//! and **free** when no strictly smaller pattern has the same support.
//! CFDMiner consumes k-frequent free sets together with their closures
//! (the `C2F` map the paper obtains from GCGrowth); FastCFD consumes the
//! free sets as its constant-pattern search space (Lemma 5) and the
//! 2-frequent closed sets as its difference-set oracle (Section 5.5).
//!
//! The miner here is a level-wise *generator-based* algorithm: free sets
//! are downward closed under the item-set containment order, so a
//! level-wise traversal enumerates exactly the k-frequent free sets. Each
//! level is built by one extension step: every node's tidset is split by
//! the codes of each attribute after its last, and a part of at least
//! `k` tuples becomes a child when all its immediate sub-patterns are
//! free sets of the level with strictly larger support. Closures are
//! obtained by an early-exit column scan over each free set's tidset.
//!
//! Two passes drive that one level walk and differ only in what they
//! register. [`mine_free_closed`] registers every free set with its
//! tidset and closure: the (free, closed, C2F) triple, identical to
//! GCGrowth's, which is all CFDMiner and FastCFD's pattern search
//! observe (see DESIGN.md §2 for the substitution note).
//! [`ClosedSetIndex::mine`] registers only each distinct closure of the
//! 2-frequent free sets — an attribute set and one supporting row — and
//! indexes Closed₂(r) from them, building no free set or pattern.
//!
//! ```
//! use cfd_itemset::{mine_free_closed, MineOptions};
//! use cfd_model::csv::relation_from_csv_str;
//!
//! let rel = relation_from_csv_str("AC,CT\n908,MH\n908,MH\n131,EDI\n131,EDI\n").unwrap();
//! let mined = mine_free_closed(&rel, 2, MineOptions::default());
//! // (AC=908) is free with support 2; its closure picks up CT=MH
//! let i = mined.free.iter().position(|f| f.support == 2).unwrap();
//! let clo = mined.closure_of(i);
//! assert!(clo.pattern.len() >= mined.free[i].pattern.len());
//! assert_eq!(clo.support, 2);
//! // at k 2 the Closed₂ index holds the same closed sets
//! let index = cfd_itemset::ClosedSetIndex::mine(&rel);
//! assert_eq!(index.len(), mined.closed.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;
pub mod mine;

pub use index::ClosedSetIndex;
pub use mine::{mine_free_closed, ClosedSet, FreeSet, MineOptions, Mined};
