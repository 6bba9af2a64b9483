//! # cfd-partition
//!
//! Partition machinery for CFD discovery (Section 4.4 of the paper).
//!
//! Given an attribute-set/pattern pair `(X, sp)`, two tuples `u, v` are
//! equivalent iff `u[X] = v[X] ⪯ sp[X]`; the pair therefore induces an
//! equivalence relation on the *subset* of tuples matching the constants
//! of `sp`. [`StrippedPartition`] materializes these equivalence
//! classes, and refinement ([`StrippedPartition::refine_into`]) computes
//! the partition of `(X ∪ {B}, (sp, c_B))` from the partition of
//! `(X, sp)` — the product construction CTANE inherits from TANE.
//!
//! The level-wise walk of CTANE (and of TANE, the same walk over the
//! wildcard items) runs on this allocation-free refinement engine
//! ([`engine`]): partitions that store only their classes of at least
//! two rows and count the rest, refined into caller-owned buffers
//! through a reusable [`RefineScratch`], held in the walk's flat lattice
//! levels, read by position and freed run by run. A stripped partition
//! refined by a constant takes the child's row count from the walk,
//! which reads it off the lattice (see DESIGN.md §9).
//!
//! The module also provides tuple-pair *agree sets* ([`agree`]), the
//! ingredients of FastFD-style difference-set computation used by the
//! paper's NaiveFast variant (Section 5.4) — plus dense multi-column
//! group ids ([`GroupIds`]), the grouping primitive the validation
//! kernel and the streaming engine are built on. Level-1 partitions and
//! constant refinement read each column's value regions, which the
//! column builds once and keeps
//! ([`Column::regions`](cfd_model::relation::Column::regions)).
//!
//! ```
//! use cfd_model::csv::relation_from_csv_str;
//! use cfd_model::pattern::PVal;
//! use cfd_partition::{RefineScratch, StrippedPartition};
//!
//! let rel = relation_from_csv_str("AC,CT\n908,MH\n908,MH\n131,EDI\n131,UN\n").unwrap();
//! // π(AC): {908 → rows 0,1} and {131 → rows 2,3}
//! let by_ac = StrippedPartition::by_attribute(&rel, 0);
//! assert_eq!(by_ac.n_classes(), 2);
//! // refining by CT splits the dirty 131 class: AC ↛ CT exactly …
//! let mut scratch = RefineScratch::for_relation(&rel);
//! let mut by_ac_ct = StrippedPartition::empty();
//! by_ac.refine_into(&rel, 1, PVal::Var, None, &mut scratch, &mut by_ac_ct);
//! assert_eq!(by_ac_ct.n_classes(), 3);
//! // … whose one-row classes (EDI, UN) are stripped but counted
//! assert_eq!(by_ac_ct.stored_classes().count(), 1);
//! // the g1-style keep count says 3 of 4 tuples survive a repair
//! assert_eq!(by_ac.keep_count(&rel, 1, &mut scratch), 3);
//! // refining that stripped partition by the constant AC = 131 needs
//! // the child's row count, which a level walk reads off the lattice
//! let c131 = rel.column(0).dict().code("131").unwrap();
//! let mut child = StrippedPartition::empty();
//! by_ac_ct.refine_into(&rel, 0, PVal::Const(c131), Some(2), &mut scratch, &mut child);
//! assert_eq!((child.n_classes(), child.n_rows()), (2, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agree;
pub mod engine;
pub mod group;

pub use agree::{agree_sets, agree_sets_of_rows};
pub use engine::{RefineScratch, StrippedPartition};
pub use group::GroupIds;
