//! Per-rule incremental indexes.
//!
//! A compiled rule maintains just enough state to answer "what changed?"
//! for one tuple insert or delete in `O(|LHS|)` hash work, instead of
//! rescanning the relation:
//!
//! * **constant RHS** — the LHS constants filter tuples; any matching
//!   tuple whose RHS code differs from the RHS constant is a
//!   [`Violation::Single`]. State: the set of dissenting row ids.
//! * **variable RHS** — tuples passing the LHS constant filter are
//!   grouped by their codes on the LHS wildcard attributes. Within a
//!   group the *witness* is the live tuple with the smallest row id (the
//!   first tuple a full scan would meet, which is exactly the anchor
//!   [`cfd_model::violation::violations`] reports); every member whose
//!   RHS code differs from the witness's is a dissenter, reported as
//!   [`Violation::Pair`] (witness, dissenter). State per group: an
//!   ordered member map `row id → RHS code`, i.e. the ISSUE's
//!   "(witness value, count, dissenter set)" with the dissenter set
//!   represented implicitly so witness hand-over on delete stays cheap.

use crate::delta::{Event, RuleId};
use crate::RowId;
use cfd_model::pattern::PVal;
use cfd_model::schema::AttrId;
use cfd_model::{Cfd, FxHashMap, FxHashSet, RuleMeasure, Violation};
use std::collections::BTreeMap;

/// A compiled rule plus its incremental index.
#[derive(Clone, Debug)]
pub(crate) struct RuleState {
    /// Index of this rule in the engine's rule list.
    pub(crate) rule: RuleId,
    /// Codes the tuple must carry on these attributes to match the LHS.
    consts: Vec<(AttrId, u32)>,
    /// The RHS attribute `A`.
    rhs_attr: AttrId,
    /// Live tuples matching the LHS constants.
    matched: usize,
    /// The RHS-kind-specific index.
    index: Index,
}

#[derive(Clone, Debug)]
enum Index {
    /// Constant RHS: the dissenting row ids.
    ConstRhs {
        rhs_code: u32,
        dissenters: FxHashSet<RowId>,
    },
    /// Variable RHS: group key = codes on the LHS wildcard attributes.
    VarRhs {
        wild: Vec<AttrId>,
        groups: FxHashMap<Vec<u32>, BTreeMap<RowId, u32>>,
        violating: usize,
    },
}

/// Live counters of one rule, queryable at any point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RuleStats {
    /// Index of the rule in the engine's rule list.
    pub rule: RuleId,
    /// Current number of live violation records of the rule (witness
    /// anchored pairs for variable rules, dissenting singles for
    /// constant rules — the records [`crate::StreamEngine`] raises and
    /// clears).
    pub violations: usize,
    /// The shared rule-level measure ([`cfd_model::RuleMeasure`]):
    /// live tuples matching the rule's LHS constants (its *support* on
    /// the live instance) plus the g1-style minimal-removal count
    /// behind [`RuleStats::confidence`] — the same numbers
    /// `cfd-validate` reports and approximate discovery thresholds
    /// against.
    pub measure: RuleMeasure,
}

impl RuleStats {
    /// Live tuples matching the rule's LHS constants.
    pub fn matched(&self) -> usize {
        self.measure.support
    }

    /// The rule's g1-style confidence on the live instance (`1.0` when
    /// nothing matches) — the monitoring confidence the AFD literature
    /// tracks.
    pub fn confidence(&self) -> f64 {
        self.measure.confidence()
    }
}

impl RuleState {
    /// Compiles a CFD into its incremental index. The CFD's codes must
    /// refer to the engine's dictionaries (which seed from the warm
    /// relation the rules were discovered/parsed on).
    pub(crate) fn compile(rule: RuleId, cfd: &Cfd) -> RuleState {
        let consts: Vec<(AttrId, u32)> = cfd
            .lhs()
            .iter()
            .filter_map(|(a, v)| v.as_const().map(|c| (a, c)))
            .collect();
        let index = match cfd.rhs_val() {
            PVal::Const(rhs_code) => Index::ConstRhs {
                rhs_code,
                dissenters: FxHashSet::default(),
            },
            PVal::Var => Index::VarRhs {
                wild: cfd.lhs().wildcard_attrs().iter().collect(),
                groups: FxHashMap::default(),
                violating: 0,
            },
        };
        RuleState {
            rule,
            consts,
            rhs_attr: cfd.rhs_attr(),
            matched: 0,
            index,
        }
    }

    fn lhs_matches(&self, codes: &[u32]) -> bool {
        self.consts.iter().all(|&(a, c)| codes[a] == c)
    }

    /// The first LHS constant `(A, a)`: a tuple whose code on `A` is not
    /// `a` cannot match the rule. `None` when every LHS value is `_`.
    pub(crate) fn first_const(&self) -> Option<(AttrId, u32)> {
        self.consts.first().copied()
    }

    /// The rule's live violation records, counted in O(1): the
    /// dissenters of a constant rule, the maintained pair count of a
    /// variable one.
    pub(crate) fn n_violations(&self) -> usize {
        match &self.index {
            Index::ConstRhs { dissenters, .. } => dissenters.len(),
            Index::VarRhs { violating, .. } => *violating,
        }
    }

    /// Bulk-builds the index from a warm relation in one pass — the
    /// kernel-backed warm start. `gids` is the shared `tuple → group id`
    /// mapping of the rule's family from the compiled
    /// [`cfd_validate::CoverPlan`] (`None` for constant-RHS rules, which
    /// have no family). Produces exactly the state per-tuple
    /// [`insert`](RuleState::insert)ion would, without hashing a
    /// heap-allocated key per row: rows funnel through the family's flat
    /// group ids and each group's `Vec<u32>` key is materialized once.
    pub(crate) fn warm_from(&mut self, rel: &cfd_model::Relation, gids: Option<&[u32]>) {
        debug_assert_eq!(self.matched, 0, "warm_from on a fresh state");
        match &mut self.index {
            Index::ConstRhs {
                rhs_code,
                dissenters,
            } => {
                let rhs_codes = rel.column(self.rhs_attr).codes();
                'rows: for t in rel.tuples() {
                    for &(a, c) in &self.consts {
                        if rel.code(t, a) != c {
                            continue 'rows;
                        }
                    }
                    self.matched += 1;
                    if rhs_codes[t as usize] != *rhs_code {
                        dissenters.insert(t);
                    }
                }
            }
            Index::VarRhs {
                wild,
                groups,
                violating,
            } => {
                let gids = gids.expect("variable rules carry their family gids");
                let rhs_codes = rel.column(self.rhs_attr).codes();
                // members per group id, in row order (rows ascend, so
                // the first member is the group witness)
                let mut members: FxHashMap<u32, Vec<(RowId, u32)>> = FxHashMap::default();
                'rows: for t in rel.tuples() {
                    for &(a, c) in &self.consts {
                        if rel.code(t, a) != c {
                            continue 'rows;
                        }
                    }
                    self.matched += 1;
                    members
                        .entry(gids[t as usize])
                        .or_default()
                        .push((t, rhs_codes[t as usize]));
                }
                for rows in members.into_values() {
                    let witness_rhs = rows[0].1;
                    *violating += rows.iter().filter(|&&(_, c)| c != witness_rhs).count();
                    let key: Vec<u32> = wild.iter().map(|&a| rel.code(rows[0].0, a)).collect();
                    groups.insert(key, rows.into_iter().collect());
                }
            }
        }
    }

    /// Applies one inserted tuple, appending violation transitions to
    /// `out`. Row ids are assigned monotonically by the engine, so an
    /// insert can never precede an existing group witness.
    pub(crate) fn insert(&mut self, id: RowId, codes: &[u32], out: &mut Vec<Event>) {
        if !self.lhs_matches(codes) {
            return;
        }
        self.matched += 1;
        let rhs = codes[self.rhs_attr];
        match &mut self.index {
            Index::ConstRhs {
                rhs_code,
                dissenters,
            } => {
                if rhs != *rhs_code {
                    dissenters.insert(id);
                    out.push(Event::Raised(self.rule, Violation::Single(id)));
                }
            }
            Index::VarRhs {
                wild,
                groups,
                violating,
            } => {
                let key: Vec<u32> = wild.iter().map(|&a| codes[a]).collect();
                let group = groups.entry(key).or_default();
                if let Some((&witness, &witness_rhs)) = group.first_key_value() {
                    debug_assert!(id > witness, "row ids must be monotone");
                    if rhs != witness_rhs {
                        *violating += 1;
                        out.push(Event::Raised(self.rule, Violation::Pair(witness, id)));
                    }
                }
                group.insert(id, rhs);
            }
        }
    }

    /// Applies one deleted tuple (by its original codes), appending
    /// violation transitions to `out`. Deleting a group witness clears
    /// every pair it anchored and re-anchors the survivors on the next
    /// smallest row id.
    pub(crate) fn delete(&mut self, id: RowId, codes: &[u32], out: &mut Vec<Event>) {
        if !self.lhs_matches(codes) {
            return;
        }
        self.matched -= 1;
        let rhs = codes[self.rhs_attr];
        match &mut self.index {
            Index::ConstRhs {
                rhs_code,
                dissenters,
            } => {
                if rhs != *rhs_code {
                    dissenters.remove(&id);
                    out.push(Event::Cleared(self.rule, Violation::Single(id)));
                }
            }
            Index::VarRhs {
                wild,
                groups,
                violating,
            } => {
                let key: Vec<u32> = wild.iter().map(|&a| codes[a]).collect();
                let group = groups.get_mut(&key).expect("delete of an unindexed row");
                let (&witness, &witness_rhs) = group.first_key_value().expect("empty group");
                if id != witness {
                    group.remove(&id);
                    if rhs != witness_rhs {
                        *violating -= 1;
                        out.push(Event::Cleared(self.rule, Violation::Pair(witness, id)));
                    }
                } else {
                    // the witness leaves: clear everything it anchored …
                    for (&t, &c) in group.iter().skip(1) {
                        if c != witness_rhs {
                            *violating -= 1;
                            out.push(Event::Cleared(self.rule, Violation::Pair(witness, t)));
                        }
                    }
                    group.remove(&id);
                    // … and re-anchor the survivors on the new witness
                    if let Some((&w2, &w2_rhs)) = group.first_key_value() {
                        for (&t, &c) in group.iter().skip(1) {
                            if c != w2_rhs {
                                *violating += 1;
                                out.push(Event::Raised(self.rule, Violation::Pair(w2, t)));
                            }
                        }
                    }
                }
                if group.is_empty() {
                    groups.remove(&key);
                }
            }
        }
    }

    /// Rewrites every stored row id through `map` (dense materialized
    /// row → engine row id). `map` must be strictly increasing, so
    /// group witnesses — and therefore every violation the rule
    /// reports — land on the same tuples they would under per-row
    /// insertion. Used by the cover-swap warm path, which bulk-builds
    /// indexes against the dense materialized live instance.
    pub(crate) fn remap_ids(&mut self, map: &[RowId]) {
        match &mut self.index {
            Index::ConstRhs { dissenters, .. } => {
                *dissenters = dissenters.iter().map(|&t| map[t as usize]).collect();
            }
            Index::VarRhs { groups, .. } => {
                for members in groups.values_mut() {
                    *members = members
                        .iter()
                        .map(|(&t, &c)| (map[t as usize], c))
                        .collect();
                }
            }
        }
    }

    /// The rule's current live violations, in ascending order.
    pub(crate) fn live_violations(&self, out: &mut Vec<(RuleId, Violation)>) {
        match &self.index {
            Index::ConstRhs { dissenters, .. } => {
                let mut ids: Vec<RowId> = dissenters.iter().copied().collect();
                ids.sort_unstable();
                out.extend(ids.into_iter().map(|t| (self.rule, Violation::Single(t))));
            }
            Index::VarRhs { groups, .. } => {
                for group in groups.values() {
                    let (&witness, &witness_rhs) =
                        group.first_key_value().expect("empty group retained");
                    for (&t, &c) in group.iter().skip(1) {
                        if c != witness_rhs {
                            out.push((self.rule, Violation::Pair(witness, t)));
                        }
                    }
                }
            }
        }
    }

    /// Current counters. The violation-record count is maintained
    /// incrementally; the g1 minimal-removal count behind the
    /// confidence is folded from the live group maps on demand (a
    /// dissenting witness counts one removal, not one per pair it
    /// anchors).
    pub(crate) fn stats(&self) -> RuleStats {
        let removals = match &self.index {
            // every dissenter must go: the two counts coincide
            Index::ConstRhs { dissenters, .. } => dissenters.len(),
            Index::VarRhs { groups, .. } => {
                let mut removals = 0usize;
                let mut freq: FxHashMap<u32, u32> = FxHashMap::default();
                for group in groups.values() {
                    if group.len() == 1 {
                        continue;
                    }
                    freq.clear();
                    let mut best = 0u32;
                    for &code in group.values() {
                        let count = freq.entry(code).or_insert(0);
                        *count += 1;
                        best = best.max(*count);
                    }
                    removals += group.len() - best as usize;
                }
                removals
            }
        };
        RuleStats {
            rule: self.rule,
            violations: self.n_violations(),
            measure: RuleMeasure {
                support: self.matched,
                violations: removals,
            },
        }
    }
}
