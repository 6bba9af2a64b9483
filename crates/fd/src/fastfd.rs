//! FastFD — depth-first FD discovery (Wyss, Giannella & Robertson,
//! DaWaK 2001), and the one copy of its minimal-cover search.
//!
//! Difference sets are complements of tuple-pair agree sets (computed
//! from stripped partitions). For each RHS attribute, [`min_diff_sets`]
//! derives the minimal difference sets `Dᵐ_A` and [`minimal_covers`]
//! enumerates their minimal covers depth-first with dynamic attribute
//! reordering. FastCFD and NaiveFast (`cfd_core::fastcfd`) run the same
//! two steps once per k-frequent free pattern, over that pattern's
//! agree sets.

use cfd_model::attrset::AttrSet;
use cfd_model::cfd::Cfd;
use cfd_model::cover::CanonicalCover;
use cfd_model::progress::{Cancelled, Control, SearchStats};
use cfd_model::relation::Relation;
use cfd_model::schema::AttrId;
use cfd_partition::agree::agree_sets;

/// Depth-first minimal-FD discovery. It reads no shared knob: FDs
/// have no support threshold, and the search has no LHS bound,
/// confidence threshold or workers.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastFd;

impl FastFd {
    /// Discovers all minimal FDs `X → A` with `X ≠ ∅` of `rel`, as
    /// all-wildcard variable CFDs. Polls `ctrl` per RHS attribute,
    /// times the `agree-sets` phase, and counts difference-set
    /// families, candidate covers (`candidates`) and covers failing
    /// minimality (`pruned`).
    pub fn run(
        &self,
        rel: &Relation,
        ctrl: &Control<'_>,
        stats: &mut SearchStats,
    ) -> Result<CanonicalCover, Cancelled> {
        let arity = rel.arity();
        let full = AttrSet::full(arity);
        let mut out: Vec<Cfd> = Vec::new();
        if rel.n_rows() == 0 {
            return Ok(CanonicalCover::from_cfds(out));
        }
        let t0 = std::time::Instant::now();
        let agree = agree_sets(rel);
        stats.phase("agree-sets", t0.elapsed());
        for rhs in 0..arity {
            ctrl.check()?;
            let col = rel.column(rhs);
            let c0 = col.code(0);
            if rel.tuples().all(|t| col.code(t) == c0) {
                // ∅ → A: excluded by convention
                continue;
            }
            let dm = min_diff_sets(&agree, rhs, arity);
            if dm.iter().any(|d| d.is_empty()) {
                // two tuples differ on A alone: no FD with RHS A
                continue;
            }
            stats.diff_set_families += 1;
            let candidates: Vec<AttrId> = full.without(rhs).iter().collect();
            minimal_covers(&dm, &candidates, true, stats, |y, stats| {
                stats.emitted += 1;
                out.push(Cfd::fd(y, rhs));
            });
            ctrl.report("rhs", rhs + 1, arity);
        }
        Ok(CanonicalCover::from_cfds(out))
    }
}

/// `Dᵐ_A`: the ⊆-minimal difference sets for RHS `rhs` of the tuple
/// pairs whose agree sets are `agree`, over `arity` attributes. An
/// agree set missing `rhs` gives the difference set
/// `attr(R) \ ag \ {A}`. Agree sets from stripped partitions leave out
/// the pairs that agree nowhere, so when no agree set misses `rhs` the
/// one difference set is `attr(R) \ {A}`: callers rule out a constant
/// `rhs`, which has none, before they ask.
pub fn min_diff_sets(agree: &[AttrSet], rhs: AttrId, arity: usize) -> Vec<AttrSet> {
    let full = AttrSet::full(arity);
    let mut dm: Vec<AttrSet> = agree
        .iter()
        .filter(|ag| !ag.contains(rhs))
        .map(|ag| full.difference(*ag).without(rhs))
        .collect();
    if dm.is_empty() {
        return vec![full.without(rhs)];
    }
    minimize(&mut dm);
    dm
}

/// `FindMin`: passes each minimal cover of `dm` drawn from `candidates`
/// (a set hitting every member of `dm` from which no attribute can be
/// dropped) to `emit`. The search is depth-first and visits each
/// candidate subset at most once (FastFD's left-to-right scheme); with
/// `reorder` every node tries the attributes hitting the most remaining
/// sets first (FastFD's dynamic reordering). Every cover reached counts
/// into `stats.candidates`; one that stays a cover without some
/// attribute fails minimality (FastCFD's check (b1)) and counts into
/// `stats.pruned` instead of reaching `emit`.
pub fn minimal_covers(
    dm: &[AttrSet],
    candidates: &[AttrId],
    reorder: bool,
    stats: &mut SearchStats,
    mut emit: impl FnMut(AttrSet, &mut SearchStats),
) {
    find_min(dm, candidates, AttrSet::EMPTY, reorder, &mut |y| {
        stats.candidates += 1;
        if y.iter().any(|b| covers(y.without(b), dm)) {
            stats.pruned += 1;
        } else {
            emit(y, stats);
        }
    });
}

/// Depth-first enumeration of the covers of `remaining` that extend `y`
/// with attributes of `candidates`.
fn find_min(
    remaining: &[AttrSet],
    candidates: &[AttrId],
    y: AttrSet,
    reorder: bool,
    visit: &mut impl FnMut(AttrSet),
) {
    if remaining.is_empty() {
        visit(y);
        return;
    }
    if candidates.is_empty() {
        return;
    }
    // score candidates by how many remaining sets they cover; drop
    // useless attributes (cover count 0 — they can never join a
    // minimal cover of `remaining`)
    let mut scored: Vec<(usize, AttrId)> = candidates
        .iter()
        .filter_map(|&b| {
            let c = remaining.iter().filter(|d| d.contains(b)).count();
            (c > 0).then_some((c, b))
        })
        .collect();
    if reorder {
        scored.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    }
    let order: Vec<AttrId> = scored.into_iter().map(|(_, b)| b).collect();
    for (i, &b) in order.iter().enumerate() {
        let rem2: Vec<AttrSet> = remaining
            .iter()
            .copied()
            .filter(|d| !d.contains(b))
            .collect();
        find_min(&rem2, &order[i + 1..], y.with(b), reorder, visit);
    }
}

/// Keeps the ⊆-minimal sets (in place).
fn minimize(sets: &mut Vec<AttrSet>) {
    sets.sort_unstable_by_key(|s| (s.len(), s.bits()));
    sets.dedup();
    let mut kept: Vec<AttrSet> = Vec::with_capacity(sets.len());
    for &s in sets.iter() {
        if !kept.iter().any(|&m| m.is_subset(s)) {
            kept.push(s);
        }
    }
    *sets = kept;
}

/// True iff `y` covers every set of `dm` (hits each at least once).
fn covers(y: AttrSet, dm: &[AttrSet]) -> bool {
    dm.iter().all(|&d| d.intersects(y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimize_keeps_minimal_sets() {
        let mut sets = vec![
            AttrSet::from_iter([0, 1, 2]),
            AttrSet::from_iter([1]),
            AttrSet::from_iter([0, 2]),
            AttrSet::from_iter([2, 0]),
            AttrSet::from_iter([1, 2]),
        ];
        minimize(&mut sets);
        assert_eq!(
            sets,
            vec![AttrSet::from_iter([1]), AttrSet::from_iter([0, 2])]
        );
    }
}
