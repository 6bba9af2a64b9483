//! FastFD — depth-first FD discovery (Wyss, Giannella & Robertson,
//! DaWaK 2001).
//!
//! Difference sets are complements of tuple-pair agree sets (computed
//! from stripped partitions); for each RHS attribute the minimal covers
//! of the minimal difference sets are enumerated depth-first with
//! dynamic attribute reordering — the skeleton FastCFD generalizes to
//! patterns.

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
            // Dᵐ_A(r): minimal difference sets of pairs disagreeing on A
            let mut dm: Vec<AttrSet> = agree
                .iter()
                .filter(|ag| !ag.contains(rhs))
                .map(|ag| full.difference(*ag).without(rhs))
                .collect();
            if dm.is_empty() {
                // either A is constant (∅ → A: excluded by convention) or
                // every pair disagreeing on A agrees nowhere
                let col = rel.column(rhs);
                let c0 = col.code(0);
                let constant = rel.tuples().all(|t| col.code(t) == c0);
                if constant {
                    continue;
                }
                dm.push(full.without(rhs));
            } else {
                minimize(&mut dm);
            }
            if dm.iter().any(|d| d.is_empty()) {
                // two tuples differ on A alone: no FD with RHS A
                continue;
            }
            stats.diff_set_families += 1;
            let candidates: Vec<AttrId> = full.without(rhs).iter().collect();
            let stats = &mut *stats;
            let mut emit = |y: AttrSet| {
                stats.candidates += 1;
                // minimal cover check
                if y.iter().any(|b| covers(y.without(b), &dm)) {
                    stats.pruned += 1;
                    return;
                }
                stats.emitted += 1;
                out.push(Cfd::fd(y, rhs));
            };
            self.find_min(&dm, &candidates, AttrSet::EMPTY, &mut emit);
            ctrl.report("rhs", rhs + 1, arity);
        }
        Ok(CanonicalCover::from_cfds(out))
    }

    fn find_min(
        &self,
        remaining: &[AttrSet],
        candidates: &[AttrId],
        y: AttrSet,
        emit: &mut impl FnMut(AttrSet),
    ) {
        if remaining.is_empty() {
            emit(y);
            return;
        }
        let mut scored: Vec<(usize, AttrId)> = candidates
            .iter()
            .filter_map(|&b| {
                let c = remaining.iter().filter(|d| d.contains(b)).count();
                (c > 0).then_some((c, b))
            })
            .collect();
        // dynamic reordering: the attributes covering the most remaining
        // difference sets first
        scored.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let order: Vec<AttrId> = scored.into_iter().map(|(_, b)| b).collect();
        for (i, &b) in order.iter().enumerate() {
            let rem2: Vec<AttrSet> = remaining
                .iter()
                .copied()
                .filter(|d| !d.contains(b))
                .collect();
            self.find_min(&rem2, &order[i + 1..], y.with(b), emit);
        }
    }
}

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

fn covers(y: AttrSet, dm: &[AttrSet]) -> bool {
    dm.iter().all(|&d| d.intersects(y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tane::Tane;
    use cfd_datagen::cust::cust_relation;
    use cfd_datagen::random::RandomRelation;
    use cfd_model::cfd::parse_cfd;
    use cfd_model::options::DiscoverOptions;

    /// FastFD's cover of `rel`, and TANE's, which it must equal.
    fn covers(rel: &Relation) -> (CanonicalCover, CanonicalCover) {
        let ctrl = Control::default();
        let fast = FastFd.run(rel, &ctrl, &mut SearchStats::default());
        let tane = Tane.run(
            rel,
            &DiscoverOptions::default(),
            &ctrl,
            &mut SearchStats::default(),
        );
        let never = "default Control is never cancelled";
        (fast.expect(never), tane.expect(never).0)
    }

    #[test]
    fn agrees_with_tane_on_cust() {
        let r = cust_relation();
        let (fast, tane) = covers(&r);
        assert_eq!(
            tane.cfds(),
            fast.cfds(),
            "tane:\n{}\nfastfd:\n{}",
            tane.display(&r),
            fast.display(&r)
        );
        let f2 = parse_cfd(&r, "([CC, AC, PN] -> STR, (_, _, _ || _))").unwrap();
        assert!(fast.contains(&f2));
    }

    #[test]
    fn agrees_with_tane_on_random_relations() {
        for seed in 0..20 {
            let r = RandomRelation {
                rows: 25,
                arity: 5,
                domain: 3,
                seed,
            }
            .generate();
            let (fast, tane) = covers(&r);
            assert_eq!(
                tane.cfds(),
                fast.cfds(),
                "seed {seed}\ntane:\n{}\nfastfd:\n{}",
                tane.display(&r),
                fast.display(&r)
            );
        }
    }

    #[test]
    fn uniform_uniqueness_edge_case() {
        // all tuples pairwise fully disagree: every single attribute is a
        // key, so A → B for all pairs
        use cfd_model::relation::relation_from_rows;
        use cfd_model::schema::Schema;
        let schema = Schema::new(["A", "B"]).unwrap();
        let r = relation_from_rows(schema, &[vec!["1", "x"], vec!["2", "y"]]).unwrap();
        let (cover, tane) = covers(&r);
        assert!(cover.contains(&Cfd::fd(AttrSet::singleton(0), 1)));
        assert!(cover.contains(&Cfd::fd(AttrSet::singleton(1), 0)));
        assert_eq!(cover.len(), 2);
        assert_eq!(tane.cfds(), cover.cfds());
    }
}
