//! Exhaustive CFD discovery — the reference oracle.
//!
//! Enumerates every candidate CFD over the active domain (all LHS
//! attribute sets, all constant/wildcard patterns, all RHS values) and
//! keeps the minimal, k-frequent ones. Exponential in arity and domain
//! size; usable only on tiny instances, which is exactly its role: the
//! property tests compare CFDMiner, CTANE and FastCFD against it.

use crate::api::{Algo, Discoverer};
use crate::minimality::is_minimal;
use cfd_model::attrset::AttrSet;
use cfd_model::cfd::Cfd;
use cfd_model::cover::CanonicalCover;
use cfd_model::measure::{measure, RuleMeasure};
use cfd_model::options::{DiscoverError, DiscoverOptions};
use cfd_model::pattern::{PVal, Pattern};
use cfd_model::progress::{Control, SearchStats};
use cfd_model::relation::Relation;

/// Exhaustive discovery of the canonical cover (minimal, k-frequent
/// constant + variable CFDs). It reads `k` from [`DiscoverOptions`] and
/// has no knob of its own.
#[derive(Clone, Copy, Debug, Default)]
pub struct BruteForce;

impl Discoverer for BruteForce {
    fn algo(&self) -> Algo {
        Algo::BruteForce
    }

    /// Enumerates the canonical cover of `rel`. Cost is
    /// `O(arity · 2^arity · Π(dom+1) · |r|)`, so arity above 10 is
    /// refused as [`DiscoverError::Unsupported`]. Polls `ctrl` per LHS
    /// attribute set, reports `rhs` progress, and counts candidate CFDs
    /// tested (`candidates`) against those surviving the minimality
    /// referee (`emitted`). Each rule is measured by the reference
    /// [`measure`].
    fn run(
        &self,
        rel: &Relation,
        opts: &DiscoverOptions,
        ctrl: &Control<'_>,
        stats: &mut SearchStats,
    ) -> Result<(CanonicalCover, Vec<RuleMeasure>), DiscoverError> {
        let arity = rel.arity();
        if arity > 10 {
            return Err(DiscoverError::Unsupported(format!(
                "bruteforce is a test oracle; refusing arity {arity} > 10"
            )));
        }
        let mut out: Vec<Cfd> = Vec::new();
        for rhs in 0..arity {
            let lhs_universe = AttrSet::full(arity).without(rhs);
            for lhs_attrs in lhs_universe.subsets() {
                ctrl.check()?;
                let attrs: Vec<usize> = lhs_attrs.iter().collect();
                let mut pattern_vals: Vec<PVal> = Vec::with_capacity(attrs.len());
                enumerate(rel, opts.k, &attrs, &mut pattern_vals, rhs, &mut out, stats);
            }
            ctrl.report("rhs", rhs + 1, arity);
        }
        let measured = out.into_iter().map(|c| {
            let m = measure(rel, &c);
            (c, m)
        });
        Ok(CanonicalCover::from_measured(measured.collect()))
    }
}

/// Every pattern over `attrs` extending `vals`, and its candidate CFDs
/// with RHS `rhs`.
fn enumerate(
    rel: &Relation,
    k: usize,
    attrs: &[usize],
    vals: &mut Vec<PVal>,
    rhs: usize,
    out: &mut Vec<Cfd>,
    stats: &mut SearchStats,
) {
    if vals.len() == attrs.len() {
        let lhs = Pattern::from_pairs(attrs.iter().copied().zip(vals.iter().copied()));
        // variable CFD — canonical-cover convention: an all-constant
        // LHS variable CFD holds iff the RHS attribute is constant on
        // the matching tuples, i.e. iff its constant counterpart holds;
        // it is implied and excluded (cf. FindMin, which never emits
        // variable CFDs with an empty wildcard part)
        if !lhs.is_all_const() {
            let var = Cfd::variable(lhs.clone(), rhs);
            stats.candidates += 1;
            if is_minimal(rel, &var, k) {
                stats.emitted += 1;
                out.push(var);
            } else {
                stats.pruned += 1;
            }
        }
        // constant CFDs need an all-constant LHS
        if lhs.is_all_const() {
            for a in 0..rel.column(rhs).domain_size() as u32 {
                let con = Cfd::new(lhs.clone(), rhs, PVal::Const(a));
                stats.candidates += 1;
                if is_minimal(rel, &con, k) {
                    stats.emitted += 1;
                    out.push(con);
                } else {
                    stats.pruned += 1;
                }
            }
        }
        return;
    }
    let a = attrs[vals.len()];
    vals.push(PVal::Var);
    enumerate(rel, k, attrs, vals, rhs, out, stats);
    vals.pop();
    for c in 0..rel.column(a).domain_size() as u32 {
        vals.push(PVal::Const(c));
        enumerate(rel, k, attrs, vals, rhs, out, stats);
        vals.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_datagen::cust::cust_relation;
    use cfd_model::cfd::parse_cfd;
    use cfd_model::satisfy::satisfies;
    use cfd_model::support::support;

    #[test]
    fn finds_paper_rules_on_cust() {
        let r = cust_relation();
        let cover = BruteForce.discover(&r, &DiscoverOptions::new(2));
        // minimal rules claimed by the paper at k ≤ 2
        for txt in [
            "([CC, AC] -> CT, (_, _ || _))",      // f1
            "([CC, ZIP] -> STR, (44, _ || _))",   // φ0
            "([CC, AC] -> CT, (44, 131 || EDI))", // φ2
            "(AC -> CT, (908 || MH))",            // Example 7
        ] {
            let c = parse_cfd(&r, txt).unwrap();
            assert!(cover.contains(&c), "{txt} must be in the cover");
        }
        // non-minimal rules must be absent
        for txt in [
            "([CC, AC] -> CT, (01, 908 || MH))", // φ1 (CC droppable)
            "([CC, AC] -> CT, (01, _ || _))",    // f1 specialization
        ] {
            let c = parse_cfd(&r, txt).unwrap();
            assert!(!cover.contains(&c), "{txt} must not be in the cover");
        }
    }

    #[test]
    fn every_output_holds_and_is_minimal() {
        let r = cust_relation();
        for k in [1, 2, 3] {
            let cover = BruteForce.discover(&r, &DiscoverOptions::new(k));
            assert!(!cover.is_empty());
            for cfd in cover.iter() {
                assert!(satisfies(&r, cfd));
                assert!(support(&r, cfd) >= k);
                assert!(is_minimal(&r, cfd, k));
            }
        }
    }

    #[test]
    fn higher_k_shrinks_cover() {
        let r = cust_relation();
        let k1 = BruteForce.discover(&r, &DiscoverOptions::new(1)).len();
        let k3 = BruteForce.discover(&r, &DiscoverOptions::new(3)).len();
        assert!(k3 < k1);
    }
}
