//! Sampling (Section 8 of the paper — future work).
//!
//! "One way around [large |r| and arity] is by sampling r, i.e., to find
//! a subset rs of r by selectively drawing tuples from r such that rs
//! accurately represents r […]. We are experimenting with the stratified
//! sampling method \[33\] for this purpose."
//!
//! This module implements uniform and stratified samplers. Two useful
//! facts, both exercised by the tests:
//!
//! * satisfaction is *antitone* under sampling: every CFD holding on `r`
//!   holds on any subset of `r` — so rules discovered on the full data
//!   are never falsified by a sample;
//! * the converse is heuristic: a rule discovered on a sample may fail
//!   on `r` (its precision is what the harness experiment measures).

use cfd_model::relation::{Relation, TupleId};
use cfd_model::schema::AttrId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform sample without replacement of `⌈fraction · |r|⌉` tuples
/// (row order preserved).
pub fn sample_rows(rel: &Relation, fraction: f64, seed: u64) -> Relation {
    assert!((0.0..=1.0).contains(&fraction));
    let n = rel.n_rows();
    let want = ((n as f64 * fraction).ceil() as usize).min(n);
    let mut rng = StdRng::seed_from_u64(seed);
    // reservoir-free: choose by index shuffle prefix
    let mut idx: Vec<TupleId> = (0..n as TupleId).collect();
    for i in 0..want {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    let mut take: Vec<TupleId> = idx[..want].to_vec();
    take.sort_unstable();
    rel.restrict(&take)
}

/// Stratified sample: partitions `r` by the value of `strat_attr` and
/// draws `fraction` of every stratum (at least one tuple per stratum), so
/// rare conditions — the pattern tuples CFDs condition on — stay
/// represented.
pub fn stratified_sample(rel: &Relation, strat_attr: AttrId, fraction: f64, seed: u64) -> Relation {
    assert!((0.0..=1.0).contains(&fraction));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut strata: Vec<Vec<TupleId>> = vec![Vec::new(); rel.column(strat_attr).domain_size()];
    for t in rel.tuples() {
        strata[rel.code(t, strat_attr) as usize].push(t);
    }
    let mut take: Vec<TupleId> = Vec::new();
    for mut stratum in strata {
        if stratum.is_empty() {
            continue;
        }
        let want = ((stratum.len() as f64 * fraction).ceil() as usize).clamp(1, stratum.len());
        for i in 0..want {
            let j = rng.gen_range(i..stratum.len());
            stratum.swap(i, j);
        }
        take.extend_from_slice(&stratum[..want]);
    }
    take.sort_unstable();
    rel.restrict(&take)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tax::TaxGenerator;

    #[test]
    fn uniform_sample_size_and_determinism() {
        let r = TaxGenerator::new(1000).generate();
        let s = sample_rows(&r, 0.25, 11);
        assert_eq!(s.n_rows(), 250);
        let s2 = sample_rows(&r, 0.25, 11);
        for t in s.tuples() {
            assert_eq!(s.tuple_values(t), s2.tuple_values(t));
        }
        assert_eq!(sample_rows(&r, 1.0, 0).n_rows(), 1000);
        assert_eq!(sample_rows(&r, 0.0, 0).n_rows(), 0);
    }

    #[test]
    fn stratified_keeps_every_stratum() {
        let r = TaxGenerator::new(1000).generate();
        let cc = r.schema().attr_id("CC").unwrap();
        let s = stratified_sample(&r, cc, 0.1, 5);
        // both country codes survive even at 10%
        let mut seen = std::collections::HashSet::new();
        for t in s.tuples() {
            seen.insert(s.code(t, cc));
        }
        assert_eq!(seen.len(), r.column(cc).domain_size());
    }

    #[test]
    fn sampling_preserves_satisfaction() {
        use cfd_core::{DiscoverOptions, Discoverer, FastCfd};
        use cfd_model::satisfy::satisfies;
        let r = TaxGenerator::new(600).generate();
        let cover = FastCfd::default().discover(&r, &DiscoverOptions::new(6));
        let s = sample_rows(&r, 0.4, 3);
        for cfd in cover.iter() {
            assert!(satisfies(&s, cfd), "sampling cannot falsify a rule");
        }
    }

    #[test]
    fn sample_discovery_precision_is_reasonable() {
        use cfd_core::{DiscoverOptions, Discoverer, FastCfd};
        use cfd_model::satisfy::satisfies;
        let r = TaxGenerator::new(1500).generate();
        let s = stratified_sample(&r, 0, 0.3, 9);
        let k_sample = 3;
        let sampled_rules = FastCfd::default().discover(&s, &DiscoverOptions::new(k_sample));
        let good = sampled_rules.iter().filter(|c| satisfies(&r, c)).count();
        let precision = good as f64 / sampled_rules.len().max(1) as f64;
        assert!(
            precision > 0.3,
            "sampled-rule precision unexpectedly low: {precision}"
        );
    }
}
