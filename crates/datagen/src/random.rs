//! Small random relations for property-based tests.
//!
//! Discovery algorithms are cross-validated (CTANE ≡ FastCFD ≡ NaiveFast,
//! CFDMiner ≡ constant fragment, brute force on tiny inputs) over many
//! random instances; this module provides the seeded instance source.

use cfd_model::relation::{Relation, RelationBuilder};
use cfd_model::schema::Schema;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a random relation.
#[derive(Clone, Copy, Debug)]
pub struct RandomRelation {
    /// Number of rows.
    pub rows: usize,
    /// Number of attributes (≤ 64).
    pub arity: usize,
    /// Active-domain size per attribute (values drawn uniformly).
    pub domain: usize,
    /// RNG seed.
    pub seed: u64,
}

impl RandomRelation {
    /// A small default suitable for brute-force comparison.
    pub fn small(seed: u64) -> RandomRelation {
        RandomRelation {
            rows: 12,
            arity: 4,
            domain: 3,
            seed,
        }
    }

    /// Generates the relation (schema `A0 … A{arity-1}`).
    pub fn generate(&self) -> Relation {
        assert!(self.arity >= 1 && self.arity <= 64);
        assert!(self.domain >= 1);
        let schema = Schema::new((0..self.arity).map(|i| format!("A{i}"))).expect("valid schema");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut b = RelationBuilder::new(schema);
        b.reserve(self.rows);
        let mut row = vec![0u32; self.arity];
        for _ in 0..self.rows {
            for v in row.iter_mut() {
                *v = rng.gen_range(0..self.domain as u32);
            }
            b.push_coded_row(&row).expect("row width matches schema");
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let r = RandomRelation {
            rows: 20,
            arity: 5,
            domain: 4,
            seed: 42,
        }
        .generate();
        assert_eq!(r.n_rows(), 20);
        assert_eq!(r.arity(), 5);
        for a in 0..5 {
            assert!(r.column(a).domain_size() <= 4);
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a = RandomRelation::small(1).generate();
        let b = RandomRelation::small(1).generate();
        let c = RandomRelation::small(2).generate();
        for t in a.tuples() {
            assert_eq!(a.tuple_values(t), b.tuple_values(t));
        }
        assert!(a.tuples().any(|t| a.tuple_values(t) != c.tuple_values(t)));
    }
}
