//! Canonical covers and the constant/variable normal form of Lemma 1.
//!
//! A canonical cover (Section 2.2.3) is a set of minimal, k-frequent CFDs
//! equivalent to the set of *all* k-frequent CFDs holding on the instance.
//! Discovery algorithms return a [`CanonicalCover`]; this module provides
//! the normal form used to compare covers produced by different
//! algorithms, plus counting helpers used by the experiment harness
//! (Figures 6, 9, 14–16 report constant/variable counts separately).

use crate::cfd::{Cfd, CfdClass};
use crate::measure::{split_annotation, RuleMeasure};
use crate::pattern::PVal;
use crate::relation::Relation;

/// Lemma 1 normal form: a CFD with a constant RHS pattern is equivalent to
/// the constant CFD obtained by dropping every LHS attribute whose pattern
/// value is `_`. Variable CFDs are returned unchanged.
pub fn normalize_cfd(cfd: &Cfd) -> Cfd {
    match cfd.rhs_val() {
        PVal::Var => cfd.clone(),
        PVal::Const(_) => {
            if cfd.lhs().is_all_const() {
                cfd.clone()
            } else {
                Cfd::new(cfd.lhs().constant_part(), cfd.rhs_attr(), cfd.rhs_val())
            }
        }
    }
}

/// A set of discovered CFDs in canonical (sorted, deduplicated,
/// Lemma 1-normalized) form.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CanonicalCover {
    cfds: Vec<Cfd>,
}

impl CanonicalCover {
    /// Builds a cover from raw CFDs: normalizes (Lemma 1), sorts and
    /// deduplicates.
    pub fn from_cfds<I: IntoIterator<Item = Cfd>>(cfds: I) -> CanonicalCover {
        let mut v: Vec<Cfd> = cfds.into_iter().map(|c| normalize_cfd(&c)).collect();
        v.sort_unstable();
        v.dedup();
        CanonicalCover { cfds: v }
    }

    /// Builds a cover from emitted `(rule, measure)` pairs, returning
    /// the measures realigned with the cover's canonical (sorted,
    /// deduplicated, normalized) order — the epilogue every miner
    /// shares, since every miner measures at emission.
    ///
    /// Duplicate emissions of one normalized rule are fine: the measure
    /// is a function of the normalized rule and the instance, so they
    /// carry equal measures and the first one wins.
    pub fn from_measured(pairs: Vec<(Cfd, RuleMeasure)>) -> (CanonicalCover, Vec<RuleMeasure>) {
        let mut pairs: Vec<(Cfd, RuleMeasure)> = pairs
            .into_iter()
            .map(|(cfd, m)| (normalize_cfd(&cfd), m))
            .collect();
        // stable: the first emission of a rule stays first among equals
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs.dedup_by(|later, first| later.0 == first.0);
        let (cfds, measures) = pairs.into_iter().unzip();
        (CanonicalCover { cfds }, measures)
    }

    /// The CFDs, sorted.
    pub fn cfds(&self) -> &[Cfd] {
        &self.cfds
    }

    /// Number of CFDs in the cover.
    pub fn len(&self) -> usize {
        self.cfds.len()
    }

    /// True iff the cover is empty.
    pub fn is_empty(&self) -> bool {
        self.cfds.is_empty()
    }

    /// Iterates over the CFDs.
    pub fn iter(&self) -> impl Iterator<Item = &Cfd> {
        self.cfds.iter()
    }

    /// Membership test (the probe is normalized first).
    pub fn contains(&self, cfd: &Cfd) -> bool {
        let n = normalize_cfd(cfd);
        self.cfds.binary_search(&n).is_ok()
    }

    /// The constant CFDs of the cover.
    pub fn constants(&self) -> impl Iterator<Item = &Cfd> {
        self.cfds.iter().filter(|c| c.class() == CfdClass::Constant)
    }

    /// The variable CFDs of the cover.
    pub fn variables(&self) -> impl Iterator<Item = &Cfd> {
        self.cfds.iter().filter(|c| c.class() == CfdClass::Variable)
    }

    /// `(constant, variable)` counts — the series of Figures 6/9/14–16.
    pub fn counts(&self) -> (usize, usize) {
        let c = self.constants().count();
        let v = self.variables().count();
        (c, v)
    }

    /// Restricts the cover to its constant CFDs.
    pub fn constant_cover(&self) -> CanonicalCover {
        CanonicalCover {
            cfds: self.constants().cloned().collect(),
        }
    }

    /// Restricts the cover to plain FDs (all-wildcard variable CFDs) —
    /// the fragment a classical FD-discovery algorithm would produce.
    pub fn plain_fd_cover(&self) -> CanonicalCover {
        CanonicalCover {
            cfds: self
                .cfds
                .iter()
                .filter(|c| c.is_plain_fd())
                .cloned()
                .collect(),
        }
    }

    /// Symmetric difference against another cover — the debugging /
    /// test-failure reporting primitive.
    pub fn diff<'a>(&'a self, other: &'a CanonicalCover) -> (Vec<&'a Cfd>, Vec<&'a Cfd>) {
        let only_self = self.cfds.iter().filter(|c| !other.contains(c)).collect();
        let only_other = other.cfds.iter().filter(|c| !self.contains(c)).collect();
        (only_self, only_other)
    }

    /// Renders every CFD against a relation's dictionaries, one per line.
    /// Alias of [`CanonicalCover::to_text`].
    pub fn display(&self, rel: &Relation) -> String {
        self.to_text(rel)
    }

    /// Serializes the cover in the stable rule wire-format: one rule per
    /// line in [`Cfd::display`] syntax (ambiguous constants quoted).
    ///
    /// This is the format `cfd discover` emits and `cfd check` reads.
    /// The round trip is guaranteed:
    /// `CanonicalCover::from_text(rel, &cover.to_text(rel))` returns a
    /// cover equal to `cover` for any relation the cover was built over
    /// — a tested property (see `crates/model/tests/wire_format.rs`).
    ///
    /// ```
    /// use cfd_model::cover::CanonicalCover;
    /// use cfd_model::cfd::parse_cfd;
    /// use cfd_model::relation::relation_from_rows;
    /// use cfd_model::schema::Schema;
    ///
    /// let rel = relation_from_rows(
    ///     Schema::new(["A", "B"]).unwrap(),
    ///     &[vec!["x", "1"], vec!["x", "1"]],
    /// ).unwrap();
    /// let cover = CanonicalCover::from_cfds([parse_cfd(&rel, "(A -> B, (x || 1))").unwrap()]);
    /// let text = cover.to_text(&rel);
    /// assert_eq!(text, "([A] -> B, (x || 1))\n");
    /// assert_eq!(CanonicalCover::from_text(&rel, &text).unwrap(), cover);
    /// ```
    pub fn to_text(&self, rel: &Relation) -> String {
        let mut out = String::new();
        for c in &self.cfds {
            out.push_str(&c.display(rel));
            out.push('\n');
        }
        out
    }

    /// Parses a wire-format rule file (the inverse of
    /// [`CanonicalCover::to_text`]): one rule per line, blank lines and
    /// `#` comments skipped, trailing `[support=N conf=F]` annotations
    /// accepted and discarded (so approximate `cfd discover` output
    /// feeds straight back into `check`). Fails on the first
    /// unparseable line, reporting its 1-based line number; constants
    /// must occur in `rel` (use [`crate::cfd::parse_cfd_interning`]
    /// line by line when rules may precede their data).
    pub fn from_text(rel: &Relation, text: &str) -> crate::error::Result<CanonicalCover> {
        Ok(CanonicalCover::from_annotated_text(rel, text)?.0)
    }

    /// Serializes the cover with per-rule measures in the annotated
    /// wire format: each line is [`Cfd::display`] followed by the
    /// measure's `[support=N conf=F]` suffix
    /// ([`crate::measure::display_annotated`]). `measures` must run
    /// parallel to [`CanonicalCover::cfds`] — the layout `Discovery`
    /// maintains. Round-trips through
    /// [`CanonicalCover::from_annotated_text`].
    pub fn to_annotated_text(&self, rel: &Relation, measures: &[RuleMeasure]) -> String {
        assert_eq!(
            self.cfds.len(),
            measures.len(),
            "one measure per cover rule"
        );
        let mut out = String::new();
        for (c, m) in self.cfds.iter().zip(measures) {
            out.push_str(&crate::measure::display_annotated(rel, c, m));
            out.push('\n');
        }
        out
    }

    /// Parses a rule file in which lines *may* carry
    /// `[support=N conf=F]` annotations, returning the canonical cover
    /// plus each rule's measure (`None` for unannotated lines) aligned
    /// with [`CanonicalCover::cfds`] order. When normalization merges
    /// duplicate rules, the first line's annotation wins.
    #[allow(clippy::type_complexity)]
    pub fn from_annotated_text(
        rel: &Relation,
        text: &str,
    ) -> crate::error::Result<(CanonicalCover, Vec<Option<RuleMeasure>>)> {
        let mut pairs: Vec<(Cfd, Option<RuleMeasure>)> = Vec::new();
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let at_line = |e: crate::error::Error| {
                crate::error::Error::Parse(format!("line {}: {e}", no + 1))
            };
            let (rule, m) = split_annotation(line).map_err(at_line)?;
            let cfd = crate::cfd::parse_cfd(rel, rule).map_err(at_line)?;
            pairs.push((normalize_cfd(&cfd), m));
        }
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs.dedup_by(|a, b| a.0 == b.0);
        let (cfds, measures) = pairs.into_iter().unzip();
        Ok((CanonicalCover { cfds }, measures))
    }
}

impl IntoIterator for CanonicalCover {
    type Item = Cfd;
    type IntoIter = std::vec::IntoIter<Cfd>;

    fn into_iter(self) -> Self::IntoIter {
        self.cfds.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfd::parse_cfd;
    use crate::relation::relation_from_rows;
    use crate::schema::Schema;

    fn rel() -> Relation {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        relation_from_rows(
            schema,
            &[
                vec!["x", "1", "p"],
                vec!["y", "2", "q"],
                vec!["x", "1", "q"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn lemma1_normalization() {
        let r = rel();
        // mixed CFD: ([A,B] -> C, (x, _ || p)) ≡ (A -> C, (x || p))
        let mixed = parse_cfd(&r, "([A, B] -> C, (x, _ || p))").unwrap();
        assert_eq!(mixed.class(), CfdClass::Mixed);
        let norm = normalize_cfd(&mixed);
        assert_eq!(norm, parse_cfd(&r, "(A -> C, (x || p))").unwrap());
        // variable CFDs pass through
        let var = parse_cfd(&r, "([A, B] -> C, (x, _ || _))").unwrap();
        assert_eq!(normalize_cfd(&var), var);
        // constant CFDs pass through
        let con = parse_cfd(&r, "(A -> C, (x || p))").unwrap();
        assert_eq!(normalize_cfd(&con), con);
    }

    #[test]
    fn cover_dedups_after_normalization() {
        let r = rel();
        let mixed = parse_cfd(&r, "([A, B] -> C, (x, _ || p))").unwrap();
        let con = parse_cfd(&r, "(A -> C, (x || p))").unwrap();
        let cover = CanonicalCover::from_cfds([mixed, con.clone()]);
        assert_eq!(cover.len(), 1);
        assert!(cover.contains(&con));
        assert_eq!(cover.counts(), (1, 0));
    }

    #[test]
    fn from_measured_realigns_and_keeps_the_first_of_equal_rules() {
        let r = rel();
        let m = |support| RuleMeasure {
            support,
            violations: 0,
        };
        let (cover, measures) = CanonicalCover::from_measured(vec![
            (parse_cfd(&r, "(B -> A, (_ || _))").unwrap(), m(3)),
            (parse_cfd(&r, "([A, B] -> C, (x, _ || p))").unwrap(), m(2)),
            (parse_cfd(&r, "(A -> B, (_ || _))").unwrap(), m(1)),
            // the normal form of the second rule: its first measure stays
            (parse_cfd(&r, "(A -> C, (x || p))").unwrap(), m(9)),
        ]);
        let want = CanonicalCover::from_cfds(
            [
                "(B -> A, (_ || _))",
                "(A -> C, (x || p))",
                "(A -> B, (_ || _))",
            ]
            .map(|t| parse_cfd(&r, t).unwrap()),
        );
        assert_eq!(cover, want);
        let by_rule = |t: &str| {
            let i = cover.cfds().binary_search(&parse_cfd(&r, t).unwrap());
            measures[i.unwrap()].support
        };
        assert_eq!(by_rule("(B -> A, (_ || _))"), 3);
        assert_eq!(by_rule("(A -> C, (x || p))"), 2);
        assert_eq!(by_rule("(A -> B, (_ || _))"), 1);
    }

    #[test]
    fn counts_and_partitions() {
        let r = rel();
        let cover = CanonicalCover::from_cfds([
            parse_cfd(&r, "(A -> C, (x || p))").unwrap(),
            parse_cfd(&r, "(A -> B, (_ || _))").unwrap(),
            parse_cfd(&r, "([A, B] -> C, (x, 1 || _))").unwrap(),
        ]);
        assert_eq!(cover.counts(), (1, 2));
        assert_eq!(cover.constant_cover().len(), 1);
        assert_eq!(cover.plain_fd_cover().len(), 1);
    }

    #[test]
    fn diff_reports_both_sides() {
        let r = rel();
        let a = CanonicalCover::from_cfds([parse_cfd(&r, "(A -> B, (_ || _))").unwrap()]);
        let b = CanonicalCover::from_cfds([parse_cfd(&r, "(B -> A, (_ || _))").unwrap()]);
        let (only_a, only_b) = a.diff(&b);
        assert_eq!(only_a.len(), 1);
        assert_eq!(only_b.len(), 1);
        let (no_a, no_b) = a.diff(&a);
        assert!(no_a.is_empty() && no_b.is_empty());
    }

    #[test]
    fn display_lists_rules() {
        let r = rel();
        let cover = CanonicalCover::from_cfds([parse_cfd(&r, "(A -> B, (_ || _))").unwrap()]);
        assert_eq!(cover.display(&r), "([A] -> B, (_ || _))\n");
    }
}
