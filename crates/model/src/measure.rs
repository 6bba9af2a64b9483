//! Per-rule support/confidence measurement — the *shared* rule-level
//! stats type behind approximate discovery, `cfd-validate`'s reports
//! and `cfd-stream`'s live counters.
//!
//! ## The error measure
//!
//! For a CFD `φ = (X → A, (tp ‖ pA))` on an instance `r`, let
//! `sup(tp, r)` be the tuples matching the LHS pattern constants. The
//! *violation count* of `φ` is the **minimum number of those tuples
//! that must be removed** for the remainder to satisfy `φ`:
//!
//! * constant RHS `pA = a` — every matching tuple with `t[A] ≠ a`;
//! * variable RHS — group the matching tuples by their values on the
//!   LHS wildcard attributes; per group, everything except the
//!   highest-frequency RHS value must go
//!   (`Σ_groups (|group| − maxfreq_A(group))`).
//!
//! [`measure`] reads those groups off the one grouping scan behind
//! every per-rule reference (see [`mod@crate::support`]).
//!
//! The rule's **confidence** is `1 − violations / support` (`1.0` when
//! nothing matches). This is the partition-error measure the
//! approximate-FD literature calls `g₃` (Kivinen & Mannila) and what
//! DESIGN.md §8 — following the ISSUE's terminology — refers to as the
//! suite's *g1-style* confidence; discovery (`min_confidence`),
//! validation (`cfd check`) and streaming (`cfd watch`) all report this
//! one number, so a θ-thresholded discovery run is guaranteed to emit
//! only rules whose kernel-validated confidence is ≥ θ.
//!
//! ## The annotation wire format
//!
//! A measured rule serializes as the rule's wire text followed by a
//! bracketed suffix:
//!
//! ```text
//! ([CC, AC] -> CT, (_, _ || _)) [support=8 conf=0.875]
//! ```
//!
//! [`split_annotation`] recovers the two halves by cutting at the last
//! `[` of a `]`-terminated line — rule wire text always ends with
//! `))`, so a rule constant containing `") [conf=…]"` (or an attribute
//! name containing `)` or `]`) can never be confused with the suffix.
//! `conf` is printed with Rust's shortest-round-trip `f64` formatting,
//! so parse(annotation(m)) == m for any measure (a tested property —
//! see `crates/model/tests/wire_format.rs`).

use crate::cfd::Cfd;
use crate::error::{Error, Result};
use crate::fxhash::FxHashMap;
use crate::pattern::PVal;
use crate::relation::Relation;
use crate::support::lhs_groups;

/// Measured support and violation count of one rule on one instance —
/// the rule-level stats type shared by discovery outcomes
/// (`Discovery::measures`), the validation kernel (`RuleReport`) and
/// the streaming engine (`RuleStats`).
///
/// ```
/// use cfd_model::measure::RuleMeasure;
/// let m = RuleMeasure { support: 8, violations: 1 };
/// assert_eq!(m.confidence(), 0.875);
/// assert!(m.meets(0.875) && !m.meets(0.9));
/// assert_eq!(m.annotation(), "[support=8 conf=0.875]");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuleMeasure {
    /// Tuples matching the rule's LHS pattern constants (for a plain FD
    /// this is every tuple).
    pub support: usize,
    /// Minimum number of matching tuples to remove so the rest
    /// satisfies the rule (the g1-style partition error — see the
    /// module docs).
    pub violations: usize,
}

impl RuleMeasure {
    /// The measure of a rule that holds exactly on `support` tuples.
    pub fn exact(support: usize) -> RuleMeasure {
        RuleMeasure {
            support,
            violations: 0,
        }
    }

    /// `1 − violations / support` (`1.0` when nothing matches): the
    /// fraction of matching tuples kept by the minimal repair.
    pub fn confidence(&self) -> f64 {
        if self.support == 0 {
            1.0
        } else {
            1.0 - self.violations as f64 / self.support as f64
        }
    }

    /// True iff the rule holds exactly (`violations == 0`).
    pub fn satisfied(&self) -> bool {
        self.violations == 0
    }

    /// True iff the confidence reaches the threshold `θ` — the exact
    /// predicate approximate discovery emits under. Uses the same
    /// integer short-circuit as the algorithms ([`keep_meets`]), so
    /// `meets(1.0)` is precisely exactness, untouched by float
    /// rounding.
    pub fn meets(&self, theta: f64) -> bool {
        keep_meets(self.support - self.violations, self.support, theta)
    }

    /// The wire-format suffix, e.g. `[support=8 conf=0.875]`. The
    /// confidence uses shortest-round-trip `f64` formatting;
    /// [`RuleMeasure::parse_annotation`] is the exact inverse.
    pub fn annotation(&self) -> String {
        format!("[support={} conf={}]", self.support, self.confidence())
    }

    /// Parses the *inside* of an annotation (no brackets): whitespace
    /// separated `key=value` entries; `support` and `conf` are
    /// required, in any order. The violation count is recovered from
    /// the confidence (exactly, for any support below ~10¹²).
    pub fn parse_annotation(s: &str) -> Result<RuleMeasure> {
        let fail = |m: String| Error::Parse(m);
        let mut support: Option<usize> = None;
        let mut conf: Option<f64> = None;
        for part in s.split_whitespace() {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| fail(format!("annotation entry {part:?} is not key=value")))?;
            match key {
                "support" => {
                    support = Some(value.parse().map_err(|_| {
                        fail(format!("invalid support {value:?} in rule annotation"))
                    })?)
                }
                "conf" | "confidence" => {
                    let c: f64 = value.parse().map_err(|_| {
                        fail(format!("invalid confidence {value:?} in rule annotation"))
                    })?;
                    if !(0.0..=1.0).contains(&c) {
                        return Err(fail(format!("confidence {c} outside [0, 1]")));
                    }
                    conf = Some(c);
                }
                other => return Err(fail(format!("unknown annotation key {other:?}"))),
            }
        }
        let support =
            support.ok_or_else(|| fail("rule annotation is missing support=".to_string()))?;
        let conf = conf.ok_or_else(|| fail("rule annotation is missing conf=".to_string()))?;
        let violations = ((1.0 - conf) * support as f64).round() as usize;
        Ok(RuleMeasure {
            support,
            violations: violations.min(support),
        })
    }
}

/// The shared threshold predicate of approximate discovery: does
/// keeping `keep` of `rows` tuples reach confidence `θ`?
///
/// `keep ≥ rows` short-circuits with integer arithmetic, so at
/// `θ = 1.0` the predicate is *exactly* the exactness test — the θ=1.0
/// parity guarantee of DESIGN.md §8 cannot be eroded by float rounding.
pub fn keep_meets(keep: usize, rows: usize, theta: f64) -> bool {
    rows == 0 || keep >= rows || (keep as f64) >= theta * (rows as f64)
}

/// Splits an (optionally annotated) rule line into the rule's wire text
/// and its parsed [`RuleMeasure`].
///
/// Rule wire text always ends with `))` (quoted or not, the pattern is
/// the final parenthesized group), so an annotation — when present —
/// is exactly a *trailing* `[…]` block: the split point is the last
/// `[` of a `]`-terminated line. This keeps the splitter immune to
/// look-alikes anywhere inside the rule — a quoted constant containing
/// `") [conf=…]"`, an attribute name containing `)` or `]` — none of
/// which end the line. Lines not ending in `]` come back whole with
/// `None` (the CFD parser reports any real syntax error); a
/// `]`-terminated tail that is not a valid annotation is an error.
pub fn split_annotation(line: &str) -> Result<(&str, Option<RuleMeasure>)> {
    let s = line.trim();
    if !s.ends_with(']') {
        return Ok((s, None));
    }
    let Some(open) = s.rfind('[') else {
        return Ok((s, None));
    };
    let rule = s[..open].trim_end();
    let inner = &s[open + 1..s.len() - 1];
    Ok((rule, Some(RuleMeasure::parse_annotation(inner)?)))
}

/// Renders a rule with its measure in the annotated wire format:
/// `<rule text> [support=N conf=F]`.
pub fn display_annotated(rel: &Relation, cfd: &Cfd, m: &RuleMeasure) -> String {
    format!("{} {}", cfd.display(rel), m.annotation())
}

/// Measures one rule against an instance — the per-rule reference
/// implementation of the module's error measure, over the one grouping
/// scan behind every per-rule reference (see [`mod@crate::support`];
/// `cfd-validate` computes the identical numbers for whole covers in
/// one kernel pass).
///
/// ```
/// use cfd_model::cfd::parse_cfd;
/// use cfd_model::csv::relation_from_csv_str;
/// use cfd_model::measure::measure;
///
/// let rel = relation_from_csv_str("AC,CT\n908,MH\n908,MH\n131,EDI\n131,UN\n").unwrap();
/// let fd = parse_cfd(&rel, "(AC -> CT, (_ || _))").unwrap();
/// let m = measure(&rel, &fd);
/// assert_eq!((m.support, m.violations), (4, 1)); // drop one of EDI/UN
/// assert_eq!(m.confidence(), 0.75);
/// ```
pub fn measure(rel: &Relation, cfd: &Cfd) -> RuleMeasure {
    let rhs = cfd.rhs_attr();
    let (mut support, mut kept) = (0, 0);
    // per (group, RHS code) the tuple count, per group the largest one
    let mut freq: FxHashMap<(usize, u32), usize> = FxHashMap::default();
    let mut best: Vec<usize> = Vec::new();
    for (t, g) in lhs_groups(rel, cfd) {
        support += 1;
        let code = rel.code(t, rhs);
        match cfd.rhs_val() {
            PVal::Const(a) => kept += usize::from(code == a),
            PVal::Var => {
                if g == best.len() {
                    best.push(0);
                }
                let n = freq.entry((g, code)).or_default();
                *n += 1;
                // a group's largest count grows by one at a time
                if *n > best[g] {
                    best[g] = *n;
                    kept += 1;
                }
            }
        }
    }
    RuleMeasure {
        support,
        violations: support - kept,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfd::parse_cfd;
    use crate::relation::relation_from_rows;
    use crate::schema::Schema;
    use crate::violation::violations;

    fn cust() -> Relation {
        let schema = Schema::new(["CC", "AC", "PN", "NM", "STR", "CT", "ZIP"]).unwrap();
        relation_from_rows(
            schema,
            &[
                vec!["01", "908", "1111111", "Mike", "Tree Ave.", "MH", "07974"],
                vec!["01", "908", "1111111", "Rick", "Tree Ave.", "MH", "07974"],
                vec!["01", "212", "2222222", "Joe", "5th Ave", "NYC", "01202"],
                vec!["01", "908", "2222222", "Jim", "Elm Str.", "MH", "07974"],
                vec!["44", "131", "3333333", "Ben", "High St.", "EDI", "EH4 1DT"],
                vec!["44", "131", "2222222", "Ian", "High St.", "EDI", "EH4 1DT"],
                vec!["44", "908", "2222222", "Ian", "Port PI", "MH", "W1B 1JH"],
                vec!["01", "131", "2222222", "Sean", "3rd Str.", "UN", "01202"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn constant_rhs_counts_dissenters() {
        let r = cust();
        // AC = 131 maps to EDI, EDI, UN: one dissenter among three
        let c = parse_cfd(&r, "(AC -> CT, (131 || EDI))").unwrap();
        let m = measure(&r, &c);
        assert_eq!((m.support, m.violations), (3, 1));
        assert!((m.confidence() - 2.0 / 3.0).abs() < 1e-12);
        assert!(m.meets(0.6) && !m.meets(0.7));
    }

    #[test]
    fn variable_rhs_counts_minimal_removals() {
        let r = cust();
        // AC → CT: 908 → MH (4 pure), 212 → NYC (1), 131 → {EDI×2, UN}
        let fd = parse_cfd(&r, "(AC -> CT, (_ || _))").unwrap();
        let m = measure(&r, &fd);
        assert_eq!((m.support, m.violations), (8, 1));
        assert_eq!(m.confidence(), 0.875);
        // the minimal-removal count can undercut the reported violation
        // *records* (pairs are anchored at the scan witness)
        assert!(m.violations <= violations(&r, &fd).len());
        // a satisfied rule measures exact
        let f1 = parse_cfd(&r, "([CC, AC] -> CT, (_, _ || _))").unwrap();
        assert_eq!(measure(&r, &f1), RuleMeasure::exact(8));
    }

    #[test]
    fn majority_differs_from_witness() {
        // group [b, a, a]: the scan witness carries the minority value,
        // so witness-anchored pairs count 2 — but one removal suffices
        let schema = Schema::new(["X", "Y"]).unwrap();
        let r =
            relation_from_rows(schema, &[vec!["g", "b"], vec!["g", "a"], vec!["g", "a"]]).unwrap();
        let fd = parse_cfd(&r, "(X -> Y, (_ || _))").unwrap();
        assert_eq!(violations(&r, &fd).len(), 2);
        let m = measure(&r, &fd);
        assert_eq!((m.support, m.violations), (3, 1));
    }

    #[test]
    fn empty_support_is_fully_confident() {
        let m = RuleMeasure::exact(0);
        assert_eq!(m.confidence(), 1.0);
        assert!(m.meets(1.0));
    }

    #[test]
    fn annotation_round_trips() {
        for (s, v) in [(8, 1), (0, 0), (3, 3), (1_000_000, 1), (7, 2)] {
            let m = RuleMeasure {
                support: s,
                violations: v,
            };
            let text = m.annotation();
            let back = RuleMeasure::parse_annotation(
                text.strip_prefix('[').unwrap().strip_suffix(']').unwrap(),
            )
            .unwrap();
            assert_eq!(back, m, "{text}");
        }
        // either key order parses; bad keys/values fail
        assert!(RuleMeasure::parse_annotation("conf=0.5 support=4").is_ok());
        assert!(RuleMeasure::parse_annotation("support=4").is_err());
        assert!(RuleMeasure::parse_annotation("conf=2.0 support=4").is_err());
        assert!(RuleMeasure::parse_annotation("support=x conf=1").is_err());
        assert!(RuleMeasure::parse_annotation("support=4 conf=1 huh").is_err());
    }

    #[test]
    fn split_annotation_survives_look_alikes() {
        let plain = "([A] -> B, (x || 1))";
        assert_eq!(split_annotation(plain).unwrap(), (plain, None));
        let (rule, m) = split_annotation("([A] -> B, (x || 1)) [support=4 conf=0.75]").unwrap();
        assert_eq!(rule, plain);
        assert_eq!(
            m,
            Some(RuleMeasure {
                support: 4,
                violations: 1
            })
        );
        // a constant that *contains* a fake annotation stays inside the rule
        let nasty = r#"([A] -> B, ("x)) [conf=0.5]" || 1))"#;
        assert_eq!(split_annotation(nasty).unwrap(), (nasty, None));
        let annotated = format!("{nasty} [support=2 conf=1]");
        let (rule, m) = split_annotation(&annotated).unwrap();
        assert_eq!(rule, nasty);
        assert_eq!(m, Some(RuleMeasure::exact(2)));
        // attribute names may contain ')' and bare values '[' / ']' —
        // neither ends the line, so the split point stays the suffix
        let paren_name = "([A)] -> B, (x || [v]))";
        assert_eq!(split_annotation(paren_name).unwrap(), (paren_name, None));
        let annotated = format!("{paren_name} [support=3 conf=1]");
        let (rule, m) = split_annotation(&annotated).unwrap();
        assert_eq!((rule, m), (paren_name, Some(RuleMeasure::exact(3))));
        // a ]-terminated tail that is not an annotation is an error
        assert!(split_annotation("([A] -> B, (x || 1)) [junk]").is_err());
        // anything else passes through whole for the CFD parser to judge
        assert_eq!(split_annotation("nonsense").unwrap(), ("nonsense", None));
        let junk = "([A] -> B, (x || 1)) trailing";
        assert_eq!(split_annotation(junk).unwrap(), (junk, None));
    }

    #[test]
    fn keep_meets_thresholds() {
        assert!(keep_meets(0, 0, 1.0));
        assert!(keep_meets(5, 5, 1.0));
        assert!(!keep_meets(4, 5, 1.0));
        assert!(keep_meets(9, 10, 0.9));
        assert!(!keep_meets(8, 10, 0.9));
        assert!(keep_meets(2, 3, 0.6));
    }
}
