//! Cover-level repair suggestion on top of the kernel.
//!
//! Same repair policy as the per-rule reference
//! ([`cfd_model::repair::suggest_repairs`]) — constant-RHS violations
//! suggest the rule's constant, variable-rule groups suggest their
//! majority value with ties broken toward the earliest tuple — but the
//! group structure comes from the compiled plan's shared grouping
//! passes instead of a per-rule re-scan with `Vec<u32>` keys, and only
//! the *violating* groups are ever materialized.

use crate::plan::{validate, CoverPlan, RuleRhs, Scan, ValidateOptions};
use cfd_model::fxhash::{FxHashMap, FxHashSet};
use cfd_model::relation::{Relation, TupleId};
use cfd_model::repair::{apply_repairs, Repair};
use cfd_model::Cfd;

/// A cover's repair of a relation: the suggested edits, the relation
/// with them applied, and the cover's violation count on each.
#[derive(Clone, Debug)]
pub struct CoverRepair {
    /// The edits, as [`suggest_repairs_for_cover`] orders them.
    pub edits: Vec<Repair>,
    /// The relation with every edit applied.
    pub repaired: Relation,
    /// The cover's violation records on the input relation.
    pub violations_before: usize,
    /// The cover's violation records on the repaired relation.
    pub violations_after: usize,
}

/// Repairs `rel` against a cover: compiles one plan for `rel`, counts
/// the violations with it, suggests edits from the same plan, applies
/// them, and counts again on the repaired relation (whose changed codes
/// need a plan of their own). `cfd repair` and the server's `repair`
/// job both run this.
pub fn repair_cover<'a, I>(rel: &Relation, cfds: I) -> CoverRepair
where
    I: IntoIterator<Item = &'a Cfd> + Clone,
{
    let opts = ValidateOptions {
        limit: 0,
        ..Default::default()
    };
    let plan = CoverPlan::compile(rel, cfds.clone());
    let violations_before = plan.validate(rel, &opts).total_violations();
    let edits = suggest_repairs_for_cover(rel, &plan);
    let repaired = apply_repairs(rel, &edits);
    let violations_after = validate(&repaired, cfds, &opts).total_violations();
    CoverRepair {
        edits,
        repaired,
        violations_before,
        violations_after,
    }
}

/// Suggests repairs for every rule of a compiled cover, deduplicated
/// per cell: when several rules implicate the same `(tuple, attribute)`
/// cell, the first rule's suggestion wins (rule order = caller's
/// priority order). `plan` must be compiled for `rel`, so one plan
/// serves both a validation of `rel` and its repair.
///
/// Produces exactly what folding the per-rule reference
/// [`cfd_model::repair::suggest_repairs`] over the rules would, via the
/// kernel's shared grouping instead of per-rule scans.
pub fn suggest_repairs_for_cover(rel: &Relation, plan: &CoverPlan) -> Vec<Repair> {
    let mut seen: FxHashSet<(TupleId, usize)> = FxHashSet::default();
    let mut out = Vec::new();
    for rule in 0..plan.n_rules() {
        for r in rule_repairs(rel, plan, rule) {
            if seen.insert((r.tuple, r.attr)) {
                out.push(r);
            }
        }
    }
    out
}

/// Repairs for one rule of the plan, in the reference order.
fn rule_repairs(rel: &Relation, plan: &CoverPlan, rule: usize) -> Vec<Repair> {
    let compiled = plan.rule(rule);
    let (rhs_attr, consts) = (compiled.rhs_attr, &compiled.consts);
    let rhs_codes = rel.column(rhs_attr).codes();
    let mut out = Vec::new();

    let family = match compiled.rhs {
        RuleRhs::Var { family } => family,
        RuleRhs::Const(expect) => {
            // constant RHS: every mismatching matching tuple gets the
            // rule's constant
            Scan::of(rel, consts).for_each(|t| {
                let cur = rhs_codes[t as usize];
                if cur != expect {
                    out.push(Repair {
                        tuple: t,
                        attr: rhs_attr,
                        current: cur,
                        suggested: expect,
                    });
                }
            });
            return out;
        }
    };

    // variable RHS: find the mixed groups, then materialize only them
    let gids = plan.group_ids(family).gids();
    let mut first_rhs: FxHashMap<u32, u32> = FxHashMap::default();
    let mut mixed: FxHashSet<u32> = FxHashSet::default();
    Scan::of(rel, consts).for_each(|t| {
        let gid = gids[t as usize];
        let rhs = rhs_codes[t as usize];
        match first_rhs.entry(gid) {
            std::collections::hash_map::Entry::Occupied(e) => {
                if *e.get() != rhs {
                    mixed.insert(gid);
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(rhs);
            }
        }
    });
    if mixed.is_empty() {
        return out;
    }
    let mut members: FxHashMap<u32, Vec<TupleId>> = FxHashMap::default();
    Scan::of(rel, consts).for_each(|t| {
        let gid = gids[t as usize];
        if mixed.contains(&gid) {
            members.entry(gid).or_default().push(t);
        }
    });
    // reference order: groups by their wildcard-value key, ascending
    let wild = plan.wild(family);
    let mut groups: Vec<(Vec<u32>, &Vec<TupleId>)> = members
        .values()
        .map(|m| {
            let key: Vec<u32> = wild.iter().map(|&a| rel.code(m[0], a)).collect();
            (key, m)
        })
        .collect();
    groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    for (_, members) in groups {
        let mut counts: FxHashMap<u32, usize> = FxHashMap::default();
        for &t in members {
            *counts.entry(rhs_codes[t as usize]).or_default() += 1;
        }
        // majority RHS value; ties break toward the earliest tuple
        let earliest = rhs_codes[members[0] as usize];
        let majority = counts
            .iter()
            .max_by_key(|&(&code, &n)| (n, code == earliest, std::cmp::Reverse(code)))
            .map(|(&code, _)| code)
            .unwrap_or(earliest);
        for &t in members {
            let cur = rhs_codes[t as usize];
            if cur != majority {
                out.push(Repair {
                    tuple: t,
                    attr: rhs_attr,
                    current: cur,
                    suggested: majority,
                });
            }
        }
    }
    out
}
