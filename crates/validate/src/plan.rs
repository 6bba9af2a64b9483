//! Cover compilation and the one-pass evaluator.
//!
//! [`CoverPlan::compile`] turns a rule set into an execution plan:
//!
//! * variable-RHS rules are grouped into **families** by their LHS
//!   wildcard attribute set, and each family runs **one** dense
//!   grouping pass ([`cfd_partition::GroupIds`] — flat `u64` keys, no
//!   per-tuple `Vec<u32>` allocation) shared by every rule of the
//!   family;
//! * constant-RHS rules need no grouping at all (Lemma 1 normal form:
//!   their LHS is all-constant) — they are plain filtered scans.
//!
//! [`CoverPlan::validate`] then evaluates every rule against the
//! relation. Per rule, the scan is **driven by the smallest value
//! region** of its LHS constants (the regions each column builds once
//! and keeps, [`Column::regions`]) instead of the full relation, and a
//! variable rule's group state is a flat array indexed by group id (or
//! a small `u32`-keyed map when the driving region is much smaller than
//! the group universe). Rules are sharded across worker threads — the
//! architecture `cfd-stream` uses for batches — and results are merged
//! in rule order, so the report is byte-for-byte identical at any
//! thread count. Every scan runs to its end and counts every violation:
//! the run's `limit` only caps the sample it keeps.
//!
//! [`Column::regions`]: cfd_model::relation::Column::regions

use crate::report::{RuleReport, ValidationReport};
use cfd_model::fxhash::FxHashMap;
use cfd_model::pattern::PVal;
use cfd_model::progress::{par_map, Control};
use cfd_model::relation::{Relation, TupleId};
use cfd_model::schema::AttrId;
use cfd_model::{Cfd, RuleMeasure, Violation};
use cfd_partition::GroupIds;

/// Options of one validation run.
#[derive(Clone, Copy, Debug)]
pub struct ValidateOptions {
    /// Worker threads to shard rules across (min 1; capped by the rule
    /// count and the cores). The report does not depend on this.
    pub threads: usize,
    /// Per-rule cap on the collected violation sample. Counters are
    /// exact regardless — the cap only bounds
    /// [`RuleReport::sample`](crate::RuleReport::sample).
    pub limit: usize,
}

impl Default for ValidateOptions {
    fn default() -> ValidateOptions {
        ValidateOptions {
            threads: 1,
            limit: usize::MAX,
        }
    }
}

/// The RHS-kind-specific part of a compiled rule.
pub(crate) enum RuleRhs {
    /// Constant RHS: matching tuples must carry this code.
    Const(u32),
    /// Variable RHS: groups of the family must agree on the RHS.
    Var {
        /// Index into [`CoverPlan::families`].
        family: usize,
    },
}

/// One rule, compiled: the LHS constant filter, the RHS attribute, and
/// how to judge the RHS.
pub(crate) struct CompiledRule {
    rule: usize,
    pub(crate) consts: Vec<(AttrId, u32)>,
    pub(crate) rhs_attr: AttrId,
    pub(crate) rhs: RuleRhs,
}

/// One LHS wildcard attribute set and its shared grouping.
struct Family {
    wild: Vec<AttrId>,
    gids: GroupIds,
}

/// One schedulable piece of a validation run: a whole family (its
/// grouping is loaded once, its witness array computed once, then every
/// member rule evaluated against them) or a single constant-RHS rule.
enum Unit {
    Family(usize),
    ConstRule(usize),
}

/// A compiled cover: compile once, validate everywhere (batch check,
/// repair, streaming warm start).
pub struct CoverPlan {
    rules: Vec<CompiledRule>,
    families: Vec<Family>,
    /// Variable rules of each family, in rule order.
    family_rules: Vec<Vec<usize>>,
    /// The constant-RHS rules, in rule order.
    const_rules: Vec<usize>,
}

impl CoverPlan {
    /// Compiles a rule set against `rel` (one grouping pass per
    /// distinct LHS wildcard set, single-threaded).
    pub fn compile<'a, I>(rel: &Relation, cfds: I) -> CoverPlan
    where
        I: IntoIterator<Item = &'a Cfd>,
    {
        CoverPlan::compile_with(rel, cfds, 1)
    }

    /// [`compile`](CoverPlan::compile) with the family grouping passes
    /// sharded across `threads` worker threads.
    pub fn compile_with<'a, I>(rel: &Relation, cfds: I, threads: usize) -> CoverPlan
    where
        I: IntoIterator<Item = &'a Cfd>,
    {
        let mut rules = Vec::new();
        let mut family_of_wild: FxHashMap<Vec<AttrId>, usize> = FxHashMap::default();
        let mut wilds: Vec<Vec<AttrId>> = Vec::new();
        let mut family_rules: Vec<Vec<usize>> = Vec::new();
        let mut const_rules = Vec::new();
        for (i, cfd) in cfds.into_iter().enumerate() {
            let consts: Vec<(AttrId, u32)> = cfd
                .lhs()
                .iter()
                .filter_map(|(a, v)| v.as_const().map(|c| (a, c)))
                .collect();
            let rhs = match cfd.rhs_val() {
                PVal::Const(c) => {
                    const_rules.push(i);
                    RuleRhs::Const(c)
                }
                PVal::Var => {
                    let wild: Vec<AttrId> = cfd.lhs().wildcard_attrs().iter().collect();
                    let family = *family_of_wild.entry(wild.clone()).or_insert_with(|| {
                        wilds.push(wild);
                        family_rules.push(Vec::new());
                        wilds.len() - 1
                    });
                    family_rules[family].push(i);
                    RuleRhs::Var { family }
                }
            };
            rules.push(CompiledRule {
                rule: i,
                consts,
                rhs_attr: cfd.rhs_attr(),
                rhs,
            });
        }
        let families = par_map(
            &wilds,
            threads,
            || (),
            |wild, _| {
                let _sp = cfd_obs::span!("validate.group_build");
                Family {
                    wild: wild.clone(),
                    gids: GroupIds::build(rel, wild),
                }
            },
        );
        CoverPlan {
            rules,
            families,
            family_rules,
            const_rules,
        }
    }

    /// Number of compiled rules.
    pub fn n_rules(&self) -> usize {
        self.rules.len()
    }

    /// The family (grouping) a variable rule belongs to; `None` for
    /// constant-RHS rules, which need no grouping.
    pub fn family_of(&self, rule: usize) -> Option<usize> {
        match self.rules[rule].rhs {
            RuleRhs::Const(_) => None,
            RuleRhs::Var { family } => Some(family),
        }
    }

    /// The shared `tuple → group id` mapping of family `f` — what the
    /// streaming engine bulk-builds its warm indexes from.
    pub fn group_ids(&self, f: usize) -> &GroupIds {
        &self.families[f].gids
    }

    /// Compiled rule `r`.
    pub(crate) fn rule(&self, r: usize) -> &CompiledRule {
        &self.rules[r]
    }

    /// The LHS wildcard attributes family `f` groups by, in LHS order.
    pub(crate) fn wild(&self, f: usize) -> &[AttrId] {
        &self.families[f].wild
    }

    /// Validates the compiled cover against `rel`, sharded across
    /// `opts.threads` workers. The unit of scheduling is a whole family
    /// (so a family's witness array is computed once and shared by all
    /// its rules) or a single constant-RHS rule.
    ///
    /// `rel` must be the relation the plan was compiled for.
    pub fn validate(&self, rel: &Relation, opts: &ValidateOptions) -> ValidationReport {
        let units: Vec<Unit> = (0..self.families.len())
            .map(Unit::Family)
            .chain(self.const_rules.iter().map(|&r| Unit::ConstRule(r)))
            .collect();
        let chunks = par_map(
            &units,
            opts.threads,
            || (),
            |unit, _| match unit {
                Unit::ConstRule(r) => vec![eval_const_rule(rel, &self.rules[*r], opts.limit)],
                Unit::Family(f) => self.eval_family(rel, *f, opts.limit),
            },
        );
        let mut rules: Vec<RuleReport> = chunks.into_iter().flatten().collect();
        rules.sort_unstable_by_key(|r| r.rule);
        ValidationReport {
            rules,
            n_rows: rel.n_rows(),
        }
    }

    /// Evaluates every rule of one family: the family's grouping was
    /// computed at compile time, its witness array is computed here at
    /// most once (only if some member rule has no LHS constants), and
    /// each member rule is one driven scan.
    ///
    /// The g1 measure frequencies are **not** accumulated inside the
    /// scan: a per-row hash-map update there cost a 50× kernel slowdown
    /// once (DESIGN.md §3). Plain rules walk the family's row order
    /// (rows counting-sorted by group id, computed once per family)
    /// with a dense per-code counter; constant-filtered rules collect
    /// their matching `(group, code)` pairs into a reused buffer and
    /// sort it — pure array work either way, no per-row hashing.
    fn eval_family(&self, rel: &Relation, f: usize, limit: usize) -> Vec<RuleReport> {
        let _sp = cfd_obs::span!("validate.family_scan");
        let gids = &self.families[f].gids;
        let mut witness: Option<Vec<u32>> = None;
        let mut order: Option<Vec<u32>> = None;
        let mut scratch = MeasureScratch::default();
        self.family_rules[f]
            .iter()
            .map(|&r| {
                let rule = &self.rules[r];
                let mut violations = 0usize;
                let mut sample = Vec::new();
                let support;
                let removals;
                {
                    let mut count = |w, t| {
                        violations += 1;
                        if sample.len() < limit {
                            sample.push(Violation::Pair(w, t));
                        }
                    };
                    let rhs_codes = rel.column(rule.rhs_attr).codes();
                    if rule.consts.is_empty() {
                        let wit = witness.get_or_insert_with(|| gids.witnesses());
                        support = scan_plain_var_rule(rel, rule, gids, wit, &mut count);
                        let _m = cfd_obs::span!("validate.measure");
                        let ord = order.get_or_insert_with(|| order_by_gid(gids));
                        removals = scratch.removals_ordered(ord, gids.gids(), rhs_codes);
                    } else {
                        scratch.pairs.clear();
                        support = scan_var_rule(rel, rule, gids, &mut count, &mut scratch.pairs);
                        let _m = cfd_obs::span!("validate.measure");
                        removals = removals_from_pairs(&mut scratch.pairs);
                    }
                }
                RuleReport {
                    rule: r,
                    violations,
                    sample,
                    measure: RuleMeasure {
                        support,
                        violations: removals,
                    },
                }
            })
            .collect()
    }
}

/// Compiles and validates in one call — the `cfd check` entry point.
pub fn validate<'a, I>(rel: &Relation, cfds: I, opts: &ValidateOptions) -> ValidationReport
where
    I: IntoIterator<Item = &'a Cfd>,
{
    validate_with(rel, cfds, opts, &Control::default())
}

/// Kernel-measured [`RuleMeasure`] per rule of `cfds`, in input order.
/// This is the acceptance check `cfd_stream::remine` runs after an
/// atomic cover swap (every surviving rule's confidence must meet the
/// watch θ): one validation pass with a zero violation-sample cap —
/// counters stay exact; only the per-violation sample is skipped.
pub fn measure_cover<'a, I>(rel: &Relation, cfds: I, threads: usize) -> Vec<RuleMeasure>
where
    I: IntoIterator<Item = &'a Cfd>,
{
    let opts = ValidateOptions { threads, limit: 0 };
    validate(rel, cfds, &opts)
        .rules
        .into_iter()
        .map(|r| r.measure)
        .collect()
}

/// [`validate`] with run instrumentation: emits the kernel's counters
/// (`validate.*`; DESIGN.md §10) into the metrics sink attached to
/// `ctrl`, if any. The report is identical to [`validate`]'s.
pub fn validate_with<'a, I>(
    rel: &Relation,
    cfds: I,
    opts: &ValidateOptions,
    ctrl: &Control<'_>,
) -> ValidationReport
where
    I: IntoIterator<Item = &'a Cfd>,
{
    let _sp = cfd_obs::span!("validate.run");
    let plan = CoverPlan::compile_with(rel, cfds, opts.threads);
    let report = plan.validate(rel, opts);
    ctrl.metric_add("validate.rules", plan.n_rules() as u64);
    ctrl.metric_add("validate.families", plan.families.len() as u64);
    ctrl.metric_add(
        "validate.groups_built",
        plan.families.iter().map(|f| f.gids.n_groups() as u64).sum(),
    );
    ctrl.metric_add("validate.rows", rel.n_rows() as u64);
    ctrl.metric_add(
        "validate.support_rows",
        report.rules.iter().map(|r| r.measure.support as u64).sum(),
    );
    ctrl.metric_add(
        "validate.violation_records",
        report.rules.iter().map(|r| r.violations as u64).sum(),
    );
    report
}

/// Sentinel for an empty group slot (no tuple id reaches `u32::MAX`).
const EMPTY: u64 = u64::MAX;

/// Group state of one variable rule: `(first tuple) << 32 | first RHS
/// code`, indexed by group id — flat when the group universe is in
/// proportion to the rows scanned, a small hash map when the driving
/// region makes most groups unreachable.
enum Slots {
    Dense(Vec<u64>),
    Sparse(FxHashMap<u32, u64>),
}

impl Slots {
    #[inline]
    fn get(&self, gid: u32) -> u64 {
        match self {
            Slots::Dense(v) => v[gid as usize],
            Slots::Sparse(m) => m.get(&gid).copied().unwrap_or(EMPTY),
        }
    }

    #[inline]
    fn set(&mut self, gid: u32, slot: u64) {
        match self {
            Slots::Dense(v) => v[gid as usize] = slot,
            Slots::Sparse(m) => {
                m.insert(gid, slot);
            }
        }
    }
}

/// A scan over the tuples matching a rule's LHS constants: it walks
/// every row when the rule has no LHS constant, else the smallest value
/// region among its constants (the filter pushed into the scan), and
/// tests each row against the residual constants. Rows come in
/// ascending order either way, so the witness choice and the violation
/// order do not depend on the region walked — the shared scan shape of
/// validation and repair.
pub(crate) struct Scan<'a> {
    /// The region walked; `None` walks all `n_rows` rows.
    region: Option<&'a [TupleId]>,
    n_rows: u32,
    /// The residual constants, as (column codes, constant).
    filters: Vec<(&'a [u32], u32)>,
}

impl<'a> Scan<'a> {
    /// The scan over the tuples of `rel` matching `consts`.
    pub(crate) fn of(rel: &'a Relation, consts: &[(AttrId, u32)]) -> Scan<'a> {
        let region = |(a, c): (AttrId, u32)| rel.column(a).regions().region(c);
        let best = (0..consts.len()).min_by_key(|&i| region(consts[i]).len());
        Scan {
            region: best.map(|i| region(consts[i])),
            n_rows: rel.n_rows() as u32,
            filters: (0..consts.len())
                .filter(|&j| Some(j) != best)
                .map(|j| (rel.column(consts[j].0).codes(), consts[j].1))
                .collect(),
        }
    }

    /// Rows walked before the residual filters.
    fn rows(&self) -> usize {
        self.region.map_or(self.n_rows as usize, <[TupleId]>::len)
    }

    /// Runs `f` over the matching tuples, in ascending row order.
    pub(crate) fn for_each(&self, mut f: impl FnMut(TupleId)) {
        let mut visit = |t: TupleId| {
            if self
                .filters
                .iter()
                .all(|&(codes, c)| codes[t as usize] == c)
            {
                f(t);
            }
        };
        match self.region {
            None => (0..self.n_rows).for_each(visit),
            Some(r) => r.iter().for_each(|&t| visit(t)),
        }
    }
}

/// Rows of a family's relation, counting-sorted by group id — the walk
/// order every plain member rule's measure pass shares. O(rows +
/// groups), computed at most once per family.
fn order_by_gid(g: &GroupIds) -> Vec<u32> {
    let gids = g.gids();
    let mut cur = vec![0u32; g.n_groups() + 1];
    for &gid in gids {
        cur[gid as usize + 1] += 1;
    }
    for i in 1..cur.len() {
        cur[i] += cur[i - 1];
    }
    let mut order = vec![0u32; gids.len()];
    for t in 0..gids.len() as u32 {
        let slot = &mut cur[gids[t as usize] as usize];
        order[*slot as usize] = t;
        *slot += 1;
    }
    order
}

/// Reused buffers of a family's measure passes: a dense per-RHS-code
/// counter (reset via the touched list, so it is paid once and sized to
/// the widest RHS domain met) and the `(group, code)` pair buffer of
/// the constant-filtered rules.
#[derive(Default)]
struct MeasureScratch {
    counts: Vec<u32>,
    touched: Vec<u32>,
    pairs: Vec<u64>,
}

impl MeasureScratch {
    /// The g1-style minimal-removal count of a plain (constant-free)
    /// variable rule: walking rows grouped by `ord`, per group
    /// everything except the highest-frequency RHS code must go.
    fn removals_ordered(&mut self, ord: &[u32], gids: &[u32], rhs: &[u32]) -> usize {
        if let Some(&max_code) = rhs.iter().max() {
            if self.counts.len() <= max_code as usize {
                self.counts.resize(max_code as usize + 1, 0);
            }
        }
        let mut removals = 0usize;
        let mut i = 0;
        while i < ord.len() {
            let g = gids[ord[i] as usize];
            let start = i;
            let mut maxf = 0u32;
            while i < ord.len() && gids[ord[i] as usize] == g {
                let c = rhs[ord[i] as usize] as usize;
                let e = &mut self.counts[c];
                if *e == 0 {
                    self.touched.push(c as u32);
                }
                *e += 1;
                maxf = maxf.max(*e);
                i += 1;
            }
            removals += (i - start) - maxf as usize;
            for &c in &self.touched {
                self.counts[c as usize] = 0;
            }
            self.touched.clear();
        }
        removals
    }
}

/// The g1-style minimal-removal count from a buffer of
/// `(group id << 32) | RHS code` pairs (one per matching row): sorting
/// brings each group's codes together, so one linear walk finds every
/// group's majority.
fn removals_from_pairs(pairs: &mut [u64]) -> usize {
    pairs.sort_unstable();
    let mut removals = 0usize;
    let mut i = 0;
    while i < pairs.len() {
        let g = pairs[i] >> 32;
        let start = i;
        let mut maxf = 0usize;
        while i < pairs.len() && pairs[i] >> 32 == g {
            let v = pairs[i];
            let run = i;
            while i < pairs.len() && pairs[i] == v {
                i += 1;
            }
            maxf = maxf.max(i - run);
        }
        removals += (i - start) - maxf;
    }
    removals
}

/// Evaluates one constant-RHS rule in a single driven scan. Here the
/// violation-record count *is* the minimal-removal count (each
/// dissenting tuple must go), so the measure needs no extra state.
fn eval_const_rule(rel: &Relation, rule: &CompiledRule, limit: usize) -> RuleReport {
    let _sp = cfd_obs::span!("validate.const_scan");
    let RuleRhs::Const(expect) = rule.rhs else {
        unreachable!("eval_const_rule takes a const-RHS rule");
    };
    let rhs_codes = rel.column(rule.rhs_attr).codes();
    let (mut support, mut violations, mut sample) = (0, 0, Vec::new());
    Scan::of(rel, &rule.consts).for_each(|t| {
        support += 1;
        if rhs_codes[t as usize] != expect {
            violations += 1;
            if sample.len() < limit {
                sample.push(Violation::Single(t));
            }
        }
    });
    RuleReport {
        rule: rule.rule,
        violations,
        sample,
        measure: RuleMeasure {
            support,
            violations,
        },
    }
}

/// The violation sink of a variable rule's scan, called as
/// `(witness, tuple)` per violation.
type Sink<'s> = &'s mut dyn FnMut(TupleId, TupleId);

/// Scans one variable rule that carries LHS constants: the scan is
/// driven by the smallest constant region and per-group witnesses are
/// tracked per rule (the rule's witness is the first tuple matching
/// *its* constants, not the family's global first). Feeds
/// `(witness, dissenter)` pairs to `sink` and returns the rule's
/// support. Each matching row appends its `(group id << 32) | RHS code`
/// key to `pairs` — the raw material of [`removals_from_pairs`].
fn scan_var_rule(
    rel: &Relation,
    rule: &CompiledRule,
    gids: &GroupIds,
    sink: Sink,
    pairs: &mut Vec<u64>,
) -> usize {
    let scan = Scan::of(rel, &rule.consts);
    let rhs_codes = rel.column(rule.rhs_attr).codes();
    let n_groups = gids.n_groups();
    let gids = gids.gids();
    let mut support = 0usize;
    // a driving region much smaller than the group universe cannot
    // touch most groups — use a map instead of a flat array there
    let mut slots = if n_groups <= 4 * scan.rows() {
        Slots::Dense(vec![EMPTY; n_groups])
    } else {
        Slots::Sparse(FxHashMap::default())
    };
    scan.for_each(|t| {
        support += 1;
        let gid = gids[t as usize];
        let rhs = rhs_codes[t as usize];
        pairs.push(((gid as u64) << 32) | rhs as u64);
        let slot = slots.get(gid);
        if slot == EMPTY {
            debug_assert_ne!(((t as u64) << 32) | rhs as u64, EMPTY);
            slots.set(gid, ((t as u64) << 32) | rhs as u64);
        } else if (slot & 0xFFFF_FFFF) as u32 != rhs {
            sink((slot >> 32) as TupleId, t);
        }
    });
    support
}

/// Scans one variable rule with **no** LHS constants: its group
/// witnesses are the family's, so the scan is two array loads and a
/// compare per row. Feeds `(witness, dissenter)` pairs to `sink`;
/// returns the rule's support (every tuple matches). The g1 measure is
/// **not** collected here — [`CoverPlan::eval_family`] computes it in
/// a separate dense pass over the family's group order, keeping this
/// scan free of per-row bookkeeping.
fn scan_plain_var_rule(
    rel: &Relation,
    rule: &CompiledRule,
    gids: &GroupIds,
    witness: &[u32],
    sink: Sink,
) -> usize {
    debug_assert!(rule.consts.is_empty());
    let rhs_codes = rel.column(rule.rhs_attr).codes();
    for (t, &g) in gids.gids().iter().enumerate() {
        let w = witness[g as usize];
        if rhs_codes[t] != rhs_codes[w as usize] {
            sink(w as TupleId, t as TupleId);
        }
    }
    rel.n_rows()
}
