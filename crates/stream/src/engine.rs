//! The streaming engine: dictionary encoding, the live row store, and
//! batch application sharded by rule.

use crate::delta::{coalesce, BatchDelta, RuleId};
use crate::remine::CoverDelta;
use crate::rule::{RuleState, RuleStats};
use crate::RowId;
use cfd_model::progress::{shard_runs, workers, Control, MetricsSink, SearchStats};
use cfd_model::relation::{Dict, RelationBuilder};
use cfd_model::schema::AttrId;
use cfd_model::{Cfd, Error, FxHashMap, Relation, Result, Schema, Violation};
use std::sync::Arc;

/// An incremental violation-detection engine over streaming tuples.
///
/// Compile it from a warm [`Relation`] and a rule set (a canonical cover
/// or any list of [`Cfd`]s whose codes refer to that relation), then feed
/// it tuple batches:
///
/// * [`insert_batch`](StreamEngine::insert_batch) /
///   [`delete_batch`](StreamEngine::delete_batch) apply a batch and
///   return the violation *delta* — what was newly raised and newly
///   cleared — instead of rescanning;
/// * [`live_violations`](StreamEngine::live_violations) is always exactly
///   what [`cfd_validate::detect_violations`] would report on the
///   [`materialize`](StreamEngine::materialize)d live instance (with row
///   ids mapped through [`live_ids`](StreamEngine::live_ids));
/// * [`stats`](StreamEngine::stats) exposes per-rule support, violation
///   count and confidence at any point.
///
/// Unseen attribute values arriving mid-stream are interned with fresh
/// dictionary codes (the [`RelationBuilder::from_dicts`] hook), so the
/// engine accepts open-domain traffic. Row ids are assigned
/// monotonically and never reused. The column-major code store holds
/// the rows from a base id on: a delete only clears the row's live flag
/// (O(1)), and once the dead rows at the front of the store are at
/// least half of it they are dropped and the base moves past them,
/// amortized O(1) per row. A window whose deletes remove its oldest
/// rows, as `cfd watch`'s sliding windows do, therefore keeps at most
/// about twice its live rows stored. Only that dead *prefix* is
/// reclaimed: a stream that keeps its oldest row live keeps every row
/// inserted after it.
///
/// Every batch is encoded once, one column at a time straight into the
/// store, and applied to the rules' indexes on up to `threads` workers
/// (the [`shard_runs`] harness, no more workers than cores), each
/// owning a contiguous chunk of the rules. A worker gives each tuple
/// only to the rules of its chunk whose first LHS constant the tuple
/// carries, and to the rules without a constant.
pub struct StreamEngine {
    schema: Schema,
    dicts: Vec<Dict>,
    rules: Vec<Cfd>,
    /// Rule display strings, resolved against the warm relation and
    /// at each cover swap (the engine's own dictionaries only grow, so
    /// codes in `rules` stay decodable — but caching avoids
    /// re-resolving).
    rule_texts: Vec<String>,
    /// One incremental index per rule, in rule-id order.
    states: Vec<RuleState>,
    /// Requested workers per batch, warm and cover swap.
    threads: usize,
    /// Column-major codes of the stored rows: slot `s` holds row id
    /// `base + s`.
    cols: Vec<Vec<u32>>,
    /// Live flag per stored row.
    live: Vec<bool>,
    /// Row id of slot 0; every row below it was deleted and reclaimed.
    base: usize,
    /// Leading slots known dead (the prefix `reclaim` drops).
    dead_prefix: usize,
    n_live: usize,
    /// Optional metrics sink: batch counters (`stream.*`) are emitted
    /// per applied batch. `Arc` rather than a borrow because the engine
    /// is a long-lived owner, not a per-run handle like `Control`.
    metrics: Option<Arc<dyn MetricsSink>>,
}

impl StreamEngine {
    /// Compiles `rules` against the dictionaries of `rel` and warms the
    /// indexes with every tuple of `rel`. The violations present in the
    /// warm data are reported as the `raised` half of the returned
    /// [`BatchDelta`]; warm rows get row ids `0..rel.n_rows()`. The
    /// warm, every batch and every cover swap run on up to `threads`
    /// workers, and never on more than the process has cores.
    ///
    /// The warm start goes through the shared validation kernel: the
    /// cover is compiled into a [`cfd_validate::CoverPlan`] (one
    /// grouping pass per distinct LHS wildcard set) and every rule's
    /// index is bulk-built from its family's flat group ids, instead of
    /// replaying the warm data tuple by tuple through the incremental
    /// path with a hashed `Vec<u32>` key per row and rule.
    pub fn warm(rel: &Relation, rules: Vec<Cfd>, threads: usize) -> (StreamEngine, BatchDelta) {
        let _sp = cfd_obs::span!("stream.warm");
        let engine = StreamEngine {
            schema: rel.schema().clone(),
            dicts: rel.dicts(),
            rule_texts: rules.iter().map(|c| c.display(rel)).collect(),
            states: index(rel, &rules, threads, None),
            rules,
            threads,
            cols: (0..rel.arity())
                .map(|a| rel.column(a).codes().to_vec())
                .collect(),
            live: vec![true; rel.n_rows()],
            base: 0,
            dead_prefix: 0,
            n_live: rel.n_rows(),
            metrics: None,
        };
        let delta = BatchDelta {
            raised: engine.live_violations(),
            cleared: Vec::new(),
        };
        (engine, delta)
    }

    /// Attaches a metrics sink; every applied batch emits `stream.*`
    /// counters into it (see DESIGN.md §10 for the names).
    pub fn metrics_with(mut self, sink: Arc<dyn MetricsSink>) -> StreamEngine {
        self.metrics = Some(sink);
        self
    }

    /// The schema tuples must conform to.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The compiled rules, in rule-id order.
    pub fn rules(&self) -> &[Cfd] {
        &self.rules
    }

    /// The display form of rule `r` (the paper's syntax).
    pub fn rule_text(&self, r: RuleId) -> &str {
        &self.rule_texts[r]
    }

    /// Number of live tuples.
    pub fn n_live(&self) -> usize {
        self.n_live
    }

    /// Number of rows ever inserted (the next insert takes id
    /// `n_total`).
    pub fn n_total(&self) -> usize {
        self.base + self.live.len()
    }

    /// The store slot of row `id`, if the row is still stored.
    fn slot(&self, id: RowId) -> Option<usize> {
        (id as usize)
            .checked_sub(self.base)
            .filter(|&s| s < self.live.len())
    }

    /// True iff row `id` exists and has not been deleted.
    pub fn is_live(&self, id: RowId) -> bool {
        self.slot(id).is_some_and(|s| self.live[s])
    }

    /// The live row ids, ascending (= insertion order).
    pub fn live_ids(&self) -> Vec<RowId> {
        (0..self.live.len())
            .filter(|&s| self.live[s])
            .map(|s| (self.base + s) as RowId)
            .collect()
    }

    /// The string values of row `id`, if it is live.
    pub fn row_values(&self, id: RowId) -> Option<Vec<&str>> {
        let s = self.slot(id).filter(|&s| self.live[s])?;
        Some(
            self.cols
                .iter()
                .zip(&self.dicts)
                .map(|(col, dict)| dict.value(col[s]))
                .collect(),
        )
    }

    /// Encodes and inserts a batch of string tuples, returning their new
    /// row ids and the violation delta. A row is anything that slices
    /// as strings (`Vec<&str>`, `&[String]`, a `chunks_exact` of one
    /// flat field list). Every width is checked before anything is
    /// interned, so a row of the wrong width fails the whole batch
    /// unchanged. Then each column is interned on its own, in row
    /// order, straight into the store: a column's dictionary stays in
    /// cache for the whole batch, and the codes are those of interning
    /// row by row, since every column has its own dictionary. Unseen
    /// values get fresh codes.
    pub fn insert_batch<R, S>(&mut self, rows: &[R]) -> Result<(Vec<RowId>, BatchDelta)>
    where
        R: AsRef<[S]>,
        S: AsRef<str>,
    {
        let arity = self.schema.arity();
        if let Some(row) = rows.iter().find(|row| row.as_ref().len() != arity) {
            return Err(Error::Relation(format!(
                "streamed row has {} values, schema has arity {arity}",
                row.as_ref().len()
            )));
        }
        let first = self.n_total() as RowId;
        // the rule indexes read each row's codes from one row-major
        // buffer, filled as the columns are interned
        let mut codes = vec![0u32; rows.len() * arity];
        for (a, (col, dict)) in self.cols.iter_mut().zip(&mut self.dicts).enumerate() {
            col.reserve(rows.len());
            for (row, code) in rows.iter().zip(codes.iter_mut().skip(a).step_by(arity)) {
                *code = dict.intern(row.as_ref()[a].as_ref());
                col.push(*code);
            }
        }
        self.live.resize(self.live.len() + rows.len(), true);
        self.n_live += rows.len();
        let ids: Vec<RowId> = (first..first + rows.len() as RowId).collect();
        let delta = self.apply(&ids, &codes, true);
        Ok((ids, delta))
    }

    /// Deletes a batch of live rows by id, returning the violation
    /// delta. Unknown or already-deleted ids fail the whole batch before
    /// any tuple is applied; a duplicate id within the batch is likewise
    /// rejected. The check clears each id's live flag as it goes (a
    /// repeated id finds its flag already cleared) and sets them back
    /// if the batch fails.
    pub fn delete_batch(&mut self, ids: &[RowId]) -> Result<BatchDelta> {
        for (i, &id) in ids.iter().enumerate() {
            let Some(s) = self.slot(id).filter(|&s| self.live[s]) else {
                let why = if ids[..i].contains(&id) {
                    format!("row {id} deleted twice in batch")
                } else {
                    format!("row {id} is not live")
                };
                for &done in &ids[..i] {
                    self.live[done as usize - self.base] = true;
                }
                return Err(Error::Relation(why));
            };
            self.live[s] = false;
        }
        self.n_live -= ids.len();
        let mut codes = Vec::with_capacity(ids.len() * self.cols.len());
        for &id in ids {
            let s = id as usize - self.base;
            codes.extend(self.cols.iter().map(|col| col[s]));
        }
        self.reclaim();
        Ok(self.apply(ids, &codes, false))
    }

    /// Drops the store's dead prefix once it is at least half the
    /// store, moving `base` past it. The prefix cursor only advances
    /// between drops and a drop moves at most as many live slots as it
    /// frees, so the cost is amortized O(1) per row.
    fn reclaim(&mut self) {
        self.dead_prefix += self.live[self.dead_prefix..]
            .iter()
            .take_while(|&&live| !live)
            .count();
        let dead = self.dead_prefix;
        if dead == 0 || dead * 2 < self.live.len() {
            return;
        }
        for col in &mut self.cols {
            col.drain(..dead);
        }
        self.live.drain(..dead);
        self.base += dead;
        self.dead_prefix = 0;
    }

    /// Below this many row × rule applications that split across
    /// workers a batch, warm or cover swap runs on one worker whatever
    /// `threads` asks: starting the workers would cost more than they
    /// save. A batch counts its [`Dispatch::split_work`], a warm or
    /// cover swap rows × rules (DESIGN.md §9).
    const MIN_PARALLEL_WORK: usize = 2048;

    /// Applies one batch of encoded rows (`codes` row-major, one row
    /// per id, all inserts or all deletes) to the indexes of the rules
    /// each can match (in parallel when the batch is big enough to
    /// amortize thread spawns) and coalesces the transitions into the
    /// batch's net delta. Every rule sees its rows in batch order, so
    /// the states and the delta are those of giving every row to every
    /// rule.
    fn apply(&mut self, ids: &[RowId], codes: &[u32], insert: bool) -> BatchDelta {
        if ids.is_empty() {
            return BatchDelta::default();
        }
        let _sp = cfd_obs::span!("stream.apply_batch");
        let arity = self.cols.len();
        let work = Dispatch::split_work(&self.states, ids.len());
        let events = per_chunk(&mut self.states, self.threads, work, |rules, out| {
            let dispatch = Dispatch::new(rules);
            for (&id, codes) in ids.iter().zip(codes.chunks_exact(arity)) {
                dispatch.for_each_rule(codes, |r| {
                    if insert {
                        rules[r].insert(id, codes, out);
                    } else {
                        rules[r].delete(id, codes, out);
                    }
                });
            }
        });
        let delta = coalesce(events);
        if let Some(m) = &self.metrics {
            let rows = ids.len() as u64;
            m.add("stream.batches", 1);
            m.add("stream.inserts", if insert { rows } else { 0 });
            m.add("stream.deletes", if insert { 0 } else { rows });
            m.add("stream.raised", delta.raised.len() as u64);
            m.add("stream.cleared", delta.cleared.len() as u64);
            m.observe("stream.batch_rows", rows);
            m.set_gauge("stream.live_rows", self.n_live as u64);
            m.set_gauge("stream.stored_rows", self.live.len() as u64);
        }
        delta
    }

    /// The current live violation set, sorted by `(rule, violation)`.
    /// Row ids are engine row ids; see [`materialize`] for the mapping
    /// to a scan of the live instance.
    ///
    /// [`materialize`]: StreamEngine::materialize
    pub fn live_violations(&self) -> Vec<(RuleId, Violation)> {
        let mut out = Vec::new();
        for rule in &self.states {
            rule.live_violations(&mut out);
        }
        out.sort_unstable();
        out
    }

    /// The number of live violation records, summed from every rule's
    /// maintained count in O(rules): `live_violations().len()` without
    /// walking a group or sorting.
    pub fn n_violations(&self) -> usize {
        self.states.iter().map(RuleState::n_violations).sum()
    }

    /// Current per-rule counters, in rule-id order.
    pub fn stats(&self) -> Vec<RuleStats> {
        self.states.iter().map(RuleState::stats).collect()
    }

    /// The attached metrics sink, if any — shared with
    /// [`crate::remine`] so re-mining counters land next to the
    /// `stream.*` batch counters.
    pub(crate) fn metrics_sink(&self) -> Option<&Arc<dyn MetricsSink>> {
        self.metrics.as_ref()
    }

    /// Atomically swaps the cover to `delta`'s: its retired rules go,
    /// kept rules keep their order and take ids `0..kept`, its
    /// replacements follow, and every rule gets a fresh index bulk-built
    /// from `live`, this engine's materialized live instance. The new
    /// state is fully built before anything is installed, so a panic
    /// mid-build leaves no half-swapped cover.
    pub(crate) fn apply_cover_delta(&mut self, live: &Relation, delta: &CoverDelta) {
        debug_assert_eq!(live.n_rows(), self.n_live, "a snapshot of this engine");
        let rules: Vec<Cfd> = self
            .rules
            .iter()
            .enumerate()
            .filter(|(i, _)| delta.retired.binary_search_by_key(i, |r| r.rule).is_err())
            .map(|(_, c)| c.clone())
            .chain(delta.replacement.iter().cloned())
            .collect();
        let states = index(live, &rules, self.threads, Some(&self.live_ids()));
        // install: three plain moves, nothing can fail past this point
        self.rule_texts = rules.iter().map(|c| c.display(live)).collect();
        self.rules = rules;
        self.states = states;
        if let Some(m) = &self.metrics {
            m.add("stream.recompiles", 1);
            m.set_gauge("stream.rules", self.rules.len() as u64);
        }
    }

    /// Materializes the live tuples as a [`Relation`] (insertion order,
    /// dictionaries shared with the engine). Batch-scanning it with
    /// [`cfd_validate::detect_violations`] and mapping dense row
    /// ids through [`live_ids`](StreamEngine::live_ids) reproduces
    /// [`live_violations`](StreamEngine::live_violations) exactly — the
    /// reconciliation the test suite performs.
    pub fn materialize(&self) -> Relation {
        let _sp = cfd_obs::span!("stream.materialize");
        let mut b = RelationBuilder::from_dicts(self.schema.clone(), self.dicts.clone())
            .expect("engine dictionaries match its schema");
        let mut row = vec![0u32; self.schema.arity()];
        for s in (0..self.live.len()).filter(|&s| self.live[s]) {
            for (v, col) in row.iter_mut().zip(&self.cols) {
                *v = col[s];
            }
            b.push_coded_row(&row).expect("row width is the arity");
        }
        b.finish()
    }
}

/// The rules of one worker chunk keyed by their first LHS constant for
/// one batch: a tuple can match only the rules whose first constant
/// `(A, a)` it carries, and the rules without a constant.
struct Dispatch {
    /// Chunk positions of the rules with no LHS constant.
    free: Vec<usize>,
    /// Per first-constant attribute `A`: each constant `a` → the chunk
    /// positions of its rules.
    keyed: Vec<(AttrId, FxHashMap<u32, Vec<usize>>)>,
}

impl Dispatch {
    fn new(rules: &[RuleState]) -> Dispatch {
        let mut d = Dispatch {
            free: Vec::new(),
            keyed: Vec::new(),
        };
        for (r, rule) in rules.iter().enumerate() {
            let Some((a, c)) = rule.first_const() else {
                d.free.push(r);
                continue;
            };
            let i = d
                .keyed
                .iter()
                .position(|&(b, _)| b == a)
                .unwrap_or_else(|| {
                    d.keyed.push((a, FxHashMap::default()));
                    d.keyed.len() - 1
                });
            d.keyed[i].1.entry(c).or_default().push(r);
        }
        d
    }

    /// The rule applications of a batch of `rows` rows that split
    /// across workers: every row goes to each rule with no LHS constant,
    /// the rules [`new`](Dispatch::new) lists as `free`. A keyed lookup
    /// is repeated by every worker that holds rules keyed on its
    /// attribute, and which keyed rules it finds depends on the row, so
    /// neither counts.
    fn split_work(rules: &[RuleState], rows: usize) -> usize {
        rows * rules.iter().filter(|r| r.first_const().is_none()).count()
    }

    /// Calls `f` with the chunk position of every rule `codes` can match.
    fn for_each_rule(&self, codes: &[u32], mut f: impl FnMut(usize)) {
        self.free.iter().for_each(|&r| f(r));
        for (a, by_code) in &self.keyed {
            if let Some(rules) = by_code.get(&codes[*a]) {
                rules.iter().for_each(|&r| f(r));
            }
        }
    }
}

/// Fresh indexes of `rules` over `rel`, bulk-built on up to `threads`
/// workers as [`StreamEngine::warm`] describes. Row `t` of `rel` takes
/// row id `ids[t]`, or `t` without `ids`.
fn index(rel: &Relation, rules: &[Cfd], threads: usize, ids: Option<&[RowId]>) -> Vec<RuleState> {
    let _sp = cfd_obs::span!("stream.index");
    let mut states: Vec<RuleState> = rules
        .iter()
        .enumerate()
        .map(|(i, cfd)| RuleState::compile(i, cfd))
        .collect();
    let plan = cfd_validate::CoverPlan::compile(rel, rules);
    per_chunk(
        &mut states,
        threads,
        rel.n_rows() * rules.len(),
        |chunk, _: &mut Vec<()>| {
            for rule in chunk {
                let gids = plan.family_of(rule.rule).map(|f| plan.group_ids(f).gids());
                rule.warm_from(rel, gids);
                if let Some(ids) = ids {
                    rule.remap_ids(ids);
                }
            }
        },
    );
    states
}

/// Runs `f` over the rules' indexes on the [`shard_runs`] workers
/// (`threads`, capped by the cores and the rule count; one below
/// [`StreamEngine::MIN_PARALLEL_WORK`] of `work`), one contiguous chunk
/// of rules per worker, and returns the outputs in rule order. At one
/// worker the one chunk holds every rule.
fn per_chunk<T: Send>(
    states: &mut [RuleState],
    threads: usize,
    work: usize,
    f: impl Fn(&mut [RuleState], &mut Vec<T>) + Sync,
) -> Vec<T> {
    let threads = if work < StreamEngine::MIN_PARALLEL_WORK {
        1
    } else {
        threads
    };
    let chunk = states.len().div_ceil(workers(threads)).max(1);
    shard_runs(
        states.chunks_mut(chunk),
        threads,
        &Control::default(),
        &mut SearchStats::default(),
        || (),
        |rules, (), _, out| f(rules, out),
    )
    .expect("default Control is never cancelled")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::{PVal, Pattern};

    /// The gate on the make-up of two covers it was measured on, over
    /// tax rows (DESIGN.md §9). The `watch` benchmark's 49 rules are one
    /// rule keyed on CC and 48 keyed on AC: no batch fans out, a warm of
    /// 2,500 rows does. Of the 153 rules `cfd discover --k 100` mines on
    /// 2,000 tax rows, 34 have no LHS constant: a batch fans out from 61
    /// rows on.
    #[test]
    fn a_batch_fans_out_only_when_its_split_work_repays_it() {
        let rule = |i: usize, lhs: &[(AttrId, PVal)]| {
            RuleState::compile(i, &Cfd::variable(Pattern::from_pairs(lhs.to_vec()), 4))
        };
        let light: Vec<RuleState> = (0..49)
            .map(|i| match i {
                0 => rule(i, &[(0, PVal::Const(0)), (3, PVal::Var)]),
                _ => rule(i, &[(1, PVal::Const(i as u32))]),
            })
            .collect();
        let heavy: Vec<RuleState> = (0..153)
            .map(|i| match i {
                i if i < 34 => rule(i, &[(i % 4, PVal::Var)]),
                _ => rule(i, &[([0, 1, 5, 6][i % 4], PVal::Const(i as u32))]),
            })
            .collect();
        let min = StreamEngine::MIN_PARALLEL_WORK;
        assert_eq!(Dispatch::split_work(&light, 100_000), 0);
        assert!(2_500 * light.len() >= min, "a light warm fans out");
        assert_eq!(Dispatch::split_work(&heavy, 100), 3_400);
        assert!(Dispatch::split_work(&heavy, 60) < min);
        assert!(Dispatch::split_work(&heavy, 61) >= min);
    }
}
