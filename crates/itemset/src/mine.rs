//! The level-wise free/closed item-set miner: one level walk, and the
//! two passes that drive it — [`mine_free_closed`] and the closed sets
//! behind [`crate::ClosedSetIndex::mine`].

use cfd_model::attrset::AttrSet;
use cfd_model::fxhash::FxHashMap;
use cfd_model::pattern::{PVal, Pattern};
use cfd_model::progress::par_map;
use cfd_model::relation::{Relation, TupleId};
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

/// A k-frequent *free* item set `(X, tp)` (no strictly smaller pattern has
/// the same support).
#[derive(Clone, Debug)]
pub struct FreeSet {
    /// The all-constant pattern `(X, tp)`.
    pub pattern: Pattern,
    /// `|supp(X, tp, r)|`.
    pub support: u32,
    /// Index of the closure `clo(X, tp)` in [`Mined::closed`].
    pub closure: u32,
    /// The supporting tuple ids (ascending); populated when
    /// [`MineOptions::keep_tids`] is set.
    tids: Option<Vec<TupleId>>,
}

impl FreeSet {
    /// The supporting tuples (requires mining with `keep_tids`).
    pub fn tids(&self) -> &[TupleId] {
        self.tids
            .as_deref()
            .expect("free-set tidsets were not retained; mine with keep_tids")
    }
}

/// A k-frequent *closed* item set (no strictly larger pattern has the
/// same support).
#[derive(Clone, Debug)]
pub struct ClosedSet {
    /// The all-constant pattern of the closed set.
    pub pattern: Pattern,
    /// `|supp|` of the closed set (equals the support of its free
    /// generators).
    pub support: u32,
}

/// Mining options.
#[derive(Clone, Copy, Debug)]
pub struct MineOptions {
    /// Retain each free set's tidset (read by NaiveFast's per-pattern
    /// agree sets and CFDMiner's approximate pass; exact CFDMiner and
    /// FastCFD's closed-set engine do not need them).
    pub keep_tids: bool,
    /// When `true` (default), mine only *free* sets — the Lemma 5 pruning.
    /// When `false`, every k-frequent pattern is kept (closures included);
    /// this exists solely for the ablation that quantifies the paper's
    /// "5–10×" free-set-pruning claim.
    pub free_only: bool,
    /// Worker threads for the per-level closure computation and the
    /// extension step (`1` = serial). The mined result is
    /// byte-identical for every thread count: workers own disjoint
    /// nodes and results merge in node order.
    pub threads: usize,
}

impl Default for MineOptions {
    fn default() -> Self {
        MineOptions {
            keep_tids: true,
            free_only: true,
            threads: 1,
        }
    }
}

/// The result of mining: k-frequent free sets and their closures. Each
/// free set names its closure ([`FreeSet::closure`]), which is the
/// closed→free (`C2F`) mapping of GCGrowth read backwards.
#[derive(Clone, Debug, Default)]
pub struct Mined {
    /// Free sets, ascending by pattern size then pattern (the ordered
    /// list `L` of CFDMiner step 2).
    pub free: Vec<FreeSet>,
    /// Closed sets (deduplicated).
    pub closed: Vec<ClosedSet>,
    free_by_pattern: FxHashMap<Pattern, u32>,
}

impl Mined {
    /// Looks up a free set by its pattern: `None` unless `p` is one of
    /// the mined (k-frequent) free patterns.
    pub fn free_index(&self, p: &Pattern) -> Option<usize> {
        self.free_by_pattern.get(p).map(|&i| i as usize)
    }

    /// The closure pattern of free set `i`.
    pub fn closure_of(&self, free_idx: usize) -> &ClosedSet {
        &self.closed[self.free[free_idx].closure as usize]
    }
}

/// Internal working representation of a level: sorted item lists plus
/// tidsets.
struct Node {
    items: Vec<(usize, u32)>, // (attr, code), ascending by attr
    tids: Vec<TupleId>,
}

/// The all-constant pattern over `attrs` with `codes` in attribute order.
fn pattern_of(attrs: AttrSet, codes: impl Iterator<Item = u32>) -> Pattern {
    Pattern::new(attrs, codes.map(PVal::Const).collect())
}

/// A closure `clo(X, tp)` as its attribute set and one supporting row:
/// every supporting row agrees on those attributes, so the row's codes
/// there are the closure's items.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Closure {
    pub(crate) attrs: AttrSet,
    row: TupleId,
}

impl Closure {
    /// The closure's items `(attr, code)`, ascending by attribute.
    pub(crate) fn items(self, rel: &Relation) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.attrs.iter().map(move |a| (a, rel.code(self.row, a)))
    }
}

/// Computes `clo(X, tp)` for a tidset: every `(B, b)` item shared by all
/// supporting tuples. Early-exits per attribute on the first mismatch.
fn closure_of_tids(rel: &Relation, tids: &[TupleId]) -> Closure {
    debug_assert!(!tids.is_empty());
    let row = tids[0];
    let mut attrs = AttrSet::EMPTY;
    for a in 0..rel.arity() {
        let col = rel.column(a);
        let c0 = col.code(row);
        if tids[1..].iter().all(|&t| col.code(t) == c0) {
            attrs.insert(a);
        }
    }
    Closure { attrs, row }
}

/// A closure as a map key: keys are equal when their items are.
struct Key<'r>(&'r Relation, Closure);

impl PartialEq for Key<'_> {
    fn eq(&self, other: &Self) -> bool {
        let (Key(rel, a), Key(_, b)) = (self, other);
        a.attrs == b.attrs && a.items(rel).eq(b.items(rel))
    }
}

impl Eq for Key<'_> {}

impl Hash for Key<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for (a, c) in self.1.items(self.0) {
            state.write_u64((a as u64) << 32 | u64::from(c));
        }
    }
}

/// The distinct closures a walk meets, each stored once and numbered in
/// order of first registration.
#[derive(Default)]
struct Closures<'r> {
    ids: FxHashMap<Key<'r>, u32>,
    list: Vec<Closure>,
}

impl<'r> Closures<'r> {
    /// The number of `c`'s closure, and whether this call registered it.
    fn intern(&mut self, rel: &'r Relation, c: Closure) -> (u32, bool) {
        let id = self.list.len() as u32;
        match self.ids.entry(Key(rel, c)) {
            Entry::Occupied(e) => (*e.get(), false),
            Entry::Vacant(e) => {
                e.insert(id);
                self.list.push(c);
                (id, true)
            }
        }
    }
}

/// One worker's scratch for [`children`]: a tuple count per code of the
/// widest column (all zero between splits), the codes the current split
/// touched, the parts it keeps, and a sub-pattern buffer.
#[derive(Default)]
struct Split {
    count: Vec<u32>,
    touched: Vec<u32>,
    kept: Vec<(u32, usize)>,
    sub: Vec<(usize, u32)>,
}

/// The extension step: the children of `node` one level down. For each
/// attribute `B` after the node's last, the node's tidset splits by
/// `B`'s codes, and a part of at least `k` tuples is a candidate. The
/// candidate is kept when every immediate sub-pattern is in the current
/// level (`supp`, keyed by item list) and, when only free sets are
/// mined, has strictly larger support. Children come out ascending by
/// item list, each tidset ascending.
///
/// When only free sets are mined, a node of at most `k` tuples has no
/// child, and no attribute of the node's closure `closed` is split: it
/// holds one code on the whole tidset, a part as large as the node.
fn children(
    rel: &Relation,
    node: &Node,
    closed: AttrSet,
    supp: &FxHashMap<&[(usize, u32)], usize>,
    k: usize,
    free_only: bool,
    s: &mut Split,
) -> Vec<Node> {
    let mut out = Vec::new();
    if free_only && node.tids.len() <= k {
        return out;
    }
    let first = node.items.last().map_or(0, |&(a, _)| a + 1);
    for b in (first..rel.arity()).filter(|&b| !(free_only && closed.contains(b))) {
        let codes = rel.column(b).codes();
        for &t in &node.tids {
            let c = codes[t as usize];
            if s.count[c as usize] == 0 {
                s.touched.push(c);
            }
            s.count[c as usize] += 1;
        }
        for &c in &s.touched {
            let support = std::mem::take(&mut s.count[c as usize]) as usize;
            // the node itself is one immediate sub-pattern; each other
            // one drops a node item and keeps (B, c)
            if support < k || (free_only && support == node.tids.len()) {
                continue;
            }
            let subs_pass = (0..node.items.len()).all(|drop| {
                s.sub.clear();
                s.sub.extend_from_slice(&node.items[..drop]);
                s.sub.extend_from_slice(&node.items[drop + 1..]);
                s.sub.push((b, c));
                supp.get(&s.sub[..])
                    .is_some_and(|&sub_support| !free_only || sub_support > support)
            });
            if subs_pass {
                s.kept.push((c, support));
            }
        }
        s.touched.clear();
        if s.kept.is_empty() {
            continue;
        }
        // one more pass routes the tuples to the kept parts; meanwhile a
        // kept code's count holds its part's slot + 1
        s.kept.sort_unstable();
        let base = out.len();
        for (slot, &(c, support)) in s.kept.iter().enumerate() {
            s.count[c as usize] = slot as u32 + 1;
            let mut items = Vec::with_capacity(node.items.len() + 1);
            items.extend_from_slice(&node.items);
            items.push((b, c));
            out.push(Node {
                items,
                tids: Vec::with_capacity(support),
            });
        }
        for &t in &node.tids {
            let slot = s.count[codes[t as usize] as usize];
            if slot != 0 {
                out[base + slot as usize - 1].tids.push(t);
            }
        }
        for &(c, _) in &s.kept {
            s.count[c as usize] = 0;
        }
        s.kept.clear();
    }
    out
}

/// The level walk both passes drive. Level 0 is the empty pattern, held
/// by every tuple; every later level is the extension step applied to
/// each node of the one before (from ∅ it yields the k-frequent single
/// items, free iff held by fewer than all tuples — an item every tuple
/// holds is in clo(∅)). A level costs one pass over its nodes' tidsets
/// per later attribute, not one tidset intersection per pair of
/// siblings as in a prefix join.
///
/// Each node's closure scan and extension step run on `opts.threads`
/// workers, which own disjoint nodes. `register` then sees every node
/// with its closure, level by level in node order, so whatever it builds
/// is identical at every thread count.
fn walk(rel: &Relation, k: usize, opts: MineOptions, mut register: impl FnMut(Node, Closure)) {
    assert!(k >= 1, "support threshold k must be at least 1");
    let n = rel.n_rows();
    if n < k || n == 0 {
        return;
    }
    let widest = (0..rel.arity())
        .map(|a| rel.column(a).domain_size())
        .max()
        .unwrap_or(0);
    let mut level = vec![Node {
        items: Vec::new(),
        tids: (0..n as TupleId).collect(),
    }];
    while !level.is_empty() {
        let expanded: Vec<(Closure, Vec<Node>)> = {
            let supp: FxHashMap<&[(usize, u32)], usize> = level
                .iter()
                .map(|node| (&node.items[..], node.tids.len()))
                .collect();
            par_map(
                &level,
                opts.threads,
                || Split {
                    count: vec![0; widest],
                    ..Split::default()
                },
                |node, s| {
                    let closure = closure_of_tids(rel, &node.tids);
                    let kids = children(rel, node, closure.attrs, &supp, k, opts.free_only, s);
                    (closure, kids)
                },
            )
        };
        let mut next = Vec::new();
        for (node, (closure, kids)) in level.into_iter().zip(expanded) {
            register(node, closure);
            next.extend(kids);
        }
        // the children of ascending nodes, in node order, ascend too
        debug_assert!(next.windows(2).all(|w| w[0].items < w[1].items));
        level = next;
    }
}

/// Mines the k-frequent free item sets of `rel` and their closures.
/// `k ≥ 1` is required; the empty pattern is included as a free set
/// whenever `|r| ≥ k` (its closure collects the constant columns of
/// `rel`).
pub fn mine_free_closed(rel: &Relation, k: usize, opts: MineOptions) -> Mined {
    let mut out = Mined::default();
    let mut closures = Closures::default();
    walk(rel, k, opts, |node, closure| {
        let support = node.tids.len() as u32;
        let (cidx, new) = closures.intern(rel, closure);
        if new {
            out.closed.push(ClosedSet {
                pattern: pattern_of(closure.attrs, closure.items(rel).map(|(_, c)| c)),
                support,
            });
        }
        let pattern = pattern_of(
            node.items.iter().map(|&(a, _)| a).collect(),
            node.items.iter().map(|&(_, c)| c),
        );
        let fidx = out.free.len() as u32;
        out.free_by_pattern.insert(pattern.clone(), fidx);
        out.free.push(FreeSet {
            pattern,
            support,
            closure: cidx,
            tids: opts.keep_tids.then_some(node.tids),
        });
    });
    out
}

/// The 2-frequent closed sets — those of `mine_free_closed(rel, 2, _)`,
/// in the same order — and nothing else: the walk registers each free
/// set's closure once, building no free set or pattern. Mines on one
/// thread: sharding this pass lost at two threads on every input
/// measured (DESIGN.md §9).
pub(crate) fn closed2(rel: &Relation) -> Vec<Closure> {
    let mut closures = Closures::default();
    let opts = MineOptions {
        keep_tids: false,
        ..MineOptions::default()
    };
    walk(rel, 2, opts, |_, closure| {
        closures.intern(rel, closure);
    });
    closures.list
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::relation::relation_from_rows;
    use cfd_model::schema::Schema;
    use cfd_model::support::pattern_support;

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

    fn pat(rel: &Relation, items: &[(&str, &str)]) -> Pattern {
        Pattern::from_pairs(items.iter().map(|&(a, v)| {
            let aid = rel.schema().attr_id(a).unwrap();
            let code = rel.column(aid).dict().code(v).unwrap();
            (aid, PVal::Const(code))
        }))
    }

    /// Brute-force oracle: enumerate every constant pattern with support
    /// ≥ k and classify free/closed by definition.
    #[allow(clippy::type_complexity)]
    fn brute_force(rel: &Relation, k: usize) -> (Vec<(Pattern, usize)>, Vec<(Pattern, usize)>) {
        let arity = rel.arity();
        let mut all: Vec<(Pattern, usize)> = Vec::new();
        // enumerate patterns over every attr subset via distinct projections
        for attrs in cfd_model::attrset::AttrSet::full(arity).subsets() {
            let mut seen = std::collections::HashSet::new();
            for t in rel.tuples() {
                let p = Pattern::from_pairs(attrs.iter().map(|a| (a, PVal::Const(rel.code(t, a)))));
                if seen.insert(p.clone()) {
                    let s = pattern_support(rel, &p);
                    if s >= k {
                        all.push((p, s));
                    }
                }
            }
        }
        let mut free = Vec::new();
        let mut closed = Vec::new();
        for (p, s) in &all {
            // free: no strictly more general pattern with equal support
            let is_free = all
                .iter()
                .filter(|(q, _)| q != p && p.contains_pattern(q))
                .all(|(_, sq)| sq != s);
            // closed: no strictly larger pattern with equal support
            let is_closed = all
                .iter()
                .filter(|(q, _)| q != p && q.contains_pattern(p))
                .all(|(_, sq)| sq != s);
            if is_free {
                free.push((p.clone(), *s));
            }
            if is_closed {
                closed.push((p.clone(), *s));
            }
        }
        free.sort_unstable();
        closed.sort_unstable();
        (free, closed)
    }

    fn check_against_brute_force(rel: &Relation, k: usize) {
        let mined = mine_free_closed(rel, k, MineOptions::default());
        let (bf_free, bf_closed) = brute_force(rel, k);
        let mut got_free: Vec<(Pattern, usize)> = mined
            .free
            .iter()
            .map(|f| (f.pattern.clone(), f.support as usize))
            .collect();
        got_free.sort_unstable();
        assert_eq!(got_free, bf_free, "free sets disagree at k={k}");
        let mut got_closed: Vec<(Pattern, usize)> = mined
            .closed
            .iter()
            .map(|c| (c.pattern.clone(), c.support as usize))
            .collect();
        got_closed.sort_unstable();
        assert_eq!(got_closed, bf_closed, "closed sets disagree at k={k}");
        // every free set's closure has the same support and contains it
        for f in &mined.free {
            let clo = &mined.closed[f.closure as usize];
            assert_eq!(clo.support, f.support);
            assert!(clo.pattern.contains_pattern(&f.pattern));
        }
        // C2F: every closed set has a free generator
        let mut generated = vec![false; mined.closed.len()];
        for f in &mined.free {
            generated[f.closure as usize] = true;
        }
        assert!(
            generated.iter().all(|&g| g),
            "a closed set has no generator"
        );
    }

    #[test]
    fn cust_matches_brute_force_at_k2() {
        check_against_brute_force(&cust(), 2);
    }

    #[test]
    fn cust_matches_brute_force_at_k3() {
        check_against_brute_force(&cust(), 3);
    }

    #[test]
    fn cust_matches_brute_force_at_k1() {
        check_against_brute_force(&cust(), 1);
    }

    /// The free generators of closed set `c`: the free sets whose
    /// closure it is.
    fn generators(mined: &Mined, c: usize) -> Vec<&Pattern> {
        mined
            .free
            .iter()
            .filter(|f| f.closure as usize == c)
            .map(|f| &f.pattern)
            .collect()
    }

    #[test]
    fn fig2_example6_closed_and_free_sets() {
        // Fig. 2 of the paper: the closed set ([CC,AC,CT,ZIP],(01,908,MH,07974))
        // has support 3 and free generators ([CC,AC],(01,908)) and
        // ([ZIP],(07974)); the closed set ([AC,CT],(908,MH)) has support 4
        // with free generators ([AC],(908)) and ([CT],(MH)).
        let r = cust();
        let mined = mine_free_closed(&r, 3, MineOptions::default());

        let big = pat(
            &r,
            &[("CC", "01"), ("AC", "908"), ("CT", "MH"), ("ZIP", "07974")],
        );
        let cidx = mined
            .closed
            .iter()
            .position(|c| c.pattern == big)
            .expect("closed set of Fig. 2 must be mined");
        assert_eq!(mined.closed[cidx].support, 3);
        let gens = generators(&mined, cidx);
        let g1 = pat(&r, &[("CC", "01"), ("AC", "908")]);
        let g2 = pat(&r, &[("ZIP", "07974")]);
        assert!(gens.contains(&&g1), "free generators: {gens:?}");
        assert!(gens.contains(&&g2));
        // Fig. 2 draws only these two generators because it illustrates the
        // discovery of CFDs with RHS (CT, MH); by the Section 3.1 definition
        // the set has a third free generator, ([CC,CT],(01,MH)) — support 3,
        // while its generalizations (CC,01) and (CT,MH) have supports 5 and
        // 4 — which a generator containing CT can never turn into that RHS.
        let g3 = pat(&r, &[("CC", "01"), ("CT", "MH")]);
        assert!(gens.contains(&&g3));
        assert_eq!(gens.len(), 3);

        let acct = pat(&r, &[("AC", "908"), ("CT", "MH")]);
        let cidx2 = mined
            .closed
            .iter()
            .position(|c| c.pattern == acct)
            .expect("([AC,CT],(908,MH)) must be closed");
        assert_eq!(mined.closed[cidx2].support, 4);
        let gens2 = generators(&mined, cidx2);
        assert!(gens2.contains(&&pat(&r, &[("AC", "908")])));
        assert!(gens2.contains(&&pat(&r, &[("CT", "MH")])));
    }

    #[test]
    fn empty_pattern_always_free() {
        let r = cust();
        let mined = mine_free_closed(&r, 8, MineOptions::default());
        assert_eq!(mined.free[0].pattern, Pattern::empty());
        assert_eq!(mined.free[0].support, 8);
        // at k=8 nothing else is frequent on cust except ∅
        assert_eq!(mined.free.len(), 1);
        // k > |r| ⇒ nothing at all
        let none = mine_free_closed(&r, 9, MineOptions::default());
        assert!(none.free.is_empty());
    }

    #[test]
    fn constant_column_lands_in_empty_closure() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let r =
            relation_from_rows(schema, &[vec!["x", "k"], vec!["y", "k"], vec!["x", "k"]]).unwrap();
        let mined = mine_free_closed(&r, 1, MineOptions::default());
        // clo(∅) contains (B,k); (B,k) itself is not free
        let clo0 = &mined.closed[mined.free[0].closure as usize];
        let bk = pat(&r, &[("B", "k")]);
        assert!(clo0.pattern.contains_pattern(&bk));
        assert_eq!(mined.free_index(&bk), None);
        // (A,x) is free with support 2
        let ax = pat(&r, &[("A", "x")]);
        let i = mined.free_index(&ax).unwrap();
        assert_eq!(mined.free[i].support, 2);
        assert_eq!(mined.free[i].tids(), &[0, 2]);
    }

    #[test]
    fn tids_track_supporting_rows() {
        let r = cust();
        let mined = mine_free_closed(&r, 2, MineOptions::default());
        let p = pat(&r, &[("CC", "01"), ("AC", "908")]);
        let i = mined.free_index(&p).unwrap();
        assert_eq!(mined.free[i].tids(), &[0, 1, 3]);
        // keep_tids = false drops them
        let lean = mine_free_closed(
            &r,
            2,
            MineOptions {
                keep_tids: false,
                ..MineOptions::default()
            },
        );
        assert!(lean.free[0].tids.is_none());
    }

    #[test]
    fn free_sets_ordered_by_size() {
        let r = cust();
        let mined = mine_free_closed(&r, 2, MineOptions::default());
        let sizes: Vec<usize> = mined.free.iter().map(|f| f.pattern.len()).collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
    }
}
