//! The Flipper mining driver: a two-dimensional Apriori over the search
//! table `M[h][k]` with the paper's four cumulative pruning stages.
//!
//! # Search order (paper §4.3.1, Fig. 7b)
//!
//! The top two rows are processed in zigzag —
//! `Q(1,2) → Q(2,2) → Q(1,3) → Q(2,3) → …` — so the TPG condition
//! (Theorem 3) can be checked as early as possible; the remaining rows are
//! processed one at a time, left to right.
//!
//! # Candidate generation
//!
//! * Row 1 is mined by plain Apriori: all frequent level-1 itemsets (over
//!   items from **distinct** level-1 categories, per Definition 2 — at
//!   level 1 this means all distinct frequent nodes).
//! * For rows `h ≥ 2` with flipping pruning on, a cell `Q(h,k)` receives the
//!   **union** of
//!   1. *vertical* candidates — children-combinations of the chain-alive
//!      itemsets of `Q(h−1,k)` (§4.2.2: chain-broken itemsets are never
//!      extended vertically), generated through a tid index: only
//!      combinations that actually co-occur in some transaction covering
//!      the parent set are enumerated (any other combination has support
//!      0 < θ, since θ ≥ 1 always), and
//!   2. *horizontal* candidates — Apriori joins of the frequent itemsets of
//!      `Q(h,k−1)` (§4.2.2: supersets of chain-broken itemsets must still be
//!      counted).
//!
//!   The union is a completeness fix over a literal reading of the paper,
//!   which extends rows `h ≥ 2` by the horizontal join alone. Correlation
//!   is not monotone, so a viable `(h,k)`-itemset `S` — frequent,
//!   correlated, with a chain-alive parent — can have `(k−1)`-subsets that
//!   were never counted at level `h` (nothing forces a subset's own parent
//!   to be chain-alive), and the join then never reaches `S`. The vertical
//!   source always does: `S`'s parent is chain-alive in `Q(h−1,k)`, every
//!   item of `S` is frequent (its support is at least `sup(S) ≥ θ`), and
//!   `S` occurs in a transaction covering the parent, so the
//!   children-combination enumeration produces it. The filters applied
//!   afterwards are sound: SIBP bans (Theorem 2) and a `(k−1)`-subset
//!   known to be infrequent (support is anti-monotone). Hence every
//!   flipping pattern's level-`h` slice is a candidate of its cell.
//! * Vertical candidates leave the generator **with their exact support**.
//!   A level-`h` transaction that contains a children-combination also
//!   contains its parent set one level up (the view is a projection), so
//!   the covering transactions the generator walks include every
//!   transaction containing the combination, and the number of them in
//!   which the combination is enumerated *is* its level-`h` support.
//! * With flipping pruning off (BASIC), every row is mined independently by
//!   plain Apriori and flips are recovered post-hoc — the paper's baseline.
//!
//! # Execution
//!
//! Only candidates whose support the generator did not establish — row 1,
//! horizontal-join candidates not produced vertically, and every BASIC
//! candidate — reach support counting; vertical supports are charged to
//! [`RunStats::fused_supports`]. The remainder goes through the
//! cache-aware sharded execution layer
//! ([`SupportCounter::count_batch_cached`]): with `cfg.threads != 1` each
//! cell's batch is chunked over scoped worker threads, and every worker
//! slot owns a budgeted cross-cell prefix cache
//! ([`flipper_data::CellCache`], budget from `cfg.cache_budget`) so the
//! `(k-1)`-prefixes materialized for one cell seed the next cell's
//! counting. Seeded runs ([`mine_with_view_seeded`]) first answer those
//! candidates from a session-level [`SupportCache`]. Results and
//! statistics are bit-identical at every thread count, cache budget, and
//! seed-cache state.

use crate::cell::{Cell, ItemsetInfo};
use crate::config::FlipperConfig;
use crate::results::{CellSummary, ChainLevel, FlippingPattern, MiningResult};
use crate::stats::{RunStats, Stopwatch};
use flipper_data::tidset::intersect_many;
use flipper_data::{
    CellCache, Itemset, MultiLevelView, SupportCache, SupportCounter, TransactionDb,
};
use flipper_guard::{CancelToken, GuardError};
use flipper_measures::{CorrelationMeasure, Label, Thresholds};
use flipper_taxonomy::{NodeId, Taxonomy};
use std::collections::{BTreeMap, BTreeSet};

/// Mine all flipping patterns from `db` under `tax` with configuration
/// `cfg`. Convenience wrapper that builds the multi-level view internally;
/// use [`mine_with_view`] to amortize the projection across runs.
pub fn mine(tax: &Taxonomy, db: &TransactionDb, cfg: &FlipperConfig) -> MiningResult {
    let view = MultiLevelView::build(db, tax);
    mine_with_view(tax, &view, cfg)
}

/// Mine all flipping patterns using a prebuilt [`MultiLevelView`].
pub fn mine_with_view(tax: &Taxonomy, view: &MultiLevelView, cfg: &FlipperConfig) -> MiningResult {
    Miner::new(tax, view, cfg)
        .run()
        .unwrap_or_else(|_| unreachable!("an unguarded run has no token to interrupt it"))
}

/// [`mine_with_view`] under a [`CancelToken`]: the token is checked at
/// every cell boundary, so a cancel or deadline interrupts the run within
/// one cell's worth of counting and surfaces as a typed [`GuardError`].
/// Panics anywhere inside the run are trapped and converted too. A guarded
/// run that completes returns bytes identical to an unguarded one — the
/// token influences *whether* the run finishes, never *what* it computes.
pub fn mine_with_view_guarded(
    tax: &Taxonomy,
    view: &MultiLevelView,
    cfg: &FlipperConfig,
    token: &CancelToken,
) -> Result<MiningResult, GuardError> {
    flipper_guard::trap("mine", || {
        let mut miner = Miner::new(tax, view, cfg);
        miner.token = Some(token);
        miner.run()
    })
    .and_then(|r| r)
}

/// [`mine_with_view_seeded`] under a [`CancelToken`]; see
/// [`mine_with_view_guarded`] for the interruption semantics.
pub fn mine_with_view_seeded_guarded(
    tax: &Taxonomy,
    view: &MultiLevelView,
    cfg: &FlipperConfig,
    seeds: &SupportCache,
    token: &CancelToken,
) -> Result<MiningResult, GuardError> {
    flipper_guard::trap("mine", || {
        let mut miner = Miner::new(tax, view, cfg);
        miner.seeds = Some(seeds);
        miner.token = Some(token);
        miner.run()
    })
    .and_then(|r| r)
}

/// Mine with a prebuilt view *and* a session-level support seed cache.
///
/// Vertical candidates never consult `seeds`: the generator already knows
/// their supports ([`RunStats::fused_supports`]). Every other candidate
/// found in `seeds` skips counting entirely and is charged to
/// [`RunStats::seeded_supports`]; the rest are counted as usual.
/// Supports are facts about the data alone — independent of measure,
/// thresholds, pruning, engine, or thread count — so seeding from any
/// completed run over the same view is sound and the mined patterns,
/// labels, and `flipper-results/v1` bytes are identical to an unseeded
/// run.
pub fn mine_with_view_seeded(
    tax: &Taxonomy,
    view: &MultiLevelView,
    cfg: &FlipperConfig,
    seeds: &SupportCache,
) -> MiningResult {
    let mut miner = Miner::new(tax, view, cfg);
    miner.seeds = Some(seeds);
    miner
        .run()
        .unwrap_or_else(|_| unreachable!("an unguarded run has no token to interrupt it"))
}

/// Per-row mutable state. Ordered maps throughout: every iteration over
/// this state can reach the `flipper-results/v1` bytes, so no container
/// here may iterate in hash order (`flipper-lint`'s determinism rule).
struct RowState {
    /// Evaluated cells of this row, keyed by itemset size `k`.
    cells: BTreeMap<usize, Cell>,
    /// Frequent 1-items at this level, ascending by node id.
    freq_items: Vec<NodeId>,
    /// Frequent 1-items sorted ascending by support (SIBP's list `L_h`).
    by_support: Vec<NodeId>,
    /// SIBP removal-candidate prefix `R_h(k)` per column.
    removal_prefix: BTreeMap<usize, BTreeSet<NodeId>>,
    /// SIBP-banned items: supersets of size > `ban_k` are pruned.
    banned: BTreeMap<NodeId, usize>,
    /// Item supports at this level, indexed by `NodeId::index()` (absent
    /// items hold 0). Built once per level so `eval_cell`'s correlation
    /// loop reads supports from a flat array instead of issuing one virtual
    /// `SupportCounter::item_support` call per item per frequent candidate.
    sup_cache: Vec<u64>,
    /// Total itemsets stored in this row (memory accounting).
    stored: u64,
}

impl RowState {
    fn is_banned(&self, item: NodeId, k: usize) -> bool {
        self.banned.get(&item).is_some_and(|&ban_k| k > ban_k)
    }
}

/// One cell's candidate batch ([`Miner::gen_candidates`]). Both halves are
/// sorted ascending and duplicate-free, and no itemset is in both.
struct Candidates {
    /// Vertical candidates with the exact support the generator tallied.
    fused: Vec<(Itemset, u64)>,
    /// Candidates the seed cache or the counter must answer.
    unknown: Vec<Itemset>,
}

/// Combination spaces of at most this many combinations are tallied in a
/// flat array ([`ComboTally`]): 256 KiB of `u32` counters per cell.
const DENSE_TALLY_CAP: usize = 1 << 16;

/// Per-parent tally of the children-combinations [`Miner::gen_vertical`]
/// enumerates. A combination is named by one position per parent slot
/// into that slot's frequent-children list. When the parent's combination
/// space `Π |children|` is at most [`DENSE_TALLY_CAP`], a tally is one
/// increment in a flat array at the combination's mixed-radix number;
/// wider spaces (only very flat taxonomies reach them) fall back to an
/// ordered map keyed by the sorted items.
#[derive(Default)]
struct ComboTally {
    /// Mixed-radix place value of each slot for the current parent; empty
    /// when the current parent tallies into `sparse`.
    strides: Vec<usize>,
    /// Flat counters, all zero between parents; allocated on first use.
    dense: Vec<u32>,
    /// Indices of the non-zero `dense` counters.
    touched: Vec<usize>,
    /// Tallies of wide combination spaces, keyed by the sorted items.
    sparse: BTreeMap<Vec<NodeId>, u64>,
    /// Reused `sparse` probe key.
    key: Vec<NodeId>,
}

impl ComboTally {
    /// Prepare for a parent set whose slots have `children` frequent
    /// children each (every list non-empty, at least two slots).
    fn begin(&mut self, children: &[Vec<NodeId>]) {
        self.strides.clear();
        let space = children
            .iter()
            .try_fold(1usize, |acc, c| acc.checked_mul(c.len()));
        if space.is_some_and(|n| n <= DENSE_TALLY_CAP) {
            if self.dense.is_empty() {
                self.dense = vec![0; DENSE_TALLY_CAP];
            }
            let mut place = 1;
            for c in children.iter().rev() {
                self.strides.push(place);
                place *= c.len();
            }
            self.strides.reverse();
        }
    }

    /// Count one occurrence of the combination taking child `pos[i]` of
    /// slot `i`.
    fn add(&mut self, children: &[Vec<NodeId>], pos: impl Iterator<Item = usize>) {
        if self.strides.is_empty() {
            self.key.clear();
            self.key.extend(pos.zip(children).map(|(p, c)| c[p]));
            self.key.sort_unstable();
            match self.sparse.get_mut(self.key.as_slice()) {
                Some(n) => *n += 1,
                None => {
                    self.sparse.insert(self.key.clone(), 1);
                }
            }
        } else {
            let at: usize = pos.zip(&self.strides).map(|(p, s)| p * s).sum();
            if self.dense[at] == 0 {
                self.touched.push(at);
            }
            self.dense[at] += 1;
        }
    }

    /// Move the parent's combinations and their counts into `out`, leaving
    /// the tally empty. Children of distinct parents are disjoint, so the
    /// sorted items of a combination form a strictly increasing sequence.
    fn drain_into(&mut self, children: &[Vec<NodeId>], out: &mut Vec<(Itemset, u64)>) {
        for at in self.touched.drain(..) {
            let mut items: Vec<NodeId> = children
                .iter()
                .zip(&self.strides)
                .map(|(c, s)| c[at / s % c.len()])
                .collect();
            items.sort_unstable();
            let n = std::mem::take(&mut self.dense[at]);
            out.push((Itemset::from_sorted(items), u64::from(n)));
        }
        out.extend(
            std::mem::take(&mut self.sparse)
                .into_iter()
                .map(|(items, n)| (Itemset::from_sorted(items), n)),
        );
    }
}

struct Miner<'a> {
    tax: &'a Taxonomy,
    cfg: &'a FlipperConfig,
    view: &'a MultiLevelView,
    /// Resolved worker-thread count for sharded counting (1 = sequential).
    threads: usize,
    counter: Box<dyn SupportCounter + 'a>,
    /// Cross-cell prefix cache handed to every counting batch
    /// ([`SupportCounter::count_batch_cached`]); budget from
    /// `cfg.cache_budget`, disabled at budget 0.
    cache: CellCache,
    /// Session-level support seeds ([`mine_with_view_seeded`]); `None` for
    /// plain runs.
    seeds: Option<&'a SupportCache>,
    /// Cooperative-cancellation token ([`mine_with_view_guarded`]); checked
    /// at cell boundaries only, so the live fast path stays off the
    /// per-candidate hot loops. `None` for unguarded runs.
    token: Option<&'a CancelToken>,
    /// Per-level absolute minimum supports (index `h-1`).
    thetas: Vec<u64>,
    /// Level-1 ancestor of every node (index = node id).
    top_cat: Vec<NodeId>,
    rows: Vec<RowState>,
    stats: RunStats,
    cells_out: Vec<CellSummary>,
    /// Column bound: candidates with `k > k_cap` are never generated.
    k_cap: usize,
}

impl<'a> Miner<'a> {
    fn new(tax: &'a Taxonomy, view: &'a MultiLevelView, cfg: &'a FlipperConfig) -> Self {
        assert_eq!(
            view.height(),
            tax.height(),
            "view must be built from the same taxonomy"
        );
        let counter = cfg.engine.make(view);
        let n = counter.num_transactions();
        let height = tax.height();
        let thetas = cfg.min_support.resolve(n, height);

        let mut top_cat = vec![NodeId::ROOT; tax.node_count()];
        for node in tax.node_ids().skip(1) {
            top_cat[node.index()] = tax
                .ancestor_at_level(node, 1)
                // lint:allow(panic-hygiene) taxonomy invariant: every non-root node has a level-1 ancestor
                .expect("non-root nodes have level-1 ancestors");
        }

        let mut rows = Vec::with_capacity(height);
        for h in 1..=height {
            let mut sup_cache = vec![0u64; tax.node_count()];
            for &it in counter.present_items(h) {
                sup_cache[it.index()] = counter.item_support(h, it);
            }
            let mut freq_items: Vec<NodeId> = counter
                .present_items(h)
                .iter()
                .copied()
                .filter(|&it| sup_cache[it.index()] >= thetas[h - 1])
                .collect();
            freq_items.sort_unstable();
            let mut by_support = freq_items.clone();
            by_support.sort_by_key(|&it| (sup_cache[it.index()], it));
            rows.push(RowState {
                cells: BTreeMap::new(),
                freq_items,
                by_support,
                removal_prefix: BTreeMap::new(),
                banned: BTreeMap::new(),
                sup_cache,
                stored: 0,
            });
        }

        // Column bound: distinct level-1 categories, the widest transaction,
        // and the configured cap.
        let cats = tax.nodes_at_level(1).map(|v| v.len()).unwrap_or(0);
        let max_width = (0..view.num_transactions())
            .map(|i| view.level(height).transaction(i).len())
            .max()
            .unwrap_or(0);
        let mut k_cap = cats.min(max_width);
        if let Some(mk) = cfg.max_k {
            k_cap = k_cap.min(mk);
        }

        Miner {
            tax,
            cfg,
            view,
            threads: flipper_data::exec::effective_threads(cfg.threads),
            counter,
            cache: CellCache::new(cfg.cache_budget),
            seeds: None,
            token: None,
            thetas,
            top_cat,
            rows,
            stats: RunStats::default(),
            cells_out: Vec::new(),
            k_cap,
        }
    }

    #[inline]
    fn cat(&self, item: NodeId) -> NodeId {
        self.top_cat[item.index()]
    }

    /// Parent itemset (generalization one level up). Items in candidates
    /// descend from distinct categories, so parents never collide.
    fn parent_set(&self, set: &Itemset) -> Itemset {
        set.map(|it| {
            self.tax
                .parent(it)
                // lint:allow(panic-hygiene) only called on h ≥ 2 itemsets, whose items all have parents
                .expect("items below level 1 have parents")
        })
    }

    fn cell(&self, h: usize, k: usize) -> Option<&Cell> {
        self.rows[h - 1].cells.get(&k)
    }

    // ---- candidate generation --------------------------------------------

    /// All frequent-item pairs at level `h` from distinct categories,
    /// subject to SIBP bans. Used for row 1 and for the BASIC variant;
    /// flipping variants generate pairs at `h ≥ 2` vertically from
    /// chain-alive parent pairs instead ([`Self::gen_vertical`]).
    fn gen_pairs(&mut self, h: usize) -> Vec<Itemset> {
        let row = &self.rows[h - 1];
        let items = &row.freq_items;
        let mut out = Vec::new();
        let mut sibp_pruned = 0u64;
        for (i, &x) in items.iter().enumerate() {
            if row.is_banned(x, 2) {
                continue;
            }
            for &y in &items[i + 1..] {
                if self.cat(x) == self.cat(y) {
                    continue;
                }
                if row.is_banned(y, 2) {
                    sibp_pruned += 1;
                    continue;
                }
                out.push(Itemset::pair(x, y));
            }
        }
        self.stats.pruned_by_sibp += sibp_pruned;
        out
    }

    /// Horizontal Apriori join over the frequent itemsets of `Q(h,k-1)`.
    fn gen_horizontal(&mut self, h: usize, k: usize) -> Vec<Itemset> {
        let Some(prev) = self.cell(h, k - 1) else {
            return Vec::new();
        };
        let mut freq: Vec<&Itemset> = prev.frequent().map(|(s, _)| s).collect();
        freq.sort_unstable();
        let mut out = Vec::new();
        // Join sets sharing their (k-2)-prefix; sorted order groups them.
        let mut i = 0;
        while i < freq.len() {
            let prefix = &freq[i].items()[..k - 2];
            let mut j = i;
            while j < freq.len() && &freq[j].items()[..k - 2] == prefix {
                j += 1;
            }
            for p in i..j {
                for q in (p + 1)..j {
                    let a = freq[p];
                    let b = freq[q];
                    let (la, lb) = (a.items()[k - 2], b.items()[k - 2]);
                    if self.cat(la) == self.cat(lb) {
                        continue;
                    }
                    // lint:allow(panic-hygiene) join precondition holds by the grouping loop above
                    let joined = a.apriori_join(b).expect("same prefix, distinct last items");
                    out.push(joined);
                }
            }
            i = j;
        }
        // Classic Apriori prune: every (k-1)-subset must be frequent in the
        // previous cell. (Our cells can be unions wider than the pure join
        // closure, so membership is checked explicitly.)
        // lint:allow(panic-hygiene) the early return at the top guarantees the cell exists
        let prev = self.cell(h, k - 1).expect("checked above");
        let mut kept = Vec::with_capacity(out.len());
        let mut pruned = 0u64;
        for cand in out {
            let ok = cand
                .subsets_k_minus_1()
                .all(|s| prev.get(&s).is_some_and(|i| i.label != Label::Infrequent));
            if ok {
                kept.push(cand);
            } else {
                pruned += 1;
            }
        }
        self.stats.pruned_by_support += pruned;
        kept
    }

    /// Vertical candidates for `Q(h,k)` (`k ≥ 2`), each with its exact
    /// level-`h` support: combinations of level-`h` children of the
    /// chain-alive itemsets of `Q(h-1,k)`, restricted to frequent level-`h`
    /// items.
    ///
    /// Generated through a tid index instead of a blind cartesian product
    /// of children lists: for each alive parent set, the parents'
    /// level-`(h-1)` tid-lists are intersected and only children actually
    /// present in a covering transaction are combined. A combination
    /// occurring in no covering transaction has support 0 < θ (θ ≥ 1 by
    /// [`crate::config::MinSupports::resolve`]), so it could never become
    /// frequent — skipping it changes no labels, no chains and no patterns,
    /// while the old cartesian product exploded exponentially in `k`
    /// (fanoutᵏ combos per parent, almost all with zero support).
    ///
    /// Every transaction containing a combination covers its parent set,
    /// and the odometer enumerates each combination at most once per
    /// transaction, so the per-parent tally of enumerations is the
    /// combination's support — the caller never recounts it.
    fn gen_vertical(&mut self, h: usize, k: usize) -> Vec<(Itemset, u64)> {
        const NO_SLOT: u32 = u32::MAX;
        let Some(above) = self.cell(h - 1, k) else {
            return Vec::new();
        };
        let row = &self.rows[h - 1];
        let theta = self.thetas[h - 1];
        let lv_above = self.view.level(h - 1);
        let lv_here = self.view.level(h);
        let mut out: Vec<(Itemset, u64)> = Vec::new();
        // Node → (parent slot, position in that slot's frequent-children
        // list) for the current parent set, so filling the slots costs one
        // probe per transaction item. Set and reset per parent: every entry
        // is `NO_SLOT` between parents.
        let mut slot_of: Vec<(u32, u32)> = vec![(NO_SLOT, 0); self.tax.node_count()];
        // Per parent slot, the positions of the frequent children present
        // in the current transaction.
        let mut slots: Vec<Vec<u32>> = vec![Vec::new(); k];
        // The distinct combinations of the current parent with their
        // occurrence counts. The same combination recurs in every
        // transaction it occurs in, so tallying per parent bounds transient
        // memory by the distinct-candidate count, not by Σ parent supports.
        let mut tally = ComboTally::default();
        let mut combo = vec![0usize; k];
        let (mut tids_scanned, mut combos_enumerated) = (0u64, 0u64);
        for (pset, _) in above.alive() {
            // Per parent slot, the frequent children — computed once per
            // parent, not once per covering transaction.
            let freq_children: Vec<Vec<NodeId>> = pset
                .items()
                .iter()
                .map(|&p| {
                    self.tax
                        .children(p)
                        .iter()
                        .copied()
                        .filter(|&c| lv_here.item_support(c) >= theta)
                        .collect()
                })
                .collect();
            if freq_children.iter().any(Vec::is_empty) {
                continue;
            }
            for (slot, children) in (0u32..).zip(&freq_children) {
                for (pos, &c) in (0u32..).zip(children) {
                    slot_of[c.index()] = (slot, pos);
                }
            }
            tally.begin(&freq_children);
            let tid_lists: Vec<&[u32]> = pset.items().iter().map(|&p| lv_above.tidset(p)).collect();
            let tids = intersect_many(&tid_lists);
            tids_scanned += tids.len() as u64;
            for &t in &tids {
                slots.iter_mut().for_each(Vec::clear);
                for &it in lv_here.transaction(t as usize) {
                    let (slot, pos) = slot_of[it.index()];
                    if slot != NO_SLOT {
                        slots[slot as usize].push(pos);
                    }
                }
                if slots.iter().any(Vec::is_empty) {
                    continue;
                }
                // Odometer over the (typically singleton) slot lists.
                combo.fill(0);
                'outer: loop {
                    combos_enumerated += 1;
                    tally.add(
                        &freq_children,
                        combo.iter().zip(&slots).map(|(&c, s)| s[c] as usize),
                    );
                    for i in (0..k).rev() {
                        combo[i] += 1;
                        if combo[i] < slots[i].len() {
                            continue 'outer;
                        }
                        combo[i] = 0;
                        if i == 0 {
                            break 'outer;
                        }
                    }
                }
            }
            for &c in freq_children.iter().flatten() {
                slot_of[c.index()] = (NO_SLOT, 0);
            }
            // Distinct parents yield distinct children-combinations, so
            // draining per parent loses no cross-parent dedup; `out` is
            // duplicate-free. The ban and prune passes below are
            // order-independent, and the caller sorts the result.
            tally.drain_into(&freq_children, &mut out);
        }
        self.stats.covering_tids_scanned += tids_scanned;
        self.stats.combinations_enumerated += combos_enumerated;
        let mut sibp_pruned = 0u64;
        out.retain(|(cand, _)| {
            let banned = cand.items().iter().any(|&it| row.is_banned(it, k));
            sibp_pruned += u64::from(banned);
            !banned
        });
        self.stats.pruned_by_sibp += sibp_pruned;
        // Known-infrequent-subset prune: a (k-1)-subset *present* in
        // Q(h,k-1) and labeled infrequent dooms the candidate. (Absent
        // subsets carry no information — they may simply never have been
        // candidates.)
        if let Some(prev) = self.cell(h, k - 1) {
            let before = out.len();
            out.retain(|(cand, _)| {
                !cand
                    .subsets_k_minus_1()
                    .any(|s| prev.get(&s).is_some_and(|i| i.label == Label::Infrequent))
            });
            self.stats.pruned_by_support += (before - out.len()) as u64;
        }
        out
    }

    /// The candidate batch of `Q(h,k)`, split by where its supports come
    /// from. Vertical candidates carry the support the generator counted;
    /// a horizontal-join candidate that is also vertical keeps that known
    /// support, and the rest are left to [`Self::count_supports`]. BASIC and
    /// row 1 never generate vertically, so their `fused` half stays empty
    /// and unallocated.
    fn gen_candidates(&mut self, h: usize, k: usize) -> Candidates {
        if self.cfg.pruning.flipping && h >= 2 {
            // Vertical from chain-alive parents (the only source at k = 2),
            // unioned with the horizontal Apriori join for wider cells.
            let mut fused = self.gen_vertical(h, k);
            fused.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            let mut unknown = if k >= 3 {
                self.gen_horizontal(h, k)
            } else {
                Vec::new()
            };
            unknown.sort_unstable();
            unknown.dedup();
            unknown.retain(|set| fused.binary_search_by(|(f, _)| f.cmp(set)).is_err());
            Candidates { fused, unknown }
        } else {
            let mut unknown = if k == 2 {
                self.gen_pairs(h)
            } else {
                self.gen_horizontal(h, k)
            };
            unknown.sort_unstable();
            unknown.dedup();
            Candidates {
                fused: Vec::new(),
                unknown,
            }
        }
    }

    // ---- evaluation -------------------------------------------------------

    /// Count supports for the sorted batch of candidates the generator
    /// left unknown: answer what the seed cache already knows, count the
    /// rest through the cross-cell cached path. Seeded supports are exact
    /// values from a completed run, so the merged vector is identical to
    /// counting everything.
    fn count_supports(&mut self, h: usize, candidates: &[Itemset]) -> Vec<u64> {
        let _span = flipper_obs::span("mine.count")
            .arg("h", h as u64)
            .arg("batch", candidates.len() as u64);
        flipper_obs::observe("flipper_batch_candidates", candidates.len() as u64);
        let seeds = self.seeds.filter(|s| !s.is_empty());
        let Some(seeds) = seeds else {
            return self
                .counter
                .count_batch_cached(h, candidates, self.threads, &mut self.cache);
        };
        // One ordered range-merge over the seed cache instead of a map
        // probe (plus an `Itemset` clone for the probe key) per candidate;
        // `gen_candidates` sorts and dedups, which `seed_batch` requires.
        let mut out = vec![0u64; candidates.len()];
        let mut known = vec![false; candidates.len()];
        let hits = {
            let _seed_span = flipper_obs::span("mine.seed").arg("h", h as u64);
            seeds.seed_batch(h, candidates, |i, sup| {
                out[i] = sup;
                known[i] = true;
            })
        };
        self.stats.seeded_supports += hits;
        if hits as usize == candidates.len() {
            return out;
        }
        let miss = candidates.len() - hits as usize;
        let mut unknown: Vec<Itemset> = Vec::with_capacity(miss);
        let mut unknown_at: Vec<usize> = Vec::with_capacity(miss);
        for (i, set) in candidates.iter().enumerate() {
            if !known[i] {
                unknown_at.push(i);
                unknown.push(set.clone());
            }
        }
        {
            // `unknown` preserves the sorted order of `candidates`, so the
            // prefix-group kernels see a well-formed batch.
            let counted =
                self.counter
                    .count_batch_cached(h, &unknown, self.threads, &mut self.cache);
            for (i, sup) in unknown_at.into_iter().zip(counted) {
                out[i] = sup;
            }
        }
        out
    }

    /// Evaluate cell `Q(h,k)`: generate, count, label, compute chain
    /// aliveness, record statistics.
    fn eval_cell(&mut self, h: usize, k: usize) {
        let _cell_span = flipper_obs::span("mine.cell")
            .arg("h", h as u64)
            .arg("k", k as u64);
        let Candidates { fused, unknown } = {
            let _gen_span = flipper_obs::span("mine.gen")
                .arg("h", h as u64)
                .arg("k", k as u64);
            self.gen_candidates(h, k)
        };
        self.stats.cells_evaluated += 1;
        self.stats.candidates_generated += (fused.len() + unknown.len()) as u64;
        self.stats.fused_supports += fused.len() as u64;

        let theta = self.thetas[h - 1];
        let thresholds: Thresholds = self.cfg.thresholds;
        let measure = self.cfg.measure;
        // Snapshot cache counters around counting so the trace carries one
        // `cache.cell` event per cell with the hit/miss deltas it caused.
        let cache_before = flipper_obs::enabled().then(|| self.cache.stats());
        let counted = self.count_supports(h, &unknown);
        if let Some(before) = cache_before {
            let after = self.cache.stats();
            flipper_obs::event(
                "cache.cell",
                &[
                    ("h", h as u64),
                    ("k", k as u64),
                    ("lookups", after.lookups - before.lookups),
                    ("parent_hits", after.parent_hits - before.parent_hits),
                    ("insertions", after.insertions - before.insertions),
                    ("evicted", after.evicted_cells - before.evicted_cells),
                ],
            );
        }

        let mut cell = Cell::new();
        // Per-item max correlation for SIBP, indexed by `NodeId::index()` —
        // a flat array instead of a hash map so downstream iteration order
        // is structural, not hash-dependent.
        let mut max_corr: Vec<f64> = if self.cfg.pruning.sibp {
            vec![0.0; self.tax.node_count()]
        } else {
            Vec::new()
        };
        let (mut n_pos, mut n_neg, mut n_freq) = (0usize, 0usize, 0usize);
        // Flat per-level support cache plus one reused buffer: the
        // correlation loop issues no virtual calls and no per-candidate
        // allocations.
        let sup_cache = &self.rows[h - 1].sup_cache;
        let mut item_sups: Vec<u64> = Vec::new();
        // Merge the two sorted halves back into one ascending batch, so
        // every `Cell::insert` below is an append.
        let mut fused = fused.into_iter().peekable();
        let mut counted = unknown.into_iter().zip(counted).peekable();
        let batch = std::iter::from_fn(|| match (fused.peek(), counted.peek()) {
            (Some((f, _)), Some((c, _))) if c < f => counted.next(),
            (Some(_), _) => fused.next(),
            (None, _) => counted.next(),
        });
        for (set, sup) in batch {
            let frequent = sup >= theta;
            let (corr, label) = if frequent {
                item_sups.clear();
                item_sups.extend(set.items().iter().map(|&it| sup_cache[it.index()]));
                let corr = measure.value(sup, &item_sups);
                (corr, thresholds.label_frequent(corr))
            } else {
                (0.0, Label::Infrequent)
            };
            if frequent {
                n_freq += 1;
                match label {
                    Label::Positive => n_pos += 1,
                    Label::Negative => n_neg += 1,
                    _ => {}
                }
            }
            let chain_alive = label.is_correlated()
                && (h == 1 || {
                    let parent = self.parent_set(&set);
                    self.cell(h - 1, k)
                        .and_then(|c| c.get(&parent))
                        .is_some_and(|pi| pi.chain_alive && pi.label.flips_to(label))
                });
            if self.cfg.pruning.sibp {
                for &it in set.items() {
                    let e = &mut max_corr[it.index()];
                    if corr > *e {
                        *e = corr;
                    }
                }
            }
            cell.insert(
                set,
                ItemsetInfo {
                    support: sup,
                    corr,
                    label,
                    chain_alive,
                },
            );
        }

        self.stats.frequent_found += n_freq as u64;
        self.stats.positive_found += n_pos as u64;
        self.stats.negative_found += n_neg as u64;
        self.cells_out.push(CellSummary {
            level: h,
            k,
            evaluated: cell.len(),
            frequent: n_freq,
            positive: n_pos,
            negative: n_neg,
            alive: cell.alive().count(),
        });

        let row = &mut self.rows[h - 1];
        row.stored += cell.len() as u64;
        self.stats.total_stored_itemsets += cell.len() as u64;
        row.cells.insert(k, cell);
        self.update_peak_resident(h);

        if self.cfg.pruning.sibp {
            self.sibp_after_cell(h, k, &max_corr);
        }
    }

    /// Memory proxy: BASIC retains the whole table; the pruned variants
    /// only ever need the previous row plus the current one (paper §5.2).
    fn update_peak_resident(&mut self, h: usize) {
        let resident: u64 = if self.cfg.pruning.flipping {
            let prev = if h >= 2 { self.rows[h - 2].stored } else { 0 };
            prev + self.rows[h - 1].stored
        } else {
            self.rows.iter().map(|r| r.stored).sum()
        };
        self.stats.peak_resident_itemsets = self.stats.peak_resident_itemsets.max(resident);
    }

    /// SIBP bookkeeping after a cell: compute the removal prefix `R_h(k)`
    /// (maximal support-ascending prefix with per-cell max Corr < γ), then
    /// ban items of `R_h(k)` whose generalization is in `R_{h-1}(k)`.
    /// `max_corr` is indexed by `NodeId::index()`.
    fn sibp_after_cell(&mut self, h: usize, k: usize, max_corr: &[f64]) {
        let gamma = self.cfg.thresholds.gamma;
        let row = &self.rows[h - 1];
        let mut prefix = BTreeSet::new();
        for &item in &row.by_support {
            let mc = max_corr[item.index()];
            if mc < gamma {
                prefix.insert(item);
            } else {
                break;
            }
        }
        let banned_now: Vec<NodeId> = if h >= 2 {
            let above = self.rows[h - 2].removal_prefix.get(&k);
            prefix
                .iter()
                .copied()
                .filter(|&it| {
                    // lint:allow(panic-hygiene) h ≥ 2 here, so every item is below level 1
                    let parent = self.tax.parent(it).expect("below level 1");
                    above.is_some_and(|r| r.contains(&parent))
                })
                .collect()
        } else {
            Vec::new()
        };
        let row = &mut self.rows[h - 1];
        row.removal_prefix.insert(k, prefix);
        for it in banned_now {
            if row.banned.insert(it, k).is_none() {
                self.stats.sibp_banned_items += 1;
            }
        }
    }

    // ---- driving loops ----------------------------------------------------

    /// The boundary check for guarded runs: free (`Ok`) when no token is
    /// attached, one relaxed atomic load otherwise.
    #[inline]
    fn check_interrupt(&self) -> Result<(), GuardError> {
        match self.token {
            Some(token) => token.check(),
            None => Ok(()),
        }
    }

    fn run(mut self) -> Result<MiningResult, GuardError> {
        let _run_span = flipper_obs::span("mine.run");
        let t0 = Stopwatch::start();
        let height = self.tax.height();
        if height == 1 {
            // A single level cannot flip; still mine row 1 so label counts
            // (Table-4 style reporting) are available.
            let mut k = 2;
            while k <= self.k_cap {
                self.check_interrupt()?;
                self.eval_cell(1, k);
                // lint:allow(panic-hygiene) eval_cell on the previous line always inserts the cell
                if self.cell(1, k).expect("just inserted").frequent_count() == 0 {
                    break;
                }
                k += 1;
            }
            return Ok(self.finish(t0));
        }

        // Phase 1: zigzag over rows 1 and 2.
        let mut row1_done = false;
        let mut row2_done = false;
        let mut k = 2;
        while k <= self.k_cap && !(row1_done && row2_done) {
            self.check_interrupt()?;
            if !row1_done {
                self.eval_cell(1, k);
            }
            if !row2_done {
                self.eval_cell(2, k);
            }
            let c1_freq = self.cell(1, k).map_or(0, Cell::frequent_count);
            let c2_freq = self.cell(2, k).map_or(0, Cell::frequent_count);
            if self.cfg.pruning.tpg {
                let np1 = self.cell(1, k).is_none_or(Cell::all_non_positive);
                let np2 = self.cell(2, k).is_none_or(Cell::all_non_positive);
                if np1 && np2 {
                    // Theorem 3: no flipping pattern at any column ≥ k.
                    self.stats.tpg_cap = k as u64;
                    self.k_cap = k.saturating_sub(1).max(1);
                    break;
                }
            }
            if self.cfg.pruning.flipping {
                // Row 1 cells are frequency-complete: no frequent k-itemset
                // at level 1 ⇒ none larger ⇒ no flipping pattern beyond.
                if c1_freq == 0 {
                    break;
                }
                // Row 2 going silent does not by itself end the zigzag
                // (vertical sources from row 1 may revive later columns).
            } else {
                row1_done = row1_done || c1_freq == 0;
                row2_done = row2_done || c2_freq == 0;
            }
            k += 1;
        }

        // Phase 2: remaining rows, left to right.
        for h in 3..=height {
            // Largest column with vertical sources in the row above.
            let alive_cols = self.rows[h - 2]
                .cells
                .iter()
                .filter(|(_, c)| c.alive().next().is_some())
                .map(|(&k, _)| k)
                .max()
                .unwrap_or(0);
            let mut k = 2;
            while k <= self.k_cap {
                self.check_interrupt()?;
                self.eval_cell(h, k);
                let freq_here = self.cell(h, k).map_or(0, Cell::frequent_count);
                if self.cfg.pruning.tpg {
                    let np_above = self.cell(h - 1, k).is_none_or(Cell::all_non_positive);
                    let np_here = self.cell(h, k).is_none_or(Cell::all_non_positive);
                    if np_above && np_here {
                        self.stats.tpg_cap = k as u64;
                        self.k_cap = k.saturating_sub(1).max(1);
                        break;
                    }
                }
                if self.cfg.pruning.flipping {
                    // No horizontal source left and no vertical source to
                    // the right ⇒ all later cells of this row are empty.
                    if freq_here == 0 && k >= alive_cols {
                        break;
                    }
                } else if freq_here == 0 {
                    break;
                }
                k += 1;
            }
        }
        Ok(self.finish(t0))
    }

    fn finish(mut self, t0: Stopwatch) -> MiningResult {
        let patterns = self.extract_patterns();
        self.stats.counter = self.counter.stats();
        self.stats.cache = self.cache.stats();
        self.stats.elapsed = t0.elapsed();
        if flipper_obs::enabled() {
            // Charge the run's totals to the metrics registry in bulk —
            // one locked pass per run, nothing per candidate.
            let s = &self.stats;
            flipper_obs::counter_add("flipper_cells_evaluated_total", s.cells_evaluated);
            flipper_obs::counter_add("flipper_candidates_generated_total", s.candidates_generated);
            flipper_obs::counter_add("flipper_frequent_found_total", s.frequent_found);
            flipper_obs::counter_add("flipper_seeded_supports_total", s.seeded_supports);
            flipper_obs::counter_add("flipper_fused_supports_total", s.fused_supports);
            flipper_obs::counter_add(
                "flipper_gen_covering_tids_scanned_total",
                s.covering_tids_scanned,
            );
            flipper_obs::counter_add(
                "flipper_gen_combinations_enumerated_total",
                s.combinations_enumerated,
            );
            flipper_obs::counter_add("flipper_db_scans_total", s.counter.db_scans);
            flipper_obs::counter_add("flipper_subset_tests_total", s.counter.subset_tests);
            flipper_obs::counter_add("flipper_intersections_total", s.counter.intersections);
            flipper_obs::counter_add(
                "flipper_candidates_counted_total",
                s.counter.candidates_counted,
            );
            flipper_obs::counter_add("flipper_prefix_reuses_total", s.counter.prefix_reuses);
            flipper_obs::counter_add("flipper_cache_lookups_total", s.cache.lookups);
            flipper_obs::counter_add("flipper_cache_parent_hits_total", s.cache.parent_hits);
            flipper_obs::counter_add("flipper_cache_insertions_total", s.cache.insertions);
            flipper_obs::counter_add("flipper_cache_evicted_cells_total", s.cache.evicted_cells);
            flipper_obs::gauge_set(
                "flipper_cache_bytes_resident",
                i64::try_from(s.cache.bytes_resident).unwrap_or(i64::MAX),
            );
        }
        let mut evaluated: Vec<(usize, Cell)> = Vec::new();
        for (h, row) in self.rows.into_iter().enumerate() {
            // BTreeMap iteration is ascending by `k` already.
            for (_k, cell) in row.cells {
                evaluated.push((h + 1, cell));
            }
        }
        MiningResult {
            patterns,
            stats: self.stats,
            cells: self.cells_out,
            evaluated,
        }
    }

    /// Collect flipping patterns: chain-alive itemsets at the leaf level,
    /// with their chains reconstructed from the stored cells.
    fn extract_patterns(&self) -> Vec<FlippingPattern> {
        let height = self.tax.height();
        if height < 2 {
            return Vec::new();
        }
        let mut patterns = Vec::new();
        let leaf_row = &self.rows[height - 1];
        let mut ks: Vec<usize> = leaf_row.cells.keys().copied().collect();
        ks.sort_unstable();
        for k in ks {
            let cell = &leaf_row.cells[&k];
            let mut alive: Vec<&Itemset> = cell.alive().map(|(s, _)| s).collect();
            alive.sort_unstable();
            for leaf_set in alive {
                let mut chain = Vec::with_capacity(height);
                let mut set = leaf_set.clone();
                let mut ok = true;
                for h in (1..=height).rev() {
                    let info = match self.cell(h, k).and_then(|c| c.get(&set)) {
                        Some(i) => i,
                        None => {
                            debug_assert!(false, "alive leaf itemset with missing ancestor cell");
                            ok = false;
                            break;
                        }
                    };
                    chain.push(ChainLevel {
                        level: h,
                        itemset: set.clone(),
                        support: info.support,
                        corr: info.corr,
                        label: info.label,
                    });
                    if h > 1 {
                        set = self.parent_set(&set);
                    }
                }
                if !ok {
                    continue;
                }
                chain.reverse();
                let p = FlippingPattern {
                    leaf_itemset: leaf_set.clone(),
                    chain,
                };
                debug_assert_eq!(p.validate(), Ok(()), "extracted pattern must be valid");
                patterns.push(p);
            }
        }
        patterns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MinSupports, PruningConfig};
    use flipper_taxonomy::RebalancePolicy;

    /// The paper's Fig. 4 toy dataset.
    pub(crate) fn toy() -> (Taxonomy, TransactionDb) {
        let tax = Taxonomy::from_edges(
            [
                ("a", ""),
                ("b", ""),
                ("a1", "a"),
                ("a2", "a"),
                ("b1", "b"),
                ("b2", "b"),
                ("a11", "a1"),
                ("a12", "a1"),
                ("a21", "a2"),
                ("a22", "a2"),
                ("b11", "b1"),
                ("b12", "b1"),
                ("b21", "b2"),
                ("b22", "b2"),
            ],
            RebalancePolicy::RequireBalanced,
        )
        .unwrap();
        let g = |s: &str| tax.node_by_name(s).unwrap();
        let db = TransactionDb::new(vec![
            vec![g("a11"), g("a22"), g("b11"), g("b22")],
            vec![g("a11"), g("a21"), g("b11")],
            vec![g("a12"), g("a21")],
            vec![g("a12"), g("a22"), g("b21")],
            vec![g("a12"), g("a22"), g("b21")],
            vec![g("a12"), g("a21"), g("b22")],
            vec![g("a21"), g("b12")],
            vec![g("b12"), g("b21"), g("b22")],
            vec![g("b12"), g("b21")],
            vec![g("a22"), g("b12"), g("b22")],
        ])
        .unwrap();
        (tax, db)
    }

    fn toy_config(pruning: PruningConfig) -> FlipperConfig {
        FlipperConfig::new(Thresholds::new(0.6, 0.35), MinSupports::Counts(vec![1]))
            .with_pruning(pruning)
    }

    #[test]
    fn guarded_run_with_a_live_token_matches_unguarded() {
        let (tax, db) = toy();
        let view = MultiLevelView::build(&db, &tax);
        for pruning in PruningConfig::VARIANTS {
            let cfg = toy_config(pruning);
            let plain = mine_with_view(&tax, &view, &cfg);
            let token = CancelToken::new();
            let guarded = mine_with_view_guarded(&tax, &view, &cfg, &token).unwrap();
            assert_eq!(plain.patterns, guarded.patterns, "{}", pruning.name());
            assert_eq!(plain.cells, guarded.cells, "{}", pruning.name());
        }
    }

    #[test]
    fn cancelled_token_interrupts_at_a_cell_boundary() {
        let (tax, db) = toy();
        let view = MultiLevelView::build(&db, &tax);
        let cfg = toy_config(PruningConfig::FULL);
        // Pre-cancelled: the very first boundary check trips.
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            mine_with_view_guarded(&tax, &view, &cfg, &token).unwrap_err(),
            GuardError::Cancelled
        );
        // Deterministic mid-run interruption: cancel on the 2nd check.
        let token = CancelToken::cancel_after(2);
        assert_eq!(
            mine_with_view_guarded(&tax, &view, &cfg, &token).unwrap_err(),
            GuardError::Cancelled
        );
    }

    #[test]
    fn expired_deadline_surfaces_as_timeout() {
        let (tax, db) = toy();
        let view = MultiLevelView::build(&db, &tax);
        let cfg = toy_config(PruningConfig::FULL);
        let token = CancelToken::with_timeout(std::time::Duration::ZERO);
        assert_eq!(
            mine_with_view_guarded(&tax, &view, &cfg, &token).unwrap_err(),
            GuardError::TimedOut
        );
    }

    #[test]
    fn seeded_guarded_run_matches_plain_seeded() {
        let (tax, db) = toy();
        let view = MultiLevelView::build(&db, &tax);
        let cfg = toy_config(PruningConfig::FULL);
        let first = mine_with_view(&tax, &view, &cfg);
        let mut seeds = SupportCache::new();
        for (h, cell) in &first.evaluated {
            for (set, info) in cell.iter() {
                seeds.insert(*h, set, info.support);
            }
        }
        let plain = mine_with_view_seeded(&tax, &view, &cfg, &seeds);
        let token = CancelToken::new();
        let guarded = mine_with_view_seeded_guarded(&tax, &view, &cfg, &seeds, &token).unwrap();
        assert_eq!(plain.patterns, guarded.patterns);
        assert!(guarded.stats.seeded_supports > 0);
    }

    #[test]
    fn toy_example_finds_the_paper_pattern() {
        let (tax, db) = toy();
        for pruning in PruningConfig::VARIANTS {
            let result = mine(&tax, &db, &toy_config(pruning));
            let names: Vec<String> = result
                .patterns
                .iter()
                .map(|p| p.leaf_itemset.display(&tax).to_string())
                .collect();
            assert_eq!(
                names,
                vec!["{a11, b11}".to_string()],
                "variant {} found {names:?}",
                pruning.name()
            );
            let p = &result.patterns[0];
            assert_eq!(p.chain.len(), 3);
            assert_eq!(p.chain[0].label, Label::Positive); // {a, b}
            assert_eq!(p.chain[1].label, Label::Negative); // {a1, b1}
            assert_eq!(p.chain[2].label, Label::Positive); // {a11, b11}
            assert!((p.chain[0].corr - (7.0 / 8.0 + 7.0 / 9.0) / 2.0).abs() < 1e-12);
            assert!((p.chain[1].corr - (2.0 / 6.0 + 2.0 / 6.0) / 2.0).abs() < 1e-12);
            assert!((p.chain[2].corr - 1.0).abs() < 1e-12);
            assert_eq!(p.validate(), Ok(()));
        }
    }

    #[test]
    fn basic_counts_more_candidates_than_pruned_variants() {
        let (tax, db) = toy();
        let basic = mine(&tax, &db, &toy_config(PruningConfig::BASIC));
        let full = mine(&tax, &db, &toy_config(PruningConfig::FULL));
        assert!(basic.stats.candidates_generated >= full.stats.candidates_generated);
        assert_eq!(basic.patterns, full.patterns);
    }

    #[test]
    fn support_threshold_prunes_pattern() {
        // {a11, b11} has support 2 at the leaf level; θ₃ = 3 kills it.
        let (tax, db) = toy();
        let cfg = FlipperConfig::new(
            Thresholds::new(0.6, 0.35),
            MinSupports::Counts(vec![1, 1, 3]),
        );
        let result = mine(&tax, &db, &cfg);
        assert!(result.patterns.is_empty());
    }

    #[test]
    fn gamma_too_high_kills_chain() {
        let (tax, db) = toy();
        // Level-1 Kulc of {a,b} is ~0.826; γ=0.9 breaks the chain at the top.
        let cfg = FlipperConfig::new(Thresholds::new(0.9, 0.35), MinSupports::Counts(vec![1]));
        let result = mine(&tax, &db, &cfg);
        assert!(result.patterns.is_empty());
    }

    #[test]
    fn max_k_caps_columns() {
        let (tax, db) = toy();
        let cfg = toy_config(PruningConfig::BASIC).with_max_k(2);
        let result = mine(&tax, &db, &cfg);
        assert!(result.cells.iter().all(|c| c.k <= 2));
    }

    #[test]
    fn stats_are_populated() {
        let (tax, db) = toy();
        let r = mine(&tax, &db, &toy_config(PruningConfig::FULL));
        assert!(r.stats.cells_evaluated > 0);
        assert!(r.stats.candidates_generated > 0);
        assert!(r.stats.frequent_found > 0);
        assert!(r.stats.peak_resident_itemsets > 0);
        assert!(r.stats.elapsed.as_nanos() > 0);
        assert_eq!(
            r.stats.positive_found as usize,
            r.cells.iter().map(|c| c.positive).sum::<usize>()
        );
    }

    #[test]
    fn single_level_taxonomy_yields_no_patterns() {
        let tax = Taxonomy::from_edges(
            [("x", ""), ("y", ""), ("z", "")],
            RebalancePolicy::RequireBalanced,
        )
        .unwrap();
        let x = tax.node_by_name("x").unwrap();
        let y = tax.node_by_name("y").unwrap();
        let z = tax.node_by_name("z").unwrap();
        let db = TransactionDb::new(vec![vec![x, y], vec![x, y, z], vec![z]]).unwrap();
        let r = mine(
            &tax,
            &db,
            &FlipperConfig::new(Thresholds::new(0.5, 0.2), MinSupports::Counts(vec![1])),
        );
        assert!(r.patterns.is_empty());
        assert!(
            r.stats.cells_evaluated > 0,
            "row 1 is still mined for label counts"
        );
    }

    #[test]
    fn same_category_pairs_are_never_candidates() {
        let (tax, db) = toy();
        let r = mine(&tax, &db, &toy_config(PruningConfig::BASIC));
        // At level 2 the same-category pair {a1, a2} must not appear: check
        // via cell summaries — level 2, k=2 has at most 4 cross pairs.
        let c22 = r.cells.iter().find(|c| c.level == 2 && c.k == 2).unwrap();
        assert!(
            c22.evaluated <= 4,
            "only cross-category level-2 pairs: {}",
            c22.evaluated
        );
    }

    #[test]
    fn cache_budget_never_changes_results_or_stats() {
        let (tax, db) = toy();
        let base = mine(&tax, &db, &toy_config(PruningConfig::FULL));
        for budget in [0usize, 256, 4096, usize::MAX] {
            for threads in [1usize, 4] {
                let cfg = toy_config(PruningConfig::FULL)
                    .with_cache_budget(budget)
                    .with_threads(threads);
                let r = mine(&tax, &db, &cfg);
                assert_eq!(
                    r.patterns, base.patterns,
                    "budget={budget} threads={threads}"
                );
                assert_eq!(r.cells, base.cells, "budget={budget} threads={threads}");
                assert_eq!(
                    r.stats.counter, base.stats.counter,
                    "counter stats must be budget- and thread-invariant \
                     (budget={budget} threads={threads})"
                );
            }
        }
    }

    #[test]
    fn seeded_mining_matches_unseeded_and_skips_counting() {
        let (tax, db) = toy();
        let view = MultiLevelView::build(&db, &tax);
        let cfg = toy_config(PruningConfig::FULL);
        let plain = mine_with_view(&tax, &view, &cfg);

        // Seed a cache with every support the plain run established.
        let mut seeds = SupportCache::new();
        for (h, cell) in &plain.evaluated {
            for (set, info) in cell.iter() {
                seeds.insert(*h, set, info.support);
            }
        }
        let seeded = mine_with_view_seeded(&tax, &view, &cfg, &seeds);
        assert_eq!(seeded.patterns, plain.patterns);
        assert_eq!(seeded.cells, plain.cells);
        assert!(
            seeded.stats.seeded_supports > 0,
            "a fully-seeded rerun must answer candidates from the cache"
        );
        assert_eq!(plain.stats.seeded_supports, 0);

        // A seed cache for a *different* config still yields identical
        // results: supports are config-independent data facts.
        let alt = FlipperConfig::new(Thresholds::new(0.8, 0.1), MinSupports::Counts(vec![1]));
        let alt_plain = mine_with_view(&tax, &view, &alt);
        let alt_seeded = mine_with_view_seeded(&tax, &view, &alt, &seeds);
        assert_eq!(alt_seeded.patterns, alt_plain.patterns);
        assert_eq!(alt_seeded.cells, alt_plain.cells);
    }

    #[test]
    fn deterministic_across_runs() {
        let (tax, db) = toy();
        let r1 = mine(&tax, &db, &toy_config(PruningConfig::FULL));
        let r2 = mine(&tax, &db, &toy_config(PruningConfig::FULL));
        assert_eq!(r1.patterns, r2.patterns);
        assert_eq!(r1.stats.candidates_generated, r2.stats.candidates_generated);
        assert_eq!(r1.cells, r2.cells);
    }
}
