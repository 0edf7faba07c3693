//! Support-counting engines and the sharded execution layer over them.
//!
//! The miner asks one question per search-table cell: *what are the supports
//! of this batch of candidate `(h,k)`-itemsets?* Three engines answer it:
//!
//! * [`crate::BitsetCounter`] — hybrid counting, the default: every item
//!   covering at least 1/16 of the transactions is a packed bitmap, every
//!   other item stays a tid-list, so each candidate is counted in the
//!   representation its own items call for.
//! * [`TidsetCounter`] — vertical counting: per-item sorted tid-lists,
//!   candidate support = size of the k-way intersection.
//! * [`ScanCounter`] — horizontal counting: one sequential pass over the
//!   (projected) transactions per batch, testing candidates grouped by their
//!   first item. This models the paper's disk-scan counting and its scan
//!   statistics.
//!
//! All engines are deterministic and produce identical counts
//! (property-tested); they differ only in complexity profile, which the
//! benches measure.
//!
//! # Prefix-group kernels
//!
//! The miner hands every cell a **sorted, deduplicated** candidate batch,
//! so candidates sharing their `(k−1)`-prefix are adjacent. The vertical
//! engines exploit that Eclat-style instead of re-intersecting every
//! candidate's full k-way tid-lists from scratch: [`prefix_groups`] splits a
//! batch into runs of equal `(k−1)`-prefix, the group's prefix intersection
//! is materialized **once** into reusable double-buffered scratch, and each
//! member is then answered by a single size-only (galloping) intersection of
//! that prefix with the member's last tid-list. Nothing on the hot path
//! allocates per candidate. [`CounterStats::prefix_reuses`] counts the
//! members answered from a cached prefix, so benches can report the reuse
//! rate; [`naive_tidset_counts`] keeps the pre-cache per-candidate kernel
//! around as the differential-testing and benchmarking reference.
//!
//! # Sharding
//!
//! Counting a batch is embarrassingly parallel across candidates, so the
//! trait is split into an immutable, shard-friendly core
//! ([`SupportCounter::count_shard`]) and an explicit stats fold
//! ([`SupportCounter::merge_stats`] via [`CounterStats::merge`]).
//! [`SupportCounter::count_batch_sharded`] chunks a batch over a scoped thread pool
//! ([`crate::exec`]) and folds the per-shard stats **in shard order**. The
//! chunks split only at prefix-group boundaries
//! ([`crate::exec::map_group_chunks`]), so prefix reuse survives parallelism
//! and a sharded run reports bit-identical counts *and stats* regardless of
//! thread count.

use crate::cache::{CachedPrefix, CellCache, PrefixCache};
use crate::exec;
use crate::itemset::Itemset;
use crate::projection::{LevelView, MultiLevelView};
use crate::tidset::{intersect_into, intersect_size, intersect_size_many};
use flipper_taxonomy::NodeId;
use std::collections::HashMap;
use std::ops::Range;

/// Counters accumulate work statistics so experiments can report
/// hardware-independent costs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterStats {
    /// Number of logical passes over the (projected) database. Charged once
    /// per non-empty batch by the scan engine, independent of sharding.
    pub db_scans: u64,
    /// Number of candidate-in-transaction subset tests (scan engine).
    pub subset_tests: u64,
    /// Number of pairwise tid-list/bitmap intersection operations actually
    /// performed (tidset/bitset engines). With prefix-group kernels this is
    /// *less* than the naive `Σ (k−1)` per candidate — the gap is the work
    /// the prefix cache saved.
    pub intersections: u64,
    /// Total candidates counted.
    pub candidates_counted: u64,
    /// Candidates answered from a cached `(k−1)`-prefix intersection
    /// (members of a `k ≥ 3` prefix group beyond its first). Shard-invariant
    /// by construction: sharding never splits a prefix group.
    pub prefix_reuses: u64,
}

impl CounterStats {
    /// Fold `other` into `self`. All counters are sums, so the merge is
    /// associative and commutative with [`CounterStats::default`] as the
    /// identity — sharded runs can fold per-shard stats in any grouping and
    /// still report totals identical to a sequential run.
    pub fn merge(&mut self, other: &CounterStats) {
        self.db_scans += other.db_scans;
        self.subset_tests += other.subset_tests;
        self.intersections += other.intersections;
        self.candidates_counted += other.candidates_counted;
        self.prefix_reuses += other.prefix_reuses;
    }
}

/// A batch support oracle over one multi-level view.
///
/// Implementors provide the immutable shard core ([`Self::count_shard`]) and
/// a stats sink ([`Self::merge_stats`]); `count_batch` and the parallel
/// [`Self::count_batch_sharded`] wrapper are derived from those. The `Sync` bound
/// lets one counter serve many shards concurrently.
pub trait SupportCounter: Sync {
    /// Number of transactions `N` (identical at every level).
    fn num_transactions(&self) -> u64;

    /// Support of a single node at level `h`.
    fn item_support(&self, h: usize, item: NodeId) -> u64;

    /// Nodes present (support > 0) at level `h`, ascending by id.
    fn present_items(&self, h: usize) -> &[NodeId];

    /// Shard-friendly core: supports of `candidates` (each a sorted itemset
    /// of level-`h` nodes) in input order, plus the per-candidate work stats
    /// for exactly this shard. Immutable, so shards can run concurrently.
    fn count_shard(&self, h: usize, candidates: &[Itemset]) -> (Vec<u64>, CounterStats);

    /// Per-batch overhead stats charged once per batch regardless of how
    /// many shards served it (e.g. the scan engine's one logical database
    /// pass per non-empty batch).
    fn batch_stats(&self, _h: usize, _candidates: &[Itemset]) -> CounterStats {
        CounterStats::default()
    }

    /// Fold a stats delta into the accumulated totals.
    fn merge_stats(&mut self, delta: &CounterStats);

    /// Supports of `candidates`, in input order, accumulating stats.
    fn count_batch(&mut self, h: usize, candidates: &[Itemset]) -> Vec<u64> {
        let (counts, mut delta) = self.count_shard(h, candidates);
        delta.merge(&self.batch_stats(h, candidates));
        self.merge_stats(&delta);
        counts
    }

    /// Count a batch sharded over `threads` scoped workers (`0` =
    /// auto-detect, `1` = inline). Counts and stats are bit-identical to
    /// [`Self::count_batch`] for every thread count.
    ///
    /// The default shards the **candidates** into contiguous chunks that
    /// split only at prefix-group boundaries and folds the per-shard stats
    /// in shard order — right for engines whose per-group cost is
    /// independent (tidset, bitset): a prefix group is never torn across
    /// two workers, so prefix reuse (and its statistics) survive
    /// parallelism exactly. Engines with a per-batch pass over the data
    /// override it (the scan engine shards the **transactions** instead, so
    /// the pass is split rather than duplicated per worker).
    fn count_batch_sharded(
        &mut self,
        h: usize,
        candidates: &[Itemset],
        threads: usize,
    ) -> Vec<u64> {
        group_sharded(self, h, candidates, threads)
    }

    /// [`Self::count_batch_sharded`] with a cross-cell prefix cache: prefix
    /// intersections materialized by earlier batches (typically the
    /// `(h, k−1)` cell of the same mining run) are reused instead of being
    /// rebuilt from level singletons.
    ///
    /// Counts **and reported statistics** are bit-identical to the uncached
    /// path at every thread count and cache budget — the cached kernels
    /// charge the work an uncached run would have performed, so
    /// [`CounterStats`] stays a pure function of `(candidates, data)`. The
    /// default ignores the cache (right for engines with no per-group
    /// prefix state, like the scan engine); the vertical engines override
    /// it.
    fn count_batch_cached(
        &mut self,
        h: usize,
        candidates: &[Itemset],
        threads: usize,
        cache: &mut CellCache,
    ) -> Vec<u64> {
        let _ = cache;
        self.count_batch_sharded(h, candidates, threads)
    }

    /// Work statistics accumulated so far.
    fn stats(&self) -> CounterStats;

    /// Descriptive engine name for reports.
    fn engine_name(&self) -> &'static str;
}

/// Batches smaller than this are counted inline: spawning scoped workers
/// costs more than counting a handful of candidates.
pub const MIN_SHARD_CANDIDATES: usize = 64;

/// Transaction-sharded scans over databases smaller than this run inline
/// (tuned independently of the candidate-batch cutoff above).
pub const MIN_SHARD_TXNS: usize = 64;

/// Whether two candidates belong to the same prefix group: equal size
/// `k ≥ 2` and identical first `k−1` items. In the sorted, deduplicated
/// batches the miner produces, groups are exactly the runs of adjacent
/// candidates for which this holds.
pub fn same_prefix_group(a: &Itemset, b: &Itemset) -> bool {
    let k = a.len();
    k >= 2 && b.len() == k && a.items()[..k - 1] == b.items()[..k - 1]
}

/// Split `candidates` into maximal runs of adjacent same-prefix candidates
/// ([`same_prefix_group`]); candidates with `k < 2` form singleton groups.
/// Works on any candidate order — an unsorted batch just yields smaller
/// groups (less reuse, same counts).
pub fn prefix_groups(candidates: &[Itemset]) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut start = 0usize;
    std::iter::from_fn(move || {
        if start >= candidates.len() {
            return None;
        }
        let mut end = start + 1;
        while end < candidates.len() && same_prefix_group(&candidates[end - 1], &candidates[end]) {
            end += 1;
        }
        let r = start..end;
        start = end;
        Some(r)
    })
}

/// Reusable double-buffered scratch for materializing `(k−1)`-prefix
/// intersections: one pair of tid buffers swapped per intersection step,
/// plus the shortest-first evaluation order. Allocated once per shard and
/// reused across every group — the hot counting loop never allocates per
/// candidate.
#[derive(Default)]
struct PrefixScratch {
    acc: Vec<u32>,
    next: Vec<u32>,
    order: Vec<NodeId>,
}

impl PrefixScratch {
    /// Intersect the tid-lists of `prefix_items` (≥ 2 items) into the
    /// scratch accumulator, shortest list first, stopping early once the
    /// running intersection empties. Returns the materialized prefix and
    /// bumps `ops` by the number of pairwise intersections performed.
    fn materialize<'s>(
        &'s mut self,
        lv: &LevelView,
        prefix_items: &[NodeId],
        ops: &mut u64,
    ) -> &'s [u32] {
        debug_assert!(prefix_items.len() >= 2);
        self.order.clear();
        self.order.extend_from_slice(prefix_items);
        self.order.sort_unstable_by_key(|&it| lv.tidset(it).len());
        intersect_into(
            lv.tidset(self.order[0]),
            lv.tidset(self.order[1]),
            &mut self.acc,
        );
        *ops += 1;
        for &it in &self.order[2..] {
            if self.acc.is_empty() {
                break;
            }
            intersect_into(&self.acc, lv.tidset(it), &mut self.next);
            std::mem::swap(&mut self.acc, &mut self.next);
            *ops += 1;
        }
        &self.acc
    }
}

/// Reference kernel: the naive per-candidate k-way intersection the prefix
/// cache replaced — every candidate collects its full tid-lists and
/// intersects them from scratch. Kept as the ground truth for the
/// equivalence sweeps and as the baseline the `quickbench` kernel rows
/// measure the prefix-cached kernel against.
pub fn naive_tidset_counts(view: &MultiLevelView, h: usize, candidates: &[Itemset]) -> Vec<u64> {
    let lv = view.level(h);
    candidates
        .iter()
        .map(|c| {
            let lists: Vec<&[u32]> = c.items().iter().map(|&it| lv.tidset(it)).collect();
            intersect_size_many(&lists)
        })
        .collect()
}

/// The group-boundary sharding strategy backing the trait's default
/// [`SupportCounter::count_batch_sharded`]. Chunks split only between
/// prefix groups ([`crate::exec::map_group_chunks`]), so the grouped
/// kernels do identical work — and report identical stats — at every
/// thread count.
pub(crate) fn group_sharded<C: SupportCounter + ?Sized>(
    counter: &mut C,
    h: usize,
    candidates: &[Itemset],
    threads: usize,
) -> Vec<u64> {
    let threads = exec::effective_threads(threads);
    if threads <= 1 || candidates.len() < MIN_SHARD_CANDIDATES {
        return counter.count_batch(h, candidates);
    }
    let shards = {
        let shared = &*counter;
        exec::map_group_chunks(threads, candidates, same_prefix_group, |chunk| {
            shared.count_shard(h, chunk)
        })
    };
    let mut counts = Vec::with_capacity(candidates.len());
    let mut delta = CounterStats::default();
    for (shard_counts, shard_stats) in shards {
        counts.extend(shard_counts);
        delta.merge(&shard_stats);
    }
    delta.merge(&counter.batch_stats(h, candidates));
    counter.merge_stats(&delta);
    counts
}

/// The sharded driver behind the vertical engines'
/// [`SupportCounter::count_batch_cached`]: like [`group_sharded`], but each
/// worker slot runs `shard_fn` against its own [`PrefixCache`]
/// ([`CellCache::shards_mut`] / [`crate::exec::map_group_chunks_with`]).
/// Chunk `i` always pairs with cache slot `i`, so the cache stays
/// merge-free and warm across batches without any cross-thread state.
/// A disabled cache falls straight through to the uncached sharded path.
pub(crate) fn cached_group_sharded<C, F>(
    counter: &mut C,
    h: usize,
    candidates: &[Itemset],
    threads: usize,
    cache: &mut CellCache,
    shard_fn: F,
) -> Vec<u64>
where
    C: SupportCounter + ?Sized,
    F: Fn(&C, usize, &[Itemset], &mut PrefixCache) -> (Vec<u64>, CounterStats) + Sync,
{
    if !cache.enabled() {
        return counter.count_batch_sharded(h, candidates, threads);
    }
    let threads = exec::effective_threads(threads);
    if threads <= 1 || candidates.len() < MIN_SHARD_CANDIDATES {
        let (counts, mut delta) = shard_fn(counter, h, candidates, cache.shard());
        delta.merge(&counter.batch_stats(h, candidates));
        counter.merge_stats(&delta);
        return counts;
    }
    let shards = {
        let shared = &*counter;
        exec::map_group_chunks_with(
            threads,
            candidates,
            same_prefix_group,
            cache.shards_mut(threads),
            |chunk, shard| shard_fn(shared, h, chunk, shard),
        )
    };
    let mut counts = Vec::with_capacity(candidates.len());
    let mut delta = CounterStats::default();
    for (shard_counts, shard_stats) in shards {
        counts.extend(shard_counts);
        delta.merge(&shard_stats);
    }
    delta.merge(&counter.batch_stats(h, candidates));
    counter.merge_stats(&delta);
    counts
}

/// Vertical (tid-list intersection) counting engine.
pub struct TidsetCounter<'v> {
    view: &'v MultiLevelView,
    stats: CounterStats,
}

impl<'v> TidsetCounter<'v> {
    /// Create a counter over `view`.
    pub fn new(view: &'v MultiLevelView) -> Self {
        TidsetCounter {
            view,
            stats: CounterStats::default(),
        }
    }

    /// [`SupportCounter::count_shard`] with a cross-cell prefix cache.
    ///
    /// Per `k ≥ 4` group the kernel first tries a **parent hit**: it
    /// extends the cached `(k−2)`-prefix — the one the `(h, k−1)` cell
    /// materialized — by a single intersection with the last prefix item.
    /// Otherwise (and always for `k = 3`) it runs the full shortest-first
    /// rebuild. Either way the (non-empty) `(k−1)`-prefix is cached for the
    /// next column.
    ///
    /// Statistics are charged *as if uncached*, exactly: a non-empty final
    /// prefix means every shortest-first intermediate is a non-empty
    /// superset, so the uncached rebuild performs exactly `k−2`
    /// intersections with no early exit — which is what a parent hit
    /// charges. A parent hit whose extension comes up empty is discarded
    /// and the full rebuild runs instead (its early-exit op count depends
    /// on list-length order, so only the rebuild itself can charge it);
    /// empty prefixes are likewise never cached. Counts and stats are
    /// therefore bit-identical to [`SupportCounter::count_shard`] at every
    /// budget and thread count.
    pub fn count_shard_cached(
        &self,
        h: usize,
        candidates: &[Itemset],
        cache: &mut PrefixCache,
    ) -> (Vec<u64>, CounterStats) {
        if !cache.enabled() {
            return self.count_shard(h, candidates);
        }
        let lv = self.view.level(h);
        let mut stats = CounterStats {
            candidates_counted: candidates.len() as u64,
            ..CounterStats::default()
        };
        let mut counts = vec![0u64; candidates.len()];
        let mut scratch = PrefixScratch::default();
        for group in prefix_groups(candidates) {
            let items = candidates[group.start].items();
            let k = items.len();
            if k == 0 {
                continue; // empty itemsets count 0 transactions
            }
            if k == 1 {
                for i in group {
                    counts[i] = lv.tidset(candidates[i].items()[0]).len() as u64;
                }
                continue;
            }
            if k == 2 {
                let prefix = lv.tidset(items[0]);
                if prefix.is_empty() {
                    continue;
                }
                for i in group {
                    stats.intersections += 1;
                    // lint:allow(panic-hygiene) group members are k >= 2 itemsets by the prefix-split precondition
                    let last = *candidates[i].items().last().expect("k >= 2");
                    counts[i] = intersect_size(prefix, lv.tidset(last));
                }
                continue;
            }
            stats.prefix_reuses += (group.len() - 1) as u64;
            let prefix_items = &items[..k - 1];
            // Parent hit: extend the (k−2)-prefix the previous column
            // cached by one intersection with the last prefix item.
            let parent_hit = k >= 4
                && match cache.lookup(h, &items[..k - 2]) {
                    Some(CachedPrefix::Tids(t)) => {
                        intersect_into(t, lv.tidset(items[k - 2]), &mut scratch.next);
                        !scratch.next.is_empty()
                    }
                    _ => false,
                };
            if parent_hit {
                std::mem::swap(&mut scratch.acc, &mut scratch.next);
                cache.stats_mut().parent_hits += 1;
                stats.intersections += (k - 2) as u64;
            } else {
                scratch.materialize(lv, prefix_items, &mut stats.intersections);
            }
            if scratch.acc.is_empty() {
                continue; // all members count 0; no further intersections
            }
            cache.insert(h, prefix_items, CachedPrefix::Tids(scratch.acc.clone()));
            for i in group {
                stats.intersections += 1;
                // lint:allow(panic-hygiene) group members are k >= 2 itemsets by the prefix-split precondition
                let last = *candidates[i].items().last().expect("k >= 2");
                counts[i] = intersect_size(&scratch.acc, lv.tidset(last));
            }
        }
        (counts, stats)
    }
}

impl SupportCounter for TidsetCounter<'_> {
    fn num_transactions(&self) -> u64 {
        self.view.num_transactions() as u64
    }

    fn item_support(&self, h: usize, item: NodeId) -> u64 {
        self.view.level(h).item_support(item)
    }

    fn present_items(&self, h: usize) -> &[NodeId] {
        self.view.level(h).present_items()
    }

    /// Prefix-group kernel: per group of candidates sharing a
    /// `(k−1)`-prefix, materialize the prefix intersection once (borrowed
    /// directly from the view for `k = 2`, double-buffered scratch for
    /// `k ≥ 3`), then answer every member with one size-only galloping
    /// intersection against its last item's tid-list. No per-candidate
    /// allocation; `intersections` counts the pairwise intersections
    /// actually performed (members of an empty prefix cost none).
    fn count_shard(&self, h: usize, candidates: &[Itemset]) -> (Vec<u64>, CounterStats) {
        let lv = self.view.level(h);
        let mut stats = CounterStats {
            candidates_counted: candidates.len() as u64,
            ..CounterStats::default()
        };
        let mut counts = vec![0u64; candidates.len()];
        let mut scratch = PrefixScratch::default();
        for group in prefix_groups(candidates) {
            let items = candidates[group.start].items();
            let k = items.len();
            if k == 0 {
                continue; // empty itemsets count 0 transactions
            }
            if k == 1 {
                for i in group {
                    counts[i] = lv.tidset(candidates[i].items()[0]).len() as u64;
                }
                continue;
            }
            let prefix: &[u32] = if k == 2 {
                lv.tidset(items[0])
            } else {
                stats.prefix_reuses += (group.len() - 1) as u64;
                scratch.materialize(lv, &items[..k - 1], &mut stats.intersections)
            };
            if prefix.is_empty() {
                continue; // all members count 0; no further intersections
            }
            for i in group {
                stats.intersections += 1;
                // lint:allow(panic-hygiene) group members are k >= 2 itemsets by the prefix-split precondition
                let last = *candidates[i].items().last().expect("k >= 2");
                counts[i] = intersect_size(prefix, lv.tidset(last));
            }
        }
        (counts, stats)
    }

    fn count_batch_cached(
        &mut self,
        h: usize,
        candidates: &[Itemset],
        threads: usize,
        cache: &mut CellCache,
    ) -> Vec<u64> {
        cached_group_sharded(
            self,
            h,
            candidates,
            threads,
            cache,
            |c: &Self, h, chunk, shard| c.count_shard_cached(h, chunk, shard),
        )
    }

    fn merge_stats(&mut self, delta: &CounterStats) {
        self.stats.merge(delta);
    }

    fn stats(&self) -> CounterStats {
        self.stats
    }

    fn engine_name(&self) -> &'static str {
        "tidset"
    }
}

/// Horizontal (sequential scan) counting engine, modeling the paper's
/// disk-resident counting: each batch costs one logical pass over the
/// level's transactions.
pub struct ScanCounter<'v> {
    view: &'v MultiLevelView,
    stats: CounterStats,
}

impl<'v> ScanCounter<'v> {
    /// Create a counter over `view`.
    pub fn new(view: &'v MultiLevelView) -> Self {
        ScanCounter {
            view,
            stats: CounterStats::default(),
        }
    }
}

/// Group candidate indices by first (smallest) item, so a transaction only
/// tests candidates whose first item it actually contains.
fn group_by_first(candidates: &[Itemset]) -> HashMap<NodeId, Vec<usize>> {
    let mut by_first: HashMap<NodeId, Vec<usize>> = HashMap::new();
    for (i, c) in candidates.iter().enumerate() {
        // lint:allow(panic-hygiene) candidate generation never emits an empty itemset
        let first = *c.items().first().expect("candidates must be non-empty");
        by_first.entry(first).or_default().push(i);
    }
    by_first
}

/// The scan core over one transaction range: per-candidate counts within
/// the range plus the number of subset tests performed.
fn scan_txn_range(
    lv: &crate::projection::LevelView,
    candidates: &[Itemset],
    by_first: &HashMap<NodeId, Vec<usize>>,
    range: std::ops::Range<usize>,
) -> (Vec<u64>, u64) {
    let mut counts = vec![0u64; candidates.len()];
    let mut subset_tests = 0u64;
    for t in range {
        let txn = lv.transaction(t);
        for &item in txn {
            if let Some(idxs) = by_first.get(&item) {
                for &i in idxs {
                    subset_tests += 1;
                    if crate::itemset::is_sorted_subset(candidates[i].items(), txn) {
                        counts[i] += 1;
                    }
                }
            }
        }
    }
    (counts, subset_tests)
}

impl SupportCounter for ScanCounter<'_> {
    fn num_transactions(&self) -> u64 {
        self.view.num_transactions() as u64
    }

    fn item_support(&self, h: usize, item: NodeId) -> u64 {
        self.view.level(h).item_support(item)
    }

    fn present_items(&self, h: usize) -> &[NodeId] {
        self.view.level(h).present_items()
    }

    fn count_shard(&self, h: usize, candidates: &[Itemset]) -> (Vec<u64>, CounterStats) {
        if candidates.is_empty() {
            return (Vec::new(), CounterStats::default());
        }
        let lv = self.view.level(h);
        let by_first = group_by_first(candidates);
        let (counts, subset_tests) = scan_txn_range(lv, candidates, &by_first, 0..lv.len());
        let stats = CounterStats {
            candidates_counted: candidates.len() as u64,
            subset_tests,
            ..CounterStats::default()
        };
        (counts, stats)
    }

    fn batch_stats(&self, _h: usize, candidates: &[Itemset]) -> CounterStats {
        CounterStats {
            db_scans: u64::from(!candidates.is_empty()),
            ..CounterStats::default()
        }
    }

    /// The scan engine shards the **transactions**, not the candidates: a
    /// candidate-chunked shard would repeat the full database pass once per
    /// worker. Per-range partial counts sum element-wise and subset tests
    /// sum across ranges, so counts and stats stay bit-identical to the
    /// sequential pass.
    fn count_batch_sharded(
        &mut self,
        h: usize,
        candidates: &[Itemset],
        threads: usize,
    ) -> Vec<u64> {
        let lv = self.view.level(h);
        let threads = exec::effective_threads(threads);
        if threads <= 1 || candidates.is_empty() || lv.len() < MIN_SHARD_TXNS {
            return self.count_batch(h, candidates);
        }
        let by_first = group_by_first(candidates);
        let shards = exec::map_chunks(threads, lv.len(), |range| {
            scan_txn_range(lv, candidates, &by_first, range)
        });
        let mut counts = vec![0u64; candidates.len()];
        let mut delta = CounterStats {
            candidates_counted: candidates.len() as u64,
            ..CounterStats::default()
        };
        for (partial, subset_tests) in shards {
            for (total, c) in counts.iter_mut().zip(partial) {
                *total += c;
            }
            delta.subset_tests += subset_tests;
        }
        delta.merge(&self.batch_stats(h, candidates));
        self.merge_stats(&delta);
        counts
    }

    fn merge_stats(&mut self, delta: &CounterStats) {
        self.stats.merge(delta);
    }

    fn stats(&self) -> CounterStats {
        self.stats
    }

    fn engine_name(&self) -> &'static str {
        "scan"
    }
}

/// Which counting engine to instantiate — part of the miner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CountingEngine {
    /// Vertical tid-list intersection.
    Tidset,
    /// Horizontal sequential scan (models the paper's setup).
    Scan,
    /// Hybrid dense-bitmap / sparse-tidlist engine (default; see
    /// [`crate::BitsetCounter`]).
    #[default]
    Bitset,
}

impl CountingEngine {
    /// Instantiate the chosen engine over `view`.
    pub fn make<'v>(self, view: &'v MultiLevelView) -> Box<dyn SupportCounter + 'v> {
        match self {
            CountingEngine::Tidset => Box::new(TidsetCounter::new(view)),
            CountingEngine::Scan => Box::new(ScanCounter::new(view)),
            CountingEngine::Bitset => Box::new(crate::bitset::BitsetCounter::new(view)),
        }
    }

    /// Parse an engine name as used by CLIs and benches. `auto` names the
    /// default engine, whose per-item bitmap promotion is the density
    /// choice, so scripts and sweep journals written with it stay valid.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "tidset" => Some(CountingEngine::Tidset),
            "scan" => Some(CountingEngine::Scan),
            "bitset" | "auto" => Some(CountingEngine::Bitset),
            _ => None,
        }
    }

    /// Stable short name, the inverse of [`parse`](CountingEngine::parse)
    /// — used in sweep labels and machine-readable reports, so it must not
    /// track incidental enum-variant renames.
    pub fn name(self) -> &'static str {
        match self {
            CountingEngine::Tidset => "tidset",
            CountingEngine::Scan => "scan",
            CountingEngine::Bitset => "bitset",
        }
    }

    /// Every engine.
    pub const ALL: [CountingEngine; 3] = [
        CountingEngine::Tidset,
        CountingEngine::Scan,
        CountingEngine::Bitset,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, Xoshiro256pp};
    use crate::transaction::TransactionDb;
    use flipper_taxonomy::{RebalancePolicy, Taxonomy};

    fn toy() -> (Taxonomy, TransactionDb) {
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

    #[test]
    fn all_engines_count_the_toy_example() {
        let (tax, db) = toy();
        let view = MultiLevelView::build(&db, &tax);
        let g = |s: &str| tax.node_by_name(s).unwrap();
        // The paper's flipping pattern {a11, b11}: sup=2 at leaf level;
        // {a1, b1} sup=2 at level 2; {a, b} sup=7 at level 1.
        let cases = [
            (3usize, Itemset::pair(g("a11"), g("b11")), 2u64),
            (2, Itemset::pair(g("a1"), g("b1")), 2),
            (1, Itemset::pair(g("a"), g("b")), 7),
        ];
        for engine in CountingEngine::ALL {
            let mut c = engine.make(&view);
            for (h, set, expect) in cases.iter() {
                let got = c.count_batch(*h, std::slice::from_ref(set));
                assert_eq!(got, vec![*expect], "{} level {h} {set}", c.engine_name());
            }
        }
    }

    #[test]
    fn batch_order_is_preserved() {
        let (tax, db) = toy();
        let view = MultiLevelView::build(&db, &tax);
        let g = |s: &str| tax.node_by_name(s).unwrap();
        let batch = vec![
            Itemset::pair(g("a12"), g("a22")),
            Itemset::pair(g("a11"), g("b11")),
            Itemset::pair(g("b21"), g("b22")),
        ];
        let mut c = TidsetCounter::new(&view);
        assert_eq!(c.count_batch(3, &batch), vec![2, 2, 1]);
        let mut c = ScanCounter::new(&view);
        assert_eq!(c.count_batch(3, &batch), vec![2, 2, 1]);
    }

    #[test]
    fn stats_accumulate() {
        let (tax, db) = toy();
        let view = MultiLevelView::build(&db, &tax);
        let g = |s: &str| tax.node_by_name(s).unwrap();
        let batch = vec![Itemset::pair(g("a11"), g("b11"))];
        let mut sc = ScanCounter::new(&view);
        sc.count_batch(3, &batch);
        sc.count_batch(3, &batch);
        assert_eq!(sc.stats().db_scans, 2);
        assert_eq!(sc.stats().candidates_counted, 2);
        assert!(sc.stats().subset_tests > 0);
        let mut tc = TidsetCounter::new(&view);
        tc.count_batch(3, &batch);
        assert_eq!(tc.stats().intersections, 1);
        assert_eq!(tc.stats().db_scans, 0);
        // Empty batches cost a scan counter nothing.
        let before = sc.stats();
        sc.count_batch(3, &[]);
        assert_eq!(sc.stats(), before);
    }

    #[test]
    fn counter_stats_merge_is_associative_with_identity() {
        let a = CounterStats {
            db_scans: 1,
            subset_tests: 10,
            intersections: 3,
            candidates_counted: 7,
            prefix_reuses: 5,
        };
        let b = CounterStats {
            db_scans: 2,
            subset_tests: 5,
            intersections: 11,
            candidates_counted: 13,
            prefix_reuses: 0,
        };
        let c = CounterStats {
            db_scans: 4,
            subset_tests: 1,
            intersections: 0,
            candidates_counted: 2,
            prefix_reuses: 9,
        };
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);
        // Identity.
        let mut with_id = a;
        with_id.merge(&CounterStats::default());
        assert_eq!(with_id, a);
        // Totals are sums.
        assert_eq!(left.db_scans, 7);
        assert_eq!(left.candidates_counted, 22);
        assert_eq!(left.prefix_reuses, 14);
    }

    /// Sharded counting is bit-identical to sequential counting — counts
    /// AND stats — for every engine and thread count.
    #[test]
    fn sharded_counting_matches_sequential() {
        let tax = Taxonomy::uniform(3, 3, 2).unwrap();
        let leaves = tax.leaves().to_vec();
        let mut rng = Xoshiro256pp::seed_from_u64(0x5AAD);
        let rows: Vec<Vec<NodeId>> = (0..150)
            .map(|_| {
                let w = rng.gen_range(1..=6);
                (0..w)
                    .map(|_| leaves[rng.gen_range(0..leaves.len())])
                    .collect()
            })
            .collect();
        let db = TransactionDb::new(rows).unwrap();
        let view = MultiLevelView::build(&db, &tax);
        // A batch well above MIN_SHARD_CANDIDATES.
        let nodes = tax.nodes_at_level(2).unwrap();
        let mut cands = Vec::new();
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                cands.push(Itemset::pair(nodes[i], nodes[j]));
            }
        }
        while cands.len() < 4 * MIN_SHARD_CANDIDATES {
            let extra = cands.clone();
            cands.extend(extra);
        }
        for engine in CountingEngine::ALL {
            let mut seq = engine.make(&view);
            let expect = seq.count_batch(2, &cands);
            for threads in [2usize, 3, 7] {
                let mut par = engine.make(&view);
                let got = par.count_batch_sharded(2, &cands, threads);
                assert_eq!(got, expect, "{} threads={threads}", par.engine_name());
                assert_eq!(
                    par.stats(),
                    seq.stats(),
                    "{} stats diverge at threads={threads}",
                    par.engine_name()
                );
            }
        }
    }

    #[test]
    fn sharded_small_batches_fall_back_inline() {
        let (tax, db) = toy();
        let view = MultiLevelView::build(&db, &tax);
        let g = |s: &str| tax.node_by_name(s).unwrap();
        let batch = vec![Itemset::pair(g("a11"), g("b11"))];
        let mut c = TidsetCounter::new(&view);
        assert_eq!(c.count_batch_sharded(3, &batch, 8), vec![2]);
        assert_eq!(c.stats().candidates_counted, 1);
        let empty: Vec<Itemset> = Vec::new();
        let mut sc = ScanCounter::new(&view);
        assert!(sc.count_batch_sharded(3, &empty, 8).is_empty());
        assert_eq!(sc.stats(), CounterStats::default());
    }

    #[test]
    fn prefix_groups_split_on_prefix_and_length() {
        let s = |v: &[usize]| Itemset::new(v.iter().map(|&i| NodeId::from_index(i)).collect());
        // Three k=3 candidates sharing {1,2}, one with prefix {1,3}, two
        // pairs with first item 7, one singleton.
        let batch = vec![
            s(&[1, 2, 4]),
            s(&[1, 2, 5]),
            s(&[1, 2, 9]),
            s(&[1, 3, 4]),
            s(&[7, 8]),
            s(&[7, 9]),
            s(&[11]),
        ];
        let groups: Vec<_> = prefix_groups(&batch).collect();
        assert_eq!(groups, vec![0..3, 3..4, 4..6, 6..7]);
        // Singleton k<2 groups never merge, even when "prefixes" agree.
        let singles = vec![s(&[1]), s(&[1]), s(&[2])];
        assert_eq!(prefix_groups(&singles).count(), 3);
        // Empty batch: no groups.
        assert_eq!(prefix_groups(&[]).count(), 0);
    }

    /// The grouped kernels agree with the naive per-candidate reference on
    /// batches with degenerate group shapes: all-same-prefix, all-distinct
    /// prefixes, k = 2, and mixed sizes.
    #[test]
    fn grouped_kernels_match_naive_on_degenerate_groups() {
        let tax = Taxonomy::uniform(3, 3, 2).unwrap();
        let leaves = tax.leaves().to_vec();
        let mut rng = Xoshiro256pp::seed_from_u64(0x9F0F);
        let rows: Vec<Vec<NodeId>> = (0..180)
            .map(|_| {
                let w = rng.gen_range(2..=7);
                (0..w)
                    .map(|_| leaves[rng.gen_range(0..leaves.len())])
                    .collect()
            })
            .collect();
        let db = TransactionDb::new(rows).unwrap();
        let view = MultiLevelView::build(&db, &tax);
        let nodes = tax.nodes_at_level(2).unwrap().to_vec();
        // All-same-prefix: {n0, n1, x} for every other x.
        let same_prefix: Vec<Itemset> = nodes[2..]
            .iter()
            .map(|&x| Itemset::new(vec![nodes[0], nodes[1], x]))
            .collect();
        // All-distinct prefixes: consecutive triples.
        let distinct: Vec<Itemset> = (0..nodes.len() - 2)
            .map(|i| Itemset::new(vec![nodes[i], nodes[i + 1], nodes[i + 2]]))
            .collect();
        // k = 2 and mixed-size batches.
        let pairs: Vec<Itemset> = (0..nodes.len() - 1)
            .map(|i| Itemset::pair(nodes[i], nodes[i + 1]))
            .collect();
        let mut mixed: Vec<Itemset> = Vec::new();
        mixed.push(Itemset::single(nodes[0]));
        mixed.extend(pairs.iter().cloned());
        mixed.extend(same_prefix.iter().cloned());
        mixed.sort_unstable();
        for batch in [&same_prefix, &distinct, &pairs, &mixed] {
            let expect = naive_tidset_counts(&view, 2, batch);
            for engine in [CountingEngine::Tidset, CountingEngine::Bitset] {
                let mut c = engine.make(&view);
                assert_eq!(
                    c.count_batch(2, batch),
                    expect,
                    "{} disagrees with the naive reference",
                    c.engine_name()
                );
            }
        }
    }

    /// Reuse accounting: one group of g same-prefix k=3 candidates costs
    /// one materialized prefix (k−2 = 1 intersection) plus one size-only
    /// intersection per member, and reports g−1 prefix reuses; the naive
    /// kernel would have charged g·(k−1).
    #[test]
    fn prefix_reuse_stats_accounting() {
        let tax = Taxonomy::uniform(3, 3, 2).unwrap();
        let leaves = tax.leaves().to_vec();
        let mut rng = Xoshiro256pp::seed_from_u64(0xACC1);
        let rows: Vec<Vec<NodeId>> = (0..120)
            .map(|_| {
                let w = rng.gen_range(3..=6);
                (0..w)
                    .map(|_| leaves[rng.gen_range(0..leaves.len())])
                    .collect()
            })
            .collect();
        let db = TransactionDb::new(rows).unwrap();
        let view = MultiLevelView::build(&db, &tax);
        let nodes = tax.nodes_at_level(2).unwrap().to_vec();
        let batch: Vec<Itemset> = nodes[2..]
            .iter()
            .map(|&x| Itemset::new(vec![nodes[0], nodes[1], x]))
            .collect();
        let g = batch.len() as u64;
        let mut tc = TidsetCounter::new(&view);
        tc.count_batch(2, &batch);
        assert_eq!(tc.stats().prefix_reuses, g - 1);
        // {n0, n1} co-occur in this dense random data, so the prefix is
        // non-empty and every member costs exactly one intersection.
        assert_eq!(tc.stats().intersections, 1 + g);
        // Pairs cache nothing: zero reuses, one intersection per pair.
        let mut tc = TidsetCounter::new(&view);
        tc.count_batch(
            2,
            &batch
                .iter()
                .map(|c| Itemset::pair(c.items()[0], c.items()[1]))
                .collect::<Vec<_>>(),
        );
        assert_eq!(tc.stats().prefix_reuses, 0);
    }

    /// Group-boundary sharding: stats (not just counts) are identical at
    /// every thread count even when the batch is dominated by one giant
    /// prefix group that an even candidate split would tear apart.
    #[test]
    fn group_sharding_keeps_stats_invariant_across_threads() {
        let tax = Taxonomy::uniform(3, 3, 2).unwrap();
        let leaves = tax.leaves().to_vec();
        let mut rng = Xoshiro256pp::seed_from_u64(0x51AB);
        let rows: Vec<Vec<NodeId>> = (0..150)
            .map(|_| {
                let w = rng.gen_range(2..=6);
                (0..w)
                    .map(|_| leaves[rng.gen_range(0..leaves.len())])
                    .collect()
            })
            .collect();
        let db = TransactionDb::new(rows).unwrap();
        let view = MultiLevelView::build(&db, &tax);
        let nodes = tax.nodes_at_level(2).unwrap().to_vec();
        // One giant same-prefix group followed by distinct-prefix filler,
        // repeated until well past the sharding cutoff.
        let mut batch: Vec<Itemset> = Vec::new();
        while batch.len() < 4 * MIN_SHARD_CANDIDATES {
            for &x in &nodes[2..] {
                batch.push(Itemset::new(vec![nodes[0], nodes[1], x]));
            }
            for i in 0..nodes.len() - 2 {
                batch.push(Itemset::new(vec![nodes[i], nodes[i + 1], nodes[i + 2]]));
            }
        }
        for engine in [CountingEngine::Tidset, CountingEngine::Bitset] {
            let mut seq = engine.make(&view);
            let expect = seq.count_batch(2, &batch);
            assert_eq!(expect, naive_tidset_counts(&view, 2, &batch));
            for threads in [2usize, 3, 5, 7] {
                let mut par = engine.make(&view);
                assert_eq!(par.count_batch_sharded(2, &batch, threads), expect);
                assert_eq!(
                    par.stats(),
                    seq.stats(),
                    "{} stats diverge at threads={threads}",
                    par.engine_name()
                );
            }
        }
    }

    /// Build a random view plus sorted k=3 and k=4 batches whose prefixes
    /// chain across columns ({n0,n1,·} then {n0,n1,n2,·}), the shape the
    /// miner's zigzag produces.
    fn cached_fixture() -> (Taxonomy, crate::transaction::TransactionDb) {
        let tax = Taxonomy::uniform(3, 3, 2).unwrap();
        let leaves = tax.leaves().to_vec();
        let mut rng = Xoshiro256pp::seed_from_u64(0xCAC4E);
        let rows: Vec<Vec<NodeId>> = (0..160)
            .map(|_| {
                let w = rng.gen_range(3..=6);
                (0..w)
                    .map(|_| leaves[rng.gen_range(0..leaves.len())])
                    .collect()
            })
            .collect();
        (tax, TransactionDb::new(rows).unwrap())
    }

    fn chained_batches(tax: &Taxonomy) -> (Vec<Itemset>, Vec<Itemset>) {
        let nodes = tax.nodes_at_level(2).unwrap().to_vec();
        let mut b3: Vec<Itemset> = Vec::new();
        for i in 0..nodes.len() {
            for j in i + 1..nodes.len() {
                for &x in &nodes[j + 1..] {
                    b3.push(Itemset::new(vec![nodes[i], nodes[j], x]));
                }
            }
        }
        b3.sort_unstable();
        let mut b4: Vec<Itemset> = nodes[3..]
            .iter()
            .map(|&x| Itemset::new(vec![nodes[0], nodes[1], nodes[2], x]))
            .collect();
        b4.sort_unstable();
        (b3, b4)
    }

    /// The tentpole invariant: cached counting is bit-identical — counts
    /// AND reported stats — to the uncached path for every vertical engine,
    /// thread count and cache budget, including budget 0 (degenerates to
    /// the uncached behavior) and cross-batch warm caches.
    #[test]
    fn cached_counting_matches_uncached_across_budgets_and_threads() {
        let (tax, db) = cached_fixture();
        let view = MultiLevelView::build(&db, &tax);
        let (b3, b4) = chained_batches(&tax);
        assert!(b3.len() >= MIN_SHARD_CANDIDATES, "exercise sharding");
        for engine in [CountingEngine::Tidset, CountingEngine::Bitset] {
            let mut base = engine.make(&view);
            let expect3 = base.count_batch(2, &b3);
            let expect4 = base.count_batch(2, &b4);
            assert_eq!(expect3, naive_tidset_counts(&view, 2, &b3));
            assert_eq!(expect4, naive_tidset_counts(&view, 2, &b4));
            for threads in [1usize, 2, 7] {
                for budget in [0usize, 2048, usize::MAX] {
                    let mut cache = CellCache::new(budget);
                    let mut c = engine.make(&view);
                    let got3 = c.count_batch_cached(2, &b3, threads, &mut cache);
                    let got4 = c.count_batch_cached(2, &b4, threads, &mut cache);
                    assert_eq!(got3, expect3, "{engine:?} t={threads} b={budget}");
                    assert_eq!(got4, expect4, "{engine:?} t={threads} b={budget}");
                    assert_eq!(
                        c.stats(),
                        base.stats(),
                        "{engine:?} stats diverge at t={threads} b={budget}"
                    );
                }
            }
        }
    }

    /// Cache-efficiency accounting: the next k-column parent-hits the
    /// prefixes the previous column materialized, the prefix itself is
    /// never probed (k = 3 groups make no lookups at all), and a zero
    /// budget records nothing.
    #[test]
    fn cross_cell_cache_hits_are_observable() {
        let (tax, db) = cached_fixture();
        let view = MultiLevelView::build(&db, &tax);
        let (b3, b4) = chained_batches(&tax);
        for engine in [CountingEngine::Tidset, CountingEngine::Bitset] {
            let mut cache = CellCache::new(usize::MAX);
            let mut c = engine.make(&view);
            c.count_batch_cached(2, &b3, 1, &mut cache);
            let cold = cache.stats();
            assert!(cold.insertions > 0, "{engine:?}: k=3 populates the cache");
            assert_eq!(cold.lookups, 0, "{engine:?}: k=3 has no parent to probe");
            c.count_batch_cached(2, &b4, 1, &mut cache);
            let next_col = cache.stats();
            assert!(
                next_col.parent_hits > 0,
                "{engine:?}: k=4 prefixes extend the cached k=3 prefixes"
            );
            assert_eq!(next_col.exact_hits, 0);
            assert!(next_col.lookups >= next_col.parent_hits);
            assert!(next_col.bytes_resident > 0);
        }
        // Budget 0: nothing probed, nothing stored.
        let mut off = CellCache::disabled();
        let mut tc = TidsetCounter::new(&view);
        tc.count_batch_cached(2, &b3, 1, &mut off);
        assert_eq!(off.stats(), crate::cache::CacheStats::default());
    }

    #[test]
    fn item_queries_delegate_to_view() {
        let (tax, db) = toy();
        let view = MultiLevelView::build(&db, &tax);
        let c = TidsetCounter::new(&view);
        let a = tax.node_by_name("a").unwrap();
        assert_eq!(c.item_support(1, a), 8);
        assert_eq!(c.num_transactions(), 10);
        assert_eq!(c.present_items(1).len(), 2);
    }

    #[test]
    fn engine_names_and_parse() {
        let (tax, db) = toy();
        let view = MultiLevelView::build(&db, &tax);
        assert_eq!(CountingEngine::Tidset.make(&view).engine_name(), "tidset");
        assert_eq!(CountingEngine::Scan.make(&view).engine_name(), "scan");
        assert_eq!(CountingEngine::Bitset.make(&view).engine_name(), "bitset");
        for engine in CountingEngine::ALL {
            assert_eq!(
                CountingEngine::parse(engine.name()),
                Some(engine),
                "name() is the inverse of parse"
            );
        }
        assert_eq!(CountingEngine::parse("nope"), None);
    }

    /// The default engine is the per-item hybrid, and `auto` — the name of
    /// the retired per-level dispatcher — resolves to it.
    #[test]
    fn default_and_auto_are_the_hybrid() {
        let (tax, db) = toy();
        let view = MultiLevelView::build(&db, &tax);
        assert_eq!(CountingEngine::default(), CountingEngine::Bitset);
        assert_eq!(CountingEngine::parse("auto"), Some(CountingEngine::Bitset));
        assert_eq!(
            CountingEngine::default().make(&view).engine_name(),
            "bitset"
        );
    }

    /// Every engine agrees on counts at every level of a dense fixture
    /// (wide transactions over few leaves) and a sparse one (narrow
    /// transactions over many leaves).
    #[test]
    fn engines_agree_on_dense_and_sparse_levels() {
        let fixture = |shape: (usize, usize, usize), n: usize, (lo, hi): (usize, usize), seed| {
            let (roots, fanout, height) = shape;
            let tax = Taxonomy::uniform(roots, fanout, height).unwrap();
            let leaves = tax.leaves().to_vec();
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let rows: Vec<Vec<NodeId>> = (0..n)
                .map(|_| {
                    let w = rng.gen_range(lo..=hi);
                    (0..w)
                        .map(|_| leaves[rng.gen_range(0..leaves.len())])
                        .collect()
                })
                .collect();
            (tax, TransactionDb::new(rows).unwrap())
        };
        for (tax, db) in [
            fixture((2, 2, 2), 100, (3, 4), 7),
            fixture((3, 4, 3), 400, (1, 3), 8),
        ] {
            let view = MultiLevelView::build(&db, &tax);
            for h in 1..=tax.height() {
                let nodes = tax.nodes_at_level(h).unwrap();
                let mut cands = Vec::new();
                for i in 0..nodes.len() {
                    for j in (i + 1)..nodes.len().min(i + 12) {
                        cands.push(Itemset::pair(nodes[i], nodes[j]));
                    }
                }
                let expect = naive_tidset_counts(&view, h, &cands);
                for engine in CountingEngine::ALL {
                    let mut c = engine.make(&view);
                    assert_eq!(c.count_batch(h, &cands), expect, "{engine:?} level {h}");
                    assert_eq!(c.stats().candidates_counted, cands.len() as u64);
                }
            }
        }
    }

    /// Random DBs over a uniform taxonomy: engines must agree with the
    /// naive reference count for random candidate itemsets at every level.
    #[test]
    fn engines_agree_with_reference_on_random_dbs() {
        let tax = Taxonomy::uniform(3, 2, 3).unwrap();
        let leaves = tax.leaves().to_vec();
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        for _ in 0..10 {
            let rows: Vec<Vec<NodeId>> = (0..50)
                .map(|_| {
                    let w = rng.gen_range(1..=5);
                    (0..w)
                        .map(|_| leaves[rng.gen_range(0..leaves.len())])
                        .collect()
                })
                .collect();
            let db = TransactionDb::new(rows).unwrap();
            let view = MultiLevelView::build(&db, &tax);
            for h in 1..=3 {
                let nodes = tax.nodes_at_level(h).unwrap();
                let mut cands = Vec::new();
                for i in 0..nodes.len().min(4) {
                    for j in (i + 1)..nodes.len().min(5) {
                        cands.push(Itemset::pair(nodes[i], nodes[j]));
                    }
                }
                let mut tc = TidsetCounter::new(&view);
                let mut sc = ScanCounter::new(&view);
                let t = tc.count_batch(h, &cands);
                let s = sc.count_batch(h, &cands);
                assert_eq!(t, s, "engines disagree at level {h}");
                // Reference: project and scan.
                for (c, &sup) in cands.iter().zip(&t) {
                    let reference = view
                        .level(h)
                        .transactions()
                        .filter(|txn| c.items().iter().all(|it| txn.contains(it)))
                        .count() as u64;
                    assert_eq!(sup, reference, "level {h} {c}");
                }
            }
        }
    }

    /// Support of any pair is bounded by the min of item supports, and
    /// monotone under generalization (an ancestor pair's support
    /// dominates the leaf pair's support).
    ///
    /// Ported from a 256-case proptest drawing `seed in 0u64..500`; a fixed
    /// sweep of 256 seeds keeps the case count deterministically. (The
    /// retired `prop_assume!(p0 != p1)` is now an assert: the first and last
    /// leaves of a 2-root uniform taxonomy always sit under different roots.)
    #[test]
    fn generalization_monotonicity() {
        for seed in 0..256u64 {
            let tax = Taxonomy::uniform(2, 2, 2).unwrap();
            let leaves = tax.leaves().to_vec();
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let rows: Vec<Vec<NodeId>> = (0..30)
                .map(|_| {
                    let w = rng.gen_range(1..=4);
                    (0..w)
                        .map(|_| leaves[rng.gen_range(0..leaves.len())])
                        .collect()
                })
                .collect();
            let db = TransactionDb::new(rows).unwrap();
            let view = MultiLevelView::build(&db, &tax);
            let mut c = TidsetCounter::new(&view);
            // A cross-category leaf pair and its level-1 generalization.
            let l0 = leaves[0];
            let l1 = *leaves.last().unwrap();
            let p0 = tax.ancestor_at_level(l0, 1).unwrap();
            let p1 = tax.ancestor_at_level(l1, 1).unwrap();
            assert_ne!(p0, p1, "cross-root leaves must generalize differently");
            let leaf_sup = c.count_batch(2, &[Itemset::pair(l0, l1)])[0];
            let gen_sup = c.count_batch(1, &[Itemset::pair(p0, p1)])[0];
            assert!(gen_sup >= leaf_sup, "seed {seed}");
            assert!(leaf_sup <= view.level(2).item_support(l0), "seed {seed}");
        }
    }
}
