//! The two-level counting cache: a cross-cell prefix cache for the grouped
//! counting kernels, and a session-level support cache that seeds repeated
//! mining runs.
//!
//! # Level 1 — cross-cell prefix cache
//!
//! The grouped kernels ([`crate::TidsetCounter`], [`crate::BitsetCounter`])
//! materialize each `(k−1)`-prefix intersection once per batch, but every
//! batch used to start from level singletons. [`PrefixCache`] retains the
//! materialized prefixes *across* batches, keyed by `(h, prefix)`: when the
//! `k`-column of a cell is counted, each group first probes for its exact
//! prefix and then for the parent `(k−2)`-prefix the `(h, k−1)` cell
//! materialized — a hit replaces the full shortest-first rebuild with at
//! most one incremental intersection.
//!
//! Caching never changes counts, and the cached kernels charge
//! *as-if-uncached* [`crate::CounterStats`] (exact — see the kernel docs),
//! so results **and statistics** stay bit-identical to uncached runs at
//! every thread count and budget. Sharded execution keeps one
//! [`PrefixCache`] per worker slot ([`CellCache`]), merge-free: a shard only
//! ever sees prefixes it materialized itself, so no cross-thread state can
//! leak into the result path.
//!
//! The cache enforces an explicit byte budget with LRU eviction at *cell*
//! granularity — entries are grouped by `(h, prefix length)`, the unit the
//! miner naturally retires as it moves through the search table. Budget `0`
//! disables caching entirely (every probe misses, nothing is stored), which
//! degenerates to the per-batch behavior.
//!
//! # Level 2 — session support cache
//!
//! Supports are properties of the data alone — no threshold, pruning
//! variant, engine or thread count changes them. [`SupportCache`] is a
//! `(h, itemset) → support` map a session fills from completed runs and
//! consults before counting, so sweep grid points that differ only in γ/ε
//! (or pruning, or engine) never recount itemsets an earlier run already
//! counted.
//!
//! Everything here sits on the `flipper-results/v1` result path, so only
//! ordered containers are used (`flipper-lint`'s determinism rule holds
//! this module to the same rules as the miner).

use crate::bitset::Bitmap;
use crate::itemset::Itemset;
use flipper_taxonomy::NodeId;
use std::collections::BTreeMap;

/// Default byte budget for the per-run cross-cell prefix cache (16 MiB).
pub const DEFAULT_CACHE_BUDGET: usize = 16 << 20;

/// Fixed per-entry bookkeeping estimate (keys, tree nodes, vec headers).
const ENTRY_OVERHEAD: usize = 64;

/// Consecutive non-matching resident entries [`SupportCache::seed_batch`]
/// walks past before re-anchoring its cursor with a fresh seek.
const SEED_SKIP_RESTART: usize = 32;

/// Cache efficiency counters. All counters are sums, so per-shard stats
/// merge associatively; none of them feed `flipper-results/v1` bytes — they
/// exist for benches and diagnostics only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Prefix-cache probes (exact and parent probes both count).
    pub lookups: u64,
    /// Probes answered by the exact `(h, prefix)` entry.
    pub exact_hits: u64,
    /// Probes answered from the parent `(k−2)`-prefix plus one incremental
    /// intersection.
    pub parent_hits: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Cells evicted to hold the byte budget.
    pub evicted_cells: u64,
    /// Bytes resident (estimate; summed across shards when merged).
    pub bytes_resident: u64,
    /// Support-cache probes.
    pub seed_lookups: u64,
    /// Support-cache probes answered without counting.
    pub seed_hits: u64,
}

impl CacheStats {
    /// Fold `other` into `self` (all fields are sums).
    pub fn merge(&mut self, other: &CacheStats) {
        self.lookups += other.lookups;
        self.exact_hits += other.exact_hits;
        self.parent_hits += other.parent_hits;
        self.insertions += other.insertions;
        self.evicted_cells += other.evicted_cells;
        self.bytes_resident += other.bytes_resident;
        self.seed_lookups += other.seed_lookups;
        self.seed_hits += other.seed_hits;
    }

    /// Fraction of prefix probes that hit (exact or parent), in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        (self.exact_hits + self.parent_hits) as f64 / self.lookups as f64
    }
}

/// A materialized prefix in whichever representation its kernel produced.
#[derive(Debug, Clone)]
pub enum CachedPrefix {
    /// Sorted tid-list (tidset kernel; sparse bitset prefixes).
    Tids(Vec<u32>),
    /// Packed bitmap (all-dense bitset prefixes).
    Bits(Bitmap),
}

impl CachedPrefix {
    fn bytes(&self) -> usize {
        match self {
            CachedPrefix::Tids(t) => t.len() * std::mem::size_of::<u32>(),
            CachedPrefix::Bits(b) => b.len().div_ceil(64) * std::mem::size_of::<u64>(),
        }
    }
}

/// One cell's worth of cached prefixes: all entries sharing `(h, len)`.
#[derive(Debug, Default)]
struct CellEntry {
    map: BTreeMap<Vec<NodeId>, CachedPrefix>,
    bytes: usize,
    /// Last-touched tick for cell-granular LRU.
    tick: u64,
}

/// A budgeted `(h, prefix) → materialized intersection` cache.
///
/// Entries are grouped into cells keyed `(h, prefix length)`; eviction
/// removes whole least-recently-touched cells until the byte budget holds.
/// A budget of `0` disables the cache (probes miss, inserts drop).
#[derive(Debug)]
pub struct PrefixCache {
    budget: usize,
    cells: BTreeMap<(usize, usize), CellEntry>,
    bytes: usize,
    /// Deterministic logical clock: bumped on every touch.
    tick: u64,
    stats: CacheStats,
}

impl PrefixCache {
    /// Create a cache holding at most `budget` bytes of prefix payload
    /// (estimate, including fixed per-entry overhead). `0` disables it.
    pub fn new(budget: usize) -> Self {
        PrefixCache {
            budget,
            cells: BTreeMap::new(),
            bytes: 0,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Whether the cache stores anything at all (budget > 0).
    pub fn enabled(&self) -> bool {
        self.budget > 0
    }

    /// Number of cached prefixes.
    pub fn len(&self) -> usize {
        self.cells.values().map(|c| c.map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.cells.values().all(|c| c.map.is_empty())
    }

    /// Estimated resident bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Probe for the prefix `(h, prefix)`. Counts a lookup and touches the
    /// containing cell's LRU tick; hit classification (exact vs parent) is
    /// the caller's, via [`PrefixCache::stats_mut`].
    pub fn lookup(&mut self, h: usize, prefix: &[NodeId]) -> Option<&CachedPrefix> {
        if self.budget == 0 {
            return None;
        }
        self.stats.lookups += 1;
        self.tick += 1;
        let tick = self.tick;
        let cell = self.cells.get_mut(&(h, prefix.len()))?;
        cell.tick = tick;
        cell.map.get(prefix)
    }

    /// Insert (or replace) the materialized prefix for `(h, prefix)`,
    /// evicting least-recently-touched cells while the budget is exceeded.
    /// No-op when disabled.
    pub fn insert(&mut self, h: usize, prefix: &[NodeId], value: CachedPrefix) {
        if self.budget == 0 {
            return;
        }
        let cost = std::mem::size_of_val(prefix) + value.bytes() + ENTRY_OVERHEAD;
        self.tick += 1;
        let tick = self.tick;
        let key = (h, prefix.len());
        let cell = self.cells.entry(key).or_default();
        cell.tick = tick;
        if let Some(old) = cell.map.insert(prefix.to_vec(), value) {
            let old_cost = std::mem::size_of_val(prefix) + old.bytes() + ENTRY_OVERHEAD;
            cell.bytes -= old_cost;
            self.bytes -= old_cost;
        }
        cell.bytes += cost;
        self.bytes += cost;
        self.stats.insertions += 1;
        // Evict whole least-recently-touched cells (never the one just
        // touched) while over budget; ties break on the smaller cell key,
        // so eviction order is deterministic.
        while self.bytes > self.budget && self.cells.len() > 1 {
            let victim = self
                .cells
                .iter()
                .filter(|(&k, _)| k != key)
                .min_by_key(|(&k, e)| (e.tick, k))
                .map(|(&k, _)| k);
            let Some(victim) = victim else { break };
            if let Some(evicted) = self.cells.remove(&victim) {
                self.bytes -= evicted.bytes;
                self.stats.evicted_cells += 1;
                flipper_obs::event(
                    "cache.evict",
                    &[
                        ("h", victim.0 as u64),
                        ("len", victim.1 as u64),
                        ("bytes", evicted.bytes as u64),
                    ],
                );
            }
        }
        if self.bytes > self.budget {
            // The current cell alone exceeds the budget: a hard budget
            // means it cannot stay resident either.
            flipper_obs::event(
                "cache.evict",
                &[
                    ("h", key.0 as u64),
                    ("len", key.1 as u64),
                    ("bytes", self.bytes as u64),
                ],
            );
            self.cells.clear();
            self.bytes = 0;
            self.stats.evicted_cells += 1;
        }
    }

    /// Mutable access to the efficiency counters, for kernels classifying
    /// their hits.
    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// Efficiency counters with `bytes_resident` refreshed.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            bytes_resident: self.bytes as u64,
            ..self.stats
        }
    }

    /// Drop every entry (budget and accumulated stats are kept).
    pub fn clear(&mut self) {
        self.cells.clear();
        self.bytes = 0;
    }
}

/// The per-run cache handed to [`crate::SupportCounter::count_batch_cached`]:
/// one [`PrefixCache`] per worker slot so sharded counting stays merge-free
/// — a shard only reads and writes its own slot, and results are
/// bit-identical at every thread count because the cached kernels never let
/// cache state influence counts or charged statistics.
///
/// The byte budget applies per shard (each worker's slot gets the full
/// budget; the whole-run bound is `budget × workers`).
#[derive(Debug)]
pub struct CellCache {
    budget: usize,
    shards: Vec<PrefixCache>,
}

impl CellCache {
    /// Create a cache whose shards each hold at most `budget` bytes.
    pub fn new(budget: usize) -> Self {
        CellCache {
            budget,
            shards: Vec::new(),
        }
    }

    /// A cache that stores nothing — [`crate::SupportCounter::count_batch_cached`]
    /// degenerates to plain sharded counting.
    pub fn disabled() -> Self {
        CellCache::new(0)
    }

    /// The per-shard byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Whether any caching happens at all.
    pub fn enabled(&self) -> bool {
        self.budget > 0
    }

    /// The sequential (shard 0) cache slot.
    pub fn shard(&mut self) -> &mut PrefixCache {
        &mut self.shards_mut(1)[0]
    }

    /// At least `n` shard slots, growing lazily; slot `i` is always handed
    /// to worker `i`, so a rerun at the same thread count reuses the warm
    /// per-worker caches.
    pub fn shards_mut(&mut self, n: usize) -> &mut [PrefixCache] {
        let n = n.max(1);
        while self.shards.len() < n {
            self.shards.push(PrefixCache::new(self.budget));
        }
        &mut self.shards[..n]
    }

    /// Merged efficiency counters across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            total.merge(&s.stats());
        }
        total
    }
}

/// Session-level `(h, itemset) → support` cache.
///
/// Supports are engine-, threshold- and thread-independent facts about the
/// data, so any completed run may seed any later run over the same view.
/// The optional byte cap is a soft stop: once exceeded, further inserts are
/// dropped (deterministically) rather than evicting — the map only ever
/// holds exact counted values, so staleness cannot occur.
#[derive(Debug, Default)]
pub struct SupportCache {
    map: BTreeMap<(usize, Itemset), u64>,
    bytes: usize,
    cap: Option<usize>,
    stats: CacheStats,
}

impl SupportCache {
    /// An unbounded support cache.
    pub fn new() -> Self {
        SupportCache::default()
    }

    /// A support cache that stops absorbing entries once `cap` bytes
    /// (estimated) are resident.
    pub fn with_cap(cap: usize) -> Self {
        SupportCache {
            cap: Some(cap),
            ..SupportCache::default()
        }
    }

    /// Known support of `set` at level `h`, if any run counted it before.
    /// Immutable so a read-locked cache can seed concurrent sweep jobs.
    pub fn get(&self, h: usize, set: &Itemset) -> Option<u64> {
        self.map.get(&(h, set.clone())).copied()
    }

    /// Answer a whole candidate batch from the cache in one ordered merge.
    ///
    /// `candidates` must be sorted ascending (the miner's candidate batches
    /// are — Apriori joins emit them in order). Instead of one `BTreeMap`
    /// probe (and one `Itemset` clone for the probe key) per candidate,
    /// this walks a single range cursor over the `(h, …)` key span in
    /// lockstep with the batch: `O(C + R)` comparisons for `C` candidates
    /// against `R` resident entries in the level, with zero per-candidate
    /// allocations. When the resident span is much larger than the batch,
    /// a skip-restart heuristic re-anchors the cursor with a fresh
    /// `range()` seek after `SEED_SKIP_RESTART` consecutive non-matching
    /// entries, bounding the walk at `O(C log R)`.
    ///
    /// Calls `found(i, support)` for every candidate `i` whose support is
    /// cached, in ascending `i`, and returns the number of hits. Like
    /// [`SupportCache::get`] this is `&self`, so a read-locked cache can
    /// seed concurrent sweep jobs.
    ///
    /// # Panics
    /// Debug-asserts that `candidates` is sorted.
    pub fn seed_batch<F>(&self, h: usize, candidates: &[Itemset], mut found: F) -> u64
    where
        F: FnMut(usize, u64),
    {
        debug_assert!(candidates.windows(2).all(|w| w[0] < w[1]));
        let Some(first) = candidates.first() else {
            return 0;
        };
        if self.map.is_empty() {
            return 0;
        }
        let mut hits = 0u64;
        let mut cursor = self.map.range((h, first.clone())..).peekable();
        let mut skipped = 0usize;
        for (i, cand) in candidates.iter().enumerate() {
            let hit = loop {
                match cursor.peek() {
                    // Resident entries for this level exhausted: no later
                    // candidate can hit either.
                    None => return hits,
                    Some(((eh, _), _)) if *eh != h => return hits,
                    Some(((_, set), &sup)) => match set.cmp(cand) {
                        std::cmp::Ordering::Less => {
                            if skipped >= SEED_SKIP_RESTART {
                                // Long resident run between candidates:
                                // seek instead of walking entry by entry.
                                cursor = self.map.range((h, cand.clone())..).peekable();
                                skipped = 0;
                            } else {
                                cursor.next();
                                skipped += 1;
                            }
                        }
                        std::cmp::Ordering::Equal => break Some(sup),
                        std::cmp::Ordering::Greater => break None,
                    },
                }
            };
            skipped = 0;
            if let Some(sup) = hit {
                found(i, sup);
                hits += 1;
                cursor.next();
            }
        }
        hits
    }

    /// Record a counted support. Drops the insert once the byte cap is hit.
    pub fn insert(&mut self, h: usize, set: &Itemset, support: u64) {
        if self.cap.is_some_and(|cap| self.bytes >= cap) {
            return;
        }
        let cost = set.len() * std::mem::size_of::<NodeId>() + ENTRY_OVERHEAD;
        if self.map.insert((h, set.clone()), support).is_none() {
            self.bytes += cost;
            self.stats.insertions += 1;
        }
    }

    /// Credit one seeded counting round to the stats. [`SupportCache::get`]
    /// is deliberately `&self` (a read-locked cache can seed concurrent
    /// jobs), so probe counters are reported back in bulk by the caller
    /// that drove the round.
    pub fn record_seed_round(&mut self, lookups: u64, hits: u64) {
        self.stats.seed_lookups += lookups;
        self.stats.seed_hits += hits;
        flipper_obs::counter_add("flipper_seed_lookups_total", lookups);
        flipper_obs::counter_add("flipper_seed_hits_total", hits);
    }

    /// Number of cached supports.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no supports are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Estimated resident bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Insertion counters plus resident bytes.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            bytes_resident: self.bytes as u64,
            ..self.stats
        }
    }

    /// Drop every cached support and reset the counters to zero (the byte
    /// cap is kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.bytes = 0;
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[usize]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId::from_index(i)).collect()
    }

    #[test]
    fn disabled_cache_never_stores() {
        let mut c = PrefixCache::new(0);
        assert!(!c.enabled());
        c.insert(1, &ids(&[1, 2]), CachedPrefix::Tids(vec![1, 2, 3]));
        assert!(c.lookup(1, &ids(&[1, 2])).is_none());
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().lookups, 0, "disabled probes are free");
    }

    #[test]
    fn exact_roundtrip_and_stats() {
        let mut c = PrefixCache::new(1 << 20);
        let p = ids(&[3, 5]);
        assert!(c.lookup(2, &p).is_none());
        c.insert(2, &p, CachedPrefix::Tids(vec![10, 20]));
        match c.lookup(2, &p) {
            Some(CachedPrefix::Tids(t)) => assert_eq!(t, &vec![10, 20]),
            other => panic!("expected tids hit, got {other:?}"),
        }
        // Different level or different prefix: miss.
        assert!(c.lookup(3, &p).is_none());
        assert!(c.lookup(2, &ids(&[3, 6])).is_none());
        let s = c.stats();
        assert_eq!(s.lookups, 4);
        assert_eq!(s.insertions, 1);
        assert!(s.bytes_resident > 0);
    }

    #[test]
    fn replacing_an_entry_keeps_bytes_consistent() {
        let mut c = PrefixCache::new(1 << 20);
        let p = ids(&[1, 2]);
        c.insert(1, &p, CachedPrefix::Tids(vec![0; 100]));
        let b1 = c.bytes();
        c.insert(1, &p, CachedPrefix::Tids(vec![0; 100]));
        assert_eq!(c.bytes(), b1, "same payload, same accounting");
        c.insert(1, &p, CachedPrefix::Tids(vec![0; 10]));
        assert!(c.bytes() < b1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_is_lru_over_cells() {
        // Budget fits roughly two cells of one ~400-byte entry each.
        let mut c = PrefixCache::new(1100);
        c.insert(1, &ids(&[1, 2]), CachedPrefix::Tids(vec![0; 80])); // cell (1,2)
        c.insert(1, &ids(&[1, 2, 3]), CachedPrefix::Tids(vec![0; 80])); // cell (1,3)
                                                                        // Touch (1,2) so (1,3) is the LRU cell.
        assert!(c.lookup(1, &ids(&[1, 2])).is_some());
        c.insert(2, &ids(&[4, 5]), CachedPrefix::Tids(vec![0; 80])); // cell (2,2) — over budget
        assert!(c.lookup(1, &ids(&[1, 2, 3])).is_none(), "LRU cell evicted");
        assert!(c.lookup(1, &ids(&[1, 2])).is_some(), "touched cell kept");
        assert!(c.lookup(2, &ids(&[4, 5])).is_some(), "newest cell kept");
        assert!(c.stats().evicted_cells >= 1);
        assert!(c.bytes() <= 1100);
    }

    #[test]
    fn oversized_single_cell_is_dropped_entirely() {
        let mut c = PrefixCache::new(100);
        c.insert(1, &ids(&[1, 2]), CachedPrefix::Tids(vec![0; 1000]));
        assert_eq!(c.len(), 0, "an entry that breaks the budget cannot stay");
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn bitmap_entries_account_bytes() {
        let mut c = PrefixCache::new(1 << 20);
        c.insert(1, &ids(&[1, 2]), CachedPrefix::Bits(Bitmap::zeros(640)));
        assert!(c.bytes() >= 640 / 8);
        assert!(matches!(
            c.lookup(1, &ids(&[1, 2])),
            Some(CachedPrefix::Bits(_))
        ));
    }

    #[test]
    fn cell_cache_shards_are_independent() {
        let mut cc = CellCache::new(1 << 20);
        assert!(cc.enabled());
        let shards = cc.shards_mut(3);
        assert_eq!(shards.len(), 3);
        shards[0].insert(1, &ids(&[1, 2]), CachedPrefix::Tids(vec![7]));
        assert!(shards[1].lookup(1, &ids(&[1, 2])).is_none());
        let s = cc.stats();
        assert_eq!(s.insertions, 1);
        assert_eq!(s.lookups, 1);
        // Shard slots persist: asking for fewer shards keeps earlier ones.
        let shard0 = cc.shard();
        assert!(shard0.lookup(1, &ids(&[1, 2])).is_some());
    }

    #[test]
    fn support_cache_roundtrip() {
        let mut sc = SupportCache::new();
        let set = Itemset::pair(NodeId::from_index(1), NodeId::from_index(4));
        assert!(sc.get(2, &set).is_none());
        sc.insert(2, &set, 17);
        assert_eq!(sc.get(2, &set), Some(17));
        assert!(sc.get(1, &set).is_none(), "level is part of the key");
        assert_eq!(sc.len(), 1);
        assert!(sc.bytes() > 0);
        sc.clear();
        assert!(sc.is_empty());
    }

    #[test]
    fn support_cache_clear_resets_counters_and_keeps_cap() {
        let a = Itemset::single(NodeId::from_index(1));
        let b = Itemset::single(NodeId::from_index(2));
        let mut sc = SupportCache::with_cap(ENTRY_OVERHEAD + 1);
        sc.insert(1, &a, 5);
        sc.record_seed_round(7, 3);
        assert_ne!(sc.stats(), CacheStats::default());
        sc.clear();
        assert!(sc.is_empty());
        assert_eq!(
            sc.stats(),
            CacheStats::default(),
            "clear zeroes every counter"
        );
        sc.insert(1, &b, 6);
        sc.insert(1, &a, 5);
        assert_eq!(sc.len(), 1, "the byte cap survives a clear");
        assert_eq!(sc.stats().insertions, 1);
    }

    #[test]
    fn support_cache_cap_stops_absorbing() {
        let mut sc = SupportCache::with_cap(ENTRY_OVERHEAD + 1);
        let a = Itemset::single(NodeId::from_index(1));
        let b = Itemset::single(NodeId::from_index(2));
        sc.insert(1, &a, 5);
        sc.insert(1, &b, 6);
        assert_eq!(sc.get(1, &a), Some(5));
        assert!(sc.get(1, &b).is_none(), "cap reached: insert dropped");
        assert_eq!(sc.len(), 1);
    }

    fn set3(a: usize, b: usize, c: usize) -> Itemset {
        Itemset::new(vec![
            NodeId::from_index(a),
            NodeId::from_index(b),
            NodeId::from_index(c),
        ])
    }

    /// `seed_batch` must agree exactly with per-candidate `get` probes.
    fn assert_batch_matches_get(sc: &SupportCache, h: usize, candidates: &[Itemset]) {
        let mut batch: Vec<Option<u64>> = vec![None; candidates.len()];
        let hits = sc.seed_batch(h, candidates, |i, sup| batch[i] = Some(sup));
        let individual: Vec<Option<u64>> = candidates.iter().map(|c| sc.get(h, c)).collect();
        assert_eq!(batch, individual);
        assert_eq!(hits, individual.iter().flatten().count() as u64);
    }

    #[test]
    fn seed_batch_matches_individual_probes() {
        let mut sc = SupportCache::new();
        // Resident: every third triple at h=2, plus noise at other levels.
        let all: Vec<Itemset> = (0..120).map(|i| set3(i, i + 200, i + 400)).collect();
        for (i, set) in all.iter().enumerate() {
            if i % 3 == 0 {
                sc.insert(2, set, 1000 + i as u64);
            }
            if i % 5 == 0 {
                sc.insert(1, set, 7);
                sc.insert(3, set, 9);
            }
        }
        assert_batch_matches_get(&sc, 2, &all);
        assert_batch_matches_get(&sc, 1, &all);
        assert_batch_matches_get(&sc, 4, &all);
        // Sparse batch over a dense residency (exercises skip-restart).
        let sparse: Vec<Itemset> = (0..120)
            .step_by(40)
            .map(|i| set3(i, i + 200, i + 400))
            .collect();
        assert_batch_matches_get(&sc, 2, &sparse);
    }

    #[test]
    fn seed_batch_skip_restart_crosses_long_resident_runs() {
        let mut sc = SupportCache::new();
        // A long run of resident entries between the two candidates forces
        // the cursor past SEED_SKIP_RESTART and into the re-anchor path.
        for i in 0..500 {
            sc.insert(2, &set3(i, i + 1000, i + 2000), i as u64);
        }
        let candidates = vec![set3(0, 1000, 2000), set3(499, 1499, 2499)];
        assert_batch_matches_get(&sc, 2, &candidates);
    }

    #[test]
    fn seed_batch_edge_cases() {
        let sc = SupportCache::new();
        assert_eq!(sc.seed_batch(1, &[], |_, _| panic!("no hits")), 0);
        assert_eq!(
            sc.seed_batch(1, &[set3(1, 2, 3)], |_, _| panic!("empty cache")),
            0
        );
        let mut sc = SupportCache::new();
        sc.insert(9, &set3(1, 2, 3), 4);
        assert_eq!(
            sc.seed_batch(1, &[set3(1, 2, 3)], |_, _| panic!("wrong level")),
            0
        );
        assert_batch_matches_get(&sc, 9, &[set3(1, 2, 3)]);
    }

    #[test]
    fn cache_stats_merge_sums() {
        let mut a = CacheStats {
            lookups: 10,
            exact_hits: 4,
            parent_hits: 2,
            insertions: 3,
            evicted_cells: 1,
            bytes_resident: 100,
            seed_lookups: 9,
            seed_hits: 5,
        };
        a.merge(&a.clone());
        assert_eq!(a.lookups, 20);
        assert_eq!(a.exact_hits, 8);
        assert_eq!(a.bytes_resident, 200);
        assert!((a.hit_rate() - 0.6).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
