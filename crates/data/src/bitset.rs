//! Hybrid bitmap / tid-list support counting — the default engine.
//!
//! Tid-lists win when items are sparse; when an item appears in a large
//! fraction of transactions (common at shallow taxonomy levels, where a
//! category may cover half the database), a packed bitmap with word-wise
//! AND + popcount is both smaller and faster. [`BitsetCounter`] makes that
//! choice per item: bitmaps for dense items, tid-lists for sparse ones, so
//! a level mixing a few very dense categories with a long sparse tail gets
//! the right representation for each.

use crate::cache::{CachedPrefix, CellCache, PrefixCache};
use crate::counting::{cached_group_sharded, prefix_groups};
use crate::itemset::Itemset;
use crate::projection::MultiLevelView;
use crate::tidset::{intersect_into, intersect_size, intersect_size_many};
use flipper_taxonomy::NodeId;
use std::collections::HashMap;
use std::sync::OnceLock;

/// A fixed-width packed bitmap over transaction ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zeros bitmap over `len` transactions.
    pub fn zeros(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Build from a sorted tid-list.
    pub fn from_tids(tids: &[u32], len: usize) -> Self {
        let mut b = Bitmap::zeros(len);
        for &t in tids {
            b.set(t as usize);
        }
        b
    }

    /// Number of transactions covered (bit capacity).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers zero transactions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Test bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Popcount of the AND of all `maps` (must share the same length).
    ///
    /// The two-map case — the prefix-kernel hot path — and the general fold
    /// both run in fixed-width 4×u64 blocks with a scalar tail and no
    /// data-dependent early exit, so LLVM autovectorizes the AND+popcount
    /// without any explicit SIMD.
    pub fn and_count(maps: &[&Bitmap]) -> u64 {
        match maps {
            [] => 0,
            [a] => a.count_ones(),
            [a, b] => {
                debug_assert_eq!(a.len, b.len);
                let mut n = 0u64;
                let mut ca = a.words.chunks_exact(4);
                let mut cb = b.words.chunks_exact(4);
                for (wa, wb) in ca.by_ref().zip(cb.by_ref()) {
                    n += (wa[0] & wb[0]).count_ones() as u64
                        + (wa[1] & wb[1]).count_ones() as u64
                        + (wa[2] & wb[2]).count_ones() as u64
                        + (wa[3] & wb[3]).count_ones() as u64;
                }
                for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
                    n += (x & y).count_ones() as u64;
                }
                n
            }
            maps => {
                let first = maps[0];
                debug_assert!(maps.iter().all(|m| m.len == first.len));
                let words = first.words.len();
                let mut n = 0u64;
                let mut w = 0;
                while w + 4 <= words {
                    let mut acc = [
                        first.words[w],
                        first.words[w + 1],
                        first.words[w + 2],
                        first.words[w + 3],
                    ];
                    for m in &maps[1..] {
                        acc[0] &= m.words[w];
                        acc[1] &= m.words[w + 1];
                        acc[2] &= m.words[w + 2];
                        acc[3] &= m.words[w + 3];
                    }
                    n += acc[0].count_ones() as u64
                        + acc[1].count_ones() as u64
                        + acc[2].count_ones() as u64
                        + acc[3].count_ones() as u64;
                    w += 4;
                }
                while w < words {
                    let mut acc = first.words[w];
                    for m in &maps[1..] {
                        acc &= m.words[w];
                    }
                    n += acc.count_ones() as u64;
                    w += 1;
                }
                n
            }
        }
    }

    /// Popcount of AND between a bitmap and a sorted tid-list (hybrid path).
    ///
    /// Probes four tids per iteration with branchless bit tests; the one
    /// up-front bounds check on the largest tid replaces a per-probe assert.
    pub fn and_tids_count(&self, tids: &[u32]) -> u64 {
        if let Some(&max) = tids.last() {
            assert!(
                (max as usize) < self.len,
                "bit {max} out of range {}",
                self.len
            );
        }
        let bit = |t: u32| (self.words[t as usize / 64] >> (t % 64)) & 1;
        let mut n = 0u64;
        let mut chunks = tids.chunks_exact(4);
        for c in chunks.by_ref() {
            n += bit(c[0]) + bit(c[1]) + bit(c[2]) + bit(c[3]);
        }
        for &t in chunks.remainder() {
            n += bit(t);
        }
        n
    }

    /// Overwrite this bitmap with a copy of `other`, reusing the existing
    /// word allocation — the scratch-buffer primitive behind prefix-group
    /// counting.
    pub fn copy_from(&mut self, other: &Bitmap) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
        self.len = other.len;
    }

    /// Word-wise `self &= other`.
    ///
    /// # Panics
    /// Panics when the bitmaps cover different transaction counts.
    pub fn and_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap lengths must match");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }
}

/// Hybrid dense/sparse counting engine.
///
/// Items whose support exceeds `density_threshold × N` get a bitmap;
/// everything else stays a tid-list. A candidate with at least one bitmap
/// member is counted by filtering the *sparsest* tid-list through the
/// bitmaps (or pure word-AND when all members are dense).
pub struct BitsetCounter<'v> {
    view: &'v MultiLevelView,
    /// Promoted items per level (index `h-1`). Each bitmap is built the
    /// first time a candidate needs it, so a run that counts few
    /// candidates does not pay for bitmaps of every dense item.
    bitmaps: Vec<HashMap<NodeId, OnceLock<Bitmap>>>,
    stats: crate::counting::CounterStats,
}

impl<'v> BitsetCounter<'v> {
    /// Default density threshold: items covering ≥ 1/16 of transactions are
    /// promoted to bitmaps.
    pub const DEFAULT_DENSITY: f64 = 1.0 / 16.0;

    /// Build the hybrid counter with the default density threshold.
    pub fn new(view: &'v MultiLevelView) -> Self {
        Self::with_density(view, Self::DEFAULT_DENSITY)
    }

    /// Build with an explicit density threshold in `[0, 1]`. A threshold of
    /// 0 promotes every item; 1.0+ promotes none (degenerating to tid-lists).
    pub fn with_density(view: &'v MultiLevelView, density: f64) -> Self {
        assert!(density >= 0.0, "density threshold must be non-negative");
        let cutoff = (density * view.num_transactions() as f64) as u64;
        let bitmaps = (1..=view.height())
            .map(|h| {
                let lv = view.level(h);
                lv.present_items()
                    .iter()
                    .filter(|&&item| lv.item_support(item) >= cutoff.max(1))
                    .map(|&item| (item, OnceLock::new()))
                    .collect()
            })
            .collect();
        BitsetCounter {
            view,
            bitmaps,
            stats: Default::default(),
        }
    }

    /// How many items are bitmap-backed at level `h` (diagnostics).
    pub fn dense_items(&self, h: usize) -> usize {
        self.bitmaps[h - 1].len()
    }

    /// The bitmap of `item` at level `h` when the item is promoted (built
    /// on first use), `None` when it stays a tid-list.
    fn bitmap(&self, h: usize, item: NodeId) -> Option<&Bitmap> {
        let cell = self.bitmaps[h - 1].get(&item)?;
        Some(cell.get_or_init(|| {
            Bitmap::from_tids(
                self.view.level(h).tidset(item),
                self.view.num_transactions(),
            )
        }))
    }

    /// [`crate::SupportCounter::count_shard`] with a cross-cell prefix
    /// cache, hybrid flavor: a multi-member `k ≥ 3` group resolves its
    /// prefix by parent hit (`k ≥ 4`: one combine of the cached
    /// `(k−2)`-prefix with the last prefix item, across all four
    /// dense/sparse pairings) or by the full rebuild; either result is
    /// cached for the next column.
    ///
    /// The uncached kernel charges every multi-member group `k−2`
    /// intersections plus one per member *unconditionally* (no early exit
    /// on empty prefixes), so the cached kernel charges exactly the same
    /// regardless of which path resolved the prefix — counts and stats are
    /// bit-identical to the uncached kernel at every budget and thread
    /// count. Singleton `k ≥ 3` groups keep the fused early-exit path
    /// untouched (nothing to cache), and `k = 2` prefixes are borrowed
    /// straight from the view as before.
    pub fn count_shard_cached(
        &self,
        h: usize,
        candidates: &[Itemset],
        cache: &mut PrefixCache,
    ) -> (Vec<u64>, crate::counting::CounterStats) {
        use crate::counting::SupportCounter as _;
        if !cache.enabled() {
            return self.count_shard(h, candidates);
        }
        /// The group's shared prefix, in whichever representation resolved.
        enum Prefix<'a> {
            Bits(&'a Bitmap),
            Tids(&'a [u32]),
        }
        let lv = self.view.level(h);
        let mut stats = crate::counting::CounterStats {
            candidates_counted: candidates.len() as u64,
            ..Default::default()
        };
        let mut counts = vec![0u64; candidates.len()];
        let mut dense: Vec<&Bitmap> = Vec::new();
        let mut sparse: Vec<&[u32]> = Vec::new();
        let mut prefix_bm = Bitmap::zeros(0);
        let mut prefix_tids: Vec<u32> = Vec::new();
        for group in prefix_groups(candidates) {
            let items = candidates[group.start].items();
            let k = items.len();
            if k == 0 {
                continue; // empty itemsets count 0 transactions
            }
            if k == 1 {
                for i in group {
                    counts[i] = lv.item_support(candidates[i].items()[0]);
                }
                continue;
            }
            if k >= 3 && group.len() == 1 {
                // Fused singleton path, identical to the uncached kernel.
                stats.intersections += (k - 1) as u64;
                dense.clear();
                sparse.clear();
                for &it in items {
                    match self.bitmap(h, it) {
                        Some(m) => dense.push(m),
                        None => sparse.push(lv.tidset(it)),
                    }
                }
                counts[group.start] = match (dense.is_empty(), sparse.is_empty()) {
                    (true, _) => intersect_size_many(&sparse),
                    (false, true) => Bitmap::and_count(&dense),
                    (false, false) => {
                        sparse.sort_by_key(|s| s.len());
                        sparse[0]
                            .iter()
                            .filter(|&&t| {
                                dense.iter().all(|m| m.get(t as usize))
                                    && sparse[1..].iter().all(|s| s.binary_search(&t).is_ok())
                            })
                            .count() as u64
                    }
                };
                continue;
            }
            let prefix = if k == 2 {
                match self.bitmap(h, items[0]) {
                    Some(m) => Prefix::Bits(m),
                    None => Prefix::Tids(lv.tidset(items[0])),
                }
            } else {
                stats.prefix_reuses += (group.len() - 1) as u64;
                stats.intersections += (k - 2) as u64;
                let prefix_items = &items[..k - 1];
                // Parent hit: combine the cached (k−2)-prefix with the last
                // prefix item, whatever the two representations. `None` =
                // unresolved, `Some(true)` = bitmap scratch, `Some(false)` =
                // tid-list scratch.
                let bridge = items[k - 2];
                let parent = if k >= 4 {
                    cache.lookup(h, &items[..k - 2])
                } else {
                    None
                };
                let repr = match (parent, self.bitmap(h, bridge)) {
                    (Some(CachedPrefix::Bits(p)), Some(m)) => {
                        prefix_bm.copy_from(p);
                        prefix_bm.and_assign(m);
                        Some(true)
                    }
                    (Some(CachedPrefix::Bits(p)), None) => {
                        prefix_tids.clear();
                        prefix_tids.extend(
                            lv.tidset(bridge)
                                .iter()
                                .copied()
                                .filter(|&t| p.get(t as usize)),
                        );
                        Some(false)
                    }
                    (Some(CachedPrefix::Tids(p)), Some(m)) => {
                        prefix_tids.clear();
                        prefix_tids.extend(p.iter().copied().filter(|&t| m.get(t as usize)));
                        Some(false)
                    }
                    (Some(CachedPrefix::Tids(p)), None) => {
                        intersect_into(p, lv.tidset(bridge), &mut prefix_tids);
                        Some(false)
                    }
                    (None, _) => None,
                };
                if let Some(bits) = repr {
                    cache.stats_mut().parent_hits += 1;
                    let value = if bits {
                        CachedPrefix::Bits(prefix_bm.clone())
                    } else {
                        CachedPrefix::Tids(prefix_tids.clone())
                    };
                    cache.insert(h, prefix_items, value);
                }
                match repr {
                    Some(true) => Prefix::Bits(&prefix_bm),
                    Some(false) => Prefix::Tids(&prefix_tids),
                    None => {
                        // Full rebuild, exactly like the uncached kernel —
                        // then cache the result for the next batch.
                        dense.clear();
                        sparse.clear();
                        for &it in prefix_items {
                            match self.bitmap(h, it) {
                                Some(m) => dense.push(m),
                                None => sparse.push(lv.tidset(it)),
                            }
                        }
                        if sparse.is_empty() {
                            prefix_bm.copy_from(dense[0]);
                            for m in &dense[1..] {
                                prefix_bm.and_assign(m);
                            }
                            cache.insert(h, prefix_items, CachedPrefix::Bits(prefix_bm.clone()));
                            Prefix::Bits(&prefix_bm)
                        } else {
                            sparse.sort_by_key(|s| s.len());
                            let base = sparse[0];
                            prefix_tids.clear();
                            prefix_tids.extend(base.iter().copied().filter(|&t| {
                                dense.iter().all(|m| m.get(t as usize))
                                    && sparse[1..].iter().all(|s| s.binary_search(&t).is_ok())
                            }));
                            cache.insert(h, prefix_items, CachedPrefix::Tids(prefix_tids.clone()));
                            Prefix::Tids(&prefix_tids)
                        }
                    }
                }
            };
            for i in group {
                stats.intersections += 1;
                // lint:allow(panic-hygiene) group members are k >= 2 itemsets by the prefix-split precondition
                let last = *candidates[i].items().last().expect("k >= 2");
                counts[i] = match (&prefix, self.bitmap(h, last)) {
                    (Prefix::Bits(p), Some(m)) => Bitmap::and_count(&[p, m]),
                    (Prefix::Bits(p), None) => p.and_tids_count(lv.tidset(last)),
                    (Prefix::Tids(p), Some(m)) => m.and_tids_count(p),
                    (Prefix::Tids(p), None) => intersect_size(p, lv.tidset(last)),
                };
            }
        }
        (counts, stats)
    }
}

impl crate::counting::SupportCounter for BitsetCounter<'_> {
    fn num_transactions(&self) -> u64 {
        self.view.num_transactions() as u64
    }

    fn item_support(&self, h: usize, item: NodeId) -> u64 {
        self.view.level(h).item_support(item)
    }

    fn present_items(&self, h: usize) -> &[NodeId] {
        self.view.level(h).present_items()
    }

    /// Prefix-group kernel, hybrid flavor: per group of candidates sharing
    /// a `(k−1)`-prefix, the prefix is materialized once — a word-wise AND
    /// into a reusable scratch bitmap when every prefix item is dense, or a
    /// filtered tid-list in reusable scratch otherwise (borrowed directly
    /// for `k = 2`) — then every member is answered by one AND-popcount /
    /// bitmap-filter / galloping intersection against its last item.
    /// Nothing allocates per candidate. `intersections` charges `k−2`
    /// combines per materialized prefix plus one per member.
    fn count_shard(
        &self,
        h: usize,
        candidates: &[Itemset],
    ) -> (Vec<u64>, crate::counting::CounterStats) {
        /// The group's shared prefix, in whichever representation its
        /// density mix produced.
        enum Prefix<'a> {
            Bits(&'a Bitmap),
            Tids(&'a [u32]),
        }
        let lv = self.view.level(h);
        let mut stats = crate::counting::CounterStats {
            candidates_counted: candidates.len() as u64,
            ..Default::default()
        };
        let mut counts = vec![0u64; candidates.len()];
        // Scratch reused across groups: the dense/sparse partition of the
        // current prefix and the two materialization targets.
        let mut dense: Vec<&Bitmap> = Vec::new();
        let mut sparse: Vec<&[u32]> = Vec::new();
        let mut prefix_bm = Bitmap::zeros(0);
        let mut prefix_tids: Vec<u32> = Vec::new();
        for group in prefix_groups(candidates) {
            let items = candidates[group.start].items();
            let k = items.len();
            if k == 0 {
                continue; // empty itemsets count 0 transactions
            }
            if k == 1 {
                for i in group {
                    counts[i] = lv.item_support(candidates[i].items()[0]);
                }
                continue;
            }
            dense.clear();
            sparse.clear();
            for &it in &items[..k - 1] {
                match self.bitmap(h, it) {
                    Some(m) => dense.push(m),
                    None => sparse.push(lv.tidset(it)),
                }
            }
            // A singleton k ≥ 3 group has nothing to reuse: skip the prefix
            // materialization (a scratch-bitmap copy / filtered list would
            // double the memory traffic) and answer it with one fused
            // early-exit pass over all k items. Same `k−1` intersections
            // charge, zero reuses — stats stay group-structure-invariant.
            if k >= 3 && group.len() == 1 {
                stats.intersections += (k - 1) as u64;
                let last = items[k - 1];
                match self.bitmap(h, last) {
                    Some(m) => dense.push(m),
                    None => sparse.push(lv.tidset(last)),
                }
                counts[group.start] = match (dense.is_empty(), sparse.is_empty()) {
                    (true, _) => intersect_size_many(&sparse),
                    (false, true) => Bitmap::and_count(&dense),
                    (false, false) => {
                        // Filter the smallest sparse list through everything.
                        sparse.sort_by_key(|s| s.len());
                        sparse[0]
                            .iter()
                            .filter(|&&t| {
                                dense.iter().all(|m| m.get(t as usize))
                                    && sparse[1..].iter().all(|s| s.binary_search(&t).is_ok())
                            })
                            .count() as u64
                    }
                };
                continue;
            }
            let prefix = if k == 2 {
                match (dense.first(), sparse.first()) {
                    (Some(m), _) => Prefix::Bits(m),
                    (None, Some(t)) => Prefix::Tids(t),
                    (None, None) => unreachable!("k = 2 has exactly one prefix item"),
                }
            } else {
                stats.prefix_reuses += (group.len() - 1) as u64;
                stats.intersections += (k - 2) as u64;
                if sparse.is_empty() {
                    prefix_bm.copy_from(dense[0]);
                    for m in &dense[1..] {
                        prefix_bm.and_assign(m);
                    }
                    Prefix::Bits(&prefix_bm)
                } else {
                    // Filter the smallest sparse list through everything.
                    sparse.sort_by_key(|s| s.len());
                    let base = sparse[0];
                    prefix_tids.clear();
                    prefix_tids.extend(base.iter().copied().filter(|&t| {
                        dense.iter().all(|m| m.get(t as usize))
                            && sparse[1..].iter().all(|s| s.binary_search(&t).is_ok())
                    }));
                    Prefix::Tids(&prefix_tids)
                }
            };
            for i in group {
                stats.intersections += 1;
                // lint:allow(panic-hygiene) group members are k >= 2 itemsets by the prefix-split precondition
                let last = *candidates[i].items().last().expect("k >= 2");
                counts[i] = match (&prefix, self.bitmap(h, last)) {
                    (Prefix::Bits(p), Some(m)) => Bitmap::and_count(&[p, m]),
                    (Prefix::Bits(p), None) => p.and_tids_count(lv.tidset(last)),
                    (Prefix::Tids(p), Some(m)) => m.and_tids_count(p),
                    (Prefix::Tids(p), None) => intersect_size(p, lv.tidset(last)),
                };
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

    fn merge_stats(&mut self, delta: &crate::counting::CounterStats) {
        self.stats.merge(delta);
    }

    fn stats(&self) -> crate::counting::CounterStats {
        self.stats
    }

    fn engine_name(&self) -> &'static str {
        "bitset"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::{SupportCounter, TidsetCounter};
    use crate::rng::{Rng, Xoshiro256pp};
    use crate::transaction::TransactionDb;
    use flipper_taxonomy::Taxonomy;

    #[test]
    fn bitmap_basics() {
        let mut b = Bitmap::zeros(130);
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitmap_bounds_checked() {
        let mut b = Bitmap::zeros(10);
        b.set(10);
    }

    #[test]
    fn bitmap_from_tids_roundtrip() {
        let tids = vec![1u32, 5, 63, 64, 99];
        let b = Bitmap::from_tids(&tids, 100);
        assert_eq!(b.count_ones(), 5);
        for &t in &tids {
            assert!(b.get(t as usize));
        }
    }

    #[test]
    fn and_count_matches_manual() {
        let a = Bitmap::from_tids(&[1, 2, 3, 70], 100);
        let b = Bitmap::from_tids(&[2, 3, 70, 99], 100);
        let c = Bitmap::from_tids(&[3, 70], 100);
        assert_eq!(Bitmap::and_count(&[&a, &b]), 3);
        assert_eq!(Bitmap::and_count(&[&a, &b, &c]), 2);
        assert_eq!(Bitmap::and_count(&[]), 0);
        assert_eq!(Bitmap::and_count(&[&a]), 4);
    }

    #[test]
    fn and_tids_count_matches() {
        let a = Bitmap::from_tids(&[1, 2, 3, 70], 100);
        assert_eq!(a.and_tids_count(&[2, 50, 70]), 2);
        assert_eq!(a.and_tids_count(&[]), 0);
    }

    fn random_setup(seed: u64) -> (Taxonomy, TransactionDb) {
        let tax = Taxonomy::uniform(3, 3, 2).unwrap();
        let leaves = tax.leaves().to_vec();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let rows: Vec<Vec<NodeId>> = (0..200)
            .map(|_| {
                let w = rng.gen_range(1..=6);
                (0..w)
                    .map(|_| leaves[rng.gen_range(0..leaves.len())])
                    .collect()
            })
            .collect();
        (tax, TransactionDb::new(rows).unwrap())
    }

    /// The hybrid engine agrees with the tid-list engine for every
    /// density threshold (all-dense, mixed, all-sparse paths).
    ///
    /// Ported from a 24-case proptest: a meta-RNG draws the (seed, density)
    /// pairs the strategy `(0u64..1000, 0.0f64..1.2)` used to sample.
    #[test]
    fn bitset_agrees_with_tidset() {
        let mut meta = Xoshiro256pp::seed_from_u64(0xB175E7);
        for _ in 0..24 {
            let seed = meta.gen_range(0..1000u64);
            let density = meta.gen_range(0.0..1.2);
            let (tax, db) = random_setup(seed);
            let view = MultiLevelView::build(&db, &tax);
            let mut tc = TidsetCounter::new(&view);
            let mut bc = BitsetCounter::with_density(&view, density);
            for h in 1..=2 {
                let nodes = tax.nodes_at_level(h).unwrap();
                let mut cands = Vec::new();
                for i in 0..nodes.len() {
                    for j in (i + 1)..nodes.len() {
                        cands.push(Itemset::pair(nodes[i], nodes[j]));
                    }
                }
                // A triple too, exercising >2-way intersections.
                if nodes.len() >= 3 {
                    cands.push(Itemset::new(vec![nodes[0], nodes[1], nodes[2]]));
                }
                assert_eq!(
                    tc.count_batch(h, &cands),
                    bc.count_batch(h, &cands),
                    "engines disagree (seed={seed}, density={density})"
                );
            }
        }
    }

    #[test]
    fn density_zero_promotes_everything() {
        let (tax, db) = random_setup(1);
        let view = MultiLevelView::build(&db, &tax);
        let bc = BitsetCounter::with_density(&view, 0.0);
        assert_eq!(bc.dense_items(1), view.level(1).present_items().len());
        let bc = BitsetCounter::with_density(&view, 2.0);
        assert_eq!(bc.dense_items(1), 0);
    }

    /// A sparse level can still hold a dense item: the leaf level below has
    /// a mean fill ratio well under 1/16, yet one leaf sits in every fourth
    /// transaction. Promotion is per item, so that leaf gets a bitmap, and
    /// the mixed bitmap/tid-list candidates count exactly.
    #[test]
    fn sparse_level_promotes_its_dense_item() {
        let tax = Taxonomy::uniform(3, 4, 3).unwrap();
        let leaves = tax.leaves().to_vec();
        let hot = leaves[5];
        let mut rng = Xoshiro256pp::seed_from_u64(0x5BA5E);
        let rows: Vec<Vec<NodeId>> = (0..400)
            .map(|t| {
                let w = rng.gen_range(1..=2usize);
                let mut row: Vec<NodeId> = (0..w)
                    .map(|_| leaves[rng.gen_range(0..leaves.len())])
                    .collect();
                if t % 4 == 0 {
                    row.push(hot);
                }
                row
            })
            .collect();
        let db = TransactionDb::new(rows).unwrap();
        let view = MultiLevelView::build(&db, &tax);
        let h = tax.height();
        let lv = view.level(h);
        let n = view.num_transactions() as f64;
        let fill: u64 = lv.present_items().iter().map(|&i| lv.item_support(i)).sum();
        let mean_density = fill as f64 / (lv.present_items().len() as f64 * n);
        assert!(
            mean_density < BitsetCounter::DEFAULT_DENSITY,
            "{mean_density}"
        );
        assert!(lv.item_support(hot) as f64 >= BitsetCounter::DEFAULT_DENSITY * n);

        let mut bc = BitsetCounter::new(&view);
        assert!(bc.dense_items(h) >= 1, "the hot leaf must be promoted");
        let others: Vec<NodeId> = leaves.iter().copied().filter(|&l| l != hot).collect();
        let mut cands: Vec<Itemset> = others.iter().map(|&o| Itemset::pair(hot, o)).collect();
        for w in others.windows(2) {
            cands.push(Itemset::pair(w[0], w[1]));
            cands.push(Itemset::new(vec![w[0], w[1], hot]));
        }
        cands.sort_unstable();
        assert_eq!(
            bc.count_batch(h, &cands),
            crate::counting::naive_tidset_counts(&view, h, &cands)
        );
    }

    #[test]
    fn engine_name_and_stats() {
        let (tax, db) = random_setup(2);
        let view = MultiLevelView::build(&db, &tax);
        let mut bc = BitsetCounter::new(&view);
        assert_eq!(bc.engine_name(), "bitset");
        let nodes = tax.nodes_at_level(1).unwrap();
        bc.count_batch(1, &[Itemset::pair(nodes[0], nodes[1])]);
        assert_eq!(bc.stats().candidates_counted, 1);
        assert_eq!(bc.num_transactions(), 200);
    }
}
