//! Multi-level views of a transaction database through a taxonomy.
//!
//! An `(h, k)`-itemset is evaluated against the database in which every item
//! has been replaced by its level-`h` generalization (paper §2.2, Fig. 4).
//! [`MultiLevelView`] materializes that projection once per level, together
//! with per-item supports and tid-lists, so the miner can evaluate any cell
//! of the search table without touching the raw data again.
//!
//! # Layout
//!
//! Each [`LevelView`] is stored in compressed-sparse-row (CSR) form, two
//! flat arrays and their offsets, with no heap allocation per transaction
//! or per item:
//!
//! * the projected transactions are one [`RowBatch`]: every row's items back
//!   to back in one `Vec<NodeId>`, plus one `usize` offset per row;
//! * the tid-lists are one `Vec<u32>` holding every node's sorted list back
//!   to back, plus one `usize` offset per taxonomy node. A node's support is
//!   the length of its list.
//!
//! A transaction of width `w` at some level therefore costs `8w + 8` bytes
//! there: `4w` for its items, `4w` for its entries in the tid-lists and 8
//! for its row offset.
//!
//! The tid-lists are built once, in [`MultiLevelViewBuilder::finish`], by a
//! counting sort: one pass tallies every node's support, a prefix sum turns
//! the tallies into list offsets, and a second pass drops each transaction id
//! into its items' next free slots. Rows are scanned in tid order, so every
//! list comes out sorted without a sort.
//!
//! [`MultiLevelViewBuilder`] projects each row through an ancestor table
//! built once per taxonomy. Rows are written straight into the level
//! buffers and sorted and deduplicated there, in place, only when they are
//! not already strictly increasing: input rows rarely need it (every FBIN
//! row over a balanced taxonomy and every [`TransactionDb`] row is
//! canonical), projected rows only when generalization left them unsorted
//! or merged siblings.

use crate::transaction::TransactionDb;
use crate::{exec, DataError};
use flipper_taxonomy::{NodeId, Taxonomy};

/// A batch of transactions in CSR form: the items of all rows back to back
/// in one buffer, plus the offset at which each row starts.
///
/// It is the input of [`MultiLevelViewBuilder::push_chunk`] (the FBIN chunk
/// decoder writes straight into one, with no allocation per transaction)
/// and the storage of every [`LevelView`]'s projected transactions. Rows are
/// appended with [`push_row`](RowBatch::push_row), or item by item with
/// [`push_item`](RowBatch::push_item) followed by
/// [`end_row`](RowBatch::end_row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowBatch {
    items: Vec<NodeId>,
    /// `offsets[i]..offsets[i + 1]` indexes row `i` in `items`. Starts at 0;
    /// the items past the last offset form the open row.
    offsets: Vec<usize>,
}

impl Default for RowBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl RowBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// An empty batch with room for `rows` rows holding `items` items in
    /// total before either buffer grows.
    pub fn with_capacity(rows: usize, items: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        RowBatch {
            items: Vec::with_capacity(items),
            offsets,
        }
    }

    /// Append `item` to the open row.
    #[inline]
    pub fn push_item(&mut self, item: NodeId) {
        self.items.push(item);
    }

    /// Close the open row (which may be empty) and start the next one.
    #[inline]
    pub fn end_row(&mut self) {
        self.offsets.push(self.items.len());
    }

    /// Append `row` as one closed row.
    pub fn push_row(&mut self, row: &[NodeId]) {
        self.items.extend_from_slice(row);
        self.end_row();
    }

    /// Number of closed rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the batch holds no closed row.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= self.len()`.
    #[inline]
    pub fn row(&self, idx: usize) -> &[NodeId] {
        &self.items[self.offsets[idx]..self.offsets[idx + 1]]
    }

    /// The closed rows, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[NodeId]> + '_ {
        self.offsets.windows(2).map(|w| &self.items[w[0]..w[1]])
    }

    /// Close the open row as a canonical itemset: sorted ascending with
    /// duplicates removed. The row is sorted in place, and only when it is
    /// not already strictly increasing.
    fn end_canonical_row(&mut self) {
        let start = self.offsets[self.offsets.len() - 1];
        let row = &mut self.items[start..];
        if !is_strictly_increasing(row) {
            // Reaching here means the row holds at least two items.
            row.sort_unstable();
            let mut kept = start + 1;
            for i in start + 1..self.items.len() {
                if self.items[i] != self.items[kept - 1] {
                    self.items[kept] = self.items[i];
                    kept += 1;
                }
            }
            self.items.truncate(kept);
        }
        self.end_row();
    }

    /// Append every row of `other`, in order. Neither batch may have an
    /// open row.
    fn append(&mut self, other: RowBatch) {
        debug_assert_eq!(self.items.len(), self.offsets[self.len()]);
        debug_assert_eq!(other.items.len(), other.offsets[other.len()]);
        if self.is_empty() {
            *self = other;
            return;
        }
        let base = self.items.len();
        self.items.extend_from_slice(&other.items);
        self.offsets
            .extend(other.offsets[1..].iter().map(|&end| base + end));
    }
}

impl<R: AsRef<[NodeId]>> FromIterator<R> for RowBatch {
    fn from_iter<I: IntoIterator<Item = R>>(rows: I) -> Self {
        let mut batch = RowBatch::new();
        for row in rows {
            batch.push_row(row.as_ref());
        }
        batch
    }
}

fn is_strictly_increasing(row: &[NodeId]) -> bool {
    row.windows(2).all(|w| w[0] < w[1])
}

/// The projection of a database to one abstraction level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelView {
    /// The abstraction level (1 = most general, `H` = leaves).
    pub level: usize,
    /// Projected transactions: items replaced by level-`level` ancestors,
    /// sorted and deduplicated (generalization can merge siblings).
    rows: RowBatch,
    /// Every node's sorted tid-list, back to back in node-id order.
    tids: Vec<u32>,
    /// `tid_offsets[n]..tid_offsets[n + 1]` indexes node `n`'s tid-list in
    /// `tids` (`node_count + 1` entries). Absent nodes have empty lists.
    tid_offsets: Vec<usize>,
    /// Nodes with non-zero support at this level, ascending by id.
    present: Vec<NodeId>,
}

impl LevelView {
    /// Index the projected `rows` of `level`: build every node's tid-list by
    /// a counting sort (see the module docs).
    fn from_rows(level: usize, rows: RowBatch, node_count: usize) -> Self {
        let mut tid_offsets = vec![0usize; node_count + 1];
        for &item in &rows.items {
            tid_offsets[item.index() + 1] += 1;
        }
        for i in 0..node_count {
            tid_offsets[i + 1] += tid_offsets[i];
        }
        let present = (0..node_count)
            .filter(|&i| tid_offsets[i + 1] > tid_offsets[i])
            .map(NodeId::from_index)
            .collect();
        let mut next = tid_offsets[..node_count].to_vec();
        let mut tids = vec![0u32; rows.items.len()];
        for (tid, row) in rows.iter().enumerate() {
            for &item in row {
                let slot = &mut next[item.index()];
                tids[*slot] = tid as u32;
                *slot += 1;
            }
        }
        LevelView {
            level,
            rows,
            tids,
            tid_offsets,
            present,
        }
    }

    /// Projected transactions at this level.
    pub fn transactions(&self) -> impl Iterator<Item = &[NodeId]> {
        self.rows.iter()
    }

    /// Projected transaction by index.
    #[inline]
    pub fn transaction(&self, idx: usize) -> &[NodeId] {
        self.rows.row(idx)
    }

    /// Number of transactions (same at every level).
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the view holds no transactions (never true for views built
    /// from a valid database).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Support of a single node at this level.
    #[inline]
    pub fn item_support(&self, item: NodeId) -> u64 {
        self.tidset(item).len() as u64
    }

    /// Sorted tid-list of a node (empty slice if absent).
    #[inline]
    pub fn tidset(&self, item: NodeId) -> &[u32] {
        let i = item.index();
        self.tid_offsets
            .get(i..i + 2)
            .map_or(&[], |w| &self.tids[w[0]..w[1]])
    }

    /// Nodes with non-zero support at this level, ascending by id.
    #[inline]
    pub fn present_items(&self) -> &[NodeId] {
        &self.present
    }
}

/// Projections of one database to every level of a taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiLevelView {
    levels: Vec<LevelView>, // levels[h-1] is level h
    num_transactions: usize,
    max_width: usize,
}

impl MultiLevelView {
    /// Project `db` through `tax` at every level `1..=height`.
    ///
    /// The leaf level reuses the transactions as-is; shallower levels map
    /// each item to its ancestor and deduplicate. Delegates to
    /// [`MultiLevelViewBuilder`] (one chunk, sequential), so the full-load
    /// and chunk-streamed paths can never drift apart.
    ///
    /// # Panics
    /// Panics if the database is not valid for `tax` (items that are not
    /// leaves at the taxonomy height).
    pub fn build(db: &TransactionDb, tax: &Taxonomy) -> Self {
        Self::build_with_threads(db, tax, 1)
    }

    /// [`build`](MultiLevelView::build) with the per-chunk projection
    /// sharded over `threads` scoped workers (`0` = auto-detect, `1` =
    /// sequential). The result is bit-identical at every thread count.
    ///
    /// # Panics
    /// Panics if the database is not valid for `tax` (items that are not
    /// leaves at the taxonomy height).
    pub fn build_with_threads(db: &TransactionDb, tax: &Taxonomy, threads: usize) -> Self {
        let _span = flipper_obs::span("view.build").arg("rows", db.len() as u64);
        let mut builder = MultiLevelViewBuilder::new(tax, threads);
        builder
            .push_chunk(&db.iter().collect())
            .expect("TransactionDb rows are canonical leaf itemsets");
        builder.finish().expect("TransactionDb is never empty")
    }

    /// The view at abstraction level `h` (1-based).
    ///
    /// # Panics
    /// Panics if `h` is 0 or exceeds the taxonomy height.
    #[inline]
    pub fn level(&self, h: usize) -> &LevelView {
        assert!(
            h >= 1 && h <= self.levels.len(),
            "level {h} out of range 1..={}",
            self.levels.len()
        );
        &self.levels[h - 1]
    }

    /// Number of abstraction levels (= taxonomy height).
    #[inline]
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// Number of transactions.
    #[inline]
    pub fn num_transactions(&self) -> usize {
        self.num_transactions
    }

    /// Width of the widest transaction, in leaf items (the paper's bound on
    /// the number of columns of the search table).
    #[inline]
    pub fn max_width(&self) -> usize {
        self.max_width
    }
}

/// Incremental, chunk-at-a-time construction of a [`MultiLevelView`] —
/// the ingestion end of the streaming pipeline.
///
/// Feed transaction chunks (e.g. from an FBIN chunk reader) with
/// [`MultiLevelViewBuilder::push_chunk`]; each chunk's rows are
/// canonicalized, validated and projected to every abstraction level with
/// the projection work sharded over [`mod@crate::exec`] scoped workers, then
/// appended **in order**. The finished view is bit-identical to
/// [`MultiLevelView::build`] over the concatenation of all chunks, at every
/// thread count — so mining a streamed input produces exactly the results of
/// mining a fully loaded one, without the raw database ever materializing.
pub struct MultiLevelViewBuilder<'t> {
    tax: &'t Taxonomy,
    threads: usize,
    /// `is_leaf[node]`: whether `node` is a leaf, i.e. sits at the taxonomy
    /// height (the only items a row may hold).
    is_leaf: Vec<bool>,
    /// `ancestors[h - 1][leaf]` is the level-`h` ancestor of `leaf`, for
    /// `1 <= h < height` (entries of non-leaf nodes are unused).
    ancestors: Vec<Vec<NodeId>>,
    /// Projected rows so far, `rows[h - 1]` at level `h`.
    rows: Vec<RowBatch>,
    max_width: usize,
}

impl<'t> MultiLevelViewBuilder<'t> {
    /// Start a builder over `tax`, sharding per-chunk projection over
    /// `threads` workers (`0` = auto-detect, `1` = sequential).
    pub fn new(tax: &'t Taxonomy, threads: usize) -> Self {
        let height = tax.height();
        let mut is_leaf = vec![false; tax.node_count()];
        let mut ancestors = vec![vec![NodeId::ROOT; tax.node_count()]; height - 1];
        for &leaf in tax.leaves() {
            is_leaf[leaf.index()] = true;
            // The path runs [leaf, level-(H-1) ancestor, …, level-1 ancestor].
            let path = tax.path_to_root(leaf);
            for (table, &node) in ancestors.iter_mut().rev().zip(&path[1..]) {
                table[leaf.index()] = node;
            }
        }
        MultiLevelViewBuilder {
            tax,
            threads,
            is_leaf,
            ancestors,
            rows: vec![RowBatch::new(); height],
            max_width: 0,
        }
    }

    /// Transactions ingested so far.
    pub fn num_transactions(&self) -> usize {
        self.rows[0].len()
    }

    /// Ingest one chunk of transactions (leaf items, any order, duplicates
    /// allowed — rows are canonicalized exactly like
    /// [`TransactionDb::new`]).
    ///
    /// # Errors
    /// Rejects empty rows and items that are not leaves of the taxonomy;
    /// the reported transaction index is global across all pushed chunks.
    pub fn push_chunk(&mut self, rows: &RowBatch) -> Result<(), DataError> {
        let tax = self.tax;
        let height = tax.height();
        let (is_leaf, ancestors) = (&self.is_leaf, &self.ancestors);
        let base = self.num_transactions();
        // Canonicalize + validate + project, sharded across the chunk. Each
        // row is independent, and shard results are joined back in chunk
        // order, so the outcome is identical at every thread count.
        let shards = exec::map_chunks(self.threads, rows.len(), |range| {
            // Projection never widens a row, so the chunk's leaf item count
            // bounds every level's.
            let leaf_items = rows.offsets[range.end] - rows.offsets[range.start];
            let batch = || RowBatch::with_capacity(range.len(), leaf_items);
            let mut leaf_level = batch();
            let mut upper: Vec<RowBatch> = (1..height).map(|_| batch()).collect();
            let mut max_width = 0;
            for i in range {
                leaf_level.items.extend_from_slice(rows.row(i));
                leaf_level.end_canonical_row();
                let leaves = leaf_level.row(leaf_level.len() - 1);
                if leaves.is_empty() {
                    return Err(DataError::EmptyTransaction { txn: base + i });
                }
                for &item in leaves {
                    if !is_leaf.get(item.index()).copied().unwrap_or(false) {
                        return Err(DataError::NonLeafItem {
                            txn: base + i,
                            item,
                        });
                    }
                }
                for (level, ancestor) in upper.iter_mut().zip(ancestors) {
                    for &item in leaves {
                        level.push_item(ancestor[item.index()]);
                    }
                    level.end_canonical_row();
                }
                max_width = max_width.max(leaves.len());
            }
            upper.push(leaf_level);
            Ok((upper, max_width))
        });
        // Validate every shard before mutating any state: a rejected chunk
        // must leave the builder exactly as it was (no partially ingested
        // prefix), so callers can report the error and keep the view usable.
        let shards = shards.into_iter().collect::<Result<Vec<_>, _>>()?;
        for (levels, max_width) in shards {
            for (all, shard) in self.rows.iter_mut().zip(levels) {
                all.append(shard);
            }
            self.max_width = self.max_width.max(max_width);
        }
        Ok(())
    }

    /// Finalize the view, building every level's tid-lists.
    ///
    /// # Errors
    /// Returns [`DataError::EmptyDatabase`] when no transactions were
    /// ingested, mirroring [`TransactionDb::new`].
    pub fn finish(self) -> Result<MultiLevelView, DataError> {
        let num_transactions = self.num_transactions();
        if num_transactions == 0 {
            return Err(DataError::EmptyDatabase);
        }
        let node_count = self.tax.node_count();
        let levels = self
            .rows
            .into_iter()
            .enumerate()
            .map(|(i, rows)| LevelView::from_rows(i + 1, rows, node_count))
            .collect();
        Ok(MultiLevelView {
            levels,
            num_transactions,
            max_width: self.max_width,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, Xoshiro256pp};
    use flipper_taxonomy::{RebalancePolicy, TaxonomyBuilder};
    use std::collections::BTreeSet;

    /// The Fig. 4 toy taxonomy and database.
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
        let rows = vec![
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
        ];
        let db = TransactionDb::new(rows).unwrap();
        db.validate_against(&tax).unwrap();
        (tax, db)
    }

    #[test]
    fn leaf_level_is_identity() {
        let (tax, db) = toy();
        let mlv = MultiLevelView::build(&db, &tax);
        assert_eq!(mlv.height(), 3);
        assert_eq!(mlv.num_transactions(), 10);
        for (i, txn) in db.iter().enumerate() {
            assert_eq!(mlv.level(3).transaction(i), txn);
        }
    }

    #[test]
    fn build_with_threads_is_bit_identical() {
        let (tax, db) = toy();
        let sequential = MultiLevelView::build(&db, &tax);
        for threads in [0usize, 2, 4] {
            assert_eq!(
                MultiLevelView::build_with_threads(&db, &tax, threads),
                sequential,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn level1_projection_matches_paper_figure() {
        let (tax, db) = toy();
        let mlv = MultiLevelView::build(&db, &tax);
        let a = tax.node_by_name("a").unwrap();
        let b = tax.node_by_name("b").unwrap();
        let v1 = mlv.level(1);
        // Fig. 4 right column: D3 = {a}, D8/D9 = {b}, everything else {a, b}.
        assert_eq!(v1.transaction(2), &[a]);
        assert_eq!(v1.transaction(7), &[b]);
        assert_eq!(v1.transaction(8), &[b]);
        assert_eq!(v1.transaction(0), &[a, b]);
        // Supports from the figure: a appears in D1–D7 and D10 (8 rows);
        // b appears everywhere except D3 (9 rows).
        assert_eq!(v1.item_support(a), 8);
        assert_eq!(v1.item_support(b), 9);
    }

    #[test]
    fn level2_projection_merges_siblings() {
        let (tax, db) = toy();
        let mlv = MultiLevelView::build(&db, &tax);
        let a1 = tax.node_by_name("a1").unwrap();
        let a2 = tax.node_by_name("a2").unwrap();
        let v2 = mlv.level(2);
        // D2 = {a11, a21, b11} → {a1, a2, b1}: 3 distinct level-2 items.
        assert_eq!(v2.transaction(1).len(), 3);
        assert!(v2.transaction(1).contains(&a1));
        assert!(v2.transaction(1).contains(&a2));
        // Supports from Fig. 4 middle column.
        assert_eq!(v2.item_support(a1), 6); // D1-D6
        assert_eq!(v2.item_support(a2), 8); // D1-D7, D10
    }

    #[test]
    fn tidsets_agree_with_supports() {
        let (tax, db) = toy();
        let mlv = MultiLevelView::build(&db, &tax);
        for h in 1..=3 {
            let v = mlv.level(h);
            for &item in v.present_items() {
                let tids = v.tidset(item);
                assert_eq!(
                    tids.len() as u64,
                    v.item_support(item),
                    "level {h} item {item}"
                );
                assert!(
                    tids.windows(2).all(|w| w[0] < w[1]),
                    "tidset must be sorted unique"
                );
                for &tid in tids {
                    assert!(v.transaction(tid as usize).contains(&item));
                }
            }
        }
    }

    #[test]
    fn absent_item_has_zero_support_and_empty_tidset() {
        let (tax, db) = toy();
        let mlv = MultiLevelView::build(&db, &tax);
        let a11 = tax.node_by_name("a11").unwrap();
        // a11 is a leaf; at level 1 only categories are present.
        assert_eq!(mlv.level(1).item_support(a11), 0);
        assert!(mlv.level(1).tidset(a11).is_empty());
        assert!(!mlv.level(1).present_items().contains(&a11));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn level_zero_panics() {
        let (tax, db) = toy();
        let mlv = MultiLevelView::build(&db, &tax);
        let _ = mlv.level(0);
    }

    #[test]
    fn builder_chunked_matches_build() {
        let (tax, db) = toy();
        let full = MultiLevelView::build(&db, &tax);
        let rows: Vec<Vec<NodeId>> = db.iter().map(<[NodeId]>::to_vec).collect();
        for threads in [1usize, 3] {
            for chunk_len in [1usize, 3, 10] {
                let mut b = MultiLevelViewBuilder::new(&tax, threads);
                for chunk in rows.chunks(chunk_len) {
                    b.push_chunk(&chunk.iter().collect()).unwrap();
                }
                assert_eq!(
                    b.finish().unwrap(),
                    full,
                    "threads={threads} chunk_len={chunk_len}"
                );
            }
        }
    }

    #[test]
    fn builder_rejects_bad_chunks_atomically() {
        let (tax, db) = toy();
        let rows: Vec<Vec<NodeId>> = db.iter().map(<[NodeId]>::to_vec).collect();
        let mut b = MultiLevelViewBuilder::new(&tax, 4);
        b.push_chunk(&rows[..4].iter().collect()).unwrap();
        // A chunk whose LAST row is invalid (an internal node): the valid
        // prefix must NOT be ingested — the failed chunk leaves no trace.
        let a1 = tax.node_by_name("a1").unwrap();
        let mut bad = rows[4..].to_vec();
        bad.push(vec![a1]);
        let err = b.push_chunk(&bad.iter().collect()).unwrap_err();
        assert_eq!(
            err,
            crate::DataError::NonLeafItem {
                txn: 4 + bad.len() - 1,
                item: a1
            }
        );
        assert_eq!(
            b.num_transactions(),
            4,
            "failed chunk must not be partially ingested"
        );
        // The builder stays usable: retry with the valid rows and match the
        // full build exactly.
        b.push_chunk(&rows[4..].iter().collect()).unwrap();
        assert_eq!(b.finish().unwrap(), MultiLevelView::build(&db, &tax));
        // Empty rows and empty builders report the canonical errors.
        let mut b = MultiLevelViewBuilder::new(&tax, 1);
        assert_eq!(
            b.push_chunk(&[Vec::<NodeId>::new()].iter().collect())
                .unwrap_err(),
            crate::DataError::EmptyTransaction { txn: 0 }
        );
        assert_eq!(
            MultiLevelViewBuilder::new(&tax, 1).finish().unwrap_err(),
            crate::DataError::EmptyDatabase
        );
    }

    #[test]
    fn present_items_sorted_and_exact() {
        let (tax, db) = toy();
        let mlv = MultiLevelView::build(&db, &tax);
        let v1 = mlv.level(1);
        let names: Vec<&str> = v1.present_items().iter().map(|&n| tax.name(n)).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    /// The naive projection the builder must reproduce: each row through
    /// `ancestor_at_level` into a `BTreeSet`, then tid-lists collected by
    /// scanning the projected rows. One `(rows, tid-list per node)` pair per
    /// level, level 1 first.
    type Reference = Vec<(Vec<Vec<NodeId>>, Vec<Vec<u32>>)>;

    fn reference(tax: &Taxonomy, rows: &[Vec<NodeId>]) -> Reference {
        (1..=tax.height())
            .map(|h| {
                let projected: Vec<Vec<NodeId>> = rows
                    .iter()
                    .map(|row| {
                        row.iter()
                            .map(|&leaf| tax.ancestor_at_level(leaf, h).unwrap())
                            .collect::<BTreeSet<_>>()
                            .into_iter()
                            .collect()
                    })
                    .collect();
                let mut tidsets = vec![Vec::new(); tax.node_count()];
                for (tid, row) in projected.iter().enumerate() {
                    for item in row {
                        tidsets[item.index()].push(tid as u32);
                    }
                }
                (projected, tidsets)
            })
            .collect()
    }

    /// Build `rows` through the builder for threads {1, 3} × chunk sizes
    /// {1, 7, all} and compare every accessor with [`reference`].
    fn assert_matches_reference(tax: &Taxonomy, rows: &[Vec<NodeId>], label: &str) {
        let expected = reference(tax, rows);
        let max_width = expected.last().unwrap().0.iter().map(Vec::len).max();
        for threads in [1usize, 3] {
            for chunk_len in [1usize, 7, rows.len()] {
                let ctx = format!("{label} threads={threads} chunk_len={chunk_len}");
                let mut b = MultiLevelViewBuilder::new(tax, threads);
                for chunk in rows.chunks(chunk_len) {
                    b.push_chunk(&chunk.iter().collect()).unwrap();
                }
                let view = b.finish().unwrap();
                assert_eq!(view.height(), tax.height(), "{ctx}");
                assert_eq!(view.num_transactions(), rows.len(), "{ctx}");
                assert_eq!(Some(view.max_width()), max_width, "{ctx}");
                for (h, (txns, tidsets)) in (1..).zip(&expected) {
                    let lv = view.level(h);
                    assert_eq!(lv.len(), txns.len(), "{ctx} h={h}");
                    assert!(lv.transactions().eq(txns.iter().map(Vec::as_slice)));
                    for (i, txn) in txns.iter().enumerate() {
                        assert_eq!(lv.transaction(i), txn.as_slice(), "{ctx} h={h} txn={i}");
                    }
                    let present: Vec<NodeId> = tax
                        .node_ids()
                        .filter(|n| !tidsets[n.index()].is_empty())
                        .collect();
                    assert_eq!(lv.present_items(), present.as_slice(), "{ctx} h={h}");
                    for node in tax.node_ids() {
                        let tids = &tidsets[node.index()];
                        assert_eq!(lv.tidset(node), tids.as_slice(), "{ctx} h={h} {node}");
                        assert_eq!(lv.item_support(node), tids.len() as u64, "{ctx}");
                    }
                    let beyond = NodeId::from_index(tax.node_count());
                    assert!(lv.tidset(beyond).is_empty(), "{ctx}");
                    assert_eq!(lv.item_support(beyond), 0, "{ctx}");
                }
            }
        }
    }

    /// `n` rows of 1–6 leaves drawn with replacement, in random order (so
    /// most wider rows are unsorted or repeat a leaf); every third row is
    /// canonicalized first, so the in-place path runs too.
    fn random_rows(rng: &mut Xoshiro256pp, leaves: &[NodeId], n: usize) -> Vec<Vec<NodeId>> {
        (0..n)
            .map(|i| {
                let width = rng.gen_range(1..=6);
                let mut row: Vec<NodeId> = (0..width)
                    .map(|_| leaves[rng.gen_range(0..leaves.len())])
                    .collect();
                if i % 3 == 0 {
                    row.sort_unstable();
                    row.dedup();
                }
                row
            })
            .collect()
    }

    #[test]
    fn builder_matches_reference_on_balanced_taxonomies() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xC5A1);
        for case in 0..12 {
            let roots = rng.gen_range(1..=4);
            let fanout = rng.gen_range(1..=3);
            let height = rng.gen_range(1..=4);
            let tax = Taxonomy::uniform(roots, fanout, height).unwrap();
            let n = rng.gen_range(1..=40);
            let rows = random_rows(&mut rng, tax.leaves(), n);
            let label = format!("case {case}: uniform({roots}, {fanout}, {height})");
            assert_matches_reference(&tax, &rows, &label);
        }
    }

    #[test]
    fn builder_matches_reference_when_ancestors_come_out_unsorted() {
        // Node ids follow insertion order, which here is not level order:
        // b1 gets a smaller id than a1, so the level-2 ancestors of the
        // sorted leaves [a11, b11] come out as [a1, b1] reversed.
        let mut builder = TaxonomyBuilder::new();
        for (name, parent) in [
            ("a", ""),
            ("b", ""),
            ("b1", "b"),
            ("a1", "a"),
            ("a11", "a1"),
            ("b11", "b1"),
            ("a12", "a1"),
            ("a2", "a"),
            ("b12", "b1"),
            ("a21", "a2"),
        ] {
            if parent.is_empty() {
                builder.add_root_child(name).unwrap();
            } else {
                builder.add_child(name, parent).unwrap();
            }
        }
        let tax = builder.build(RebalancePolicy::RequireBalanced).unwrap();
        let g = |s: &str| tax.node_by_name(s).unwrap();
        assert!(g("a11") < g("b11") && g("a1") > g("b1"));
        let mut rng = Xoshiro256pp::seed_from_u64(0x0DD5);
        for case in 0..6 {
            let n = rng.gen_range(1..=40);
            let mut rows = random_rows(&mut rng, tax.leaves(), n);
            rows.push(vec![g("a11"), g("b11")]);
            assert_matches_reference(&tax, &rows, &format!("case {case}"));
        }
    }
}
