//! # flipper-data
//!
//! Transaction databases, multi-level taxonomy projections and support
//! counting for flipping-correlation mining (Barsky et al., PVLDB 5(4),
//! 2011).
//!
//! The mining algorithm evaluates `(h, k)`-itemsets: `k`-itemsets whose
//! items have been generalized to taxonomy level `h`. This crate supplies
//! everything below the algorithm:
//!
//! * [`Itemset`] — canonical sorted itemsets with Apriori joins;
//! * [`TransactionDb`] — validated, canonicalized transactions over leaves;
//! * [`MultiLevelView`] — the database projected to every abstraction level,
//!   with per-item supports and tid-lists;
//! * [`SupportCounter`] — batch support oracles: the default hybrid
//!   [`BitsetCounter`] (per-item bitmap promotion), vertical
//!   [`TidsetCounter`] and scan-based [`ScanCounter`];
//! * [`mod@exec`] — dependency-free scoped-thread sharding;
//!   [`SupportCounter::count_batch_sharded`] counts a batch over a worker
//!   pool with bit-identical counts and stats at every thread count;
//! * [`mod@cache`] — the budgeted cross-cell prefix cache and the
//!   session-level support cache behind
//!   [`SupportCounter::count_batch_cached`];
//! * [`mod@format`] — a text interchange format bundling taxonomy + data;
//! * [`stats`] — dataset statistics.
//!
//! ```
//! use flipper_taxonomy::{Taxonomy, RebalancePolicy};
//! use flipper_data::{TransactionDb, MultiLevelView, TidsetCounter, SupportCounter, Itemset};
//!
//! let tax = Taxonomy::from_edges(
//!     [("drinks", ""), ("food", ""), ("beer", "drinks"), ("bread", "food")],
//!     RebalancePolicy::RequireBalanced).unwrap();
//! let beer = tax.node_by_name("beer").unwrap();
//! let bread = tax.node_by_name("bread").unwrap();
//! let db = TransactionDb::new(vec![vec![beer, bread], vec![beer]]).unwrap();
//!
//! let view = MultiLevelView::build(&db, &tax);
//! let mut counter = TidsetCounter::new(&view);
//! let sup = counter.count_batch(2, &[Itemset::pair(beer, bread)]);
//! assert_eq!(sup, vec![1]);
//! ```

pub mod bitset;
pub mod cache;
mod counting;
pub mod exec;
pub mod format;
mod itemset;
mod projection;
/// Seedable PRNG, re-exported from the `flipper-rng` micro-crate under its
/// historical path so existing callers keep working unchanged.
pub use flipper_rng as rng;
pub mod stats;
pub mod tidset;
mod transaction;

pub use bitset::{Bitmap, BitsetCounter};
pub use cache::{
    CacheStats, CachedPrefix, CellCache, PrefixCache, SupportCache, DEFAULT_CACHE_BUDGET,
};
pub use counting::{
    naive_tidset_counts, prefix_groups, same_prefix_group, CounterStats, CountingEngine,
    ScanCounter, SupportCounter, TidsetCounter, MIN_SHARD_CANDIDATES,
};
pub use itemset::Itemset;
pub use projection::{LevelView, MultiLevelView, MultiLevelViewBuilder};
pub use transaction::{DataError, TransactionDb};
