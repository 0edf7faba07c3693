//! Seeded property sweep for the prefix-cached counting kernels: grouped
//! counting must be **bit-identical** — counts *and* stats — to the naive
//! per-candidate reference and to itself at every thread count, for every
//! engine, on random dense and sparse databases, including batches with
//! degenerate group shapes (all-same-prefix, all-distinct-prefix, k = 2).
//!
//! `scripts/verify.sh` re-runs this suite under `--release`, where the
//! optimizer has historically surfaced bugs debug builds miss.

use flipper_core::{mine, FlipperConfig, MinSupports, PruningConfig};
use flipper_data::rng::{Rng, Xoshiro256pp};
use flipper_data::{naive_tidset_counts, CountingEngine, Itemset, MultiLevelView, TransactionDb};
use flipper_measures::Thresholds;
use flipper_taxonomy::{NodeId, Taxonomy};

/// Random database over `tax`: `n` transactions of width `1..=max_w`.
fn random_db(tax: &Taxonomy, n: usize, max_w: usize, seed: u64) -> TransactionDb {
    let leaves = tax.leaves().to_vec();
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let rows: Vec<Vec<NodeId>> = (0..n)
        .map(|_| {
            let w = rng.gen_range(1..=max_w);
            (0..w)
                .map(|_| leaves[rng.gen_range(0..leaves.len())])
                .collect()
        })
        .collect();
    TransactionDb::new(rows).expect("rows non-empty")
}

/// Dense setup: few leaves, wide transactions (bitset territory); sparse
/// setup: many leaves, narrow transactions (tidset territory).
fn setups(seed: u64) -> Vec<(&'static str, Taxonomy, TransactionDb)> {
    let dense_tax = Taxonomy::uniform(2, 2, 2).unwrap();
    let dense_db = random_db(&dense_tax, 220, 6, seed);
    let sparse_tax = Taxonomy::uniform(3, 4, 3).unwrap();
    let sparse_db = random_db(&sparse_tax, 400, 3, seed ^ 0xD15EA5E);
    vec![
        ("dense", dense_tax, dense_db),
        ("sparse", sparse_tax, sparse_db),
    ]
}

/// Candidate batches covering the group shapes the kernels special-case:
/// one giant all-same-prefix group, all-distinct prefixes, pure k = 2, and
/// a sorted mix of all of them (the miner's real batch shape).
fn batches(tax: &Taxonomy, h: usize) -> Vec<(&'static str, Vec<Itemset>)> {
    let nodes = tax.nodes_at_level(h).unwrap().to_vec();
    assert!(nodes.len() >= 4, "level {h} too small for batch shapes");
    let same_prefix: Vec<Itemset> = nodes[2..]
        .iter()
        .map(|&x| Itemset::new(vec![nodes[0], nodes[1], x]))
        .collect();
    let distinct_prefix: Vec<Itemset> = (0..nodes.len() - 2)
        .map(|i| Itemset::new(vec![nodes[i], nodes[i + 1], nodes[i + 2]]))
        .collect();
    let mut pairs: Vec<Itemset> = Vec::new();
    for (i, &x) in nodes.iter().enumerate() {
        for &y in &nodes[i + 1..] {
            pairs.push(Itemset::pair(x, y));
        }
    }
    let mut mixed: Vec<Itemset> = Vec::new();
    mixed.extend(nodes.iter().map(|&x| Itemset::single(x)));
    mixed.extend(pairs.iter().cloned());
    mixed.extend(same_prefix.iter().cloned());
    mixed.extend(distinct_prefix.iter().cloned());
    mixed.sort_unstable();
    mixed.dedup();
    // Repeat the mixed batch well past the sharding cutoff so the
    // group-boundary chunker actually engages at threads > 1.
    let mut big = mixed.clone();
    while big.len() < 4 * flipper_data::MIN_SHARD_CANDIDATES {
        big.extend(mixed.iter().cloned());
    }
    vec![
        ("all-same-prefix", same_prefix),
        ("all-distinct-prefix", distinct_prefix),
        ("k2", pairs),
        ("mixed-large", big),
    ]
}

/// Counts match the naive per-candidate reference for every engine, and
/// counts *and stats* are identical at threads {1, 2, 7} for every engine
/// and batch shape.
#[test]
fn grouped_counting_is_bit_identical_to_naive() {
    for seed in [3u64, 1117] {
        for (setup, tax, db) in setups(seed) {
            let view = MultiLevelView::build(&db, &tax);
            for h in 1..=tax.height() {
                if tax.nodes_at_level(h).unwrap().len() < 4 {
                    continue;
                }
                for (shape, batch) in batches(&tax, h) {
                    let reference = naive_tidset_counts(&view, h, &batch);
                    for engine in [
                        CountingEngine::Tidset,
                        CountingEngine::Bitset,
                        CountingEngine::Scan,
                    ] {
                        let mut seq = engine.make(&view);
                        let counts = seq.count_batch(h, &batch);
                        let ctx = format!(
                            "{setup} seed={seed} h={h} {shape} engine={}",
                            seq.engine_name()
                        );
                        assert_eq!(counts, reference, "{ctx}: counts vs naive");
                        for threads in [1usize, 2, 7] {
                            let mut par = engine.make(&view);
                            let got = par.count_batch_sharded(h, &batch, threads);
                            assert_eq!(got, reference, "{ctx} threads={threads}: counts");
                            assert_eq!(par.stats(), seq.stats(), "{ctx} threads={threads}: stats");
                        }
                    }
                }
            }
        }
    }
}

/// End-to-end: full mining runs produce identical patterns and cell
/// summaries across every engine, and fully bit-identical results
/// (counter stats included) across thread counts {1, 2, 4, 7} per engine.
#[test]
fn mining_results_invariant_across_engines_and_threads() {
    for seed in [7u64, 4242] {
        for (setup, tax, db) in setups(seed) {
            let cfg = FlipperConfig::new(
                Thresholds::new(0.45, 0.2),
                MinSupports::Counts(vec![2, 1, 1]),
            )
            .with_pruning(PruningConfig::FULL);
            let baseline = mine(&tax, &db, &cfg);
            for engine in [
                CountingEngine::Tidset,
                CountingEngine::Bitset,
                CountingEngine::Scan,
            ] {
                let mut per_engine_stats = None;
                for threads in [1usize, 2, 4, 7] {
                    let r = mine(
                        &tax,
                        &db,
                        &cfg.clone().with_engine(engine).with_threads(threads),
                    );
                    let ctx = format!("{setup} seed={seed} {engine:?} threads={threads}");
                    assert_eq!(r.patterns, baseline.patterns, "{ctx}: patterns");
                    assert_eq!(r.cells, baseline.cells, "{ctx}: cell summaries");
                    assert_eq!(
                        r.stats.counter.candidates_counted,
                        baseline.stats.counter.candidates_counted,
                        "{ctx}: candidates counted"
                    );
                    // Engine-specific work stats must not depend on the
                    // thread count — prefix groups are never torn apart.
                    match per_engine_stats {
                        None => per_engine_stats = Some(r.stats.counter),
                        Some(expect) => {
                            assert_eq!(r.stats.counter, expect, "{ctx}: counter stats")
                        }
                    }
                }
            }
        }
    }
}
