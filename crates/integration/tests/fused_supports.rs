//! Ground truth for fused supports: vertical candidate generation tallies
//! each children-combination's support while it enumerates, and those
//! supports are never recounted. Every evaluated itemset's support must
//! still equal the naive per-candidate reference
//! [`flipper_data::naive_tidset_counts`], for every pruning variant,
//! engine and thread count, seeded or not — and every generated candidate
//! must be answered by exactly one source: the generator, the seed cache,
//! or the counter.
//!
//! `scripts/verify.sh` re-runs this suite under `--release`.

use flipper_core::{
    mine_with_view, mine_with_view_seeded, FlipperConfig, MinSupports, MiningResult, PruningConfig,
};
use flipper_data::rng::{Rng, Xoshiro256pp};
use flipper_data::{
    naive_tidset_counts, CountingEngine, Itemset, MultiLevelView, SupportCache, TransactionDb,
};
use flipper_datagen::planted::{self, PlantedParams};
use flipper_datagen::quest::{self, QuestParams};
use flipper_measures::Thresholds;
use flipper_taxonomy::{NodeId, RebalancePolicy, Taxonomy};

/// The paper's Fig. 4 toy dataset.
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

/// Two categories of 260 leaves each, random baskets of 2–8 leaves. Nearly
/// every leaf is frequent at θ = 1, so a level-1 parent pair spans about
/// 260² > 2¹⁶ children-combinations: the generator tallies them in its
/// ordered-map fallback instead of the flat array.
fn wide() -> (Taxonomy, TransactionDb) {
    let tax = Taxonomy::uniform(2, 260, 2).unwrap();
    let leaves = tax.leaves().to_vec();
    let mut rng = Xoshiro256pp::seed_from_u64(29);
    let rows: Vec<Vec<NodeId>> = (0..1500)
        .map(|_| {
            let w = rng.gen_range(2..=8);
            (0..w)
                .map(|_| leaves[rng.gen_range(0..leaves.len())])
                .collect()
        })
        .collect();
    (tax, TransactionDb::new(rows).unwrap())
}

/// `(name, taxonomy, database, config)` for the toy, planted, a small
/// quest and the wide dataset.
fn datasets() -> Vec<(&'static str, Taxonomy, TransactionDb, FlipperConfig)> {
    let (toy_tax, toy_db) = toy();
    let toy_cfg = FlipperConfig::new(Thresholds::new(0.6, 0.35), MinSupports::Counts(vec![1]));
    let planted = planted::generate(&PlantedParams::default());
    let (g, e) = planted::recommended_thresholds();
    let planted_cfg = FlipperConfig::new(Thresholds::new(g, e), MinSupports::Counts(vec![5]));
    let quest = quest::generate(&QuestParams::default().with_transactions(600).with_seed(11));
    let quest_cfg = FlipperConfig::new(
        Thresholds::new(0.5, 0.25),
        MinSupports::Counts(vec![6, 3, 2, 1]),
    );
    let (wide_tax, wide_db) = wide();
    let wide_cfg = FlipperConfig::new(Thresholds::new(0.5, 0.3), MinSupports::Counts(vec![1]));
    vec![
        ("toy", toy_tax, toy_db, toy_cfg),
        ("planted", planted.taxonomy, planted.db, planted_cfg),
        ("quest", quest.taxonomy, quest.db, quest_cfg),
        ("wide", wide_tax, wide_db, wide_cfg),
    ]
}

/// Every evaluated itemset's support equals the naive reference, and each
/// generated candidate was answered by exactly one source.
fn assert_ground_truth(view: &MultiLevelView, r: &MiningResult, ctx: &str) {
    for (h, cell) in &r.evaluated {
        let sets: Vec<Itemset> = cell.iter().map(|(s, _)| s.clone()).collect();
        let expected = naive_tidset_counts(view, *h, &sets);
        for ((set, info), want) in cell.iter().zip(expected) {
            assert_eq!(info.support, want, "{ctx}: support of {set:?} at level {h}");
        }
    }
    let s = &r.stats;
    assert_eq!(
        s.counter.candidates_counted + s.fused_supports + s.seeded_supports,
        s.candidates_generated,
        "{ctx}: counted + fused + seeded must cover every candidate once"
    );
}

#[test]
fn fused_supports_match_naive_counts_everywhere() {
    for (name, tax, db, base) in datasets() {
        let mut fused = 0u64;
        let view = MultiLevelView::build(&db, &tax);
        // Seeds from a different configuration, so seeded runs are only
        // partially answered by the cache.
        let mut seeds = SupportCache::new();
        let donor = base
            .clone()
            .with_pruning(PruningConfig::BASIC)
            .with_max_k(2);
        for (h, cell) in &mine_with_view(&tax, &view, &donor).evaluated {
            for (set, info) in cell.iter() {
                seeds.insert(*h, set, info.support);
            }
        }
        for pruning in PruningConfig::VARIANTS {
            for engine in [CountingEngine::Tidset, CountingEngine::Bitset] {
                for threads in [1usize, 2] {
                    let cfg = base
                        .clone()
                        .with_pruning(pruning)
                        .with_engine(engine)
                        .with_threads(threads);
                    let ctx = format!("{name} {} {engine:?} threads={threads}", pruning.name());
                    let plain = mine_with_view(&tax, &view, &cfg);
                    assert_ground_truth(&view, &plain, &ctx);
                    assert_eq!(plain.stats.seeded_supports, 0, "{ctx}");
                    if !pruning.flipping {
                        assert_eq!(
                            plain.stats.fused_supports, 0,
                            "{ctx}: basic never generates vertically"
                        );
                    }
                    fused += plain.stats.fused_supports;

                    let seeded = mine_with_view_seeded(&tax, &view, &cfg, &seeds);
                    assert_ground_truth(&view, &seeded, &format!("{ctx} seeded"));
                    assert_eq!(seeded.cells, plain.cells, "{ctx} seeded");
                    assert_eq!(seeded.patterns, plain.patterns, "{ctx} seeded");
                    assert_eq!(
                        seeded.stats.fused_supports, plain.stats.fused_supports,
                        "{ctx}: seeding never changes what the generator knows"
                    );
                }
            }
        }
        assert!(
            fused > 0,
            "{name}: the flipping variants must fuse supports"
        );
    }
}
