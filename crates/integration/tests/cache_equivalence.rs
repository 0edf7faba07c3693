//! Cache-equivalence acceptance tests: the cross-cell prefix cache and the
//! session-level support cache are pure cost levers — at every engine,
//! thread count, and byte budget, counts, mined results, and the
//! `flipper-results/v1` bytes are identical to the uncached paths, and the
//! per-candidate reference [`flipper_data::naive_tidset_counts`] stays the
//! ground truth for every cached kernel.

use flipper_api::{FlipperConfig, Generator, JsonWriter, MinSupports, ResultSink, Session};
use flipper_data::{
    naive_tidset_counts, CellCache, CountingEngine, Itemset, MultiLevelView, TransactionDb,
};
use flipper_datagen::quest::QuestParams;
use flipper_measures::Thresholds;
use flipper_taxonomy::Taxonomy;

fn quest_data() -> (Taxonomy, TransactionDb) {
    let ds =
        Generator::Quest(QuestParams::default().with_transactions(300).with_seed(11)).dataset();
    (ds.taxonomy, ds.db)
}

fn quest_config() -> FlipperConfig {
    FlipperConfig::new(
        Thresholds::new(0.5, 0.25),
        MinSupports::Counts(vec![6, 3, 2, 1]),
    )
}

/// Chained uniform-`k` batches over the deepest level, sized to exercise
/// sharding and cross-batch prefix reuse: all frequent pairs, then every
/// triple extending the first pair prefixes, then quads — the shape the
/// miner produces when a run walks `Q(h,2) → Q(h,3) → Q(h,4)`.
fn chained_batches(view: &MultiLevelView, h: usize) -> Vec<Vec<Itemset>> {
    let counter = CountingEngine::Tidset.make(view);
    let items: Vec<_> = counter
        .present_items(h)
        .iter()
        .copied()
        .filter(|&it| counter.item_support(h, it) >= 2)
        .take(14)
        .collect();
    assert!(items.len() >= 8, "quest data must have frequent leaf items");
    let mut pairs = Vec::new();
    for i in 0..items.len() {
        for j in (i + 1)..items.len() {
            pairs.push(Itemset::pair(items[i], items[j]));
        }
    }
    pairs.sort_unstable();
    let mut triples = Vec::new();
    for i in 0..items.len().min(10) {
        for j in (i + 1)..items.len().min(10) {
            for l in (j + 1)..items.len().min(10) {
                triples.push(Itemset::new(vec![items[i], items[j], items[l]]));
            }
        }
    }
    triples.sort_unstable();
    let mut quads = Vec::new();
    for j in 3..items.len().min(11) {
        quads.push(Itemset::new(vec![items[0], items[1], items[2], items[j]]));
    }
    quads.sort_unstable();
    vec![pairs, triples, quads]
}

/// Tentpole differential: cached counting — one `CellCache` threaded
/// through chained batches, exactly as the miner drives it — returns the
/// same counts as the naive per-candidate reference, for every engine ×
/// thread count × cache budget (budget 0 = the pre-cache behavior).
#[test]
fn cached_counting_matches_naive_across_engines_threads_budgets() {
    let (tax, db) = quest_data();
    let view = MultiLevelView::build(&db, &tax);
    let h = tax.height();
    let batches = chained_batches(&view, h);
    let expected: Vec<Vec<u64>> = batches
        .iter()
        .map(|b| naive_tidset_counts(&view, h, b))
        .collect();
    for engine in [
        CountingEngine::Tidset,
        CountingEngine::Bitset,
        CountingEngine::Scan,
    ] {
        for threads in [1usize, 2, 7] {
            for budget in [0usize, 2048, usize::MAX] {
                let mut counter = engine.make(&view);
                let mut cache = CellCache::new(budget);
                for (batch, want) in batches.iter().zip(&expected) {
                    let got = counter.count_batch_cached(h, batch, threads, &mut cache);
                    assert_eq!(
                        &got, want,
                        "{engine:?} threads={threads} budget={budget}: counts must \
                         be bit-identical to the naive reference"
                    );
                }
            }
        }
    }
}

/// Counter statistics are a pure function of `(candidates, data)`: the
/// cache changes how the work is done, never what is reported.
#[test]
fn counter_stats_are_cache_and_thread_invariant() {
    let (tax, db) = quest_data();
    let view = MultiLevelView::build(&db, &tax);
    let h = tax.height();
    let batches = chained_batches(&view, h);
    for engine in [CountingEngine::Tidset, CountingEngine::Bitset] {
        let mut base = engine.make(&view);
        for batch in &batches {
            base.count_batch_sharded(h, batch, 1);
        }
        let want = base.stats();
        for threads in [1usize, 2, 7] {
            for budget in [0usize, 2048, usize::MAX] {
                let mut counter = engine.make(&view);
                let mut cache = CellCache::new(budget);
                for batch in &batches {
                    counter.count_batch_cached(h, batch, threads, &mut cache);
                }
                assert_eq!(
                    counter.stats(),
                    want,
                    "{engine:?} threads={threads} budget={budget}: stats drifted"
                );
            }
        }
    }
}

fn render_doc(session: &Session, cfg: &FlipperConfig) -> Vec<u8> {
    let result = session.mine(cfg).unwrap();
    let mut json = JsonWriter::new(Vec::new());
    json.consume("run", session.taxonomy(), cfg, &result)
        .unwrap();
    json.finish().unwrap();
    json.into_inner()
}

/// Acceptance bar: `flipper-results/v1` bytes are identical across cache
/// budgets, engines, thread counts {1, 4}, and repeated runs.
#[test]
fn results_v1_bytes_identical_across_budgets_engines_threads() {
    let (tax, db) = quest_data();
    let session = Session::open(&flipper_api::Dataset { taxonomy: tax, db }).unwrap();
    let base = quest_config();
    let mut reference: Option<Vec<u8>> = None;
    for budget in [0usize, 2048, usize::MAX] {
        for engine in [CountingEngine::Tidset, CountingEngine::Bitset] {
            for threads in [1usize, 4] {
                for repeat in 0..2 {
                    let cfg = base
                        .clone()
                        .with_cache_budget(budget)
                        .with_engine(engine)
                        .with_threads(threads);
                    let bytes = render_doc(&session, &cfg);
                    match &reference {
                        None => reference = Some(bytes),
                        Some(want) => assert_eq!(
                            String::from_utf8_lossy(&bytes),
                            String::from_utf8_lossy(want),
                            "budget={budget} {engine:?} threads={threads} \
                             repeat={repeat}: result bytes drifted"
                        ),
                    }
                }
            }
        }
    }
}

/// Seeded sweeps answer already-counted supports from the session cache;
/// the labeled results — and their serialized bytes — are identical to an
/// unseeded sweep of the same grid.
#[test]
fn seeded_sweep_is_byte_identical_to_unseeded() {
    let (tax, db) = quest_data();
    let dataset = flipper_api::Dataset { taxonomy: tax, db };
    let base = quest_config();
    let render = |runs: &[flipper_api::SweepRun], session: &Session| {
        let mut json = JsonWriter::new(Vec::new());
        flipper_api::emit_runs(&mut json, session.taxonomy(), runs).unwrap();
        json.into_inner()
    };
    // Fresh session per mode so the seeded one owns a warm cache and the
    // unseeded one never builds any.
    let seeded_session = Session::open(&dataset).unwrap();
    let grid = |session: &Session, seed: bool| {
        session
            .sweep()
            .with_seeding(seed)
            .thresholds_grid(&base, &[0.5, 0.4, 0.3], &[0.1, 0.25])
            .run()
            .unwrap()
    };
    let warmup = grid(&seeded_session, true);
    assert!(!warmup.is_empty());
    assert!(
        seeded_session.support_cache_len() > 0,
        "sweep must deposit supports into the session cache"
    );
    let seeded = grid(&seeded_session, true);
    assert!(
        seeded_session.support_cache_stats().seed_hits > 0,
        "warm sweep must hit the support cache"
    );
    let unseeded_session = Session::open(&dataset).unwrap();
    let unseeded = grid(&unseeded_session, false);
    assert_eq!(
        String::from_utf8_lossy(&render(&seeded, &seeded_session)),
        String::from_utf8_lossy(&render(&unseeded, &unseeded_session)),
        "seeding changes counting cost, never results"
    );
}
