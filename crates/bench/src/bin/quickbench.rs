//! Times the paper's configurations with the `std::time::Instant` harness
//! in [`flipper_bench::timing`] and prints fixed-width tables, plus the
//! execution-layer grid (counting engine × worker threads), the
//! counting-kernel rows (prefix-cached and cell-cached vs naive
//! per-candidate) and the sweep-seeding rows (support-cache-seeded vs cold
//! γ/ε grids).
//!
//! Scale with `--scale <f>` (default 0.2 so a full run stays interactive)
//! and sample count with `--samples <n>`. `--smoke` runs a few-second
//! engine × threads grid on a tiny dataset — the CI hook
//! `scripts/verify.sh` uses it so a perf regression in any engine fails
//! loudly instead of silently. `--json
//! <path>` additionally writes every timed grid/kernel/storage row as a
//! `flipper-quickbench/v1` JSON report (see [`flipper_bench::report`]) —
//! the machine-readable baseline future PRs regress against.

use flipper_api::Session;
use flipper_bench::report::{write_report, BenchRow};
use flipper_bench::timing::{time_fn, Timing};
use flipper_bench::{flag_from_args, opt_from_args, print_table, scale_from_args};
use flipper_core::{mine_with_view, FlipperConfig, MinSupports, PruningConfig};
use flipper_data::format::{read_dataset, write_dataset};
use flipper_data::{
    naive_tidset_counts, BitsetCounter, CellCache, CountingEngine, Itemset, MultiLevelView,
    SupportCache, SupportCounter, TidsetCounter, DEFAULT_CACHE_BUDGET,
};
use flipper_datagen::quest::{generate, QuestParams};
use flipper_datagen::surrogate::groceries;
use flipper_measures::{Measure, Thresholds};
use flipper_store::{read_fbin, stream_view, to_fbin_bytes, FbinReader};
use flipper_taxonomy::{NodeId, RebalancePolicy};
use std::io::Cursor;

fn samples_from_args() -> usize {
    opt_from_args("--samples")
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
        .max(1)
}

/// The engine × threads grid on a quest dataset of `n` transactions:
/// BASIC pruning with the thr10 support profile, where per-cell candidate
/// batches are large enough that counting dominates and sharding pays.
/// Prints per-engine 4-thread speedups and prefix-reuse rates after the
/// table, and appends one JSON row per grid point (with the run's counter
/// stats) to `report`.
fn exec_layer_grid(n: usize, warmup: usize, samples: usize, report: &mut Vec<BenchRow>) {
    let data = generate(&QuestParams::default().with_transactions(n));
    let view = MultiLevelView::build(&data.db, &data.taxonomy);
    let base = FlipperConfig::new(
        Thresholds::new(0.3, 0.1),
        MinSupports::Fractions(vec![0.001, 0.0001, 0.00006, 0.00003]),
    )
    .with_pruning(PruningConfig::BASIC);

    let engines = [
        ("tidset", CountingEngine::Tidset),
        ("bitset", CountingEngine::Bitset),
        ("scan", CountingEngine::Scan),
    ];
    let thread_grid = [1usize, 2, 4];
    let mut rows: Vec<Timing> = Vec::new();
    let mut speedups: Vec<String> = Vec::new();
    let mut reuse_rates: Vec<String> = Vec::new();
    for (name, engine) in engines {
        let mut per_threads: Vec<(usize, Timing)> = Vec::new();
        for threads in thread_grid {
            let cfg = base.clone().with_engine(engine).with_threads(threads);
            let mut counter_stats = None;
            let t = time_fn(format!("{name}/t{threads}"), warmup, samples, || {
                let r = mine_with_view(&data.taxonomy, &view, &cfg);
                counter_stats = Some(r.stats.counter);
                r
            });
            let stats = counter_stats.expect("at least one sample ran");
            report.push(
                BenchRow::new("exec_grid", "quest", n, name, threads, t.clone()).with_stats(stats),
            );
            if threads == 1 && stats.candidates_counted > 0 {
                reuse_rates.push(format!(
                    "{name}: {:.0}%",
                    100.0 * stats.prefix_reuses as f64 / stats.candidates_counted as f64
                ));
            }
            per_threads.push((threads, t.clone()));
            rows.push(t);
        }
        let t1 = per_threads[0].1.median.as_secs_f64();
        let t4 = per_threads
            .last()
            .expect("grid non-empty")
            .1
            .median
            .as_secs_f64();
        if t4 > 0.0 {
            speedups.push(format!("{name}: {:.2}x", t1 / t4));
        }
    }
    print_table(
        &format!("execution layer: engine × threads (quest, N = {n}, basic/thr10)"),
        &["config", "median_ms", "min_ms", "mean_ms"],
        &rows.iter().map(Timing::cells).collect::<Vec<_>>(),
    );
    println!("  4-thread speedup over 1 thread: {}", speedups.join(", "));
    println!("  prefix-reuse rate (t1): {}", reuse_rates.join(", "));
}

/// Build a realistic k≥3-heavy counting workload at the leaf level of a
/// quest dataset: frequent items (θ = 2) → co-occurring pairs → Apriori
/// triples. The result is the sorted, deduplicated batch shape the miner
/// hands to `count_shard` at a low-support leaf cell, where candidates
/// cluster densely under shared (k−1)-prefixes.
fn leaf_triple_batch(view: &MultiLevelView, h: usize, max_items: usize) -> Vec<Itemset> {
    let lv = view.level(h);
    let theta = 2u64;
    let freq: Vec<NodeId> = lv
        .present_items()
        .iter()
        .copied()
        .filter(|&it| lv.item_support(it) >= theta)
        .take(max_items)
        .collect();
    let mut pairs = Vec::new();
    for (i, &x) in freq.iter().enumerate() {
        for &y in &freq[i + 1..] {
            pairs.push(Itemset::pair(x, y));
        }
    }
    let counter = TidsetCounter::new(view);
    let (pair_counts, _) = counter.count_shard(h, &pairs);
    let fpairs: Vec<&Itemset> = pairs
        .iter()
        .zip(&pair_counts)
        .filter(|(_, &c)| c >= theta)
        .map(|(p, _)| p)
        .collect();
    // Apriori join of frequent pairs sharing their first item; the grouped
    // generation order is already sorted and duplicate-free.
    let mut triples = Vec::new();
    let mut i = 0;
    while i < fpairs.len() {
        let first = fpairs[i].items()[0];
        let mut j = i;
        while j < fpairs.len() && fpairs[j].items()[0] == first {
            j += 1;
        }
        for p in i..j {
            for q in (p + 1)..j {
                if let Some(t) = fpairs[p].apriori_join(fpairs[q]) {
                    triples.push(t);
                }
            }
        }
        i = j;
    }
    triples.sort_unstable();
    triples.dedup();
    triples
}

/// Counting-kernel rows: the prefix-cached tidset/bitset shard cores vs the
/// retained naive per-candidate kernel, on the k=3-heavy leaf batch. The
/// prefix kernels are asserted bit-identical to the reference before any
/// timing is reported, and the printed reuse rate comes from the kernel's
/// own `prefix_reuses` statistic.
fn counting_kernel_rows(n: usize, warmup: usize, samples: usize, report: &mut Vec<BenchRow>) {
    let data = generate(&QuestParams::default().with_transactions(n));
    let view = MultiLevelView::build(&data.db, &data.taxonomy);
    let h = data.taxonomy.height();
    let batch = leaf_triple_batch(&view, h, 120);
    if batch.is_empty() {
        println!("\n== counting kernels: no k=3 batch at N = {n}, skipped");
        return;
    }
    let tc = TidsetCounter::new(&view);
    let bc = BitsetCounter::new(&view);
    let reference = naive_tidset_counts(&view, h, &batch);
    let (prefix_counts, kernel_stats) = tc.count_shard(h, &batch);
    assert_eq!(
        prefix_counts, reference,
        "prefix-cached tidset kernel diverged from the naive reference"
    );
    assert_eq!(
        bc.count_shard(h, &batch).0,
        reference,
        "prefix-cached bitset kernel diverged from the naive reference"
    );

    let t_naive = time_fn("tidset-naive/k3", warmup, samples, || {
        naive_tidset_counts(&view, h, &batch)
    });
    let t_prefix = time_fn("tidset-prefix/k3", warmup, samples, || {
        tc.count_shard(h, &batch)
    });
    let t_bitset = time_fn("bitset-prefix/k3", warmup, samples, || {
        bc.count_shard(h, &batch)
    });

    // Cross-cell cache rows: cold pays the first-visit cost of populating a
    // fresh `CellCache`; warm answers every (k−1)-prefix from memory so the
    // kernel only performs the final per-candidate intersection.
    let mut tcc = TidsetCounter::new(&view);
    let t_cache_cold = time_fn("tidset-cache-cold/k3", warmup, samples, || {
        let mut cache = CellCache::new(DEFAULT_CACHE_BUDGET);
        tcc.count_batch_cached(h, &batch, 1, &mut cache)
    });
    let mut warm = CellCache::new(DEFAULT_CACHE_BUDGET);
    assert_eq!(
        tcc.count_batch_cached(h, &batch, 1, &mut warm),
        reference,
        "cell-cached tidset kernel diverged from the naive reference"
    );
    let t_cache_warm = time_fn("tidset-cache-warm/k3", warmup, samples, || {
        tcc.count_batch_cached(h, &batch, 1, &mut warm)
    });
    let cache_stats = warm.stats();

    report.push(BenchRow::new(
        "kernel",
        "quest",
        n,
        "tidset-naive",
        1,
        t_naive.clone(),
    ));
    report.push(
        BenchRow::new("kernel", "quest", n, "tidset-prefix", 1, t_prefix.clone())
            .with_stats(kernel_stats),
    );
    report.push(BenchRow::new(
        "kernel",
        "quest",
        n,
        "bitset-prefix",
        1,
        t_bitset.clone(),
    ));
    report.push(BenchRow::new(
        "kernel",
        "quest",
        n,
        "tidset-cache-cold",
        1,
        t_cache_cold.clone(),
    ));
    report.push(
        BenchRow::new(
            "kernel",
            "quest",
            n,
            "tidset-cache-warm",
            1,
            t_cache_warm.clone(),
        )
        .with_cache(cache_stats),
    );
    print_table(
        &format!(
            "counting kernels (quest, N = {n}, leaf level, {} k=3 candidates)",
            batch.len()
        ),
        &["config", "median_ms", "min_ms", "mean_ms"],
        &[
            t_naive.cells(),
            t_prefix.cells(),
            t_bitset.cells(),
            t_cache_cold.cells(),
            t_cache_warm.cells(),
        ],
    );
    let (naive_med, prefix_med) = (t_naive.median.as_secs_f64(), t_prefix.median.as_secs_f64());
    if prefix_med > 0.0 {
        println!(
            "  prefix-cached tidset speedup over naive: {:.2}x  (reuse rate {:.0}%: {} of {} candidates)",
            naive_med / prefix_med,
            100.0 * kernel_stats.prefix_reuses as f64 / kernel_stats.candidates_counted as f64,
            kernel_stats.prefix_reuses,
            kernel_stats.candidates_counted,
        );
    }
    let warm_med = t_cache_warm.median.as_secs_f64();
    if warm_med > 0.0 {
        println!(
            "  warm cell-cache speedup over naive: {:.2}x  (hit rate {:.0}%, {} KiB resident)",
            naive_med / warm_med,
            100.0 * cache_stats.hit_rate(),
            cache_stats.bytes_resident / 1024,
        );
    }
}

/// Sweep-seeding rows: the same γ/ε grid swept cold (seeding off, every
/// point counts all of its candidates) vs seeded (the session's support
/// cache answers already-counted `(h, itemset)` supports). Both sweeps run
/// on a session with a prebuilt view so the comparison isolates counting
/// cost; the seeded session is warmed by one throwaway sweep first. The
/// grid runs the `scan` engine — the paper's disk model, where counting is
/// the dominant cost and skipping it shows the cache's full value (the
/// vertical engines' prefix kernels already amortize most of what seeding
/// saves).
fn sweep_seeding_rows(n: usize, warmup: usize, samples: usize, report: &mut Vec<BenchRow>) {
    let ds = generate(&QuestParams::default().with_transactions(n)).into_dataset();
    let base = FlipperConfig::new(
        Thresholds::new(0.3, 0.1),
        MinSupports::Fractions(vec![0.001, 0.0001, 0.00006, 0.00003]),
    )
    .with_pruning(PruningConfig::BASIC)
    .with_engine(CountingEngine::Scan);
    let gammas = [0.5, 0.4, 0.3];
    let epsilons = [0.25, 0.1];

    let cold_session = Session::open(&ds).expect("open session");
    let t_cold = time_fn("sweep-cold/6pt", warmup, samples, || {
        cold_session
            .sweep()
            .with_seeding(false)
            .thresholds_grid(&base, &gammas, &epsilons)
            .run()
            .expect("cold sweep")
    });

    let seeded_session = Session::open(&ds).expect("open session");
    seeded_session
        .sweep()
        .thresholds_grid(&base, &gammas, &epsilons)
        .run()
        .expect("warmup sweep");
    let t_seeded = time_fn("sweep-seeded/6pt", warmup, samples, || {
        seeded_session
            .sweep()
            .thresholds_grid(&base, &gammas, &epsilons)
            .run()
            .expect("seeded sweep")
    });
    let cache_stats = seeded_session.support_cache_stats();

    report.push(BenchRow::new(
        "sweep",
        "quest",
        n,
        "cold",
        1,
        t_cold.clone(),
    ));
    report.push(
        BenchRow::new("sweep", "quest", n, "seeded", 1, t_seeded.clone()).with_cache(cache_stats),
    );
    print_table(
        &format!("sweep seeding (quest, N = {n}, 3×2 γ/ε grid, basic/thr10, scan engine)"),
        &["config", "median_ms", "min_ms", "mean_ms"],
        &[t_cold.cells(), t_seeded.cells()],
    );
    let (cold_med, seeded_med) = (t_cold.median.as_secs_f64(), t_seeded.median.as_secs_f64());
    if seeded_med > 0.0 && cache_stats.seed_lookups > 0 {
        println!(
            "  seeded sweep speedup over cold: {:.2}x  (seed hit rate {:.0}%: {} of {} supports, {} cached)",
            cold_med / seeded_med,
            100.0 * cache_stats.seed_hits as f64 / cache_stats.seed_lookups as f64,
            cache_stats.seed_hits,
            cache_stats.seed_lookups,
            seeded_session.support_cache_len(),
        );
    }
}

/// Observability overhead rows: the same mine timed with the flipper-obs
/// recorder off (`mine-bare`) and on (`mine-traced`, draining the captured
/// spans after every sample the way the CLI does per run). The traced
/// median is the number the "< 2% overhead" acceptance row tracks; both
/// rows land in the JSON report so the baseline catches instrumentation
/// creep.
fn obs_overhead_rows(n: usize, warmup: usize, samples: usize, report: &mut Vec<BenchRow>) {
    let data = generate(&QuestParams::default().with_transactions(n));
    let view = MultiLevelView::build(&data.db, &data.taxonomy);
    let cfg = FlipperConfig::new(
        Thresholds::new(0.3, 0.1),
        MinSupports::Fractions(vec![0.001, 0.0001, 0.00006, 0.00003]),
    )
    .with_pruning(PruningConfig::BASIC);

    flipper_obs::disable();
    let _ = flipper_obs::drain();
    let t_bare = time_fn("mine-bare", warmup, samples, || {
        mine_with_view(&data.taxonomy, &view, &cfg)
    });
    flipper_obs::enable();
    let t_traced = time_fn("mine-traced", warmup, samples, || {
        let r = mine_with_view(&data.taxonomy, &view, &cfg);
        let capture = flipper_obs::drain();
        (r, capture.events.len())
    });
    flipper_obs::disable();
    let _ = flipper_obs::drain();

    report.push(BenchRow::new(
        "obs",
        "quest",
        n,
        "mine-bare",
        1,
        t_bare.clone(),
    ));
    report.push(BenchRow::new(
        "obs",
        "quest",
        n,
        "mine-traced",
        1,
        t_traced.clone(),
    ));
    print_table(
        &format!("observability overhead (quest, N = {n}, basic/thr10)"),
        &["config", "median_ms", "min_ms", "mean_ms"],
        &[t_bare.cells(), t_traced.cells()],
    );
    let (bare_med, traced_med) = (t_bare.median.as_secs_f64(), t_traced.median.as_secs_f64());
    if bare_med > 0.0 {
        println!(
            "  recorder overhead (traced vs bare median): {:+.2}%",
            100.0 * (traced_med - bare_med) / bare_med
        );
    }
}

/// Guard overhead rows: the same mine timed unguarded (`mine-unguarded`)
/// and through `mine_with_view_guarded` with a live-but-inert
/// [`flipper_api::CancelToken`] (`mine-guarded`) — the cancellation checks,
/// the fault-site probes and the panic trap all on the timed path with
/// nothing firing. The guarded median is the number the "< 1% overhead"
/// acceptance row tracks; both rows land in the JSON report so the baseline
/// catches guard-path creep.
fn guard_overhead_rows(n: usize, warmup: usize, samples: usize, report: &mut Vec<BenchRow>) {
    let data = generate(&QuestParams::default().with_transactions(n));
    let view = MultiLevelView::build(&data.db, &data.taxonomy);
    let cfg = FlipperConfig::new(
        Thresholds::new(0.3, 0.1),
        MinSupports::Fractions(vec![0.001, 0.0001, 0.00006, 0.00003]),
    )
    .with_pruning(PruningConfig::BASIC);

    let t_bare = time_fn("mine-unguarded", warmup, samples, || {
        mine_with_view(&data.taxonomy, &view, &cfg)
    });
    let token = flipper_api::CancelToken::new();
    let t_guarded = time_fn("mine-guarded", warmup, samples, || {
        flipper_core::mine_with_view_guarded(&data.taxonomy, &view, &cfg, &token)
            .expect("inert guard never fails")
    });

    report.push(BenchRow::new(
        "guard",
        "quest",
        n,
        "mine-unguarded",
        1,
        t_bare.clone(),
    ));
    report.push(BenchRow::new(
        "guard",
        "quest",
        n,
        "mine-guarded",
        1,
        t_guarded.clone(),
    ));
    print_table(
        &format!("guard overhead (quest, N = {n}, basic/thr10)"),
        &["config", "median_ms", "min_ms", "mean_ms"],
        &[t_bare.cells(), t_guarded.cells()],
    );
    let (bare_med, guarded_med) = (t_bare.median.as_secs_f64(), t_guarded.median.as_secs_f64());
    if bare_med > 0.0 {
        println!(
            "  guard overhead (guarded vs unguarded median): {:+.2}%",
            100.0 * (guarded_med - bare_med) / bare_med
        );
    }
}

/// Support-cache probe rows: the old per-candidate `BTreeMap` probe
/// (`probe-get`, one `(h, itemset.clone())` range lookup per candidate)
/// vs the sorted-batch range-merge (`probe-merge`, one cursor walked in
/// lockstep with the candidate batch). The synthetic cache interleaves
/// resident and missing candidates so both hit and miss paths are on the
/// timed path, and both probes are asserted to agree before timing.
fn seeding_probe_rows(warmup: usize, samples: usize, report: &mut Vec<BenchRow>) {
    const H: usize = 3;
    let candidates: Vec<Itemset> = (0..20_000usize)
        .map(|i| {
            Itemset::new(vec![
                NodeId::from_index(i),
                NodeId::from_index(i + 1),
                NodeId::from_index(i + 2),
            ])
        })
        .collect();
    let mut cache = SupportCache::new();
    for (i, cand) in candidates.iter().enumerate() {
        // Every other candidate is resident, plus off-batch neighbours the
        // merge cursor has to skip over.
        if i % 2 == 0 {
            cache.insert(H, cand, i as u64 + 1);
        }
        cache.insert(H + 1, cand, 1);
    }

    let probe_get = || {
        let mut hits = 0u64;
        for cand in &candidates {
            if cache.get(H, cand).is_some() {
                hits += 1;
            }
        }
        hits
    };
    let probe_merge = || cache.seed_batch(H, &candidates, |_, _| {});
    assert_eq!(
        probe_get(),
        probe_merge(),
        "range-merge probe diverged from per-candidate probe"
    );

    let t_get = time_fn("probe-get", warmup, samples, probe_get);
    let t_merge = time_fn("probe-merge", warmup, samples, probe_merge);
    let n = candidates.len();
    report.push(BenchRow::new(
        "seeding",
        "synthetic",
        n,
        "probe-get",
        1,
        t_get.clone(),
    ));
    report.push(BenchRow::new(
        "seeding",
        "synthetic",
        n,
        "probe-merge",
        1,
        t_merge.clone(),
    ));
    print_table(
        &format!("support-cache probes ({n} sorted candidates, 50% resident)"),
        &["config", "median_ms", "min_ms", "mean_ms"],
        &[t_get.cells(), t_merge.cells()],
    );
    let (get_med, merge_med) = (t_get.median.as_secs_f64(), t_merge.median.as_secs_f64());
    if merge_med > 0.0 {
        println!(
            "  range-merge speedup over per-candidate get: {:.2}x",
            get_med / merge_med
        );
    }
}

/// Storage/IO rows on a quest dataset of `n` transactions: text parse vs
/// FBIN full load vs FBIN streamed ingestion (chunks → sharded projector),
/// all from memory so only the format work is measured. Prints the encoded
/// sizes and the FBIN-load speedup over the text parse.
fn storage_io_rows(n: usize, warmup: usize, samples: usize, report: &mut Vec<BenchRow>) {
    let ds = generate(&QuestParams::default().with_transactions(n)).into_dataset();
    let mut text = Vec::new();
    write_dataset(&mut text, &ds).expect("serialize text");
    let fbin = to_fbin_bytes(&ds).expect("serialize fbin");

    let t_text = time_fn("text-parse", warmup, samples, || {
        read_dataset(Cursor::new(&text[..]), RebalancePolicy::LeafCopy).expect("parse text")
    });
    let t_load = time_fn("fbin-load", warmup, samples, || {
        read_fbin(&fbin[..]).expect("load fbin")
    });
    // The loaded paths above stop at the Dataset; the streamed path goes all
    // the way to a mining-ready view, so also time view construction on the
    // loaded side for an apples-to-apples "ready to mine" comparison.
    let t_load_view = time_fn("fbin-load+view", warmup, samples, || {
        let ds = read_fbin(&fbin[..]).expect("load fbin");
        MultiLevelView::build(&ds.db, &ds.taxonomy)
    });
    let t_stream = time_fn("fbin-stream+view/t1", warmup, samples, || {
        stream_view(FbinReader::new(&fbin[..]).expect("open fbin"), 1).expect("stream fbin")
    });
    let rows = [
        t_text.clone(),
        t_load.clone(),
        t_load_view.clone(),
        t_stream.clone(),
    ];
    for t in &rows {
        report.push(BenchRow::new(
            "storage_io",
            "quest",
            n,
            t.label.clone(),
            1,
            t.clone(),
        ));
    }
    print_table(
        &format!(
            "storage io (quest, N = {n}; text {} KiB, fbin {} KiB)",
            text.len() / 1024,
            fbin.len() / 1024
        ),
        &["config", "median_ms", "min_ms", "mean_ms"],
        &rows.iter().map(Timing::cells).collect::<Vec<_>>(),
    );
    let (t, f) = (t_text.median.as_secs_f64(), t_load.median.as_secs_f64());
    if f > 0.0 {
        println!("  fbin load speedup over text parse: {:.2}x", t / f);
    }
}

/// Lint-runtime row: one full `flipper-lint` workspace analysis (lex,
/// regions, per-file rules, plus the symbol-table/call-graph/crate-graph
/// pass) timed end-to-end on this workspace's own sources. Advisory: the
/// row warns above a 2 s median but never fails — the point is catching an
/// accidental quadratic in the analyzer before it slows every verify run.
fn lint_runtime_rows(warmup: usize, samples: usize, report: &mut Vec<BenchRow>) {
    let cwd = std::env::current_dir().expect("cwd");
    let Some(root) = flipper_lint::find_workspace_root(&cwd) else {
        println!("\n== lint runtime: no workspace root above the cwd, skipped");
        return;
    };
    let mut files = 0usize;
    let t = time_fn("lint-workspace", warmup, samples, || {
        let a = flipper_lint::analyze_workspace_full(&root).expect("workspace analyzes");
        files = a.report.files_scanned;
        a
    });
    report.push(BenchRow::new(
        "lint",
        "workspace",
        files,
        "analyze-full",
        1,
        t.clone(),
    ));
    print_table(
        &format!("lint runtime (workspace sources, {files} files)"),
        &["config", "median_ms", "min_ms", "mean_ms"],
        &[t.cells()],
    );
    let med = t.median.as_secs_f64();
    if med > 2.0 {
        println!("  advisory: lint median {med:.2} s exceeds the 2 s budget");
    }
}

/// Few-second CI smoke: the full engine × threads grid, the counting-kernel
/// comparison (naive vs prefix-cached vs cell-cached, with a built-in
/// bit-identity assertion), the sweep-seeding comparison, the
/// storage/IO rows and the lint-runtime row at toy scale. Any engine
/// regressing by an order of magnitude shows up immediately in the printed
/// medians; any mis-wired engine/thread combination, kernel divergence or
/// broken format round-trip panics the run.
fn run_smoke(report: &mut Vec<BenchRow>) {
    exec_layer_grid(300, 0, 1, report);
    counting_kernel_rows(300, 0, 1, report);
    // The sweep rows need enough transactions for scan counting to dominate
    // the per-point cost, or the seeded-vs-cold signal drowns in overhead.
    sweep_seeding_rows(800, 0, 1, report);
    obs_overhead_rows(300, 0, 3, report);
    guard_overhead_rows(300, 0, 3, report);
    seeding_probe_rows(0, 1, report);
    storage_io_rows(300, 0, 1, report);
    lint_runtime_rows(0, 1, report);
    println!("\nquickbench --smoke PASSED");
}

fn main() {
    let json_path = opt_from_args("--json");
    let mut report: Vec<BenchRow> = Vec::new();
    if flag_from_args("--smoke") {
        run_smoke(&mut report);
        finish_report(json_path, &report);
        return;
    }
    let scale = scale_from_args(0.2);
    let samples = samples_from_args();
    let warmup = 1;
    let headers = ["config", "median_ms", "min_ms", "mean_ms"];

    // Fig. 8(a) shape: variants across support profiles (quest).
    let n = (10_000.0 * scale).max(500.0) as usize;
    let data = generate(&QuestParams::default().with_transactions(n));
    let view = MultiLevelView::build(&data.db, &data.taxonomy);
    let profiles: [(&str, [f64; 4]); 3] = [
        ("thr1", [0.05, 0.05, 0.05, 0.05]),
        ("thr5", [0.01, 0.0005, 0.0001, 0.0001]),
        ("thr10", [0.001, 0.0001, 0.00006, 0.00003]),
    ];
    let mut rows: Vec<Timing> = Vec::new();
    for (name, thetas) in profiles {
        for pruning in PruningConfig::VARIANTS {
            let cfg = FlipperConfig::new(
                Thresholds::new(0.3, 0.1),
                MinSupports::Fractions(thetas.to_vec()),
            )
            .with_pruning(pruning);
            rows.push(time_fn(
                format!("{name}/{}", pruning.name()),
                warmup,
                samples,
                || mine_with_view(&data.taxonomy, &view, &cfg),
            ));
        }
    }
    print_table(
        &format!("fig8a shape (quest, N = {n})"),
        &headers,
        &rows.iter().map(Timing::cells).collect::<Vec<_>>(),
    );

    // Fig. 9 shape plus engine/measure ablations on the GROCERIES surrogate.
    let d = groceries(42);
    let view = MultiLevelView::build(&d.db, &d.taxonomy);
    let base = FlipperConfig::new(
        Thresholds::new(d.thresholds.0, d.thresholds.1),
        MinSupports::Fractions(d.min_support.clone()),
    );

    let mut rows: Vec<Timing> = Vec::new();
    for pruning in [PruningConfig::FLIPPING, PruningConfig::FULL] {
        let cfg = base.clone().with_pruning(pruning);
        rows.push(time_fn(
            format!("fig9/{}", pruning.name()),
            warmup,
            samples,
            || mine_with_view(&d.taxonomy, &view, &cfg),
        ));
    }
    for (name, engine) in [
        ("tidset", CountingEngine::Tidset),
        ("scan", CountingEngine::Scan),
        ("bitset", CountingEngine::Bitset),
    ] {
        let cfg = base.clone().with_engine(engine);
        rows.push(time_fn(format!("counting/{name}"), warmup, samples, || {
            mine_with_view(&d.taxonomy, &view, &cfg)
        }));
    }
    for measure in Measure::ALL {
        let cfg = base.clone().with_measure(measure);
        rows.push(time_fn(
            format!("measure/{measure}"),
            warmup,
            samples,
            || mine_with_view(&d.taxonomy, &view, &cfg),
        ));
    }
    print_table(
        "fig9 + ablations (GROCERIES surrogate)",
        &headers,
        &rows.iter().map(Timing::cells).collect::<Vec<_>>(),
    );

    // The execution-layer grid the ROADMAP's scaling items track: engine ×
    // threads on quest N = 1000.
    exec_layer_grid(1000, warmup, samples, &mut report);

    // Counting kernels: prefix-cached vs naive on the k=3-heavy leaf batch.
    counting_kernel_rows(1000, warmup, samples, &mut report);

    // Sweep seeding: cold vs support-cache-seeded γ/ε grids.
    sweep_seeding_rows(1000, warmup, samples, &mut report);

    // Observability: recorder-off vs recorder-on medians for the same mine.
    obs_overhead_rows(1000, warmup, samples, &mut report);

    // Guard: unguarded vs inert-token guarded medians for the same mine.
    guard_overhead_rows(1000, warmup, samples, &mut report);

    // Support-cache probes: per-candidate get vs sorted-batch range-merge.
    seeding_probe_rows(warmup, samples, &mut report);

    // Storage/IO: text parse vs FBIN load vs streamed ingestion, N = 1000.
    storage_io_rows(1000, warmup, samples, &mut report);

    // Static analysis: one full flipper-lint workspace pass.
    lint_runtime_rows(warmup, samples, &mut report);

    finish_report(json_path, &report);
}

/// Write the collected rows when `--json <path>` was requested.
fn finish_report(json_path: Option<String>, report: &[BenchRow]) {
    if let Some(path) = json_path {
        write_report(&path, report).expect("write bench report");
        println!("\nwrote {} bench rows to {path}", report.len());
    }
}
