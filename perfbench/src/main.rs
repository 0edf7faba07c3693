//! `flipper-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Set-up generates the run's input datasets from `--seed`, encodes them
//! as FBIN into a work directory under `.perfbench-work/` in the current
//! directory, and computes reference results with the independent `bitset`
//! engine. It then re-runs this executable as a measuring child process —
//! so `peak_rss_mb` is the high-water mark of the ops alone — which runs
//! ops in a closed loop with one client for `--seconds` seconds and checks
//! every op's output. The last stdout line is the JSON result; the
//! workloads, metrics and predictions are described in `README.md`.

mod profile;
mod report;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{check, run_op, OpRun, Prepared, WorkDir, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The loop keeps going past `--seconds` until this many ops succeeded,
/// so the tail percentile (ten ops beyond it) always exists.
const MIN_OPS: usize = stats::TAIL_BEYOND + 1;
/// A traced run alternates traced and untraced ops and needs at least
/// this many of each (the tail is not reported there).
const MIN_TRACED_OPS: usize = 3;
/// Failure reasons printed per run before going quiet.
const MAX_REPORTED_FAILURES: u64 = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// Set in the measuring child: the prepared work directory.
    child: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("--{k} is required"));
    let workload = get("workload")?;
    let workload = Workload::parse(workload).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload {workload:?} (one of {})",
            names.join(", ")
        )
    })?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let traced = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    for key in flags.keys() {
        if !["workload", "seed", "seconds", "trace", "child"].contains(&key.as_str()) {
            return Err(format!("unknown flag --{key}"));
        }
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
        child: flags.get("child").map(PathBuf::from),
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match &args.child {
        Some(dir) => measure(&args, &WorkDir(dir.clone())),
        None => run(&args),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Removes the work directory however the run ends.
struct Cleanup(PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The parent: set up, spawn the measuring child, print the result line.
fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let cwd = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    let dir = cwd.join(".perfbench-work").join(format!(
        "{}-{}-{}",
        w.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let _cleanup = Cleanup(dir.clone());
    let wd = WorkDir(dir);

    // Set-up: generate, encode and write every input — and open it, where
    // the session is part of set-up. Repeated so `setup_s` is a median.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut metas = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        metas = workload::write_inputs(w, args.seed, &wd)?;
        if w.opens_in_setup() {
            for j in 0..metas.len() {
                flipper_api::Session::open_path(wd.dataset(j)).map_err(|e| format!("open: {e}"))?;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    workload::write_references(w, &wd, &metas)?;
    eprintln!(
        "perfbench: {} inputs set up in {:.3} s each time; references took {:.3} s",
        metas.len(),
        stats::median(&setup_s).unwrap_or(f64::NAN),
        t.elapsed().as_secs_f64()
    );

    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = Command::new(exe)
        .arg("--child")
        .arg(&wd.0)
        .args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn measuring process: {e}"))?;
    if !out.status.success() {
        return Err(format!("measuring process failed: {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))?;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut values = BTreeMap::new();
    for line in text.lines() {
        let mut parts = line.splitn(3, ' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("ops"), Some(a), Some(f)) => {
                attempted = a.parse().map_err(|e| format!("ops line {line:?}: {e}"))?;
                failed = f.parse().map_err(|e| format!("ops line {line:?}: {e}"))?;
            }
            (Some("metric"), Some(name), Some(v)) => {
                let v: f64 = v
                    .parse()
                    .map_err(|e| format!("metric line {line:?}: {e}"))?;
                values.insert(name.to_string(), v);
            }
            _ => println!("{line}"),
        }
    }
    if attempted == 0 {
        return Err("measuring process reported no ops".into());
    }
    let setup = stats::median(&setup_s).ok_or("no set-up samples")?;
    values.insert("setup_s".into(), setup);
    println!(
        "{} seed {}: set-up {:.3} s (median of {SETUP_REPS}); {attempted} ops, {failed} failed, \
         fail_ratio {}",
        w.name(),
        args.seed,
        setup,
        failed as f64 / attempted as f64
    );
    let specs = report::catalog(args.traced);
    let line = report::render(failed == 0, attempted, failed, specs, &values)?;
    println!("{line}");
    Ok(())
}

/// Run one op on input `j`, isolating panics; `Err` carries the failure
/// reason.
fn attempt(p: &Prepared, j: usize, op_id: &str) -> Result<OpRun, String> {
    let input = &p.inputs[j];
    let run = catch_unwind(AssertUnwindSafe(|| run_op(&p.configs, input, op_id)))
        .map_err(|_| "op panicked".to_string())??;
    check(&p.configs, input, &run)?;
    Ok(run)
}

/// Tallies failed ops, printing the first few reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, op: Result<OpRun, String>) -> Option<OpRun> {
        self.attempted += 1;
        match op {
            Ok(run) => Some(run),
            Err(reason) => {
                self.failed += 1;
                if self.failed <= MAX_REPORTED_FAILURES {
                    eprintln!("perfbench: op {} failed: {reason}", self.attempted);
                }
                None
            }
        }
    }
}

/// The measuring child: load the prepared work directory, run the closed
/// loop, print `ops` / `metric` lines for the parent.
fn measure(args: &Args, wd: &WorkDir) -> Result<(), String> {
    let (p, setup_open_s) = Prepared::load(args.workload, wd)?;
    let k = p.inputs.len();
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut tally = Tally::default();
    let start = Instant::now();
    // Stop after `--seconds` once at least `min` ops succeeded and the
    // inputs had whole passes, so every input weighs the same. A run with
    // failed ops is incorrect anyway and stops at `--seconds`.
    let done = |ok: usize, min: usize, whole_passes: bool, failed: u64| {
        start.elapsed().as_secs_f64() >= args.seconds && (failed > 0 || (ok >= min && whole_passes))
    };

    if !args.traced {
        let mut times = Vec::new();
        let mut txns = Vec::new();
        let mut per_input = vec![Vec::new(); k];
        while !done(
            times.len(),
            MIN_OPS,
            (tally.attempted as usize).is_multiple_of(k),
            tally.failed,
        ) {
            let j = tally.attempted as usize % k;
            let op_id = format!("op-{}", tally.attempted);
            if let Some(run) = tally.record(attempt(&p, j, &op_id)) {
                times.push(run.elapsed_s);
                per_input[j].push(run.elapsed_s);
                txns.push((p.inputs[j].meta.transactions * p.configs.len()) as f64);
            }
        }
        let p50 = stats::median(&times).ok_or("no op succeeded")?;
        // Fewer than 11 ok ops happen only in a run with failures; its
        // tail is then the slowest op.
        let (pct, tail) =
            stats::tail(&times).unwrap_or((100.0, times.iter().copied().fold(f64::MIN, f64::max)));
        println!(
            "{}: {} ok ops over {k} inputs in {:.1} s; job_s_p50 {p50:.4} s; job_s_tail is \
             p{pct:.1} ({} ops beyond it) {tail:.4} s",
            args.workload.name(),
            times.len(),
            start.elapsed().as_secs_f64(),
            stats::TAIL_BEYOND
        );
        let per_input: Vec<String> = per_input
            .iter()
            .map(|xs| format!("{:.4}", stats::median(xs).unwrap_or(f64::NAN)))
            .collect();
        println!("median op time per input (s): {}", per_input.join(" "));
        if let Some(session) = &p.inputs[0].session {
            let c = session.support_cache_stats();
            println!(
                "input 0 support-cache counters after {} ops, each after \
                 clear_support_cache: seed_lookups {}, seed_hits {}",
                tally.attempted.div_ceil(k as u64),
                c.seed_lookups,
                c.seed_hits
            );
        }
        out.insert("job_s_p50", p50);
        out.insert("job_s_tail", tail);
        let mean_txns = txns.iter().sum::<f64>() / txns.len() as f64;
        out.insert("txn_per_s", mean_txns / p50);
        out.insert("peak_rss_mb", peak_rss_mb()?);
        out.insert(
            "ok_ratio",
            (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
        );
    } else {
        traced_loop(args, &p, &setup_open_s, &mut tally, &mut out, &done)?;
    }
    println!("ops {} {}", tally.attempted, tally.failed);
    for (name, v) in out {
        println!("metric {name} {v}");
    }
    Ok(())
}

/// Per-op samples of a traced run, keyed by metric name.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }
    fn median(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .and_then(|xs| stats::median(xs))
            .unwrap_or(f64::NAN)
    }
}

/// Run ops in pairs on the same input, one traced and one untraced (the
/// order alternating); traced ops also run the `store.read` and
/// `data.view_build` probes after the op.
fn traced_loop(
    args: &Args,
    p: &Prepared,
    setup_open_s: &[f64],
    tally: &mut Tally,
    out: &mut BTreeMap<&'static str, f64>,
    done: &dyn Fn(usize, usize, bool, u64) -> bool,
) -> Result<(), String> {
    let mut s = Samples::default();
    let mut untraced = Vec::new();
    let mut traced_wall = Vec::new();
    let mut traced_ok = 0usize;
    let mut pair = 0usize;
    while !done(
        traced_ok.min(untraced.len()),
        MIN_TRACED_OPS,
        pair.is_multiple_of(p.inputs.len()),
        tally.failed,
    ) {
        let j = pair % p.inputs.len();
        let traced_first = pair.is_multiple_of(2);
        pair += 1;
        if !traced_first {
            untraced_op(p, j, tally, &mut untraced);
        }
        let op_id = format!("op-{}", tally.attempted);
        flipper_obs::enable();
        drop(flipper_obs::drain());
        let op = attempt(p, j, &op_id);
        let (read_s, build_s) = probes(&p.inputs[j], &op_id)?;
        let t_drain = Instant::now();
        let capture = flipper_obs::drain();
        let drain_s = t_drain.elapsed().as_secs_f64();
        flipper_obs::disable();
        let traced = tally.record(op);
        if traced_first {
            untraced_op(p, j, tally, &mut untraced);
        }
        let Some(run) = traced else {
            continue;
        };
        let prof = profile::profile(&capture.events)?;
        traced_ok += 1;
        s.push("trace.job_s_p50", prof.job_s);
        traced_wall.push(run.elapsed_s);
        s.push("obs.drain_s", drain_s);
        s.push("obs.events_per_op", prof.events as f64);
        for (span, v) in &prof.self_s {
            s.push(self_metric(span), *v);
        }
        let incl = |name: &str| prof.inclusive_s.get(name).copied().unwrap_or(0.0);
        let (gen, count, seed) = (incl("mine.gen"), incl("mine.count"), incl("mine.seed"));
        let mine = incl("core.mine");
        s.push("core.mine_s", mine);
        s.push("core.gen_s", gen);
        s.push("core.count_s", count - seed);
        s.push("core.seed_s", seed);
        s.push("core.extract_s", mine - gen - count);
        s.push("exec.shards", prof.shards as f64);
        s.push("exec.shard_busy_s", prof.shard_busy_s);
        s.push("exec.shard_skew", prof.shard_skew);
        let bytes = std::fs::metadata(&p.inputs[j].dataset)
            .map_err(|e| format!("stat dataset: {e}"))?
            .len();
        s.push(
            "store.bytes_per_txn",
            bytes as f64 / p.inputs[j].meta.transactions as f64,
        );
        s.push("store.read_s", read_s);
        s.push("data.view_build_s", build_s);
        let open_s = match p.inputs[j].session {
            Some(_) => setup_open_s[j],
            None => run.open_s,
        };
        s.push("api.open_s", open_s);
        s.push("sink.emit_s", run.emit_s);
        s.push(
            "sink.bytes",
            run.documents.iter().map(Vec::len).sum::<usize>() as f64,
        );
        push_counters(&mut s, &run);
    }
    let names: Vec<&'static str> = s.0.keys().copied().collect();
    for name in names {
        out.insert(name, s.median(name));
    }
    let job = s.median("trace.job_s_p50");
    let self_sum: f64 = report::SELF_SPANS
        .iter()
        .map(|span| s.median(self_metric(span)))
        .sum();
    out.insert("trace.self_coverage", self_sum / job);
    let wall_p50 = |xs: &[f64]| stats::median(xs).unwrap_or(f64::NAN);
    out.insert(
        "obs.overhead_ratio",
        wall_p50(&traced_wall) / wall_p50(&untraced) - 1.0,
    );
    println!(
        "{}: {traced_ok} traced + {} untraced ok ops; span self times sum to {:.4} of the \
         traced job_s_p50; obs overhead {:+.4}",
        args.workload.name(),
        untraced.len(),
        self_sum / job,
        out["obs.overhead_ratio"]
    );
    Ok(())
}

/// One untraced op on input `j`, its wall time collected on success.
fn untraced_op(p: &Prepared, j: usize, tally: &mut Tally, times: &mut Vec<f64>) {
    let op_id = format!("op-{}", tally.attempted);
    if let Some(run) = tally.record(attempt(p, j, &op_id)) {
        times.push(run.elapsed_s);
    }
}

/// `self.<span>_s`, as a static name from the catalog.
fn self_metric(span: &str) -> &'static str {
    report::PER_LAYER
        .iter()
        .map(|s| s.name)
        .find(|n| n.strip_prefix("self.").and_then(|r| r.strip_suffix("_s")) == Some(span))
        .unwrap_or("self.other_s")
}

/// Counters from the public `RunStats` (summed over an op's
/// configurations; resident bytes and peak itemsets take the maximum) and
/// the support-cache deltas.
fn push_counters(s: &mut Samples, run: &OpRun) {
    let sum = |f: &dyn Fn(&flipper_api::RunStats) -> u64| -> f64 {
        run.stats.iter().map(f).sum::<u64>() as f64
    };
    let max = |f: &dyn Fn(&flipper_api::RunStats) -> u64| -> f64 {
        run.stats.iter().map(f).max().unwrap_or(0) as f64
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let generated = sum(&|r| r.candidates_generated);
    let frequent = sum(&|r| r.frequent_found);
    s.push("core.candidates_generated", generated);
    s.push("core.frequent_found", frequent);
    s.push("core.useful_ratio", ratio(frequent, generated));
    s.push(
        "core.peak_resident_itemsets",
        max(&|r| r.peak_resident_itemsets),
    );
    s.push("core.cells", sum(&|r| r.cells_evaluated));
    let counted = sum(&|r| r.counter.candidates_counted);
    s.push("count.candidates_counted", counted);
    s.push("count.intersections", sum(&|r| r.counter.intersections));
    s.push(
        "count.prefix_reuse_ratio",
        ratio(sum(&|r| r.counter.prefix_reuses), counted),
    );
    let lookups = sum(&|r| r.cache.lookups);
    let hits = sum(&|r| r.cache.exact_hits + r.cache.parent_hits);
    s.push("cellcache.lookups", lookups);
    s.push("cellcache.hit_ratio", ratio(hits, lookups));
    s.push("cellcache.bytes_resident", max(&|r| r.cache.bytes_resident));
    s.push("cellcache.evicted_cells", sum(&|r| r.cache.evicted_cells));
    s.push("seed.lookups", run.seed_lookups as f64);
    s.push(
        "seed.hit_ratio",
        ratio(run.seed_hits as f64, run.seed_lookups as f64),
    );
    s.push("seed.cache_len", run.seed_cache_len as f64);
}

/// The ingest probes: `read_fbin` of the dataset file, then
/// `MultiLevelView::build` over what it read, each under a benchmark span.
fn probes(input: &workload::Input, op_id: &str) -> Result<(f64, f64), String> {
    let _probe = flipper_obs::span_labeled("bench.probe", op_id);
    let t = Instant::now();
    let ds = {
        let _s = flipper_obs::span_labeled("store.read", op_id);
        let file = std::fs::File::open(&input.dataset).map_err(|e| format!("open dataset: {e}"))?;
        flipper_store::read_fbin(std::io::BufReader::new(file))
            .map_err(|e| format!("read_fbin: {e}"))?
    };
    let read_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let view = {
        let _s = flipper_obs::span_labeled("data.view_build", op_id);
        flipper_data::MultiLevelView::build(&ds.db, &ds.taxonomy)
    };
    let build_s = t.elapsed().as_secs_f64();
    drop(std::hint::black_box(view));
    Ok((read_s, build_s))
}

/// The process's resident-set high-water mark (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("read status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}
