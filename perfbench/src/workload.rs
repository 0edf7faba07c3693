//! The four workloads: their inputs, configurations, references and op.

use flipper_api::{
    CountingEngine, Dataset, FlipperConfig, JsonWriter, Measure, MinSupports, PruningConfig,
    QuestParams, ResultSink, RunStats, Session, Thresholds,
};
use flipper_datagen::{quest, surrogate};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Quest N=100 000, paper defaults, `full`, 1 thread: file → results.
    QuestFull,
    /// The same file with the `basic` baseline at 2 threads.
    QuestBasicT2,
    /// MEDLINE surrogate at scale 1.0 (640 000 citations), Table-4
    /// thresholds: ingest-dominated.
    MedlineIngest,
    /// Four seeded mines over one open quest session (γ × ε grid).
    QuestExplore,
}

/// The paper's §5.1 per-level minimum supports (also the library default).
const QUEST_MINSUP: [f64; 4] = [0.01, 0.001, 0.0005, 0.0001];
/// The γ × ε grid of `quest-explore`, in op order.
const EXPLORE_GRID: [(f64, f64); 4] = [(0.4, 0.25), (0.4, 0.1), (0.3, 0.25), (0.3, 0.1)];

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::QuestFull,
        Workload::QuestBasicT2,
        Workload::MedlineIngest,
        Workload::QuestExplore,
    ];

    /// The workload's `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::QuestFull => "quest-full",
            Workload::QuestBasicT2 => "quest-basic-t2",
            Workload::MedlineIngest => "medline-ingest",
            Workload::QuestExplore => "quest-explore",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generated inputs per run. Datasets from different generator seeds
    /// differ in mining cost by 10–30 %, so each run cycles over several
    /// and its medians do not hinge on one draw. The two workloads whose
    /// references (and, for `quest-explore`, resident sessions) cost most
    /// use fewer.
    pub fn inputs(self) -> usize {
        match self {
            Workload::QuestFull | Workload::MedlineIngest => 8,
            Workload::QuestBasicT2 | Workload::QuestExplore => 6,
        }
    }

    /// Does the session open belong to set-up (one session serves every
    /// op) rather than to each op?
    pub fn opens_in_setup(self) -> bool {
        self == Workload::QuestExplore
    }

    /// The labeled configurations one op mines, in order.
    pub fn configs(self) -> Vec<(String, FlipperConfig)> {
        let quest = |gamma, epsilon, pruning, threads| FlipperConfig {
            thresholds: Thresholds::new(gamma, epsilon),
            min_support: MinSupports::Fractions(QUEST_MINSUP.to_vec()),
            measure: Measure::Kulczynski,
            pruning,
            threads,
            ..Default::default()
        };
        match self {
            Workload::QuestFull => {
                vec![(self.name().into(), quest(0.3, 0.1, PruningConfig::FULL, 1))]
            }
            Workload::QuestBasicT2 => {
                vec![(self.name().into(), quest(0.3, 0.1, PruningConfig::BASIC, 2))]
            }
            Workload::MedlineIngest => vec![(
                self.name().into(),
                FlipperConfig {
                    thresholds: Thresholds::new(0.40, 0.10),
                    min_support: MinSupports::Fractions(vec![0.001, 0.0005, 0.0001]),
                    measure: Measure::Kulczynski,
                    ..Default::default()
                },
            )],
            Workload::QuestExplore => EXPLORE_GRID
                .iter()
                .map(|&(g, e)| (format!("g{g}-e{e}"), quest(g, e, PruningConfig::FULL, 1)))
                .collect(),
        }
    }

    /// Generate the workload's dataset from `seed`, with the leaf-name
    /// pairs every result must contain (the MEDLINE planted flips).
    pub fn generate(self, seed: u64) -> (Dataset, Vec<(String, String)>) {
        match self {
            Workload::MedlineIngest => {
                let data = surrogate::medline(1.0, seed);
                let flips = data.expected_flips.clone();
                (data.into_dataset(), flips)
            }
            _ => {
                let params = QuestParams::default().with_seed(seed);
                (quest::generate(&params).into_dataset(), Vec::new())
            }
        }
    }
}

/// Files a prepared workload lives in: per input `j`, its FBIN dataset,
/// one reference document per configuration, and a metadata file.
#[derive(Debug, Clone)]
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// The FBIN dataset of input `j`.
    pub fn dataset(&self, j: usize) -> PathBuf {
        self.0.join(format!("dataset-{j}.fbin"))
    }
    /// The reference `flipper-results/v1` bytes of input `j`, configuration `i`.
    pub fn reference(&self, j: usize, i: usize) -> PathBuf {
        self.0.join(format!("reference-{j}-{i}.json"))
    }
    /// Input `j`'s transaction count and required leaf pairs, as
    /// `transactions<TAB>n` and `flip<TAB>a<TAB>b` lines.
    pub fn meta(&self, j: usize) -> PathBuf {
        self.0.join(format!("input-{j}.tsv"))
    }
}

/// What set-up learns about an input while generating it.
#[derive(Debug, Clone, Default)]
pub struct InputMeta {
    /// Number of transactions.
    pub transactions: usize,
    /// Leaf pairs every result must contain.
    pub flips: Vec<(String, String)>,
}

/// Generate, encode and write every input of the run.
pub fn write_inputs(w: Workload, seed: u64, dir: &WorkDir) -> Result<Vec<InputMeta>, String> {
    let mut metas = Vec::with_capacity(w.inputs());
    for j in 0..w.inputs() {
        let (ds, flips) = w.generate(input_seed(seed, j));
        let bytes = flipper_store::to_fbin_bytes(&ds).map_err(|e| format!("encode: {e}"))?;
        write(&dir.dataset(j), &bytes)?;
        metas.push(InputMeta {
            transactions: ds.db.len(),
            flips,
        });
    }
    Ok(metas)
}

/// The generator seed of input `j` of a run with benchmark seed `seed`.
fn input_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(j as u64)
}

/// Serialize one run as a `flipper-results/v1` document.
pub fn emit(
    label: &str,
    session: &Session,
    cfg: &FlipperConfig,
    result: &flipper_api::MiningResult,
) -> Result<Vec<u8>, String> {
    let mut json = JsonWriter::new(Vec::new());
    json.consume(label, session.taxonomy(), cfg, result)
        .and_then(|()| json.finish())
        .map_err(|e| format!("emit {label}: {e}"))?;
    Ok(json.into_inner())
}

/// Compute every input's reference documents with the independent `bitset`
/// engine, one unseeded single-threaded `Session::mine` per configuration,
/// and write them with the input's metadata next to its dataset. Inputs
/// are spread over up to two worker threads (the references are not timed).
pub fn write_references(w: Workload, dir: &WorkDir, metas: &[InputMeta]) -> Result<(), String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|first| {
                scope.spawn(move || -> Result<(), String> {
                    for j in (first..metas.len()).step_by(workers) {
                        write_input_references(w, dir, j, &metas[j])?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| {
            h.join()
                .map_err(|_| "reference worker panicked".to_string())?
        })
    })
}

fn write_input_references(
    w: Workload,
    dir: &WorkDir,
    j: usize,
    meta: &InputMeta,
) -> Result<(), String> {
    let session = Session::open_path(dir.dataset(j)).map_err(|e| format!("open: {e}"))?;
    for (i, (label, cfg)) in w.configs().into_iter().enumerate() {
        let cfg = FlipperConfig {
            engine: CountingEngine::Bitset,
            threads: 1,
            ..cfg
        };
        let result = session
            .mine(&cfg)
            .map_err(|e| format!("mine {label}: {e}"))?;
        write(
            &dir.reference(j, i),
            &emit(&label, &session, &cfg, &result)?,
        )?;
    }
    let mut tsv = format!("transactions\t{}\n", meta.transactions);
    for (a, b) in &meta.flips {
        tsv.push_str(&format!("flip\t{a}\t{b}\n"));
    }
    write(&dir.meta(j), tsv.as_bytes())
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
}

/// One input of a run, ready to be mined and checked.
pub struct Input {
    /// The FBIN dataset path.
    pub dataset: PathBuf,
    /// What set-up recorded about it.
    pub meta: InputMeta,
    /// Reference document per configuration.
    pub references: Vec<Vec<u8>>,
    /// The set-up session, for workloads that open it once.
    pub session: Option<Session>,
}

/// What the measuring process needs to run and check ops.
pub struct Prepared {
    /// Labeled configurations, in op order.
    pub configs: Vec<(String, FlipperConfig)>,
    /// The run's inputs; op `n` uses input `n mod inputs.len()`.
    pub inputs: Vec<Input>,
}

impl Prepared {
    /// Load a prepared work directory. For a workload that keeps its
    /// session, opens one per input and returns the open times.
    pub fn load(w: Workload, dir: &WorkDir) -> Result<(Prepared, Vec<f64>), String> {
        let configs = w.configs();
        let mut inputs = Vec::with_capacity(w.inputs());
        let mut open_s = Vec::new();
        for j in 0..w.inputs() {
            let references = (0..configs.len())
                .map(|i| {
                    let p = dir.reference(j, i);
                    std::fs::read(&p).map_err(|e| format!("read {}: {e}", p.display()))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let text = std::fs::read_to_string(dir.meta(j))
                .map_err(|e| format!("read input metadata: {e}"))?;
            let mut meta = InputMeta::default();
            for line in text.lines() {
                match line.split('\t').collect::<Vec<_>>()[..] {
                    ["transactions", n] => {
                        meta.transactions = n.parse().map_err(|e| format!("metadata: {e}"))?
                    }
                    ["flip", a, b] => meta.flips.push((a.to_string(), b.to_string())),
                    _ => return Err(format!("bad metadata line {line:?}")),
                }
            }
            let session = if w.opens_in_setup() {
                let t = Instant::now();
                let s = Session::open_path(dir.dataset(j)).map_err(|e| format!("open: {e}"))?;
                open_s.push(t.elapsed().as_secs_f64());
                Some(s)
            } else {
                None
            };
            inputs.push(Input {
                dataset: dir.dataset(j),
                meta,
                references,
                session,
            });
        }
        Ok((Prepared { configs, inputs }, open_s))
    }
}

/// What one op produced.
#[derive(Debug, Default)]
pub struct OpRun {
    /// Wall time of the op, seconds.
    pub elapsed_s: f64,
    /// Results document per configuration.
    pub documents: Vec<Vec<u8>>,
    /// Run statistics per configuration.
    pub stats: Vec<RunStats>,
    /// Leaf-name sets of every pattern found, per configuration.
    pub leaf_sets: Vec<Vec<Vec<String>>>,
    /// `api.open` time (0 when the session is opened in set-up).
    pub open_s: f64,
    /// `sink.emit` time, summed over configurations.
    pub emit_s: f64,
    /// Support-cache lookups and hits during the op (deltas).
    pub seed_lookups: u64,
    /// See [`OpRun::seed_lookups`].
    pub seed_hits: u64,
    /// Support-cache size after the op.
    pub seed_cache_len: u64,
}

/// Run one op: file → session → mine → results bytes, or — for a workload
/// with a set-up session — reset its support cache and run every grid
/// point seeded. Benchmark spans (`bench.op` around the op, `api.open`,
/// `core.mine`, `sink.emit` around the calls) record only while the
/// `flipper-obs` recorder is enabled; they carry `op_id` as their label.
pub fn run_op(
    configs: &[(String, FlipperConfig)],
    input: &Input,
    op_id: &str,
) -> Result<OpRun, String> {
    let mut run = OpRun::default();
    let t = Instant::now();
    let root = flipper_obs::span_labeled("bench.op", op_id);
    let owned;
    let session = match &input.session {
        Some(s) => s,
        None => {
            let _s = flipper_obs::span_labeled("api.open", op_id);
            let t_open = Instant::now();
            owned = Session::open_path(&input.dataset).map_err(|e| format!("open: {e}"))?;
            run.open_s = t_open.elapsed().as_secs_f64();
            &owned
        }
    };
    let seeded = input.session.is_some();
    if seeded {
        session.clear_support_cache();
    }
    let before = session.support_cache_stats();
    let mut results = Vec::with_capacity(configs.len());
    for (label, cfg) in configs {
        let result = {
            let _s = flipper_obs::span_labeled("core.mine", op_id);
            if seeded {
                session.mine_seeded(cfg)
            } else {
                session.mine(cfg)
            }
            .map_err(|e| format!("mine {label}: {e}"))?
        };
        let doc = {
            let _s = flipper_obs::span_labeled("sink.emit", op_id);
            let t_emit = Instant::now();
            let doc = emit(label, session, cfg, &result)?;
            run.emit_s += t_emit.elapsed().as_secs_f64();
            doc
        };
        run.documents.push(doc);
        results.push(result);
    }
    drop(root);
    run.elapsed_s = t.elapsed().as_secs_f64();

    let after = session.support_cache_stats();
    run.seed_lookups = after.seed_lookups - before.seed_lookups;
    run.seed_hits = after.seed_hits - before.seed_hits;
    run.seed_cache_len = session.support_cache_len() as u64;
    let tax = session.taxonomy();
    for result in &results {
        run.stats.push(result.stats);
        run.leaf_sets.push(
            result
                .patterns
                .iter()
                .map(|pat| {
                    pat.leaf_itemset
                        .items()
                        .iter()
                        .map(|&n| tax.name(n).to_string())
                        .collect()
                })
                .collect(),
        );
    }
    Ok(run)
}

/// Check an op's output: every document byte-identical to its reference,
/// and every required leaf pair among each configuration's patterns.
pub fn check(
    configs: &[(String, FlipperConfig)],
    input: &Input,
    run: &OpRun,
) -> Result<(), String> {
    if run.documents.len() != input.references.len() {
        return Err(format!(
            "{} documents for {} configurations",
            run.documents.len(),
            input.references.len()
        ));
    }
    for (i, (doc, reference)) in run.documents.iter().zip(&input.references).enumerate() {
        if doc != reference {
            let at = doc
                .iter()
                .zip(reference)
                .position(|(a, b)| a != b)
                .unwrap_or(doc.len().min(reference.len()));
            return Err(format!(
                "{}: results differ from the bitset reference at byte {at} \
                 ({} vs {} bytes)",
                configs[i].0,
                doc.len(),
                reference.len()
            ));
        }
    }
    for (i, sets) in run.leaf_sets.iter().enumerate() {
        for (a, b) in &input.meta.flips {
            let found = sets
                .iter()
                .any(|s| s.len() == 2 && s.contains(a) && s.contains(b));
            if !found {
                return Err(format!(
                    "{}: planted flip {{{a}, {b}}} missing",
                    configs[i].0
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flipper_api::PlantedParams;

    /// A small input over the planted generator, with its reference
    /// computed the way set-up computes it.
    fn planted(dir: &Path) -> (Vec<(String, FlipperConfig)>, Input) {
        let ds = flipper_api::Generator::Planted(PlantedParams::default()).dataset();
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join("planted.fbin");
        write(&path, &flipper_store::to_fbin_bytes(&ds).unwrap()).unwrap();
        let cfg = FlipperConfig {
            thresholds: Thresholds::new(0.6, 0.35),
            min_support: MinSupports::Counts(vec![5]),
            ..Default::default()
        };
        let session = Session::open_path(&path).unwrap();
        let bitset = FlipperConfig {
            engine: CountingEngine::Bitset,
            ..cfg.clone()
        };
        let reference = emit(
            "planted",
            &session,
            &bitset,
            &session.mine(&bitset).unwrap(),
        )
        .unwrap();
        let input = Input {
            dataset: path,
            meta: InputMeta {
                transactions: ds.db.len(),
                flips: Vec::new(),
            },
            references: vec![reference],
            session: None,
        };
        (vec![("planted".into(), cfg)], input)
    }

    #[test]
    fn correct_op_passes_and_corrupted_byte_fails() {
        let dir =
            std::env::temp_dir().join(format!("flipper-perfbench-test-{}", std::process::id()));
        let (configs, mut input) = planted(&dir);
        let run = run_op(&configs, &input, "op-0").unwrap();
        assert!(!run.documents[0].is_empty());
        check(&configs, &input, &run).unwrap();

        // One flipped byte anywhere in the results is a failed op.
        let mut bad = run.documents[0].clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        let tampered = OpRun {
            documents: vec![bad],
            ..run
        };
        let err = check(&configs, &input, &tampered).unwrap_err();
        assert!(err.contains(&format!("byte {mid}")), "{err}");

        // So is a missing required pair.
        input.meta.flips = vec![("no-such".into(), "leaf".into())];
        let run = run_op(&configs, &input, "op-1").unwrap();
        assert!(check(&configs, &input, &run)
            .unwrap_err()
            .contains("missing"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::report::valid_name(w.name()));
            assert!(w.configs().iter().all(|(_, c)| c.validate().is_ok()));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(Workload::QuestExplore.configs().len(), 4);
    }
}
