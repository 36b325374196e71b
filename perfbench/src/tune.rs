//! The `tune` workload and the served cell's setup tuning: the DiffTune
//! pipeline (generate → fit → optimize) through the public session API.
//!
//! The pipeline configuration is fixed here, not taken from `Scale`, so that
//! retuning the repository's scales cannot move the benchmark: the paper's
//! LSTM surrogate at the small scale's width, trained on a reduced sample
//! count for one epoch, then one table epoch.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use difftune::{
    DiffTuneBuilder, DiffTuneConfig, DiffTuneResult, SimulatorKind, SpecKind, SurrogateKind,
};
use difftune_bench::matrix::CellKey;
use difftune_bench::pairs;
use difftune_bench::record::{fingerprint_table, fnv1a, MatrixRecord, MATRIX_SCHEMA};
use difftune_bhive::{metrics, CorpusConfig, Dataset};
use difftune_cpu::{default_params, Microarch};
use difftune_isa::BasicBlock;
use difftune_sim::{McaSimulator, SimParams, Simulator};
use difftune_surrogate::train::TrainConfig;
use difftune_surrogate::{IthemalConfig, SurrogateArtifact, SurrogateForward};

use crate::host;
use crate::stats::{best_half, median, quantile, undisturbed};
use crate::{Args, Outcome};

/// Corpus size: the small scale's Haswell corpus.
const CORPUS_BLOCKS: usize = 4_000;
/// Training blocks tuned against: the first blocks of the corpus's
/// training split, so one pass is short enough to repeat within a run.
const TRAIN_BLOCKS: usize = 1_000;
/// Simulated samples the generate stage produces (the reduced count).
const SIMULATED_SAMPLES: usize = 600;
/// Surrogate-training epochs over the simulated samples.
const FIT_EPOCHS: usize = 1;
/// Parameter-table epochs over the training blocks.
const TABLE_EPOCHS: usize = 1;
/// Worker threads for generation and training.
const THREADS: usize = 2;
/// Corpus builds per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// A pass during which the host took more than this share of the machine's
/// CPU is left out of the metrics (see `stats::undisturbed`).
const STEAL_LIMIT: f64 = 0.05;
/// Pipeline seeds each run cycles through.
const SEEDS_PER_RUN: usize = 4;
/// Seed of the corpus. The corpus is a fixed dataset, as BHive is in the
/// paper; the run's seed drives the pipeline's own randomness (sampled
/// tables, shuffles, initial weights).
const CORPUS_SEED: u64 = 0;
/// The cell every serving workload tunes at setup and then serves.
pub const CELL: &str = "mca:haswell:llvm_mca";

/// Identifies everything that shapes a tuned table or a served cell, for
/// keying what is kept across runs: the fixed configuration, and the code,
/// as the contents of this benchmark's executable and of the
/// `difftune-serve` binary in `bins`. A checkout that is rebuilt from other
/// sources tunes afresh instead of reusing another build's results.
fn setup_tag(bins: &Path) -> Result<u64, String> {
    let mut tag = fnv1a(
        format!(
            "{:?} {CORPUS_BLOCKS} {CORPUS_SEED} {TRAIN_BLOCKS}",
            config(0)
        )
        .bytes(),
    );
    let executable = std::env::current_exe()
        .map_err(|error| format!("cannot locate the benchmark executable: {error}"))?;
    for path in [executable, bins.join("difftune-serve")] {
        let bytes = std::fs::read(&path)
            .map_err(|error| format!("cannot read {}: {error}", path.display()))?;
        // FNV-1a over 8-byte words: the binaries are tens of MB.
        for word in bytes.chunks(8) {
            let mut padded = [0u8; 8];
            padded[..word.len()].copy_from_slice(word);
            tag ^= u64::from_le_bytes(padded);
            tag = tag.wrapping_mul(0x0100_0000_01b3);
        }
    }
    Ok(tag)
}

/// The training pairs one pass tunes against.
fn train_pairs(dataset: &Dataset) -> Vec<(BasicBlock, f64)> {
    let mut train = pairs(&dataset.train());
    train.truncate(TRAIN_BLOCKS);
    train
}

/// The fixed pipeline configuration at a seed.
fn config(seed: u64) -> DiffTuneConfig {
    DiffTuneConfig {
        surrogate: SurrogateKind::Lstm(IthemalConfig {
            embed_dim: 32,
            hidden_dim: 64,
            instr_layers: 1,
            block_layers: 1,
            parameter_inputs: true,
            seed,
        }),
        simulated_multiplier: 5.0,
        max_simulated: SIMULATED_SAMPLES,
        surrogate_train: TrainConfig {
            epochs: FIT_EPOCHS,
            batch_size: 32,
            threads: THREADS,
            ..TrainConfig::default()
        },
        table_learning_rate: 0.05,
        table_epochs: TABLE_EPOCHS,
        table_batch_size: 32,
        clamp_to_sampling: true,
        seed,
        threads: THREADS,
    }
}

/// A [`Simulator`] that counts calls and sums their wall time across
/// threads — the traced view of the `sim` layer during generation.
#[derive(Debug, Default)]
pub struct TimedSimulator {
    inner: McaSimulator,
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl Simulator for TimedSimulator {
    fn predict(&self, params: &SimParams, block: &BasicBlock) -> f64 {
        let started = Instant::now();
        let timing = self.inner.predict(params, block);
        self.busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        timing
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Builds the Haswell corpus, returning it with its build time.
pub fn build_corpus() -> (Dataset, f64) {
    let started = Instant::now();
    let dataset = Dataset::build(
        Microarch::Haswell,
        &CorpusConfig {
            num_blocks: CORPUS_BLOCKS,
            seed: CORPUS_SEED,
            ..CorpusConfig::default()
        },
    );
    (dataset, started.elapsed().as_secs_f64())
}

/// One timed generate → fit → optimize pass.
pub struct Pass {
    pub generate_s: f64,
    pub fit_s: f64,
    pub optimize_s: f64,
    /// `Some((calls, busy seconds))` when the pass ran the timed simulator.
    pub sim: Option<(u64, f64)>,
    /// Share of the machine's CPU time the host took during the pass.
    pub steal: f64,
    pub result: DiffTuneResult,
}

impl Pass {
    pub fn tune_s(&self) -> f64 {
        self.generate_s + self.fit_s + self.optimize_s
    }
}

/// Times building a session over the dataset's training split (the part of
/// set-up that follows the corpus).
fn session_build_s(dataset: &Dataset, seed: u64) -> Result<f64, String> {
    let train = train_pairs(dataset);
    let simulator = McaSimulator::default();
    let started = Instant::now();
    let session = DiffTuneBuilder::new(config(seed))
        .build(
            &simulator,
            &SpecKind::LlvmMca.spec(),
            &default_params(Microarch::Haswell),
            &train,
        )
        .map_err(|error| format!("session rejected its input: {error}"))?;
    let elapsed = started.elapsed().as_secs_f64();
    drop(session);
    Ok(elapsed)
}

/// Runs the pipeline once, timing each stage.
pub fn run_pass(dataset: &Dataset, seed: u64, traced: bool) -> Result<Pass, String> {
    let train = train_pairs(dataset);
    let timed = TimedSimulator::default();
    let plain = McaSimulator::default();
    let simulator: &dyn Simulator = if traced { &timed } else { &plain };
    let mut session = DiffTuneBuilder::new(config(seed))
        .build(
            simulator,
            &SpecKind::LlvmMca.spec(),
            &default_params(Microarch::Haswell),
            &train,
        )
        .map_err(|error| format!("session rejected its input: {error}"))?;
    let ticks = host::ticks(None);
    let mut stage_s = [0.0; 3];
    for slot in &mut stage_s {
        let started = Instant::now();
        session
            .advance()
            .map_err(|error| format!("pipeline stage failed: {error}"))?;
        *slot = started.elapsed().as_secs_f64();
    }
    let steal = host::steal_between(ticks, host::ticks(None));
    let result = session
        .finish()
        .map_err(|error| format!("pipeline did not finish: {error}"))?;
    let sim = traced.then(|| {
        (
            timed.calls.load(Ordering::Relaxed),
            timed.busy_ns.load(Ordering::Relaxed) as f64 / 1e9,
        )
    });
    Ok(Pass {
        generate_s: stage_s[0],
        fit_s: stage_s[1],
        optimize_s: stage_s[2],
        sim,
        steal,
        result,
    })
}

/// Held-out MAPE of a table under the simulator being tuned.
pub fn heldout_mape(dataset: &Dataset, table: &SimParams) -> f64 {
    let heldout = dataset.heldout();
    let blocks: Vec<BasicBlock> = heldout.iter().map(|r| r.block.clone()).collect();
    let predictions = McaSimulator::default().predict_batch(table, &blocks);
    Dataset::evaluate_predictions(&heldout, &predictions).0
}

/// Checks a learned-table fingerprint against the one an earlier run of the
/// same configuration and code recorded in `work`, recording it on first
/// sight. Returns false on a mismatch.
fn fingerprint_matches_earlier_runs(work: &Path, tag: u64, key: &str, fingerprint: &str) -> bool {
    let path = work.join(format!("fingerprint-{key}-{tag:016x}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier.trim() == fingerprint => true,
        Ok(earlier) => {
            eprintln!(
                "perfbench: learned-table fingerprint {fingerprint} differs from the earlier \
                 run's {} ({key})",
                earlier.trim()
            );
            false
        }
        Err(_) => {
            let _ = std::fs::write(&path, fingerprint);
            true
        }
    }
}

/// The `tune` workload: corpus set-up, then pipeline passes for the run's
/// duration. Pass `k` runs at the `k mod SEEDS_PER_RUN`-th seed derived from
/// the run's seed, so the result averages over several sample sets, and
/// every derived seed's passes must learn the same table.
pub fn run_workload(args: &Args) -> Result<Outcome, String> {
    let tag = setup_tag(&args.bins)?;
    let mut setup = Vec::new();
    let mut corpus = Vec::new();
    let mut dataset = None;
    for _ in 0..SETUP_REPEATS {
        let (built, corpus_s) = build_corpus();
        let session_s = session_build_s(&built, args.seed)?;
        corpus.push(corpus_s);
        setup.push(corpus_s + session_s);
        dataset = Some(built);
    }
    let dataset = dataset.expect("at least one set-up repeat");

    // Passes until the next one would overrun the run's duration; at least
    // two (and, traced, one of each kind). Traced runs alternate plain and
    // traced passes.
    let seed_for = |k: usize| args.seed.wrapping_mul(SEEDS_PER_RUN as u64) + k as u64;
    let started = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut learned: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    loop {
        let trace_this = args.trace && plain.len() > traced.len();
        let done = if trace_this {
            traced.len()
        } else {
            plain.len()
        };
        let seed = seed_for(done % SEEDS_PER_RUN);
        let pass = run_pass(&dataset, seed, trace_this)?;
        let pass_s = pass.tune_s();
        learned
            .entry(seed)
            .or_default()
            .push(fingerprint_table(&pass.result.learned));
        if trace_this {
            traced.push(pass);
        } else {
            plain.push(pass);
        }
        let enough = plain.len() + traced.len() >= 2 && (!args.trace || !traced.is_empty());
        if enough && started.elapsed().as_secs_f64() + pass_s > args.seconds {
            break;
        }
    }

    let mut outcome = Outcome {
        attempted: (plain.len() + traced.len()) as u64,
        ..Outcome::default()
    };
    for (seed, fingerprints) in &learned {
        let first = &fingerprints[0];
        eprintln!("perfbench: tune seed {seed} learned-table fingerprint {first}");
        outcome.failed += fingerprints.iter().filter(|f| *f != first).count() as u64;
        if !fingerprint_matches_earlier_runs(&args.work, tag, &format!("tune-{seed}"), first) {
            outcome.failed += 1;
        }
    }

    // Passes during which the host took too much of the machine are left
    // out, down to the least disturbed half; the choice never looks at the
    // pass times themselves.
    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    let kept: Vec<&Pass> = undisturbed(&plain, |pass| pass.steal / STEAL_LIMIT)
        .into_iter()
        .map(|k| &plain[k])
        .collect();
    eprintln!(
        "perfbench: kept {} of {} plain passes",
        kept.len(),
        plain.len()
    );
    let pass_ms: Vec<f64> = kept.iter().map(|p| p.tune_s() * 1e3).collect();
    let optimized = (train_pairs(&dataset).len() * TABLE_EPOCHS) as f64;
    let optimize_rate: Vec<f64> = kept.iter().map(|p| optimized / p.optimize_s).collect();
    let m = &mut outcome.metrics;
    m.insert("setup_s", median(&best_half(&setup, |s| *s)));
    m.insert("blocks_per_s", median(&optimize_rate));
    m.insert("p50_ms", median(&pass_ms));
    m.insert("client.p90_ms", quantile(&pass_ms, 0.9));
    m.insert("rss_mb", crate::fleet::peak_rss_mb("self"));
    m.insert("bhive.corpus_s", median(&corpus));
    m.insert(
        "core.learned_mape",
        heldout_mape(&dataset, &plain[0].result.learned),
    );
    m.insert(
        "loadgen.steal_frac",
        median(&all.iter().map(|p| p.steal).collect::<Vec<_>>()),
    );
    insert_stage_metrics(m, &all);
    if !traced.is_empty() {
        let traced_ms = median(&traced.iter().map(|p| p.tune_s() * 1e3).collect::<Vec<_>>());
        let plain_ms = median(&plain.iter().map(|p| p.tune_s() * 1e3).collect::<Vec<_>>());
        m.insert("trace.overhead_frac", traced_ms / plain_ms - 1.0);
    }
    Ok(outcome)
}

/// Median stage times over passes, plus the timed simulator's counts.
fn insert_stage_metrics(m: &mut BTreeMap<&'static str, f64>, passes: &[&Pass]) {
    let med = |f: fn(&Pass) -> f64| median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>());
    m.insert("core.generate_s", med(|p| p.generate_s));
    m.insert("core.fit_s", med(|p| p.fit_s));
    m.insert("core.optimize_s", med(|p| p.optimize_s));
    let sims: Vec<(u64, f64)> = passes.iter().filter_map(|p| p.sim).collect();
    if let Some(&(calls, _)) = sims.first() {
        let busy = median(&sims.iter().map(|s| s.1).collect::<Vec<_>>());
        m.insert("sim.calls", calls as f64);
        m.insert("sim.busy_s", busy);
        m.insert("sim.ns_per_call", busy * 1e9 / calls.max(1) as f64);
    }
}

/// The served cell: its artifacts and its learned table's held-out MAPE.
pub struct Cell {
    /// Directory holding the cell's `MATRIX_*.json` and `SURROGATE_*.json`.
    pub dir: PathBuf,
    pub artifact: SurrogateArtifact,
    pub learned_mape: f64,
}

/// The served cell. It is tuned once per configuration and build (fixed
/// corpus and seed, so the artifacts are the same every time) and kept in
/// `work`, so serving runs spend their time serving.
pub fn cell(args: &Args) -> Result<Cell, String> {
    let work = args.work.as_path();
    let key = CellKey::parse(CELL)?;
    let dir = work.join(format!("cell-{:016x}", setup_tag(&args.bins)?));
    let record_path = dir.join(key.file_name());
    let artifact_path = dir.join(difftune_surrogate::surrogate_file_name(CELL));
    if !dir.exists() {
        tune_cell(&key, work, &dir)?;
    }
    let read = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|error| format!("cannot read {}: {error}", path.display()))
    };
    let record = MatrixRecord::from_json(&read(&record_path)?)?;
    let artifact = SurrogateArtifact::from_json(&read(&artifact_path)?)?;
    Ok(Cell {
        dir,
        artifact,
        learned_mape: record.learned_mape,
    })
}

/// Tunes the cell and writes its servable artifacts to `dir` (through a
/// temporary directory, so an interrupted run leaves no half cell).
fn tune_cell(key: &CellKey, work: &Path, dir: &Path) -> Result<(), String> {
    eprintln!("perfbench: tuning the served cell {CELL} (once per build)");
    let (dataset, _) = build_corpus();
    let pass = run_pass(&dataset, key.seed(), false)?;
    let learned = &pass.result.learned;

    let heldout = dataset.heldout();
    let blocks: Vec<BasicBlock> = heldout.iter().map(|r| r.block.clone()).collect();
    let simulator = SimulatorKind::Mca.build();
    let default_predictions = simulator.predict_batch(&default_params(key.uarch), &blocks);
    let learned_predictions = simulator.predict_batch(learned, &blocks);
    let (default_mape, default_tau) = Dataset::evaluate_predictions(&heldout, &default_predictions);
    let (learned_mape, learned_tau) = Dataset::evaluate_predictions(&heldout, &learned_predictions);
    let artifact = SurrogateArtifact::new(
        CELL,
        config(key.seed()).surrogate.into(),
        pass.result.surrogate.as_ref(),
        learned,
    );
    let surrogate_predictions = SurrogateForward::from_artifact(&artifact)?.predict_batch(&blocks);
    let (surrogate_mape, surrogate_tau) =
        Dataset::evaluate_predictions(&heldout, &surrogate_predictions);
    let record = MatrixRecord {
        schema: MATRIX_SCHEMA.to_string(),
        cell: key.id(),
        simulator: key.simulator.key().to_string(),
        uarch: key.uarch.key().to_string(),
        spec: key.spec.key().to_string(),
        scale: "perfbench".to_string(),
        seed: key.seed(),
        train_blocks: TRAIN_BLOCKS,
        heldout_blocks: heldout.len(),
        simulated_samples: pass.result.surrogate_report.samples,
        num_learned_parameters: pass.result.num_learned_parameters,
        default_mape,
        default_tau,
        learned_mape,
        learned_tau,
        surrogate_mape: Some(surrogate_mape),
        surrogate_tau: Some(surrogate_tau),
        surrogate_vs_sim_mape: Some(metrics::mape(&surrogate_predictions, &learned_predictions)),
        surrogate_vs_sim_tau: Some(metrics::kendall_tau(
            &surrogate_predictions,
            &learned_predictions,
        )),
        surrogate_fingerprint: Some(artifact.fingerprint.clone()),
        surrogate_blocks_per_second: None,
        simulator_blocks_per_second: None,
        by_category: Vec::new(),
        table_fingerprint: fingerprint_table(learned),
        learned_table: learned.to_flat(),
    };

    let staging = work.join(format!("cell-staging-{}", std::process::id()));
    std::fs::create_dir_all(&staging)
        .map_err(|error| format!("cannot create {}: {error}", staging.display()))?;
    for (name, json) in [
        (record.file_name(), record.to_json()),
        (artifact.file_name(), artifact.to_json()),
    ] {
        std::fs::write(staging.join(&name), json)
            .map_err(|error| format!("cannot write {name}: {error}"))?;
    }
    std::fs::rename(&staging, dir)
        .map_err(|error| format!("cannot move the cell into {}: {error}", dir.display()))
}
