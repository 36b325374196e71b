//! The scenario-matrix runner: tune and score every
//! `Simulator × Microarch × ParamSpec` cell.
//!
//! The paper's headline results are a *matrix*, not a single run: DiffTune is
//! evaluated per target microarchitecture (Tables IV–VI) and per simulator
//! (llvm-mca and llvm_sim, Appendix A). This module drives that cross
//! product:
//!
//! * [`enumerate_cells`] lists every cell over
//!   `{mca, uop} × Microarch::ALL × {llvm_mca, write_latency_only, llvm_sim}`,
//!   marking incompatible simulator/spec pairs with a recorded skip reason
//!   instead of silently dropping them;
//! * [`run_cell`] tunes one cell through the staged
//!   [`Session`](difftune::Session) pipeline and scores the learned table
//!   against the expert defaults on the held-out corpus, with per-category
//!   breakdowns ([`MatrixRecord`]);
//! * [`run_matrix`] sweeps the selected cells in parallel on
//!   `std::thread::scope` and writes one `MATRIX_<sim>_<uarch>_<spec>.json`
//!   per completed cell plus a `MATRIX_summary.json` roll-up
//!   ([`MatrixSummary`]).
//!
//! # Determinism
//!
//! Every cell derives its run seed from a stable FNV-1a hash of its
//! `(simulator, uarch, spec)` key ([`CellKey::seed`]) — never from
//! enumeration order, scheduling, or thread ids — and cells train on the
//! deterministic batch engine, so a cell's JSON is a pure function of its key
//! and the scale. Re-running a sweep with any `DIFFTUNE_THREADS` value, on
//! any machine, produces byte-identical cell files (the records carry no
//! wall-clock or machine fields); `tests/matrix.rs` asserts this bit for
//! bit.
//!
//! # Resume
//!
//! The sweep is resumable at two granularities. A completed cell's JSON is
//! written as soon as the cell finishes, and a later sweep over the same
//! output directory recognizes it (matching schema, cell, scale, and seed)
//! and does not re-run the cell. Within a cell, a
//! [`RunCheckpoint`] is saved after every pipeline
//! stage, so a killed sweep resumes mid-cell and — because checkpoint resume
//! is bit-identical — the finished sweep's summary is byte-identical to an
//! uninterrupted run's.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use difftune::{DiffTuneBuilder, RunCheckpoint, Stage};
use difftune_bhive::{metrics, Category, CorpusConfig, Dataset};
use difftune_cpu::{default_params, Microarch};
use difftune_surrogate::{SurrogateArtifact, SurrogateForward};

use crate::record::{
    fingerprint_table, matrix_cell_file_name, CategoryScore, MatrixRecord, MatrixSummary,
    SkippedCell, MATRIX_SCHEMA, MATRIX_SUMMARY_FILE,
};
use crate::{pairs, Scale};

pub use difftune::{SimulatorKind, SpecKind};

/// One cell of the scenario matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellKey {
    /// The simulator family under tuning.
    pub simulator: SimulatorKind,
    /// The target microarchitecture providing the ground truth.
    pub uarch: Microarch,
    /// Which parameters are learned.
    pub spec: SpecKind,
}

impl CellKey {
    /// The canonical cell id, `<simulator>:<uarch>:<spec>`.
    pub fn id(&self) -> String {
        format!(
            "{}:{}:{}",
            self.simulator.key(),
            self.uarch.key(),
            self.spec.key()
        )
    }

    /// The cell's run seed: an order-sensitive FNV-1a hash of [`CellKey::id`].
    ///
    /// Deriving the seed from the key — never from enumeration order or the
    /// thread that happens to run the cell — keeps every cell's result a pure
    /// function of the cell itself: filtering with `--cell`, reordering the
    /// sweep, or changing `DIFFTUNE_THREADS` cannot change any cell's output.
    pub fn seed(&self) -> u64 {
        crate::record::fnv1a(self.id().bytes())
    }

    /// The cell's record file name (`MATRIX_<sim>_<uarch>_<spec>.json`).
    pub fn file_name(&self) -> String {
        matrix_cell_file_name(self.simulator.key(), self.uarch.key(), self.spec.key())
    }

    /// The cell's mid-run checkpoint file name.
    pub fn checkpoint_file_name(&self) -> String {
        format!(
            "MATRIX_ckpt_{}_{}_{}.json",
            self.simulator.key(),
            self.uarch.key(),
            self.spec.key()
        )
    }

    /// Parses a `SIM:UARCH:SPEC` cell id (as accepted by `--cell`).
    pub fn parse(raw: &str) -> Result<CellKey, String> {
        let parts: Vec<&str> = raw.split(':').collect();
        let [sim, uarch, spec] = parts.as_slice() else {
            return Err(format!(
                "cell {raw:?} must have the form SIM:UARCH:SPEC (e.g. mca:haswell:llvm_mca)"
            ));
        };
        Ok(CellKey {
            simulator: SimulatorKind::parse(sim)?,
            uarch: uarch
                .parse::<Microarch>()
                .map_err(|e| format!("{e} (valid: ivybridge, haswell, skylake, zen2)"))?,
            spec: SpecKind::parse(spec)?,
        })
    }
}

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id())
    }
}

/// One enumerated cell: the key plus, for incompatible simulator/spec pairs,
/// the reason the matrix will not run it.
#[derive(Debug, Clone)]
pub struct EnumeratedCell {
    /// The cell.
    pub key: CellKey,
    /// `Some(reason)` when the cell is skipped as incompatible.
    pub skip: Option<String>,
}

/// Why a simulator/spec pair is incompatible, or `None` when the cell runs.
///
/// A spec is incompatible with a simulator when it learns parameters the
/// simulator never reads: the simulated dataset would carry inputs with no
/// effect on the output, so most of the learned table would be noise fit to
/// the surrogate rather than to the simulator.
pub fn skip_reason(simulator: SimulatorKind, spec: SpecKind) -> Option<String> {
    match (simulator, spec) {
        (SimulatorKind::Uop, SpecKind::LlvmMca) => Some(
            "llvm_sim reads only WriteLatency and PortMap, so the llvm_mca spec would learn \
             DispatchWidth, ReorderBufferSize, NumMicroOps, and ReadAdvanceCycles parameters \
             the simulator never consumes"
                .to_string(),
        ),
        _ => None,
    }
}

/// Enumerates every cell of the matrix in stable
/// `(simulator, uarch, spec)` order, with skip reasons for incompatible
/// pairs.
pub fn enumerate_cells() -> Vec<EnumeratedCell> {
    let mut cells = Vec::new();
    for simulator in SimulatorKind::ALL {
        for uarch in Microarch::ALL {
            for spec in SpecKind::ALL {
                cells.push(EnumeratedCell {
                    key: CellKey {
                        simulator,
                        uarch,
                        spec,
                    },
                    skip: skip_reason(simulator, spec),
                });
            }
        }
    }
    cells
}

/// Builds the measured dataset a cell is tuned and scored against: a
/// per-microarchitecture *distinct* corpus
/// ([`Dataset::build_distinct`] — different blocks, not just different
/// timings) at the scale's corpus size. Cells sharing a microarchitecture
/// share this dataset.
pub fn dataset_for_cell(uarch: Microarch, scale: Scale) -> Dataset {
    Dataset::build_distinct(
        uarch,
        &CorpusConfig {
            num_blocks: scale.corpus_blocks(),
            seed: 0,
            ..CorpusConfig::default()
        },
    )
}

/// The simulated-dataset size a cell's generate stage produces — computable
/// without running the stage, so resumed cells report it too.
fn expected_simulated(scale: Scale, seed: u64, train_blocks: usize) -> usize {
    let config = scale.difftune_config(seed);
    ((train_blocks as f64 * config.simulated_multiplier) as usize).clamp(1, config.max_simulated)
}

/// The outcome of [`run_cell`].
#[derive(Debug)]
pub enum CellRun {
    /// The cell finished; its record was written to the output directory.
    /// (Boxed: a record is two orders of magnitude larger than a [`Stage`].)
    Completed(Box<MatrixRecord>),
    /// The cell stopped at a stage checkpoint (`stop_after`); the contained
    /// stage is the one a resumed run will execute next.
    Checkpointed(Stage),
}

/// Tunes and scores one cell.
///
/// The session runs at the cell's stable seed with single-threaded training
/// (sweep-level parallelism comes from [`run_matrix`] running whole cells
/// concurrently; the result is bit-identical either way). After every stage a
/// [`RunCheckpoint`] is written to the output directory, and an existing
/// checkpoint is resumed from — so a killed sweep re-runs only the stages a
/// cell had not finished. On completion the cell's `MATRIX_*.json` is
/// written, the checkpoint is removed, and the record is returned.
///
/// `stop_after` stops the cell at its checkpoint once the named stage has
/// run (used to budget long sweeps stage by stage, and by the resume tests).
///
/// # Errors
///
/// Returns a message for pipeline failures and output-directory I/O errors.
pub fn run_cell(
    key: &CellKey,
    scale: Scale,
    dataset: &Dataset,
    out_dir: &Path,
    stop_after: Option<Stage>,
) -> Result<CellRun, String> {
    run_cell_with(key, scale, dataset, out_dir, stop_after, false)
}

/// [`run_cell`] with opt-in wall-clock throughput measurement.
///
/// With `measure_throughput` the record's `surrogate_blocks_per_second` /
/// `simulator_blocks_per_second` fields are populated from timed held-out
/// prediction passes; without it they stay `None` and the record remains
/// fully machine-independent (the byte-identity tests never pass it).
pub fn run_cell_with(
    key: &CellKey,
    scale: Scale,
    dataset: &Dataset,
    out_dir: &Path,
    stop_after: Option<Stage>,
    measure_throughput: bool,
) -> Result<CellRun, String> {
    let seed = key.seed();
    let mut config = scale.difftune_config(seed);
    config.threads = 1;
    config.surrogate_train.threads = 1;
    let surrogate_kind = config.surrogate;

    let simulator = key.simulator.build();
    let spec = key.spec.spec();
    let defaults = default_params(key.uarch);
    let train_pairs = pairs(&dataset.train());
    let builder = DiffTuneBuilder::new(config);

    let checkpoint_path = out_dir.join(key.checkpoint_file_name());
    let mut session = match load_checkpoint(&checkpoint_path) {
        Some(checkpoint) => builder
            .resume(&*simulator, &spec, &defaults, &train_pairs, &checkpoint)
            .or_else(|resume_error| {
                // A checkpoint from a different scale/seed/corpus does not fit
                // this cell: start over rather than fail the sweep.
                eprintln!("[difftune-matrix] {key}: stale checkpoint ignored ({resume_error})");
                builder.build(&*simulator, &spec, &defaults, &train_pairs)
            }),
        None => builder.build(&*simulator, &spec, &defaults, &train_pairs),
    }
    .map_err(|error| format!("cell {key}: session rejected its input: {error}"))?;

    while session.stage() != Stage::Finished {
        let ran = session
            .advance()
            .map_err(|error| format!("cell {key}: stage failed: {error}"))?;
        let checkpoint = session
            .checkpoint()
            .to_json()
            .map_err(|error| format!("cell {key}: checkpoint failed: {error}"))?;
        std::fs::write(&checkpoint_path, checkpoint).map_err(|error| {
            format!(
                "cell {key}: cannot write {}: {error}",
                checkpoint_path.display()
            )
        })?;
        if stop_after == Some(ran) {
            return Ok(CellRun::Checkpointed(session.stage()));
        }
    }

    let train_blocks = session.train_blocks();
    let result = session
        .finish()
        .map_err(|error| format!("cell {key}: finish failed: {error}"))?;

    // Score learned vs. default on the held-out blocks (validation + test),
    // overall and per hardware-resource category.
    let heldout = dataset.heldout();
    let blocks: Vec<difftune_isa::BasicBlock> = heldout.iter().map(|r| r.block.clone()).collect();
    let default_predictions = simulator.predict_batch(&defaults, &blocks);
    let sim_started = Instant::now();
    let learned_predictions = simulator.predict_batch(&result.learned, &blocks);
    let sim_elapsed = sim_started.elapsed();
    let (default_mape, default_tau) = Dataset::evaluate_predictions(&heldout, &default_predictions);
    let (learned_mape, learned_tau) = Dataset::evaluate_predictions(&heldout, &learned_predictions);
    let by_default = Dataset::evaluate_predictions_by_category(&heldout, &default_predictions);
    let by_learned = Dataset::evaluate_predictions_by_category(&heldout, &learned_predictions);
    let by_category = Category::ALL
        .iter()
        .filter_map(|category| {
            let (blocks, default_mape, default_tau) = by_default.get(category)?;
            let (_, learned_mape, learned_tau) = by_learned.get(category)?;
            Some(CategoryScore {
                category: category.name().to_string(),
                blocks: *blocks,
                default_mape: *default_mape,
                default_tau: *default_tau,
                learned_mape: *learned_mape,
                learned_tau: *learned_tau,
            })
        })
        .collect();

    // Export the trained surrogate alongside the table and score the
    // artifact's own round trip: predictions come from a
    // [`SurrogateForward`] loaded back from the exact bytes written to
    // disk, so the recorded surrogate column is provably what
    // `difftune-serve` will answer with.
    let artifact = SurrogateArtifact::new(
        &key.id(),
        surrogate_kind,
        result.surrogate.as_ref(),
        &result.learned,
    );
    let artifact_path = out_dir.join(artifact.file_name());
    std::fs::write(&artifact_path, artifact.to_json()).map_err(|error| {
        format!(
            "cell {key}: cannot write {}: {error}",
            artifact_path.display()
        )
    })?;
    let mut forward = SurrogateForward::from_artifact(&artifact)
        .map_err(|error| format!("cell {key}: exported surrogate does not load: {error}"))?;
    // Warm the encoder memo off the clock, then time a warm pass — the
    // steady-state throughput a server would see.
    if measure_throughput {
        forward.predict_batch(&blocks);
    }
    let surrogate_started = Instant::now();
    let surrogate_predictions = forward.predict_batch(&blocks);
    let surrogate_elapsed = surrogate_started.elapsed();
    let (surrogate_mape, surrogate_tau) =
        Dataset::evaluate_predictions(&heldout, &surrogate_predictions);
    let surrogate_vs_sim_mape = metrics::mape(&surrogate_predictions, &learned_predictions);
    let surrogate_vs_sim_tau = metrics::kendall_tau(&surrogate_predictions, &learned_predictions);
    let blocks_per_second = |elapsed: std::time::Duration| {
        let seconds = elapsed.as_secs_f64();
        (measure_throughput && seconds > 0.0).then(|| blocks.len() as f64 / seconds)
    };

    let record = MatrixRecord {
        schema: MATRIX_SCHEMA.to_string(),
        cell: key.id(),
        simulator: key.simulator.key().to_string(),
        uarch: key.uarch.key().to_string(),
        spec: key.spec.key().to_string(),
        scale: scale.name().to_string(),
        seed,
        train_blocks,
        heldout_blocks: heldout.len(),
        simulated_samples: expected_simulated(scale, seed, train_blocks),
        num_learned_parameters: result.num_learned_parameters,
        default_mape,
        default_tau,
        learned_mape,
        learned_tau,
        surrogate_mape: Some(surrogate_mape),
        surrogate_tau: Some(surrogate_tau),
        surrogate_vs_sim_mape: Some(surrogate_vs_sim_mape),
        surrogate_vs_sim_tau: Some(surrogate_vs_sim_tau),
        surrogate_fingerprint: Some(artifact.fingerprint.clone()),
        surrogate_blocks_per_second: blocks_per_second(surrogate_elapsed),
        simulator_blocks_per_second: blocks_per_second(sim_elapsed),
        by_category,
        table_fingerprint: fingerprint_table(&result.learned),
        learned_table: result.learned.to_flat(),
    };

    let record_path = out_dir.join(record.file_name());
    std::fs::write(&record_path, record.to_json()).map_err(|error| {
        format!(
            "cell {key}: cannot write {}: {error}",
            record_path.display()
        )
    })?;
    // The cell is durably complete; its mid-run checkpoint is now dead weight.
    let _ = std::fs::remove_file(&checkpoint_path);
    Ok(CellRun::Completed(Box::new(record)))
}

/// Reads a cell checkpoint if one exists and parses.
fn load_checkpoint(path: &Path) -> Option<RunCheckpoint> {
    let json = std::fs::read_to_string(path).ok()?;
    RunCheckpoint::from_json(&json).ok()
}

/// Reads a previously completed cell record if it exists and still matches
/// the cell (schema, id, scale, and seed) — the sweep-level resume check.
fn load_existing_record(key: &CellKey, scale: Scale, out_dir: &Path) -> Option<MatrixRecord> {
    let json = std::fs::read_to_string(out_dir.join(key.file_name())).ok()?;
    let record = MatrixRecord::from_json(&json).ok()?;
    let matches = record.schema == MATRIX_SCHEMA
        && record.cell == key.id()
        && record.scale == scale.name()
        && record.seed == key.seed();
    matches.then_some(record)
}

/// Configuration of a [`run_matrix`] sweep.
#[derive(Debug, Clone)]
pub struct MatrixOptions {
    /// The scale every cell runs at.
    pub scale: Scale,
    /// Number of cells run concurrently (`0` = all available cores); the
    /// binary wires `DIFFTUNE_THREADS` here. Cell outputs are identical for
    /// every value.
    pub threads: usize,
    /// Directory receiving `MATRIX_*.json` files (created if missing).
    pub out_dir: PathBuf,
    /// Restrict the sweep to these cells (`None` = the full matrix).
    pub cells: Option<Vec<CellKey>>,
    /// Run at most this many not-yet-completed cells, then stop (resume
    /// later); `None` = no limit.
    pub max_cells: Option<usize>,
    /// Stop every newly run cell at its checkpoint once this stage has run.
    pub stop_after: Option<Stage>,
    /// Populate the wall-clock `*_blocks_per_second` record fields from
    /// timed held-out passes (machine-dependent; off by default so records
    /// stay byte-identical across hosts — see [`run_cell_with`]).
    pub measure_throughput: bool,
}

impl MatrixOptions {
    /// Options for a full sweep at a scale into a directory.
    pub fn new(scale: Scale, out_dir: impl Into<PathBuf>) -> Self {
        MatrixOptions {
            scale,
            threads: 0,
            out_dir: out_dir.into(),
            cells: None,
            max_cells: None,
            stop_after: None,
            measure_throughput: false,
        }
    }
}

/// Wall time of one newly executed cell (reporting only — never serialized
/// into the deterministic records).
#[derive(Debug, Clone)]
pub struct CellTiming {
    /// The cell id.
    pub cell: String,
    /// Wall-clock seconds the cell took in this process.
    pub seconds: f64,
}

/// The outcome of a [`run_matrix`] sweep.
#[derive(Debug)]
pub struct MatrixOutcome {
    /// The roll-up written to `MATRIX_summary.json`.
    pub summary: MatrixSummary,
    /// Cells whose records were reused from a previous sweep over the same
    /// directory.
    pub reused: usize,
    /// Cells left at a mid-run checkpoint (`stop_after`).
    pub interrupted: usize,
    /// Runnable cells not attempted because of `max_cells`.
    pub pending: usize,
    /// Per-cell wall times of the cells executed by this call, in cell
    /// enumeration order.
    pub timings: Vec<CellTiming>,
}

/// Runs a sweep: enumerates (and optionally filters) the matrix, reuses
/// completed cell records found in the output directory, executes the
/// remaining cells in parallel on `std::thread::scope`, and writes the
/// [`MatrixSummary`] roll-up.
///
/// # Errors
///
/// Returns a message when the output directory cannot be created or any cell
/// fails; completed cells keep their on-disk records either way, so a fixed
/// rerun resumes instead of starting over.
pub fn run_matrix(options: &MatrixOptions) -> Result<MatrixOutcome, String> {
    std::fs::create_dir_all(&options.out_dir)
        .map_err(|error| format!("cannot create {}: {error}", options.out_dir.display()))?;

    let selected: Vec<EnumeratedCell> = enumerate_cells()
        .into_iter()
        .filter(|cell| match &options.cells {
            Some(filter) => filter.contains(&cell.key),
            None => true,
        })
        .collect();
    let skipped: Vec<SkippedCell> = selected
        .iter()
        .filter_map(|cell| {
            cell.skip.as_ref().map(|reason| SkippedCell {
                cell: cell.key.id(),
                reason: reason.clone(),
            })
        })
        .collect();
    let runnable: Vec<CellKey> = selected
        .iter()
        .filter(|cell| cell.skip.is_none())
        .map(|cell| cell.key)
        .collect();

    // Sweep-level resume: completed records found on disk are kept as-is.
    let mut records: Vec<MatrixRecord> = Vec::new();
    let mut to_run: Vec<CellKey> = Vec::new();
    for key in &runnable {
        match load_existing_record(key, options.scale, &options.out_dir) {
            Some(record) => records.push(record),
            None => to_run.push(*key),
        }
    }
    let reused = records.len();
    let budget = options.max_cells.unwrap_or(to_run.len()).min(to_run.len());
    let pending = to_run.len() - budget;
    let to_run = &to_run[..budget];

    // One measured dataset per microarchitecture, shared by that
    // microarchitecture's cells.
    let mut datasets: BTreeMap<Microarch, Dataset> = BTreeMap::new();
    for key in to_run {
        datasets
            .entry(key.uarch)
            .or_insert_with(|| dataset_for_cell(key.uarch, options.scale));
    }

    let workers = difftune_tensor::resolve_threads(options.threads)
        .min(to_run.len())
        .max(1);

    // Work-stealing over the cell list: workers pull the next unclaimed index.
    // Scheduling affects only wall time — each cell's output is a pure
    // function of its key.
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, Result<CellRun, String>, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let datasets = &datasets;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(key) = to_run.get(index) else {
                            break;
                        };
                        eprintln!("[difftune-matrix] cell {key} starting");
                        let started = Instant::now();
                        let run = run_cell_with(
                            key,
                            options.scale,
                            &datasets[&key.uarch],
                            &options.out_dir,
                            options.stop_after,
                            options.measure_throughput,
                        );
                        local.push((index, run, started.elapsed().as_secs_f64()));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("matrix worker panicked"))
            .collect()
    });
    results.sort_by_key(|(index, _, _)| *index);

    let mut interrupted = 0usize;
    let mut timings = Vec::new();
    let mut errors = Vec::new();
    for (index, run, seconds) in results {
        let key = &to_run[index];
        timings.push(CellTiming {
            cell: key.id(),
            seconds,
        });
        match run {
            Ok(CellRun::Completed(record)) => records.push(*record),
            Ok(CellRun::Checkpointed(stage)) => {
                eprintln!("[difftune-matrix] cell {key} checkpointed before {stage:?}");
                interrupted += 1;
            }
            Err(error) => errors.push(error),
        }
    }
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }

    records.sort_by(|a, b| a.cell.cmp(&b.cell));
    // The roll-up omits the learned tables: every completed cell's own
    // MATRIX_*.json (already on disk at this point) carries its table, and
    // duplicating all of them would roughly double the sweep's artifact
    // size.
    for record in &mut records {
        record.learned_table.clear();
    }
    let summary = MatrixSummary {
        schema: MATRIX_SCHEMA.to_string(),
        scale: options.scale.name().to_string(),
        cells_total: selected.len(),
        cells_completed: records.len(),
        cells_skipped: skipped.len(),
        skipped,
        records,
    };
    let summary_path = options.out_dir.join(MATRIX_SUMMARY_FILE);
    std::fs::write(&summary_path, summary.to_json())
        .map_err(|error| format!("cannot write {}: {error}", summary_path.display()))?;

    Ok(MatrixOutcome {
        summary,
        reused,
        interrupted,
        pending,
        timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_matrix_covers_the_full_cross_product_with_recorded_skips() {
        let cells = enumerate_cells();
        assert_eq!(
            cells.len(),
            SimulatorKind::ALL.len() * Microarch::ALL.len() * SpecKind::ALL.len()
        );
        let skipped: Vec<&EnumeratedCell> = cells.iter().filter(|c| c.skip.is_some()).collect();
        // Exactly the uop × llvm_mca pairs are incompatible, one per uarch.
        assert_eq!(skipped.len(), Microarch::ALL.len());
        for cell in &skipped {
            assert_eq!(cell.key.simulator, SimulatorKind::Uop);
            assert_eq!(cell.key.spec, SpecKind::LlvmMca);
            assert!(cell.skip.as_ref().unwrap().contains("WriteLatency"));
        }
        // Cell ids are unique.
        let ids: std::collections::HashSet<String> = cells.iter().map(|c| c.key.id()).collect();
        assert_eq!(ids.len(), cells.len());
    }

    #[test]
    fn cell_seeds_are_stable_hashes_of_the_key_alone() {
        let cells = enumerate_cells();
        let mut seeds = std::collections::HashSet::new();
        for cell in &cells {
            assert_eq!(cell.key.seed(), cell.key.seed(), "seed must be stable");
            assert!(
                seeds.insert(cell.key.seed()),
                "cell {} seed collides",
                cell.key
            );
        }
        // Pin one seed to the FNV-1a of its id so accidental changes to the
        // derivation (which would invalidate every committed artifact) fail
        // loudly.
        let key = CellKey::parse("mca:haswell:llvm_mca").unwrap();
        let mut expected: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in "mca:haswell:llvm_mca".bytes() {
            expected ^= u64::from(byte);
            expected = expected.wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!(key.seed(), expected);
    }

    #[test]
    fn cell_keys_parse_and_round_trip() {
        let key = CellKey::parse("mca:haswell:llvm_mca").unwrap();
        assert_eq!(key.simulator, SimulatorKind::Mca);
        assert_eq!(key.uarch, Microarch::Haswell);
        assert_eq!(key.spec, SpecKind::LlvmMca);
        assert_eq!(CellKey::parse(&key.id()).unwrap(), key);
        assert_eq!(key.file_name(), "MATRIX_mca_haswell_llvm_mca.json");

        // Aliases and case-insensitivity.
        let aliased = CellKey::parse("llvm-mca:IVB:write-latency-only").unwrap();
        assert_eq!(aliased.simulator, SimulatorKind::Mca);
        assert_eq!(aliased.uarch, Microarch::IvyBridge);
        assert_eq!(aliased.spec, SpecKind::WriteLatencyOnly);

        // Errors name the valid values.
        assert!(CellKey::parse("mca:haswell").is_err());
        assert!(CellKey::parse("qemu:haswell:llvm_mca")
            .unwrap_err()
            .contains("mca"));
        assert!(CellKey::parse("mca:pentium:llvm_mca")
            .unwrap_err()
            .contains("haswell"));
        assert!(CellKey::parse("mca:haswell:everything")
            .unwrap_err()
            .contains("llvm_sim"));
    }

    #[test]
    fn expected_simulated_matches_the_generate_stage_formula() {
        // Smoke scale: multiplier 3, cap 2000.
        assert_eq!(expected_simulated(Scale::Smoke, 0, 480), 1440);
        assert_eq!(expected_simulated(Scale::Smoke, 0, 10_000), 2_000);
        assert_eq!(expected_simulated(Scale::Smoke, 0, 0), 1);
    }
}
