//! The staged, resumable session API — the supported way to run DiffTune.
//!
//! [`DiffTuneBuilder`] validates a [`DiffTuneConfig`] and the run inputs into
//! a [`Session`], which exposes the paper's pipeline (Figure 1) as explicit
//! stages:
//!
//! 1. [`Session::generate_dataset`] — build the simulated dataset
//!    `D̂ = {(θ, x, f(θ, x))}`;
//! 2. [`Session::fit_surrogate`] — train the surrogate (Equation 2);
//! 3. [`Session::optimize_table`] — gradient descent on θ through the frozen
//!    surrogate (Equation 3);
//! 4. [`Session::finish`] — extract the [`DiffTuneResult`].
//!
//! Between stages the session can be checkpointed ([`Session::checkpoint`])
//! to a serde-backed [`RunCheckpoint`] that round-trips through JSON; a
//! killed run resumes mid-pipeline with [`DiffTuneBuilder::resume`] and
//! produces a bit-identical result. [`RunObserver`]s receive
//! [`ProgressEvent`]s throughout, so long runs stream telemetry instead of
//! going dark.

use difftune_isa::{BasicBlock, OpcodeId};
use difftune_sim::{SimParams, Simulator};
use difftune_surrogate::train::{train_observed, TrainEvent, TrainReport};
use difftune_surrogate::{EncoderMemo, SurrogateModel, TokenizedBlock, TokenizedInst, Vocab};
use difftune_tensor::optim::{Adam, Optimizer};
use difftune_tensor::{resolve_threads, Batch, Grads, Params, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::error::DiffTuneError;
use crate::observer::{ProgressEvent, RunObserver, Stage};
use crate::pipeline::DiffTuneConfig;
use crate::sampling::sample_table;
use crate::simdata::generate_simulated_dataset_observed;
use crate::spec::ParamSpec;
use crate::theta::ThetaTable;

/// The outcome of a DiffTune run.
#[derive(Debug)]
pub struct DiffTuneResult {
    /// The learned parameter table, ready to plug back into the simulator.
    pub learned: SimParams,
    /// The randomly initialized table the optimization started from.
    pub initial: SimParams,
    /// Surrogate training statistics (Equation 2).
    pub surrogate_report: TrainReport,
    /// Mean parameter-table training loss per epoch (Equation 3).
    pub table_losses: Vec<f64>,
    /// The trained surrogate (useful for analyses such as Figure 2).
    pub surrogate: Box<dyn SurrogateModel>,
    /// Number of learned scalar parameters.
    pub num_learned_parameters: usize,
    /// Number of empty training blocks that were skipped (they carry no
    /// instructions to simulate, so they cannot contribute to training).
    pub skipped_blocks: usize,
}

/// A serializable snapshot of a session between stages.
///
/// Checkpoints hold the stage cursor, the run seed, and every learned
/// artifact produced so far (surrogate weights, θ, losses) — all plain serde
/// data, so they round-trip through JSON byte-exactly (`f32` values survive
/// via Rust's shortest round-trip float formatting). The simulated dataset is
/// deliberately *not* serialized: it is derived data, and a resume from the
/// [`Stage::FitSurrogate`] cursor regenerates it deterministically from the
/// seed instead of shipping hundreds of megabytes around.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunCheckpoint {
    /// The next stage the resumed session will run.
    pub stage: Stage,
    /// The run seed (must match the resuming session's config).
    pub seed: u64,
    /// Number of non-empty training blocks the run used.
    pub train_blocks: usize,
    /// Order-sensitive FNV-1a fingerprint of the training pairs; a resume
    /// with a different training set is rejected rather than silently
    /// continuing on different data.
    pub train_fingerprint: u64,
    /// Bit pattern of the table learning rate the run was configured with.
    pub table_learning_rate_bits: u32,
    /// Table-optimization epochs the run was configured with.
    pub table_epochs: usize,
    /// Table-optimization batch size the run was configured with.
    pub table_batch_size: usize,
    /// Whether θ was clamped to the sampling region during optimization.
    pub clamp_to_sampling: bool,
    /// Trained surrogate weights (present once `fit_surrogate` has run).
    pub surrogate_params: Option<Params>,
    /// The model configuration `surrogate_params` was trained under —
    /// enough for a serving process to rebuild the architecture and load the
    /// weights without the run's `DiffTuneConfig`.
    /// Required in the JSON: `None` only when no surrogate was fitted. A
    /// checkpoint written before this field existed does not deserialize.
    pub surrogate_config: Option<difftune_surrogate::ModelConfig>,
    /// Surrogate training statistics (present once `fit_surrogate` has run).
    pub surrogate_report: Option<TrainReport>,
    /// The optimized θ table (present once `optimize_table` has run).
    pub theta: Option<ThetaTable>,
    /// The random initialization θ started from.
    pub initial: Option<SimParams>,
    /// Per-epoch table losses accumulated so far.
    pub table_losses: Vec<f64>,
}

impl RunCheckpoint {
    /// Serializes the checkpoint to JSON.
    ///
    /// # Errors
    ///
    /// [`DiffTuneError::Checkpoint`] when the checkpoint contains a
    /// non-finite float (JSON cannot represent NaN/Inf, so such a snapshot
    /// would save "successfully" and then fail to reload — a diverged run is
    /// reported at save time instead).
    pub fn to_json(&self) -> Result<String, DiffTuneError> {
        self.ensure_finite()?;
        serde_json::to_string(self).map_err(|error| DiffTuneError::Checkpoint {
            message: format!("serialization failed: {error:?}"),
        })
    }

    /// Rejects non-finite floats anywhere in the learned state.
    fn ensure_finite(&self) -> Result<(), DiffTuneError> {
        let bad = |what: String| DiffTuneError::Checkpoint {
            message: format!(
                "cannot serialize: {what} contains a non-finite value (did training diverge?)"
            ),
        };
        if let Some(params) = &self.surrogate_params {
            for (_, name, value) in params.iter() {
                if value.data().iter().any(|v| !v.is_finite()) {
                    return Err(bad(format!("surrogate weight tensor {name:?}")));
                }
            }
        }
        if let Some(report) = &self.surrogate_report {
            if report.epoch_losses.iter().any(|v| !v.is_finite()) {
                return Err(bad("the surrogate report".to_string()));
            }
        }
        if let Some(theta) = &self.theta {
            if theta.tensor().data().iter().any(|v| !v.is_finite()) {
                return Err(bad("θ".to_string()));
            }
        }
        if self.table_losses.iter().any(|v| !v.is_finite()) {
            return Err(bad("the table losses".to_string()));
        }
        Ok(())
    }

    /// Deserializes a checkpoint from JSON.
    pub fn from_json(json: &str) -> Result<Self, DiffTuneError> {
        serde_json::from_str(json).map_err(|error| DiffTuneError::Checkpoint {
            message: format!("deserialization failed: {error:?}"),
        })
    }
}

/// Validates configuration and inputs into a runnable [`Session`].
///
/// ```no_run
/// use difftune::{DiffTuneBuilder, DiffTuneConfig, ParamSpec};
/// use difftune_cpu::{default_params, Microarch};
/// use difftune_sim::McaSimulator;
///
/// # let train_set: Vec<(difftune_isa::BasicBlock, f64)> = vec![];
/// let simulator = McaSimulator::default();
/// let session = DiffTuneBuilder::new(DiffTuneConfig::default())
///     .build(
///         &simulator,
///         &ParamSpec::llvm_mca(),
///         &default_params(Microarch::Haswell),
///         &train_set,
///     )?;
/// let result = session.run_to_completion()?;
/// # Ok::<(), difftune::DiffTuneError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DiffTuneBuilder {
    config: DiffTuneConfig,
}

impl DiffTuneBuilder {
    /// Starts a builder from a configuration.
    pub fn new(config: DiffTuneConfig) -> Self {
        DiffTuneBuilder { config }
    }

    /// The configuration this builder will validate.
    pub fn config(&self) -> &DiffTuneConfig {
        &self.config
    }

    /// Validates the configuration and inputs and produces a session at the
    /// first stage.
    ///
    /// # Errors
    ///
    /// [`DiffTuneError::InvalidConfig`] / [`DiffTuneError::Surrogate`] for
    /// unusable hyperparameters, [`DiffTuneError::EmptyTrainSet`] when the
    /// training set is empty or contains only empty blocks.
    pub fn build<'a>(
        &self,
        simulator: &'a dyn Simulator,
        spec: &ParamSpec,
        defaults: &SimParams,
        train_set: &[(BasicBlock, f64)],
    ) -> Result<Session<'a>, DiffTuneError> {
        self.config.validate()?;
        validate_spec(spec)?;
        if train_set.is_empty() {
            return Err(DiffTuneError::EmptyTrainSet);
        }
        let pairs: Vec<(BasicBlock, f64)> = train_set
            .iter()
            .filter(|(block, _)| !block.is_empty())
            .cloned()
            .collect();
        if pairs.is_empty() {
            return Err(DiffTuneError::EmptyTrainSet);
        }
        let skipped_blocks = train_set.len() - pairs.len();
        validate_defaults(defaults, &pairs)?;

        Ok(Session {
            config: self.config.clone(),
            simulator,
            spec: *spec,
            defaults: defaults.clone(),
            pairs,
            skipped_blocks,
            observers: Vec::new(),
            stage: Stage::GenerateDataset,
            simulated: None,
            surrogate: None,
            surrogate_report: None,
            theta: None,
            initial: None,
            table_losses: Vec::new(),
        })
    }

    /// Rebuilds a session from a [`RunCheckpoint`], fast-forwarded to the
    /// checkpoint's stage cursor.
    ///
    /// The simulator, spec, defaults, and training set must be the ones the
    /// checkpointed run used; the seed is cross-checked against the config.
    /// A checkpoint taken before surrogate training resumes at
    /// [`Stage::GenerateDataset`] (the simulated dataset is derived data and
    /// is regenerated deterministically rather than serialized).
    ///
    /// # Errors
    ///
    /// Everything [`DiffTuneBuilder::build`] reports, plus
    /// [`DiffTuneError::Checkpoint`] when the checkpoint is internally
    /// inconsistent or does not fit the session (seed mismatch, wrong
    /// surrogate architecture, wrong table size).
    pub fn resume<'a>(
        &self,
        simulator: &'a dyn Simulator,
        spec: &ParamSpec,
        defaults: &SimParams,
        train_set: &[(BasicBlock, f64)],
        checkpoint: &RunCheckpoint,
    ) -> Result<Session<'a>, DiffTuneError> {
        let mut session = self.build(simulator, spec, defaults, train_set)?;
        if checkpoint.seed != self.config.seed {
            return Err(DiffTuneError::Checkpoint {
                message: format!(
                    "checkpoint was taken with seed {} but the session is configured with seed {}",
                    checkpoint.seed, self.config.seed
                ),
            });
        }

        // A checkpoint between dataset generation and surrogate training
        // carries no learned state yet: re-run dataset generation (it is
        // deterministic in the seed).
        let stage = match checkpoint.stage {
            Stage::GenerateDataset | Stage::FitSurrogate => Stage::GenerateDataset,
            other => other,
        };

        if matches!(stage, Stage::OptimizeTable | Stage::Finished) {
            // From here on the checkpoint's learned state is reused, so the
            // inputs that shaped (or will shape) it must be the originals —
            // otherwise the "bit-identical resume" guarantee silently breaks.
            if checkpoint.train_blocks != session.pairs.len()
                || checkpoint.train_fingerprint != fingerprint_pairs(&session.pairs)
            {
                return Err(DiffTuneError::Checkpoint {
                    message: format!(
                        "checkpoint was taken with a different training set ({} blocks, \
                         fingerprint {:#018x}); resume with the original data",
                        checkpoint.train_blocks, checkpoint.train_fingerprint
                    ),
                });
            }
            if checkpoint.table_learning_rate_bits != self.config.table_learning_rate.to_bits()
                || checkpoint.table_epochs != self.config.table_epochs
                || checkpoint.table_batch_size != self.config.table_batch_size
                || checkpoint.clamp_to_sampling != self.config.clamp_to_sampling
            {
                return Err(DiffTuneError::Checkpoint {
                    message: "checkpoint was taken with different table-optimization \
                              hyperparameters (learning rate, epochs, batch size, or clamping); \
                              resume with the original configuration"
                        .to_string(),
                });
            }

            let saved_params =
                checkpoint
                    .surrogate_params
                    .as_ref()
                    .ok_or_else(|| DiffTuneError::Checkpoint {
                        message: format!(
                            "stage {:?} requires surrogate weights, but the checkpoint has none",
                            checkpoint.stage
                        ),
                    })?;
            let report =
                checkpoint
                    .surrogate_report
                    .clone()
                    .ok_or_else(|| DiffTuneError::Checkpoint {
                        message: format!(
                            "stage {:?} requires a surrogate report, but the checkpoint has none",
                            checkpoint.stage
                        ),
                    })?;
            let mut surrogate = self.config.surrogate.build();
            check_params_compatible(surrogate.params(), saved_params)?;
            *surrogate.params_mut() = saved_params.clone();
            session.surrogate = Some(surrogate);
            session.surrogate_report = Some(report);
        }

        if stage == Stage::Finished {
            let theta = checkpoint
                .theta
                .clone()
                .ok_or_else(|| DiffTuneError::Checkpoint {
                    message: "stage Finished requires θ, but the checkpoint has none".to_string(),
                })?;
            let expected = ThetaTable::from_table(&session.defaults).len();
            if theta.len() != expected {
                return Err(DiffTuneError::Checkpoint {
                    message: format!(
                        "θ has {} entries but the defaults table needs {expected}",
                        theta.len()
                    ),
                });
            }
            let initial = checkpoint
                .initial
                .clone()
                .ok_or_else(|| DiffTuneError::Checkpoint {
                    message: "stage Finished requires the initial table, but the checkpoint has \
                              none"
                        .to_string(),
                })?;
            session.theta = Some(theta);
            session.initial = Some(initial);
            session.table_losses = checkpoint.table_losses.clone();
        }

        session.stage = stage;
        Ok(session)
    }
}

/// A validated, staged DiffTune run.
///
/// Stages must run in order ([`Stage::GenerateDataset`] →
/// [`Stage::FitSurrogate`] → [`Stage::OptimizeTable`] → [`Session::finish`]);
/// calling one out of order returns [`DiffTuneError::StageOrder`] instead of
/// panicking. [`Session::run_to_completion`] drives whatever stages remain.
pub struct Session<'a> {
    config: DiffTuneConfig,
    simulator: &'a dyn Simulator,
    spec: ParamSpec,
    defaults: SimParams,
    /// Non-empty `(block, timing)` pairs from the training set.
    pairs: Vec<(BasicBlock, f64)>,
    skipped_blocks: usize,
    observers: Vec<Box<dyn RunObserver + 'a>>,
    stage: Stage,
    simulated: Option<Vec<difftune_surrogate::train::TrainSample>>,
    surrogate: Option<Box<dyn SurrogateModel>>,
    surrogate_report: Option<TrainReport>,
    theta: Option<ThetaTable>,
    initial: Option<SimParams>,
    table_losses: Vec<f64>,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("stage", &self.stage)
            .field("simulator", &self.simulator.name())
            .field("train_blocks", &self.pairs.len())
            .field("skipped_blocks", &self.skipped_blocks)
            .field("observers", &self.observers.len())
            .finish_non_exhaustive()
    }
}

impl<'a> Session<'a> {
    /// The stage the session will run next.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// The configuration the session runs under.
    pub fn config(&self) -> &DiffTuneConfig {
        &self.config
    }

    /// Number of empty training blocks dropped during validation.
    pub fn skipped_blocks(&self) -> usize {
        self.skipped_blocks
    }

    /// Registers an observer; it receives every subsequent [`ProgressEvent`].
    pub fn add_observer(&mut self, observer: Box<dyn RunObserver + 'a>) {
        self.observers.push(observer);
    }

    /// Registers an observer, builder-style.
    pub fn observed(mut self, observer: Box<dyn RunObserver + 'a>) -> Self {
        self.add_observer(observer);
        self
    }

    fn expect_stage(&self, requested: Stage) -> Result<(), DiffTuneError> {
        if self.stage == requested {
            Ok(())
        } else {
            Err(DiffTuneError::StageOrder {
                current: self.stage,
                requested,
            })
        }
    }

    fn emit(observers: &mut [Box<dyn RunObserver + 'a>], event: &ProgressEvent) {
        for observer in observers.iter_mut() {
            observer.on_event(event);
        }
    }

    /// Stage 1 (Figure 1, step 2): builds the simulated dataset and returns
    /// its size. Emits [`ProgressEvent::DatasetProgress`] as samples land.
    pub fn generate_dataset(&mut self) -> Result<usize, DiffTuneError> {
        self.expect_stage(Stage::GenerateDataset)?;
        Self::emit(
            &mut self.observers,
            &ProgressEvent::StageStarted {
                stage: Stage::GenerateDataset,
            },
        );
        let blocks: Vec<BasicBlock> = self.pairs.iter().map(|(b, _)| b.clone()).collect();
        let size = ((blocks.len() as f64 * self.config.simulated_multiplier) as usize)
            .clamp(1, self.config.max_simulated);
        let observers = &mut self.observers;
        let simulated = generate_simulated_dataset_observed(
            self.simulator,
            &self.spec,
            &self.defaults,
            &blocks,
            size,
            self.config.seed,
            self.config.threads,
            &mut |generated, total| {
                Self::emit(
                    observers,
                    &ProgressEvent::DatasetProgress { generated, total },
                );
            },
        )?;
        let generated = simulated.len();
        self.simulated = Some(simulated);
        self.stage = Stage::FitSurrogate;
        Self::emit(
            &mut self.observers,
            &ProgressEvent::StageFinished {
                stage: Stage::GenerateDataset,
            },
        );
        Ok(generated)
    }

    /// Stage 2 (Equation 2): trains the surrogate on the simulated dataset.
    /// Emits one [`ProgressEvent::SurrogateEpoch`] per epoch.
    pub fn fit_surrogate(&mut self) -> Result<&TrainReport, DiffTuneError> {
        self.expect_stage(Stage::FitSurrogate)?;
        Self::emit(
            &mut self.observers,
            &ProgressEvent::StageStarted {
                stage: Stage::FitSurrogate,
            },
        );
        let simulated = self
            .simulated
            .take()
            .expect("dataset generated in stage 1 (guaranteed by the stage cursor)");
        let mut surrogate = self.config.surrogate.build();
        let mut optimizer = Adam::new(self.config.surrogate_train.learning_rate);
        let observers = &mut self.observers;
        let report = train_observed(
            &mut surrogate,
            &simulated,
            &self.config.surrogate_train,
            &mut optimizer,
            &mut |event: &TrainEvent| {
                let TrainEvent::EpochCompleted {
                    epoch,
                    epochs,
                    mean_loss,
                } = *event;
                Self::emit(
                    observers,
                    &ProgressEvent::SurrogateEpoch {
                        epoch,
                        epochs,
                        mean_loss,
                    },
                );
            },
        )?;
        self.surrogate = Some(surrogate);
        self.surrogate_report = Some(report);
        self.stage = Stage::OptimizeTable;
        Self::emit(
            &mut self.observers,
            &ProgressEvent::StageFinished {
                stage: Stage::FitSurrogate,
            },
        );
        Ok(self.surrogate_report.as_ref().expect("report just stored"))
    }

    /// Stage 3 (Equation 3): optimizes θ through the frozen surrogate and
    /// returns the per-epoch losses. Emits [`ProgressEvent::TableBatch`] and
    /// [`ProgressEvent::TableEpoch`] as training proceeds. Each distinct
    /// training instruction is encoded once for the whole stage, not once
    /// per occurrence per epoch.
    pub fn optimize_table(&mut self) -> Result<&[f64], DiffTuneError> {
        self.expect_stage(Stage::OptimizeTable)?;
        Self::emit(
            &mut self.observers,
            &ProgressEvent::StageStarted {
                stage: Stage::OptimizeTable,
            },
        );
        let surrogate = self.surrogate.take().expect("surrogate trained in stage 2");
        let (theta, losses, initial) = self.train_table(&*surrogate);
        self.surrogate = Some(surrogate);
        self.theta = Some(theta);
        self.initial = Some(initial);
        self.table_losses = losses;
        self.stage = Stage::Finished;
        Self::emit(
            &mut self.observers,
            &ProgressEvent::StageFinished {
                stage: Stage::OptimizeTable,
            },
        );
        Ok(&self.table_losses)
    }

    /// Extracts the result once every stage has run.
    pub fn finish(self) -> Result<DiffTuneResult, DiffTuneError> {
        self.expect_stage(Stage::Finished)?;
        let theta = self.theta.expect("θ optimized in stage 3");
        Ok(DiffTuneResult {
            learned: theta.to_sim_params(),
            initial: self.initial.expect("initial table recorded in stage 3"),
            surrogate_report: self.surrogate_report.expect("report stored in stage 2"),
            table_losses: self.table_losses,
            surrogate: self.surrogate.expect("surrogate trained in stage 2"),
            num_learned_parameters: self.spec.num_learned(self.defaults.num_opcodes()),
            skipped_blocks: self.skipped_blocks,
        })
    }

    /// Runs the next pending stage, whichever it is, and returns the stage
    /// that ran (a no-op returning [`Stage::Finished`] once every stage has
    /// completed).
    ///
    /// This is the single-step form of [`Session::run_to_completion`]: drivers
    /// that need to do work *between* stages — write a checkpoint, check a
    /// wall-clock budget, stop early — loop on `advance` instead of
    /// duplicating the stage dispatch.
    pub fn advance(&mut self) -> Result<Stage, DiffTuneError> {
        let current = self.stage;
        match current {
            Stage::GenerateDataset => {
                self.generate_dataset()?;
            }
            Stage::FitSurrogate => {
                self.fit_surrogate()?;
            }
            Stage::OptimizeTable => {
                self.optimize_table()?;
            }
            Stage::Finished => {}
        }
        Ok(current)
    }

    /// Number of non-empty training blocks the session will optimize against.
    pub fn train_blocks(&self) -> usize {
        self.pairs.len()
    }

    /// Runs every remaining stage in order and extracts the result.
    pub fn run_to_completion(mut self) -> Result<DiffTuneResult, DiffTuneError> {
        while self.stage != Stage::Finished {
            self.advance()?;
        }
        self.finish()
    }

    /// Snapshots the session's stage cursor and learned artifacts.
    ///
    /// The snapshot is taken between stages: a checkpoint saved mid-run
    /// resumes at the start of the stage the session was about to run.
    pub fn checkpoint(&self) -> RunCheckpoint {
        RunCheckpoint {
            stage: self.stage,
            seed: self.config.seed,
            train_blocks: self.pairs.len(),
            train_fingerprint: fingerprint_pairs(&self.pairs),
            table_learning_rate_bits: self.config.table_learning_rate.to_bits(),
            table_epochs: self.config.table_epochs,
            table_batch_size: self.config.table_batch_size,
            clamp_to_sampling: self.config.clamp_to_sampling,
            surrogate_params: self.surrogate.as_ref().map(|s| s.params().clone()),
            surrogate_config: self.surrogate.as_ref().map(|_| self.config.surrogate),
            surrogate_report: self.surrogate_report.clone(),
            theta: self.theta.clone(),
            initial: self.initial.clone(),
            table_losses: self.table_losses.clone(),
        }
    }

    /// Equation 3: gradient descent on θ through the frozen surrogate.
    ///
    /// Before epoch 0 the surrogate's instruction encoder (for the LSTM, the
    /// embedding and token-level LSTM, which never read θ) runs once per
    /// distinct instruction of the training set (see
    /// [`instruction_summaries`]); every sample then runs only the
    /// block-level model through [`SurrogateModel::forward_frozen`]. The
    /// predictions and θ's gradients are bit-equal to running `forward` per
    /// sample, so the learned table is too. Per-sample gradients go through
    /// the deterministic batch engine on `config.threads` workers.
    fn train_table(&mut self, surrogate: &dyn SurrogateModel) -> (ThetaTable, Vec<f64>, SimParams) {
        let config = &self.config;
        let spec = &self.spec;
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));
        let default_theta = ThetaTable::from_table(&self.defaults);

        // Initialize the table to a random sample from the sampling
        // distribution (Section IV), keeping unlearned entries at the defaults.
        let initial_table = sample_table(&mut rng, spec, &self.defaults);
        let mut theta = ThetaTable::from_table(&initial_table);
        theta.freeze_unlearned(spec, &default_theta);
        let initial = theta.to_sim_params();

        // The optimization store: frozen surrogate weights plus θ. Only θ ever
        // receives optimizer updates.
        let mut store = surrogate.params().clone();
        let theta_id = store.add("difftune.theta", theta.tensor());
        let mut optimizer = Adam::new(config.table_learning_rate);

        let vocab = Vocab::new();
        let blocks: Vec<TokenizedBlock> = self
            .pairs
            .iter()
            .map(|(block, _)| vocab.tokenize_block(block))
            .collect();
        // The surrogate's weights are frozen, so an instruction encoder that
        // never reads θ gives the same vector every epoch: encode each
        // distinct instruction once, before epoch 0, and run only the
        // block-level model per sample.
        let summaries = instruction_summaries(surrogate, &blocks, config.threads);
        let samples: Vec<TableSample<'_>> = blocks
            .iter()
            .zip(&self.pairs)
            .enumerate()
            .map(|(index, (block, (_, timing)))| TableSample {
                block,
                opcodes: block.insts.iter().map(|inst| inst.opcode).collect(),
                encoded: summaries.as_ref().map_or_else(Vec::new, |(table, ids)| {
                    ids[index].iter().map(|&id| &table[id]).collect()
                }),
                timing: *timing,
            })
            .collect();

        // The deterministic batch engine: per-sample gradients on worker
        // threads, reduced in fixed sample order, so the learned table is
        // bit-identical for every thread count (see tests/determinism.rs).
        // Only θ's gradient is collected: the surrogate stays frozen, and the
        // backward pass skips all work that cannot reach θ.
        let mut engine = Batch::new(config.threads);
        let mut grads = Grads::only(&store, &[theta_id]);

        let mut order: Vec<usize> = (0..samples.len()).collect();
        let batches = order.len().div_ceil(config.table_batch_size.max(1));
        let mut losses = Vec::with_capacity(config.table_epochs);
        for epoch in 0..config.table_epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            for (batch_index, batch) in order.chunks(config.table_batch_size).enumerate() {
                let seed = 1.0 / batch.len() as f32;
                let batch_refs: Vec<&TableSample<'_>> =
                    batch.iter().map(|&i| &samples[i]).collect();

                grads.reset(&store);
                let batch_loss = engine.accumulate(
                    &store,
                    &batch_refs,
                    |graph, sample| {
                        let theta_var = graph.param(theta_id);
                        let (features, global) =
                            ThetaTable::feature_vars(graph, theta_var, &sample.opcodes);
                        let prediction = surrogate.forward_frozen(
                            graph,
                            sample.block,
                            &sample.encoded,
                            Some(&features),
                            Some(global),
                        );
                        let target = sample.timing.max(1e-3) as f32;
                        let target_var = graph.input(Tensor::scalar(target));
                        let diff = graph.sub(prediction, target_var);
                        let abs = graph.abs(diff);
                        graph.scale(abs, 1.0 / target)
                    },
                    seed,
                    &mut grads,
                );

                optimizer.step(&mut store, &grads);

                // Restore any frozen entries to their default values and keep
                // the learned entries inside the surrogate's training region.
                let mut updated = ThetaTable::from_tensor(store.get(theta_id));
                if config.clamp_to_sampling {
                    updated.clamp_to_sampling(spec);
                }
                updated.freeze_unlearned(spec, &default_theta);
                *store.get_mut(theta_id) = updated.tensor();

                epoch_loss += batch_loss;
                Self::emit(
                    &mut self.observers,
                    &ProgressEvent::TableBatch {
                        epoch,
                        batch: batch_index,
                        batches,
                        mean_loss: batch_loss / batch.len().max(1) as f64,
                    },
                );
            }
            let mean_loss = epoch_loss / samples.len().max(1) as f64;
            losses.push(mean_loss);
            Self::emit(
                &mut self.observers,
                &ProgressEvent::TableEpoch {
                    epoch,
                    epochs: config.table_epochs,
                    mean_loss,
                },
            );
        }

        let final_theta = ThetaTable::from_tensor(store.get(theta_id));
        (final_theta, losses, initial)
    }
}

/// One table-optimization sample: a training block, its opcodes (θ's rows),
/// each instruction's frozen encoding (empty for a surrogate without an
/// instruction encoder), and the measured timing.
struct TableSample<'a> {
    block: &'a TokenizedBlock,
    opcodes: Vec<OpcodeId>,
    encoded: Vec<&'a Tensor>,
    timing: f64,
}

/// The frozen surrogate's instruction encodings for a training set: one
/// vector per distinct token sequence, sorted by tokens, and for each block
/// its instructions' indices into those vectors.
///
/// Sorted neighbours share long prefixes that the encoder's walk steps once
/// (see [`SurrogateModel::encode_instructions_with`]), and the list is cut
/// into contiguous runs over up to `threads` workers (`0` = all cores), each
/// encoding its run with its own [`EncoderMemo`]. The cuts balance token
/// steps, not instructions: a sequence costs its length less the prefix it
/// shares with its sorted predecessor. Each vector depends only on its own
/// tokens, so the table is the same for every worker count.
///
/// Returns `None` when the surrogate has no instruction encoder.
fn instruction_summaries(
    surrogate: &dyn SurrogateModel,
    blocks: &[TokenizedBlock],
    threads: usize,
) -> Option<(Vec<Tensor>, Vec<Vec<usize>>)> {
    let mut insts: Vec<&TokenizedInst> = blocks.iter().flat_map(|block| &block.insts).collect();
    insts.sort_unstable_by(|a, b| a.tokens.cmp(&b.tokens));
    insts.dedup_by(|a, b| a.tokens == b.tokens);
    let ids: Vec<Vec<usize>> = blocks
        .iter()
        .map(|block| {
            block
                .insts
                .iter()
                .map(|inst| {
                    insts
                        .binary_search_by(|entry| entry.tokens.cmp(&inst.tokens))
                        .expect("every instruction is in the table")
                })
                .collect()
        })
        .collect();
    let steps: Vec<usize> = insts
        .iter()
        .enumerate()
        .map(|(at, inst)| {
            let previous = at.checked_sub(1).map_or(&[][..], |p| &insts[p].tokens[..]);
            let shared = previous
                .iter()
                .zip(&inst.tokens)
                .take_while(|(a, b)| a == b)
                .count();
            inst.tokens.len() - shared
        })
        .collect();
    let runs = balanced_runs(&steps, resolve_threads(threads));
    let encoded = std::thread::scope(|scope| {
        let handles: Vec<_> = runs
            .into_iter()
            .map(|run| {
                let run = &insts[run];
                scope.spawn(move || {
                    surrogate.encode_instructions_with(run, &mut EncoderMemo::default())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("instruction encoder worker panicked"))
            .collect::<Option<Vec<Vec<Tensor>>>>()
    })?
    .into_iter()
    .flatten()
    .collect();
    Some((encoded, ids))
}

/// Cuts `costs` into at most `workers` contiguous, non-empty runs of about
/// equal total cost: the `k`-th cut goes before the element whose cost
/// would carry the running sum further past `k/workers` of the total than
/// stopping short of it.
fn balanced_runs(costs: &[usize], workers: usize) -> Vec<std::ops::Range<usize>> {
    let workers = workers.clamp(1, costs.len().max(1));
    let total: usize = costs.iter().sum();
    let mut runs = Vec::with_capacity(workers);
    let (mut start, mut so_far) = (0, 0);
    for (at, cost) in costs.iter().enumerate() {
        // Sums scaled by `workers`, so the cut's share needs no division.
        let share = total * (runs.len() + 1);
        let (before, after) = (so_far * workers, (so_far + cost) * workers);
        if runs.len() + 1 < workers
            && at > start
            && after > share
            && after - share > share.saturating_sub(before)
        {
            runs.push(start..at);
            start = at;
        }
        so_far += cost;
    }
    runs.push(start..costs.len());
    runs
}

/// Order-sensitive FNV-1a fingerprint of the training pairs, used to bind a
/// checkpoint to the data that produced it. FNV is hand-rolled (rather than
/// `DefaultHasher`) because the digest is persisted: it must be stable across
/// Rust versions and processes.
fn fingerprint_pairs(pairs: &[(BasicBlock, f64)]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    };
    for (block, timing) in pairs {
        for byte in block.to_string().bytes() {
            eat(byte);
        }
        for byte in timing.to_bits().to_le_bytes() {
            eat(byte);
        }
        eat(0xff);
    }
    hash
}

/// Checks that a spec's sampling ranges are usable.
fn validate_spec(spec: &ParamSpec) -> Result<(), DiffTuneError> {
    let ranges = [
        ("sampling.write_latency", spec.sampling.write_latency),
        ("sampling.port_cycles", spec.sampling.port_cycles),
        ("sampling.ports_used", spec.sampling.ports_used),
        ("sampling.read_advance", spec.sampling.read_advance),
        ("sampling.num_micro_ops", spec.sampling.num_micro_ops),
        ("sampling.dispatch_width", spec.sampling.dispatch_width),
        ("sampling.reorder_buffer", spec.sampling.reorder_buffer),
    ];
    for (field, (lo, hi)) in ranges {
        if lo > hi {
            return Err(DiffTuneError::InvalidConfig {
                field,
                message: format!("range {lo}..={hi} is empty"),
            });
        }
    }
    Ok(())
}

/// Checks that the defaults table covers every opcode the training set uses
/// (θ is indexed by opcode, so a too-small table would read out of bounds).
fn validate_defaults(
    defaults: &SimParams,
    pairs: &[(BasicBlock, f64)],
) -> Result<(), DiffTuneError> {
    let vocab = Vocab::new();
    let covered = defaults.num_opcodes();
    for (block, _) in pairs {
        let tokenized = vocab.tokenize_block(block);
        if let Some(inst) = tokenized
            .insts
            .iter()
            .find(|inst| inst.opcode.index() >= covered)
        {
            return Err(DiffTuneError::InvalidConfig {
                field: "defaults",
                message: format!(
                    "the defaults table covers {covered} opcodes but the training set uses \
                     opcode index {}",
                    inst.opcode.index()
                ),
            });
        }
    }
    Ok(())
}

/// Checks that saved surrogate weights fit a freshly built model.
fn check_params_compatible(fresh: &Params, saved: &Params) -> Result<(), DiffTuneError> {
    if fresh.len() != saved.len() {
        return Err(DiffTuneError::Checkpoint {
            message: format!(
                "checkpoint has {} weight tensors but the configured surrogate has {}",
                saved.len(),
                fresh.len()
            ),
        });
    }
    for ((_, fresh_name, fresh_value), (_, saved_name, saved_value)) in
        fresh.iter().zip(saved.iter())
    {
        if fresh_name != saved_name || fresh_value.shape() != saved_value.shape() {
            return Err(DiffTuneError::Checkpoint {
                message: format!(
                    "weight tensor mismatch: checkpoint has {saved_name} {:?}, the configured \
                     surrogate expects {fresh_name} {:?} — was the checkpoint taken with a \
                     different surrogate configuration?",
                    saved_value.shape(),
                    fresh_value.shape()
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use difftune_isa::{BlockGenerator, GeneratorConfig};
    use difftune_surrogate::{IthemalConfig, IthemalModel};

    #[test]
    fn instruction_summaries_are_bit_identical_for_every_thread_count() {
        let model = IthemalModel::new(IthemalConfig {
            embed_dim: 8,
            hidden_dim: 12,
            instr_layers: 2,
            block_layers: 1,
            parameter_inputs: true,
            seed: 5,
        });
        let generator = BlockGenerator::new(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let vocab = Vocab::new();
        let blocks: Vec<TokenizedBlock> = (0..60)
            .map(|_| vocab.tokenize_block(&generator.generate(&mut rng)))
            .collect();
        let bits = |threads: usize| {
            let (table, ids) = instruction_summaries(&model, &blocks, threads).unwrap();
            let table: Vec<Vec<u32>> = table
                .iter()
                .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
                .collect();
            (table, ids)
        };
        let (table, ids) = bits(1);
        assert_eq!(bits(2), (table.clone(), ids.clone()), "2 threads");
        assert_eq!(bits(3), (table.clone(), ids.clone()), "3 threads");
        // One vector per distinct sequence, and each block's ids point at
        // its own instructions' encodings.
        let distinct: std::collections::HashSet<&[usize]> = blocks
            .iter()
            .flat_map(|block| &block.insts)
            .map(|inst| &inst.tokens[..])
            .collect();
        assert_eq!(table.len(), distinct.len());
        let insts: Vec<&TokenizedInst> = blocks.iter().flat_map(|block| &block.insts).collect();
        let direct: Vec<Vec<u32>> = model
            .encode_instructions_with(&insts, &mut EncoderMemo::default())
            .unwrap()
            .iter()
            .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
            .collect();
        let looked_up: Vec<Vec<u32>> = ids.iter().flatten().map(|&id| table[id].clone()).collect();
        assert_eq!(looked_up, direct);
    }

    #[test]
    fn balanced_runs_are_contiguous_non_empty_and_balance_cost() {
        assert_eq!(balanced_runs(&[], 3), vec![0..0]);
        assert_eq!(balanced_runs(&[4, 1, 1, 1, 1], 2), vec![0..1, 1..5]);
        assert_eq!(balanced_runs(&[1, 1, 10], 2), vec![0..2, 2..3]);
        assert_eq!(balanced_runs(&[2, 2], 5), vec![0..1, 1..2]);
        assert_eq!(
            balanced_runs(&[3, 3, 3, 3, 3, 3], 3),
            vec![0..2, 2..4, 4..6]
        );
    }
}
