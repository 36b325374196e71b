//! Training loops for surrogate models.
//!
//! Both the surrogate (trained on simulated `(θ, x, ŷ)` triples, Equation 2)
//! and the Ithemal baseline (trained on measured `(x, y)` pairs) use the same
//! machinery: mini-batch Adam on the paper's mean-absolute-percentage-error
//! objective, with per-sample gradients computed on worker threads by the
//! deterministic [`Batch`] engine.
//!
//! # Determinism
//!
//! The batch engine reduces per-sample gradients in fixed sample order, so a
//! training run is **bit-identical for every thread count**: `threads: 1`
//! and `threads: 8` produce the same weights, losses, and reports
//! (`multi_threaded_training_is_bit_identical_to_single_threaded` below
//! asserts exact equality).

use difftune_tensor::optim::{Adam, Optimizer};
use difftune_tensor::{Batch, Grads, Graph, Tensor, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::encode::TokenizedBlock;
use crate::SurrogateModel;

/// One training sample: a block, optional parameter features, and the target
/// timing the model should reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSample {
    /// The tokenized block.
    pub block: TokenizedBlock,
    /// Per-instruction parameter features (surrogate mode), one per instruction.
    pub per_inst_features: Option<Vec<Tensor>>,
    /// Global parameter features (surrogate mode).
    pub global_features: Option<Tensor>,
    /// The timing the model should predict.
    pub target: f64,
}

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Adam learning rate (the paper uses 0.001 for the surrogate).
    pub learning_rate: f32,
    /// Mini-batch size. The paper uses 256 on V100-scale datasets; the default
    /// here is smaller because the laptop-scale datasets in this repository
    /// yield too few optimizer steps at 256 to train the LSTM surrogate.
    pub batch_size: usize,
    /// Number of passes over the sample set.
    pub epochs: usize,
    /// Global-norm gradient clipping threshold (0 disables clipping).
    pub grad_clip: f32,
    /// Shuffling seed.
    pub seed: u64,
    /// Number of worker threads (0 = use all available cores).
    pub threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            learning_rate: 1e-3,
            batch_size: 32,
            epochs: 1,
            grad_clip: 5.0,
            seed: 0,
            threads: 0,
        }
    }
}

/// A typed error from the training entry points.
///
/// Training used to `assert!` on malformed hyperparameters; every public
/// entry point now reports them as values so callers (in particular the
/// `difftune` session driver) can surface them without panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// `batch_size` was zero.
    InvalidBatchSize,
    /// The learning rate was zero, negative, or non-finite.
    InvalidLearningRate(f32),
    /// The gradient-clipping threshold was negative or NaN.
    InvalidGradClip(f32),
    /// The worker-thread count was absurdly large (0 means auto).
    InvalidThreads(usize),
}

/// Upper bound on explicit worker-thread counts (0 still means "all cores").
/// Spawning is per-chunk, so a count beyond any real machine is a config
/// mistake that would only waste memory on empty work ranges.
pub const MAX_THREADS: usize = 4096;

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::InvalidBatchSize => write!(f, "batch size must be positive"),
            TrainError::InvalidLearningRate(lr) => {
                write!(f, "learning rate must be finite and positive, got {lr}")
            }
            TrainError::InvalidGradClip(clip) => {
                write!(
                    f,
                    "gradient clip must be non-negative (0 disables), got {clip}"
                )
            }
            TrainError::InvalidThreads(threads) => {
                write!(
                    f,
                    "threads must be 0 (all cores) or at most {MAX_THREADS}, got {threads}"
                )
            }
        }
    }
}

impl std::error::Error for TrainError {}

impl TrainConfig {
    /// Checks the hyperparameters, returning the first problem found.
    pub fn validate(&self) -> Result<(), TrainError> {
        if self.batch_size == 0 {
            return Err(TrainError::InvalidBatchSize);
        }
        if !self.learning_rate.is_finite() || self.learning_rate <= 0.0 {
            return Err(TrainError::InvalidLearningRate(self.learning_rate));
        }
        if self.grad_clip.is_nan() || self.grad_clip < 0.0 {
            return Err(TrainError::InvalidGradClip(self.grad_clip));
        }
        if self.threads > MAX_THREADS {
            return Err(TrainError::InvalidThreads(self.threads));
        }
        Ok(())
    }
}

/// A telemetry event streamed out of the training loop, so long runs report
/// progress instead of going dark until the final [`TrainReport`].
#[derive(Debug, Clone, PartialEq)]
pub enum TrainEvent {
    /// One full pass over the sample set finished.
    EpochCompleted {
        /// Zero-based index of the completed epoch.
        epoch: usize,
        /// Total number of epochs this run will perform.
        epochs: usize,
        /// Mean per-sample loss (MAPE) over the epoch.
        mean_loss: f64,
    },
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean training loss (MAPE) per epoch.
    pub epoch_losses: Vec<f64>,
    /// Number of samples trained on.
    pub samples: usize,
}

impl TrainReport {
    /// The final epoch's mean loss.
    pub fn final_loss(&self) -> f64 {
        self.epoch_losses.last().copied().unwrap_or(f64::NAN)
    }
}

/// Builds the model's prediction for one sample on the graph, binding its
/// feature tensors as inputs.
fn sample_prediction<M: SurrogateModel + ?Sized>(
    model: &M,
    graph: &mut Graph<'_>,
    sample: &TrainSample,
) -> Var {
    let feature_vars: Option<Vec<Var>> = sample
        .per_inst_features
        .as_ref()
        .map(|features| features.iter().map(|f| graph.input(f.clone())).collect());
    let global_var = sample
        .global_features
        .as_ref()
        .map(|g| graph.input(g.clone()));
    model.forward(graph, &sample.block, feature_vars.as_deref(), global_var)
}

/// Builds the per-sample loss `|f̂(θ, x) − target| / target` on the graph.
fn sample_loss<M: SurrogateModel + ?Sized>(
    model: &M,
    graph: &mut Graph<'_>,
    sample: &TrainSample,
) -> Var {
    let prediction = sample_prediction(model, graph, sample);
    let target = sample.target.max(1e-3) as f32;
    let target_var = graph.input(Tensor::scalar(target));
    let diff = graph.sub(prediction, target_var);
    let abs = graph.abs(diff);
    graph.scale(abs, 1.0 / target)
}

/// Trains a surrogate model in place and returns per-epoch statistics.
pub fn train<M: SurrogateModel>(
    model: &mut M,
    samples: &[TrainSample],
    config: &TrainConfig,
) -> Result<TrainReport, TrainError> {
    let mut optimizer = Adam::new(config.learning_rate);
    train_with_optimizer(model, samples, config, &mut optimizer)
}

/// Trains with a caller-provided optimizer (useful for tests and schedules).
pub fn train_with_optimizer<M: SurrogateModel>(
    model: &mut M,
    samples: &[TrainSample],
    config: &TrainConfig,
    optimizer: &mut dyn Optimizer,
) -> Result<TrainReport, TrainError> {
    train_observed(model, samples, config, optimizer, &mut |_| {})
}

/// Trains while streaming a [`TrainEvent`] to `observe` after every epoch.
///
/// This is the primitive the other entry points wrap; the `difftune` session
/// driver uses it to forward per-epoch surrogate losses to its run observers.
pub fn train_observed<M: SurrogateModel>(
    model: &mut M,
    samples: &[TrainSample],
    config: &TrainConfig,
    optimizer: &mut dyn Optimizer,
    observe: &mut dyn FnMut(&TrainEvent),
) -> Result<TrainReport, TrainError> {
    config.validate()?;
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut engine = Batch::new(config.threads);
    let mut grads = Grads::new(model.params());

    let mut epoch_losses = Vec::with_capacity(config.epochs);
    for _ in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        for batch in order.chunks(config.batch_size) {
            let batch_samples: Vec<&TrainSample> = batch.iter().map(|&i| &samples[i]).collect();
            let seed = 1.0 / batch_samples.len() as f32;

            grads.reset(model.params());
            let model_ref: &M = &*model;
            let batch_loss = engine.accumulate(
                model_ref.params(),
                &batch_samples,
                |graph, sample| sample_loss(model_ref, graph, sample),
                seed,
                &mut grads,
            );

            if config.grad_clip > 0.0 {
                let norm = grads.global_norm();
                if norm > config.grad_clip {
                    grads.scale(config.grad_clip / norm);
                }
            }
            optimizer.step(model.params_mut(), &grads);
            epoch_loss += batch_loss;
        }
        let mean_loss = epoch_loss / samples.len().max(1) as f64;
        epoch_losses.push(mean_loss);
        observe(&TrainEvent::EpochCompleted {
            epoch: epoch_losses.len() - 1,
            epochs: config.epochs,
            mean_loss,
        });
    }
    Ok(TrainReport {
        epoch_losses,
        samples: samples.len(),
    })
}

/// Evaluates a model's mean absolute percentage error over samples.
pub fn evaluate<M: SurrogateModel>(model: &M, samples: &[TrainSample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for sample in samples {
        let mut graph = Graph::new(model.params());
        let prediction = sample_prediction(model, &mut graph, sample);
        let predicted = f64::from(graph.value(prediction)[0]);
        let target = sample.target.max(1e-3);
        total += (predicted - target).abs() / target;
    }
    total / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{block_param_features, global_features, Vocab};
    use crate::{FeatureMlpConfig, FeatureMlpModel, IthemalConfig, IthemalModel};
    use difftune_isa::BasicBlock;
    use difftune_sim::SimParams;

    fn make_samples(with_params: bool) -> Vec<TrainSample> {
        let vocab = Vocab::new();
        let texts = [
            ("addq %rax, %rbx", 1.0),
            ("addq %rax, %rbx\naddq %rbx, %rcx", 2.0),
            ("imulq %rbx, %rax\nimulq %rax, %rcx", 6.0),
            ("movq (%rdi), %rax\naddq %rax, %rbx", 2.0),
            ("divsd %xmm1, %xmm0", 14.0),
            ("pushq %rbx\ntestl %r8d, %r8d", 1.0),
            ("mulsd %xmm0, %xmm1\naddsd %xmm1, %xmm2", 8.0),
            ("xorl %eax, %eax", 0.3),
        ];
        let params = SimParams::uniform_default();
        texts
            .iter()
            .map(|(text, target)| {
                let block: BasicBlock = text.parse().unwrap();
                let block = vocab.tokenize_block(&block);
                TrainSample {
                    per_inst_features: with_params.then(|| block_param_features(&params, &block)),
                    global_features: with_params.then(|| global_features(&params)),
                    block,
                    target: *target,
                }
            })
            .collect()
    }

    #[test]
    fn training_the_mlp_surrogate_reduces_loss() {
        let mut model = FeatureMlpModel::new(FeatureMlpConfig {
            hidden_dim: 32,
            ..FeatureMlpConfig::default()
        });
        let samples = make_samples(true);
        let before = evaluate(&model, &samples);
        let config = TrainConfig {
            learning_rate: 3e-3,
            batch_size: 4,
            epochs: 60,
            threads: 1,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &samples, &config).unwrap();
        let after = evaluate(&model, &samples);
        assert_eq!(report.epoch_losses.len(), 60);
        assert!(
            after < before,
            "training must reduce error: {before} -> {after}"
        );
        assert!(
            after < 0.5,
            "the MLP should fit 8 samples well, got {after}"
        );
    }

    #[test]
    fn training_the_lstm_surrogate_reduces_loss() {
        let tiny = IthemalConfig {
            embed_dim: 8,
            hidden_dim: 16,
            instr_layers: 1,
            block_layers: 1,
            parameter_inputs: true,
            seed: 7,
        };
        let mut model = IthemalModel::new(tiny);
        let samples = make_samples(true);
        let before = evaluate(&model, &samples);
        let config = TrainConfig {
            learning_rate: 5e-3,
            batch_size: 4,
            epochs: 30,
            threads: 1,
            ..TrainConfig::default()
        };
        train(&mut model, &samples, &config).unwrap();
        let after = evaluate(&model, &samples);
        assert!(
            after < before,
            "training must reduce error: {before} -> {after}"
        );
    }

    #[test]
    fn baseline_mode_trains_without_parameter_features() {
        let mut model = FeatureMlpModel::new(FeatureMlpConfig {
            hidden_dim: 16,
            parameter_inputs: false,
            seed: 2,
        });
        let samples = make_samples(false);
        let config = TrainConfig {
            learning_rate: 3e-3,
            batch_size: 4,
            epochs: 40,
            threads: 1,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &samples, &config).unwrap();
        assert!(report.final_loss() < report.epoch_losses[0]);
    }

    #[test]
    fn multi_threaded_training_is_bit_identical_to_single_threaded() {
        // Batches of 16 span two reduction chunks, so they split over workers.
        let samples: Vec<TrainSample> = make_samples(true).into_iter().cycle().take(24).collect();
        let config_single = TrainConfig {
            learning_rate: 1e-3,
            batch_size: 16,
            epochs: 3,
            threads: 1,
            ..TrainConfig::default()
        };
        // Both families: the MLP, and the LSTM over variable-length blocks.
        let families: [fn() -> Box<dyn SurrogateModel>; 2] = [
            || {
                Box::new(FeatureMlpModel::new(FeatureMlpConfig {
                    hidden_dim: 16,
                    seed: 5,
                    ..FeatureMlpConfig::default()
                }))
            },
            || {
                Box::new(IthemalModel::new(IthemalConfig {
                    embed_dim: 8,
                    hidden_dim: 12,
                    instr_layers: 1,
                    block_layers: 1,
                    parameter_inputs: true,
                    seed: 5,
                }))
            },
        ];
        let bits = |report: &TrainReport| -> Vec<u64> {
            report.epoch_losses.iter().map(|l| l.to_bits()).collect()
        };

        for make_model in families {
            let mut single = make_model();
            let single_report = train(&mut single, &samples, &config_single).unwrap();

            // Same data, same seed, same batches: the deterministic batch
            // engine reduces gradients in sample order, so every thread
            // count must reproduce the serial run bit for bit — weights and
            // losses alike.
            for threads in [2, 4] {
                let config_multi = TrainConfig {
                    threads,
                    ..config_single.clone()
                };
                let mut multi = make_model();
                let multi_report = train(&mut multi, &samples, &config_multi).unwrap();
                assert_eq!(
                    single.params(),
                    multi.params(),
                    "weights diverged with {threads} threads"
                );
                assert_eq!(
                    bits(&single_report),
                    bits(&multi_report),
                    "epoch losses diverged with {threads} threads"
                );
            }
        }
    }

    #[test]
    fn evaluate_on_empty_sample_set_is_zero() {
        let model = FeatureMlpModel::new(FeatureMlpConfig::default());
        assert_eq!(evaluate(&model, &[]), 0.0);
    }
}
