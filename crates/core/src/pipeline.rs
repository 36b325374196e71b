//! Run configuration: the surrogate family and the pipeline's
//! hyperparameters. The session API in [`crate::session`]
//! ([`DiffTuneBuilder`](crate::DiffTuneBuilder) →
//! [`Session`](crate::Session)) runs the pipeline.

use difftune_surrogate::train::TrainConfig;
use difftune_surrogate::{
    FeatureMlpConfig, FeatureMlpModel, IthemalConfig, IthemalModel, SurrogateModel,
};

use crate::error::DiffTuneError;

/// Which surrogate family to use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SurrogateKind {
    /// The Ithemal-style LSTM surrogate from the paper (Figure 3).
    Lstm(IthemalConfig),
    /// The fast feature-MLP surrogate (used for ablations and quick runs).
    Mlp(FeatureMlpConfig),
}

/// Builds (but does not train) a surrogate of the given kind.
pub fn build_surrogate(kind: &SurrogateKind) -> Box<dyn SurrogateModel> {
    match *kind {
        SurrogateKind::Lstm(config) => Box::new(IthemalModel::new(config)),
        SurrogateKind::Mlp(config) => Box::new(FeatureMlpModel::new(config)),
    }
}

impl From<SurrogateKind> for difftune_surrogate::ModelConfig {
    /// The artifact-side rendering of a surrogate kind
    /// ([`difftune_surrogate::SurrogateArtifact`] stores a serde-capable
    /// `ModelConfig`; this crate's `SurrogateKind` stays the pipeline-facing
    /// selector).
    fn from(kind: SurrogateKind) -> Self {
        match kind {
            SurrogateKind::Lstm(config) => difftune_surrogate::ModelConfig::Lstm(config),
            SurrogateKind::Mlp(config) => difftune_surrogate::ModelConfig::Mlp(config),
        }
    }
}

impl From<difftune_surrogate::ModelConfig> for SurrogateKind {
    fn from(config: difftune_surrogate::ModelConfig) -> Self {
        match config {
            difftune_surrogate::ModelConfig::Lstm(c) => SurrogateKind::Lstm(c),
            difftune_surrogate::ModelConfig::Mlp(c) => SurrogateKind::Mlp(c),
        }
    }
}

/// Configuration of a DiffTune run.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffTuneConfig {
    /// Which surrogate family to train.
    pub surrogate: SurrogateKind,
    /// Size of the simulated dataset as a multiple of the training set (the
    /// paper uses 10×).
    pub simulated_multiplier: f64,
    /// Hard cap on the simulated dataset size (keeps laptop-scale runs fast).
    pub max_simulated: usize,
    /// Surrogate training hyperparameters (Equation 2; the paper uses Adam
    /// with learning rate 1e-3 and batch size 256).
    pub surrogate_train: TrainConfig,
    /// Learning rate for the parameter table (Equation 3; the paper uses 0.05).
    pub table_learning_rate: f32,
    /// Epochs of parameter-table training over the ground-truth training set
    /// (the paper uses 1).
    pub table_epochs: usize,
    /// Batch size for parameter-table training.
    pub table_batch_size: usize,
    /// Keep θ inside the sampling distribution's range during optimization
    /// (the surrogate is only trained inside that region; see Section VII).
    pub clamp_to_sampling: bool,
    /// Random seed.
    pub seed: u64,
    /// Worker threads (0 = all cores).
    pub threads: usize,
}

impl Default for DiffTuneConfig {
    /// A laptop-scale configuration using the fast feature-MLP surrogate; the
    /// paper-faithful LSTM surrogate is selected by the benchmark binaries via
    /// [`SurrogateKind::Lstm`].
    fn default() -> Self {
        DiffTuneConfig {
            surrogate: SurrogateKind::Mlp(FeatureMlpConfig::default()),
            simulated_multiplier: 5.0,
            max_simulated: 60_000,
            surrogate_train: TrainConfig {
                epochs: 3,
                ..TrainConfig::default()
            },
            table_learning_rate: 0.05,
            table_epochs: 1,
            table_batch_size: 256,
            clamp_to_sampling: true,
            seed: 0,
            threads: 0,
        }
    }
}

impl DiffTuneConfig {
    /// Checks every field, returning the first problem found.
    pub fn validate(&self) -> Result<(), DiffTuneError> {
        if !self.simulated_multiplier.is_finite() || self.simulated_multiplier <= 0.0 {
            return Err(DiffTuneError::InvalidConfig {
                field: "simulated_multiplier",
                message: format!(
                    "must be finite and positive, got {}",
                    self.simulated_multiplier
                ),
            });
        }
        if self.max_simulated == 0 {
            return Err(DiffTuneError::InvalidConfig {
                field: "max_simulated",
                message: "must be at least 1".to_string(),
            });
        }
        if self.table_batch_size == 0 {
            return Err(DiffTuneError::InvalidConfig {
                field: "table_batch_size",
                message: "must be at least 1".to_string(),
            });
        }
        if !self.table_learning_rate.is_finite() || self.table_learning_rate <= 0.0 {
            return Err(DiffTuneError::InvalidConfig {
                field: "table_learning_rate",
                message: format!(
                    "must be finite and positive, got {}",
                    self.table_learning_rate
                ),
            });
        }
        if self.threads > difftune_surrogate::train::MAX_THREADS {
            return Err(DiffTuneError::InvalidConfig {
                field: "threads",
                message: format!(
                    "must be 0 (all cores) or at most {}, got {}",
                    difftune_surrogate::train::MAX_THREADS,
                    self.threads
                ),
            });
        }
        self.surrogate_train.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::DiffTuneBuilder;
    use crate::spec::ParamSpec;
    use difftune_isa::BasicBlock;
    use difftune_sim::{McaSimulator, SimParams, Simulator};

    fn tiny_train_set(simulator: &McaSimulator, truth: &SimParams) -> Vec<(BasicBlock, f64)> {
        [
            "addq %rax, %rbx",
            "addq %rax, %rbx\naddq %rbx, %rcx",
            "imulq %rbx, %rcx\naddq %rcx, %rax",
            "movq (%rdi), %rax\naddq %rax, %rbx",
            "pushq %rbx\ntestl %r8d, %r8d",
            "xorl %eax, %eax\naddl %eax, %ebx",
            "mulsd %xmm0, %xmm1\naddsd %xmm1, %xmm2",
            "subq %rdx, %rsi\nleaq 8(%rsi), %rdi",
            "shrq $3, %rax\norq %rax, %rbx",
            "movq %rax, 8(%rsp)\nmovq 8(%rsp), %rbx",
        ]
        .iter()
        .map(|text| {
            let block: BasicBlock = text.parse().unwrap();
            let timing = simulator.predict(truth, &block);
            (block, timing)
        })
        .collect()
    }

    fn fast_config() -> DiffTuneConfig {
        DiffTuneConfig {
            surrogate: SurrogateKind::Mlp(FeatureMlpConfig {
                hidden_dim: 24,
                ..FeatureMlpConfig::default()
            }),
            simulated_multiplier: 40.0,
            max_simulated: 400,
            surrogate_train: TrainConfig {
                epochs: 10,
                batch_size: 64,
                threads: 1,
                ..TrainConfig::default()
            },
            table_learning_rate: 0.05,
            table_epochs: 4,
            table_batch_size: 10,
            clamp_to_sampling: true,
            seed: 3,
            threads: 1,
        }
    }

    #[test]
    fn pipeline_runs_end_to_end_and_respects_constraints() {
        // Ground truth produced by the simulator itself under a "true" table:
        // the surrogate-based optimization should produce a valid table and
        // reduce the training loss.
        let simulator = McaSimulator::new(16);
        let mut truth = SimParams::uniform_default();
        for entry in &mut truth.per_inst {
            entry.write_latency = 3;
        }
        let train_set = tiny_train_set(&simulator, &truth);
        let defaults = SimParams::uniform_default();

        let result = DiffTuneBuilder::new(fast_config())
            .build(&simulator, &ParamSpec::llvm_mca(), &defaults, &train_set)
            .unwrap()
            .run_to_completion()
            .unwrap();

        assert_eq!(result.learned.num_opcodes(), defaults.num_opcodes());
        assert!(result.learned.dispatch_width >= 1);
        assert!(result.learned.reorder_buffer_size >= 1);
        assert!(result.learned.per_inst.iter().all(|p| p.num_micro_ops >= 1));
        assert!(result.surrogate_report.final_loss().is_finite());
        assert!(!result.table_losses.is_empty());
        assert!(
            result.table_losses.last().unwrap() <= result.table_losses.first().unwrap(),
            "table training loss should not increase: {:?}",
            result.table_losses
        );
        assert_eq!(
            result.num_learned_parameters,
            ParamSpec::llvm_mca().num_learned(defaults.num_opcodes())
        );
        assert_eq!(result.skipped_blocks, 0);
    }

    #[test]
    fn write_latency_only_spec_keeps_other_parameters_at_defaults() {
        let simulator = McaSimulator::new(16);
        let truth = SimParams::uniform_default();
        let train_set = tiny_train_set(&simulator, &truth);
        let defaults = difftune_cpu::default_params(difftune_cpu::Microarch::Haswell);

        let mut config = fast_config();
        config.table_epochs = 60;
        config.table_learning_rate = 0.3;
        let result = DiffTuneBuilder::new(config)
            .build(
                &simulator,
                &ParamSpec::write_latency_only(),
                &defaults,
                &train_set,
            )
            .unwrap()
            .run_to_completion()
            .unwrap();

        assert_eq!(result.learned.dispatch_width, defaults.dispatch_width);
        assert_eq!(
            result.learned.reorder_buffer_size,
            defaults.reorder_buffer_size
        );
        for (learned, default) in result.learned.per_inst.iter().zip(&defaults.per_inst) {
            assert_eq!(learned.num_micro_ops, default.num_micro_ops);
            assert_eq!(learned.port_map, default.port_map);
            assert_eq!(learned.read_advance_cycles, default.read_advance_cycles);
        }
        // The write latencies of opcodes that appear in the training set should
        // have been touched by the optimizer for at least some opcodes.
        let changed = result
            .learned
            .per_inst
            .iter()
            .zip(&result.initial.per_inst)
            .filter(|(l, i)| l.write_latency != i.write_latency)
            .count();
        assert!(changed > 0, "training must move at least one write latency");
    }

    #[test]
    fn config_validation_rejects_bad_fields() {
        let config = DiffTuneConfig {
            simulated_multiplier: 0.0,
            ..DiffTuneConfig::default()
        };
        assert!(matches!(
            config.validate(),
            Err(DiffTuneError::InvalidConfig {
                field: "simulated_multiplier",
                ..
            })
        ));

        let config = DiffTuneConfig {
            table_batch_size: 0,
            ..DiffTuneConfig::default()
        };
        assert!(config.validate().is_err());

        let config = DiffTuneConfig {
            surrogate_train: TrainConfig {
                batch_size: 0,
                ..TrainConfig::default()
            },
            ..DiffTuneConfig::default()
        };
        assert!(matches!(
            config.validate(),
            Err(DiffTuneError::Surrogate(_))
        ));

        assert!(DiffTuneConfig::default().validate().is_ok());
    }
}
