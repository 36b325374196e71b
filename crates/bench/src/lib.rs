//! Shared infrastructure for the benchmark harness.
//!
//! Every paper table and figure has a binary in `src/bin/` that reproduces it;
//! this library holds the pieces they share: the scale configuration (smoke /
//! small / paper, selected with the `DIFFTUNE_SCALE` environment variable),
//! dataset construction, the standard DiffTune configuration per scale, and
//! the baseline runners (Ithemal, the IACA-style analytical model, and the
//! OpenTuner-style black-box tuner with evaluation-budget parity).

#![forbid(unsafe_code)]

pub mod cli;
pub mod matrix;
pub mod record;

use difftune::{DiffTuneBuilder, DiffTuneConfig, DiffTuneResult, ParamSpec, SurrogateKind};
use difftune_bhive::{CorpusConfig, Dataset, Record};
use difftune_cpu::{default_params, AnalyticalModel, Microarch};
use difftune_opentuner::{BanditTuner, SearchSpace, TunerConfig};
use difftune_sim::{McaSimulator, ParamBounds, SimParams, Simulator};
use difftune_surrogate::train::{train, TrainConfig, TrainSample};
use difftune_surrogate::{IthemalConfig, IthemalModel, Vocab};

/// An unrecognized scale name, from `DIFFTUNE_SCALE` or a `--scale` flag.
/// Its message lists the valid names; the caller names the source and the
/// value, as `difftune_bench::cli` does for flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScale {
    /// The value supplied.
    pub given: String,
}

impl std::fmt::Display for UnknownScale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("valid scales are \"smoke\", \"small\", and \"paper\"")
    }
}

impl std::error::Error for UnknownScale {}

/// The evaluation scale, selected by the `DIFFTUNE_SCALE` environment variable
/// (`smoke`, `small` — the default, or `paper`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A seconds-long scale for CI-style smoke runs.
    Smoke,
    /// The default laptop scale used for the numbers in EXPERIMENTS.md.
    Small,
    /// A larger scale approaching the paper's dataset sizes (hours).
    Paper,
}

impl Scale {
    /// Parses a scale name. Empty means [`Scale::Small`]; anything else must
    /// name a valid scale — a typo such as `papper` is reported instead of
    /// silently running at the default scale.
    pub fn parse(raw: &str) -> Result<Scale, UnknownScale> {
        match raw.to_ascii_lowercase().as_str() {
            "" => Ok(Scale::Small),
            "smoke" => Ok(Scale::Smoke),
            "small" => Ok(Scale::Small),
            "paper" => Ok(Scale::Paper),
            _ => Err(UnknownScale {
                given: raw.to_string(),
            }),
        }
    }

    /// Reads the scale from the `DIFFTUNE_SCALE` environment variable via
    /// [`Scale::parse`] (unset means [`Scale::Small`]).
    pub fn from_env() -> Result<Scale, UnknownScale> {
        Scale::parse(&std::env::var("DIFFTUNE_SCALE").unwrap_or_default())
    }

    /// The scale's lowercase name, as accepted by [`Scale::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }

    /// [`Scale::from_env`] for the table/figure binaries: prints the error and
    /// exits with a nonzero status on an unrecognized value.
    pub fn from_env_or_exit() -> Scale {
        Scale::from_env().unwrap_or_else(|error| {
            eprintln!("DIFFTUNE_SCALE {:?}: {error}", error.given);
            std::process::exit(2);
        })
    }

    /// Number of corpus blocks generated per microarchitecture.
    pub fn corpus_blocks(self) -> usize {
        match self {
            Scale::Smoke => 600,
            Scale::Small => 4_000,
            Scale::Paper => 60_000,
        }
    }

    /// The simulated-dataset cap used for surrogate training.
    pub fn max_simulated(self) -> usize {
        match self {
            Scale::Smoke => 2_000,
            Scale::Small => 16_000,
            Scale::Paper => 600_000,
        }
    }

    /// The DiffTune configuration for this scale.
    pub fn difftune_config(self, seed: u64) -> DiffTuneConfig {
        let surrogate = match self {
            // The smoke scale uses the fast feature-MLP surrogate; the other
            // scales use the paper's LSTM surrogate (reduced width at the small
            // scale, see EXPERIMENTS.md).
            Scale::Smoke => SurrogateKind::Mlp(difftune_surrogate::FeatureMlpConfig {
                hidden_dim: 32,
                seed,
                ..Default::default()
            }),
            Scale::Small => SurrogateKind::Lstm(IthemalConfig {
                embed_dim: 32,
                hidden_dim: 64,
                instr_layers: 1,
                block_layers: 1,
                parameter_inputs: true,
                seed,
            }),
            Scale::Paper => SurrogateKind::Lstm(IthemalConfig {
                embed_dim: 64,
                hidden_dim: 128,
                instr_layers: 1,
                block_layers: 4,
                parameter_inputs: true,
                seed,
            }),
        };
        DiffTuneConfig {
            surrogate,
            simulated_multiplier: match self {
                Scale::Smoke => 3.0,
                Scale::Small => 5.0,
                Scale::Paper => 10.0,
            },
            max_simulated: self.max_simulated(),
            surrogate_train: TrainConfig {
                epochs: match self {
                    Scale::Smoke => 3,
                    Scale::Small => 5,
                    Scale::Paper => 6,
                },
                // The paper trains the surrogate with batch 256; the smaller
                // library default exists for laptop-scale datasets.
                batch_size: if self == Scale::Paper { 256 } else { 32 },
                ..TrainConfig::default()
            },
            table_learning_rate: 0.05,
            table_epochs: if self == Scale::Paper { 1 } else { 5 },
            table_batch_size: if self == Scale::Paper { 256 } else { 32 },
            clamp_to_sampling: true,
            seed,
            threads: 0,
        }
    }
}

/// Builds the measured dataset for a microarchitecture at a scale.
pub fn dataset_for(uarch: Microarch, scale: Scale, seed: u64) -> Dataset {
    let config = CorpusConfig {
        num_blocks: scale.corpus_blocks(),
        seed,
        ..CorpusConfig::default()
    };
    Dataset::build(uarch, &config)
}

/// `(block, timing)` pairs for a split, as consumed by
/// [`DiffTuneBuilder::build`].
pub fn pairs(records: &[&Record]) -> Vec<(difftune_isa::BasicBlock, f64)> {
    records
        .iter()
        .map(|r| (r.block.clone(), r.timing))
        .collect()
}

/// Evaluates a parameter table under a simulator on a set of records,
/// returning `(error, kendall_tau)`. The predictions are computed in one
/// [`Simulator::predict_batch`] call (parallel across cores) rather than a
/// per-block loop.
pub fn evaluate_params(
    simulator: &dyn Simulator,
    params: &SimParams,
    records: &[&Record],
) -> (f64, f64) {
    let blocks: Vec<difftune_isa::BasicBlock> = records.iter().map(|r| r.block.clone()).collect();
    let predictions = simulator.predict_batch(params, &blocks);
    Dataset::evaluate_predictions(records, &predictions)
}

/// Runs DiffTune for a microarchitecture at a scale through the session API,
/// printing stage transitions and losses to stderr so long runs show
/// progress.
pub fn run_difftune(
    simulator: &dyn Simulator,
    spec: &ParamSpec,
    uarch: Microarch,
    dataset: &Dataset,
    scale: Scale,
    seed: u64,
) -> DiffTuneResult {
    let mut config = scale.difftune_config(seed);
    apply_env_threads_or_exit(&mut config);
    let train_pairs = pairs(&dataset.train());
    let mut session = DiffTuneBuilder::new(config)
        .build(simulator, spec, &default_params(uarch), &train_pairs)
        .unwrap_or_else(|error| panic!("DiffTune session rejected its input: {error}"));
    session.add_observer(Box::new(|event: &difftune::ProgressEvent| {
        use difftune::ProgressEvent;
        match event {
            ProgressEvent::StageStarted { stage } => eprintln!("[difftune] stage {stage:?}"),
            ProgressEvent::SurrogateEpoch {
                epoch,
                epochs,
                mean_loss,
            } => eprintln!(
                "[difftune] surrogate epoch {}/{epochs}: loss {mean_loss:.4}",
                epoch + 1
            ),
            ProgressEvent::TableEpoch {
                epoch,
                epochs,
                mean_loss,
            } => eprintln!(
                "[difftune] table epoch {}/{epochs}: loss {mean_loss:.4}",
                epoch + 1
            ),
            _ => {}
        }
    }));
    session
        .run_to_completion()
        .unwrap_or_else(|error| panic!("DiffTune run failed: {error}"))
}

/// Applies the `DIFFTUNE_THREADS` knob to a configuration, printing the typed
/// error and exiting with a nonzero status on an invalid value — the binary
/// entry points' counterpart of [`difftune::apply_env_threads`], mirroring
/// [`Scale::from_env_or_exit`].
pub fn apply_env_threads_or_exit(config: &mut DiffTuneConfig) {
    if let Err(error) = difftune::apply_env_threads(config) {
        eprintln!("{error}");
        std::process::exit(2);
    }
}

/// Trains the Ithemal baseline (the surrogate architecture without parameter
/// inputs) directly on the measured training set and returns its test error
/// and Kendall's tau.
pub fn ithemal_baseline(dataset: &Dataset, scale: Scale, seed: u64) -> (f64, f64) {
    let vocab = Vocab::new();
    let make_samples = |records: &[&Record]| -> Vec<TrainSample> {
        records
            .iter()
            .filter(|r| !r.block.is_empty())
            .map(|r| TrainSample {
                block: vocab.tokenize_block(&r.block),
                per_inst_features: None,
                global_features: None,
                target: r.timing,
            })
            .collect()
    };
    let train_samples = make_samples(&dataset.train());
    let config = match scale {
        Scale::Smoke => IthemalConfig {
            embed_dim: 12,
            hidden_dim: 24,
            instr_layers: 1,
            block_layers: 1,
            parameter_inputs: false,
            seed,
        },
        Scale::Small => IthemalConfig {
            embed_dim: 16,
            hidden_dim: 32,
            instr_layers: 1,
            block_layers: 1,
            parameter_inputs: false,
            seed,
        },
        Scale::Paper => IthemalConfig {
            embed_dim: 64,
            hidden_dim: 128,
            instr_layers: 1,
            block_layers: 4,
            parameter_inputs: false,
            seed,
        },
    };
    let mut model = IthemalModel::new(config);
    let train_config = TrainConfig {
        epochs: match scale {
            Scale::Smoke => 2,
            Scale::Small => 6,
            Scale::Paper => 10,
        },
        batch_size: if scale == Scale::Paper { 256 } else { 32 },
        ..TrainConfig::default()
    };
    train(&mut model, &train_samples, &train_config).expect("baseline hyperparameters are valid");

    let test = dataset.test();
    Dataset::evaluate(&test, |block| {
        let tokenized = vocab.tokenize_block(block);
        model.predict(&tokenized, None, None)
    })
}

/// The IACA-style analytical baseline's test error and Kendall's tau, or
/// `None` for microarchitectures it does not support (Zen 2).
pub fn analytical_baseline(uarch: Microarch, dataset: &Dataset) -> Option<(f64, f64)> {
    let model = AnalyticalModel::new(uarch)?;
    Some(Dataset::evaluate(&dataset.test(), |block| {
        model.predict(block)
    }))
}

/// Runs the OpenTuner-style black-box baseline with evaluation-budget parity:
/// the tuner may evaluate as many basic blocks end-to-end as DiffTune does
/// (simulated dataset plus its passes over the training set), grouped into
/// objective evaluations over a fixed subsample of training blocks.
pub fn opentuner_baseline(
    simulator: &dyn Simulator,
    uarch: Microarch,
    dataset: &Dataset,
    scale: Scale,
    seed: u64,
) -> (SimParams, f64, f64) {
    let train = dataset.train();
    let subsample: Vec<&Record> = train.iter().take(100).copied().collect();
    let difftune_block_budget =
        scale.max_simulated() + train.len() * scale.difftune_config(seed).table_epochs;
    let evaluations = (difftune_block_budget / subsample.len().max(1)).clamp(20, 5_000);

    // Search space: the paper constrains per-instruction parameters to 0–5,
    // DispatchWidth to 1–10 and ReorderBufferSize to 50–250.
    let defaults = default_params(uarch);
    let flat_len = defaults.to_flat().len();
    let mut lower = vec![0.0; flat_len];
    let mut upper = vec![5.0; flat_len];
    lower[0] = 1.0;
    upper[0] = 10.0;
    lower[1] = 50.0;
    upper[1] = 250.0;
    let space = SearchSpace::new(lower, upper);

    let mut tuner = BanditTuner::new(
        space,
        TunerConfig {
            seed,
            ..TunerConfig::default()
        },
    );
    let bounds = ParamBounds::default();
    let subsample_blocks: Vec<difftune_isa::BasicBlock> =
        subsample.iter().map(|r| r.block.clone()).collect();
    let result = tuner.optimize(
        |flat| {
            let params = SimParams::from_flat(flat, &bounds);
            let predictions = simulator.predict_batch(&params, &subsample_blocks);
            Dataset::evaluate_predictions(&subsample, &predictions).0
        },
        evaluations,
    );
    let params = SimParams::from_flat(&result.best, &bounds);
    let (error, tau) = evaluate_params(simulator, &params, &dataset.test());
    (params, error, tau)
}

/// Formats a percentage for table output.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Prints a standard table row.
pub fn row(architecture: &str, predictor: &str, error: f64, tau: f64) {
    println!(
        "{architecture:<12} {predictor:<12} {:<10} {tau:.3}",
        pct(error)
    );
}

/// A default llvm-mca-style simulator instance shared by the binaries.
pub fn mca() -> McaSimulator {
    McaSimulator::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_accepts_valid_scales_and_rejects_typos() {
        // One test touches the env var sequentially, so parallel tests never
        // observe a transient value.
        assert_eq!(Scale::from_env(), Ok(Scale::Small), "unset means small");
        std::env::set_var("DIFFTUNE_SCALE", "SMOKE");
        assert_eq!(Scale::from_env(), Ok(Scale::Smoke), "case-insensitive");
        std::env::set_var("DIFFTUNE_SCALE", "papper");
        let error = Scale::from_env().unwrap_err();
        assert_eq!(error.given, "papper");
        let message = error.to_string();
        for valid in ["smoke", "small", "paper"] {
            assert!(message.contains(valid), "{message:?} must list {valid:?}");
        }
        std::env::remove_var("DIFFTUNE_SCALE");

        assert!(Scale::Smoke.corpus_blocks() < Scale::Small.corpus_blocks());
        assert!(Scale::Small.corpus_blocks() < Scale::Paper.corpus_blocks());
    }

    #[test]
    fn smoke_scale_pipeline_helpers_work_end_to_end() {
        let scale = Scale::Smoke;
        let dataset = dataset_for(Microarch::Haswell, scale, 1);
        let sim = mca();
        let defaults = default_params(Microarch::Haswell);
        let (default_error, default_tau) = evaluate_params(&sim, &defaults, &dataset.test());
        assert!(default_error > 0.0 && default_error < 2.0);
        assert!(default_tau > 0.3);
        let analytical = analytical_baseline(Microarch::Haswell, &dataset);
        assert!(analytical.is_some());
        assert!(
            analytical_baseline(Microarch::Zen2, &dataset_for(Microarch::Zen2, scale, 1)).is_none()
        );
    }
}
