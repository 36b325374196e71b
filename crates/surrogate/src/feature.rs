//! A fast feature-based MLP surrogate.
//!
//! The paper's surrogate is the LSTM model in [`crate::IthemalModel`]. This
//! module provides a much cheaper alternative with the same interface: the
//! block is summarized by hand-engineered features (length, memory traffic,
//! instruction-class mix) plus the *mean* of the per-instruction parameter
//! features and the global parameter features, and a small MLP maps the summary
//! to a timing. It is used for the surrogate-family ablation and anywhere
//! wall-clock time matters more than fidelity.

use rand::rngs::StdRng;
use rand::SeedableRng;

use difftune_isa::{OpClass, OpcodeRegistry};
use difftune_tensor::nn::Linear;
use difftune_tensor::{Graph, Params, Tensor, Var};

use crate::encode::{TokenizedBlock, GLOBAL_FEATURES, PER_INST_FEATURES};
use crate::model::EncoderMemo;
use crate::SurrogateModel;

/// All operation classes, indexed for the static feature vector.
const CLASSES: [OpClass; 19] = [
    OpClass::IntAlu,
    OpClass::IntMul,
    OpClass::IntDiv,
    OpClass::Shift,
    OpClass::Mov,
    OpClass::Lea,
    OpClass::Stack,
    OpClass::BitScan,
    OpClass::VecAlu,
    OpClass::VecMul,
    OpClass::VecShuffle,
    OpClass::VecMov,
    OpClass::FpAdd,
    OpClass::FpMul,
    OpClass::FpDiv,
    OpClass::FpSqrt,
    OpClass::Fma,
    OpClass::Convert,
    OpClass::Nop,
];

/// Number of static (parameter-independent) block features.
const STATIC_FEATURES: usize = 4 + CLASSES.len();

/// Hyperparameters of the [`FeatureMlpModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FeatureMlpConfig {
    /// Width of the two hidden layers.
    pub hidden_dim: usize,
    /// Whether parameter features are consumed (surrogate mode).
    pub parameter_inputs: bool,
    /// Weight initialization seed.
    pub seed: u64,
}

impl Default for FeatureMlpConfig {
    fn default() -> Self {
        FeatureMlpConfig {
            hidden_dim: 64,
            parameter_inputs: true,
            seed: 0,
        }
    }
}

/// The feature-MLP surrogate.
#[derive(Debug)]
pub struct FeatureMlpModel {
    config: FeatureMlpConfig,
    params: Params,
    layer1: Linear,
    layer2: Linear,
    head: Linear,
}

impl FeatureMlpModel {
    /// Creates a model with freshly initialized weights.
    pub fn new(config: FeatureMlpConfig) -> Self {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let input_dim = if config.parameter_inputs {
            STATIC_FEATURES + PER_INST_FEATURES + GLOBAL_FEATURES
        } else {
            STATIC_FEATURES
        };
        let layer1 = Linear::new(
            &mut params,
            &mut rng,
            "mlp.layer1",
            input_dim,
            config.hidden_dim,
        );
        let layer2 = Linear::new(
            &mut params,
            &mut rng,
            "mlp.layer2",
            config.hidden_dim,
            config.hidden_dim,
        );
        let head = Linear::new(&mut params, &mut rng, "mlp.head", config.hidden_dim, 1);
        params.get_mut(head.param_ids()[1]).data_mut()[0] = 1.0;
        FeatureMlpModel {
            config,
            params,
            layer1,
            layer2,
            head,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &FeatureMlpConfig {
        &self.config
    }

    /// The static (parameter-independent) feature vector of a block.
    pub fn static_features(block: &TokenizedBlock) -> Tensor {
        let registry = OpcodeRegistry::global();
        let len = block.len().max(1) as f32;
        let mut loads = 0.0f32;
        let mut stores = 0.0f32;
        let mut vector = 0.0f32;
        let mut class_counts = [0.0f32; CLASSES.len()];
        for inst in &block.insts {
            let info = registry.info(inst.opcode);
            if info.loads() {
                loads += 1.0;
            }
            if info.stores() {
                stores += 1.0;
            }
            if info.class().is_vector() {
                vector += 1.0;
            }
            if let Some(slot) = CLASSES.iter().position(|&c| c == info.class()) {
                class_counts[slot] += 1.0;
            }
        }
        let mut data = vec![len / 16.0, loads / len, stores / len, vector / len];
        data.extend(class_counts.iter().map(|c| c / len));
        Tensor::vector(data)
    }

    /// Convenience prediction from plain tensors, through
    /// [`SurrogateModel::predict_plain`].
    pub fn predict(
        &self,
        block: &TokenizedBlock,
        per_inst_features: Option<&[Tensor]>,
        global: Option<&Tensor>,
    ) -> f64 {
        self.predict_plain(
            block,
            per_inst_features,
            global,
            &mut EncoderMemo::default(),
        )
    }
}

impl SurrogateModel for FeatureMlpModel {
    fn forward(
        &self,
        graph: &mut Graph<'_>,
        block: &TokenizedBlock,
        per_inst_features: Option<&[Var]>,
        global_feature_var: Option<Var>,
    ) -> Var {
        assert!(
            !block.is_empty(),
            "cannot run the surrogate on an empty block"
        );
        let static_features = graph.input(Self::static_features(block));
        let input = if self.config.parameter_inputs {
            let features =
                per_inst_features.expect("surrogate mode requires per-instruction features");
            assert_eq!(
                features.len(),
                block.len(),
                "one feature vector per instruction"
            );
            let global = global_feature_var.expect("surrogate mode requires global features");
            // Mean-pool the per-instruction parameter features.
            let mut pooled = features[0];
            for &feature in &features[1..] {
                pooled = graph.add(pooled, feature);
            }
            let pooled = graph.scale(pooled, 1.0 / features.len() as f32);
            graph.concat(&[static_features, pooled, global])
        } else {
            static_features
        };
        let h1 = self.layer1.forward(graph, input);
        let h1 = graph.relu(h1);
        let h2 = self.layer2.forward(graph, h1);
        let h2 = graph.relu(h2);
        let out = self.head.forward(graph, h2);
        graph.relu(out)
    }

    fn predict_plain(
        &self,
        block: &TokenizedBlock,
        per_inst_features: Option<&[Tensor]>,
        global: Option<&Tensor>,
        _memo: &mut EncoderMemo,
    ) -> f64 {
        assert!(
            !block.is_empty(),
            "cannot run the surrogate on an empty block"
        );
        // `forward`'s arithmetic, op for op.
        let mut input = Self::static_features(block).data().to_vec();
        if self.config.parameter_inputs {
            let features =
                per_inst_features.expect("surrogate mode requires per-instruction features");
            assert_eq!(
                features.len(),
                block.len(),
                "one feature vector per instruction"
            );
            let global = global.expect("surrogate mode requires global features");
            let mut pooled = features[0].data().to_vec();
            for feature in &features[1..] {
                assert_eq!(feature.len(), pooled.len(), "feature vector lengths");
                for (sum, x) in pooled.iter_mut().zip(feature.data()) {
                    *sum += x;
                }
            }
            let factor = 1.0 / features.len() as f32;
            input.extend(pooled.iter().map(|sum| sum * factor));
            input.extend_from_slice(global.data());
        }
        let relu = |values: &mut [f32]| values.iter_mut().for_each(|x| *x = x.max(0.0));
        let mut h1 = vec![0.0; self.layer1.output_dim];
        self.layer1.forward_plain(&self.params, &input, &mut h1);
        relu(&mut h1);
        let mut h2 = vec![0.0; self.layer2.output_dim];
        self.layer2.forward_plain(&self.params, &h1, &mut h2);
        relu(&mut h2);
        let mut out = [0.0];
        self.head.forward_plain(&self.params, &h2, &mut out);
        f64::from(out[0].max(0.0))
    }

    fn params(&self) -> &Params {
        &self.params
    }

    fn params_mut(&mut self) -> &mut Params {
        &mut self.params
    }

    fn uses_parameter_inputs(&self) -> bool {
        self.config.parameter_inputs
    }

    fn program_key(&self, block: &TokenizedBlock) -> Option<difftune_tensor::ProgramKey> {
        // The op sequence only depends on the number of pooled feature
        // vectors (one per instruction) and the surrogate-mode flag.
        Some(vec![
            1,
            u32::from(self.config.parameter_inputs),
            u32::try_from(block.len()).ok()?,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{block_param_features, global_features, Vocab};
    use difftune_isa::BasicBlock;
    use difftune_sim::SimParams;

    fn tokenized(text: &str) -> TokenizedBlock {
        let block: BasicBlock = text.parse().unwrap();
        Vocab::new().tokenize_block(&block)
    }

    #[test]
    fn static_features_reflect_block_structure() {
        let block = tokenized("movq (%rdi), %rax\naddq %rax, %rbx\nmovq %rbx, 8(%rdi)");
        let features = FeatureMlpModel::static_features(&block);
        assert_eq!(features.len(), STATIC_FEATURES);
        assert!(
            (features.data()[1] - 1.0 / 3.0).abs() < 1e-6,
            "one load out of three instructions"
        );
        assert!(
            (features.data()[2] - 1.0 / 3.0).abs() < 1e-6,
            "one store out of three instructions"
        );
    }

    #[test]
    fn forward_is_finite_and_sensitive_to_parameters() {
        let model = FeatureMlpModel::new(FeatureMlpConfig {
            hidden_dim: 16,
            ..FeatureMlpConfig::default()
        });
        let block = tokenized("addq %rax, %rbx\nimulq %rbx, %rcx");
        let base = SimParams::uniform_default();
        let mut slow = base.clone();
        for entry in &mut slow.per_inst {
            entry.write_latency = 10;
        }
        let a = model.predict(
            &block,
            Some(&block_param_features(&base, &block)),
            Some(&global_features(&base)),
        );
        let b = model.predict(
            &block,
            Some(&block_param_features(&slow, &block)),
            Some(&global_features(&slow)),
        );
        assert!(a.is_finite() && b.is_finite());
        assert!((a - b).abs() > 1e-9);
    }

    #[test]
    fn baseline_mode_ignores_parameters() {
        let model = FeatureMlpModel::new(FeatureMlpConfig {
            parameter_inputs: false,
            hidden_dim: 8,
            seed: 1,
        });
        let block = tokenized("addq %rax, %rbx");
        let out = model.predict(&block, None, None);
        assert!(out.is_finite());
        assert!(!model.uses_parameter_inputs());
    }
}
