//! Forward-only surrogate inference behind `surrogate:` backends.
//!
//! [`SurrogateForward`] owns everything one prediction needs — the trained
//! model, the tokenizer, the learned table it encodes as parameter features,
//! and the instruction encoder's memo — and produces one `f64` per basic
//! block with **no tape**: nothing flows backward at inference, so
//! [`SurrogateModel::predict_plain`] runs the whole model on plain kernels.
//! For the LSTM surrogate that is two steps:
//!
//! 1. **encode**: each instruction's token LSTM, starting from its opcode's
//!    memoized state ([`crate::EncoderMemo`]);
//! 2. **the block body**: each `[encoded ‖ θ features ‖ global]` row steps
//!    the block LSTM, then the linear head and the ReLU.
//!
//! The feature MLP has no encoder and runs its three layers the same way.
//! Every step calls the kernel its taped op calls, so a prediction returns
//! the bits of a taped [`SurrogateModel::forward`] pass. The memo holds at
//! most one entry per opcode, so an engine's memory stays bounded however
//! many blocks it sees.
//!
//! Both consumers of surrogate inference go through this type so they cannot
//! diverge: `difftune-serve` wraps it in its `Predictor` trait, and
//! `difftune-matrix` scores cells with it. The serving determinism
//! invariant — surrogate `/predict` bytes equal to an in-process forward
//! pass — holds because [`SurrogateForward::predict`] computes the
//! in-process forward pass's bits.

use difftune_isa::BasicBlock;
use difftune_sim::SimParams;
use difftune_tensor::Tensor;

use crate::artifact::SurrogateArtifact;
use crate::encode::{block_param_features, global_features, Vocab};
use crate::model::EncoderMemo;
use crate::SurrogateModel;

/// A trained surrogate bound to a learned table, ready to predict.
///
/// Prediction is deterministic and history-free: the same block returns the
/// same bits regardless of what was predicted before (the memo only decides
/// whether an opcode's leading state is computed or reused, and either is
/// bit-equal to the other).
#[derive(Debug)]
pub struct SurrogateForward {
    model: Box<dyn SurrogateModel>,
    vocab: Vocab,
    table: SimParams,
    global: Tensor,
    memo: EncoderMemo,
}

impl SurrogateForward {
    /// Binds a trained model to the learned table it encodes as features.
    pub fn new(model: Box<dyn SurrogateModel>, table: SimParams) -> Self {
        let global = global_features(&table);
        SurrogateForward {
            model,
            vocab: Vocab::new(),
            table,
            global,
            memo: EncoderMemo::default(),
        }
    }

    /// Loads a verified artifact's model and embedded table.
    ///
    /// # Errors
    ///
    /// Propagates [`SurrogateArtifact::load_model`] failures (weight/config
    /// incompatibility).
    pub fn from_artifact(artifact: &SurrogateArtifact) -> Result<Self, String> {
        Ok(SurrogateForward::new(
            artifact.load_model()?,
            artifact.table(),
        ))
    }

    /// The model answering predictions.
    pub fn model(&self) -> &dyn SurrogateModel {
        self.model.as_ref()
    }

    /// The learned table encoded as the model's parameter features.
    pub fn table(&self) -> &SimParams {
        &self.table
    }

    /// Always 0: inference runs on plain kernels and records no programs.
    pub fn programs_recorded(&self) -> usize {
        0
    }

    /// True for every non-empty block, since the model answers each of them.
    pub fn replayable(&self, block: &BasicBlock) -> bool {
        !block.is_empty()
    }

    /// Predicts one block's timing with [`SurrogateModel::predict_plain`].
    pub fn predict(&mut self, block: &BasicBlock) -> f64 {
        let tokenized = self.vocab.tokenize_block(block);
        let uses_parameters = self.model.uses_parameter_inputs();
        let per_inst: Option<Vec<Tensor>> =
            uses_parameters.then(|| block_param_features(&self.table, &tokenized));
        self.model.predict_plain(
            &tokenized,
            per_inst.as_deref(),
            uses_parameters.then_some(&self.global),
            &mut self.memo,
        )
    }

    /// Predicts a timing for every block, in order.
    pub fn predict_batch(&mut self, blocks: &[BasicBlock]) -> Vec<f64> {
        blocks.iter().map(|block| self.predict(block)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{FeatureMlpConfig, FeatureMlpModel};
    use crate::model::{IthemalConfig, IthemalModel};
    use difftune_isa::BlockGenerator;
    use difftune_tensor::{Graph, Var};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn blocks() -> Vec<BasicBlock> {
        [
            "addq %rax, %rbx",
            "imulq %rbx, %rcx\naddq %rcx, %rax",
            "movq (%rdi), %rax\naddq %rax, %rbx",
            "addq %rax, %rbx",
        ]
        .iter()
        .map(|text| text.parse().unwrap())
        .collect()
    }

    /// The reference: a fresh taped forward pass, nothing shared.
    fn taped_reference(model: &dyn SurrogateModel, table: &SimParams, block: &BasicBlock) -> f64 {
        let vocab = Vocab::new();
        let tokenized = vocab.tokenize_block(block);
        let features = model
            .uses_parameter_inputs()
            .then(|| block_param_features(table, &tokenized));
        let global = model
            .uses_parameter_inputs()
            .then(|| global_features(table));
        let mut graph = Graph::new(model.params());
        let feature_vars: Option<Vec<Var>> = features
            .as_ref()
            .map(|f| f.iter().map(|t| graph.input(t.clone())).collect());
        let global_var = global.as_ref().map(|g| graph.input(g.clone()));
        let prediction = model.forward(&mut graph, &tokenized, feature_vars.as_deref(), global_var);
        f64::from(graph.value(prediction)[0])
    }

    #[test]
    fn replayed_predictions_are_bit_equal_to_the_taped_pass() {
        let table = SimParams::uniform_default();
        let mlp = FeatureMlpModel::new(FeatureMlpConfig {
            hidden_dim: 8,
            parameter_inputs: true,
            seed: 1,
        });
        let lstm = IthemalModel::new(IthemalConfig {
            embed_dim: 8,
            hidden_dim: 12,
            instr_layers: 1,
            block_layers: 1,
            parameter_inputs: true,
            seed: 2,
        });
        let models: Vec<Box<dyn SurrogateModel>> = vec![Box::new(mlp), Box::new(lstm)];
        for model in models {
            let expected: Vec<u64> = blocks()
                .iter()
                .map(|b| taped_reference(model.as_ref(), &table, b).to_bits())
                .collect();
            let mut forward = SurrogateForward::new(model, table.clone());
            // Cold memo, then warm memo: both must match the reference.
            for _ in 0..2 {
                let got: Vec<u64> = forward
                    .predict_batch(&blocks())
                    .into_iter()
                    .map(f64::to_bits)
                    .collect();
                assert_eq!(got, expected);
            }
        }
    }

    /// Both families, in both feature modes, and the LSTM at one and two
    /// layers in each of its stacks.
    fn models() -> Vec<Box<dyn SurrogateModel>> {
        let mut models: Vec<Box<dyn SurrogateModel>> = Vec::new();
        for parameter_inputs in [true, false] {
            models.push(Box::new(FeatureMlpModel::new(FeatureMlpConfig {
                hidden_dim: 8,
                parameter_inputs,
                seed: 1,
            })));
            for instr_layers in [1, 2] {
                for block_layers in [1, 2] {
                    models.push(Box::new(IthemalModel::new(IthemalConfig {
                        embed_dim: 8,
                        hidden_dim: 12,
                        instr_layers,
                        block_layers,
                        parameter_inputs,
                        seed: 5,
                    })));
                }
            }
        }
        models
    }

    #[test]
    fn fresh_blocks_are_bit_equal_to_the_taped_pass_with_a_cold_and_a_warm_memo() {
        let table = SimParams::uniform_default();
        let generator = BlockGenerator::default();
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = HashSet::new();
        let mut blocks = Vec::new();
        while blocks.len() < 200 {
            let block = generator.generate(&mut rng);
            if !block.is_empty() && seen.insert(block.to_string()) {
                blocks.push(block);
            }
        }
        for model in models() {
            let expected: Vec<u64> = blocks
                .iter()
                .map(|b| taped_reference(model.as_ref(), &table, b).to_bits())
                .collect();
            let mut forward = SurrogateForward::new(model, table.clone());
            // The first pass fills the memo as it goes; the second starts
            // every instruction from a memoized opcode state.
            for pass in ["cold", "warm"] {
                for (block, expected) in blocks.iter().zip(&expected) {
                    let got = forward.predict(block);
                    assert_eq!(got.to_bits(), *expected, "{pass} memo, {block}");
                }
            }
            assert!(forward.replayable(&blocks[0]));
            assert_eq!(forward.programs_recorded(), 0);
        }
    }
}
