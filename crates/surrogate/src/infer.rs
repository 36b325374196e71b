//! Forward-only surrogate inference: the fast path behind `surrogate:`
//! backends.
//!
//! [`SurrogateForward`] owns everything one prediction needs — the trained
//! model, the tokenizer, the learned table it encodes as parameter features,
//! the instruction encoder's memo, and the compiled-program cache — and
//! produces one `f64` per basic block with **no backward pass**. A block is
//! answered in two steps, the way table optimization runs its samples:
//!
//! 1. **encode**: [`SurrogateModel::encode_instructions_with`] computes each
//!    instruction's vector off the tape (for the LSTM surrogate, the token
//!    LSTM on plain kernels, each instruction starting from its opcode's
//!    memoized state; the feature MLP has no encoder and skips this step);
//! 2. **replay the block-level program**:
//!    [`SurrogateModel::forward_frozen`] runs the rest of the model with
//!    those vectors bound as inputs, through
//!    [`difftune_tensor::ProgramCache::forward`], keyed by
//!    [`SurrogateModel::frozen_program_key`] — for the LSTM, the block
//!    length and the feature flags, so there is at most one program per
//!    block length:
//!    * a cached key replays its program forward-only — a bind pass and a
//!      forward sweep, no tape;
//!    * a new key runs one taped forward pass, which both records the
//!      program and answers the block;
//!    * a block the model cannot key runs a taped pass and records nothing.
//!
//! All of them return the bits of a taped [`SurrogateModel::forward`] pass:
//! the plain encoder is bit-equal to the taped one, `forward_frozen` to
//! `forward`, and replay to the tape, by the engine's contract. The cache
//! keeps at most [`PROGRAM_CACHE_CAPACITY`] programs, least recently used
//! out first, and the memo at most one entry per opcode, so an engine's
//! memory stays bounded however many blocks it sees; an eviction only means
//! the shape records again the next time it comes.
//!
//! Both consumers of surrogate inference go through this type so they cannot
//! diverge: `difftune-serve` wraps it in its `Predictor` trait, and
//! `difftune-matrix` scores cells with it. The serving determinism
//! invariant — surrogate `/predict` bytes equal to an in-process forward
//! pass — holds because [`SurrogateForward::predict`] computes the
//! in-process forward pass's bits.

use difftune_isa::BasicBlock;
use difftune_sim::SimParams;
use difftune_tensor::{Graph, ProgramCache, ReplayBuffers, Tensor, Var};

use crate::artifact::SurrogateArtifact;
use crate::encode::{block_param_features, global_features, TokenizedInst, Vocab};
use crate::model::EncoderMemo;
use crate::SurrogateModel;

/// Most compiled programs one [`SurrogateForward`] keeps. Both model families
/// key their served programs on block length (the LSTM's token-level encoder
/// runs before the program, off the tape), so a workload's key space is its
/// number of distinct block lengths and fits far below this; the bound only
/// binds on traffic of more than 256 distinct block lengths.
pub const PROGRAM_CACHE_CAPACITY: usize = 256;

/// A trained surrogate bound to a learned table, ready to predict.
///
/// Prediction is deterministic and history-free: the same block returns the
/// same bits regardless of what was predicted before (the program cache only
/// decides whether a block records or replays its program, and the memo only
/// whether an opcode's leading state is computed or reused; each choice is
/// bit-equal to the other).
#[derive(Debug)]
pub struct SurrogateForward {
    model: Box<dyn SurrogateModel>,
    vocab: Vocab,
    table: SimParams,
    global: Tensor,
    memo: EncoderMemo,
    cache: ProgramCache,
    buffers: ReplayBuffers,
}

impl SurrogateForward {
    /// Binds a trained model to the learned table it encodes as features.
    pub fn new(model: Box<dyn SurrogateModel>, table: SimParams) -> Self {
        SurrogateForward::with_program_capacity(model, table, PROGRAM_CACHE_CAPACITY)
    }

    /// [`Self::new`] with a program cache of `capacity` programs.
    pub(crate) fn with_program_capacity(
        model: Box<dyn SurrogateModel>,
        table: SimParams,
        capacity: usize,
    ) -> Self {
        let global = global_features(&table);
        SurrogateForward {
            model,
            vocab: Vocab::new(),
            table,
            global,
            memo: EncoderMemo::default(),
            cache: ProgramCache::bounded(capacity),
            buffers: ReplayBuffers::default(),
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

    /// Number of compiled programs recorded so far, re-records of evicted
    /// shapes included: the number of keyable blocks that missed the program
    /// cache. Every other keyable block replayed, so `1 - recorded / blocks`
    /// is the share of keyable blocks that replayed. This is not the live
    /// cache size, which never exceeds [`PROGRAM_CACHE_CAPACITY`].
    pub fn programs_recorded(&self) -> usize {
        self.cache.recorded()
    }

    /// Whether `block` takes the compiled fast path: it tokenizes and the
    /// model can key the block-level program
    /// ([`SurrogateModel::frozen_program_key`]) that answers it. Answered
    /// without running a prediction (and without `&mut self` — no cache is
    /// touched).
    pub fn replayable(&self, block: &BasicBlock) -> bool {
        self.model
            .frozen_program_key(&self.vocab.tokenize_block(block))
            .is_some()
    }

    /// Predicts one block's timing: encodes its instructions, then runs the
    /// block-level model once — a replay of its cached program, or the taped
    /// pass that records it.
    pub fn predict(&mut self, block: &BasicBlock) -> f64 {
        let tokenized = self.vocab.tokenize_block(block);
        let insts: Vec<&TokenizedInst> = tokenized.insts.iter().collect();
        let encoded = self
            .model
            .encode_instructions_with(&insts, &mut self.memo)
            .unwrap_or_default();
        let encoded: Vec<&Tensor> = encoded.iter().collect();
        let per_inst: Option<Vec<Tensor>> = self
            .model
            .uses_parameter_inputs()
            .then(|| block_param_features(&self.table, &tokenized));
        let global: Option<Tensor> = self
            .model
            .uses_parameter_inputs()
            .then(|| self.global.clone());
        let model = &self.model;
        let build = |graph: &mut Graph<'_>| -> Var {
            let per_inst_vars: Option<Vec<Var>> = per_inst
                .as_ref()
                .map(|f| f.iter().map(|t| graph.input(t.clone())).collect());
            let global_var = global.as_ref().map(|g| graph.input(g.clone()));
            model.forward_frozen(
                graph,
                &tokenized,
                &encoded,
                per_inst_vars.as_deref(),
                global_var,
            )
        };
        // The same key extension the training engine uses: optional feature
        // inputs add input/concat nodes to the graph.
        let key = self.model.frozen_program_key(&tokenized).map(|mut key| {
            key.push(u32::from(per_inst.is_some()));
            key.push(u32::from(global.is_some()));
            key
        });
        match key {
            Some(key) => self
                .cache
                .forward(key, self.model.params(), &mut self.buffers, build),
            None => {
                let mut graph = Graph::new(self.model.params());
                let prediction = build(&mut graph);
                f64::from(graph.value(prediction)[0])
            }
        }
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
            // Cold cache, then warm cache: both must match the reference.
            for _ in 0..2 {
                let got: Vec<u64> = forward
                    .predict_batch(&blocks())
                    .into_iter()
                    .map(f64::to_bits)
                    .collect();
                assert_eq!(got, expected);
            }
            assert!(forward.programs_recorded() > 0, "the fast path compiled");
        }
    }

    #[test]
    fn fresh_lstm_blocks_are_bit_equal_and_record_one_program_per_length() {
        use difftune_isa::BlockGenerator;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::collections::HashSet;

        let table = SimParams::uniform_default();
        let lstm = IthemalModel::new(IthemalConfig {
            embed_dim: 8,
            hidden_dim: 12,
            instr_layers: 2,
            block_layers: 1,
            parameter_inputs: true,
            seed: 5,
        });
        let generator = BlockGenerator::default();
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = HashSet::new();
        let mut lengths = HashSet::new();
        let mut forward = SurrogateForward::new(Box::new(lstm), table);
        while seen.len() < 200 {
            let block = generator.generate(&mut rng);
            if block.is_empty() || !seen.insert(block.to_string()) {
                continue;
            }
            lengths.insert(block.len());
            let got = forward.predict(&block);
            let expected = taped_reference(forward.model(), forward.table(), &block);
            assert_eq!(got.to_bits(), expected.to_bits(), "{block}");
        }
        assert!(
            forward.programs_recorded() <= lengths.len(),
            "{} programs for {} block lengths",
            forward.programs_recorded(),
            lengths.len()
        );
    }

    #[test]
    fn repeated_structures_share_one_compiled_program() {
        let mlp = FeatureMlpModel::new(FeatureMlpConfig {
            hidden_dim: 8,
            parameter_inputs: true,
            seed: 4,
        });
        let mut forward = SurrogateForward::new(Box::new(mlp), SimParams::uniform_default());
        // The MLP keys on block length: two 1-instruction blocks, one
        // 2-instruction block → exactly two programs.
        forward.predict_batch(&blocks());
        assert_eq!(forward.programs_recorded(), 2);
    }

    #[test]
    fn an_lstm_engine_past_its_program_bound_stays_bit_equal_and_counts_every_miss() {
        let table = SimParams::uniform_default();
        let lstm = IthemalModel::new(IthemalConfig {
            embed_dim: 8,
            hidden_dim: 12,
            instr_layers: 1,
            block_layers: 1,
            parameter_inputs: true,
            seed: 3,
        });
        let texts = ["addq %rax, %rbx", "movq (%rdi), %rax", "imulq %rbx, %rcx"];
        // Shape `i` has `i + 1` instructions, so every shape keys apart.
        let shape = |i: usize| -> BasicBlock {
            (0..=i)
                .map(|j| texts[(i + j) % texts.len()])
                .collect::<Vec<_>>()
                .join("\n")
                .parse()
                .unwrap()
        };
        let mut forward = SurrogateForward::with_program_capacity(Box::new(lstm), table, 3);
        // (shape, misses): five shapes through a 3-program cache, then the
        // first two again (evicted: they record again), then two that are
        // still cached.
        let sequence = [
            (0, true),
            (1, true),
            (2, true),
            (3, true),
            (4, true),
            (0, true),
            (1, true),
            (1, false),
            (4, false),
        ];
        let mut misses = 0;
        for (step, (i, misses_cache)) in sequence.into_iter().enumerate() {
            let block = shape(i);
            let got = forward.predict(&block);
            let expected = taped_reference(forward.model(), forward.table(), &block);
            assert_eq!(got.to_bits(), expected.to_bits(), "step {step} (shape {i})");
            misses += usize::from(misses_cache);
            assert_eq!(
                forward.programs_recorded(),
                misses,
                "step {step} (shape {i})"
            );
        }
        assert_eq!(misses, 7);
    }
}
