//! The Ithemal-style LSTM surrogate (paper Figure 3).

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use difftune_tensor::nn::{Embedding, EmbeddingBinding, Linear, StackedLstm, StackedLstmBinding};
use difftune_tensor::{kernels, Graph, Params, Tensor, Var};

use crate::encode::{TokenizedBlock, TokenizedInst, Vocab, GLOBAL_FEATURES, PER_INST_FEATURES};
use crate::SurrogateModel;

/// Hyperparameters of the [`IthemalModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct IthemalConfig {
    /// Token embedding dimensionality.
    pub embed_dim: usize,
    /// Hidden dimensionality of both LSTMs.
    pub hidden_dim: usize,
    /// Number of stacked layers in the instruction-level LSTM.
    pub instr_layers: usize,
    /// Number of stacked layers in the block-level LSTM (the paper uses 4).
    pub block_layers: usize,
    /// Whether the model consumes simulator-parameter inputs (surrogate mode)
    /// or not (Ithemal baseline mode).
    pub parameter_inputs: bool,
    /// Seed for weight initialization.
    pub seed: u64,
}

impl Default for IthemalConfig {
    /// A laptop-scale configuration: 32-dimensional embeddings, 64-dimensional
    /// hidden states, and 2-layer block LSTM (the paper uses 4 stacked layers
    /// of a larger model on a V100; the reduction is documented in
    /// EXPERIMENTS.md).
    fn default() -> Self {
        IthemalConfig {
            embed_dim: 32,
            hidden_dim: 64,
            instr_layers: 1,
            block_layers: 2,
            parameter_inputs: true,
            seed: 0,
        }
    }
}

impl IthemalConfig {
    /// The configuration used for the Ithemal baseline (no parameter inputs).
    pub fn baseline() -> Self {
        IthemalConfig {
            parameter_inputs: false,
            ..IthemalConfig::default()
        }
    }
}

/// The instruction encoder's memo of work that depends only on the frozen
/// weights and a few tokens.
///
/// - **Prefixes.** For each leading token pair it has seen, the instruction
///   LSTM's per-layer `(h, c)` state after those two tokens. Every
///   instruction [`Vocab`] tokenizes begins `opcode <S>`, so an encoder
///   starts each instruction from its opcode's entry and steps only the rest
///   of its tokens. At most one entry per distinct leading pair: for
///   tokenized instructions, at most the vocabulary's opcode count
///   (`hidden_dim × instr_layers × 8` bytes each).
/// - **Token projections.** For each token stepped after the leading pair,
///   its embedding's projection through the bottom layer's input weights
///   (`W_x · e`, see
///   [`StackedLstm::project_input`](difftune_tensor::nn::StackedLstm::project_input)),
///   which a step would otherwise recompute. Tokenized instructions step
///   only register, operand-kind and marker tokens there, so at most
///   `RegFamily::COUNT + 5` = 39 entries qualify (`hidden_dim × 16` bytes
///   each: about 40 KB at hidden 64).
///
/// Both fill lazily. A memo belongs to one set of frozen weights: use it
/// with one model whose parameters do not change, and start a new one when
/// they do.
#[derive(Debug, Default)]
pub struct EncoderMemo {
    prefixes: HashMap<[usize; 2], Box<[f32]>>,
    projections: HashMap<usize, Box<[f32]>>,
}

impl EncoderMemo {
    /// Number of leading token pairs memoized.
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// True if nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }
}

/// The Ithemal-style surrogate: token embedding → instruction LSTM →
/// (‖ parameter features) → stacked block LSTM → linear timing head.
#[derive(Debug)]
pub struct IthemalModel {
    config: IthemalConfig,
    vocab: Vocab,
    params: Params,
    embedding: Embedding,
    instr_lstm: StackedLstm,
    block_lstm: StackedLstm,
    head: Linear,
}

impl IthemalModel {
    /// Creates a model with freshly initialized weights.
    pub fn new(config: IthemalConfig) -> Self {
        let vocab = Vocab::new();
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let embedding = Embedding::new(
            &mut params,
            &mut rng,
            "embedding",
            vocab.len(),
            config.embed_dim,
        );
        let instr_lstm = StackedLstm::new(
            &mut params,
            &mut rng,
            "instr_lstm",
            config.embed_dim,
            config.hidden_dim,
            config.instr_layers,
        );
        let block_input_dim = if config.parameter_inputs {
            config.hidden_dim + PER_INST_FEATURES + GLOBAL_FEATURES
        } else {
            config.hidden_dim
        };
        let block_lstm = StackedLstm::new(
            &mut params,
            &mut rng,
            "block_lstm",
            block_input_dim,
            config.hidden_dim,
            config.block_layers,
        );
        let head = Linear::new(&mut params, &mut rng, "head", config.hidden_dim, 1);
        // Bias the timing head positive so the ReLU output head starts in its
        // active region (block timings are never negative).
        params.get_mut(head.param_ids()[1]).data_mut()[0] = 1.0;
        IthemalModel {
            config,
            vocab,
            params,
            embedding,
            instr_lstm,
            block_lstm,
            head,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &IthemalConfig {
        &self.config
    }

    /// The token vocabulary used by this model.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Convenience: predicts a timing with plain tensors (no gradients needed)
    /// through [`SurrogateModel::predict_plain`] with a fresh memo.
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

    /// Checks that `block` and the parameter inputs (`feature_count`
    /// per-instruction vectors, and a global vector if `has_global`) fit
    /// this model.
    fn check_inputs(&self, block: &TokenizedBlock, feature_count: Option<usize>, has_global: bool) {
        assert!(
            !block.is_empty(),
            "cannot run the surrogate on an empty block"
        );
        if self.config.parameter_inputs {
            assert!(
                feature_count == Some(block.len()),
                "surrogate mode requires one feature vector per instruction"
            );
            assert!(has_global, "surrogate mode requires global features");
        }
    }

    /// The instruction encoder: token embeddings → instruction-level LSTM
    /// summary.
    fn encode(
        graph: &mut Graph<'_>,
        embedding: &EmbeddingBinding,
        instr_lstm: &StackedLstmBinding,
        inst: &TokenizedInst,
    ) -> Var {
        let embedded: Vec<Var> = inst
            .tokens
            .iter()
            .map(|&token| embedding.lookup(graph, token))
            .collect();
        instr_lstm.run(graph, &embedded)
    }

    /// The instruction encoder on plain slices, bit-equal to [`Self::encode`]
    /// on a tape: calls `summary(i, vector)` for each instruction `i` of
    /// `insts`, in order.
    ///
    /// The walk keeps a stack of instruction-LSTM states, one per token
    /// depth, and resumes each instruction from the longest token prefix it
    /// shares with the previous one, so consecutive instructions that share a
    /// prefix (as sorted ones do) step only the tokens that differ. Below
    /// depth 2 an instruction starts from `memo`'s state after its leading
    /// pair. Each token after the pair steps from its memoized input
    /// projection ([`EncoderMemo`]); a state depends only on its token
    /// prefix, so every order gives the same bits.
    fn encode_walk<'a>(
        &self,
        insts: impl IntoIterator<Item = &'a TokenizedInst>,
        memo: &mut EncoderMemo,
        mut summary: impl FnMut(usize, &[f32]),
    ) {
        let lstm = &self.instr_lstm;
        let table = self.params.get(self.embedding.param_id());
        let project = |token: usize, out: &mut [f32]| {
            lstm.project_input(&self.params, table.row(token), out);
        };
        let width = lstm.state_len();
        let hidden = self.config.hidden_dim;
        let mut packed = vec![0.0; kernels::lstm_packed_len(hidden)];
        let mut projection = vec![0.0; lstm.projection_len()];
        // `stack[d * width..][..width]` is the state after the first `d`
        // tokens of `path`; depth 0 stays all zeros.
        let mut stack = vec![0.0; width];
        let mut path: &[usize] = &[];
        for (index, inst) in insts.into_iter().enumerate() {
            let tokens = inst.tokens.as_slice();
            let needed = (tokens.len() + 1) * width;
            if stack.len() < needed {
                stack.resize(needed, 0.0);
            }
            let shared = path.iter().zip(tokens).take_while(|(a, b)| a == b).count();
            let mut depth = match tokens {
                [_, _, ..] if shared >= 2 => shared,
                [first, second, ..] => match memo.prefixes.get(&[*first, *second]) {
                    Some(prefix) => {
                        stack[2 * width..3 * width].copy_from_slice(prefix);
                        2
                    }
                    None => 0,
                },
                _ => 0,
            };
            while depth < tokens.len() {
                let token = tokens[depth];
                let (done, next) = stack.split_at_mut((depth + 1) * width);
                let next = &mut next[..width];
                next.copy_from_slice(&done[depth * width..]);
                let projected: &[f32] = if depth < 2 {
                    project(token, &mut projection);
                    &projection
                } else {
                    memo.projections.entry(token).or_insert_with(|| {
                        let mut out = vec![0.0; lstm.projection_len()].into_boxed_slice();
                        project(token, &mut out);
                        out
                    })
                };
                lstm.step_plain_projected(&self.params, projected, next, &mut packed);
                depth += 1;
                if depth == 2 {
                    memo.prefixes.insert([tokens[0], tokens[1]], next.into());
                }
            }
            let top = (tokens.len() + 1) * width - 2 * hidden;
            summary(index, &stack[top..top + hidden]);
            path = tokens;
        }
    }

    /// The block-level body shared by [`SurrogateModel::forward`] and
    /// [`SurrogateModel::forward_frozen`]: each instruction's vector,
    /// concatenated with its parameter features → block LSTM → head → ReLU.
    ///
    /// `instruction` puts instruction `index`'s vector on the graph when the
    /// body reaches it, so `forward` interleaves each encoder with its
    /// concat exactly as a single loop would.
    fn block_body(
        &self,
        graph: &mut Graph<'_>,
        block_lstm: &StackedLstmBinding,
        len: usize,
        per_inst_features: Option<&[Var]>,
        global_feature_var: Option<Var>,
        mut instruction: impl FnMut(&mut Graph<'_>, usize) -> Var,
    ) -> Var {
        let mut instruction_vectors = Vec::with_capacity(len);
        for index in 0..len {
            let inst_vec = instruction(graph, index);
            // Concatenate the proposed parameters for this instruction plus the
            // global parameters (Figure 3).
            let combined = if self.config.parameter_inputs {
                let features = per_inst_features.expect("checked by check_inputs")[index];
                let global = global_feature_var.expect("checked by check_inputs");
                graph.concat(&[inst_vec, features, global])
            } else {
                inst_vec
            };
            instruction_vectors.push(combined);
        }

        let block_vec = block_lstm.run(graph, &instruction_vectors);
        let prediction = self.head.forward(graph, block_vec);
        // Timings are non-negative; a softplus-like clamp keeps optimization
        // well-behaved without flattening gradients the way abs() would at 0.
        graph.relu(prediction)
    }
}

impl SurrogateModel for IthemalModel {
    fn forward(
        &self,
        graph: &mut Graph<'_>,
        block: &TokenizedBlock,
        per_inst_features: Option<&[Var]>,
        global_feature_var: Option<Var>,
    ) -> Var {
        self.check_inputs(
            block,
            per_inst_features.map(<[Var]>::len),
            global_feature_var.is_some(),
        );
        // Hoist every layer's parameters onto the graph once; per-token and
        // per-instruction work then only emits compute nodes.
        let embedding = self.embedding.bind(graph);
        let instr_lstm = self.instr_lstm.bind(graph);
        let block_lstm = self.block_lstm.bind(graph);
        self.block_body(
            graph,
            &block_lstm,
            block.len(),
            per_inst_features,
            global_feature_var,
            |graph, index| Self::encode(graph, &embedding, &instr_lstm, &block.insts[index]),
        )
    }

    fn encode_instructions_with(
        &self,
        insts: &[&TokenizedInst],
        memo: &mut EncoderMemo,
    ) -> Option<Vec<Tensor>> {
        let mut summaries = Vec::with_capacity(insts.len());
        self.encode_walk(insts.iter().copied(), memo, |_, summary| {
            summaries.push(Tensor::vector(summary.to_vec()));
        });
        Some(summaries)
    }

    fn forward_frozen(
        &self,
        graph: &mut Graph<'_>,
        block: &TokenizedBlock,
        encoded: &[&Tensor],
        per_inst_features: Option<&[Var]>,
        global_feature_var: Option<Var>,
    ) -> Var {
        self.check_inputs(
            block,
            per_inst_features.map(<[Var]>::len),
            global_feature_var.is_some(),
        );
        assert_eq!(
            encoded.len(),
            block.len(),
            "the frozen forward needs one encoded vector per instruction"
        );
        let block_lstm = self.block_lstm.bind(graph);
        self.block_body(
            graph,
            &block_lstm,
            block.len(),
            per_inst_features,
            global_feature_var,
            |graph, index| graph.input(encoded[index].clone()),
        )
    }

    fn predict_plain(
        &self,
        block: &TokenizedBlock,
        per_inst_features: Option<&[Tensor]>,
        global: Option<&Tensor>,
        memo: &mut EncoderMemo,
    ) -> f64 {
        self.check_inputs(
            block,
            per_inst_features.map(<[Tensor]>::len),
            global.is_some(),
        );
        // `block_body`'s arithmetic, step for step: each row is the
        // instruction's vector ‖ its θ features ‖ the global features (the
        // taped concat), fed through the block LSTM's kernels.
        let mut packed = vec![0.0; kernels::lstm_packed_len(self.config.hidden_dim)];
        let mut state = vec![0.0; self.block_lstm.state_len()];
        let mut row = Vec::new();
        self.encode_walk(&block.insts, memo, |index, summary| {
            row.clear();
            row.extend_from_slice(summary);
            if self.config.parameter_inputs {
                let features = per_inst_features.expect("checked by check_inputs");
                row.extend_from_slice(features[index].data());
                row.extend_from_slice(global.expect("checked by check_inputs").data());
            }
            self.block_lstm
                .step_plain(&self.params, &row, &mut state, &mut packed);
        });
        let hidden = self.config.hidden_dim;
        let top = state.len() - 2 * hidden;
        let mut prediction = [0.0];
        self.head
            .forward_plain(&self.params, &state[top..top + hidden], &mut prediction);
        f64::from(prediction[0].max(0.0))
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{block_param_features, global_features};
    use difftune_isa::BasicBlock;
    use difftune_sim::SimParams;
    use difftune_tensor::Grads;
    use std::collections::HashSet;

    fn tiny_config() -> IthemalConfig {
        IthemalConfig {
            embed_dim: 8,
            hidden_dim: 12,
            instr_layers: 1,
            block_layers: 1,
            parameter_inputs: true,
            seed: 3,
        }
    }

    fn tokenized(text: &str, vocab: &Vocab) -> TokenizedBlock {
        let block: BasicBlock = text.parse().unwrap();
        vocab.tokenize_block(&block)
    }

    #[test]
    fn forward_produces_a_nonnegative_scalar() {
        let model = IthemalModel::new(tiny_config());
        let block = tokenized("addq %rax, %rbx\nmulsd %xmm0, %xmm1", model.vocab());
        let params = SimParams::uniform_default();
        let features = block_param_features(&params, &block);
        let global = global_features(&params);
        let out = model.predict(&block, Some(&features), Some(&global));
        assert!(out >= 0.0);
        assert!(out.is_finite());
    }

    #[test]
    fn prediction_depends_on_parameter_inputs() {
        let model = IthemalModel::new(tiny_config());
        let block = tokenized("addq %rax, %rbx", model.vocab());
        let base = SimParams::uniform_default();
        let mut changed = base.clone();
        for entry in &mut changed.per_inst {
            entry.write_latency = 9;
            entry.num_micro_ops = 8;
        }
        changed.dispatch_width = 10;
        let a = model.predict(
            &block,
            Some(&block_param_features(&base, &block)),
            Some(&global_features(&base)),
        );
        let b = model.predict(
            &block,
            Some(&block_param_features(&changed, &block)),
            Some(&global_features(&changed)),
        );
        assert!(
            (a - b).abs() > 1e-6,
            "parameter inputs must influence the prediction"
        );
    }

    #[test]
    fn prediction_depends_on_the_block() {
        let model = IthemalModel::new(tiny_config());
        let params = SimParams::uniform_default();
        let global = global_features(&params);
        let a_block = tokenized("addq %rax, %rbx", model.vocab());
        let b_block = tokenized("divsd %xmm0, %xmm1", model.vocab());
        let a = model.predict(
            &a_block,
            Some(&block_param_features(&params, &a_block)),
            Some(&global),
        );
        let b = model.predict(
            &b_block,
            Some(&block_param_features(&params, &b_block)),
            Some(&global),
        );
        assert!((a - b).abs() > 1e-6);
    }

    #[test]
    fn baseline_mode_needs_no_parameter_features() {
        let model = IthemalModel::new(IthemalConfig {
            parameter_inputs: false,
            ..tiny_config()
        });
        let block = tokenized("addq %rax, %rbx\naddq %rbx, %rcx", model.vocab());
        let out = model.predict(&block, None, None);
        assert!(out.is_finite());
        assert!(!model.uses_parameter_inputs());
    }

    #[test]
    fn gradients_flow_to_model_weights_and_parameter_inputs() {
        let model = IthemalModel::new(tiny_config());
        let block = tokenized("addq %rax, %rbx", model.vocab());
        let sim_params = SimParams::uniform_default();
        let features = block_param_features(&sim_params, &block);
        let global = global_features(&sim_params);

        // Register the parameter features as trainable leaves in a scratch
        // parameter store appended to the model's store — emulating how the
        // core crate optimizes the table through the frozen surrogate.
        let mut store = model.params().clone();
        let feature_id = store.add("theta.features", features[0].clone());
        let global_id = store.add("theta.global", global.clone());

        let mut graph = Graph::new(&store);
        let feature_var = graph.param(feature_id);
        let global_var = graph.param(global_id);
        let out = model.forward(&mut graph, &block, Some(&[feature_var]), Some(global_var));
        let mut grads = Grads::new(&store);
        graph.backward(out, &mut grads);

        assert!(
            grads.get(feature_id).is_some(),
            "gradient must reach the parameter inputs"
        );
        let embedding_grad = grads.get(model.params().by_name("embedding.table").unwrap());
        assert!(
            embedding_grad.is_some(),
            "gradient must reach the embedding table"
        );
        let nonzero = grads
            .get(feature_id)
            .unwrap()
            .data()
            .iter()
            .any(|v| *v != 0.0);
        assert!(
            nonzero,
            "parameter-input gradients should not be identically zero"
        );
    }

    #[test]
    fn the_frozen_forward_matches_forward_bit_for_bit_on_theta_features() {
        let model = IthemalModel::new(tiny_config());
        let block = tokenized(
            "addq %rax, %rbx\nmulsd %xmm0, %xmm1\naddq %rax, %rbx\nsubq %rcx, %rdx",
            model.vocab(),
        );
        let sim_params = SimParams::uniform_default();
        let features = block_param_features(&sim_params, &block);
        let global = global_features(&sim_params);
        let mut store = model.params().clone();
        let feature_ids: Vec<_> = features
            .iter()
            .enumerate()
            .map(|(i, f)| store.add(format!("theta.features.{i}"), f.clone()))
            .collect();
        let global_id = store.add("theta.global", global);
        let mut theta_ids = feature_ids.clone();
        theta_ids.push(global_id);

        let insts: Vec<&TokenizedInst> = block.insts.iter().collect();
        let encoded = model
            .encode_instructions_with(&insts, &mut EncoderMemo::default())
            .unwrap();
        let encoded: Vec<&Tensor> = encoded.iter().collect();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Both a θ-only store (as table optimization collects) and a full
        // store must see the same θ-feature bits from either entry point.
        for full in [false, true] {
            let run = |frozen: bool| {
                let mut graph = Graph::new(&store);
                let feature_vars: Vec<Var> =
                    feature_ids.iter().map(|&id| graph.param(id)).collect();
                let global_var = graph.param(global_id);
                let out = if frozen {
                    model.forward_frozen(
                        &mut graph,
                        &block,
                        &encoded,
                        Some(&feature_vars),
                        Some(global_var),
                    )
                } else {
                    model.forward(&mut graph, &block, Some(&feature_vars), Some(global_var))
                };
                let value = graph.value(out)[0];
                let mut grads = if full {
                    Grads::new(&store)
                } else {
                    Grads::only(&store, &theta_ids)
                };
                graph.backward_scaled(out, &mut grads, 0.25);
                let theta_bits: Vec<Vec<u32>> = theta_ids
                    .iter()
                    .map(|&id| bits(grads.get(id).expect("θ gets a gradient")))
                    .collect();
                (value.to_bits(), theta_bits)
            };
            assert_eq!(run(true), run(false), "full store: {full}");
        }
    }

    /// Each instruction's summary from the taped encoder inside `forward`.
    fn taped_summaries(model: &IthemalModel, insts: &[&TokenizedInst]) -> Vec<Vec<u32>> {
        let mut graph = Graph::new(model.params());
        let embedding = model.embedding.bind(&mut graph);
        let instr_lstm = model.instr_lstm.bind(&mut graph);
        insts
            .iter()
            .map(|inst| {
                let summary = IthemalModel::encode(&mut graph, &embedding, &instr_lstm, inst);
                graph.value(summary).iter().map(|v| v.to_bits()).collect()
            })
            .collect()
    }

    fn plain_summaries(
        model: &IthemalModel,
        insts: &[&TokenizedInst],
        memo: &mut EncoderMemo,
    ) -> Vec<Vec<u32>> {
        model
            .encode_instructions_with(insts, memo)
            .unwrap()
            .iter()
            .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn the_plain_encoder_matches_the_taped_encoder_bit_for_bit() {
        for instr_layers in [1, 2] {
            let model = IthemalModel::new(IthemalConfig {
                instr_layers,
                ..tiny_config()
            });
            let first = tokenized(
                "addq %rax, %rbx\nmovq (%rdi,%rsi,8), %rax\naddq $4, %rcx\npushq %rbp",
                model.vocab(),
            );
            let second = tokenized("addq %rcx, %rdx\nmovq 8(%rsp), %rbx", model.vocab());
            let first: Vec<&TokenizedInst> = first.insts.iter().collect();
            let second: Vec<&TokenizedInst> = second.insts.iter().collect();

            let pairs = |insts: &[&TokenizedInst]| -> HashSet<[usize; 2]> {
                insts.iter().map(|i| [i.tokens[0], i.tokens[1]]).collect()
            };
            assert!(pairs(&second).is_subset(&pairs(&first)));

            let mut memo = EncoderMemo::default();
            let cold = plain_summaries(&model, &first, &mut memo);
            assert_eq!(
                cold,
                taped_summaries(&model, &first),
                "cold, {instr_layers} layers"
            );
            assert_eq!(memo.len(), pairs(&first).len());
            // Every instruction of the second block starts from an entry the
            // first call left.
            let warm = plain_summaries(&model, &second, &mut memo);
            assert_eq!(
                warm,
                taped_summaries(&model, &second),
                "warm, {instr_layers} layers"
            );
            assert_eq!(memo.len(), pairs(&first).len());
        }
    }

    #[test]
    fn the_walk_is_bit_equal_to_the_taped_encoder_in_every_order() {
        use rand::seq::SliceRandom;
        for instr_layers in [1, 2] {
            let model = IthemalModel::new(IthemalConfig {
                instr_layers,
                ..tiny_config()
            });
            let vocab = model.vocab();
            let block = tokenized(
                "movq (%rdi,%rsi,8), %rax\naddq %rax, %rbx\naddq $4, %rcx\npushq %rbp",
                vocab,
            );
            let base = block.insts[0].clone();
            let len = base.tokens.len();
            let mut insts = block.insts.clone();
            // Sequences sharing every prefix length with `base`: each
            // truncation (down to 1 token, and none), and `base` with the
            // token after the shared prefix swapped.
            for shared in 0..=len {
                insts.push(TokenizedInst {
                    opcode: base.opcode,
                    tokens: base.tokens[..shared].to_vec(),
                });
                if shared < len {
                    let mut swapped = base.clone();
                    swapped.tokens[shared] = if base.tokens[shared] == vocab.imm_token() {
                        vocab.mem_token()
                    } else {
                        vocab.imm_token()
                    };
                    insts.push(swapped);
                }
            }
            insts.push(base.clone());
            let mut sorted: Vec<&TokenizedInst> = insts.iter().collect();
            sorted.sort_by(|a, b| a.tokens.cmp(&b.tokens));
            let reversed: Vec<&TokenizedInst> = sorted.iter().rev().copied().collect();
            let mut shuffled = sorted.clone();
            shuffled.shuffle(&mut StdRng::seed_from_u64(7));
            for (name, order) in [
                ("sorted", &sorted),
                ("reversed", &reversed),
                ("shuffled", &shuffled),
            ] {
                let mut memo = EncoderMemo::default();
                assert_eq!(
                    plain_summaries(&model, order, &mut memo),
                    taped_summaries(&model, order),
                    "{name}, {instr_layers} layers"
                );
            }
        }
    }

    #[test]
    fn the_memo_keys_on_both_leading_tokens() {
        let model = IthemalModel::new(IthemalConfig {
            instr_layers: 2,
            ..tiny_config()
        });
        let vocab = model.vocab();
        let tokenized = tokenized("addq %rax, %rbx", vocab);
        let real = &tokenized.insts[0];
        // Same opcode, but the second token is the `<D>` marker, not `<S>`.
        let mut hand_built = real.clone();
        hand_built.tokens[1] = vocab.dests_token();
        let short = TokenizedInst {
            opcode: real.opcode,
            tokens: vec![real.tokens[0]],
        };
        let insts = [real, &hand_built, &short, real];

        let mut memo = EncoderMemo::default();
        let plain = plain_summaries(&model, &insts, &mut memo);
        assert_eq!(plain, taped_summaries(&model, &insts));
        assert_ne!(plain[0], plain[1]);
        assert_eq!(memo.len(), 2, "(addq, <S>) and (addq, <D>)");
    }

    #[test]
    #[should_panic]
    fn surrogate_mode_requires_features() {
        let model = IthemalModel::new(tiny_config());
        let block = tokenized("addq %rax, %rbx", model.vocab());
        let _ = model.predict(&block, None, None);
    }
}
