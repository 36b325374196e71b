//! # difftune-surrogate
//!
//! Learned differentiable surrogates of basic-block CPU simulators.
//!
//! The paper's surrogate is a modified Ithemal model (Figure 3): a token
//! embedding feeds a per-instruction LSTM; the resulting instruction vectors
//! are concatenated with the proposed per-instruction and global simulator
//! parameters and fed to a (stacked) block-level LSTM; a final linear layer
//! produces the timing prediction. Because the surrogate is differentiable in
//! both its weights and the parameter inputs, it can be used both to mimic the
//! simulator (Equation 2) and, with its weights frozen, to optimize the
//! simulator's parameters by gradient descent (Equation 3).
//!
//! This crate provides:
//!
//! * [`Vocab`] / [`TokenizedBlock`] — the Ithemal-style canonicalization of
//!   basic blocks into token sequences;
//! * [`param_features`] / [`global_features`] — the normalized encoding of a
//!   simulator parameter table as surrogate inputs (shared between surrogate
//!   training and parameter-table optimization so the two stay consistent);
//! * [`IthemalModel`] — the LSTM surrogate (with or without parameter inputs;
//!   without parameters it is the Ithemal baseline from Table IV);
//! * [`FeatureMlpModel`] — a fast feature-based surrogate used for ablations
//!   and as a cheaper drop-in when wall-clock time matters;
//! * [`train`] — mini-batch training loops (Adam, MAPE loss, multi-threaded
//!   gradient computation) shared by surrogate training and the Ithemal
//!   baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod artifact;
mod encode;
mod feature;
pub mod infer;
mod model;
pub mod train;

pub use artifact::{surrogate_file_name, ModelConfig, SurrogateArtifact, SURROGATE_SCHEMA};
pub use encode::{
    block_param_features, global_features, param_features, TokenizedBlock, TokenizedInst, Vocab,
    GLOBAL_FEATURES, GLOBAL_SCALES, PER_INST_FEATURES, PER_INST_SCALES,
};
pub use feature::{FeatureMlpConfig, FeatureMlpModel};
pub use infer::SurrogateForward;
pub use model::{EncoderMemo, IthemalConfig, IthemalModel};

use difftune_tensor::{Graph, Tensor, Var};

/// A differentiable surrogate model: predicts a block timing from a tokenized
/// block and (optionally) parameter features already present in the graph.
///
/// Both the LSTM surrogate and the feature MLP implement this trait, so the
/// DiffTune optimization loop in the `difftune` crate is generic over the
/// surrogate family.
pub trait SurrogateModel: std::fmt::Debug + Send + Sync {
    /// Builds the forward computation for one block.
    ///
    /// `per_inst_features` must contain one feature vector per instruction (in
    /// program order) of dimension [`PER_INST_FEATURES`], and
    /// `global_feature_var` a vector of dimension [`GLOBAL_FEATURES`]. Pass
    /// `None` to run in baseline (Ithemal) mode without parameter inputs.
    fn forward(
        &self,
        graph: &mut Graph<'_>,
        block: &TokenizedBlock,
        per_inst_features: Option<&[Var]>,
        global_feature_var: Option<Var>,
    ) -> Var;

    /// Encodes instructions under the current weights into the vectors the
    /// block-level model reads (for the LSTM surrogate, each instruction's
    /// token-LSTM summary): one tensor per instruction, in order, computed
    /// off the tape, bit-equal to the encoder inside
    /// [`forward`](SurrogateModel::forward). An instruction's encoding
    /// depends only on its token sequence, so a caller may encode each
    /// distinct sequence once.
    ///
    /// `memo` carries work between calls under the same frozen weights (see
    /// [`EncoderMemo`]); a caller keeps one per set of weights.
    ///
    /// Returns `None` for a model without a per-instruction encoder — the
    /// default — whose [`forward_frozen`](SurrogateModel::forward_frozen) is
    /// plain [`forward`](SurrogateModel::forward).
    fn encode_instructions_with(
        &self,
        insts: &[&TokenizedInst],
        memo: &mut EncoderMemo,
    ) -> Option<Vec<Tensor>> {
        let _ = (insts, memo);
        None
    }

    /// [`forward`](SurrogateModel::forward) under frozen weights, with each
    /// instruction's encoding precomputed by
    /// [`encode_instructions_with`](SurrogateModel::encode_instructions_with):
    /// `encoded[i]` is bound as a graph input in place of instruction `i`'s
    /// encoder, whose parameters are not bound at all. The prediction and
    /// every gradient that reaches the parameter features are bit-equal to
    /// `forward`'s; the encoder's weights get no gradient.
    ///
    /// The default ignores `encoded` and runs `forward`.
    fn forward_frozen(
        &self,
        graph: &mut Graph<'_>,
        block: &TokenizedBlock,
        encoded: &[&Tensor],
        per_inst_features: Option<&[Var]>,
        global_feature_var: Option<Var>,
    ) -> Var {
        let _ = encoded;
        self.forward(graph, block, per_inst_features, global_feature_var)
    }

    /// Predicts one block's timing under frozen weights, on plain kernels
    /// with no tape: the inference path, where no gradient flows back.
    ///
    /// The features are the tensors a taped [`forward`](SurrogateModel::forward)
    /// would bind as graph inputs, and the result is bit-equal to that pass:
    /// each step runs the kernel its taped op runs. `memo` carries the
    /// instruction encoder's work between calls under the same weights (see
    /// [`EncoderMemo`]).
    ///
    /// # Panics
    ///
    /// Panics where `forward` does: on an empty block, or when the
    /// parameter features do not fit the model.
    fn predict_plain(
        &self,
        block: &TokenizedBlock,
        per_inst_features: Option<&[Tensor]>,
        global: Option<&Tensor>,
        memo: &mut EncoderMemo,
    ) -> f64;

    /// The trainable parameter store backing this model.
    fn params(&self) -> &difftune_tensor::Params;

    /// Mutable access to the trainable parameter store.
    fn params_mut(&mut self) -> &mut difftune_tensor::Params;

    /// Whether the model consumes parameter features (surrogate mode) or not
    /// (baseline mode).
    fn uses_parameter_inputs(&self) -> bool;
}

impl<T: SurrogateModel + ?Sized> SurrogateModel for Box<T> {
    fn forward(
        &self,
        graph: &mut Graph<'_>,
        block: &TokenizedBlock,
        per_inst_features: Option<&[Var]>,
        global_feature_var: Option<Var>,
    ) -> Var {
        (**self).forward(graph, block, per_inst_features, global_feature_var)
    }

    fn encode_instructions_with(
        &self,
        insts: &[&TokenizedInst],
        memo: &mut EncoderMemo,
    ) -> Option<Vec<Tensor>> {
        (**self).encode_instructions_with(insts, memo)
    }

    fn forward_frozen(
        &self,
        graph: &mut Graph<'_>,
        block: &TokenizedBlock,
        encoded: &[&Tensor],
        per_inst_features: Option<&[Var]>,
        global_feature_var: Option<Var>,
    ) -> Var {
        (**self).forward_frozen(graph, block, encoded, per_inst_features, global_feature_var)
    }

    fn predict_plain(
        &self,
        block: &TokenizedBlock,
        per_inst_features: Option<&[Tensor]>,
        global: Option<&Tensor>,
        memo: &mut EncoderMemo,
    ) -> f64 {
        (**self).predict_plain(block, per_inst_features, global, memo)
    }

    fn params(&self) -> &difftune_tensor::Params {
        (**self).params()
    }

    fn params_mut(&mut self) -> &mut difftune_tensor::Params {
        (**self).params_mut()
    }

    fn uses_parameter_inputs(&self) -> bool {
        (**self).uses_parameter_inputs()
    }
}
