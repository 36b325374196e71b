//! Neural network layers: linear, embedding, and LSTM cells.

use rand::Rng;

use crate::{kernels, Graph, ParamId, Params, Tensor, Var};

/// Creates a tensor with uniform Xavier/Glorot initialization for a layer with
/// the given fan-in and fan-out.
pub fn xavier_init<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize) -> Tensor {
    let bound = (6.0 / (rows + cols) as f32).sqrt();
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-bound..bound))
        .collect();
    Tensor::matrix(rows, cols, data)
}

/// Creates a vector initialized uniformly in `[-bound, bound]`.
pub fn uniform_vector<R: Rng + ?Sized>(rng: &mut R, len: usize, bound: f32) -> Tensor {
    Tensor::vector((0..len).map(|_| rng.gen_range(-bound..bound)).collect())
}

/// A fully connected layer `y = W x + b`.
#[derive(Debug, Clone, Copy)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    /// Input dimensionality.
    pub input_dim: usize,
    /// Output dimensionality.
    pub output_dim: usize,
}

impl Linear {
    /// Registers a new linear layer's parameters.
    pub fn new<R: Rng + ?Sized>(
        params: &mut Params,
        rng: &mut R,
        name: &str,
        input_dim: usize,
        output_dim: usize,
    ) -> Self {
        let w = params.add(format!("{name}.w"), xavier_init(rng, output_dim, input_dim));
        let b = params.add(format!("{name}.b"), Tensor::vector(vec![0.0; output_dim]));
        Linear {
            w,
            b,
            input_dim,
            output_dim,
        }
    }

    /// Applies the layer through the fused matvec+bias kernel
    /// ([`Graph::linear`]): one tape node, one pass over the weight matrix.
    pub fn forward(&self, graph: &mut Graph<'_>, x: Var) -> Var {
        let w = graph.param(self.w);
        let b = graph.param(self.b);
        graph.linear(w, b, x)
    }

    /// [`Self::forward`] on plain slices, with no graph: writes `W x + b`
    /// into `out` through [`kernels::linear`], the kernel the taped node
    /// runs, so the bits are the same.
    pub fn forward_plain(&self, params: &Params, x: &[f32], out: &mut [f32]) {
        kernels::linear(
            params.get(self.w).data(),
            params.get(self.b).data(),
            x,
            self.output_dim,
            self.input_dim,
            out,
        );
    }

    /// The parameter ids of this layer (weight, bias).
    pub fn param_ids(&self) -> [ParamId; 2] {
        [self.w, self.b]
    }
}

/// An embedding table mapping token indices to vectors.
#[derive(Debug, Clone, Copy)]
pub struct Embedding {
    table: ParamId,
    /// Number of embeddings (vocabulary size).
    pub vocab: usize,
    /// Embedding dimensionality.
    pub dim: usize,
}

impl Embedding {
    /// Registers a new embedding table.
    pub fn new<R: Rng + ?Sized>(
        params: &mut Params,
        rng: &mut R,
        name: &str,
        vocab: usize,
        dim: usize,
    ) -> Self {
        let table = params.add(format!("{name}.table"), xavier_init(rng, vocab, dim));
        Embedding { table, vocab, dim }
    }

    /// Hoists the table onto `graph` once, so a sequence of lookups shares a
    /// single parameter node instead of re-emitting the table per token.
    pub fn bind(&self, graph: &mut Graph<'_>) -> EmbeddingBinding {
        EmbeddingBinding {
            table: graph.param(self.table),
            vocab: self.vocab,
        }
    }

    /// Looks up one token.
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of range.
    pub fn lookup(&self, graph: &mut Graph<'_>, token: usize) -> Var {
        let binding = self.bind(graph);
        binding.lookup(graph, token)
    }

    /// The parameter id of the table.
    pub fn param_id(&self) -> ParamId {
        self.table
    }
}

/// An [`Embedding`] whose table is already a node on some graph; produced by
/// [`Embedding::bind`] so per-token lookups reuse one table node.
#[derive(Debug, Clone, Copy)]
pub struct EmbeddingBinding {
    table: Var,
    vocab: usize,
}

impl EmbeddingBinding {
    /// Looks up one token against the bound table.
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of range.
    pub fn lookup(&self, graph: &mut Graph<'_>, token: usize) -> Var {
        assert!(
            token < self.vocab,
            "token {token} out of range for vocabulary of {}",
            self.vocab
        );
        graph.row(self.table, token)
    }
}

/// A single LSTM cell.
///
/// Gates are packed in the order `[input, forget, cell, output]` in one
/// `4h × (input + hidden)` weight matrix plus a `4h` bias. The forget-gate
/// bias is initialized to `1.0`, a standard trick that stabilizes early
/// training.
#[derive(Debug, Clone, Copy)]
pub struct LstmCell {
    w: ParamId,
    b: ParamId,
    /// Input dimensionality.
    pub input_dim: usize,
    /// Hidden state dimensionality.
    pub hidden_dim: usize,
}

impl LstmCell {
    /// Registers a new LSTM cell's parameters.
    pub fn new<R: Rng + ?Sized>(
        params: &mut Params,
        rng: &mut R,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
    ) -> Self {
        let w = params.add(
            format!("{name}.w"),
            xavier_init(rng, 4 * hidden_dim, input_dim + hidden_dim),
        );
        let mut bias = vec![0.0f32; 4 * hidden_dim];
        for slot in bias.iter_mut().skip(hidden_dim).take(hidden_dim) {
            *slot = 1.0;
        }
        let b = params.add(format!("{name}.b"), Tensor::vector(bias));
        LstmCell {
            w,
            b,
            input_dim,
            hidden_dim,
        }
    }

    /// Hoists the cell's weight and bias onto `graph` once; the returned
    /// binding runs fused steps without re-emitting parameter nodes per
    /// timestep.
    pub fn bind(&self, graph: &mut Graph<'_>) -> LstmCellBinding {
        LstmCellBinding {
            w: graph.param(self.w),
            b: graph.param(self.b),
            hidden_dim: self.hidden_dim,
        }
    }

    /// Runs one step: `(h, c) = cell(x, h_prev, c_prev)`, through the fused
    /// gate kernel ([`Graph::lstm_step`]).
    pub fn step(&self, graph: &mut Graph<'_>, x: Var, h_prev: Var, c_prev: Var) -> (Var, Var) {
        let binding = self.bind(graph);
        binding.step(graph, x, h_prev, c_prev)
    }

    /// A zero-valued initial state `(h, c)`.
    pub fn zero_state(&self, graph: &mut Graph<'_>) -> (Var, Var) {
        let h = graph.input(Tensor::vector(vec![0.0; self.hidden_dim]));
        let c = graph.input(Tensor::vector(vec![0.0; self.hidden_dim]));
        (h, c)
    }

    /// The parameter ids of this cell (weights, bias).
    pub fn param_ids(&self) -> [ParamId; 2] {
        [self.w, self.b]
    }
}

/// An [`LstmCell`] whose parameters are already nodes on some graph; produced
/// by [`LstmCell::bind`] so a whole sequence shares two parameter nodes.
#[derive(Debug, Clone, Copy)]
pub struct LstmCellBinding {
    w: Var,
    b: Var,
    /// Hidden state dimensionality.
    pub hidden_dim: usize,
}

impl LstmCellBinding {
    /// Runs one fused step against the bound parameters.
    pub fn step(&self, graph: &mut Graph<'_>, x: Var, h_prev: Var, c_prev: Var) -> (Var, Var) {
        graph.lstm_step(self.w, self.b, x, h_prev, c_prev, self.hidden_dim)
    }

    /// A zero-valued initial state `(h, c)`.
    pub fn zero_state(&self, graph: &mut Graph<'_>) -> (Var, Var) {
        let h = graph.input(Tensor::vector(vec![0.0; self.hidden_dim]));
        let c = graph.input(Tensor::vector(vec![0.0; self.hidden_dim]));
        (h, c)
    }
}

/// A stack of LSTM cells applied layer by layer to a sequence, as used by the
/// Ithemal-style surrogate (the paper stacks four).
#[derive(Debug, Clone)]
pub struct StackedLstm {
    cells: Vec<LstmCell>,
}

impl StackedLstm {
    /// Registers `layers` LSTM cells; the first consumes `input_dim`-sized
    /// inputs, the rest consume the previous layer's hidden states.
    pub fn new<R: Rng + ?Sized>(
        params: &mut Params,
        rng: &mut R,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        layers: usize,
    ) -> Self {
        assert!(layers >= 1, "a stacked LSTM needs at least one layer");
        let cells = (0..layers)
            .map(|layer| {
                let in_dim = if layer == 0 { input_dim } else { hidden_dim };
                LstmCell::new(
                    params,
                    rng,
                    &format!("{name}.layer{layer}"),
                    in_dim,
                    hidden_dim,
                )
            })
            .collect();
        StackedLstm { cells }
    }

    /// Number of layers.
    pub fn layers(&self) -> usize {
        self.cells.len()
    }

    /// The hidden dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.cells[0].hidden_dim
    }

    /// Hoists every cell's parameters onto `graph` once (two nodes per
    /// layer for the whole sequence, instead of two per layer per timestep).
    pub fn bind(&self, graph: &mut Graph<'_>) -> StackedLstmBinding {
        StackedLstmBinding {
            cells: self.cells.iter().map(|c| c.bind(graph)).collect(),
        }
    }

    /// Runs the stack over a sequence and returns the final hidden state of
    /// the top layer (the sequence summary vector).
    pub fn run(&self, graph: &mut Graph<'_>, sequence: &[Var]) -> Var {
        let binding = self.bind(graph);
        binding.run(graph, sequence)
    }

    /// All parameter ids in the stack.
    pub fn param_ids(&self) -> Vec<ParamId> {
        self.cells.iter().flat_map(|c| c.param_ids()).collect()
    }

    /// Length of the plain state [`Self::step_plain`] carries: each layer's
    /// `h` followed by its `c`, bottom layer first.
    pub fn state_len(&self) -> usize {
        2 * self.hidden_dim() * self.layers()
    }

    /// One timestep of the stack on plain slices, with no graph: feeds `x`
    /// up through every layer with [`kernels::lstm_step`], replacing each
    /// layer's `(h, c)` in `state` (a new sequence starts from zeros).
    /// `packed` is scratch of [`kernels::lstm_packed_len`] elements. The
    /// state after a sequence holds the bits [`StackedLstmBinding::run`]
    /// computes on a tape; the top layer's `h` is the summary it returns.
    pub fn step_plain(&self, params: &Params, x: &[f32], state: &mut [f32], packed: &mut [f32]) {
        let hidden = self.hidden_dim();
        assert_eq!(state.len(), self.state_len(), "stacked LSTM state length");
        for (layer, cell) in self.cells.iter().enumerate() {
            let (below, rest) = state.split_at_mut(2 * hidden * layer);
            let input = match layer {
                0 => x,
                _ => &below[2 * hidden * (layer - 1)..][..hidden],
            };
            let (h_prev, c_prev) = rest[..2 * hidden].split_at(hidden);
            kernels::lstm_step(
                params.get(cell.w).data(),
                params.get(cell.b).data(),
                input,
                h_prev,
                c_prev,
                hidden,
                input.len(),
                packed,
            );
            rest[..2 * hidden].copy_from_slice(&packed[..2 * hidden]);
        }
    }
}

/// A [`StackedLstm`] whose parameters are already nodes on some graph;
/// produced by [`StackedLstm::bind`].
#[derive(Debug, Clone)]
pub struct StackedLstmBinding {
    cells: Vec<LstmCellBinding>,
}

impl StackedLstmBinding {
    /// Runs the bound stack over a sequence; see [`StackedLstm::run`].
    pub fn run(&self, graph: &mut Graph<'_>, sequence: &[Var]) -> Var {
        let mut states: Vec<(Var, Var)> = self.cells.iter().map(|c| c.zero_state(graph)).collect();
        for &input in sequence {
            let mut layer_input = input;
            for (cell, state) in self.cells.iter().zip(states.iter_mut()) {
                let (h, c) = cell.step(graph, layer_input, state.0, state.1);
                *state = (h, c);
                layer_input = h;
            }
        }
        states.last().expect("at least one layer").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::finite_difference_check;
    use crate::Grads;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_shape_and_values() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Linear::new(&mut params, &mut rng, "fc", 3, 2);
        let mut g = Graph::new(&params);
        let x = g.input(Tensor::vector(vec![1.0, -1.0, 0.5]));
        let y = layer.forward(&mut g, x);
        assert_eq!(g.value(y).len(), 2);
        let mut plain = [0.0; 2];
        layer.forward_plain(&params, &[1.0, -1.0, 0.5], &mut plain);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&plain), bits(g.value(y)));
    }

    #[test]
    fn lstm_step_produces_bounded_outputs() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(1);
        let cell = LstmCell::new(&mut params, &mut rng, "lstm", 4, 8);
        let mut g = Graph::new(&params);
        let x = g.input(Tensor::vector(vec![0.5, -0.5, 1.0, 2.0]));
        let (h0, c0) = cell.zero_state(&mut g);
        let (h1, _c1) = cell.step(&mut g, x, h0, c0);
        assert_eq!(g.value(h1).len(), 8);
        assert!(
            g.value(h1).iter().all(|v| v.abs() <= 1.0),
            "h is a product of sigmoids and tanh"
        );
    }

    #[test]
    fn stacked_lstm_run_uses_all_layers_and_is_order_sensitive() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(2);
        let stack = StackedLstm::new(&mut params, &mut rng, "stack", 3, 6, 2);
        assert_eq!(stack.layers(), 2);
        assert_eq!(stack.param_ids().len(), 4);

        let mut g = Graph::new(&params);
        let a = g.input(Tensor::vector(vec![1.0, 0.0, 0.0]));
        let b = g.input(Tensor::vector(vec![0.0, 1.0, 0.0]));
        let forward = stack.run(&mut g, &[a, b]);
        let backward = stack.run(&mut g, &[b, a]);
        let delta: f32 = g
            .value(forward)
            .iter()
            .zip(g.value(backward))
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(delta > 1e-6, "the summary must depend on sequence order");
    }

    #[test]
    fn gradcheck_linear_layer() {
        let mut rng = StdRng::seed_from_u64(3);
        let w0 = xavier_init(&mut rng, 2, 3);
        let b0 = Tensor::vector(vec![0.1, -0.2]);
        finite_difference_check(&[("w", w0), ("b", b0)], |g, ids| {
            let w = g.param(ids[0]);
            let b = g.param(ids[1]);
            let x = g.input(Tensor::vector(vec![0.4, -1.2, 0.9]));
            let wx = g.matvec(w, x);
            let y = g.add(wx, b);
            let t = g.tanh(y);
            g.sum(t)
        });
    }

    #[test]
    fn gradcheck_lstm_cell() {
        let mut rng = StdRng::seed_from_u64(4);
        let hidden = 3usize;
        let input = 2usize;
        let w0 = xavier_init(&mut rng, 4 * hidden, input + hidden);
        let b0 = uniform_vector(&mut rng, 4 * hidden, 0.1);
        finite_difference_check(&[("w", w0), ("b", b0)], |g, ids| {
            let w = g.param(ids[0]);
            let b = g.param(ids[1]);
            let x = g.input(Tensor::vector(vec![0.7, -0.3]));
            let h_prev = g.input(Tensor::vector(vec![0.1, 0.0, -0.1]));
            let c_prev = g.input(Tensor::vector(vec![0.2, -0.2, 0.0]));
            let xh = g.concat(&[x, h_prev]);
            let gates_linear = g.matvec(w, xh);
            let gates = g.add(gates_linear, b);
            let i_gate = g.slice(gates, 0, hidden);
            let f_gate = g.slice(gates, hidden, hidden);
            let g_gate = g.slice(gates, 2 * hidden, hidden);
            let o_gate = g.slice(gates, 3 * hidden, hidden);
            let i = g.sigmoid(i_gate);
            let f = g.sigmoid(f_gate);
            let gg = g.tanh(g_gate);
            let o = g.sigmoid(o_gate);
            let retained = g.mul(f, c_prev);
            let written = g.mul(i, gg);
            let c = g.add(retained, written);
            let c_act = g.tanh(c);
            let h = g.mul(o, c_act);
            g.sum(h)
        });
    }

    #[test]
    fn gradcheck_fused_linear_op() {
        let mut rng = StdRng::seed_from_u64(7);
        let w0 = xavier_init(&mut rng, 2, 3);
        let b0 = Tensor::vector(vec![0.1, -0.2]);
        finite_difference_check(&[("w", w0), ("b", b0)], |g, ids| {
            let w = g.param(ids[0]);
            let b = g.param(ids[1]);
            let x = g.input(Tensor::vector(vec![0.4, -1.2, 0.9]));
            let y = g.linear(w, b, x);
            let t = g.tanh(y);
            g.sum(t)
        });
    }

    #[test]
    fn gradcheck_fused_lstm_step() {
        let mut rng = StdRng::seed_from_u64(8);
        let hidden = 3usize;
        let input = 2usize;
        let w0 = xavier_init(&mut rng, 4 * hidden, input + hidden);
        let b0 = uniform_vector(&mut rng, 4 * hidden, 0.1);
        finite_difference_check(&[("w", w0), ("b", b0)], |g, ids| {
            let w = g.param(ids[0]);
            let b = g.param(ids[1]);
            let x = g.input(Tensor::vector(vec![0.7, -0.3]));
            let h_prev = g.input(Tensor::vector(vec![0.1, 0.0, -0.1]));
            let c_prev = g.input(Tensor::vector(vec![0.2, -0.2, 0.0]));
            let (h, c) = g.lstm_step(w, b, x, h_prev, c_prev, hidden);
            let hc = g.concat(&[h, c]);
            let t = g.tanh(hc);
            g.sum(t)
        });
    }

    #[test]
    fn gradcheck_fused_lstm_step_through_state_chain() {
        // Two chained steps: c feeds the next step, so the dc_prev path of
        // the fused backward kernel is exercised with a nonzero incoming
        // cell gradient (a single step only sees dc through dh).
        let mut rng = StdRng::seed_from_u64(9);
        let hidden = 2usize;
        let input = 2usize;
        let w0 = xavier_init(&mut rng, 4 * hidden, input + hidden);
        let b0 = uniform_vector(&mut rng, 4 * hidden, 0.1);
        finite_difference_check(&[("w", w0), ("b", b0)], |g, ids| {
            let w = g.param(ids[0]);
            let b = g.param(ids[1]);
            let x0 = g.input(Tensor::vector(vec![0.7, -0.3]));
            let x1 = g.input(Tensor::vector(vec![-0.5, 0.2]));
            let h0 = g.input(Tensor::vector(vec![0.0, 0.0]));
            let c0 = g.input(Tensor::vector(vec![0.0, 0.0]));
            let (h1, c1) = g.lstm_step(w, b, x0, h0, c0, hidden);
            let (h2, _c2) = g.lstm_step(w, b, x1, h1, c1, hidden);
            g.sum(h2)
        });
    }

    #[test]
    fn fused_lstm_step_matches_unfused_composition() {
        // The fused kernel reassociates the gate dot products (x-segment and
        // h-segment are summed separately), so values agree to float
        // tolerance, not bitwise.
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(10);
        let cell = LstmCell::new(&mut params, &mut rng, "lstm", 3, 5);
        let hidden = cell.hidden_dim;
        let [w_id, b_id] = cell.param_ids();

        let mut g = Graph::new(&params);
        let x = g.input(Tensor::vector(vec![0.4, -0.9, 0.3]));
        let (h0, c0) = cell.zero_state(&mut g);
        let (h_fused, c_fused) = cell.step(&mut g, x, h0, c0);

        // Unfused reference, built from primitive ops on the same graph.
        let w = g.param(w_id);
        let b = g.param(b_id);
        let xh = g.concat(&[x, h0]);
        let gates_linear = g.matvec(w, xh);
        let gates = g.add(gates_linear, b);
        let i_gate = g.slice(gates, 0, hidden);
        let f_gate = g.slice(gates, hidden, hidden);
        let g_gate = g.slice(gates, 2 * hidden, hidden);
        let o_gate = g.slice(gates, 3 * hidden, hidden);
        let i = g.sigmoid(i_gate);
        let f = g.sigmoid(f_gate);
        let gg = g.tanh(g_gate);
        let o = g.sigmoid(o_gate);
        let retained = g.mul(f, c0);
        let written = g.mul(i, gg);
        let c_ref = g.add(retained, written);
        let c_act = g.tanh(c_ref);
        let h_ref = g.mul(o, c_act);

        for (fused, reference) in [(h_fused, h_ref), (c_fused, c_ref)] {
            for (a, e) in g.value(fused).iter().zip(g.value(reference)) {
                assert!((a - e).abs() < 1e-5, "fused {a} vs unfused {e}");
            }
        }
    }

    #[test]
    fn bindings_share_parameter_nodes() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(11);
        let embedding = Embedding::new(&mut params, &mut rng, "tok", 6, 4);
        let stack = StackedLstm::new(&mut params, &mut rng, "stack", 4, 5, 2);

        let mut g = Graph::new(&params);
        let table = embedding.bind(&mut g);
        let lstm = stack.bind(&mut g);
        let sequence: Vec<Var> = [0usize, 3, 1]
            .iter()
            .map(|&t| table.lookup(&mut g, t))
            .collect();
        let bound_summary = lstm.run(&mut g, &sequence);

        let mut g2 = Graph::new(&params);
        let seq2: Vec<Var> = [0usize, 3, 1]
            .iter()
            .map(|&t| embedding.lookup(&mut g2, t))
            .collect();
        let unbound_summary = stack.run(&mut g2, &seq2);

        assert_eq!(
            g.value(bound_summary),
            g2.value(unbound_summary),
            "hoisting parameter nodes must not change values"
        );
    }

    #[test]
    fn plain_steps_match_the_taped_run_bit_for_bit() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(12);
        let stack = StackedLstm::new(&mut params, &mut rng, "stack", 3, 5, 2);
        let inputs = [[0.4, -0.9, 0.3], [1.0, 0.0, -0.5], [-0.2, 0.7, 0.1]];

        let mut g = Graph::new(&params);
        let sequence: Vec<Var> = inputs
            .iter()
            .map(|x| g.input(Tensor::vector(x.to_vec())))
            .collect();
        let summary = stack.run(&mut g, &sequence);

        let mut state = vec![0.0; stack.state_len()];
        let mut packed = vec![0.0; kernels::lstm_packed_len(5)];
        for x in &inputs {
            stack.step_plain(&params, x, &mut state, &mut packed);
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&state[10..15]), bits(g.value(summary)));
    }

    #[test]
    fn training_a_linear_layer_reduces_loss() {
        // One gradient step on a toy regression must reduce the loss.
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(5);
        let layer = Linear::new(&mut params, &mut rng, "fc", 2, 1);

        let loss_of = |params: &Params| -> f32 {
            let mut g = Graph::new(params);
            let x = g.input(Tensor::vector(vec![1.0, 2.0]));
            let y = layer.forward(&mut g, x);
            let target = g.input(Tensor::vector(vec![3.0]));
            let diff = g.sub(y, target);
            let sq = g.mul(diff, diff);
            let loss = g.sum(sq);
            g.value(loss)[0]
        };

        let before = loss_of(&params);
        let mut grads = Grads::new(&params);
        {
            let mut g = Graph::new(&params);
            let x = g.input(Tensor::vector(vec![1.0, 2.0]));
            let y = layer.forward(&mut g, x);
            let target = g.input(Tensor::vector(vec![3.0]));
            let diff = g.sub(y, target);
            let sq = g.mul(diff, diff);
            let loss = g.sum(sq);
            g.backward(loss, &mut grads);
        }
        for [w, b] in [layer.param_ids()] {
            for id in [w, b] {
                if let Some(grad) = grads.get(id) {
                    let grad = grad.clone();
                    params.get_mut(id).add_scaled(&grad, -0.05);
                }
            }
        }
        assert!(loss_of(&params) < before);
    }

    #[test]
    fn embedding_lookup_returns_rows() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(6);
        let embedding = Embedding::new(&mut params, &mut rng, "tok", 5, 4);
        let expected = params.get(embedding.param_id()).row(3).to_vec();
        let mut g = Graph::new(&params);
        let looked_up = embedding.lookup(&mut g, 3);
        assert_eq!(g.value(looked_up), expected.as_slice());
    }
}
