//! The computation graph (tape), reverse-mode differentiation, and the
//! reusable tape arena.
//!
//! # The arena API
//!
//! Training builds one tape per sample, and the tape's node values and
//! gradient buffers used to be allocated fresh every time. A [`TapeArena`]
//! removes that churn: [`TapeArena::scoped`] lends the arena's node storage,
//! backward scratch, and buffer pool to a graph for the duration of a
//! closure, then recycles every buffer back into the arena instead of
//! freeing it. After the first few samples a training loop runs entirely on
//! recycled memory.
//!
//! The arena only changes where backing memory comes from — every buffer is
//! fully overwritten before it is read, so a graph built in a reused arena
//! computes bit-identical values and gradients to one built with
//! [`Graph::new`] (unit-tested below, property-tested via the
//! [`Batch`](crate::Batch) engine).

use crate::compile::Binder;
use crate::kernels;
use crate::params::{Grads, ParamId, Params};
use crate::Tensor;

/// A node handle within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// A leaf referencing a trainable parameter.
    Param(ParamId),
    /// A leaf holding constant input data.
    Input,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    MatVec {
        w: Var,
        x: Var,
    },
    /// Fused `w · x + b` (see [`kernels::linear`]).
    Linear {
        w: Var,
        b: Var,
        x: Var,
    },
    /// Fused LSTM cell step producing the packed `[h, c, i, f, g, o, c_act]`
    /// buffer of [`kernels::lstm_step`]; consumers reach `h` and `c` through
    /// the two [`Op::Slice`] nodes [`Graph::lstm_step`] appends.
    LstmStep {
        w: Var,
        b: Var,
        x: Var,
        h_prev: Var,
        c_prev: Var,
        hidden: usize,
    },
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    Abs(Var),
    Concat(Vec<Var>),
    Slice {
        src: Var,
        start: usize,
        len: usize,
    },
    Row {
        table: Var,
        row: usize,
    },
    Sum(Var),
    Mean(Var),
}

impl Op {
    /// Calls `f` on every operand of the op, once per use (leaves have
    /// none).
    pub(crate) fn for_each_operand(&self, mut f: impl FnMut(Var)) {
        match self {
            Op::Param(_) | Op::Input => {}
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) => {
                f(*a);
                f(*b);
            }
            Op::Scale(a, _)
            | Op::AddScalar(a)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Relu(a)
            | Op::Abs(a)
            | Op::Sum(a)
            | Op::Mean(a)
            | Op::Slice { src: a, .. }
            | Op::Row { table: a, .. } => f(*a),
            Op::MatVec { w, x } => {
                f(*w);
                f(*x);
            }
            Op::Linear { w, b, x } => {
                f(*w);
                f(*b);
                f(*x);
            }
            Op::LstmStep {
                w,
                b,
                x,
                h_prev,
                c_prev,
                ..
            } => {
                for operand in [w, b, x, h_prev, c_prev] {
                    f(*operand);
                }
            }
            Op::Concat(parts) => parts.iter().copied().for_each(f),
        }
    }
}

#[derive(Debug)]
struct Node {
    op: Op,
    /// The node's computed value; `None` for a [`Op::Param`] leaf, whose
    /// value is the parameter store's own tensor (see [`Node::value`]).
    value: Option<Tensor>,
}

impl Node {
    /// The node's value: a parameter leaf reads the store, every other node
    /// its own buffer.
    fn value<'a>(&'a self, params: &'a Params) -> &'a Tensor {
        match (&self.op, &self.value) {
            (Op::Param(id), _) => params.get(*id),
            (_, Some(value)) => value,
            (op, None) => unreachable!("a {op:?} node always holds its value"),
        }
    }
}

/// A pool of recycled `Vec<f32>` buffers.
///
/// Buffers are handed out cleared (length zero) with at least the requested
/// capacity reserved, so reuse can never leak stale values into a
/// computation.
#[derive(Debug, Default)]
struct BufferPool {
    buffers: Vec<Vec<f32>>,
}

impl BufferPool {
    /// Pops a cleared buffer, reserving at least `capacity` elements.
    fn take(&mut self, capacity: usize) -> Vec<f32> {
        match self.buffers.pop() {
            Some(mut buffer) => {
                buffer.clear();
                buffer.reserve(capacity);
                buffer
            }
            None => Vec::with_capacity(capacity),
        }
    }

    /// Pops a buffer holding `len` zeros.
    fn zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buffer = self.take(len);
        buffer.resize(len, 0.0);
        buffer
    }

    /// Returns a buffer to the pool (zero-capacity buffers are not worth
    /// keeping).
    fn put(&mut self, buffer: Vec<f32>) {
        if buffer.capacity() > 0 {
            self.buffers.push(buffer);
        }
    }

    /// Recycles a tensor's backing buffer.
    fn put_tensor(&mut self, tensor: Tensor) {
        self.put(tensor.into_data());
    }
}

/// Preallocated tape storage reused across [`Graph`]s.
///
/// Build graphs against the arena with [`TapeArena::scoped`]; when the
/// closure returns, the graph's node table, backward scratch, and every
/// tensor buffer are recycled back into the arena. One arena serves one
/// graph at a time; use one arena per worker thread for parallel training —
/// that is exactly what [`Batch`](crate::Batch) does.
#[derive(Debug, Default)]
pub struct TapeArena {
    nodes: Vec<Node>,
    scratch: Vec<Option<Vec<f32>>>,
    marks: Vec<bool>,
    pool: BufferPool,
}

impl TapeArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        TapeArena::default()
    }

    /// Runs `f` with a graph whose tape storage comes from this arena and is
    /// recycled (not freed) when `f` returns.
    ///
    /// Values and gradients are bit-identical to a graph built with
    /// [`Graph::new`]; only the allocation behavior differs. If `f` panics,
    /// the borrowed storage is dropped with the graph and the arena starts
    /// over empty — correct either way, since buffers are always fully
    /// overwritten before use.
    pub fn scoped<R>(&mut self, params: &Params, f: impl FnOnce(&mut Graph<'_>) -> R) -> R {
        let mut graph = Graph {
            params,
            nodes: std::mem::take(&mut self.nodes),
            scratch: std::mem::take(&mut self.scratch),
            marks: std::mem::take(&mut self.marks),
            pool: std::mem::take(&mut self.pool),
            bind: None,
        };
        let result = f(&mut graph);
        let mut pool = std::mem::take(&mut graph.pool);
        for node in graph.nodes.drain(..) {
            // Input tensors were allocated by the caller, not drawn from the
            // pool; recycling them would grow the pool without bound (one
            // orphan buffer per input per tape). Parameter leaves hold no
            // buffer. Every other node's buffer came from the pool, so takes
            // and puts stay balanced.
            match node {
                Node { op: Op::Input, .. } | Node { value: None, .. } => {}
                Node {
                    value: Some(value), ..
                } => pool.put_tensor(value),
            }
        }
        for slot in graph.scratch.drain(..).flatten() {
            pool.put(slot);
        }
        self.nodes = std::mem::take(&mut graph.nodes);
        self.scratch = std::mem::take(&mut graph.scratch);
        self.marks = std::mem::take(&mut graph.marks);
        self.pool = pool;
        result
    }

    /// Number of buffers currently parked in the pool (useful for asserting
    /// reuse in tests and diagnostics).
    pub fn pooled_buffers(&self) -> usize {
        self.pool.buffers.len()
    }
}

/// A dynamically built computation graph over a borrowed parameter store.
///
/// Graphs are cheap, single-use objects: build one per sample (or per
/// forward/backward pass), call [`Graph::backward`], and drop it. In hot
/// loops, build them inside a [`TapeArena`] with [`TapeArena::scoped`] so
/// the per-sample allocations are recycled instead of freed.
#[derive(Debug)]
pub struct Graph<'p> {
    params: &'p Params,
    nodes: Vec<Node>,
    /// Backward scratch: each node's gradient slot.
    scratch: Vec<Option<Vec<f32>>>,
    /// Backward scratch: which nodes can reach a collected parameter.
    marks: Vec<bool>,
    pool: BufferPool,
    /// When `Some`, the graph is in **bind mode**: op methods validate the
    /// call against a [`CompiledProgram`](crate::CompiledProgram)'s recorded
    /// schedule and capture dynamic data (input tensors, row indices,
    /// scalar constants) instead of computing values. [`Graph::value`] and
    /// [`Graph::backward`] are unavailable in this mode — the program's
    /// `replay` does the computing.
    bind: Option<Box<Binder>>,
}

impl<'p> Graph<'p> {
    /// Creates an empty graph over a parameter store.
    pub fn new(params: &'p Params) -> Self {
        Graph {
            params,
            nodes: Vec::with_capacity(64),
            scratch: Vec::new(),
            marks: Vec::new(),
            pool: BufferPool::default(),
            bind: None,
        }
    }

    /// Creates a graph in bind mode over a compiled program (see the `bind`
    /// field docs); used exclusively by `CompiledProgram::replay`.
    pub(crate) fn bound(params: &'p Params, binder: Box<Binder>) -> Self {
        Graph {
            params,
            nodes: Vec::new(),
            scratch: Vec::new(),
            marks: Vec::new(),
            pool: BufferPool::default(),
            bind: Some(binder),
        }
    }

    /// Takes the binder back out of a bind-mode graph.
    pub(crate) fn take_binder(&mut self) -> Option<Box<Binder>> {
        self.bind.take()
    }

    /// The parameter store the graph reads (compile-time accessor).
    pub(crate) fn params(&self) -> &'p Params {
        self.params
    }

    /// The number of recorded tape nodes (compile-time accessor).
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// A recorded node's op (compile-time accessor).
    pub(crate) fn node_op(&self, index: usize) -> &Op {
        &self.nodes[index].op
    }

    /// A recorded node's value length (compile-time accessor).
    pub(crate) fn node_len(&self, index: usize) -> usize {
        self.value_tensor(Var(index)).len()
    }

    fn push(&mut self, op: Op, value: Tensor) -> Var {
        self.nodes.push(Node {
            op,
            value: Some(value),
        });
        Var(self.nodes.len() - 1)
    }

    /// The computed value of a node as a slice (a parameter leaf's is the
    /// store's own buffer).
    pub fn value(&self, var: Var) -> &[f32] {
        self.value_tensor(var).data()
    }

    /// The computed value of a node as a tensor (a parameter leaf's is the
    /// store's own tensor).
    pub fn value_tensor(&self, var: Var) -> &Tensor {
        self.nodes[var.0].value(self.params)
    }

    /// A leaf node referencing a trainable parameter; gradients flow into the
    /// corresponding [`Grads`] slot during [`Graph::backward`]. The leaf
    /// copies nothing: every read of its value goes to the store.
    pub fn param(&mut self, id: ParamId) -> Var {
        if let Some(bind) = self.bind.as_mut() {
            return bind.param(id);
        }
        self.nodes.push(Node {
            op: Op::Param(id),
            value: None,
        });
        Var(self.nodes.len() - 1)
    }

    /// A constant input leaf (no gradient).
    pub fn input(&mut self, value: Tensor) -> Var {
        if let Some(bind) = self.bind.as_mut() {
            return bind.input(&value);
        }
        self.push(Op::Input, value)
    }

    /// [`Graph::input`] from a borrowed tensor. In bind mode the data is
    /// copied straight into the replay arena with no intermediate clone —
    /// the fast path for per-sample feature tensors that outlive the graph;
    /// on the tape it clones, exactly like [`Graph::input`].
    pub fn input_ref(&mut self, value: &Tensor) -> Var {
        if let Some(bind) = self.bind.as_mut() {
            return bind.input(value);
        }
        self.push(Op::Input, value.clone())
    }

    /// Computes an elementwise unary op into a pooled buffer.
    fn map(&mut self, a: Var, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = self.pool.take(self.value_tensor(a).len());
        let src = self.value_tensor(a);
        out.extend(src.data().iter().map(|&x| f(x)));
        Tensor::from_vec(out, src.shape().to_vec())
    }

    /// Computes an elementwise binary op into a pooled buffer.
    fn zip(&mut self, a: Var, b: Var, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let mut out = self.pool.take(self.value_tensor(a).len());
        let at = self.value_tensor(a);
        let bt = self.value_tensor(b);
        assert_eq!(
            at.shape(),
            bt.shape(),
            "elementwise shape mismatch: {:?} vs {:?}",
            at.shape(),
            bt.shape()
        );
        out.extend(at.data().iter().zip(bt.data()).map(|(&x, &y)| f(x, y)));
        Tensor::from_vec(out, at.shape().to_vec())
    }

    /// Elementwise addition. Shapes must match.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        if let Some(bind) = self.bind.as_mut() {
            return bind.add(a, b);
        }
        let value = self.zip(a, b, |x, y| x + y);
        self.push(Op::Add(a, b), value)
    }

    /// Elementwise subtraction (`a - b`). Shapes must match.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        if let Some(bind) = self.bind.as_mut() {
            return bind.sub(a, b);
        }
        let value = self.zip(a, b, |x, y| x - y);
        self.push(Op::Sub(a, b), value)
    }

    /// Elementwise multiplication. Shapes must match.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        if let Some(bind) = self.bind.as_mut() {
            return bind.mul(a, b);
        }
        let value = self.zip(a, b, |x, y| x * y);
        self.push(Op::Mul(a, b), value)
    }

    /// Multiplies every element by a constant.
    ///
    /// The factor is a per-call dynamic value: compiled replays rebind it, so
    /// sample-dependent scales (e.g. `1 / target`) work in both engines.
    pub fn scale(&mut self, a: Var, factor: f32) -> Var {
        if let Some(bind) = self.bind.as_mut() {
            return bind.scale(a, factor);
        }
        let value = self.map(a, |x| x * factor);
        self.push(Op::Scale(a, factor), value)
    }

    /// Adds a constant to every element (rebound per replay, like
    /// [`Graph::scale`]).
    pub fn add_scalar(&mut self, a: Var, constant: f32) -> Var {
        if let Some(bind) = self.bind.as_mut() {
            return bind.add_scalar(a, constant);
        }
        let value = self.map(a, |x| x + constant);
        self.push(Op::AddScalar(a), value)
    }

    /// Matrix-vector product `w · x` where `w` is `[m, n]` and `x` is `[n]`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are incompatible.
    pub fn matvec(&mut self, w: Var, x: Var) -> Var {
        if let Some(bind) = self.bind.as_mut() {
            return bind.matvec(w, x);
        }
        let (m, n) = {
            let wt = self.value_tensor(w);
            let xt = self.value_tensor(x);
            assert_eq!(wt.shape().len(), 2, "matvec weight must be a matrix");
            let (m, n) = (wt.rows(), wt.cols());
            assert_eq!(
                xt.len(),
                n,
                "matvec shape mismatch: [{m}, {n}] · [{}]",
                xt.len()
            );
            (m, n)
        };
        let mut out = self.pool.zeroed(m);
        kernels::matvec(self.value(w), self.value(x), m, n, &mut out);
        self.push(Op::MatVec { w, x }, Tensor::vector(out))
    }

    /// Fused linear layer `w · x + b` — one pass over `w` instead of a
    /// matvec node plus an add node (see [`kernels::linear`]).
    ///
    /// # Panics
    ///
    /// Panics if `w` is not `[m, n]`, `b` not `[m]`, or `x` not `[n]`, or if
    /// `w` and `b` are the same node (their gradients accumulate in place,
    /// each in its own slot).
    pub fn linear(&mut self, w: Var, b: Var, x: Var) -> Var {
        if let Some(bind) = self.bind.as_mut() {
            return bind.linear(w, b, x);
        }
        assert_ne!(w, b, "linear weight and bias must be different nodes");
        let (m, n) = {
            let wt = self.value_tensor(w);
            assert_eq!(wt.shape().len(), 2, "linear weight must be a matrix");
            (wt.rows(), wt.cols())
        };
        let mut out = self.pool.zeroed(m);
        kernels::linear(self.value(w), self.value(b), self.value(x), m, n, &mut out);
        self.push(Op::Linear { w, b, x }, Tensor::vector(out))
    }

    /// Fused LSTM cell step over gate-packed weights (see
    /// [`kernels::lstm_step`] for the weight layout). Returns the
    /// `(h, c)` state pair as slice views of the packed gate buffer.
    ///
    /// # Panics
    ///
    /// Panics if the operand shapes disagree with `hidden` and `x`'s length,
    /// or if `w` and `b` are the same node.
    pub fn lstm_step(
        &mut self,
        w: Var,
        b: Var,
        x: Var,
        h_prev: Var,
        c_prev: Var,
        hidden: usize,
    ) -> (Var, Var) {
        let packed = if let Some(bind) = self.bind.as_mut() {
            bind.lstm_step(w, b, x, h_prev, c_prev, hidden)
        } else {
            assert_ne!(w, b, "lstm_step weight and bias must be different nodes");
            let input = self.value(x).len();
            let mut out = self.pool.zeroed(kernels::lstm_packed_len(hidden));
            kernels::lstm_step(
                self.value(w),
                self.value(b),
                self.value(x),
                self.value(h_prev),
                self.value(c_prev),
                hidden,
                input,
                &mut out,
            );
            self.push(
                Op::LstmStep {
                    w,
                    b,
                    x,
                    h_prev,
                    c_prev,
                    hidden,
                },
                Tensor::vector(out),
            )
        };
        let h = self.slice(packed, 0, hidden);
        let c = self.slice(packed, hidden, hidden);
        (h, c)
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        if let Some(bind) = self.bind.as_mut() {
            return bind.sigmoid(a);
        }
        let value = self.map(a, kernels::sigmoid);
        self.push(Op::Sigmoid(a), value)
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        if let Some(bind) = self.bind.as_mut() {
            return bind.tanh(a);
        }
        let value = self.map(a, f32::tanh);
        self.push(Op::Tanh(a), value)
    }

    /// Elementwise rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        if let Some(bind) = self.bind.as_mut() {
            return bind.relu(a);
        }
        let value = self.map(a, |x| x.max(0.0));
        self.push(Op::Relu(a), value)
    }

    /// Elementwise absolute value.
    pub fn abs(&mut self, a: Var) -> Var {
        if let Some(bind) = self.bind.as_mut() {
            return bind.abs(a);
        }
        let value = self.map(a, f32::abs);
        self.push(Op::Abs(a), value)
    }

    /// Concatenates vectors into one vector.
    pub fn concat(&mut self, parts: &[Var]) -> Var {
        if let Some(bind) = self.bind.as_mut() {
            return bind.concat(parts);
        }
        let total: usize = parts.iter().map(|p| self.value(*p).len()).sum();
        let mut data = self.pool.take(total);
        for part in parts {
            data.extend_from_slice(self.value(*part));
        }
        self.push(Op::Concat(parts.to_vec()), Tensor::vector(data))
    }

    /// A contiguous slice `[start, start + len)` of a vector.
    ///
    /// # Panics
    ///
    /// Panics if the slice is out of range.
    pub fn slice(&mut self, src: Var, start: usize, len: usize) -> Var {
        if let Some(bind) = self.bind.as_mut() {
            return bind.slice(src, start, len);
        }
        let mut data = self.pool.take(len);
        data.extend_from_slice(&self.value(src)[start..start + len]);
        self.push(Op::Slice { src, start, len }, Tensor::vector(data))
    }

    /// Row `row` of a matrix-valued node (used for embedding lookups).
    ///
    /// # Panics
    ///
    /// Panics if the node is not a matrix or the row is out of range.
    pub fn row(&mut self, table: Var, row: usize) -> Var {
        if let Some(bind) = self.bind.as_mut() {
            return bind.row(table, row);
        }
        let mut data = self.pool.take(self.value_tensor(table).cols());
        data.extend_from_slice(self.value_tensor(table).row(row));
        self.push(Op::Row { table, row }, Tensor::vector(data))
    }

    /// Sum of all elements (produces a scalar).
    pub fn sum(&mut self, a: Var) -> Var {
        if let Some(bind) = self.bind.as_mut() {
            return bind.sum(a);
        }
        let total: f32 = self.value(a).iter().sum();
        let mut data = self.pool.take(1);
        data.push(total);
        self.push(Op::Sum(a), Tensor::vector(data))
    }

    /// Mean of all elements (produces a scalar).
    pub fn mean(&mut self, a: Var) -> Var {
        if let Some(bind) = self.bind.as_mut() {
            return bind.mean(a);
        }
        let mean = {
            let t = self.value(a);
            if t.is_empty() {
                0.0
            } else {
                t.iter().sum::<f32>() / t.len() as f32
            }
        };
        let mut data = self.pool.take(1);
        data.push(mean);
        self.push(Op::Mean(a), Tensor::vector(data))
    }

    /// Runs reverse-mode differentiation from `loss` (which must be a scalar
    /// node), accumulating parameter gradients into `grads` with weight
    /// `1.0`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element node.
    pub fn backward(&mut self, loss: Var, grads: &mut Grads) {
        self.backward_scaled(loss, grads, 1.0);
    }

    /// Like [`Graph::backward`] but seeds the loss gradient with `seed`
    /// (useful for averaging over a batch without rescaling afterwards).
    ///
    /// Only parameters that `grads` collects (see [`Grads::only`]) receive
    /// gradients, and the sweep does no work that cannot reach one: a
    /// forward pass over the tape first marks every node that depends on a
    /// collected parameter, and the reverse sweep then skips unmarked
    /// nodes, opens no gradient slot for an unmarked operand, and asks the
    /// fused kernels for no weight, bias or matvec/linear input gradient an
    /// unmarked operand would receive. Weight and bias gradients accumulate
    /// in place in their node slots (see `take_weight_slot`). Every
    /// consumer of a marked node is marked, so each
    /// collected slot gets the same contributions in the same order — the
    /// same bits — as with a store that collects everything.
    pub fn backward_scaled(&mut self, loss: Var, grads: &mut Grads, seed: f32) {
        assert_eq!(self.value(loss).len(), 1, "backward requires a scalar loss");
        let params = self.params;
        let nodes = &self.nodes[..];
        let pool = &mut self.pool;
        let value = |var: Var| nodes[var.0].value(params);
        let mut marks = std::mem::take(&mut self.marks);
        marks.clear();
        for node in nodes {
            let reaches = match &node.op {
                Op::Param(id) => grads.collects(*id),
                op => {
                    let mut reaches = false;
                    op.for_each_operand(|operand| reaches |= marks[operand.0]);
                    reaches
                }
            };
            marks.push(reaches);
        }
        let mut node_grads = std::mem::take(&mut self.scratch);
        node_grads.clear();
        node_grads.resize_with(nodes.len(), || None);
        if marks[loss.0] {
            let mut seed_data = pool.take(1);
            seed_data.push(seed);
            node_grads[loss.0] = Some(seed_data);
        }

        for index in (0..nodes.len()).rev() {
            let Some(grad) = node_grads[index].take() else {
                continue;
            };
            let node = &nodes[index];
            let slots = &mut node_grads[..];
            match &node.op {
                Op::Input => {}
                Op::Param(id) => grads.accumulate_at(*id, params.get(*id).shape(), 0, &grad, 1.0),
                Op::Add(a, b) => {
                    add_grad(slots, &marks, pool, *a, &grad, 1.0);
                    add_grad(slots, &marks, pool, *b, &grad, 1.0);
                }
                Op::Sub(a, b) => {
                    add_grad(slots, &marks, pool, *a, &grad, 1.0);
                    add_grad(slots, &marks, pool, *b, &grad, -1.0);
                }
                Op::Mul(a, b) => {
                    for (target, other) in [(*a, *b), (*b, *a)] {
                        if !marks[target.0] {
                            continue;
                        }
                        let mut d = pool.take(grad.len());
                        d.extend(grad.iter().zip(value(other).data()).map(|(g, v)| g * v));
                        add_grad_owned(slots, &marks, pool, target, d);
                    }
                }
                Op::Scale(a, factor) => add_grad(slots, &marks, pool, *a, &grad, *factor),
                Op::AddScalar(a) => add_grad(slots, &marks, pool, *a, &grad, 1.0),
                Op::MatVec { w, x } => {
                    let (wt, xt) = (value(*w), value(*x));
                    let (m, n) = (wt.rows(), wt.cols());
                    let mut dw = take_weight_slot(slots, &marks, pool, *w, m * n);
                    let mut dx = zeroed_grad(&marks, pool, *x, n);
                    kernels::matvec_grad(
                        wt.data(),
                        xt.data(),
                        &grad,
                        m,
                        n,
                        dw.as_deref_mut(),
                        dx.as_deref_mut(),
                    );
                    slots[w.0] = dw;
                    if let Some(dx) = dx {
                        add_grad_owned(slots, &marks, pool, *x, dx);
                    }
                }
                Op::Linear { w, b, x } => {
                    let (wt, xt) = (value(*w), value(*x));
                    let (m, n) = (wt.rows(), wt.cols());
                    let mut dw = take_weight_slot(slots, &marks, pool, *w, m * n);
                    let mut db = take_weight_slot(slots, &marks, pool, *b, m);
                    let mut dx = zeroed_grad(&marks, pool, *x, n);
                    kernels::linear_grad(
                        wt.data(),
                        xt.data(),
                        &grad,
                        m,
                        n,
                        dw.as_deref_mut(),
                        db.as_deref_mut(),
                        dx.as_deref_mut(),
                    );
                    slots[w.0] = dw;
                    slots[b.0] = db;
                    if let Some(dx) = dx {
                        add_grad_owned(slots, &marks, pool, *x, dx);
                    }
                }
                Op::LstmStep {
                    w,
                    b,
                    x,
                    h_prev,
                    c_prev,
                    hidden,
                } => {
                    let hidden = *hidden;
                    let input = value(*x).len();
                    let mut dw = take_weight_slot(slots, &marks, pool, *w, value(*w).len());
                    let mut db = take_weight_slot(slots, &marks, pool, *b, 4 * hidden);
                    let mut dx = pool.zeroed(input);
                    let mut dh = pool.zeroed(hidden);
                    let mut dc = pool.zeroed(hidden);
                    kernels::lstm_step_grad(
                        value(*w).data(),
                        value(*x).data(),
                        value(*h_prev).data(),
                        value(*c_prev).data(),
                        value(Var(index)).data(),
                        &grad,
                        hidden,
                        input,
                        dw.as_deref_mut(),
                        db.as_deref_mut(),
                        &mut dx,
                        &mut dh,
                        &mut dc,
                    );
                    slots[w.0] = dw;
                    slots[b.0] = db;
                    add_grad_owned(slots, &marks, pool, *x, dx);
                    add_grad_owned(slots, &marks, pool, *h_prev, dh);
                    add_grad_owned(slots, &marks, pool, *c_prev, dc);
                }
                Op::Sigmoid(a) => {
                    let mut d = pool.take(grad.len());
                    d.extend(
                        grad.iter()
                            .zip(value(Var(index)).data())
                            .map(|(g, y)| g * y * (1.0 - y)),
                    );
                    add_grad_owned(slots, &marks, pool, *a, d);
                }
                Op::Tanh(a) => {
                    let mut d = pool.take(grad.len());
                    d.extend(
                        grad.iter()
                            .zip(value(Var(index)).data())
                            .map(|(g, y)| g * (1.0 - y * y)),
                    );
                    add_grad_owned(slots, &marks, pool, *a, d);
                }
                Op::Relu(a) => {
                    let mut d = pool.take(grad.len());
                    d.extend(grad.iter().zip(value(*a).data()).map(|(g, x)| {
                        if *x > 0.0 {
                            *g
                        } else {
                            0.0
                        }
                    }));
                    add_grad_owned(slots, &marks, pool, *a, d);
                }
                Op::Abs(a) => {
                    let mut d = pool.take(grad.len());
                    d.extend(grad.iter().zip(value(*a).data()).map(|(g, x)| {
                        if *x >= 0.0 {
                            *g
                        } else {
                            -*g
                        }
                    }));
                    add_grad_owned(slots, &marks, pool, *a, d);
                }
                Op::Concat(parts) => {
                    let mut offset = 0;
                    for part in parts {
                        let len = value(*part).len();
                        add_grad(slots, &marks, pool, *part, &grad[offset..offset + len], 1.0);
                        offset += len;
                    }
                }
                Op::Slice { src, start, len } => {
                    let total = value(*src).len();
                    add_grad_window(
                        slots,
                        &marks,
                        pool,
                        *src,
                        total,
                        *start..*start + *len,
                        &grad,
                    );
                }
                Op::Row { table, row } => {
                    let table_value = value(*table);
                    let offset = row * table_value.cols();
                    // Fast path: embedding tables are parameter leaves, so the
                    // gradient can be scattered sparsely without materializing a
                    // dense table-sized gradient on the tape.
                    if let Op::Param(id) = nodes[table.0].op {
                        grads.accumulate_at(id, table_value.shape(), offset, &grad, 1.0);
                    } else {
                        let total = table_value.len();
                        let mut d = pool.zeroed(total);
                        d[offset..offset + grad.len()].copy_from_slice(&grad);
                        add_grad_owned(slots, &marks, pool, *table, d);
                    }
                }
                Op::Sum(a) => {
                    let len = value(*a).len();
                    let mut d = pool.take(len);
                    d.resize(len, grad[0]);
                    add_grad_owned(slots, &marks, pool, *a, d);
                }
                Op::Mean(a) => {
                    let len = value(*a).len();
                    let mut d = pool.take(len);
                    d.resize(len, grad[0] / len.max(1) as f32);
                    add_grad_owned(slots, &marks, pool, *a, d);
                }
            }
            pool.put(grad);
        }
        node_grads.clear();
        self.scratch = node_grads;
        self.marks = marks;
    }

    /// Number of nodes recorded on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Adds `values * scale` into a node-gradient slot, drawing any fresh buffer
/// from the pool. A no-op for an operand that cannot reach a collected
/// parameter (`marks[var]` is false).
fn add_grad(
    slots: &mut [Option<Vec<f32>>],
    marks: &[bool],
    pool: &mut BufferPool,
    var: Var,
    values: &[f32],
    scale: f32,
) {
    if !marks[var.0] {
        return;
    }
    match &mut slots[var.0] {
        Some(existing) => {
            for (dst, src) in existing.iter_mut().zip(values) {
                *dst += src * scale;
            }
        }
        slot @ None => {
            let mut data = pool.take(values.len());
            data.extend(values.iter().map(|v| v * scale));
            *slot = Some(data);
        }
    }
}

/// Adds an owned, already-scaled buffer into a node-gradient slot,
/// recycling it into the pool when the slot is already populated or the
/// operand cannot reach a collected parameter.
fn add_grad_owned(
    slots: &mut [Option<Vec<f32>>],
    marks: &[bool],
    pool: &mut BufferPool,
    var: Var,
    data: Vec<f32>,
) {
    if !marks[var.0] {
        pool.put(data);
        return;
    }
    match &mut slots[var.0] {
        Some(existing) => {
            for (dst, src) in existing.iter_mut().zip(&data) {
                *dst += src;
            }
            pool.put(data);
        }
        slot @ None => *slot = Some(data),
    }
}

/// A zeroed pooled `len`-float buffer for a kernel's input gradient, or
/// `None` when the operand cannot reach a collected parameter.
fn zeroed_grad(marks: &[bool], pool: &mut BufferPool, var: Var, len: usize) -> Option<Vec<f32>> {
    marks[var.0].then(|| pool.zeroed(len))
}

/// Takes a weight or bias operand's gradient slot out of `slots` so a fused
/// kernel can accumulate into it in place, or `None` when the operand cannot
/// reach a collected parameter. A slot that already holds a gradient is
/// handed over as it is, an empty one as a zeroed pooled buffer; the caller
/// puts the slot back after the kernel.
///
/// This gives the bits of a zeroed per-call buffer added into the slot
/// afterwards: each element takes exactly one `+= d·x` (or `+= d`) per
/// call, so the in-place `slot + p` equals `slot + (0 + p)` unless both are
/// −0, and a slot whose first write is `0 + p` and whose later writes are
/// adds is never −0.
fn take_weight_slot(
    slots: &mut [Option<Vec<f32>>],
    marks: &[bool],
    pool: &mut BufferPool,
    var: Var,
    len: usize,
) -> Option<Vec<f32>> {
    let slot = slots[var.0].take();
    slot.or_else(|| zeroed_grad(marks, pool, var, len))
}

/// Adds a gradient that is zero outside `window` into a `total`-long
/// node-gradient slot, touching only the window: the first contribution
/// zero-fills a fresh slot and assigns its window, later ones add into
/// their window alone. A no-op for an operand that cannot reach a
/// collected parameter (`marks[var]` is false).
fn add_grad_window(
    slots: &mut [Option<Vec<f32>>],
    marks: &[bool],
    pool: &mut BufferPool,
    var: Var,
    total: usize,
    window: std::ops::Range<usize>,
    values: &[f32],
) {
    if !marks[var.0] {
        return;
    }
    match &mut slots[var.0] {
        Some(existing) => {
            for (dst, src) in existing[window].iter_mut().zip(values) {
                *dst += src;
            }
        }
        slot @ None => {
            let mut data = pool.zeroed(total);
            data[window].copy_from_slice(values);
            *slot = Some(data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::finite_difference_check;

    #[test]
    fn forward_values_are_correct() {
        let mut params = Params::new();
        let w = params.add(
            "w",
            Tensor::matrix(2, 3, vec![1.0, 0.0, 0.0, 0.0, 2.0, 0.0]),
        );
        let mut g = Graph::new(&params);
        let w_var = g.param(w);
        let x = g.input(Tensor::vector(vec![1.0, 2.0, 3.0]));
        let y = g.matvec(w_var, x);
        assert_eq!(g.value(y), &[1.0, 4.0]);
        let s = g.sigmoid(y);
        assert!((g.value(s)[0] - 0.7310586).abs() < 1e-5);
        let total = g.sum(s);
        assert_eq!(g.value(total).len(), 1);
    }

    #[test]
    fn simple_backward_matches_hand_computation() {
        // loss = sum(w * x), dloss/dw = x
        let mut params = Params::new();
        let w = params.add("w", Tensor::vector(vec![2.0, -1.0]));
        let mut g = Graph::new(&params);
        let wv = g.param(w);
        let x = g.input(Tensor::vector(vec![3.0, 4.0]));
        let y = g.mul(wv, x);
        let loss = g.sum(y);
        let mut grads = Grads::new(&params);
        g.backward(loss, &mut grads);
        assert_eq!(grads.get(w).unwrap().data(), &[3.0, 4.0]);
    }

    #[test]
    fn gradcheck_matvec_chain() {
        finite_difference_check(
            &[(
                "w",
                Tensor::matrix(3, 4, (0..12).map(|i| 0.1 * i as f32 - 0.5).collect()),
            )],
            |g, ids| {
                let w = g.param(ids[0]);
                let x = g.input(Tensor::vector(vec![0.3, -0.2, 0.5, 1.0]));
                let h = g.matvec(w, x);
                let a = g.tanh(h);
                g.sum(a)
            },
        );
    }

    #[test]
    fn gradcheck_elementwise_and_slice_ops() {
        finite_difference_check(
            &[("v", Tensor::vector(vec![0.5, -0.3, 1.2, -2.0, 0.4, 0.7]))],
            |g, ids| {
                let v = g.param(ids[0]);
                let a = g.slice(v, 0, 3);
                let b = g.slice(v, 3, 3);
                let prod = g.mul(a, b);
                let s = g.sigmoid(prod);
                let r = g.relu(b);
                let abs = g.abs(a);
                let cat = g.concat(&[s, r, abs]);
                let scaled = g.scale(cat, 1.5);
                let shifted = g.add_scalar(scaled, 0.1);
                g.mean(shifted)
            },
        );
    }

    #[test]
    fn gradcheck_row_lookup() {
        finite_difference_check(
            &[(
                "table",
                Tensor::matrix(4, 3, (0..12).map(|i| i as f32 * 0.25 - 1.0).collect()),
            )],
            |g, ids| {
                let table = g.param(ids[0]);
                let r0 = g.row(table, 1);
                let r1 = g.row(table, 3);
                let sum = g.add(r0, r1);
                let t = g.tanh(sum);
                g.sum(t)
            },
        );
    }

    #[test]
    fn gradcheck_sub_and_abs_loss() {
        finite_difference_check(&[("p", Tensor::vector(vec![2.0, -0.4]))], |g, ids| {
            let p = g.param(ids[0]);
            let target = g.input(Tensor::vector(vec![1.0, 1.0]));
            let diff = g.sub(p, target);
            let abs = g.abs(diff);
            g.sum(abs)
        });
    }

    #[test]
    fn backward_scaled_applies_seed() {
        let mut params = Params::new();
        let w = params.add("w", Tensor::vector(vec![1.0]));
        let mut g = Graph::new(&params);
        let wv = g.param(w);
        let loss = g.sum(wv);
        let mut grads = Grads::new(&params);
        g.backward_scaled(loss, &mut grads, 0.25);
        assert_eq!(grads.get(w).unwrap().data(), &[0.25]);
    }

    #[test]
    #[should_panic]
    fn backward_requires_scalar_loss() {
        let mut params = Params::new();
        let w = params.add("w", Tensor::vector(vec![1.0, 2.0]));
        let mut g = Graph::new(&params);
        let wv = g.param(w);
        let mut grads = Grads::new(&params);
        g.backward(wv, &mut grads);
    }

    /// Runs a small but op-diverse forward/backward pass and returns the loss
    /// value plus the parameter gradients.
    fn run_workload(graph: &mut Graph<'_>, ids: &[ParamId], shift: f32) -> (Vec<f32>, Grads) {
        let w = graph.param(ids[0]);
        let table = graph.param(ids[1]);
        let x = graph.input(Tensor::vector(vec![0.4 + shift, -0.9, 1.3]));
        let h = graph.matvec(w, x);
        let t = graph.tanh(h);
        let r0 = graph.row(table, 0);
        let r1 = graph.row(table, 2);
        let mix = graph.mul(r0, r1);
        let cat = graph.concat(&[t, mix]);
        let s = graph.sigmoid(cat);
        let shifted = graph.add_scalar(s, shift);
        let loss = graph.mean(shifted);
        let mut grads = Grads::new(graph.params);
        graph.backward(loss, &mut grads);
        (graph.value(loss).to_vec(), grads)
    }

    fn workload_params() -> (Params, Vec<ParamId>) {
        let mut params = Params::new();
        let w = params.add(
            "w",
            Tensor::matrix(2, 3, (0..6).map(|i| 0.3 * i as f32 - 0.8).collect()),
        );
        let table = params.add(
            "table",
            Tensor::matrix(3, 2, (0..6).map(|i| 0.25 * i as f32 - 0.5).collect()),
        );
        (params, vec![w, table])
    }

    #[test]
    fn arena_reuse_is_bit_identical_to_fresh_graphs() {
        let (params, ids) = workload_params();
        let mut arena = TapeArena::new();

        // Three different workloads through the same arena; every one must
        // match a fresh (arena-free) graph bit for bit — reused buffers must
        // never leak stale values into a later tape.
        for step in 0..3 {
            let shift = step as f32 * 0.7 - 0.4;
            let (fresh_loss, fresh_grads) = {
                let mut graph = Graph::new(&params);
                run_workload(&mut graph, &ids, shift)
            };
            let (arena_loss, arena_grads) =
                arena.scoped(&params, |graph| run_workload(graph, &ids, shift));
            assert_eq!(
                fresh_loss, arena_loss,
                "values must not change (step {step})"
            );
            assert_eq!(
                fresh_grads, arena_grads,
                "gradients must not change (step {step})"
            );
        }
    }

    #[test]
    fn arena_recycles_buffers_across_tapes() {
        let (params, ids) = workload_params();
        let mut arena = TapeArena::new();
        assert_eq!(arena.pooled_buffers(), 0);
        arena.scoped(&params, |graph| run_workload(graph, &ids, 0.0));
        let after_first = arena.pooled_buffers();
        assert!(after_first > 0, "finishing a scope must park its buffers");
        arena.scoped(&params, |graph| run_workload(graph, &ids, 1.0));
        // An identical workload consumes and returns the same buffers: the
        // pool reaches a steady state instead of growing.
        assert_eq!(arena.pooled_buffers(), after_first);
    }

    #[test]
    fn a_param_leaf_reads_the_store_and_takes_no_pooled_buffer() {
        // As many floats as the block LSTM's gate weights (256 × 145).
        let mut params = Params::new();
        let w = params.add(
            "w",
            Tensor::matrix(256, 145, (0..256 * 145).map(|i| i as f32).collect()),
        );
        let mut arena = TapeArena::new();
        arena.scoped(&params, |graph| {
            let leaf = graph.param(w);
            assert_eq!(graph.value(leaf).as_ptr(), params.get(w).data().as_ptr());
            assert!(std::ptr::eq(graph.value_tensor(leaf), params.get(w)));
        });
        assert_eq!(arena.pooled_buffers(), 0, "binding a weight pools nothing");
    }

    #[test]
    fn arena_graph_with_smaller_tape_leaves_no_stale_nodes() {
        let (params, ids) = workload_params();
        let mut arena = TapeArena::new();
        arena.scoped(&params, |graph| {
            run_workload(graph, &ids, 0.0);
            assert!(graph.len() > 3);
        });
        // A much smaller tape in the same arena: its node count and values
        // must reflect only its own ops.
        arena.scoped(&params, |graph| {
            assert!(graph.is_empty());
            let w = graph.param(ids[0]);
            let loss = graph.sum(w);
            assert_eq!(graph.len(), 2);
            let expected: f32 = params.get(ids[0]).data().iter().sum();
            assert_eq!(graph.value(loss), &[expected]);
        });
    }
}
