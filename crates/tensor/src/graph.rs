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

use crate::kernels;
use crate::params::{Grads, ParamId, Params};
use crate::Tensor;

/// A node handle within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

#[derive(Debug, Clone)]
enum Op {
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
    fn for_each_operand(&self, mut f: impl FnMut(Var)) {
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

/// A pool of recycled `Vec<f32>` buffers, kept in power-of-two size
/// classes.
///
/// Buffers are handed out cleared (length zero), so reuse can never leak
/// stale values into a computation. A pooled buffer is only handed out for
/// a request it already fits, and is never reallocated: a large buffer
/// never serves a small value, so no pooled buffer creeps toward the
/// largest size the pool has ever served.
#[derive(Debug, Default)]
struct BufferPool {
    /// `buffers[k]` holds buffers whose capacity is at least `2^k` and
    /// below `2^(k + 1)`.
    buffers: Vec<Vec<Vec<f32>>>,
}

impl BufferPool {
    /// Pops a cleared buffer of at least `capacity` elements from the
    /// smallest class that fits, or allocates one of that class's size.
    fn take(&mut self, capacity: usize) -> Vec<f32> {
        let class = capacity.next_power_of_two().trailing_zeros() as usize;
        match self.buffers.get_mut(class).and_then(Vec::pop) {
            Some(mut buffer) => {
                buffer.clear();
                buffer
            }
            None => Vec::with_capacity(1 << class),
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
        let Some(class) = buffer.capacity().checked_ilog2() else {
            return;
        };
        let class = class as usize;
        if self.buffers.len() <= class {
            self.buffers.resize_with(class + 1, Vec::new);
        }
        self.buffers[class].push(buffer);
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
        self.pool.buffers.iter().map(Vec::len).sum()
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
        }
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
        self.nodes.push(Node {
            op: Op::Param(id),
            value: None,
        });
        Var(self.nodes.len() - 1)
    }

    /// A constant input leaf (no gradient).
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push(Op::Input, value)
    }

    /// Computes an elementwise unary op into a pooled buffer.
    fn map(&mut self, a: Var, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = self.pool.take(self.value_tensor(a).len());
        let src = self.value_tensor(a);
        out.extend(src.data().iter().map(|&x| f(x)));
        Tensor::from_vec(out, src.shape().to_vec())
    }

    /// Computes an elementwise unary slice kernel into a pooled buffer.
    fn map_slice(&mut self, a: Var, kernel: fn(&[f32], &mut [f32])) -> Tensor {
        let mut out = self.pool.zeroed(self.value_tensor(a).len());
        let src = self.value_tensor(a);
        kernel(src.data(), &mut out);
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
        let value = self.zip(a, b, |x, y| x + y);
        self.push(Op::Add(a, b), value)
    }

    /// Elementwise subtraction (`a - b`). Shapes must match.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.zip(a, b, |x, y| x - y);
        self.push(Op::Sub(a, b), value)
    }

    /// Elementwise multiplication. Shapes must match.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.zip(a, b, |x, y| x * y);
        self.push(Op::Mul(a, b), value)
    }

    /// Multiplies every element by a constant.
    pub fn scale(&mut self, a: Var, factor: f32) -> Var {
        let value = self.map(a, |x| x * factor);
        self.push(Op::Scale(a, factor), value)
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&mut self, a: Var, constant: f32) -> Var {
        let value = self.map(a, |x| x + constant);
        self.push(Op::AddScalar(a), value)
    }

    /// Matrix-vector product `w · x` where `w` is `[m, n]` and `x` is `[n]`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are incompatible.
    pub fn matvec(&mut self, w: Var, x: Var) -> Var {
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
        let packed = self.push(
            Op::LstmStep {
                w,
                b,
                x,
                h_prev,
                c_prev,
                hidden,
            },
            Tensor::vector(out),
        );
        let h = self.slice(packed, 0, hidden);
        let c = self.slice(packed, hidden, hidden);
        (h, c)
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.map_slice(a, kernels::sigmoid_slice);
        self.push(Op::Sigmoid(a), value)
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.map_slice(a, kernels::tanh_slice);
        self.push(Op::Tanh(a), value)
    }

    /// Elementwise rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.map(a, |x| x.max(0.0));
        self.push(Op::Relu(a), value)
    }

    /// Elementwise absolute value.
    pub fn abs(&mut self, a: Var) -> Var {
        let value = self.map(a, f32::abs);
        self.push(Op::Abs(a), value)
    }

    /// Concatenates vectors into one vector.
    pub fn concat(&mut self, parts: &[Var]) -> Var {
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
        let mut data = self.pool.take(self.value_tensor(table).cols());
        data.extend_from_slice(self.value_tensor(table).row(row));
        self.push(Op::Row { table, row }, Tensor::vector(data))
    }

    /// Sum of all elements (produces a scalar).
    pub fn sum(&mut self, a: Var) -> Var {
        let total: f32 = self.value(a).iter().sum();
        let mut data = self.pool.take(1);
        data.push(total);
        self.push(Op::Sum(a), Tensor::vector(data))
    }

    /// Mean of all elements (produces a scalar).
    pub fn mean(&mut self, a: Var) -> Var {
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
                    let live = live_columns(nodes, &marks, params, *x);
                    let mut dx = pool.zeroed(live.len());
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
                        live.start,
                        &mut dx,
                        &mut dh,
                        &mut dc,
                    );
                    slots[w.0] = dw;
                    slots[b.0] = db;
                    add_grad_window(slots, &marks, pool, *x, input, live, &dx);
                    pool.put(dx);
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

/// The columns of `x`'s gradient that can reach a collected parameter:
/// empty when `x` cannot, from the first marked part to the end of the last
/// when `x` is a [`Op::Concat`], and all of `x` otherwise. A concat's
/// backward reads only its marked parts' windows, so the columns outside
/// this span are never read.
fn live_columns(nodes: &[Node], marks: &[bool], params: &Params, x: Var) -> std::ops::Range<usize> {
    if !marks[x.0] {
        return 0..0;
    }
    let Op::Concat(parts) = &nodes[x.0].op else {
        return 0..nodes[x.0].value(params).len();
    };
    let (mut offset, mut live) = (0, None::<std::ops::Range<usize>>);
    for part in parts {
        let end = offset + nodes[part.0].value(params).len();
        if marks[part.0] {
            live = Some(live.map_or(offset, |span| span.start)..end);
        }
        offset = end;
    }
    live.expect("a marked concat has a marked part")
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

    /// The floats the arena's pool holds parked.
    fn pooled_capacity(arena: &TapeArena) -> usize {
        arena.pool.buffers.iter().flatten().map(Vec::capacity).sum()
    }

    #[test]
    fn small_graphs_after_a_large_weight_gradient_keep_the_pool_flat() {
        // As many floats as the block LSTM's gate weights (4 · 64 × 145).
        let mut params = Params::new();
        let w = params.add(
            "w",
            Tensor::matrix(
                256,
                145,
                (0..256 * 145).map(|i| (i % 17) as f32 * 0.01).collect(),
            ),
        );
        let p = params.add(
            "p",
            Tensor::vector((0..64).map(|i| i as f32 * 0.02).collect()),
        );
        let mut arena = TapeArena::new();
        let mut grads = Grads::new(&params);
        arena.scoped(&params, |graph| {
            let w = graph.param(w);
            let x = graph.input(Tensor::vector(vec![0.5; 145]));
            let y = graph.matvec(w, x);
            let loss = graph.sum(y);
            graph.backward(loss, &mut grads);
        });
        let small = |graph: &mut Graph<'_>, grads: &mut Grads, step: usize| {
            let mut acc = graph.param(p);
            for k in 0..24 {
                let x = graph.input(Tensor::vector(vec![(step + k) as f32 * 0.01; 64]));
                let m = graph.mul(acc, x);
                acc = graph.tanh(m);
            }
            let loss = graph.mean(acc);
            graph.backward(loss, grads);
        };
        let mut flat = None;
        for step in 0..20 {
            arena.scoped(&params, |graph| small(graph, &mut grads, step));
            let parked = (pooled_capacity(&arena), arena.pooled_buffers());
            assert_eq!(*flat.get_or_insert(parked), parked, "small graph {step}");
        }

        // `take` hands out only a buffer that already fits, from the
        // smallest class that does: it neither grows a small buffer nor
        // lends out a large one.
        let mut pool = BufferPool::default();
        pool.put(Vec::with_capacity(1));
        pool.put(Vec::with_capacity(256 * 145));
        let buffer = pool.take(64);
        assert!(
            (64..128).contains(&buffer.capacity()),
            "{}",
            buffer.capacity()
        );
        assert_eq!(pool.buffers.iter().map(Vec::len).sum::<usize>(), 2);
        pool.put(buffer);
        let reused = pool.take(40);
        assert!(
            (64..128).contains(&reused.capacity()),
            "{}",
            reused.capacity()
        );
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

    /// One synthetic "sample": an input vector, an embedding row pair, and a
    /// per-sample loss scale.
    struct Sample {
        x: Vec<f32>,
        row: usize,
        scale: f32,
    }

    fn samples() -> Vec<Sample> {
        (0..7)
            .map(|i| Sample {
                x: (0..4)
                    .map(|j| ((i * 5 + j * 3) % 9) as f32 * 0.4 - 1.3)
                    .collect(),
                row: (i * 3) % 5,
                scale: 1.0 / (0.5 + i as f32),
            })
            .collect()
    }

    fn test_params() -> Params {
        let mut params = Params::new();
        params.add(
            "w",
            Tensor::matrix(3, 4, (0..12).map(|i| 0.21 * i as f32 - 1.1).collect()),
        );
        params.add(
            "table",
            Tensor::matrix(5, 3, (0..15).map(|i| 0.09 * i as f32 - 0.55).collect()),
        );
        params.add(
            "bias",
            Tensor::vector((0..3).map(|i| 0.3 - 0.2 * i as f32).collect()),
        );
        params
    }

    /// An op-diverse model: matvec, fused linear, row lookups (both the
    /// sparse-param and repeated-use paths), elementwise ops, concat,
    /// slices, dynamic scale/add_scalar, and both reductions.
    fn build_loss(graph: &mut Graph<'_>, sample: &Sample) -> Var {
        let w = graph.param(ParamId(0));
        let table = graph.param(ParamId(1));
        let bias = graph.param(ParamId(2));
        let x = graph.input(Tensor::vector(sample.x.clone()));
        let h = graph.linear(w, bias, x);
        let t = graph.tanh(h);
        let m = graph.matvec(w, x);
        let s = graph.sigmoid(m);
        let r0 = graph.row(table, sample.row);
        let r1 = graph.row(table, (sample.row + 2) % 5);
        let mixed = graph.mul(r0, r1);
        let diff = graph.sub(t, s);
        let a = graph.abs(diff);
        let cat = graph.concat(&[a, mixed]);
        let lo = graph.slice(cat, 0, 3);
        let hi = graph.slice(cat, 3, 3);
        let summed = graph.add(lo, hi);
        let rl = graph.relu(summed);
        let scaled = graph.scale(rl, sample.scale);
        let shifted = graph.add_scalar(scaled, 0.25 * sample.scale);
        let total = graph.sum(shifted);
        let mean = graph.mean(shifted);
        let both = graph.concat(&[total, mean]);
        graph.mean(both)
    }

    /// [`test_params`] plus a fused LSTM cell (hidden 2, input 3).
    fn lstm_params() -> Params {
        let mut params = test_params();
        params.add(
            "lstm_w",
            Tensor::matrix(
                8,
                5,
                (0..40).map(|i| 0.07 * (i % 11) as f32 - 0.35).collect(),
            ),
        );
        params.add(
            "lstm_b",
            Tensor::vector((0..8).map(|i| 0.05 * i as f32 - 0.2).collect()),
        );
        params
    }

    /// [`build_loss`] plus a fused LSTM step whose input comes from the
    /// table, whose hidden state comes from the weight matrix, and whose
    /// cell state is an input, so every collected subset prunes a
    /// different part of the graph.
    fn build_lstm_loss(graph: &mut Graph<'_>, sample: &Sample) -> Var {
        let base = build_loss(graph, sample);
        let w = graph.param(ParamId(0));
        let table = graph.param(ParamId(1));
        let lstm_w = graph.param(ParamId(3));
        let lstm_b = graph.param(ParamId(4));
        let x = graph.input(Tensor::vector(sample.x.clone()));
        let projected = graph.matvec(w, x);
        let h_prev = graph.slice(projected, 1, 2);
        let c_prev = graph.input(Tensor::vector(vec![0.5, -0.25]));
        let row = graph.row(table, sample.row);
        let (h, c) = graph.lstm_step(lstm_w, lstm_b, row, h_prev, c_prev, 2);
        let joined = graph.concat(&[base, h, c]);
        graph.mean(joined)
    }

    /// A store's slots as bit patterns, `None` where nothing was written.
    fn slot_bits(params: &Params, grads: &Grads) -> Vec<Option<Vec<u32>>> {
        params
            .iter()
            .map(|(id, _, _)| {
                grads
                    .get(id)
                    .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
            })
            .collect()
    }

    #[test]
    fn a_subset_store_gets_the_full_stores_bits_and_nothing_else() {
        let params = lstm_params();
        let ids: Vec<ParamId> = params.iter().map(|(id, _, _)| id).collect();
        for (index, sample) in samples().iter().enumerate() {
            let seed = 0.2 + index as f32 * 0.15;
            let mut graph = Graph::new(&params);
            let loss = build_lstm_loss(&mut graph, sample);
            let mut full = Grads::new(&params);
            graph.backward_scaled(loss, &mut full, seed);
            let full = slot_bits(&params, &full);
            assert!(full.iter().all(Option::is_some));
            for mask in 0u32..1 << ids.len() {
                let subset: Vec<ParamId> = ids
                    .iter()
                    .copied()
                    .filter(|id| mask & (1 << id.index()) != 0)
                    .collect();
                let expected: Vec<Option<Vec<u32>>> = full
                    .iter()
                    .enumerate()
                    .map(|(i, bits)| bits.clone().filter(|_| mask & (1 << i) != 0))
                    .collect();

                let mut only = Grads::only(&params, &subset);
                let mut graph = Graph::new(&params);
                let loss = build_lstm_loss(&mut graph, sample);
                graph.backward_scaled(loss, &mut only, seed);
                assert_eq!(
                    slot_bits(&params, &only),
                    expected,
                    "sample {index}, subset {subset:?}"
                );
            }
        }
    }

    #[test]
    fn overlapping_slices_of_a_theta_sized_parameter_agree_with_a_dense_sum() {
        // As many floats as a parameter table θ, sliced the way its
        // per-instruction features are: 15-float windows, some repeated and
        // some overlapping, read both straight from the parameter and
        // through an elementwise op (a non-parameter source slot).
        const THETA_LEN: usize = 12_017;
        const WINDOWS: [(usize, usize); 8] = [
            (0, 15),
            (15, 15),
            (0, 15),
            (7, 15),
            (6_000, 15),
            (6_000, 15),
            (6_010, 15),
            (THETA_LEN - 15, 15),
        ];
        let mut params = Params::new();
        let theta = params.add(
            "theta",
            Tensor::vector(
                (0..THETA_LEN)
                    .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.013)
                    .collect(),
            ),
        );
        // Per-window weights, with signed zeros so the gradient carries -0.
        let weights = |window: usize| -> Vec<f32> {
            (0..15)
                .map(|j| match (window + j) % 7 {
                    0 => -0.0,
                    1 => 0.0,
                    r => (r as f32 - 3.5) * 0.21,
                })
                .collect()
        };
        let build = |graph: &mut Graph<'_>| -> Var {
            let theta = graph.param(theta);
            let squashed = graph.tanh(theta);
            let mut terms = Vec::new();
            for (index, &(start, len)) in WINDOWS.iter().enumerate() {
                for src in [theta, squashed] {
                    let window = graph.slice(src, start, len);
                    let c = graph.input(Tensor::vector(weights(index)));
                    let product = graph.mul(window, c);
                    terms.push(graph.sum(product));
                }
            }
            let all = graph.concat(&terms);
            graph.sum(all)
        };
        let seed = 0.75f32;

        // Dense reference: each source's gradient summed window by window
        // in the tape's reverse order, then the tanh path folded in.
        let mut direct = vec![0.0f32; THETA_LEN];
        let mut through_tanh = vec![0.0f32; THETA_LEN];
        for (index, &(start, _)) in WINDOWS.iter().enumerate().rev() {
            for (j, c) in weights(index).iter().enumerate() {
                through_tanh[start + j] += seed * c;
            }
            for (j, c) in weights(index).iter().enumerate() {
                direct[start + j] += seed * c;
            }
        }
        let theta_values = params.get(theta).data();
        let mut reference = vec![0.0f32; THETA_LEN];
        for i in 0..THETA_LEN {
            let y = kernels::tanh(theta_values[i]);
            reference[i] += direct[i] + through_tanh[i] * (1.0 - y * y);
        }

        let mut graph = Graph::new(&params);
        let loss = build(&mut graph);
        let mut taped = Grads::new(&params);
        graph.backward_scaled(loss, &mut taped, seed);
        let reference_bits: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
        assert_eq!(slot_bits(&params, &taped), vec![Some(reference_bits)]);
    }

    /// One step of [`weight_gradients_accumulate_in_place_like_per_call_buffers`]:
    /// the step's inputs, and the weights its `h` and `c` are scored with.
    struct LstmCase {
        x: [f32; 2],
        h_prev: [f32; 3],
        c_prev: [f32; 3],
        h_weights: [f32; 3],
        c_weights: [f32; 3],
    }

    /// Adds a per-call gradient buffer into a node slot the way the tape
    /// used to: the first buffer becomes the slot, later ones are added.
    fn add_per_call(slot: &mut Option<Vec<f32>>, buffer: Vec<f32>) {
        match slot {
            Some(existing) => existing.iter_mut().zip(&buffer).for_each(|(d, v)| *d += v),
            None => *slot = Some(buffer),
        }
    }

    #[test]
    fn weight_gradients_accumulate_in_place_like_per_call_buffers() {
        const HIDDEN: usize = 3;
        const INPUT: usize = 2;
        const WIDTH: usize = INPUT + HIDDEN;
        let mut weights: Vec<f32> = (0..4 * HIDDEN * WIDTH)
            .map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.11)
            .collect();
        // Unit 1's forget-gate row sees `x[0] > 0` through an inf weight in
        // every step: the gate saturates at 1 and its gradient row is zero.
        weights[(HIDDEN + 1) * WIDTH] = f32::INFINITY;
        let mut params = Params::new();
        let w = params.add("w", Tensor::matrix(4 * HIDDEN, WIDTH, weights));
        let b = params.add(
            "b",
            Tensor::vector((0..4 * HIDDEN).map(|i| 0.05 * i as f32 - 0.3).collect()),
        );
        let cases = [
            // A first step: `h_prev = +0`, so a negative gate gradient
            // makes a −0 product in the `h` columns of `dw`.
            LstmCase {
                x: [0.7, -0.4],
                h_prev: [0.0; 3],
                c_prev: [0.0; 3],
                h_weights: [-0.9, -0.6, -1.3],
                c_weights: [-0.5, 0.8, -0.2],
            },
            // Unit 2 is not scored: its four gate rows get zero gradient.
            LstmCase {
                x: [0.3, 0.9],
                h_prev: [0.2, -0.5, 0.4],
                c_prev: [-0.3, 0.6, 0.1],
                h_weights: [0.4, -0.7, 0.0],
                c_weights: [0.6, 0.3, 0.0],
            },
            LstmCase {
                x: [1.1, -0.2],
                h_prev: [-0.6, 0.1, 0.8],
                c_prev: [0.5, -0.4, -0.9],
                h_weights: [-0.3, 0.5, 0.9],
                c_weights: [0.2, -0.8, 0.4],
            },
        ];
        let build = |graph: &mut Graph<'_>| -> Var {
            let w = graph.param(w);
            let b = graph.param(b);
            let mut terms = Vec::new();
            for case in &cases {
                let x = graph.input(Tensor::vector(case.x.to_vec()));
                let h_prev = graph.input(Tensor::vector(case.h_prev.to_vec()));
                let c_prev = graph.input(Tensor::vector(case.c_prev.to_vec()));
                let (h, c) = graph.lstm_step(w, b, x, h_prev, c_prev, HIDDEN);
                for (state, scores) in [(h, case.h_weights), (c, case.c_weights)] {
                    let scores = graph.input(Tensor::vector(scores.to_vec()));
                    let product = graph.mul(state, scores);
                    terms.push(graph.sum(product));
                }
            }
            let all = graph.concat(&terms);
            graph.sum(all)
        };
        let seed = 0.5f32;

        // Reference: each step's weight gradients in a zeroed per-call
        // buffer, added into the node slot afterwards, in the tape's
        // reverse step order, then flushed into a fresh store slot.
        let (w_values, b_values) = (params.get(w).data(), params.get(b).data());
        let (mut slot_w, mut slot_b) = (None, None);
        for (index, case) in cases.iter().enumerate().rev() {
            let mut packed = vec![0.0f32; kernels::lstm_packed_len(HIDDEN)];
            kernels::lstm_step(
                w_values,
                b_values,
                &case.x,
                &case.h_prev,
                &case.c_prev,
                HIDDEN,
                INPUT,
                &mut packed,
            );
            // The `c` slice's gradient lands first, in a zero-filled slot;
            // the `h` slice's is added into it.
            let mut g_packed = vec![0.0f32; kernels::lstm_packed_len(HIDDEN)];
            for k in 0..HIDDEN {
                g_packed[k] = 0.0 + seed * case.h_weights[k];
                g_packed[HIDDEN + k] = seed * case.c_weights[k];
            }
            let mut dw = vec![0.0f32; w_values.len()];
            let mut db = vec![0.0f32; 4 * HIDDEN];
            kernels::lstm_step_grad(
                w_values,
                &case.x,
                &case.h_prev,
                &case.c_prev,
                &packed,
                &g_packed,
                HIDDEN,
                INPUT,
                Some(&mut dw),
                Some(&mut db),
                0,
                &mut [0.0; INPUT],
                &mut [0.0; HIDDEN],
                &mut [0.0; HIDDEN],
            );
            // The cases cover what they claim to.
            assert_eq!(db[HIDDEN + 1], 0.0, "the inf row's gate is saturated");
            if index == 0 {
                assert!(
                    db.iter().any(|d| *d < 0.0),
                    "a negative gate at h_prev = +0"
                );
            }
            if index == 1 {
                assert!((0..4).all(|gate| db[gate * HIDDEN + 2] == 0.0));
            }
            add_per_call(&mut slot_w, dw);
            add_per_call(&mut slot_b, db);
        }
        let flushed = |slot: Option<Vec<f32>>| -> Option<Vec<u32>> {
            Some(slot?.iter().map(|v| (0.0f32 + v).to_bits()).collect())
        };
        let expected = vec![flushed(slot_w), flushed(slot_b)];

        let mut graph = Graph::new(&params);
        let loss = build(&mut graph);
        let mut taped = Grads::new(&params);
        graph.backward_scaled(loss, &mut taped, seed);
        assert_eq!(slot_bits(&params, &taped), expected);
    }

    #[test]
    fn an_lstm_input_gradient_over_its_live_columns_gives_theta_the_full_bits() {
        const HIDDEN: usize = 5;
        let ramp = |len: usize, step: f32, shift: f32| -> Vec<f32> {
            (0..len)
                .map(|i| ((i * 7 % 11) as f32 - 5.0) * step + shift)
                .collect()
        };
        // x = [lead ‖ θ ‖ tail]: 6 + 4 + 3 columns.
        let input = 13;
        let mut params = Params::new();
        let w = params.add(
            "w",
            Tensor::matrix(
                4 * HIDDEN,
                input + HIDDEN,
                ramp(4 * HIDDEN * (input + HIDDEN), 0.09, 0.01),
            ),
        );
        let b = params.add("b", Tensor::vector(ramp(4 * HIDDEN, 0.1, 0.2)));
        let lead = params.add("lead", Tensor::vector(ramp(6, 0.3, -0.1)));
        let theta = params.add("theta", Tensor::vector(ramp(4, 0.25, 0.3)));
        let tail = ramp(3, -0.2, 0.05);
        // Two chained steps, so θ's gradient also arrives through `h_prev`
        // and `c_prev`. `lead_is_param` binds the leading part as a
        // parameter leaf instead of an input.
        let run = |lead_is_param: bool, grads: &mut Grads| {
            let mut graph = Graph::new(&params);
            let (w, b) = (graph.param(w), graph.param(b));
            let lead = if lead_is_param {
                graph.param(lead)
            } else {
                graph.input(params.get(lead).clone())
            };
            let theta = graph.param(theta);
            let tail = graph.input(Tensor::vector(tail.clone()));
            let x = graph.concat(&[lead, theta, tail]);
            let zeros = graph.input(Tensor::vector(vec![0.0; HIDDEN]));
            let (h, c) = graph.lstm_step(w, b, x, zeros, zeros, HIDDEN);
            let (h, c) = graph.lstm_step(w, b, x, h, c, HIDDEN);
            let both = graph.concat(&[h, c]);
            let loss = graph.sum(both);
            graph.backward_scaled(loss, grads, 0.75);
        };
        let theta_bits = |grads: &Grads| -> Vec<u32> {
            let grad = grads.get(theta).expect("θ gets a gradient");
            grad.data().iter().map(|v| v.to_bits()).collect()
        };
        // The leading part as an input: `dx` covers θ's 4 columns only.
        let mut only_theta = Grads::only(&params, &[theta]);
        run(false, &mut only_theta);
        // The leading part collected too: `dx` covers lead and θ.
        let mut lead_and_theta = Grads::only(&params, &[lead, theta]);
        run(true, &mut lead_and_theta);
        // Everything collected: the same span, plus weight gradients.
        let mut full = Grads::new(&params);
        run(true, &mut full);
        let expected = theta_bits(&full);
        assert_eq!(theta_bits(&only_theta), expected);
        assert_eq!(theta_bits(&lead_and_theta), expected);
        assert!(full.get(lead).is_some() && only_theta.get(lead).is_none());
    }

    #[test]
    fn shared_weights_give_a_subset_store_the_full_stores_bits_across_samples() {
        let mut params = Params::new();
        let ramp = |len: usize, step: f32| -> Vec<f32> {
            (0..len)
                .map(|i| (i as f32 - len as f32 / 2.0) * step)
                .collect()
        };
        let shared = params.add("shared", Tensor::matrix(3, 4, ramp(12, 0.17)));
        let bias_x = params.add("bias_x", Tensor::vector(ramp(3, 0.2)));
        let bias_y = params.add("bias_y", Tensor::vector(ramp(3, -0.3)));
        let once = params.add("once", Tensor::matrix(2, 3, ramp(6, 0.4)));
        let bias_out = params.add("bias_out", Tensor::vector(vec![-0.1, 0.05]));
        // Bound by two leaves, consumed in the reverse of their leaf order.
        let twice = params.add("twice", Tensor::matrix(2, 2, ramp(4, 0.6)));
        let build = |graph: &mut Graph<'_>, sample: &Sample| -> Var {
            let shared = graph.param(shared);
            let bias_x = graph.param(bias_x);
            let bias_y = graph.param(bias_y);
            let once = graph.param(once);
            let bias_out = graph.param(bias_out);
            let twice_early = graph.param(twice);
            let x = graph.input(Tensor::vector(sample.x.clone()));
            let y = graph.input(Tensor::vector(sample.x.iter().map(|v| v * -0.5).collect()));
            let hx = graph.linear(shared, bias_x, x);
            let hy = graph.linear(shared, bias_y, y);
            let sum = graph.add(hx, hy);
            let t = graph.tanh(sum);
            let out = graph.linear(once, bias_out, t);
            // A negative output's zero gradient skips its row of `once`.
            let r = graph.relu(out);
            let twice_late = graph.param(twice);
            let u = graph.matvec(twice_late, r);
            let v = graph.matvec(twice_early, u);
            let scaled = graph.scale(v, sample.scale);
            graph.sum(scaled)
        };
        let mut data = samples();
        // `+0` inputs make `±0` products in the shared weight's gradient.
        data[1].x = vec![0.0, 0.8, 0.0, -0.6];
        let all: Vec<ParamId> = params.iter().map(|(id, _, _)| id).collect();
        let subset = [shared, bias_x, bias_y, twice];
        // Every sample accumulates into one store per set, so each slot is
        // added into after the first sample.
        let mut full = Grads::new(&params);
        let mut only = Grads::only(&params, &subset);
        for (index, sample) in data.iter().enumerate() {
            let seed = 0.3 + 0.2 * index as f32;
            for grads in [&mut full, &mut only] {
                let mut graph = Graph::new(&params);
                let loss = build(&mut graph, sample);
                graph.backward_scaled(loss, grads, seed);
            }
            let expected: Vec<Option<Vec<u32>>> = slot_bits(&params, &full)
                .into_iter()
                .zip(&all)
                .map(|(bits, id)| bits.filter(|_| subset.contains(id)))
                .collect();
            assert_eq!(slot_bits(&params, &only), expected, "sample {index}");
        }
        assert!(full.get(once).is_some() && full.get(bias_out).is_some());
    }
}
