//! Graph-once compiled execution: record a tape into a flat schedule, then
//! replay it per sample without rebuilding nodes.
//!
//! The tape engine ([`Graph`]) rebuilds a per-sample node list — a shape
//! `Vec` and a pooled buffer per op (a parameter leaf holds none; its reads
//! go to the store) — even though a surrogate's graph *structure* is
//! identical for every sample of the same shape.
//! [`CompiledProgram::record`] runs a model closure once on
//! an ordinary eager graph and freezes the resulting tape into a flat
//! topological schedule of op descriptors with preassigned offsets into one
//! contiguous value arena and one gradient arena (extending
//! [`TapeArena`](crate::TapeArena)'s buffer pooling from individual buffers
//! to whole schedules). [`CompiledProgram::replay`] then re-runs the closure
//! in **bind mode** — a cheap validation pass that captures only the
//! dynamic data (input tensors, embedding row indices, per-sample scalar
//! constants) — and executes the schedule with the fused kernels in
//! [`crate::kernels`].
//!
//! The engine is training-only: the batch engine
//! ([`Batch::accumulate_compiled`](crate::Batch::accumulate_compiled)) runs
//! a batch's first sample of a new key on the tape, forward and backward,
//! on a worker, and that worker freezes the tape into the program; later
//! samples of that key replay it. Inference needs no tape at all, so it
//! runs the models' plain-kernel forwards instead of a program.
//!
//! # Bit-equality with the tape
//!
//! Replay is arranged to be **bitwise identical** to running the same
//! closure on the tape:
//!
//! * forward values route through the same kernel functions in the same
//!   node order;
//! * backward contributions are applied in the same reverse-node order,
//!   with the tape's assign-then-accumulate discipline (a slot's first
//!   contribution overwrites, later ones add) replicated per arena slot,
//!   and weight and bias gradients accumulated in place as on the tape
//!   (see [`route_targets`]);
//! * parameter gradients flush into [`Grads`] at the same reverse-sweep
//!   positions via the same accumulation arithmetic. A collected parameter
//!   the program uses once as a weight or bias skips the arena and its
//!   flush: its kernel accumulates straight into the store's slot, which
//!   starts at +0 and only adds, so the bits are the same. A store that
//!   does not collect a parameter ignores its flush, so a [`Grads::only`]
//!   store gets the tape's slots and nothing else. Replay skips every node
//!   whose gradient cannot reach any parameter and computes no weight
//!   gradient for a parameter the store does not collect, but, unlike the
//!   tape, still computes the other gradients that lead only there.
//!
//! One documented edge is out of scope: a graph whose [`Graph::slice`]
//! regions *overlap* and whose gradient elements are negative zero could in
//! principle differ in the sign of zero between engines; no model in this
//! workspace (and no test) builds overlapping slices, and the optimize
//! stage that reuses theta slices runs on the tape.
//!
//! # Structure keys
//!
//! A program is valid for every sample whose closure builds the *same op
//! sequence* (same ops, operands, and tensor lengths). Callers name that
//! equivalence class with a [`ProgramKey`] and look programs up in a
//! [`ProgramCache`]; a key must uniquely determine the structure — replay
//! panics loudly if a rebuilt op diverges from the recorded schedule.

use std::collections::HashMap;
use std::sync::Arc;

use crate::graph::{Graph, Op};
use crate::kernels;
use crate::params::{Grads, ParamId, Params};
use crate::{Tensor, Var};

/// A structure key naming one compiled graph shape, e.g. a model kind plus
/// the per-sample dimensions that change its op sequence. Equal keys must
/// imply identical op sequences.
pub type ProgramKey = Vec<u32>;

/// One schedule entry: the op kind plus operand node indices. Dynamic
/// per-sample data (input values, row indices, scalar constants) lives in
/// the binder, not here.
#[derive(Debug, Clone, PartialEq)]
enum CompiledOp {
    Param(ParamId),
    Input,
    Add(u32, u32),
    Sub(u32, u32),
    Mul(u32, u32),
    Scale(u32),
    AddScalar(u32),
    MatVec {
        w: u32,
        x: u32,
    },
    Linear {
        w: u32,
        b: u32,
        x: u32,
    },
    LstmStep {
        w: u32,
        b: u32,
        x: u32,
        h_prev: u32,
        c_prev: u32,
        hidden: u32,
    },
    Sigmoid(u32),
    Tanh(u32),
    Relu(u32),
    Abs(u32),
    Concat(Box<[u32]>),
    Slice {
        src: u32,
        start: usize,
        len: usize,
    },
    Row {
        table: u32,
    },
    Sum(u32),
    Mean(u32),
}

/// A frozen tape: a flat topological schedule with preassigned value/grad
/// arena offsets, recorded once per graph structure and replayed per sample.
///
/// Programs are immutable and cheaply shared across worker threads behind an
/// [`Arc`]; each worker replays against its own [`ReplayBuffers`].
#[derive(Debug, PartialEq)]
pub struct CompiledProgram {
    ops: Vec<CompiledOp>,
    /// Per-node offset into the value and gradient arenas (monotone in node
    /// index, so operands always precede their consumer in the arena).
    offsets: Vec<usize>,
    /// Per-node value length.
    lens: Vec<usize>,
    /// Per node: true for a parameter leaf whose parameter has exactly one
    /// operand use in the whole program. Its one consumer's weight kernel
    /// can then accumulate straight into the [`Grads`] store (see
    /// [`CompiledProgram::weight_route`]).
    sole_use: Vec<bool>,
    /// Per node: true if a parameter leaf is the node or among its
    /// operands' ancestors. The backward sweep skips every other node: its
    /// gradient cannot reach a parameter.
    reaches_param: Vec<bool>,
    /// Total arena length.
    values_len: usize,
    /// Node index of the recorded scalar loss.
    loss: usize,
}

impl CompiledProgram {
    /// Records one schedule by running `build` on an ordinary eager graph
    /// and freezing the tape it leaves behind.
    ///
    /// # Panics
    ///
    /// Panics if `build` does not return a scalar loss node.
    pub fn record(params: &Params, build: impl FnOnce(&mut Graph<'_>) -> Var) -> Arc<Self> {
        let mut graph = Graph::new(params);
        let loss = build(&mut graph);
        Self::freeze(&graph, loss)
    }

    /// Freezes a tape that is already built — and may already have run its
    /// backward pass, which leaves the nodes as they were — into the program
    /// for its structure, rooted at `loss`. This is how a training worker
    /// that tapes a sample with no program yet records one from the same
    /// pass: the result equals [`Self::record`] run on the same closure.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar node.
    pub(crate) fn freeze(graph: &Graph<'_>, loss: Var) -> Arc<Self> {
        assert!(
            graph.node_len(loss.0) == 1,
            "compiled programs require a scalar loss"
        );
        let count = graph.node_count();
        let mut ops = Vec::with_capacity(count);
        let mut offsets = Vec::with_capacity(count);
        let mut lens = Vec::with_capacity(count);
        let mut values_len = 0usize;
        // Operand uses per parameter, summed over every leaf of it.
        let mut uses = vec![0usize; graph.params().len()];
        let mut reaches_param = Vec::with_capacity(count);
        for index in 0..count {
            let op = graph.node_op(index);
            let mut reaches = matches!(op, Op::Param(_));
            op.for_each_operand(|operand| {
                reaches |= reaches_param[operand.0];
                if let Op::Param(id) = graph.node_op(operand.0) {
                    uses[id.0] += 1;
                }
            });
            reaches_param.push(reaches);
        }
        let sole_use = (0..count)
            .map(|index| matches!(graph.node_op(index), Op::Param(id) if uses[id.0] == 1))
            .collect();
        for index in 0..count {
            let len = graph.node_len(index);
            offsets.push(values_len);
            lens.push(len);
            values_len += len;
            let op = match graph.node_op(index) {
                Op::Param(id) => CompiledOp::Param(*id),
                Op::Input => CompiledOp::Input,
                Op::Add(a, b) => CompiledOp::Add(a.0 as u32, b.0 as u32),
                Op::Sub(a, b) => CompiledOp::Sub(a.0 as u32, b.0 as u32),
                Op::Mul(a, b) => CompiledOp::Mul(a.0 as u32, b.0 as u32),
                Op::Scale(a, _) => CompiledOp::Scale(a.0 as u32),
                Op::AddScalar(a) => CompiledOp::AddScalar(a.0 as u32),
                Op::MatVec { w, x } => CompiledOp::MatVec {
                    w: w.0 as u32,
                    x: x.0 as u32,
                },
                Op::Linear { w, b, x } => CompiledOp::Linear {
                    w: w.0 as u32,
                    b: b.0 as u32,
                    x: x.0 as u32,
                },
                Op::LstmStep {
                    w,
                    b,
                    x,
                    h_prev,
                    c_prev,
                    hidden,
                } => CompiledOp::LstmStep {
                    w: w.0 as u32,
                    b: b.0 as u32,
                    x: x.0 as u32,
                    h_prev: h_prev.0 as u32,
                    c_prev: c_prev.0 as u32,
                    hidden: *hidden as u32,
                },
                Op::Sigmoid(a) => CompiledOp::Sigmoid(a.0 as u32),
                Op::Tanh(a) => CompiledOp::Tanh(a.0 as u32),
                Op::Relu(a) => CompiledOp::Relu(a.0 as u32),
                Op::Abs(a) => CompiledOp::Abs(a.0 as u32),
                Op::Concat(parts) => CompiledOp::Concat(parts.iter().map(|p| p.0 as u32).collect()),
                Op::Slice { src, start, len } => CompiledOp::Slice {
                    src: src.0 as u32,
                    start: *start,
                    len: *len,
                },
                Op::Row { table, .. } => CompiledOp::Row {
                    table: table.0 as u32,
                },
                Op::Sum(a) => CompiledOp::Sum(a.0 as u32),
                Op::Mean(a) => CompiledOp::Mean(a.0 as u32),
            };
            ops.push(op);
        }
        Arc::new(CompiledProgram {
            ops,
            offsets,
            lens,
            sole_use,
            reaches_param,
            values_len,
            loss: loss.0,
        })
    }

    /// Number of scheduled ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for an empty schedule (never produced by [`Self::record`], which
    /// requires a loss node, but the conventional pairing with [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Replays the schedule for one sample: re-runs `build` in bind mode to
    /// capture the sample's dynamic data, executes the forward sweep with
    /// the fused kernels, then backpropagates with seed `seed`, flushing
    /// parameter gradients into `grads`. Returns the loss value.
    ///
    /// Bit-identical to running `build` through
    /// [`Graph::backward_scaled`](Graph::backward_scaled) on the tape.
    ///
    /// # Panics
    ///
    /// Panics if `build` constructs a different op sequence than the one
    /// recorded (a [`ProgramKey`] collision — keys must uniquely determine
    /// graph structure).
    pub fn replay(
        self: &Arc<Self>,
        params: &Params,
        buffers: &mut ReplayBuffers,
        grads: &mut Grads,
        seed: f32,
        build: impl FnOnce(&mut Graph<'_>) -> Var,
    ) -> f64 {
        let mut binder = self.bind(params, buffers, build);
        let loss_value = self.forward_sweep(params, &mut binder);
        let Binder {
            values,
            rows,
            consts,
            ..
        } = &*binder;

        // Backward sweep: same reverse order, same assign-then-accumulate
        // slot discipline as the tape (`set` marks populated slots). A node
        // whose gradient cannot reach a parameter is skipped, as the tape
        // skips every node that cannot reach a collected one.
        let mut grad_arena = std::mem::take(&mut buffers.grads);
        grad_arena.resize(self.values_len.max(grad_arena.len()), 0.0);
        let mut set = std::mem::take(&mut buffers.set);
        set.clear();
        set.resize(self.ops.len(), false);
        let mut scratch = std::mem::take(&mut buffers.scratch);
        grad_arena[self.offsets[self.loss]] = seed;
        set[self.loss] = true;

        for index in (0..self.ops.len()).rev() {
            if !set[index] || !self.reaches_param[index] {
                continue;
            }
            let len = self.lens[index];
            let (glo, ghi) = grad_arena.split_at_mut(self.offsets[index]);
            let g = &ghi[..len];
            let value_of = |v: u32| -> &[f32] {
                let v = v as usize;
                match &self.ops[v] {
                    CompiledOp::Param(id) => params.get(*id).data(),
                    _ => &values[self.offsets[v]..self.offsets[v] + self.lens[v]],
                }
            };
            // A target operand's gradient slot within the arena prefix.
            macro_rules! slot {
                ($v:expr) => {{
                    let v = $v as usize;
                    &mut glo[self.offsets[v]..self.offsets[v] + self.lens[v]]
                }};
            }
            match &self.ops[index] {
                CompiledOp::Input => {}
                CompiledOp::Param(id) => {
                    grads.accumulate_at(*id, params.get(*id).shape(), 0, g, 1.0);
                }
                CompiledOp::Add(a, b) => {
                    accumulate(slot!(*a), &mut set[*a as usize], g.iter().copied());
                    accumulate(slot!(*b), &mut set[*b as usize], g.iter().copied());
                }
                CompiledOp::Sub(a, b) => {
                    accumulate(slot!(*a), &mut set[*a as usize], g.iter().copied());
                    accumulate(slot!(*b), &mut set[*b as usize], g.iter().map(|v| -v));
                }
                CompiledOp::Mul(a, b) => {
                    // Values and gradients live in separate arenas, so each
                    // operand's contribution can read the other's value while
                    // writing its own gradient slot, even when `a == b`.
                    accumulate(
                        slot!(*a),
                        &mut set[*a as usize],
                        g.iter().zip(value_of(*b)).map(|(g, v)| g * v),
                    );
                    accumulate(
                        slot!(*b),
                        &mut set[*b as usize],
                        g.iter().zip(value_of(*a)).map(|(g, v)| g * v),
                    );
                }
                CompiledOp::Scale(a) => {
                    let factor = consts[index];
                    accumulate(
                        slot!(*a),
                        &mut set[*a as usize],
                        g.iter().map(|v| v * factor),
                    );
                }
                CompiledOp::AddScalar(a) => {
                    accumulate(slot!(*a), &mut set[*a as usize], g.iter().copied());
                }
                CompiledOp::MatVec { w, x } => {
                    let n = self.lens[*x as usize];
                    let (route_w, store_w) = self.weight_route(*w, grads);
                    let targets = [(*w as usize, route_w), self.input_target(*x)];
                    let ([dw, dx], spills) = route_targets(
                        glo,
                        &mut scratch,
                        &self.offsets,
                        &self.lens,
                        &mut set,
                        targets,
                    );
                    let [store_w, _] = grads.slots_mut(params, [store_w, None]);
                    kernels::matvec_grad(value_of(*w), value_of(*x), g, len, n, dw.or(store_w), dx);
                    self.add_spills(glo, &scratch, &mut set, targets, spills);
                }
                CompiledOp::Linear { w, b, x } => {
                    let n = self.lens[*x as usize];
                    let [(route_w, store_w), (route_b, store_b)] =
                        [*w, *b].map(|v| self.weight_route(v, grads));
                    let targets = [
                        (*w as usize, route_w),
                        (*b as usize, route_b),
                        self.input_target(*x),
                    ];
                    let ([dw, db, dx], spills) = route_targets(
                        glo,
                        &mut scratch,
                        &self.offsets,
                        &self.lens,
                        &mut set,
                        targets,
                    );
                    let [store_w, store_b] = grads.slots_mut(params, [store_w, store_b]);
                    kernels::linear_grad(
                        value_of(*w),
                        value_of(*x),
                        g,
                        len,
                        n,
                        dw.or(store_w),
                        db.or(store_b),
                        dx,
                    );
                    self.add_spills(glo, &scratch, &mut set, targets, spills);
                }
                CompiledOp::LstmStep {
                    w,
                    b,
                    x,
                    h_prev,
                    c_prev,
                    hidden,
                } => {
                    let hidden = *hidden as usize;
                    let input = self.lens[*x as usize];
                    let [(route_w, store_w), (route_b, store_b)] =
                        [*w, *b].map(|v| self.weight_route(v, grads));
                    let targets = [
                        (*w as usize, route_w),
                        (*b as usize, route_b),
                        (*x as usize, Route::Zeroed),
                        (*h_prev as usize, Route::Zeroed),
                        (*c_prev as usize, Route::Zeroed),
                    ];
                    let ([dw, db, dx, dh, dc], spills) = route_targets(
                        glo,
                        &mut scratch,
                        &self.offsets,
                        &self.lens,
                        &mut set,
                        targets,
                    );
                    let [store_w, store_b] = grads.slots_mut(params, [store_w, store_b]);
                    kernels::lstm_step_grad(
                        value_of(*w),
                        value_of(*x),
                        value_of(*h_prev),
                        value_of(*c_prev),
                        &values[self.offsets[index]..self.offsets[index] + len],
                        g,
                        hidden,
                        input,
                        dw.or(store_w),
                        db.or(store_b),
                        dx.expect("dx is routed"),
                        dh.expect("dh_prev is routed"),
                        dc.expect("dc_prev is routed"),
                    );
                    self.add_spills(glo, &scratch, &mut set, targets, spills);
                }
                CompiledOp::Sigmoid(a) => {
                    let y = &values[self.offsets[index]..self.offsets[index] + len];
                    accumulate(
                        slot!(*a),
                        &mut set[*a as usize],
                        g.iter().zip(y).map(|(g, y)| g * y * (1.0 - y)),
                    );
                }
                CompiledOp::Tanh(a) => {
                    let y = &values[self.offsets[index]..self.offsets[index] + len];
                    accumulate(
                        slot!(*a),
                        &mut set[*a as usize],
                        g.iter().zip(y).map(|(g, y)| g * (1.0 - y * y)),
                    );
                }
                CompiledOp::Relu(a) => {
                    let x = value_of(*a);
                    accumulate(
                        slot!(*a),
                        &mut set[*a as usize],
                        g.iter()
                            .zip(x)
                            .map(|(g, x)| if *x > 0.0 { *g } else { 0.0 }),
                    );
                }
                CompiledOp::Abs(a) => {
                    let x = value_of(*a);
                    accumulate(
                        slot!(*a),
                        &mut set[*a as usize],
                        g.iter()
                            .zip(x)
                            .map(|(g, x)| if *x >= 0.0 { *g } else { -*g }),
                    );
                }
                CompiledOp::Concat(parts) => {
                    let mut offset = 0;
                    for part in parts.iter() {
                        let part_len = self.lens[*part as usize];
                        accumulate(
                            slot!(*part),
                            &mut set[*part as usize],
                            g[offset..offset + part_len].iter().copied(),
                        );
                        offset += part_len;
                    }
                }
                CompiledOp::Slice {
                    src,
                    start,
                    len: slice_len,
                } => {
                    // Only the window is touched, as on the tape: a fresh
                    // slot is zero-filled before its window is assigned.
                    let slot = slot!(*src);
                    if !set[*src as usize] {
                        slot.fill(0.0);
                    }
                    accumulate(
                        &mut slot[*start..*start + *slice_len],
                        &mut set[*src as usize],
                        g.iter().copied(),
                    );
                }
                CompiledOp::Row { table } => {
                    let row = rows[index] as usize;
                    if let CompiledOp::Param(id) = self.ops[*table as usize] {
                        // Same sparse fast path as the tape: scatter straight
                        // into the parameter gradient without a dense
                        // table-sized buffer.
                        grads.accumulate_at(id, params.get(id).shape(), row * len, g, 1.0);
                    } else {
                        let total = self.lens[*table as usize];
                        scratch.clear();
                        scratch.resize(total, 0.0);
                        scratch[row * len..row * len + len].copy_from_slice(g);
                        accumulate(
                            slot!(*table),
                            &mut set[*table as usize],
                            scratch.iter().copied(),
                        );
                    }
                }
                CompiledOp::Sum(a) => {
                    let gval = g[0];
                    let src_len = self.lens[*a as usize];
                    accumulate(
                        slot!(*a),
                        &mut set[*a as usize],
                        std::iter::repeat_n(gval, src_len),
                    );
                }
                CompiledOp::Mean(a) => {
                    let src_len = self.lens[*a as usize];
                    let gval = g[0] / src_len.max(1) as f32;
                    accumulate(
                        slot!(*a),
                        &mut set[*a as usize],
                        std::iter::repeat_n(gval, src_len),
                    );
                }
            }
        }

        // Park every buffer (including the binder box itself) for the next
        // replay.
        buffers.binder = Some(binder);
        buffers.grads = grad_arena;
        buffers.set = set;
        buffers.scratch = scratch;
        loss_value
    }

    /// How the weight kernel that consumes node `v` as its `w` or `b`
    /// routes that operand's gradient, and the store slot it writes instead
    /// of the arena, if any. A parameter the store does not collect gets no
    /// gradient (its leaf's flush would be ignored). A collected parameter
    /// with one use in the program has its gradient accumulated straight
    /// into the store's slot, so its leaf's arena slot stays unset and its
    /// flush is skipped. The slot starts at +0 and only adds, so this is
    /// the tape's bits, as in [`Route::InPlace`]; a parameter with several
    /// uses needs its per-sample sum formed in the arena before the flush.
    fn weight_route(&self, v: u32, grads: &Grads) -> (Route, Option<ParamId>) {
        match self.ops[v as usize] {
            CompiledOp::Param(id) if !grads.collects(id) => (Route::Skip, None),
            CompiledOp::Param(id) if self.sole_use[v as usize] => (Route::Skip, Some(id)),
            _ => (Route::InPlace, None),
        }
    }

    /// A matvec or linear kernel's `x` gradient target: skipped when `x`'s
    /// gradient cannot reach a parameter, as the tape skips one that cannot
    /// reach a collected parameter.
    fn input_target(&self, x: u32) -> (usize, Route) {
        let x = x as usize;
        let route = if self.reaches_param[x] {
            Route::Zeroed
        } else {
            Route::Skip
        };
        (x, route)
    }

    /// Adds each target that [`route_targets`] spilled to scratch into its
    /// arena slot, in target order.
    fn add_spills<const N: usize>(
        &self,
        glo: &mut [f32],
        scratch: &[f32],
        set: &mut [bool],
        targets: [(usize, Route); N],
        spills: [Option<(usize, usize)>; N],
    ) {
        for ((target, _), spill) in targets.into_iter().zip(spills) {
            if let Some((offset, len)) = spill {
                accumulate(
                    &mut glo[self.offsets[target]..self.offsets[target] + len],
                    &mut set[target],
                    scratch[offset..offset + len].iter().copied(),
                );
            }
        }
    }

    /// The bind pass of [`Self::replay`].
    fn bind(
        self: &Arc<Self>,
        params: &Params,
        buffers: &mut ReplayBuffers,
        build: impl FnOnce(&mut Graph<'_>) -> Var,
    ) -> Box<Binder> {
        // Bind pass: validate structure, capture inputs/rows/constants. The
        // binder box (and its arenas, including the value arena that input
        // data is written into directly) is parked in `buffers` between
        // replays; the arenas grow but are never cleared — every slot the
        // sweeps read is either computed by the forward sweep or rewritten
        // during bind (each `Input`/`Row`/`Scale`/`AddScalar` op rebinds on
        // every replay), so stale data is never observed.
        let mut binder = match buffers.binder.take() {
            Some(mut binder) => {
                binder.program = Arc::clone(self);
                binder.cursor = 0;
                binder
            }
            None => Box::new(Binder {
                program: Arc::clone(self),
                cursor: 0,
                values: Vec::new(),
                rows: Vec::new(),
                consts: Vec::new(),
            }),
        };
        if binder.values.len() < self.values_len {
            binder.values.resize(self.values_len, 0.0);
        }
        if binder.rows.len() < self.ops.len() {
            binder.rows.resize(self.ops.len(), 0);
        }
        if binder.consts.len() < self.ops.len() {
            binder.consts.resize(self.ops.len(), 0.0);
        }
        let mut graph = Graph::bound(params, binder);
        let loss = build(&mut graph);
        let binder = graph
            .take_binder()
            .expect("a bind-mode graph retains its binder");
        assert_eq!(
            binder.cursor,
            self.ops.len(),
            "compiled replay built {} of {} recorded ops — the program key does not uniquely \
             determine graph structure",
            binder.cursor,
            self.ops.len()
        );
        assert_eq!(
            loss.0, self.loss,
            "compiled replay returned a different loss node than recorded"
        );
        binder
    }

    /// The forward sweep of [`Self::replay`]; returns the value of the
    /// recorded root node.
    fn forward_sweep(&self, params: &Params, binder: &mut Binder) -> f64 {
        // Forward sweep over the flat arena. Parameter slots are never
        // written (reads go straight to the store), input slots were filled
        // by the bind pass, and every other slot is fully overwritten before
        // any read, so stale arena contents from earlier replays are
        // harmless.
        let Binder {
            values,
            rows,
            consts,
            ..
        } = binder;
        let values: &mut [f32] = values;
        for index in 0..self.ops.len() {
            let len = self.lens[index];
            let (lo, hi) = values.split_at_mut(self.offsets[index]);
            let out = &mut hi[..len];
            let arg = |v: u32| -> &[f32] {
                let v = v as usize;
                match &self.ops[v] {
                    CompiledOp::Param(id) => params.get(*id).data(),
                    _ => &lo[self.offsets[v]..self.offsets[v] + self.lens[v]],
                }
            };
            match &self.ops[index] {
                // Param reads go to the store; Input slots were written in
                // place by the bind pass.
                CompiledOp::Param(_) | CompiledOp::Input => {}
                CompiledOp::Add(a, b) => {
                    for ((o, x), y) in out.iter_mut().zip(arg(*a)).zip(arg(*b)) {
                        *o = x + y;
                    }
                }
                CompiledOp::Sub(a, b) => {
                    for ((o, x), y) in out.iter_mut().zip(arg(*a)).zip(arg(*b)) {
                        *o = x - y;
                    }
                }
                CompiledOp::Mul(a, b) => {
                    for ((o, x), y) in out.iter_mut().zip(arg(*a)).zip(arg(*b)) {
                        *o = x * y;
                    }
                }
                CompiledOp::Scale(a) => {
                    let factor = consts[index];
                    for (o, x) in out.iter_mut().zip(arg(*a)) {
                        *o = x * factor;
                    }
                }
                CompiledOp::AddScalar(a) => {
                    let constant = consts[index];
                    for (o, x) in out.iter_mut().zip(arg(*a)) {
                        *o = x + constant;
                    }
                }
                CompiledOp::MatVec { w, x } => {
                    let n = self.lens[*x as usize];
                    kernels::matvec(arg(*w), arg(*x), len, n, out);
                }
                CompiledOp::Linear { w, b, x } => {
                    let n = self.lens[*x as usize];
                    kernels::linear(arg(*w), arg(*b), arg(*x), len, n, out);
                }
                CompiledOp::LstmStep {
                    w,
                    b,
                    x,
                    h_prev,
                    c_prev,
                    hidden,
                } => {
                    let input = self.lens[*x as usize];
                    kernels::lstm_step(
                        arg(*w),
                        arg(*b),
                        arg(*x),
                        arg(*h_prev),
                        arg(*c_prev),
                        *hidden as usize,
                        input,
                        out,
                    );
                }
                CompiledOp::Sigmoid(a) => {
                    for (o, x) in out.iter_mut().zip(arg(*a)) {
                        *o = kernels::sigmoid(*x);
                    }
                }
                CompiledOp::Tanh(a) => {
                    for (o, x) in out.iter_mut().zip(arg(*a)) {
                        *o = x.tanh();
                    }
                }
                CompiledOp::Relu(a) => {
                    for (o, x) in out.iter_mut().zip(arg(*a)) {
                        *o = x.max(0.0);
                    }
                }
                CompiledOp::Abs(a) => {
                    for (o, x) in out.iter_mut().zip(arg(*a)) {
                        *o = x.abs();
                    }
                }
                CompiledOp::Concat(parts) => {
                    let mut offset = 0;
                    for part in parts.iter() {
                        let src = arg(*part);
                        out[offset..offset + src.len()].copy_from_slice(src);
                        offset += src.len();
                    }
                }
                CompiledOp::Slice { src, start, len } => {
                    out.copy_from_slice(&arg(*src)[*start..*start + *len]);
                }
                CompiledOp::Row { table } => {
                    let row = rows[index] as usize;
                    out.copy_from_slice(&arg(*table)[row * len..(row + 1) * len]);
                }
                CompiledOp::Sum(a) => {
                    out[0] = arg(*a).iter().sum();
                }
                CompiledOp::Mean(a) => {
                    let src = arg(*a);
                    out[0] = if src.is_empty() {
                        0.0
                    } else {
                        src.iter().sum::<f32>() / src.len() as f32
                    };
                }
            }
        }
        f64::from(values[self.offsets[self.loss]])
    }
}

/// How [`route_targets`] hands one gradient target to a VJP kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// A weight or bias gradient, which takes exactly one `+=` per element
    /// per kernel call: the arena slot itself, accumulated in place (zeroed
    /// first only while unset). That one add gives the bits of a zeroed
    /// buffer added into the slot afterwards, as on the tape (see
    /// `take_weight_slot` in the graph module).
    InPlace,
    /// A gradient whose elements each take several `+=` per call (`dx`,
    /// `dh_prev`, `dc_prev`), so it must start from zero: an unset slot is
    /// zeroed and handed over, a set one gets a zeroed scratch window that
    /// [`CompiledProgram::add_spills`] adds into it after the kernel.
    Zeroed,
    /// No arena buffer: a weight gradient that goes to the [`Grads`] store
    /// or nowhere (see [`CompiledProgram::weight_route`]), or an input
    /// gradient that cannot reach a parameter.
    Skip,
}

/// What [`route_targets`] hands back: each target's kernel destination
/// buffer (`None` for a [`Route::Skip`] target), plus a
/// `(scratch_offset, len)` spill entry for every target that was routed to
/// scratch instead of its arena slot.
type RoutedTargets<'a, const N: usize> = ([Option<&'a mut [f32]>; N], [Option<(usize, usize)>; N]);

/// Chooses a destination buffer for each gradient target of a multi-output
/// VJP kernel (`matvec_grad`, `linear_grad`, `lstm_step_grad`), following
/// each target's [`Route`].
///
/// [`Route::InPlace`] and unset [`Route::Zeroed`] targets get their arena
/// slot directly and are marked set: an unset slot is zeroed first, since it
/// holds stale data from earlier replays. A [`Route::Zeroed`] target whose
/// slot already holds a gradient, or that aliases an earlier target, is
/// spilled to a zeroed scratch window instead; the caller adds it with
/// [`CompiledProgram::add_spills`] after the kernel, in target order.
fn route_targets<'a, const N: usize>(
    glo: &'a mut [f32],
    scratch: &'a mut Vec<f32>,
    offsets: &[usize],
    lens: &[usize],
    set: &mut [bool],
    targets: [(usize, Route); N],
) -> RoutedTargets<'a, N> {
    let spilled: [bool; N] = std::array::from_fn(|i| {
        let (target, route) = targets[i];
        route == Route::Zeroed && (set[target] || targets[..i].iter().any(|&(t, _)| t == target))
    });
    let mut spills: [Option<(usize, usize)>; N] = [None; N];
    let mut scratch_len = 0usize;
    for i in (0..N).filter(|&i| spilled[i]) {
        let len = lens[targets[i].0];
        spills[i] = Some((scratch_len, len));
        scratch_len += len;
    }
    scratch.clear();
    scratch.resize(scratch_len, 0.0);
    let mut out: [Option<&'a mut [f32]>; N] = std::array::from_fn(|_| None);
    // Carve the arena windows out of the prefix in ascending offset order
    // (they are disjoint: aliases were spilled above).
    let mut order: [usize; N] = std::array::from_fn(|i| i);
    order.sort_unstable_by_key(|&i| offsets[targets[i].0]);
    let mut rest: &'a mut [f32] = glo;
    let mut consumed = 0usize;
    for &i in order
        .iter()
        .filter(|&&i| targets[i].1 != Route::Skip && !spilled[i])
    {
        let target = targets[i].0;
        let (_, tail) = rest.split_at_mut(offsets[target] - consumed);
        let (window, tail) = tail.split_at_mut(lens[target]);
        if !set[target] {
            window.fill(0.0);
            set[target] = true;
        }
        consumed = offsets[target] + lens[target];
        rest = tail;
        out[i] = Some(window);
    }
    let mut srest: &'a mut [f32] = scratch.as_mut_slice();
    for i in (0..N).filter(|&i| spilled[i]) {
        let (window, tail) = srest.split_at_mut(lens[targets[i].0]);
        out[i] = Some(window);
        srest = tail;
    }
    (out, spills)
}

/// The tape's gradient-slot discipline on a flat arena: the first
/// contribution to a slot assigns, later contributions add elementwise.
/// Keeping assignment (not `0 + v`) on the first write preserves the sign
/// of zero exactly as the tape's fresh-buffer path does.
#[inline]
fn accumulate(dst: &mut [f32], set: &mut bool, contributions: impl Iterator<Item = f32>) {
    if *set {
        for (d, v) in dst.iter_mut().zip(contributions) {
            *d += v;
        }
    } else {
        for (d, v) in dst.iter_mut().zip(contributions) {
            *d = v;
        }
        *set = true;
    }
}

/// Bind-mode state: walks the recorded schedule while the model closure
/// re-runs, validating each op against the recording and capturing the
/// sample's dynamic data (input tensors, row indices, scalar constants) —
/// no values are computed.
#[derive(Debug)]
pub(crate) struct Binder {
    program: Arc<CompiledProgram>,
    cursor: usize,
    /// The program's value arena. Input data is bound straight into its
    /// recorded slots, so the forward sweep never touches `Input` nodes.
    values: Vec<f32>,
    /// Per-node rebound row index (`Row` nodes only).
    rows: Vec<u32>,
    /// Per-node rebound scalar constant (`Scale`/`AddScalar` nodes only).
    consts: Vec<f32>,
}

impl Binder {
    fn advance(&mut self) -> usize {
        let index = self.cursor;
        assert!(
            index < self.program.ops.len(),
            "compiled replay built more than the {} recorded ops — the program key does not \
             uniquely determine graph structure",
            self.program.ops.len()
        );
        self.cursor += 1;
        index
    }

    fn mismatch(&self, index: usize, built: &str) -> ! {
        panic!(
            "compiled schedule mismatch at node {index}: recorded {:?}, rebuilt {built} — the \
             program key must uniquely determine graph structure",
            self.program.ops[index]
        );
    }

    pub(crate) fn param(&mut self, id: ParamId) -> Var {
        let index = self.advance();
        match self.program.ops[index] {
            CompiledOp::Param(recorded) if recorded == id => Var(index),
            _ => self.mismatch(index, "param"),
        }
    }

    pub(crate) fn input(&mut self, value: &Tensor) -> Var {
        let index = self.advance();
        match self.program.ops[index] {
            CompiledOp::Input if value.len() == self.program.lens[index] => {
                let offset = self.program.offsets[index];
                self.values[offset..offset + value.len()].copy_from_slice(value.data());
                Var(index)
            }
            _ => self.mismatch(index, "input (or its length changed)"),
        }
    }

    pub(crate) fn add(&mut self, a: Var, b: Var) -> Var {
        let index = self.advance();
        match self.program.ops[index] {
            CompiledOp::Add(ra, rb) if (ra as usize, rb as usize) == (a.0, b.0) => Var(index),
            _ => self.mismatch(index, "add"),
        }
    }

    pub(crate) fn sub(&mut self, a: Var, b: Var) -> Var {
        let index = self.advance();
        match self.program.ops[index] {
            CompiledOp::Sub(ra, rb) if (ra as usize, rb as usize) == (a.0, b.0) => Var(index),
            _ => self.mismatch(index, "sub"),
        }
    }

    pub(crate) fn mul(&mut self, a: Var, b: Var) -> Var {
        let index = self.advance();
        match self.program.ops[index] {
            CompiledOp::Mul(ra, rb) if (ra as usize, rb as usize) == (a.0, b.0) => Var(index),
            _ => self.mismatch(index, "mul"),
        }
    }

    pub(crate) fn scale(&mut self, a: Var, factor: f32) -> Var {
        let index = self.advance();
        match self.program.ops[index] {
            CompiledOp::Scale(ra) if ra as usize == a.0 => {
                self.consts[index] = factor;
                Var(index)
            }
            _ => self.mismatch(index, "scale"),
        }
    }

    pub(crate) fn add_scalar(&mut self, a: Var, constant: f32) -> Var {
        let index = self.advance();
        match self.program.ops[index] {
            CompiledOp::AddScalar(ra) if ra as usize == a.0 => {
                self.consts[index] = constant;
                Var(index)
            }
            _ => self.mismatch(index, "add_scalar"),
        }
    }

    pub(crate) fn matvec(&mut self, w: Var, x: Var) -> Var {
        let index = self.advance();
        match self.program.ops[index] {
            CompiledOp::MatVec { w: rw, x: rx } if (rw as usize, rx as usize) == (w.0, x.0) => {
                Var(index)
            }
            _ => self.mismatch(index, "matvec"),
        }
    }

    pub(crate) fn linear(&mut self, w: Var, b: Var, x: Var) -> Var {
        let index = self.advance();
        match self.program.ops[index] {
            CompiledOp::Linear {
                w: rw,
                b: rb,
                x: rx,
            } if (rw as usize, rb as usize, rx as usize) == (w.0, b.0, x.0) => Var(index),
            _ => self.mismatch(index, "linear"),
        }
    }

    pub(crate) fn lstm_step(
        &mut self,
        w: Var,
        b: Var,
        x: Var,
        h_prev: Var,
        c_prev: Var,
        hidden: usize,
    ) -> Var {
        let index = self.advance();
        match self.program.ops[index] {
            CompiledOp::LstmStep {
                w: rw,
                b: rb,
                x: rx,
                h_prev: rh,
                c_prev: rc,
                hidden: rhidden,
            } if (
                rw as usize,
                rb as usize,
                rx as usize,
                rh as usize,
                rc as usize,
                rhidden as usize,
            ) == (w.0, b.0, x.0, h_prev.0, c_prev.0, hidden) =>
            {
                Var(index)
            }
            _ => self.mismatch(index, "lstm_step"),
        }
    }

    pub(crate) fn sigmoid(&mut self, a: Var) -> Var {
        let index = self.advance();
        match self.program.ops[index] {
            CompiledOp::Sigmoid(ra) if ra as usize == a.0 => Var(index),
            _ => self.mismatch(index, "sigmoid"),
        }
    }

    pub(crate) fn tanh(&mut self, a: Var) -> Var {
        let index = self.advance();
        match self.program.ops[index] {
            CompiledOp::Tanh(ra) if ra as usize == a.0 => Var(index),
            _ => self.mismatch(index, "tanh"),
        }
    }

    pub(crate) fn relu(&mut self, a: Var) -> Var {
        let index = self.advance();
        match self.program.ops[index] {
            CompiledOp::Relu(ra) if ra as usize == a.0 => Var(index),
            _ => self.mismatch(index, "relu"),
        }
    }

    pub(crate) fn abs(&mut self, a: Var) -> Var {
        let index = self.advance();
        match self.program.ops[index] {
            CompiledOp::Abs(ra) if ra as usize == a.0 => Var(index),
            _ => self.mismatch(index, "abs"),
        }
    }

    pub(crate) fn concat(&mut self, parts: &[Var]) -> Var {
        let index = self.advance();
        match &self.program.ops[index] {
            CompiledOp::Concat(recorded)
                if recorded.len() == parts.len()
                    && recorded.iter().zip(parts).all(|(r, p)| *r as usize == p.0) =>
            {
                Var(index)
            }
            _ => self.mismatch(index, "concat"),
        }
    }

    pub(crate) fn slice(&mut self, src: Var, start: usize, len: usize) -> Var {
        let index = self.advance();
        match self.program.ops[index] {
            CompiledOp::Slice {
                src: rsrc,
                start: rstart,
                len: rlen,
            } if (rsrc as usize, rstart, rlen) == (src.0, start, len) => Var(index),
            _ => self.mismatch(index, "slice"),
        }
    }

    pub(crate) fn row(&mut self, table: Var, row: usize) -> Var {
        let index = self.advance();
        match self.program.ops[index] {
            CompiledOp::Row { table: rtable } if rtable as usize == table.0 => {
                self.rows[index] = row as u32;
                Var(index)
            }
            _ => self.mismatch(index, "row"),
        }
    }

    pub(crate) fn sum(&mut self, a: Var) -> Var {
        let index = self.advance();
        match self.program.ops[index] {
            CompiledOp::Sum(ra) if ra as usize == a.0 => Var(index),
            _ => self.mismatch(index, "sum"),
        }
    }

    pub(crate) fn mean(&mut self, a: Var) -> Var {
        let index = self.advance();
        match self.program.ops[index] {
            CompiledOp::Mean(ra) if ra as usize == a.0 => Var(index),
            _ => self.mismatch(index, "mean"),
        }
    }
}

/// Per-worker replay storage: value and gradient arenas, slot flags, VJP
/// scratch, and the parked binder (with its dynamic-data arenas), all
/// reused across replays (and across programs — buffers only ever grow).
#[derive(Debug, Default)]
pub struct ReplayBuffers {
    grads: Vec<f32>,
    set: Vec<bool>,
    scratch: Vec<f32>,
    binder: Option<Box<Binder>>,
}

impl ReplayBuffers {
    /// Creates an empty buffer set (allocates lazily on first replay).
    pub fn new() -> Self {
        ReplayBuffers::default()
    }
}

/// A cache of compiled programs keyed by graph structure, for training.
///
/// Programs enter the cache on the calling thread, in first-encounter
/// sample order: [`Batch::accumulate_compiled`](crate::Batch::accumulate_compiled)
/// lets the worker that tapes a batch's first sample of a new key freeze
/// that tape, then inserts the new programs in sample order after the join,
/// so cache contents never depend on worker scheduling. Nothing is evicted:
/// the key space is bounded by the training set.
#[derive(Debug, Default)]
pub struct ProgramCache {
    programs: HashMap<ProgramKey, Arc<CompiledProgram>>,
    /// Programs recorded over the cache's lifetime.
    recorded: usize,
}

impl ProgramCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ProgramCache::default()
    }

    /// Number of cached programs.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// True when no programs are cached.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    /// Number of programs recorded over the cache's lifetime — the number
    /// of misses.
    pub fn recorded(&self) -> usize {
        self.recorded
    }

    /// Finds `key`'s program.
    pub(crate) fn lookup(&self, key: &ProgramKey) -> Option<Arc<CompiledProgram>> {
        self.programs.get(key).cloned()
    }

    /// Caches a freshly recorded program.
    pub(crate) fn insert(&mut self, key: ProgramKey, program: Arc<CompiledProgram>) {
        self.recorded += 1;
        self.programs.insert(key, program);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One synthetic "sample": an input vector, an embedding row pair, and a
    /// per-sample loss scale — covering every dynamic-rebinding channel.
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

    fn tape_reference(params: &Params, sample: &Sample, seed: f32) -> (f64, Grads) {
        let mut graph = Graph::new(params);
        let loss = build_loss(&mut graph, sample);
        let value = f64::from(graph.value(loss)[0]);
        let mut grads = Grads::new(params);
        graph.backward_scaled(loss, &mut grads, seed);
        (value, grads)
    }

    #[test]
    fn replay_is_bit_identical_to_the_tape() {
        let params = test_params();
        let program = CompiledProgram::record(&params, |g| build_loss(g, &samples()[0]));
        let mut buffers = ReplayBuffers::new();
        for (index, sample) in samples().iter().enumerate() {
            let seed = 0.1 + index as f32 * 0.3;
            let (tape_loss, tape_grads) = tape_reference(&params, sample, seed);
            let mut grads = Grads::new(&params);
            let loss = program.replay(&params, &mut buffers, &mut grads, seed, |g| {
                build_loss(g, sample)
            });
            assert_eq!(
                tape_loss.to_bits(),
                loss.to_bits(),
                "loss diverged for sample {index}"
            );
            assert_eq!(tape_grads, grads, "gradients diverged for sample {index}");
        }
    }

    #[test]
    fn buffers_are_shared_across_different_programs() {
        let params = test_params();
        let mut buffers = ReplayBuffers::new();
        // Two structurally different programs (the second drops the matvec
        // branch) interleaved through one buffer set.
        let small = |graph: &mut Graph<'_>, sample: &Sample| -> Var {
            let table = graph.param(ParamId(1));
            let r = graph.row(table, sample.row);
            let t = graph.tanh(r);
            graph.sum(t)
        };
        let first = &samples()[0];
        let programs = [
            CompiledProgram::record(&params, |g| build_loss(g, first)),
            CompiledProgram::record(&params, |g| small(g, first)),
        ];
        for sample in &samples() {
            for (key, program) in programs.iter().enumerate() {
                let mut compiled = Grads::new(&params);
                let loss = program.replay(&params, &mut buffers, &mut compiled, 1.0, |g| {
                    if key == 0 {
                        build_loss(g, sample)
                    } else {
                        small(g, sample)
                    }
                });
                let (tape_loss, tape_grads) = if key == 0 {
                    tape_reference(&params, sample, 1.0)
                } else {
                    let mut graph = Graph::new(&params);
                    let l = small(&mut graph, sample);
                    let v = f64::from(graph.value(l)[0]);
                    let mut g = Grads::new(&params);
                    graph.backward_scaled(l, &mut g, 1.0);
                    (v, g)
                };
                assert_eq!(tape_loss.to_bits(), loss.to_bits());
                assert_eq!(tape_grads, compiled);
            }
        }
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
    fn a_subset_store_gets_the_full_stores_bits_on_both_engines_and_nothing_else() {
        let params = lstm_params();
        let ids: Vec<ParamId> = params.iter().map(|(id, _, _)| id).collect();
        let program = CompiledProgram::record(&params, |g| build_lstm_loss(g, &samples()[0]));
        let mut buffers = ReplayBuffers::new();
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

                let mut taped = Grads::only(&params, &subset);
                let mut graph = Graph::new(&params);
                let loss = build_lstm_loss(&mut graph, sample);
                graph.backward_scaled(loss, &mut taped, seed);
                assert_eq!(
                    slot_bits(&params, &taped),
                    expected,
                    "tape, sample {index}, subset {subset:?}"
                );

                let mut compiled = Grads::only(&params, &subset);
                program.replay(&params, &mut buffers, &mut compiled, seed, |g| {
                    build_lstm_loss(g, sample)
                });
                assert_eq!(
                    slot_bits(&params, &compiled),
                    expected,
                    "replay, sample {index}, subset {subset:?}"
                );
            }
        }
    }

    #[test]
    fn overlapping_slices_of_a_theta_sized_parameter_agree_on_tape_replay_and_dense_sum() {
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
            let y = theta_values[i].tanh();
            reference[i] += direct[i] + through_tanh[i] * (1.0 - y * y);
        }

        let mut graph = Graph::new(&params);
        let loss = build(&mut graph);
        let mut taped = Grads::new(&params);
        graph.backward_scaled(loss, &mut taped, seed);
        let program = CompiledProgram::record(&params, build);
        let mut buffers = ReplayBuffers::new();
        for pass in 0..2 {
            // The second replay runs over the first one's stale arena.
            let mut compiled = Grads::new(&params);
            program.replay(&params, &mut buffers, &mut compiled, seed, build);
            assert_eq!(
                slot_bits(&params, &compiled),
                slot_bits(&params, &taped),
                "pass {pass}"
            );
        }
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
        assert_eq!(slot_bits(&params, &taped), expected, "tape");
        let program = CompiledProgram::record(&params, build);
        let mut buffers = ReplayBuffers::new();
        for pass in 0..2 {
            // The second replay runs over the first one's stale arena.
            let mut compiled = Grads::new(&params);
            program.replay(&params, &mut buffers, &mut compiled, seed, build);
            assert_eq!(slot_bits(&params, &compiled), expected, "replay {pass}");
        }
    }

    #[test]
    fn shared_and_single_use_weights_match_the_tape_and_a_subset_skips_the_single_use_one() {
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
        // Bound by two leaves, each used once, and consumed in the reverse
        // of their leaf order: it still has two uses.
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
        let first = &data[0];
        let program = CompiledProgram::record(&params, |g| build(g, first));
        let leaves: Vec<bool> = (program.ops.iter().zip(&program.sole_use))
            .filter_map(|(op, sole)| matches!(op, CompiledOp::Param(_)).then_some(*sole))
            .collect();
        assert_eq!(
            leaves,
            [false, true, true, true, true, false, false],
            "uses are counted per parameter, over all of its leaves"
        );
        let all: Vec<ParamId> = params.iter().map(|(id, _, _)| id).collect();
        for ids in [all.clone(), vec![shared, bias_x, bias_y, twice]] {
            // Every sample accumulates into one store, so the single-use
            // slots are added into after the first sample.
            let mut taped = Grads::only(&params, &ids);
            let mut compiled = Grads::only(&params, &ids);
            let mut buffers = ReplayBuffers::new();
            for (index, sample) in data.iter().enumerate() {
                let seed = 0.3 + 0.2 * index as f32;
                let mut graph = Graph::new(&params);
                let loss = build(&mut graph, sample);
                graph.backward_scaled(loss, &mut taped, seed);
                program.replay(&params, &mut buffers, &mut compiled, seed, |g| {
                    build(g, sample)
                });
                assert_eq!(
                    slot_bits(&params, &compiled),
                    slot_bits(&params, &taped),
                    "sample {index}, ids {ids:?}"
                );
            }
            let collected = ids.len() == all.len();
            assert_eq!(compiled.get(once).is_some(), collected, "ids {ids:?}");
            assert_eq!(compiled.get(bias_out).is_some(), collected, "ids {ids:?}");
            assert!(compiled.get(shared).is_some() && compiled.get(bias_y).is_some());
        }
    }

    #[test]
    #[should_panic(expected = "compiled schedule mismatch")]
    fn structure_divergence_panics_loudly() {
        let params = test_params();
        let program = CompiledProgram::record(&params, |g| build_loss(g, &samples()[0]));
        let mut buffers = ReplayBuffers::new();
        let mut grads = Grads::new(&params);
        program.replay(&params, &mut buffers, &mut grads, 1.0, |g| {
            // Swaps the first two ops relative to the recording.
            let table = g.param(ParamId(1));
            let w = g.param(ParamId(0));
            let r = g.row(table, 0);
            let m = g.matvec(w, r);
            g.sum(m)
        });
    }

    #[test]
    fn record_requires_a_scalar_loss() {
        let params = test_params();
        let result = std::panic::catch_unwind(|| {
            CompiledProgram::record(&params, |g| g.input(Tensor::vector(vec![1.0, 2.0])))
        });
        assert!(result.is_err(), "vector-valued roots must be rejected");
    }
}
