//! # difftune-tensor
//!
//! A minimal reverse-mode automatic differentiation engine, built from scratch
//! so that the learned differentiable surrogate in `difftune-surrogate` (and
//! the gradient-based parameter-table optimization in `difftune`) do not need
//! an external deep-learning framework.
//!
//! The design is deliberately small and CPU-oriented:
//!
//! * [`Tensor`] — a dense row-major `f32` tensor (vectors and matrices).
//! * [`Params`] / [`ParamId`] — a named parameter store; parameters are shared
//!   immutably with computation graphs and updated by an [`optim`] optimizer.
//! * [`Graph`] / [`Var`] — a tape: building an expression records nodes, and
//!   [`Graph::backward`] walks the tape in reverse accumulating gradients into
//!   a [`Grads`] store keyed by [`ParamId`].
//! * [`TapeArena`] — preallocated tape storage: [`TapeArena::scoped`]
//!   recycles node values and gradient buffers across tapes so hot training
//!   loops stop paying per-sample allocation churn.
//! * [`Batch`] — the deterministic data-parallel gradient engine: per-sample
//!   forward/backward on scoped worker threads, gradients reduced in fixed
//!   sample order so every thread count produces bit-identical results.
//! * [`CompiledProgram`] / [`ProgramCache`] — graph-once compiled execution
//!   for training: one recorded schedule per graph structure, replayed per
//!   sample against reusable [`ReplayBuffers`], bit-identical to the tape.
//! * [`kernels`] — the fused, SIMD-width-chunked inner loops the tape, the
//!   compiled engine and plain inference share (dot/matvec, fused linear,
//!   fused LSTM step).
//! * [`nn`] — the layers the Ithemal-style surrogate needs: linear layers,
//!   embedding tables, and (stacked) LSTM cells, each with a plain-slice
//!   forward for inference off the tape.
//! * [`optim`] — SGD and Adam.
//! * [`check`] — finite-difference gradient checking used heavily in tests.
//!
//! # Example
//!
//! ```
//! use difftune_tensor::{Graph, Grads, Params, Tensor};
//!
//! let mut params = Params::new();
//! let w = params.add("w", Tensor::from_vec(vec![2.0, -1.0], vec![2]));
//! let mut graph = Graph::new(&params);
//! let w_var = graph.param(w);
//! let x = graph.input(Tensor::from_vec(vec![3.0, 4.0], vec![2]));
//! let y = graph.mul(w_var, x);
//! let loss = graph.sum(y); // 2*3 + (-1)*4 = 2
//! assert_eq!(graph.value(loss)[0], 2.0);
//!
//! let mut grads = Grads::new(&params);
//! graph.backward(loss, &mut grads);
//! assert_eq!(grads.get(w).unwrap().data(), &[3.0, 4.0]);
//! ```

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
pub mod check;
mod compile;
mod graph;
pub mod kernels;
pub mod nn;
pub mod optim;
mod params;
mod tensor;

pub use batch::{resolve_threads, Batch, REDUCTION_CHUNK};
pub use compile::{CompiledProgram, ProgramCache, ProgramKey, ReplayBuffers};
pub use graph::{Graph, TapeArena, Var};
pub use params::{Grads, ParamId, Params};
pub use tensor::Tensor;
