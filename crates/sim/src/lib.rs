//! # difftune-sim
//!
//! The parameterized CPU simulators whose parameters DiffTune learns.
//!
//! Two simulators are provided, mirroring the two targets evaluated in the
//! paper:
//!
//! * [`McaSimulator`] — an llvm-mca-style instruction-level out-of-order model
//!   with dispatch, issue, execute, and retire stages, driven by the full
//!   parameter table of [`SimParams`] (`DispatchWidth`, `ReorderBufferSize`,
//!   per-opcode `NumMicroOps`, `WriteLatency`, `ReadAdvanceCycles`, `PortMap`).
//! * [`UopSimulator`] — an llvm_sim-style micro-op-level model with a modeled
//!   frontend, which consumes only `WriteLatency` and `PortMap` (interpreted as
//!   micro-ops per port), as in the paper's Appendix A.
//!
//! Both implement the [`Simulator`] trait: a pure function from a parameter
//! table and a basic block to a predicted timing (cycles per block iteration,
//! averaged over a fixed number of unrolled iterations, matching BHive's and
//! llvm-mca's definition of timing).
//!
//! # Example
//!
//! ```
//! use difftune_isa::BasicBlock;
//! use difftune_sim::{McaSimulator, SimParams, Simulator};
//!
//! let block: BasicBlock = "addq %rax, %rbx\naddq %rbx, %rcx".parse()?;
//! let params = SimParams::uniform_default();
//! let sim = McaSimulator::default();
//! let timing = sim.predict(&params, &block);
//! assert!(timing > 0.0);
//! # Ok::<(), difftune_isa::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod mca;
mod params;
mod uop;

pub use mca::{McaSimulator, Timeline, TimelineEntry};
pub use params::{ParamBounds, PerInstParams, SimParams, NUM_PORTS, NUM_READ_ADVANCE};
pub use uop::UopSimulator;

use difftune_isa::BasicBlock;

/// A parameterized basic-block CPU simulator.
///
/// Implementations are deterministic pure functions: the same parameters and
/// block always produce the same predicted timing.
pub trait Simulator: std::fmt::Debug + Send + Sync {
    /// Predicts the timing of `block` in cycles per iteration (the number of
    /// cycles to execute the configured number of unrolled iterations of the
    /// block, divided by the iteration count).
    fn predict(&self, params: &SimParams, block: &BasicBlock) -> f64;

    /// Predicts the timing of every block in `blocks` under one parameter
    /// table, returning one prediction per block in order.
    ///
    /// The provided implementation fans the blocks out across all available
    /// cores (small batches stay on the calling thread), so evaluation paths
    /// that score a fixed table over a whole dataset should prefer this over
    /// a per-block [`Simulator::predict`] loop. Implementations may override
    /// it with something faster (e.g. sharing decoded state across blocks);
    /// overrides must return exactly the same values as the per-block loop.
    fn predict_batch(&self, params: &SimParams, blocks: &[BasicBlock]) -> Vec<f64> {
        // Below this many blocks the thread-spawn overhead outweighs the
        // parallelism.
        const MIN_PARALLEL: usize = 32;
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if threads <= 1 || blocks.len() < MIN_PARALLEL {
            return blocks.iter().map(|b| self.predict(params, b)).collect();
        }
        let chunk = blocks.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = blocks
                .chunks(chunk)
                .map(|shard| {
                    scope.spawn(move || -> Vec<f64> {
                        shard.iter().map(|b| self.predict(params, b)).collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("prediction worker panicked"))
                .collect()
        })
    }

    /// A short human-readable name (`"llvm-mca"`, `"llvm_sim"`).
    fn name(&self) -> &'static str;
}
