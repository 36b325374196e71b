//! # difftune-cpu
//!
//! Reference microarchitecture models that stand in for the physical CPUs the
//! paper measures with BHive (Ivy Bridge, Haswell, Skylake, and Zen 2).
//!
//! The paper's ground truth is hardware: basic blocks timed with performance
//! counters on real silicon. This workspace has no silicon, so this crate
//! provides the closest synthetic equivalent: per-microarchitecture reference
//! models that are deliberately *richer* than the tuned simulator in
//! `difftune-sim` — they choose among candidate execution ports, eliminate
//! zero idioms and register moves, charge an L1 latency on loads, forward
//! stores to dependent loads (creating memory dependency chains the tuned
//! simulator cannot express), and add a small deterministic measurement noise.
//! This reproduces the structural mismatch between simulator and machine that
//! the paper's case studies discuss (PUSH64r, XOR32rr, ADD32mr).
//!
//! The crate also provides:
//!
//! * [`Machine::measure`] — the BHive-style measurement harness (timing of 100
//!   unrolled iterations of a block, divided by 100);
//! * [`default_params`] — the "expert-provided" llvm-mca-style parameter table
//!   for each microarchitecture, derived from the reference model's documented
//!   latencies the way LLVM's scheduling models are derived from vendor
//!   documentation (imperfectly, by design);
//! * [`AnalyticalModel`] — an IACA-style analytical throughput/latency bound
//!   model used as a non-learned baseline in Table IV.
//!
//! # Example
//!
//! ```
//! use difftune_cpu::{Machine, Microarch};
//!
//! let haswell = Machine::new(Microarch::Haswell);
//! let block = "xorl %r13d, %r13d".parse()?;
//! let timing = haswell.measure(&block);
//! assert!(timing < 1.0, "a zero idiom retires faster than one cycle per iteration");
//! # Ok::<(), difftune_isa::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analytical;
mod docs;
mod reference;
mod tables;
mod uarch;

pub use analytical::AnalyticalModel;
pub use docs::default_params;
pub use reference::{Machine, MeasurementConfig};
pub use tables::InstTraits;
pub use uarch::{Microarch, UarchConfig};
