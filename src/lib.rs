//! Root facade crate for the DiffTune reproduction.
//!
//! This crate re-exports every workspace crate under a short module name so that
//! the examples and integration tests in this repository can use a single
//! dependency. Library consumers should depend on the individual crates
//! (`difftune`, `difftune-sim`, ...) directly.
//!
//! # Example
//!
//! ```
//! use difftune_repro::isa::BasicBlock;
//!
//! let block: BasicBlock = "xorl %eax, %eax".parse().unwrap();
//! assert_eq!(block.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub use difftune as core;
pub use difftune_bhive as bhive;
pub use difftune_cpu as cpu;
pub use difftune_isa as isa;
pub use difftune_opentuner as opentuner;
pub use difftune_sim as sim;
pub use difftune_surrogate as surrogate;
pub use difftune_tensor as tensor;
