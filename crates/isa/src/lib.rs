//! # difftune-isa
//!
//! A self-contained model of the x86-64 subset that the DiffTune reproduction
//! operates on: registers, operands, opcodes (named in LLVM's `ADD32mr` style),
//! instructions with read/write/load/store semantics, basic blocks, an AT&T-syntax
//! parser and printer, and a random block generator.
//!
//! Every other crate in the workspace builds on these types: the simulators in
//! `difftune-sim` and `difftune-cpu` interpret [`BasicBlock`]s, the surrogate in
//! `difftune-surrogate` tokenizes them, and the dataset in `difftune-bhive`
//! generates them.
//!
//! # Example
//!
//! ```
//! use difftune_isa::{BasicBlock, OpcodeRegistry};
//!
//! let registry = OpcodeRegistry::full();
//! let block: BasicBlock = "pushq %rbx\ntestl %r8d, %r8d".parse()?;
//! assert_eq!(block.len(), 2);
//! let push = &block.insts()[0];
//! assert_eq!(registry.info(push.opcode()).name(), "PUSH64r");
//! assert!(push.stores());
//! # Ok::<(), difftune_isa::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod block;
mod generate;
mod inst;
mod mnemonic;
mod opcode;
mod operand;
mod parse;
mod reg;
mod registry;

pub use block::BasicBlock;
pub use generate::{BlockGenerator, GeneratorConfig, OperandPool};
pub use inst::Inst;
pub use mnemonic::{Mnemonic, OpClass};
pub use opcode::{Form, Opcode, OpcodeInfo, Width};
pub use operand::{MemRef, Operand};
pub use parse::ParseError;
pub use reg::{Reg, RegClass, RegFamily};
pub use registry::{OpcodeId, OpcodeRegistry};
