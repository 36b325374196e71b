//! Table II: the parameters learned for llvm-mca.

#![forbid(unsafe_code)]

use difftune::ParamSpec;
use difftune_bench::outln;
use difftune_isa::OpcodeRegistry;
use difftune_sim::{NUM_PORTS, NUM_READ_ADVANCE};

fn main() {
    let registry = OpcodeRegistry::global();
    let spec = ParamSpec::llvm_mca();
    outln!("Table II: parameters learned for the llvm-mca-style simulator\n");
    outln!(
        "{:<20} {:<22} {:<14} Description",
        "Parameter",
        "Count",
        "Constraint"
    );
    outln!(
        "{:<20} {:<22} {:<14} micro-ops dispatched per cycle",
        "DispatchWidth",
        "1 global",
        "integer, >= 1"
    );
    outln!(
        "{:<20} {:<22} {:<14} micro-ops resident in the reorder buffer",
        "ReorderBufferSize",
        "1 global",
        "integer, >= 1"
    );
    outln!(
        "{:<20} {:<22} {:<14} micro-ops per instruction",
        "NumMicroOps",
        "1 per-instruction",
        "integer, >= 1"
    );
    outln!(
        "{:<20} {:<22} {:<14} cycles before destinations can be read",
        "WriteLatency",
        "1 per-instruction",
        "integer, >= 0"
    );
    outln!(
        "{:<20} {:<22} {:<14} cycles subtracted from source latencies",
        "ReadAdvanceCycles",
        format!("{NUM_READ_ADVANCE} per-instruction"),
        "integer, >= 0"
    );
    outln!(
        "{:<20} {:<22} {:<14} cycles each execution port is occupied",
        "PortMap",
        format!("{NUM_PORTS} per-instruction"),
        "integer, >= 0"
    );
    outln!();
    outln!("opcodes in the registry:      {}", registry.len());
    outln!(
        "learned scalar parameters:    {}",
        spec.num_learned(registry.len())
    );
    outln!("(the paper reports 11265 parameters over its 837-opcode dataset)");
}
