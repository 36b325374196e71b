//! Section VI-C case studies: PUSH64r, XOR32rr, and ADD32mr under the default
//! and learned parameters, compared to the measured timing.

#![forbid(unsafe_code)]

use difftune::ParamSpec;
use difftune_bench::outln;
use difftune_bench::{dataset_for, mca, run_difftune, Scale};
use difftune_cpu::{default_params, Machine, MeasurementConfig, Microarch};
use difftune_isa::{BasicBlock, OpcodeRegistry};
use difftune_sim::Simulator;

fn main() {
    let scale = Scale::from_env_or_exit();
    let uarch = Microarch::Haswell;
    let simulator = mca();
    let machine = Machine::with_measurement(
        uarch,
        MeasurementConfig {
            iterations: 100,
            apply_noise: false,
        },
    );
    let dataset = dataset_for(uarch, scale, 0);
    let defaults = default_params(uarch);
    // The paper's case studies use the WriteLatency-only experiment to keep the
    // learned tables interpretable; we do the same.
    let result = run_difftune(
        &simulator,
        &ParamSpec::write_latency_only(),
        uarch,
        &dataset,
        scale,
        0,
    );

    let registry = OpcodeRegistry::global();
    outln!("Section VI-C case studies (Haswell, scale: {scale:?})\n");

    let cases = [
        (
            "PUSH64r",
            "pushq %rbx\ntestl %r8d, %r8d",
            "push forms a dependency chain with itself through %rsp",
        ),
        (
            "XOR32rr",
            "xorl %r13d, %r13d",
            "a zero idiom the simulator cannot express",
        ),
        (
            "ADD32mr",
            "addl %eax, 16(%rsp)",
            "a memory RMW chain the simulator cannot express",
        ),
    ];

    for (opcode_name, text, note) in cases {
        let block: BasicBlock = text.parse().expect("case-study block parses");
        let opcode = registry
            .by_name(opcode_name)
            .expect("case-study opcode exists");
        let measured = machine.measure_exact(&block);
        let default_prediction = simulator.predict(&defaults, &block);
        let learned_prediction = simulator.predict(&result.learned, &block);
        outln!("{opcode_name}: {note}");
        outln!("  block:                {}", text.replace('\n', " ; "));
        outln!("  measured timing:      {measured:.2}");
        outln!(
            "  default prediction:   {default_prediction:.2}   (WriteLatency {})",
            defaults.inst(opcode).write_latency
        );
        outln!(
            "  learned prediction:   {learned_prediction:.2}   (WriteLatency {})",
            result.learned.inst(opcode).write_latency
        );
        outln!();
    }
}
