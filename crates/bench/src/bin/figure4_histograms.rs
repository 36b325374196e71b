//! Figure 4: distributions of default and learned per-instruction parameter
//! values on Haswell.

#![forbid(unsafe_code)]

use difftune::ParamSpec;
use difftune_bench::outln;
use difftune_bench::{dataset_for, mca, run_difftune, Scale};
use difftune_cpu::{default_params, Microarch};
use difftune_sim::SimParams;

/// Prints a text histogram of values clamped into buckets `0..=max_bucket`.
fn histogram(name: &str, default_values: &[u32], learned_values: &[u32], max_bucket: u32) {
    outln!("{name} distribution (count per value, values above {max_bucket} clamped)");
    outln!("{:<8} {:>10} {:>10}", "value", "default", "learned");
    for bucket in 0..=max_bucket {
        let count = |values: &[u32]| {
            values
                .iter()
                .filter(|&&v| v.min(max_bucket) == bucket)
                .count()
        };
        outln!(
            "{bucket:<8} {:>10} {:>10}",
            count(default_values),
            count(learned_values)
        );
    }
    outln!();
}

fn collect(params: &SimParams) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut uops = Vec::new();
    let mut latency = Vec::new();
    let mut read_advance = Vec::new();
    let mut port_map = Vec::new();
    for entry in &params.per_inst {
        uops.push(entry.num_micro_ops);
        latency.push(entry.write_latency);
        read_advance.extend_from_slice(&entry.read_advance_cycles);
        port_map.extend_from_slice(&entry.port_map);
    }
    (uops, latency, read_advance, port_map)
}

fn main() {
    let scale = Scale::from_env_or_exit();
    let uarch = Microarch::Haswell;
    let simulator = mca();
    let dataset = dataset_for(uarch, scale, 0);
    let defaults = default_params(uarch);
    let result = run_difftune(
        &simulator,
        &ParamSpec::llvm_mca(),
        uarch,
        &dataset,
        scale,
        0,
    );

    outln!("Figure 4: default vs learned parameter distributions (Haswell, scale: {scale:?})\n");
    let (default_uops, default_latency, default_advance, default_ports) = collect(&defaults);
    let (learned_uops, learned_latency, learned_advance, learned_ports) = collect(&result.learned);
    histogram("NumMicroOps", &default_uops, &learned_uops, 10);
    histogram("WriteLatency", &default_latency, &learned_latency, 10);
    histogram("ReadAdvanceCycles", &default_advance, &learned_advance, 10);
    histogram("PortMap entries", &default_ports, &learned_ports, 10);

    let zero_latency_default = default_latency.iter().filter(|&&v| v == 0).count();
    let zero_latency_learned = learned_latency.iter().filter(|&&v| v == 0).count();
    outln!(
        "opcodes with WriteLatency 0: default {zero_latency_default}, learned {zero_latency_learned} (the paper reports 1 vs 251)"
    );
}
