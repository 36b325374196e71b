//! Table VI: default and learned global parameters on Haswell.

#![forbid(unsafe_code)]

use difftune::ParamSpec;
use difftune_bench::outln;
use difftune_bench::{dataset_for, mca, run_difftune, Scale};
use difftune_cpu::{default_params, Microarch};

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

    outln!("Table VI: default and learned global parameters (Haswell, scale: {scale:?})\n");
    outln!(
        "{:<12} {:<16} ReorderBufferSize",
        "Parameters",
        "DispatchWidth"
    );
    outln!(
        "{:<12} {:<16} {}",
        "Default",
        defaults.dispatch_width,
        defaults.reorder_buffer_size
    );
    outln!(
        "{:<12} {:<16} {}",
        "Learned",
        result.learned.dispatch_width,
        result.learned.reorder_buffer_size
    );
}
