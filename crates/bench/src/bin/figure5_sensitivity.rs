//! Figure 5: llvm-mca's sensitivity to DispatchWidth and ReorderBufferSize
//! within the default and learned parameter tables (Haswell).

#![forbid(unsafe_code)]

use difftune::ParamSpec;
use difftune_bench::outln;
use difftune_bench::{dataset_for, evaluate_params, mca, pct, run_difftune, Scale};
use difftune_cpu::{default_params, Microarch};
use difftune_sim::SimParams;

fn main() {
    let scale = Scale::from_env_or_exit();
    let uarch = Microarch::Haswell;
    let simulator = mca();
    let dataset = dataset_for(uarch, scale, 0);
    let test = dataset.test();
    let defaults = default_params(uarch);
    let result = run_difftune(
        &simulator,
        &ParamSpec::llvm_mca(),
        uarch,
        &dataset,
        scale,
        0,
    );

    let sweep = |name: &str, base: &SimParams| {
        outln!("\n{name}: error while sweeping DispatchWidth");
        outln!("{:<14} Error", "DispatchWidth");
        for width in 1..=10u32 {
            let mut params = base.clone();
            params.dispatch_width = width;
            let (error, _) = evaluate_params(&simulator, &params, &test);
            outln!("{width:<14} {}", pct(error));
        }
        outln!("\n{name}: error while sweeping ReorderBufferSize");
        outln!("{:<18} Error", "ReorderBufferSize");
        for rob in [10u32, 25, 50, 75, 100, 150, 200, 250, 300, 400] {
            let mut params = base.clone();
            params.reorder_buffer_size = rob;
            let (error, _) = evaluate_params(&simulator, &params, &test);
            outln!("{rob:<18} {}", pct(error));
        }
    };

    outln!("Figure 5: sensitivity to global parameters (Haswell, scale: {scale:?})");
    sweep("Default parameters", &defaults);
    sweep("Learned parameters", &result.learned);
}
