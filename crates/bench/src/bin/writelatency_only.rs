//! Section VI-B: learning only WriteLatency (all other parameters stay at
//! their expert defaults), compared to learning the full parameter set.

#![forbid(unsafe_code)]

use difftune::ParamSpec;
use difftune_bench::outln;
use difftune_bench::{dataset_for, evaluate_params, mca, pct, run_difftune, Scale};
use difftune_cpu::{default_params, Microarch};

fn main() {
    let scale = Scale::from_env_or_exit();
    let uarch = Microarch::Haswell;
    let simulator = mca();
    let dataset = dataset_for(uarch, scale, 0);
    let test = dataset.test();
    let defaults = default_params(uarch);

    outln!("Section VI-B: WriteLatency-only optimization on Haswell (scale: {scale:?})\n");
    let (default_error, default_tau) = evaluate_params(&simulator, &defaults, &test);
    outln!(
        "{:<28} error {:<8} tau {:.3}",
        "Default",
        pct(default_error),
        default_tau
    );

    let full = run_difftune(
        &simulator,
        &ParamSpec::llvm_mca(),
        uarch,
        &dataset,
        scale,
        0,
    );
    let (full_error, full_tau) = evaluate_params(&simulator, &full.learned, &test);
    outln!(
        "{:<28} error {:<8} tau {:.3}",
        "DiffTune (all parameters)",
        pct(full_error),
        full_tau
    );

    let latency_only = run_difftune(
        &simulator,
        &ParamSpec::write_latency_only(),
        uarch,
        &dataset,
        scale,
        0,
    );
    let (latency_error, latency_tau) = evaluate_params(&simulator, &latency_only.learned, &test);
    outln!(
        "{:<28} error {:<8} tau {:.3}",
        "DiffTune (WriteLatency only)",
        pct(latency_error),
        latency_tau
    );
    outln!(
        "\n(the paper reports 23.7% for the full set and 16.2% for WriteLatency-only,\n demonstrating that the full-set optimum found is not global)"
    );
}
