//! Table VIII (Appendix A): error of the llvm_sim-style micro-op simulator
//! with default and learned parameters on Haswell.

#![forbid(unsafe_code)]

use difftune::ParamSpec;
use difftune_bench::outln;
use difftune_bench::{
    dataset_for, evaluate_params, ithemal_baseline, opentuner_baseline, row, run_difftune, Scale,
};
use difftune_cpu::{default_params, Microarch};
use difftune_sim::UopSimulator;

fn main() {
    let scale = Scale::from_env_or_exit();
    let uarch = Microarch::Haswell;
    let simulator = UopSimulator::default();
    let dataset = dataset_for(uarch, scale, 0);
    let test = dataset.test();

    outln!("Table VIII: llvm_sim-style simulator on Haswell (scale: {scale:?})\n");
    outln!(
        "{:<12} {:<12} {:<10} Tau",
        "Architecture",
        "Predictor",
        "Error"
    );

    let defaults = default_params(uarch);
    let (default_error, default_tau) = evaluate_params(&simulator, &defaults, &test);
    row(uarch.name(), "Default", default_error, default_tau);

    let result = run_difftune(
        &simulator,
        &ParamSpec::llvm_sim(),
        uarch,
        &dataset,
        scale,
        0,
    );
    let (learned_error, learned_tau) = evaluate_params(&simulator, &result.learned, &test);
    row(uarch.name(), "DiffTune", learned_error, learned_tau);

    let (ithemal_error, ithemal_tau) = ithemal_baseline(&dataset, scale, 0);
    row(uarch.name(), "Ithemal", ithemal_error, ithemal_tau);

    let (_, opentuner_error, opentuner_tau) =
        opentuner_baseline(&simulator, uarch, &dataset, scale, 0);
    row(uarch.name(), "OpenTuner", opentuner_error, opentuner_tau);
}
