//! Table IV: error of llvm-mca with the default and learned parameters,
//! compared against the Ithemal, IACA-style, and OpenTuner baselines, on all
//! four microarchitectures.

#![forbid(unsafe_code)]

use difftune::ParamSpec;
use difftune_bench::outln;
use difftune_bench::{
    analytical_baseline, dataset_for, evaluate_params, ithemal_baseline, mca, opentuner_baseline,
    pct, row, run_difftune, Scale,
};
use difftune_cpu::{default_params, Microarch};

fn main() {
    let scale = Scale::from_env_or_exit();
    let simulator = mca();
    outln!("Table IV: test error and Kendall's tau per predictor (scale: {scale:?})\n");
    outln!(
        "{:<12} {:<12} {:<10} Tau",
        "Architecture",
        "Predictor",
        "Error"
    );

    for uarch in Microarch::ALL {
        let dataset = dataset_for(uarch, scale, 0);
        let test = dataset.test();

        let defaults = default_params(uarch);
        let (default_error, default_tau) = evaluate_params(&simulator, &defaults, &test);
        row(uarch.name(), "Default", default_error, default_tau);

        let result = run_difftune(
            &simulator,
            &ParamSpec::llvm_mca(),
            uarch,
            &dataset,
            scale,
            0,
        );
        let (learned_error, learned_tau) = evaluate_params(&simulator, &result.learned, &test);
        row(uarch.name(), "DiffTune", learned_error, learned_tau);

        let (ithemal_error, ithemal_tau) = ithemal_baseline(&dataset, scale, 0);
        row(uarch.name(), "Ithemal", ithemal_error, ithemal_tau);

        match analytical_baseline(uarch, &dataset) {
            Some((error, tau)) => row(uarch.name(), "IACA-like", error, tau),
            None => outln!("{:<12} {:<12} {:<10} N/A", uarch.name(), "IACA-like", "N/A"),
        }

        let (_, opentuner_error, opentuner_tau) =
            opentuner_baseline(&simulator, uarch, &dataset, scale, 0);
        row(uarch.name(), "OpenTuner", opentuner_error, opentuner_tau);

        eprintln!(
            "[{}] default {} -> difftune {} (surrogate loss {:.3}, {} learned params)",
            uarch.name(),
            pct(default_error),
            pct(learned_error),
            result.surrogate_report.final_loss(),
            result.num_learned_parameters,
        );
        outln!();
    }
}
