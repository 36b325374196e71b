//! Table V: error of llvm-mca with default and learned parameters on Haswell,
//! grouped by BHive application and category.

#![forbid(unsafe_code)]

use difftune::ParamSpec;
use difftune_bench::outln;
use difftune_bench::{dataset_for, mca, pct, run_difftune, Scale};
use difftune_bhive::Dataset;
use difftune_cpu::{default_params, Microarch};
use difftune_sim::Simulator;

fn main() {
    let scale = Scale::from_env_or_exit();
    let simulator = mca();
    let uarch = Microarch::Haswell;
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

    outln!("Table V: Haswell error by application and category (scale: {scale:?})\n");
    outln!(
        "{:<28} {:>8} {:>14} {:>14}",
        "Block type",
        "# blocks",
        "Default error",
        "Learned error"
    );

    let default_by_app = Dataset::error_by_application(&test, |b| simulator.predict(&defaults, b));
    let learned_by_app =
        Dataset::error_by_application(&test, |b| simulator.predict(&result.learned, b));
    for (app, (count, default_error)) in &default_by_app {
        let learned_error = learned_by_app.get(app).map(|(_, e)| *e).unwrap_or(f64::NAN);
        outln!(
            "{:<28} {:>8} {:>14} {:>14}",
            app.name(),
            count,
            pct(*default_error),
            pct(learned_error)
        );
    }
    outln!();
    let default_by_cat = Dataset::error_by_category(&test, |b| simulator.predict(&defaults, b));
    let learned_by_cat =
        Dataset::error_by_category(&test, |b| simulator.predict(&result.learned, b));
    for (category, (count, default_error)) in &default_by_cat {
        let learned_error = learned_by_cat
            .get(category)
            .map(|(_, e)| *e)
            .unwrap_or(f64::NAN);
        outln!(
            "{:<28} {:>8} {:>14} {:>14}",
            category.name(),
            count,
            pct(*default_error),
            pct(learned_error)
        );
    }
}
