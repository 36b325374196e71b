//! Quick sanity check of the DiffTune pipeline at a reduced scale (not a paper
//! table; used during development).

#![forbid(unsafe_code)]

use difftune::ParamSpec;
use difftune_bench::outln;
use difftune_bench::{evaluate_params, mca, run_difftune, Scale};
use difftune_bhive::{CorpusConfig, Dataset};
use difftune_cpu::{default_params, Microarch};

fn main() {
    let uarch = Microarch::Haswell;
    let blocks: usize = std::env::var("SANITY_BLOCKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1500);
    let dataset = Dataset::build(
        uarch,
        &CorpusConfig {
            num_blocks: blocks,
            seed: 0,
            ..CorpusConfig::default()
        },
    );
    let simulator = mca();
    let test = dataset.test();

    let defaults = default_params(uarch);
    let (default_error, default_tau) = evaluate_params(&simulator, &defaults, &test);
    outln!(
        "default : err {:6.1}% tau {default_tau:.3}",
        default_error * 100.0
    );

    let start = std::time::Instant::now();
    let result = run_difftune(
        &simulator,
        &ParamSpec::llvm_mca(),
        uarch,
        &dataset,
        Scale::Small,
        0,
    );
    let (initial_error, _) = evaluate_params(&simulator, &result.initial, &test);
    let (learned_error, learned_tau) = evaluate_params(&simulator, &result.learned, &test);
    outln!("initial : err {:6.1}%", initial_error * 100.0);
    outln!(
        "learned : err {:6.1}% tau {learned_tau:.3}  (surrogate loss {:.3}, table losses {:?}, {:.0?})",
        learned_error * 100.0,
        result.surrogate_report.final_loss(),
        result.table_losses,
        start.elapsed()
    );
    let zero_latency = result
        .learned
        .per_inst
        .iter()
        .filter(|p| p.write_latency == 0)
        .count();
    outln!(
        "learned globals: width {} rob {}; opcodes with WriteLatency 0: {}",
        result.learned.dispatch_width,
        result.learned.reorder_buffer_size,
        zero_latency
    );
}
