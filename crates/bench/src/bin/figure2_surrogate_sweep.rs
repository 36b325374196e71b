//! Figure 2: timing predicted by the simulator and by a trained surrogate for
//! the block `shrq $5, 16(%rsp)` while sweeping DispatchWidth from 1 to 10.

#![forbid(unsafe_code)]

use difftune::{generate_simulated_dataset, ParamSpec};
use difftune_bench::outln;
use difftune_bench::{mca, Scale};
use difftune_cpu::{default_params, Microarch};
use difftune_isa::BasicBlock;
use difftune_sim::Simulator;
use difftune_surrogate::train::train;
use difftune_surrogate::{block_param_features, global_features, Vocab};

fn main() {
    let scale = Scale::from_env_or_exit();
    let simulator = mca();
    let defaults = default_params(Microarch::Haswell);
    let block: BasicBlock = "shrq $5, 16(%rsp)".parse().expect("figure 2 block parses");

    // Train a surrogate on simulated data for this block only (the figure's
    // purpose is to show that the surrogate smooths the simulator's step
    // function over DispatchWidth).
    let spec = ParamSpec::llvm_mca();
    let samples = generate_simulated_dataset(
        &simulator,
        &spec,
        &defaults,
        std::slice::from_ref(&block),
        match scale {
            Scale::Smoke => 500,
            Scale::Small => 4_000,
            Scale::Paper => 20_000,
        },
        0,
        0,
    )
    .expect("figure 2 uses a non-empty block set");
    let mut surrogate = scale.difftune_config(0).surrogate.build();
    let mut config = scale.difftune_config(0).surrogate_train;
    config.epochs = 4;
    train(&mut surrogate, &samples, &config).expect("figure 2 training config is valid");

    let vocab = Vocab::new();
    let tokenized = vocab.tokenize_block(&block);

    outln!("Figure 2: SHR64mi timing while sweeping DispatchWidth (scale: {scale:?})\n");
    outln!("{:<14} {:<12} Surrogate", "DispatchWidth", "llvm-mca");
    for width in 1..=10u32 {
        let mut params = defaults.clone();
        params.dispatch_width = width;
        let simulated = simulator.predict(&params, &block);
        let features = block_param_features(&params, &tokenized);
        let global = global_features(&params);
        let mut graph = difftune_tensor::Graph::new(surrogate.params());
        let feature_vars: Vec<_> = features.iter().map(|f| graph.input(f.clone())).collect();
        let global_var = graph.input(global);
        let out = difftune_surrogate::SurrogateModel::forward(
            &surrogate,
            &mut graph,
            &tokenized,
            Some(&feature_vars),
            Some(global_var),
        );
        let predicted = f64::from(graph.value(out)[0]);
        outln!("{width:<14} {simulated:<12.3} {predicted:.3}");
    }
}
