//! Serial-vs-parallel bit-equality of full DiffTune runs.
//!
//! The training engine reduces per-sample gradients in fixed sample order
//! (`difftune_tensor::Batch`), so a run's learned table, losses, and
//! surrogate weights must be **bit-identical** for every thread count. These
//! tests drive the whole pipeline (dataset generation → surrogate fit →
//! table optimization) for both simulator families at smoke scale, and for
//! the paper's LSTM surrogate at a reduced scale, and compare a one-thread
//! run against a multi-thread run bit for bit.
//!
//! CI's `determinism` job runs this suite twice — `DIFFTUNE_THREADS=1` and
//! `DIFFTUNE_THREADS=4` — which selects the parallel side's widths here:
//! `=1` compares the serial baseline against 2-worker runs, `=N` against
//! `N`-worker runs, and unset covers both 2 and 4. The knob therefore
//! varies the worker widths under test; the two CI legs exercise disjoint
//! width sets rather than repeating one comparison.

use difftune_repro::bhive::{CorpusConfig, Dataset};
use difftune_repro::core::{
    threads_from_env, DiffTuneBuilder, DiffTuneConfig, DiffTuneResult, ParamSpec, SurrogateKind,
};
use difftune_repro::cpu::{default_params, Microarch};
use difftune_repro::sim::{McaSimulator, Simulator, UopSimulator};
use difftune_repro::surrogate::{train::TrainConfig, FeatureMlpConfig, IthemalConfig};

/// The worker widths compared against the one-thread baseline:
/// `DIFFTUNE_THREADS` when it names a parallel width, 2 when it pins one
/// thread (so the `=1` CI leg still buys coverage), and both 2 and 4 when
/// unset.
fn parallel_widths() -> Vec<usize> {
    match threads_from_env() {
        Ok(0) => vec![2, 4],
        Ok(1) => vec![2],
        Ok(n) => vec![n],
        Err(error) => panic!("invalid DIFFTUNE_THREADS: {error}"),
    }
}

fn mlp(seed: u64) -> SurrogateKind {
    SurrogateKind::Mlp(FeatureMlpConfig {
        hidden_dim: 24,
        seed,
        ..FeatureMlpConfig::default()
    })
}

fn smoke_config(
    surrogate: SurrogateKind,
    max_simulated: usize,
    seed: u64,
    threads: usize,
) -> DiffTuneConfig {
    DiffTuneConfig {
        surrogate,
        simulated_multiplier: 4.0,
        max_simulated,
        surrogate_train: TrainConfig {
            epochs: 2,
            batch_size: 32,
            threads,
            ..TrainConfig::default()
        },
        table_learning_rate: 0.1,
        table_epochs: 2,
        table_batch_size: 32,
        clamp_to_sampling: true,
        seed,
        threads,
    }
}

fn run(
    simulator: &dyn Simulator,
    spec: &ParamSpec,
    config: DiffTuneConfig,
    num_blocks: usize,
) -> DiffTuneResult {
    let dataset = Dataset::build(
        Microarch::Haswell,
        &CorpusConfig {
            num_blocks,
            seed: config.seed,
            ..CorpusConfig::default()
        },
    );
    let train: Vec<_> = dataset
        .train()
        .iter()
        .map(|r| (r.block.clone(), r.timing))
        .collect();
    DiffTuneBuilder::new(config)
        .build(simulator, spec, &default_params(Microarch::Haswell), &train)
        .expect("inputs are valid")
        .run_to_completion()
        .expect("the run completes")
}

fn assert_bit_identical(serial: &DiffTuneResult, parallel: &DiffTuneResult, threads: usize) {
    assert_eq!(
        serial.learned, parallel.learned,
        "learned table diverged with {threads} threads"
    );
    assert_eq!(
        serial.initial, parallel.initial,
        "initial table diverged with {threads} threads"
    );
    let bits = |losses: &[f64]| -> Vec<u64> { losses.iter().map(|l| l.to_bits()).collect() };
    assert_eq!(
        bits(&serial.table_losses),
        bits(&parallel.table_losses),
        "table losses diverged with {threads} threads"
    );
    assert_eq!(
        bits(&serial.surrogate_report.epoch_losses),
        bits(&parallel.surrogate_report.epoch_losses),
        "surrogate losses diverged with {threads} threads"
    );
    for ((_, name, serial_weights), (_, _, parallel_weights)) in serial
        .surrogate
        .params()
        .iter()
        .zip(parallel.surrogate.params().iter())
    {
        let serial_bits: Vec<u32> = serial_weights.data().iter().map(|v| v.to_bits()).collect();
        let parallel_bits: Vec<u32> = parallel_weights
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(
            serial_bits, parallel_bits,
            "surrogate weight {name} diverged with {threads} threads"
        );
    }
}

#[test]
fn mca_pipeline_is_bit_identical_across_thread_counts() {
    let simulator = McaSimulator::default();
    let spec = ParamSpec::llvm_mca();
    let serial = run(&simulator, &spec, smoke_config(mlp(11), 600, 11, 1), 300);
    for threads in parallel_widths() {
        let parallel = run(
            &simulator,
            &spec,
            smoke_config(mlp(11), 600, 11, threads),
            300,
        );
        assert_bit_identical(&serial, &parallel, threads);
    }
}

#[test]
fn uop_pipeline_is_bit_identical_across_thread_counts() {
    let simulator = UopSimulator::default();
    let spec = ParamSpec::llvm_sim();
    let serial = run(&simulator, &spec, smoke_config(mlp(5), 600, 5, 1), 300);
    for threads in parallel_widths() {
        let parallel = run(
            &simulator,
            &spec,
            smoke_config(mlp(5), 600, 5, threads),
            300,
        );
        assert_bit_identical(&serial, &parallel, threads);
    }
}

#[test]
fn lstm_pipeline_is_bit_identical_across_thread_counts() {
    // The paper's surrogate exercises the fused LSTM step and the
    // embedding-row gradients; a reduced scale keeps the runs fast.
    let simulator = McaSimulator::default();
    let spec = ParamSpec::llvm_mca();
    let lstm = SurrogateKind::Lstm(IthemalConfig {
        embed_dim: 8,
        hidden_dim: 12,
        instr_layers: 1,
        block_layers: 1,
        parameter_inputs: true,
        seed: 7,
    });
    let serial = run(&simulator, &spec, smoke_config(lstm, 150, 7, 1), 80);
    for threads in parallel_widths() {
        let parallel = run(&simulator, &spec, smoke_config(lstm, 150, 7, threads), 80);
        assert_bit_identical(&serial, &parallel, threads);
    }
}
