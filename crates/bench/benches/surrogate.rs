//! Criterion benchmarks for the surrogate models and training steps.

use std::collections::HashSet;

use criterion::{criterion_group, criterion_main, Criterion};

use difftune_cpu::{default_params, Microarch};
use difftune_isa::{BasicBlock, BlockGenerator};
use difftune_surrogate::train::{train_with_optimizer, TrainConfig, TrainSample};
use difftune_surrogate::{
    block_param_features, global_features, FeatureMlpConfig, FeatureMlpModel, IthemalConfig,
    IthemalModel, SurrogateForward, Vocab,
};
use difftune_tensor::optim::Adam;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn samples(count: usize) -> Vec<TrainSample> {
    let generator = BlockGenerator::default();
    let mut rng = StdRng::seed_from_u64(1);
    let vocab = Vocab::new();
    let params = default_params(Microarch::Haswell);
    (0..count)
        .map(|i| {
            let block: BasicBlock = generator.generate_with_len(&mut rng, 5);
            let tokenized = vocab.tokenize_block(&block);
            TrainSample {
                per_inst_features: Some(block_param_features(&params, &tokenized)),
                global_features: Some(global_features(&params)),
                block: tokenized,
                target: 1.0 + (i % 7) as f64,
            }
        })
        .collect()
}

fn lstm_model() -> IthemalModel {
    IthemalModel::new(IthemalConfig {
        embed_dim: 16,
        hidden_dim: 32,
        instr_layers: 1,
        block_layers: 1,
        parameter_inputs: true,
        seed: 0,
    })
}

/// `count` distinct blocks of 3–8 instructions.
fn distinct_blocks(count: usize) -> Vec<BasicBlock> {
    let generator = BlockGenerator::default();
    let mut rng = StdRng::seed_from_u64(2);
    let mut seen = HashSet::new();
    let mut blocks = Vec::with_capacity(count);
    while blocks.len() < count {
        let block = generator.generate_with_len(&mut rng, 3 + blocks.len() % 6);
        if seen.insert(block.to_string()) {
            blocks.push(block);
        }
    }
    blocks
}

/// Predicts `blocks` round-robin through one engine, one block per
/// iteration.
fn bench_forward(
    c: &mut Criterion,
    id: &str,
    mut forward: SurrogateForward,
    blocks: &[BasicBlock],
) {
    let mut next = 0;
    c.bench_function(id, |b| {
        b.iter(|| {
            let prediction = forward.predict(&blocks[next % blocks.len()]);
            next += 1;
            prediction
        })
    });
}

fn bench_surrogate(c: &mut Criterion) {
    let data = samples(64);
    let lstm = lstm_model();
    let mlp = FeatureMlpModel::new(FeatureMlpConfig::default());

    c.bench_function("lstm_surrogate_forward", |b| {
        let sample = &data[0];
        b.iter(|| {
            lstm.predict(
                &sample.block,
                sample.per_inst_features.as_deref(),
                sample.global_features.as_ref(),
            )
        })
    });
    // Through the serving engine. `_fresh_shapes` starts from a cold memo
    // over blocks it has never seen, so each opcode's leading state is
    // computed the first time it appears; `_warm_shapes` cycles through
    // blocks it has already predicted, so every instruction starts from
    // its memo. (The ids name blocks of fresh and of repeated shapes.)
    let table = default_params(Microarch::Haswell);
    let fresh = distinct_blocks(4096);
    bench_forward(
        c,
        "lstm_surrogate_forward_fresh_shapes",
        SurrogateForward::new(Box::new(lstm_model()), table.clone()),
        &fresh,
    );
    let repeated = &fresh[..16];
    let mut warm = SurrogateForward::new(Box::new(lstm_model()), table);
    warm.predict_batch(repeated);
    bench_forward(c, "lstm_surrogate_forward_warm_shapes", warm, repeated);
    c.bench_function("mlp_surrogate_forward", |b| {
        let sample = &data[0];
        b.iter(|| {
            mlp.predict(
                &sample.block,
                sample.per_inst_features.as_deref(),
                sample.global_features.as_ref(),
            )
        })
    });
    c.bench_function("mlp_surrogate_train_batch64", |b| {
        b.iter(|| {
            let mut model = FeatureMlpModel::new(FeatureMlpConfig::default());
            let mut adam = Adam::new(1e-3);
            let config = TrainConfig {
                epochs: 1,
                batch_size: 64,
                threads: 1,
                ..TrainConfig::default()
            };
            train_with_optimizer(&mut model, &data, &config, &mut adam)
                .expect("bench training config is valid")
        })
    });
}

criterion_group!(benches, bench_surrogate);
criterion_main!(benches);
