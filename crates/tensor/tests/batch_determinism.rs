//! Property tests: the [`Batch`] engine's gradients are bit-identical for
//! every worker count, across random models, batch sizes, seeds, and
//! collected parameter sets. The
//! properties sweep worker widths themselves (serial vs 2..8 workers), so
//! one run of this suite covers the whole width range; CI's `determinism`
//! job runs it once, alongside the env-driven pipeline suite in
//! `tests/determinism.rs`.

use difftune_tensor::{Batch, Grads, Graph, ParamId, Params, Tensor, Var};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small two-parameter model: a weight matrix and an embedding-style table
/// (the table exercises the sparse `accumulate_at` gradient path, including
/// repeated rows within one sample).
fn build_params(seed: u64, hidden: usize, features: usize) -> (Params, ParamId, ParamId) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut params = Params::new();
    let w = params.add(
        "w",
        Tensor::matrix(
            hidden,
            features,
            (0..hidden * features)
                .map(|_| rng.gen_range(-0.8..0.8))
                .collect(),
        ),
    );
    let table = params.add(
        "table",
        Tensor::matrix(
            6,
            hidden,
            (0..6 * hidden).map(|_| rng.gen_range(-0.5..0.5)).collect(),
        ),
    );
    (params, w, table)
}

fn random_samples(seed: u64, count: usize, features: usize) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(99));
    (0..count)
        .map(|_| (0..features).map(|_| rng.gen_range(-2.0..2.0)).collect())
        .collect()
}

/// Per-sample loss with matvec, activations, two (possibly equal) embedding
/// rows, and a second use of the same weight parameter.
fn loss_of(w: ParamId, table: ParamId) -> impl Fn(&mut Graph<'_>, &Vec<f32>) -> Var + Sync {
    move |graph, sample| {
        let wv = graph.param(w);
        let tv = graph.param(table);
        let x = graph.input(Tensor::vector(sample.clone()));
        let h = graph.matvec(wv, x);
        let t = graph.tanh(h);
        let row_a = (sample[0].abs() * 10.0) as usize % 6;
        let row_b = (sample[1].abs() * 10.0) as usize % 6;
        let ra = graph.row(tv, row_a);
        let rb = graph.row(tv, row_b);
        let mixed = graph.mul(ra, rb);
        let gated = graph.sigmoid(mixed);
        let joined = graph.mul(t, gated);
        // Reuse the weight matrix a second time, as LSTM cells do across
        // timesteps: the per-sample gradient then accumulates into the same
        // slot more than once.
        let h2 = graph.matvec(wv, x);
        let a2 = graph.abs(h2);
        let cat = graph.concat(&[joined, a2]);
        graph.mean(cat)
    }
}

/// Which parameters a run's gradient store collects.
#[derive(Debug, Clone, Copy)]
enum Collect {
    All,
    OnlyW,
    OnlyTable,
}

fn run(
    threads: usize,
    model_seed: u64,
    count: usize,
    grad_seed: f32,
    collect: Collect,
) -> (f64, Grads, [ParamId; 2]) {
    let hidden = 5;
    let features = 4;
    let (params, w, table) = build_params(model_seed, hidden, features);
    let samples = random_samples(model_seed, count, features);
    let mut engine = Batch::new(threads);
    let mut grads = match collect {
        Collect::All => Grads::new(&params),
        Collect::OnlyW => Grads::only(&params, &[w]),
        Collect::OnlyTable => Grads::only(&params, &[table]),
    };
    let total = engine.accumulate(&params, &samples, loss_of(w, table), grad_seed, &mut grads);
    (total, grads, [w, table])
}

/// A store's slots as bit patterns, `None` where nothing was written.
fn slot_bits(grads: &Grads, ids: [ParamId; 2]) -> Vec<Option<Vec<u32>>> {
    ids.into_iter()
        .map(|id| {
            grads
                .get(id)
                .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// For any model, batch size, gradient seed and collected set, every
    /// worker count produces the same loss and gradient bits as a single
    /// worker, and a subset store's slots are the full store's bits.
    #[test]
    fn parallel_gradients_are_bit_equal_to_serial(
        model_seed in 0u64..1_000,
        count in 1usize..48,
        threads in 2usize..8,
        seed_scale in 1u32..16,
        collect in 0usize..3,
    ) {
        let collect = [Collect::All, Collect::OnlyW, Collect::OnlyTable][collect];
        let grad_seed = 1.0 / seed_scale as f32;
        let (serial_loss, serial_grads, ids) = run(1, model_seed, count, grad_seed, collect);
        let (parallel_loss, parallel_grads, _) = run(threads, model_seed, count, grad_seed, collect);
        prop_assert_eq!(serial_loss.to_bits(), parallel_loss.to_bits());
        prop_assert_eq!(&serial_grads, &parallel_grads);
        let (_, full, _) = run(1, model_seed, count, grad_seed, Collect::All);
        let kept = match collect {
            Collect::All => [true, true],
            Collect::OnlyW => [true, false],
            Collect::OnlyTable => [false, true],
        };
        let expected: Vec<_> = slot_bits(&full, ids)
            .into_iter()
            .zip(kept)
            .map(|(bits, keep)| bits.filter(|_| keep))
            .collect();
        prop_assert_eq!(slot_bits(&parallel_grads, ids), expected);
    }
}

/// A multi-batch training-style loop (gradient steps between batches) stays
/// bit-identical across worker counts, covering slot/arena reuse.
#[test]
fn multi_batch_sgd_loop_is_bit_identical_across_worker_counts() {
    let train = |threads: usize| -> Params {
        let (mut params, w, table) = build_params(7, 5, 4);
        let samples = random_samples(7, 40, 4);
        let mut engine = Batch::new(threads);
        let mut grads = Grads::new(&params);
        for batch in samples.chunks(12) {
            grads.reset(&params);
            engine.accumulate(
                &params,
                batch,
                loss_of(w, table),
                1.0 / batch.len() as f32,
                &mut grads,
            );
            for id in [w, table] {
                if let Some(grad) = grads.get(id) {
                    let grad = grad.clone();
                    params.get_mut(id).add_scaled(&grad, -0.05);
                }
            }
        }
        params
    };
    let serial = train(1);
    for threads in [2, 4] {
        assert_eq!(serial, train(threads), "{threads} workers diverged");
    }
}
