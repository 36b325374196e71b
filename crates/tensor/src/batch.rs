//! The deterministic data-parallel gradient engine.
//!
//! [`Batch`] computes per-sample forward/backward passes on
//! [`std::thread::scope`] workers, but always reduces gradients **in fixed
//! sample order**. Samples are grouped into fixed
//! [`REDUCTION_CHUNK`]-sized chunks whose boundaries depend only on the
//! batch size — never on the worker count — and each chunk accumulates into
//! its own [`Grads`] slot in sample order; the calling thread then merges
//! the chunk slots in chunk order. Because the reduction tree is fully
//! determined by the batch size, the accumulated gradient is
//! *bit-identical* for every thread count: `threads = 1` and `threads = N`
//! produce exactly the same bits (property-tested in
//! `tests/batch_determinism.rs`).
//!
//! The engine owns one [`TapeArena`] per worker and one [`Grads`] slot per
//! chunk, all reused across batches, so a training loop that calls the
//! engine in its inner loop stops allocating after the first batch.

use crate::graph::TapeArena;
use crate::{Grads, Graph, Params, Var};

/// Number of samples per reduction chunk. One [`Grads`] slot exists per
/// chunk (not per sample), bounding the reduction's memory and the serial
/// merge cost at `batch_size / REDUCTION_CHUNK` gradient stores. Chunk
/// boundaries are a pure function of the batch size, so the reduction tree —
/// and therefore every bit of the result — is independent of the worker
/// count.
pub const REDUCTION_CHUNK: usize = 8;

/// Below this many samples a batch is processed on the calling thread —
/// spawn overhead would dominate. The threshold never affects results, only
/// where the work runs.
const MIN_PARALLEL_SAMPLES: usize = 8;

/// Resolves a worker-count setting: `0` means every core this process may
/// use (`1` if that cannot be determined); any other value is taken as is.
///
/// This is the workspace's one "0 = all cores" rule — the gradient engine,
/// dataset generation, the scenario matrix and the server's shard count all
/// resolve their knob here.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// A reusable, deterministic batch-gradient accumulator.
///
/// ```
/// use difftune_tensor::{Batch, Grads, Params, Tensor};
///
/// let mut params = Params::new();
/// let w = params.add("w", Tensor::vector(vec![1.0, -2.0]));
/// let samples: Vec<Vec<f32>> = (0..32).map(|i| vec![i as f32, 1.0]).collect();
///
/// let mut engine = Batch::new(4);
/// let mut grads = Grads::new(&params);
/// let total = engine.accumulate(
///     &params,
///     &samples,
///     |graph, sample| {
///         let wv = graph.param(w);
///         let x = graph.input(Tensor::vector(sample.clone()));
///         let y = graph.mul(wv, x);
///         graph.sum(y)
///     },
///     1.0 / samples.len() as f32,
///     &mut grads,
/// );
/// assert!(total.is_finite());
/// assert!(grads.get(w).is_some());
/// ```
#[derive(Debug)]
pub struct Batch {
    threads: usize,
    slots: Vec<Grads>,
    losses: Vec<f64>,
    arenas: Vec<TapeArena>,
}

impl Batch {
    /// Creates an engine with `threads` workers (`0` means all available
    /// cores).
    pub fn new(threads: usize) -> Self {
        Batch {
            threads: resolve_threads(threads),
            slots: Vec::new(),
            losses: Vec::new(),
            arenas: Vec::new(),
        }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Computes the loss and gradients of a batch of samples on the tape.
    ///
    /// `loss_of` builds one sample's forward pass and returns its scalar loss
    /// node; the engine runs it once per sample (possibly on worker threads),
    /// backpropagates with seed `seed`, and merges the resulting gradients
    /// into `grads` in sample order (accumulated within fixed
    /// [`REDUCTION_CHUNK`]s, chunks merged in chunk order). Returns the sum
    /// of the per-sample loss values, accumulated in the same fixed order.
    ///
    /// Both the gradients and the returned loss are bit-identical for every
    /// worker count, including `threads = 1`.
    ///
    /// The per-chunk stores collect the same parameters as `grads` (see
    /// [`Grads::only`]), so a subset store skips the other parameters'
    /// gradient work on every worker.
    pub fn accumulate<S: Sync>(
        &mut self,
        params: &Params,
        samples: &[S],
        loss_of: impl Fn(&mut Graph<'_>, &S) -> Var + Sync,
        seed: f32,
        grads: &mut Grads,
    ) -> f64 {
        let n = samples.len();
        if n == 0 {
            return 0.0;
        }
        let chunks: Vec<&[S]> = samples.chunks(REDUCTION_CHUNK).collect();
        let workers = if n < MIN_PARALLEL_SAMPLES {
            1
        } else {
            self.threads.min(chunks.len())
        };
        if self.slots.len() < chunks.len() {
            let missing = chunks.len() - self.slots.len();
            self.slots
                .extend(std::iter::repeat_with(|| Grads::new(params)).take(missing));
        }
        if self.arenas.len() < workers {
            let missing = workers - self.arenas.len();
            self.arenas
                .extend(std::iter::repeat_with(TapeArena::new).take(missing));
        }
        self.losses.clear();
        self.losses.resize(chunks.len(), 0.0);
        let slots = &mut self.slots[..chunks.len()];
        let losses = &mut self.losses[..];
        for slot in slots.iter_mut() {
            slot.collect_like(grads);
            slot.reset(params);
        }

        let loss_of = &loss_of;
        if workers == 1 {
            run_shard(
                params,
                &chunks,
                slots,
                losses,
                &mut self.arenas[0],
                loss_of,
                seed,
            );
        } else {
            let per_worker = chunks.len().div_ceil(workers);
            let arenas = &mut self.arenas[..workers];
            std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .chunks(per_worker)
                    .zip(slots.chunks_mut(per_worker))
                    .zip(losses.chunks_mut(per_worker))
                    .zip(arenas.iter_mut())
                    .map(|(((shard, shard_slots), shard_losses), arena)| {
                        scope.spawn(move || {
                            run_shard(
                                params,
                                shard,
                                shard_slots,
                                shard_losses,
                                arena,
                                loss_of,
                                seed,
                            )
                        })
                    })
                    .collect();
                for handle in handles {
                    handle.join().expect("batch gradient worker panicked");
                }
            });
        }

        let mut total = 0.0;
        for (slot, loss) in self.slots[..chunks.len()].iter().zip(&self.losses) {
            grads.merge(slot);
            total += loss;
        }
        total
    }
}

/// Processes a contiguous run of fixed-size chunks on one worker's arena,
/// each chunk's gradients accumulated (in sample order) into the chunk's own
/// slot and its samples' losses summed (in sample order) into the chunk's
/// loss.
fn run_shard<S>(
    params: &Params,
    chunks: &[&[S]],
    slots: &mut [Grads],
    losses: &mut [f64],
    arena: &mut TapeArena,
    loss_of: &(impl Fn(&mut Graph<'_>, &S) -> Var + Sync),
    seed: f32,
) {
    for ((samples, slot), loss) in chunks.iter().zip(slots).zip(losses) {
        for sample in samples.iter() {
            *loss += arena.scoped(params, |graph| {
                let root = loss_of(graph, sample);
                let value = f64::from(graph.value(root)[0]);
                graph.backward_scaled(root, slot, seed);
                value
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    /// A tiny model whose graph exercises matvec, row lookups (the sparse
    /// `accumulate_at` path), and repeated parameter use.
    fn model_params() -> Params {
        let mut params = Params::new();
        params.add(
            "w",
            Tensor::matrix(3, 4, (0..12).map(|i| 0.17 * i as f32 - 0.9).collect()),
        );
        params.add(
            "table",
            Tensor::matrix(5, 3, (0..15).map(|i| 0.1 * i as f32 - 0.6).collect()),
        );
        params
    }

    // The engine hands the closure `&S` with `S = Vec<f32>` here, so the
    // reference-to-Vec parameter type is forced by the generic signature.
    #[allow(clippy::ptr_arg)]
    fn sample_loss(graph: &mut Graph<'_>, sample: &Vec<f32>) -> Var {
        // ParamIds are dense indices; the tests register w (0) then table (1).
        let w = graph.param(crate::ParamId(0));
        let table = graph.param(crate::ParamId(1));
        let x = graph.input(Tensor::vector(sample.clone()));
        let h = graph.matvec(w, x);
        let t = graph.tanh(h);
        // Row index derived from the sample: repeated rows across samples
        // exercise the sparse embedding-gradient path.
        let row = (sample[0].abs() as usize) % 5;
        let r0 = graph.row(table, row);
        let r1 = graph.row(table, (row + 2) % 5);
        let m = graph.mul(r0, r1);
        let cat = graph.concat(&[t, m]);
        let s = graph.sigmoid(cat);
        graph.mean(s)
    }

    fn samples(count: usize) -> Vec<Vec<f32>> {
        (0..count)
            .map(|i| {
                (0..4)
                    .map(|j| ((i * 7 + j * 3) % 11) as f32 * 0.3 - 1.5)
                    .collect()
            })
            .collect()
    }

    fn grads_for(threads: usize, count: usize) -> (f64, Grads) {
        let params = model_params();
        let data = samples(count);
        let mut engine = Batch::new(threads);
        let mut grads = Grads::new(&params);
        let total = engine.accumulate(&params, &data, sample_loss, 1.0 / count as f32, &mut grads);
        (total, grads)
    }

    #[test]
    fn worker_counts_produce_bit_identical_gradients() {
        let (serial_loss, serial) = grads_for(1, 33);
        for threads in [2, 3, 4, 7] {
            let (loss, grads) = grads_for(threads, 33);
            assert_eq!(
                serial_loss.to_bits(),
                loss.to_bits(),
                "loss must be bit-identical with {threads} threads"
            );
            assert_eq!(
                serial, grads,
                "gradients must be bit-identical with {threads} threads"
            );
        }
    }

    #[test]
    fn engine_reuse_across_batches_is_deterministic() {
        let params = model_params();
        let data = samples(40);
        let run = |threads: usize| -> Vec<Grads> {
            let mut engine = Batch::new(threads);
            let mut out = Vec::new();
            // Varying batch sizes exercise slot reuse (slots hold stale zeroed
            // tensors from larger earlier batches).
            for batch in [&data[..40], &data[..9], &data[..17]] {
                let mut grads = Grads::new(&params);
                engine.accumulate(&params, batch, sample_loss, 0.5, &mut grads);
                out.push(grads);
            }
            out
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn a_subset_store_gets_the_full_stores_bits_through_a_reused_engine() {
        let params = model_params();
        let data = samples(33);
        let (table, w) = (crate::ParamId(1), crate::ParamId(0));
        let (full_loss, full) = grads_for(1, 33);
        for threads in [1, 3] {
            // One engine alternates full and subset batches, so the
            // per-chunk stores switch sets in both directions.
            let mut engine = Batch::new(threads);
            for round in 0..2 {
                let mut all = Grads::new(&params);
                engine.accumulate(&params, &data, sample_loss, 1.0 / 33.0, &mut all);
                assert_eq!(all, full, "round {round}, {threads} threads");
                let mut only = Grads::only(&params, &[table]);
                let loss = engine.accumulate(&params, &data, sample_loss, 1.0 / 33.0, &mut only);
                assert_eq!(loss.to_bits(), full_loss.to_bits());
                let bits = |g: &Grads| -> Vec<u32> {
                    g.get(table)
                        .unwrap()
                        .data()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect()
                };
                assert_eq!(bits(&only), bits(&full), "round {round}, {threads} threads");
                assert!(only.get(w).is_none(), "round {round}, {threads} threads");
            }
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let params = model_params();
        let mut engine = Batch::new(4);
        let mut grads = Grads::new(&params);
        let empty: Vec<Vec<f32>> = Vec::new();
        assert_eq!(
            engine.accumulate(&params, &empty, sample_loss, 1.0, &mut grads),
            0.0
        );
        assert_eq!(grads, Grads::new(&params));
    }

    #[test]
    fn zero_threads_resolves_to_available_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve_threads(0), cores);
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(Batch::new(0).threads(), cores);
        assert_eq!(Batch::new(3).threads(), 3);
    }
}
