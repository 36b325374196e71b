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
//! One worker loop serves both entry points. Each sample either replays its
//! compiled schedule ([`Batch::accumulate_compiled`] with a cached key) or
//! builds a tape ([`Batch::accumulate`], a sample whose key is `None`, or a
//! key with no program yet); the chunking, worker split and merge never
//! depend on which. A batch's first sample of an uncached key is the one
//! that records its program: its worker freezes the tape it just ran, so no
//! sample is computed twice, and the calling thread inserts the new
//! programs in sample order after the join.
//!
//! The engine owns one [`TapeArena`] and one [`ReplayBuffers`] per worker
//! and one [`Grads`] slot per chunk, all reused across batches, so a
//! training loop that calls the engine in its inner loop stops allocating
//! after the first batch.

use std::sync::Arc;

use crate::compile::{CompiledProgram, ProgramCache, ProgramKey};
use crate::graph::TapeArena;
use crate::{Grads, Graph, Params, ReplayBuffers, Var};

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

/// How one sample of a batch runs.
#[derive(Debug)]
enum Plan {
    /// Replay the cached program for the sample's key.
    Replay(Arc<CompiledProgram>),
    /// Build a tape: the sample has no key, or an earlier sample of the
    /// batch is recording its key's program.
    Tape,
    /// Build a tape and freeze it into the program for the sample's key,
    /// which the cache does not hold yet: the batch's first sample of that
    /// key.
    Record,
}

/// One reduction chunk: the chunk's samples alongside each sample's plan.
type CompiledChunk<'a, S> = (&'a [S], &'a [Plan]);

/// What a reduction chunk hands back besides its gradient slot: the sum of
/// its samples' losses, and the programs its [`Plan::Record`] samples froze,
/// in sample order.
#[derive(Debug, Default)]
struct ChunkOutput {
    loss: f64,
    recorded: Vec<Arc<CompiledProgram>>,
}

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
    outputs: Vec<ChunkOutput>,
    arenas: Vec<TapeArena>,
    replay: Vec<ReplayBuffers>,
}

impl Batch {
    /// Creates an engine with `threads` workers (`0` means all available
    /// cores).
    pub fn new(threads: usize) -> Self {
        Batch {
            threads: resolve_threads(threads),
            slots: Vec::new(),
            outputs: Vec::new(),
            arenas: Vec::new(),
            replay: Vec::new(),
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
    ///
    /// This is [`Batch::accumulate_compiled`] with no sample keyed, so every
    /// sample takes the tape: the tape is the per-sample reference the
    /// compiled replay is checked against, run by the same worker loop.
    pub fn accumulate<S: Sync>(
        &mut self,
        params: &Params,
        samples: &[S],
        loss_of: impl Fn(&mut Graph<'_>, &S) -> Var + Sync,
        seed: f32,
        grads: &mut Grads,
    ) -> f64 {
        self.accumulate_compiled(
            params,
            samples,
            &mut ProgramCache::new(),
            |_| None,
            loss_of,
            seed,
            grads,
        )
    }

    /// Like [`Batch::accumulate`], but replays samples through compiled
    /// schedules ([`CompiledProgram`]) instead of rebuilding a tape per
    /// sample.
    ///
    /// `key_of` names each sample's graph structure (see
    /// [`ProgramKey`]); samples mapping to the same key share one schedule.
    /// Cache hits are resolved on the calling thread before any work starts.
    /// The batch's first sample of a key the cache does not hold runs on the
    /// tape, forward and backward, on whichever worker owns its chunk, and
    /// that worker freezes the same tape into the key's program
    /// ([`CompiledProgram::record`] run on that sample would build an equal
    /// one); later samples of the key in the batch take the tape as well.
    /// After the join the calling thread inserts the new programs in sample
    /// order, so cache contents never depend on worker scheduling. A sample
    /// whose key is `None` — dynamic structure the caller cannot key — takes
    /// the tape inside the same chunk, preserving the reduction order.
    ///
    /// This is the engine's only worker loop ([`Batch::accumulate`] calls it
    /// with no key), and compiled replay is bit-identical to the tape, so it
    /// produces exactly the same gradients and loss as [`Batch::accumulate`]
    /// — for every thread count and for any mix of compiled and taped
    /// samples.
    #[allow(clippy::too_many_arguments)] // accumulate's signature plus the cache and key function
    pub fn accumulate_compiled<S: Sync>(
        &mut self,
        params: &Params,
        samples: &[S],
        cache: &mut ProgramCache,
        key_of: impl Fn(&S) -> Option<ProgramKey>,
        loss_of: impl Fn(&mut Graph<'_>, &S) -> Var + Sync,
        seed: f32,
        grads: &mut Grads,
    ) -> f64 {
        let n = samples.len();
        if n == 0 {
            return 0.0;
        }
        // Resolve cache hits up front, in sample order. A key the cache does
        // not hold is recorded by the worker that tapes its first sample;
        // later samples of that key in this batch take the tape too.
        let mut fresh: Vec<ProgramKey> = Vec::new();
        let plans: Vec<Plan> = samples
            .iter()
            .map(|sample| match key_of(sample) {
                None => Plan::Tape,
                Some(key) => match cache.lookup(&key) {
                    Some(program) => Plan::Replay(program),
                    None if fresh.contains(&key) => Plan::Tape,
                    None => {
                        fresh.push(key);
                        Plan::Record
                    }
                },
            })
            .collect();
        let chunks: Vec<CompiledChunk<'_, S>> = samples
            .chunks(REDUCTION_CHUNK)
            .zip(plans.chunks(REDUCTION_CHUNK))
            .collect();
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
        if self.replay.len() < workers {
            let missing = workers - self.replay.len();
            self.replay
                .extend(std::iter::repeat_with(ReplayBuffers::new).take(missing));
        }
        self.outputs.clear();
        self.outputs.resize_with(chunks.len(), ChunkOutput::default);
        let slots = &mut self.slots[..chunks.len()];
        let outputs = &mut self.outputs[..];
        for slot in slots.iter_mut() {
            slot.collect_like(grads);
            slot.reset(params);
        }

        let loss_of = &loss_of;
        if workers == 1 {
            run_shard_compiled(
                params,
                &chunks,
                slots,
                outputs,
                &mut self.arenas[0],
                &mut self.replay[0],
                loss_of,
                seed,
            );
        } else {
            let per_worker = chunks.len().div_ceil(workers);
            let arenas = &mut self.arenas[..workers];
            let replay = &mut self.replay[..workers];
            std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .chunks(per_worker)
                    .zip(slots.chunks_mut(per_worker))
                    .zip(outputs.chunks_mut(per_worker))
                    .zip(arenas.iter_mut().zip(replay.iter_mut()))
                    .map(
                        |(((shard, shard_slots), shard_outputs), (arena, buffers))| {
                            scope.spawn(move || {
                                run_shard_compiled(
                                    params,
                                    shard,
                                    shard_slots,
                                    shard_outputs,
                                    arena,
                                    buffers,
                                    loss_of,
                                    seed,
                                )
                            })
                        },
                    )
                    .collect();
                for handle in handles {
                    handle.join().expect("batch gradient worker panicked");
                }
            });
        }

        // Chunks, and each chunk's recordings, are in sample order, as is
        // `fresh`, so each new program pairs up with its key.
        let mut fresh = fresh.into_iter();
        let mut total = 0.0;
        for (slot, output) in self.slots[..chunks.len()].iter().zip(&mut self.outputs) {
            grads.merge(slot);
            total += output.loss;
            for program in output.recorded.drain(..) {
                let key = fresh.next().expect("one new key per recorded program");
                cache.insert(key, program);
            }
        }
        total
    }
}

/// Processes a contiguous run of fixed-size chunks, each chunk's gradients
/// accumulated (in sample order) into the chunk's own slot: a sample with a
/// program replays it with the worker's own [`ReplayBuffers`], any other
/// sample builds a tape in the worker's arena, and a [`Plan::Record`]
/// sample also freezes its tape into the chunk's output.
#[allow(clippy::too_many_arguments)] // the chunks and their outputs, the worker's two buffers, and the loss
fn run_shard_compiled<S>(
    params: &Params,
    chunks: &[CompiledChunk<'_, S>],
    slots: &mut [Grads],
    outputs: &mut [ChunkOutput],
    arena: &mut TapeArena,
    buffers: &mut ReplayBuffers,
    loss_of: &(impl Fn(&mut Graph<'_>, &S) -> Var + Sync),
    seed: f32,
) {
    for (((samples, plans), slot), output) in chunks.iter().zip(slots).zip(outputs) {
        for (sample, plan) in samples.iter().zip(plans.iter()) {
            output.loss += match plan {
                Plan::Replay(program) => {
                    program.replay(params, buffers, slot, seed, |graph| loss_of(graph, sample))
                }
                Plan::Tape | Plan::Record => arena.scoped(params, |graph| {
                    let loss = loss_of(graph, sample);
                    let value = f64::from(graph.value(loss)[0]);
                    graph.backward_scaled(loss, slot, seed);
                    if matches!(plan, Plan::Record) {
                        output.recorded.push(CompiledProgram::freeze(graph, loss));
                    }
                    value
                }),
            };
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
    fn compiled_engine_matches_taped_engine_bit_for_bit() {
        let params = model_params();
        let data = samples(33);
        let (taped_loss, taped) = grads_for(1, 33);
        // All samples here share one graph structure, so a constant key
        // compiles every sample; mix in a None fallback for odd samples to
        // cover the in-chunk taped fallback path too.
        type Keying = fn(&Vec<f32>) -> Option<ProgramKey>;
        let keyings: [Keying; 2] = [
            |_| Some(vec![0]),
            |sample| {
                if (sample[0].abs() as usize).is_multiple_of(2) {
                    Some(vec![0])
                } else {
                    None
                }
            },
        ];
        for threads in [1, 2, 4] {
            for key_of in keyings {
                let mut engine = Batch::new(threads);
                let mut cache = ProgramCache::new();
                let mut grads = Grads::new(&params);
                let loss = engine.accumulate_compiled(
                    &params,
                    &data,
                    &mut cache,
                    key_of,
                    sample_loss,
                    1.0 / 33.0,
                    &mut grads,
                );
                assert_eq!(
                    taped_loss.to_bits(),
                    loss.to_bits(),
                    "compiled loss must match the tape with {threads} threads"
                );
                assert_eq!(
                    taped, grads,
                    "compiled gradients must match the tape with {threads} threads"
                );
            }
        }
    }

    #[test]
    fn compiled_engine_reuses_cache_across_batches() {
        let params = model_params();
        let data = samples(40);
        let mut engine = Batch::new(2);
        let mut cache = ProgramCache::new();
        let mut reference = Grads::new(&params);
        engine.accumulate(&params, &data[..17], sample_loss, 0.5, &mut reference);
        for batch in [&data[..40], &data[..9], &data[..17]] {
            let mut grads = Grads::new(&params);
            engine.accumulate_compiled(
                &params,
                batch,
                &mut cache,
                |_| Some(vec![7]),
                sample_loss,
                0.5,
                &mut grads,
            );
            assert_eq!(cache.len(), 1, "one structure must record one program");
            if batch.len() == 17 {
                assert_eq!(reference, grads);
            }
        }
    }

    /// Sorts the test samples into a handful of classes, most of them
    /// holding several samples.
    fn class(sample: &[f32]) -> u32 {
        (sample[0].abs() * 10.0) as u32 % 7
    }

    #[allow(clippy::ptr_arg)] // the engine hands `key_of` a `&Vec<f32>`
    fn class_key(sample: &Vec<f32>) -> Option<ProgramKey> {
        Some(vec![class(sample)])
    }

    /// [`sample_loss`] followed by one extra op per class step, so each
    /// class key names a different structure: a program filed under the
    /// wrong key fails its next replay.
    #[allow(clippy::ptr_arg)]
    fn class_loss(graph: &mut Graph<'_>, sample: &Vec<f32>) -> Var {
        let mut loss = sample_loss(graph, sample);
        for _ in 0..class(sample) {
            loss = graph.add_scalar(loss, 0.25);
        }
        loss
    }

    #[test]
    fn worker_recorded_programs_keep_the_tapes_bits_and_record_each_key_once() {
        let params = model_params();
        let data = samples(33);
        let mut taped = Grads::new(&params);
        let taped_loss =
            Batch::new(1).accumulate(&params, &data, class_loss, 1.0 / 33.0, &mut taped);
        let distinct: std::collections::HashSet<ProgramKey> =
            data.iter().filter_map(class_key).collect();
        assert!(distinct.len() > 1 && distinct.len() < data.len());
        for threads in [1, 4] {
            let mut engine = Batch::new(threads);
            let mut cache = ProgramCache::new();
            // The first batch records every key; the identical second batch
            // replays them all and records nothing.
            for round in 0..2 {
                let mut grads = Grads::new(&params);
                let loss = engine.accumulate_compiled(
                    &params,
                    &data,
                    &mut cache,
                    class_key,
                    class_loss,
                    1.0 / 33.0,
                    &mut grads,
                );
                let context = format!("round {round}, {threads} threads");
                assert_eq!(loss.to_bits(), taped_loss.to_bits(), "{context}");
                assert_eq!(grads, taped, "{context}");
                assert_eq!(cache.recorded(), distinct.len(), "{context}");
                assert_eq!(cache.len(), distinct.len(), "{context}");
            }
        }
    }

    #[test]
    fn a_worker_frozen_program_equals_the_one_record_builds() {
        let params = model_params();
        let data = samples(33);
        let mut engine = Batch::new(4);
        let mut cache = ProgramCache::new();
        let mut grads = Grads::new(&params);
        engine.accumulate_compiled(
            &params, &data, &mut cache, class_key, class_loss, 0.5, &mut grads,
        );
        for sample in &data {
            let key = class_key(sample).unwrap();
            let frozen = cache.lookup(&key).expect("every key was recorded");
            let recorded = CompiledProgram::record(&params, |graph| class_loss(graph, sample));
            assert_eq!(*frozen, *recorded, "key {key:?}");
        }
    }

    #[test]
    fn a_subset_store_gets_the_full_stores_bits_through_a_reused_engine() {
        let params = model_params();
        let data = samples(33);
        let (table, w) = (crate::ParamId(1), crate::ParamId(0));
        let (full_loss, full) = grads_for(1, 33);
        for threads in [1, 3] {
            // One engine alternates full and subset batches on both paths, so
            // the per-chunk stores switch sets in both directions.
            let mut engine = Batch::new(threads);
            let mut cache = ProgramCache::new();
            for round in 0..2 {
                let mut all = Grads::new(&params);
                engine.accumulate(&params, &data, sample_loss, 1.0 / 33.0, &mut all);
                assert_eq!(all, full, "round {round}, {threads} threads");
                for compiled in [false, true] {
                    let mut only = Grads::only(&params, &[table]);
                    let loss = if compiled {
                        engine.accumulate_compiled(
                            &params,
                            &data,
                            &mut cache,
                            |_| Some(vec![1]),
                            sample_loss,
                            1.0 / 33.0,
                            &mut only,
                        )
                    } else {
                        engine.accumulate(&params, &data, sample_loss, 1.0 / 33.0, &mut only)
                    };
                    assert_eq!(loss.to_bits(), full_loss.to_bits());
                    let bits = |g: &Grads| -> Vec<u32> {
                        g.get(table)
                            .unwrap()
                            .data()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect()
                    };
                    assert_eq!(bits(&only), bits(&full), "compiled: {compiled}");
                    assert!(only.get(w).is_none(), "compiled: {compiled}");
                }
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
