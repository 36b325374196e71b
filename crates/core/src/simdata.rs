//! Simulated dataset generation (step 2 of Figure 1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use difftune_isa::BasicBlock;
use difftune_sim::{SimParams, Simulator};
use difftune_surrogate::train::TrainSample;
use difftune_surrogate::{block_param_features, global_features, Vocab};

use crate::error::DiffTuneError;
use crate::sampling::sample_table;
use crate::spec::ParamSpec;

/// Size of the fixed generation ranges. The sample space is partitioned into
/// ranges of this many samples, each with its own rng stream seeded
/// `seed + range.start`, *regardless of the worker count* — so the generated
/// dataset is bit-identical for every `threads` value (and every machine),
/// and workers merely pick up ranges. A run of up to one range reduces to a
/// single stream seeded `seed`.
pub const GENERATION_RANGE: usize = 512;

/// Generates the simulated dataset `D̂ = {(θ, x, f(θ, x))}` used to train the
/// surrogate (Equation 2).
///
/// For each of `size` samples, a block is drawn uniformly from `blocks` (so a
/// multiple of the training-set size corresponds to the paper's "10× the
/// training set" construction), a parameter table is sampled from the spec's
/// distributions, the simulator is run, and the triple is encoded as a
/// [`TrainSample`]. Generation is parallelized across threads by handing out
/// fixed [`GENERATION_RANGE`]-sized ranges (each seeded `seed + range.start`),
/// so the dataset does not depend on the thread count. Because every sample
/// draws its own parameter table (the paper's i.i.d. `(θ, x)` construction),
/// there is no shared-table batch to hand to [`Simulator::predict_batch`];
/// parallelism comes from partitioning the sample range instead.
///
/// # Errors
///
/// [`DiffTuneError::EmptyTrainSet`] when `blocks` is empty.
pub fn generate_simulated_dataset(
    simulator: &dyn Simulator,
    spec: &ParamSpec,
    defaults: &SimParams,
    blocks: &[BasicBlock],
    size: usize,
    seed: u64,
    threads: usize,
) -> Result<Vec<TrainSample>, DiffTuneError> {
    generate_simulated_dataset_observed(
        simulator,
        spec,
        defaults,
        blocks,
        size,
        seed,
        threads,
        &mut |_, _| {},
    )
}

/// [`generate_simulated_dataset`] with a progress callback: `progress` is
/// called with `(generated_so_far, total)` as chunks of samples land, so long
/// generations can stream telemetry (the session driver forwards these as
/// [`ProgressEvent::DatasetProgress`](crate::ProgressEvent::DatasetProgress)).
///
/// The generated dataset is identical to [`generate_simulated_dataset`]'s for
/// the same `seed`, whatever the thread count — neither observation nor
/// parallelism changes the sample stream.
///
/// # Errors
///
/// [`DiffTuneError::EmptyTrainSet`] when `blocks` is empty.
#[allow(clippy::too_many_arguments)] // mirrors generate_simulated_dataset plus the callback
pub fn generate_simulated_dataset_observed(
    simulator: &dyn Simulator,
    spec: &ParamSpec,
    defaults: &SimParams,
    blocks: &[BasicBlock],
    size: usize,
    seed: u64,
    threads: usize,
    progress: &mut dyn FnMut(usize, usize),
) -> Result<Vec<TrainSample>, DiffTuneError> {
    if blocks.is_empty() {
        return Err(DiffTuneError::EmptyTrainSet);
    }
    let vocab = Vocab::new();
    let tokenized: Vec<_> = blocks.iter().map(|b| vocab.tokenize_block(b)).collect();

    let threads = difftune_tensor::resolve_threads(threads);

    // Generates one fixed range's samples from its own rng stream. Range
    // boundaries and seeds depend only on `size`, never on the worker count,
    // so the dataset is bit-identical for every `threads` value.
    let generate_range = |range: std::ops::Range<usize>| -> Vec<TrainSample> {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(range.start as u64));
        let mut out = Vec::with_capacity(range.len());
        for _ in range {
            // Draw a block (uniformly at random) and a parameter table.
            let block_index = rng.gen_range(0..blocks.len());
            let table = sample_table(&mut rng, spec, defaults);
            let target = simulator.predict(&table, &blocks[block_index]);
            let block = tokenized[block_index].clone();
            let per_inst_features = Some(block_param_features(&table, &block));
            let global = Some(global_features(&table));
            out.push(TrainSample {
                block,
                per_inst_features,
                global_features: global,
                target,
            });
        }
        out
    };

    let ranges: Vec<std::ops::Range<usize>> = (0..size)
        .step_by(GENERATION_RANGE)
        .map(|start| start..(start + GENERATION_RANGE).min(size))
        .collect();
    let workers = threads.min(ranges.len()).max(1);

    let samples = if workers <= 1 {
        // Serial path: the same ranges, processed in order on this thread.
        let mut out = Vec::with_capacity(size);
        for range in ranges {
            out.extend(generate_range(range));
            progress(out.len(), size);
        }
        out
    } else {
        // Parallel path: distribute contiguous runs of ranges across workers;
        // results are concatenated in range order, so the stream is the same
        // one the serial path produces.
        let per_worker = ranges.len().div_ceil(workers);
        let generate_range = &generate_range;
        std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .chunks(per_worker)
                .map(|worker_ranges| {
                    scope.spawn(move || -> Vec<TrainSample> {
                        let mut out = Vec::new();
                        for range in worker_ranges {
                            out.extend(generate_range(range.clone()));
                        }
                        out
                    })
                })
                .collect();
            let mut out = Vec::with_capacity(size);
            for handle in handles {
                out.extend(handle.join().expect("dataset worker panicked"));
                progress(out.len(), size);
            }
            out
        })
    };
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use difftune_sim::McaSimulator;

    fn blocks() -> Vec<BasicBlock> {
        [
            "addq %rax, %rbx",
            "imulq %rbx, %rcx\naddq %rcx, %rax",
            "movq (%rdi), %rax\naddq %rax, %rbx",
        ]
        .iter()
        .map(|t| t.parse().unwrap())
        .collect()
    }

    #[test]
    fn generates_the_requested_number_of_samples() {
        let sim = McaSimulator::new(16);
        let data = generate_simulated_dataset(
            &sim,
            &ParamSpec::llvm_mca(),
            &SimParams::uniform_default(),
            &blocks(),
            100,
            0,
            2,
        )
        .unwrap();
        assert_eq!(data.len(), 100);
        assert!(data.iter().all(|s| s.target >= 0.0 && s.target.is_finite()));
        assert!(data
            .iter()
            .all(|s| s.per_inst_features.as_ref().unwrap().len() == s.block.len()));
    }

    #[test]
    fn targets_come_from_the_simulator_under_the_sampled_table() {
        // With a spec that learns nothing, every sampled table equals the
        // defaults, so every target must equal the simulator's default
        // prediction.
        let sim = McaSimulator::new(16);
        let spec = ParamSpec {
            dispatch_width: false,
            reorder_buffer: false,
            num_micro_ops: false,
            write_latency: false,
            read_advance: false,
            port_map: false,
            ..ParamSpec::llvm_mca()
        };
        let defaults = SimParams::uniform_default();
        let blocks = blocks();
        let data = generate_simulated_dataset(&sim, &spec, &defaults, &blocks, 30, 1, 1).unwrap();
        for sample in &data {
            let matching = blocks.iter().any(|b| {
                (sim.predict(&defaults, b) - sample.target).abs() < 1e-12
                    && Vocab::new().tokenize_block(b) == sample.block
            });
            assert!(
                matching,
                "target should be the default-parameter prediction of its block"
            );
        }
    }

    #[test]
    fn generation_is_bit_identical_for_every_thread_count() {
        let sim = McaSimulator::new(16);
        let spec = ParamSpec::llvm_mca();
        let defaults = SimParams::uniform_default();
        let blocks = blocks();
        // Larger than one GENERATION_RANGE so several ranges exist.
        let size = GENERATION_RANGE * 2 + 77;
        let serial =
            generate_simulated_dataset(&sim, &spec, &defaults, &blocks, size, 9, 1).unwrap();
        for threads in [2, 3, 8] {
            let parallel =
                generate_simulated_dataset(&sim, &spec, &defaults, &blocks, size, 9, threads)
                    .unwrap();
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.block, b.block, "{threads} threads changed the stream");
                assert_eq!(
                    a.target.to_bits(),
                    b.target.to_bits(),
                    "{threads} threads changed a target"
                );
                assert_eq!(a.per_inst_features, b.per_inst_features);
                assert_eq!(a.global_features, b.global_features);
            }
        }
    }

    #[test]
    fn varied_tables_produce_varied_targets_for_the_same_block() {
        let sim = McaSimulator::new(16);
        let single: Vec<BasicBlock> = vec!["imulq %rbx, %rcx\naddq %rcx, %rax".parse().unwrap()];
        let data = generate_simulated_dataset(
            &sim,
            &ParamSpec::llvm_mca(),
            &SimParams::uniform_default(),
            &single,
            50,
            2,
            1,
        )
        .unwrap();
        let distinct: std::collections::HashSet<u64> =
            data.iter().map(|s| s.target.to_bits()).collect();
        assert!(
            distinct.len() > 5,
            "sampling parameter tables must vary the simulated timing"
        );
    }
}
