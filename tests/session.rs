//! Integration tests for the staged session API: checkpoint/resume
//! determinism, observer coverage, and typed error handling.

use std::cell::RefCell;
use std::rc::Rc;

use difftune_repro::core::{
    DiffTuneBuilder, DiffTuneConfig, DiffTuneError, ParamSpec, ProgressEvent, RunCheckpoint, Stage,
    SurrogateKind,
};
use difftune_repro::sim::{McaSimulator, SimParams, Simulator};
use difftune_repro::surrogate::{train::TrainConfig, FeatureMlpConfig, IthemalConfig};

use difftune_repro::bhive::{CorpusConfig, Dataset};
use difftune_repro::cpu::{default_params, Microarch};
use difftune_repro::isa::BasicBlock;

fn train_set(simulator: &McaSimulator, truth: &SimParams) -> Vec<(BasicBlock, f64)> {
    [
        "addq %rax, %rbx",
        "addq %rax, %rbx\naddq %rbx, %rcx",
        "imulq %rbx, %rcx\naddq %rcx, %rax",
        "movq (%rdi), %rax\naddq %rax, %rbx",
        "pushq %rbx\ntestl %r8d, %r8d",
        "xorl %eax, %eax\naddl %eax, %ebx",
        "mulsd %xmm0, %xmm1\naddsd %xmm1, %xmm2",
        "subq %rdx, %rsi\nleaq 8(%rsi), %rdi",
        "shrq $3, %rax\norq %rax, %rbx",
        "movq %rax, 8(%rsp)\nmovq 8(%rsp), %rbx",
    ]
    .iter()
    .map(|text| {
        let block: BasicBlock = text.parse().unwrap();
        (block.clone(), simulator.predict(truth, &block))
    })
    .collect()
}

/// A deterministic single-threaded configuration (multi-threaded gradient
/// reduction is order-sensitive in floating point, which would defeat the
/// bit-identical resume check).
fn config(seed: u64) -> DiffTuneConfig {
    DiffTuneConfig {
        surrogate: SurrogateKind::Mlp(FeatureMlpConfig {
            hidden_dim: 16,
            ..FeatureMlpConfig::default()
        }),
        simulated_multiplier: 20.0,
        max_simulated: 200,
        surrogate_train: TrainConfig {
            epochs: 4,
            batch_size: 32,
            threads: 1,
            ..TrainConfig::default()
        },
        table_learning_rate: 0.05,
        table_epochs: 3,
        table_batch_size: 10,
        clamp_to_sampling: true,
        seed,
        threads: 1,
    }
}

#[test]
fn resuming_from_a_json_checkpoint_reproduces_the_run_bit_for_bit() {
    let simulator = McaSimulator::new(16);
    let mut truth = SimParams::uniform_default();
    for entry in &mut truth.per_inst {
        entry.write_latency = 4;
    }
    let train = train_set(&simulator, &truth);
    let defaults = SimParams::uniform_default();
    let spec = ParamSpec::llvm_mca();
    let builder = DiffTuneBuilder::new(config(11));

    // The uninterrupted run.
    let uninterrupted = builder
        .build(&simulator, &spec, &defaults, &train)
        .unwrap()
        .run_to_completion()
        .unwrap();

    // The interrupted run: stop after surrogate training, checkpoint through
    // JSON (simulating a kill + restart), and resume.
    let mut session = builder.build(&simulator, &spec, &defaults, &train).unwrap();
    session.generate_dataset().unwrap();
    session.fit_surrogate().unwrap();
    let json = session.checkpoint().to_json().unwrap();
    drop(session);

    let checkpoint = RunCheckpoint::from_json(&json).unwrap();
    assert_eq!(checkpoint.stage, Stage::OptimizeTable);
    let resumed_session = builder
        .resume(&simulator, &spec, &defaults, &train, &checkpoint)
        .unwrap();
    assert_eq!(resumed_session.stage(), Stage::OptimizeTable);
    let resumed = resumed_session.run_to_completion().unwrap();

    assert_eq!(
        resumed.learned, uninterrupted.learned,
        "the resumed run must learn a bit-identical parameter table"
    );
    assert_eq!(resumed.initial, uninterrupted.initial);
    assert_eq!(resumed.table_losses, uninterrupted.table_losses);
    assert_eq!(
        resumed.surrogate_report.epoch_losses,
        uninterrupted.surrogate_report.epoch_losses
    );
}

#[test]
fn a_finished_checkpoint_resumes_straight_to_the_result() {
    let simulator = McaSimulator::new(16);
    let truth = SimParams::uniform_default();
    let train = train_set(&simulator, &truth);
    let defaults = SimParams::uniform_default();
    let spec = ParamSpec::llvm_mca();
    let builder = DiffTuneBuilder::new(config(5));

    let mut session = builder.build(&simulator, &spec, &defaults, &train).unwrap();
    session.generate_dataset().unwrap();
    session.fit_surrogate().unwrap();
    session.optimize_table().unwrap();
    let checkpoint = session.checkpoint();
    let direct = session.finish().unwrap();

    let json = checkpoint.to_json().unwrap();
    let resumed = builder
        .resume(
            &simulator,
            &spec,
            &defaults,
            &train,
            &RunCheckpoint::from_json(&json).unwrap(),
        )
        .unwrap()
        .finish()
        .unwrap();
    assert_eq!(resumed.learned, direct.learned);
    assert_eq!(resumed.table_losses, direct.table_losses);
}

#[test]
fn observers_see_every_stage_and_losses_from_every_training_stage() {
    let simulator = McaSimulator::new(16);
    let truth = SimParams::uniform_default();
    let train = train_set(&simulator, &truth);
    let defaults = SimParams::uniform_default();

    let events: Rc<RefCell<Vec<ProgressEvent>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&events);
    let mut session = DiffTuneBuilder::new(config(2))
        .build(&simulator, &ParamSpec::llvm_mca(), &defaults, &train)
        .unwrap();
    session.add_observer(Box::new(move |event: &ProgressEvent| {
        sink.borrow_mut().push(event.clone());
    }));
    session.run_to_completion().unwrap();

    let events = events.borrow();
    for stage in [
        Stage::GenerateDataset,
        Stage::FitSurrogate,
        Stage::OptimizeTable,
    ] {
        assert!(
            events.contains(&ProgressEvent::StageStarted { stage }),
            "missing StageStarted for {stage:?}"
        );
        assert!(
            events.contains(&ProgressEvent::StageFinished { stage }),
            "missing StageFinished for {stage:?}"
        );
    }
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ProgressEvent::DatasetProgress { generated, total } if generated == total)),
        "dataset generation must report completion"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ProgressEvent::SurrogateEpoch { mean_loss, .. } if mean_loss.is_finite())),
        "surrogate training must report at least one loss"
    );
    assert!(
        events.iter().any(
            |e| matches!(e, ProgressEvent::TableBatch { mean_loss, .. } if mean_loss.is_finite())
        ),
        "table training must report at least one per-batch loss"
    );
    assert!(
        events.iter().any(
            |e| matches!(e, ProgressEvent::TableEpoch { mean_loss, .. } if mean_loss.is_finite())
        ),
        "table training must report at least one per-epoch loss"
    );

    // Events arrive in pipeline order: the last event closes the last stage.
    assert_eq!(
        events.last(),
        Some(&ProgressEvent::StageFinished {
            stage: Stage::OptimizeTable
        })
    );
}

#[test]
fn malformed_input_comes_back_as_typed_errors_not_panics() {
    let simulator = McaSimulator::new(16);
    let defaults = SimParams::uniform_default();
    let spec = ParamSpec::llvm_mca();
    let builder = DiffTuneBuilder::new(config(0));

    // Empty training set.
    assert_eq!(
        builder
            .build(&simulator, &spec, &defaults, &[])
            .err()
            .unwrap(),
        DiffTuneError::EmptyTrainSet
    );

    // A training set of only empty blocks is just as unusable.
    let empty_only = vec![(BasicBlock::new(), 1.0), (BasicBlock::new(), 2.0)];
    assert_eq!(
        builder
            .build(&simulator, &spec, &defaults, &empty_only)
            .err()
            .unwrap(),
        DiffTuneError::EmptyTrainSet
    );

    // Bad configuration fields.
    let mut bad = config(0);
    bad.simulated_multiplier = f64::NAN;
    assert!(matches!(
        DiffTuneBuilder::new(bad).build(&simulator, &spec, &defaults, &[]),
        Err(DiffTuneError::InvalidConfig { .. })
    ));
    let mut bad = config(0);
    bad.surrogate_train.batch_size = 0;
    assert!(matches!(
        DiffTuneBuilder::new(bad).build(&simulator, &spec, &defaults, &[]),
        Err(DiffTuneError::Surrogate(_))
    ));

    // An empty sampling range.
    let mut bad_spec = spec;
    bad_spec.sampling.write_latency = (7, 2);
    let truth = SimParams::uniform_default();
    let train = train_set(&simulator, &truth);
    assert!(matches!(
        builder.build(&simulator, &bad_spec, &defaults, &train),
        Err(DiffTuneError::InvalidConfig {
            field: "sampling.write_latency",
            ..
        })
    ));
}

#[test]
fn empty_blocks_are_skipped_and_reported() {
    let simulator = McaSimulator::new(16);
    let truth = SimParams::uniform_default();
    let mut train = train_set(&simulator, &truth);
    train.push((BasicBlock::new(), 1.0));
    train.push((BasicBlock::new(), 2.0));
    let session = DiffTuneBuilder::new(config(1))
        .build(
            &simulator,
            &ParamSpec::llvm_mca(),
            &SimParams::uniform_default(),
            &train,
        )
        .unwrap();
    assert_eq!(session.skipped_blocks(), 2);
    let result = session.run_to_completion().unwrap();
    assert_eq!(result.skipped_blocks, 2);
}

#[test]
fn stages_out_of_order_are_rejected() {
    let simulator = McaSimulator::new(16);
    let truth = SimParams::uniform_default();
    let train = train_set(&simulator, &truth);
    let mut session = DiffTuneBuilder::new(config(0))
        .build(
            &simulator,
            &ParamSpec::llvm_mca(),
            &SimParams::uniform_default(),
            &train,
        )
        .unwrap();
    assert_eq!(session.stage(), Stage::GenerateDataset);
    assert_eq!(
        session.fit_surrogate().err().unwrap(),
        DiffTuneError::StageOrder {
            current: Stage::GenerateDataset,
            requested: Stage::FitSurrogate,
        }
    );
    assert_eq!(
        session.optimize_table().err().unwrap(),
        DiffTuneError::StageOrder {
            current: Stage::GenerateDataset,
            requested: Stage::OptimizeTable,
        }
    );
    session.generate_dataset().unwrap();
    assert_eq!(
        session.generate_dataset().err().unwrap(),
        DiffTuneError::StageOrder {
            current: Stage::FitSurrogate,
            requested: Stage::GenerateDataset,
        }
    );
    // finish() before the table is optimized is also a stage error.
    assert!(matches!(
        session.finish(),
        Err(DiffTuneError::StageOrder {
            requested: Stage::Finished,
            ..
        })
    ));
}

#[test]
fn checkpoints_from_a_different_setup_are_rejected() {
    let simulator = McaSimulator::new(16);
    let truth = SimParams::uniform_default();
    let train = train_set(&simulator, &truth);
    let defaults = SimParams::uniform_default();
    let spec = ParamSpec::llvm_mca();

    let builder = DiffTuneBuilder::new(config(3));
    let mut session = builder.build(&simulator, &spec, &defaults, &train).unwrap();
    session.generate_dataset().unwrap();
    session.fit_surrogate().unwrap();
    let checkpoint = session.checkpoint();

    // Wrong seed.
    assert!(matches!(
        DiffTuneBuilder::new(config(4)).resume(&simulator, &spec, &defaults, &train, &checkpoint),
        Err(DiffTuneError::Checkpoint { .. })
    ));

    // Different training set (one timing perturbed).
    let mut other_train = train.clone();
    other_train[0].1 += 0.5;
    assert!(matches!(
        builder.resume(&simulator, &spec, &defaults, &other_train, &checkpoint),
        Err(DiffTuneError::Checkpoint { .. })
    ));

    // Different table-optimization hyperparameters.
    let mut other = config(3);
    other.table_learning_rate = 0.2;
    assert!(matches!(
        DiffTuneBuilder::new(other).resume(&simulator, &spec, &defaults, &train, &checkpoint),
        Err(DiffTuneError::Checkpoint { .. })
    ));

    // Wrong surrogate architecture.
    let mut other = config(3);
    other.surrogate = SurrogateKind::Mlp(FeatureMlpConfig {
        hidden_dim: 48,
        ..FeatureMlpConfig::default()
    });
    assert!(matches!(
        DiffTuneBuilder::new(other).resume(&simulator, &spec, &defaults, &train, &checkpoint),
        Err(DiffTuneError::Checkpoint { .. })
    ));

    // A checkpoint claiming a later stage than its contents support.
    let mut truncated = checkpoint.clone();
    truncated.stage = Stage::Finished;
    assert!(matches!(
        builder.resume(&simulator, &spec, &defaults, &train, &truncated),
        Err(DiffTuneError::Checkpoint { .. })
    ));

    // Garbage JSON.
    assert!(matches!(
        RunCheckpoint::from_json("{not json"),
        Err(DiffTuneError::Checkpoint { .. })
    ));

    // A checkpoint missing a field (written before `surrogate_config`
    // existed) is unreadable, not backfilled.
    let json = checkpoint.to_json().unwrap();
    assert!(RunCheckpoint::from_json(&json).is_ok());
    let older = json.replacen("\"surrogate_config\"", "\"retired_field\"", 1);
    assert_ne!(older, json);
    assert!(matches!(
        RunCheckpoint::from_json(&older),
        Err(DiffTuneError::Checkpoint { .. })
    ));

    // A diverged run (non-finite learned state) is rejected at save time —
    // JSON cannot represent NaN, so the snapshot would otherwise save fine
    // and fail to reload.
    let mut diverged = checkpoint.clone();
    diverged.table_losses = vec![f64::NAN];
    assert!(matches!(
        diverged.to_json(),
        Err(DiffTuneError::Checkpoint { .. })
    ));
}

#[test]
fn absurd_thread_counts_are_rejected_by_validation() {
    let mut bad = config(0);
    bad.threads = 1_000_000;
    assert!(matches!(
        bad.validate(),
        Err(DiffTuneError::InvalidConfig {
            field: "threads",
            ..
        })
    ));
    let mut bad = config(0);
    bad.surrogate_train.threads = 1_000_000;
    assert!(matches!(bad.validate(), Err(DiffTuneError::Surrogate(_))));
}

/// The learned table of a small LSTM-surrogate run, pinned: the LSTM's
/// optimize stage (frozen instruction summaries, block-level model per
/// sample) and fit stage (compiled replay) must keep producing these exact
/// bits, at every thread count.
#[test]
fn a_small_lstm_session_learns_the_pinned_table() {
    const PINNED: &str = "0x09b1c4f39caed27f";
    const PINNED_LOSS_BITS: [u64; 2] = [4604967633613225984, 4604864115720759979];
    const PINNED_THETA: u64 = 0x001d_8ba6_5c1e_5025;
    let uarch = Microarch::Haswell;
    let dataset = Dataset::build(
        uarch,
        &CorpusConfig {
            num_blocks: 60,
            seed: 5,
            ..CorpusConfig::default()
        },
    );
    let train: Vec<(BasicBlock, f64)> = dataset
        .train()
        .iter()
        .map(|r| (r.block.clone(), r.timing))
        .collect();
    let simulator = McaSimulator::default();
    let defaults = default_params(uarch);
    for threads in [1, 3] {
        let config = DiffTuneConfig {
            surrogate: SurrogateKind::Lstm(IthemalConfig {
                embed_dim: 8,
                hidden_dim: 12,
                instr_layers: 1,
                block_layers: 1,
                parameter_inputs: true,
                seed: 5,
            }),
            simulated_multiplier: 4.0,
            max_simulated: 160,
            surrogate_train: TrainConfig {
                epochs: 2,
                batch_size: 16,
                threads,
                ..TrainConfig::default()
            },
            table_learning_rate: 0.1,
            table_epochs: 2,
            table_batch_size: 8,
            clamp_to_sampling: true,
            seed: 5,
            threads,
        };
        let mut session = DiffTuneBuilder::new(config)
            .build(&simulator, &ParamSpec::llvm_mca(), &defaults, &train)
            .unwrap();
        while session.stage() != Stage::Finished {
            session.advance().unwrap();
        }
        // The raw θ, before rounding: a change that moves θ without moving
        // the rounded table still fails here.
        let theta = session.checkpoint().theta.expect("θ optimized");
        let theta_fingerprint = theta
            .tensor()
            .data()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
                (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
            });
        let result = session.finish().unwrap();
        let context = format!("{} training blocks, {threads} threads", train.len());
        assert_eq!(result.learned.fingerprint_hex(), PINNED, "{context}");
        assert_eq!(theta_fingerprint, PINNED_THETA, "{context}");
        // The learned table is rounded to integers, so the per-epoch table
        // losses pin the surrogate's predictions to the bit as well.
        let loss_bits: Vec<u64> = result.table_losses.iter().map(|l| l.to_bits()).collect();
        assert_eq!(loss_bits, PINNED_LOSS_BITS, "{context}");
    }
}
