//! Integration tests for the scenario-matrix runner: a 2-cell smoke matrix
//! end to end, byte-identical cell JSON across thread counts (the matrix
//! extension of the PR 3 determinism suite — CI runs this file under
//! `DIFFTUNE_THREADS=1` and `=4`), and kill/resume producing a bit-identical
//! `MATRIX_summary.json`.

use std::fs;
use std::path::Path;

use difftune_bench::matrix::{run_matrix, CellKey, MatrixOptions};
use difftune_bench::record::{MatrixRecord, MatrixSummary, MATRIX_SCHEMA, MATRIX_SUMMARY_FILE};
use difftune_bench::Scale;
use difftune_repro::core::{threads_from_env, Stage};
use difftune_repro::sim::{ParamBounds, SimParams};
use difftune_repro::surrogate::{surrogate_file_name, SurrogateArtifact, SurrogateForward};

mod common;

use common::fresh_dir;

/// The 2-cell smoke plan: one llvm-mca cell and one llvm_sim cell.
fn smoke_cells() -> Vec<CellKey> {
    vec![
        CellKey::parse("mca:haswell:llvm_mca").expect("valid cell"),
        CellKey::parse("uop:haswell:llvm_sim").expect("valid cell"),
    ]
}

fn options(dir: &Path, threads: usize) -> MatrixOptions {
    MatrixOptions {
        scale: Scale::Smoke,
        threads,
        out_dir: dir.to_path_buf(),
        cells: Some(smoke_cells()),
        max_cells: None,
        stop_after: None,
        measure_throughput: false,
    }
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn two_cell_smoke_matrix_runs_end_to_end_and_its_artifacts_parse_back() {
    let dir = fresh_dir("e2e");
    let outcome = run_matrix(&options(&dir, 1)).expect("the sweep completes");

    // The summary on disk parses back to the in-memory roll-up.
    let summary = MatrixSummary::from_json(&read(&dir.join(MATRIX_SUMMARY_FILE)))
        .expect("summary JSON parses back to MatrixSummary");
    assert_eq!(summary, outcome.summary);
    assert_eq!(summary.schema, MATRIX_SCHEMA);
    assert_eq!(summary.cells_total, 2);
    assert_eq!(summary.cells_completed, 2);
    assert_eq!(summary.cells_skipped, 0);

    for key in smoke_cells() {
        let record = MatrixRecord::from_json(&read(&dir.join(key.file_name())))
            .expect("cell JSON parses back to MatrixRecord");
        assert_eq!(record.schema, MATRIX_SCHEMA);
        assert_eq!(record.cell, key.id());
        assert_eq!(record.seed, key.seed(), "seed comes from the key hash");
        assert!(record.train_blocks > 0 && record.heldout_blocks > 0);
        assert!(record.simulated_samples > 0);
        assert!(record.num_learned_parameters > 0);

        // Learned-table quality vs. the expert defaults, seed-pinned. At
        // smoke scale (tiny corpus, fast MLP surrogate) the learned table
        // does not yet match the defaults the way the paper-scale runs do,
        // so the threshold is deliberately generous: training must land the
        // table in the defaults' error band, not at the random-table band
        // (several hundred percent MAPE), and must preserve ranking.
        assert!(
            record.learned_mape.is_finite() && record.learned_mape > 0.0,
            "{}: learned MAPE must be a real error, got {}",
            record.cell,
            record.learned_mape
        );
        assert!(
            record.learned_mape <= record.default_mape * 2.5,
            "{}: learned MAPE {} too far above the default table's {}",
            record.cell,
            record.learned_mape,
            record.default_mape
        );
        assert!(
            record.learned_tau > 0.3,
            "{}: learned tau {} lost the ranking",
            record.cell,
            record.learned_tau
        );

        // The per-category breakdown partitions the held-out blocks.
        assert!(!record.by_category.is_empty());
        let category_blocks: usize = record.by_category.iter().map(|c| c.blocks).sum();
        assert_eq!(category_blocks, record.heldout_blocks);

        // The cell record is servable: its learned table reconstructs to the
        // recorded fingerprint.
        assert!(!record.learned_table.is_empty());
        let table = SimParams::from_flat(&record.learned_table, &ParamBounds::default());
        assert_eq!(table.fingerprint_hex(), record.table_fingerprint);

        // Schema /3: the surrogate column is populated, throughput is not
        // (blocks/s only exists under --measure-throughput, so default runs
        // stay wall-clock-free and bit-reproducible).
        let surrogate_mape = record.surrogate_mape.expect("surrogate MAPE recorded");
        assert!(
            surrogate_mape.is_finite() && surrogate_mape > 0.0,
            "{}: surrogate MAPE must be a real error, got {surrogate_mape}",
            record.cell
        );
        assert!(record.surrogate_tau.is_some());
        assert!(record.surrogate_vs_sim_mape.is_some());
        assert!(record.surrogate_vs_sim_tau.is_some());
        assert!(record.surrogate_blocks_per_second.is_none());
        assert!(record.simulator_blocks_per_second.is_none());

        // The exported surrogate artifact sits next to the cell record, loads
        // back through the strict verifier, and matches the recorded
        // fingerprint and learned table.
        let artifact =
            SurrogateArtifact::from_json(&read(&dir.join(surrogate_file_name(&key.id()))))
                .expect("surrogate artifact parses and verifies");
        assert_eq!(
            Some(&artifact.fingerprint),
            record.surrogate_fingerprint.as_ref()
        );
        assert_eq!(artifact.table().fingerprint_hex(), record.table_fingerprint);
        SurrogateForward::from_artifact(&artifact).expect("artifact is servable");

        // The record also appears in the summary — minus the learned table,
        // which the roll-up omits rather than duplicating every per-cell
        // file's.
        let summary_row = MatrixRecord {
            learned_table: Vec::new(),
            ..record.clone()
        };
        assert!(summary.records.contains(&summary_row));
    }

    fs::remove_dir_all(&dir).ok();
}

/// The worker widths this file compares, chosen exactly like
/// `tests/determinism.rs`: `DIFFTUNE_THREADS=1` compares against 2-wide
/// sweeps, `=N` against `N`-wide, unset against 2 and 4.
fn parallel_widths() -> Vec<usize> {
    match threads_from_env() {
        Ok(0) => vec![2, 4],
        Ok(1) => vec![2],
        Ok(n) => vec![n],
        Err(error) => panic!("invalid DIFFTUNE_THREADS: {error}"),
    }
}

#[test]
fn matrix_artifacts_are_byte_identical_across_thread_counts() {
    let serial_dir = fresh_dir("serial");
    run_matrix(&options(&serial_dir, 1)).expect("serial sweep completes");

    for width in parallel_widths() {
        let parallel_dir = fresh_dir(&format!("parallel{width}"));
        run_matrix(&options(&parallel_dir, width)).expect("parallel sweep completes");

        for file in smoke_cells()
            .iter()
            .flat_map(|key| [key.file_name(), surrogate_file_name(&key.id())])
            .chain([MATRIX_SUMMARY_FILE.to_string()])
        {
            let serial = read(&serial_dir.join(&file));
            let parallel = read(&parallel_dir.join(&file));
            assert_eq!(
                serial, parallel,
                "{file} diverged between 1 and {width} concurrent cells"
            );
        }
        fs::remove_dir_all(&parallel_dir).ok();
    }
    fs::remove_dir_all(&serial_dir).ok();
}

#[test]
fn a_killed_sweep_resumes_to_a_bit_identical_summary() {
    // The uninterrupted reference run.
    let reference_dir = fresh_dir("reference");
    run_matrix(&options(&reference_dir, 1)).expect("reference sweep completes");
    let reference_summary = read(&reference_dir.join(MATRIX_SUMMARY_FILE));

    // The "killed" run: cell 1 of 2 completes, then the sweep dies — and to
    // make it harder, cell 2 dies *mid-pipeline*, after its surrogate-fit
    // stage wrote a session checkpoint.
    let resumed_dir = fresh_dir("resumed");
    let cells = smoke_cells();
    let first_only = MatrixOptions {
        cells: Some(vec![cells[0]]),
        ..options(&resumed_dir, 1)
    };
    run_matrix(&first_only).expect("first cell completes");
    let second_partial = MatrixOptions {
        cells: Some(vec![cells[1]]),
        stop_after: Some(Stage::FitSurrogate),
        ..options(&resumed_dir, 1)
    };
    let partial = run_matrix(&second_partial).expect("partial cell checkpoints");
    assert_eq!(partial.interrupted, 1, "cell 2 must stop at its checkpoint");
    assert!(
        resumed_dir.join(cells[1].checkpoint_file_name()).exists(),
        "the mid-run checkpoint must be on disk"
    );

    // Resume the full sweep: cell 1 is reused from its record, cell 2 resumes
    // from its checkpoint (only the table-optimization stage runs).
    let outcome = run_matrix(&options(&resumed_dir, 1)).expect("resumed sweep completes");
    assert_eq!(outcome.reused, 1, "the completed cell must not re-run");
    assert_eq!(outcome.summary.cells_completed, 2);
    assert!(
        !resumed_dir.join(cells[1].checkpoint_file_name()).exists(),
        "a completed cell removes its checkpoint"
    );

    assert_eq!(
        read(&resumed_dir.join(MATRIX_SUMMARY_FILE)),
        reference_summary,
        "the resumed sweep's summary must be bit-identical to an uninterrupted run's"
    );

    fs::remove_dir_all(&reference_dir).ok();
    fs::remove_dir_all(&resumed_dir).ok();
}
