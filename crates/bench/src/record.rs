//! The shared artifact schemas behind `BENCH_*.json` and `MATRIX_*.json`.
//!
//! Every performance artifact this repository produces — the
//! `difftune-bench` stage runner and the vendored criterion shim's optional
//! JSON output — serializes to the same [`BenchRecord`] shape (schema
//! `difftune-bench/3`), so one set of tooling can consume the whole perf
//! trajectory. The scenario-matrix runner (`difftune-matrix`, see
//! [`crate::matrix`]) emits one [`MatrixRecord`] per tuned cell plus a
//! [`MatrixSummary`] roll-up, both under schema `difftune-matrix/3`.
//!
//! Matrix records deliberately contain **no wall-clock or machine-dependent
//! fields by default** (no timings, thread counts, or core counts): a cell's
//! JSON is a pure function of its `(simulator, uarch, spec)` key and scale,
//! so reruns — on any machine, at any `DIFFTUNE_THREADS` — produce
//! byte-identical files, which is what the determinism suite asserts. The
//! one exception is explicit opt-in: `difftune-matrix --measure-throughput`
//! populates the `Option`-typed blocks/s fields (absent otherwise), trading
//! byte-reproducibility of those two fields for a throughput column — the
//! determinism suite never passes the flag.

use difftune_sim::SimParams;
use serde::{Deserialize, Serialize};

/// The schema tag every benchmark record carries.
///
/// `difftune-bench/2` extended `/1` with `engine` (which execution engine
/// ran the stage) and `speedup_vs_taped` (the fit stage's speedup over the
/// tape). `difftune-bench/3` drops both again: training has one engine, the
/// tape. `/3` has exactly `/1`'s fields, so `/1` records load as they are,
/// and `/2` records load with the two extra fields ignored.
pub const BENCH_SCHEMA: &str = "difftune-bench/3";

/// The schema tag every matrix record and summary carries.
///
/// `difftune-matrix/2` extends `/1` with [`MatrixRecord::learned_table`] (the
/// learned table's flat encoding), making every cell record a self-contained
/// servable backend for `difftune-serve`. `/1` records lack the table and are
/// simply re-run by a resumed sweep (the sweep-level resume check matches on
/// the schema tag).
///
/// `difftune-matrix/3` extends `/2` with the surrogate column: held-out
/// scores of the trained surrogate against ground truth and against the
/// learned-table simulator ([`MatrixRecord::surrogate_mape`] and friends),
/// the exported `SURROGATE_*.json` artifact's content fingerprint, and —
/// only when the sweep opts in with `--measure-throughput` — predicted
/// blocks/s for the surrogate and the simulator.
pub const MATRIX_SCHEMA: &str = "difftune-matrix/3";

/// One benchmark measurement: a pipeline stage (`generate`, `fit`,
/// `optimize`, `simulate`) or a criterion benchmark (`criterion:<id>`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Schema tag ([`BENCH_SCHEMA`]).
    pub schema: String,
    /// Stage name: `generate` / `fit` / `optimize` / `simulate`, or
    /// `criterion:<benchmark id>` for criterion output.
    pub stage: String,
    /// The `DIFFTUNE_SCALE` the stage ran at (absent for criterion records).
    pub scale: Option<String>,
    /// Worker-thread count the stage ran with (`DIFFTUNE_THREADS`).
    pub threads: usize,
    /// Available cores on the machine that produced the record — the context
    /// needed to interpret `threads` and any speedup.
    pub cpu_cores: usize,
    /// The run seed.
    pub seed: u64,
    /// Stage wall time in seconds (for criterion records, the median time of
    /// one iteration).
    pub wall_time_seconds: f64,
    /// Number of samples the stage processed (dataset samples generated,
    /// training samples visited, blocks simulated; 0 for criterion records).
    pub samples: usize,
    /// Throughput: `samples / wall_time_seconds` (for criterion records,
    /// iterations per second).
    pub samples_per_second: f64,
    /// Median nanoseconds per iteration (criterion records only).
    pub median_ns_per_iter: Option<f64>,
    /// FNV-1a fingerprint of the learned table (`optimize` stage only) —
    /// two runs with equal fingerprints produced bit-identical tables.
    pub table_fingerprint: Option<String>,
    /// Wall-time ratio of a serial (`threads = 1`) rerun of the same stage
    /// to this run, when `--compare-serial` measured one.
    ///
    /// **Interpret against [`cpu_cores`](BenchRecord::cpu_cores):** the ratio
    /// only measures parallel scaling when the machine has at least `threads`
    /// real cores. On a 1-core container a "4-thread" run time-slices one
    /// core and this ratio legitimately reads *below* 1 (the committed smoke
    /// baselines were produced on such a machine) — that is scheduler
    /// overhead, not an engine regression.
    pub speedup_vs_serial: Option<f64>,
}

impl BenchRecord {
    /// Builds a pipeline-stage record; optional fields start empty.
    pub fn stage(
        stage: &str,
        scale: &str,
        threads: usize,
        seed: u64,
        wall_time_seconds: f64,
        samples: usize,
    ) -> Self {
        BenchRecord {
            schema: BENCH_SCHEMA.to_string(),
            stage: stage.to_string(),
            scale: Some(scale.to_string()),
            threads,
            cpu_cores: difftune_tensor::resolve_threads(0),
            seed,
            wall_time_seconds,
            samples,
            samples_per_second: if wall_time_seconds > 0.0 {
                samples as f64 / wall_time_seconds
            } else {
                0.0
            },
            median_ns_per_iter: None,
            table_fingerprint: None,
            speedup_vs_serial: None,
        }
    }

    /// Builds a serving-throughput record for the `difftune-loadtest` closed
    /// loop: stage `serve`, no scale (serving has no `DIFFTUNE_SCALE`; like
    /// criterion records the field stays empty), `samples` counting predicted
    /// blocks.
    pub fn serve(threads: usize, seed: u64, wall_time_seconds: f64, samples: usize) -> Self {
        BenchRecord {
            scale: None,
            ..BenchRecord::stage("serve", "", threads, seed, wall_time_seconds, samples)
        }
    }

    /// Builds a routed-serving-throughput record for `difftune-loadtest
    /// --via-router` runs: stage `route`, otherwise shaped like
    /// [`BenchRecord::serve`]. The CI artifact is written as
    /// `BENCH_router.json` by the loadtest (the stage stays `route`).
    pub fn route(threads: usize, seed: u64, wall_time_seconds: f64, samples: usize) -> Self {
        BenchRecord {
            scale: None,
            ..BenchRecord::stage("route", "", threads, seed, wall_time_seconds, samples)
        }
    }

    /// The conventional file name for this record (`BENCH_<stage>.json`,
    /// with non-alphanumeric stage characters mapped to `_`).
    pub fn file_name(&self) -> String {
        let sanitized: String = self
            .stage
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        format!("BENCH_{sanitized}.json")
    }

    /// Serializes the record to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("a BenchRecord always serializes")
    }

    /// Deserializes a record from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|error| format!("{error:?}"))
    }
}

/// One scenario-matrix cell's scores: a `(simulator, microarchitecture,
/// parameter spec)` combination tuned through the session pipeline and scored
/// on the held-out corpus (schema [`MATRIX_SCHEMA`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixRecord {
    /// Schema tag ([`MATRIX_SCHEMA`]).
    pub schema: String,
    /// The cell key, `<simulator>:<uarch>:<spec>` (e.g.
    /// `mca:haswell:llvm_mca`).
    pub cell: String,
    /// Simulator short name (`mca` or `uop`).
    pub simulator: String,
    /// Microarchitecture short name (`ivybridge`, `haswell`, `skylake`,
    /// `zen2`).
    pub uarch: String,
    /// Parameter-spec name (`llvm_mca`, `write_latency_only`, `llvm_sim`).
    pub spec: String,
    /// The `DIFFTUNE_SCALE` the cell ran at.
    pub scale: String,
    /// The cell's run seed — a stable FNV-1a hash of the cell key, never a
    /// function of enumeration order or scheduling.
    pub seed: u64,
    /// Non-empty training blocks the session optimized against.
    pub train_blocks: usize,
    /// Held-out blocks (validation + test splits) the tables were scored on.
    pub heldout_blocks: usize,
    /// Simulated samples used for surrogate training.
    pub simulated_samples: usize,
    /// Number of learned scalar parameters in the cell's spec.
    pub num_learned_parameters: usize,
    /// Held-out MAPE of the expert-provided default table.
    pub default_mape: f64,
    /// Held-out Kendall's tau of the default table.
    pub default_tau: f64,
    /// Held-out MAPE of the learned table.
    pub learned_mape: f64,
    /// Held-out Kendall's tau of the learned table.
    pub learned_tau: f64,
    /// Per-hardware-resource-category breakdown (Table V-style), in
    /// [`difftune_bhive::Category`] order.
    pub by_category: Vec<CategoryScore>,
    /// FNV-1a fingerprint of the learned table (see [`fingerprint_table`]):
    /// equal fingerprints mean bit-identical learned tables.
    pub table_fingerprint: String,
    /// The learned table's flat `f64` encoding
    /// ([`SimParams::to_flat`]), so the record is a self-contained servable
    /// backend: `difftune-serve` reconstructs the table with
    /// [`SimParams::from_flat`] and verifies it against
    /// [`MatrixRecord::table_fingerprint`]. Learned values are integral, so
    /// the round trip is exact (pinned by `fingerprints_are_stable...` in
    /// `difftune-sim`). Empty in [`MatrixSummary`] rows — the roll-up omits
    /// tables rather than duplicating every per-cell file's.
    pub learned_table: Vec<f64>,
    /// Held-out MAPE of the trained surrogate against ground truth —
    /// how good the fast path is as a predictor in its own right. Absent on
    /// `/2` records.
    pub surrogate_mape: Option<f64>,
    /// Held-out Kendall's tau of the surrogate against ground truth.
    pub surrogate_tau: Option<f64>,
    /// Held-out MAPE of the surrogate against the learned-table simulator —
    /// the surrogate's *fidelity* to what it mimics (Equation 2's residual
    /// on real blocks). Absent on `/2` records.
    pub surrogate_vs_sim_mape: Option<f64>,
    /// Held-out Kendall's tau of the surrogate against the learned-table
    /// simulator.
    pub surrogate_vs_sim_tau: Option<f64>,
    /// Content fingerprint of the exported `SURROGATE_*.json` artifact, so a
    /// record pins exactly which surrogate its scores describe. Absent on
    /// `/2` records.
    pub surrogate_fingerprint: Option<String>,
    /// Surrogate predicted blocks/s over the held-out corpus. Wall-clock, so
    /// it is **only** populated under `--measure-throughput` — byte-identity
    /// of default sweeps stays intact (see the module docs).
    pub surrogate_blocks_per_second: Option<f64>,
    /// Learned-table simulator predicted blocks/s over the held-out corpus
    /// (same `--measure-throughput` gate).
    pub simulator_blocks_per_second: Option<f64>,
}

impl MatrixRecord {
    /// The conventional file name for this cell
    /// (`MATRIX_<simulator>_<uarch>_<spec>.json`).
    pub fn file_name(&self) -> String {
        matrix_cell_file_name(&self.simulator, &self.uarch, &self.spec)
    }

    /// Serializes the record to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("a MatrixRecord always serializes")
    }

    /// Deserializes a record from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|error| format!("{error:?}"))
    }
}

/// The per-cell file name (`MATRIX_<simulator>_<uarch>_<spec>.json`, with
/// non-alphanumeric characters mapped to `_`). The spec is part of the name
/// because one `(simulator, uarch)` pair is tuned under several specs.
pub fn matrix_cell_file_name(simulator: &str, uarch: &str, spec: &str) -> String {
    let sanitize = |raw: &str| -> String {
        raw.chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect()
    };
    format!(
        "MATRIX_{}_{}_{}.json",
        sanitize(simulator),
        sanitize(uarch),
        sanitize(spec)
    )
}

/// One category row of a [`MatrixRecord`]: default vs. learned error and rank
/// correlation over the held-out blocks in one hardware-resource category.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CategoryScore {
    /// Category name as displayed in the paper (`Scalar`, `Vec`, ...).
    pub category: String,
    /// Number of held-out blocks in the category.
    pub blocks: usize,
    /// Default-table MAPE over the category.
    pub default_mape: f64,
    /// Default-table Kendall's tau over the category.
    pub default_tau: f64,
    /// Learned-table MAPE over the category.
    pub learned_mape: f64,
    /// Learned-table Kendall's tau over the category.
    pub learned_tau: f64,
}

/// A cell the matrix enumerated but did not run, with the reason.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SkippedCell {
    /// The cell key (`<simulator>:<uarch>:<spec>`).
    pub cell: String,
    /// Why the cell was skipped (e.g. the spec learns parameters the
    /// simulator never reads).
    pub reason: String,
}

/// The conventional file name of the matrix roll-up.
pub const MATRIX_SUMMARY_FILE: &str = "MATRIX_summary.json";

/// The roll-up across every enumerated cell of one sweep (schema
/// [`MATRIX_SCHEMA`]), written as `MATRIX_summary.json`.
///
/// Like [`MatrixRecord`], the summary holds no wall-clock or machine state:
/// an interrupted sweep that is later resumed writes a summary byte-identical
/// to an uninterrupted run's. Its rows carry an empty `learned_table` —
/// the tables live in the per-cell files, which `difftune-serve` loads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixSummary {
    /// Schema tag ([`MATRIX_SCHEMA`]).
    pub schema: String,
    /// The scale the sweep ran at.
    pub scale: String,
    /// Cells enumerated (completed + skipped + any not yet run).
    pub cells_total: usize,
    /// Cells with a completed [`MatrixRecord`].
    pub cells_completed: usize,
    /// Cells skipped as incompatible.
    pub cells_skipped: usize,
    /// The skipped cells with reasons, in enumeration order.
    pub skipped: Vec<SkippedCell>,
    /// Completed cell records, sorted by cell key.
    pub records: Vec<MatrixRecord>,
}

impl MatrixSummary {
    /// Serializes the summary to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("a MatrixSummary always serializes")
    }

    /// Deserializes a summary from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|error| format!("{error:?}"))
    }
}

/// Order-sensitive FNV-1a hash of a byte stream, stable across processes and
/// Rust versions (the digests it produces are persisted in artifacts). Shared
/// by [`fingerprint_table`] and the matrix's cell-seed derivation.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Order-sensitive FNV-1a fingerprint of a parameter table's flat encoding.
/// Two tables fingerprint equal exactly when their flat `f64` encodings are
/// bit-identical; the digest is stable across processes and Rust versions.
///
/// This is [`SimParams::fingerprint_hex`]; the alias is kept because the
/// digest convention predates the method and every artifact consumer imports
/// it from here.
pub fn fingerprint_table(params: &SimParams) -> String {
    params.fingerprint_hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_through_json() {
        let mut record = BenchRecord::stage("fit", "smoke", 4, 7, 1.5, 6000);
        record.table_fingerprint = Some("0xdeadbeef".to_string());
        record.speedup_vs_serial = Some(2.5);
        let json = record.to_json();
        assert!(json.contains("difftune-bench/3"));
        assert_eq!(BenchRecord::from_json(&json).unwrap(), record);
        assert_eq!(record.file_name(), "BENCH_fit.json");
        assert_eq!(record.samples_per_second, 4000.0);
    }

    #[test]
    fn criterion_stage_names_sanitize_into_file_names() {
        let record = BenchRecord::stage("criterion:mca/predict", "smoke", 1, 0, 0.0, 0);
        assert_eq!(record.file_name(), "BENCH_criterion_mca_predict.json");
        assert_eq!(record.samples_per_second, 0.0);
    }

    #[test]
    fn fingerprints_detect_any_table_change() {
        let base = SimParams::uniform_default();
        let mut changed = base.clone();
        changed.per_inst[3].write_latency += 1;
        assert_eq!(fingerprint_table(&base), fingerprint_table(&base));
        assert_ne!(fingerprint_table(&base), fingerprint_table(&changed));
    }

    fn sample_matrix_record() -> MatrixRecord {
        MatrixRecord {
            schema: MATRIX_SCHEMA.to_string(),
            cell: "mca:haswell:llvm_mca".to_string(),
            simulator: "mca".to_string(),
            uarch: "haswell".to_string(),
            spec: "llvm_mca".to_string(),
            scale: "smoke".to_string(),
            seed: 0x1234,
            train_blocks: 480,
            heldout_blocks: 120,
            simulated_samples: 1440,
            num_learned_parameters: 9000,
            default_mape: 0.25,
            default_tau: 0.8,
            learned_mape: 0.2,
            learned_tau: 0.82,
            by_category: vec![CategoryScore {
                category: "Scalar".to_string(),
                blocks: 40,
                default_mape: 0.3,
                default_tau: 0.7,
                learned_mape: 0.25,
                learned_tau: 0.75,
            }],
            table_fingerprint: "0xdeadbeef".to_string(),
            learned_table: vec![4.0, 128.0, 1.0, 2.0],
            surrogate_mape: Some(0.18),
            surrogate_tau: Some(0.84),
            surrogate_vs_sim_mape: Some(0.05),
            surrogate_vs_sim_tau: Some(0.95),
            surrogate_fingerprint: Some("0xfeedface".to_string()),
            surrogate_blocks_per_second: None,
            simulator_blocks_per_second: None,
        }
    }

    #[test]
    fn matrix_record_round_trips_through_json() {
        let record = sample_matrix_record();
        let json = record.to_json();
        assert_eq!(MatrixRecord::from_json(&json).unwrap(), record);
        assert_eq!(record.file_name(), "MATRIX_mca_haswell_llvm_mca.json");
        assert!(json.contains("difftune-matrix/3"));
        assert!(json.contains("learned_table"));
        assert!(json.contains("surrogate_mape"));
    }

    #[test]
    fn serve_records_carry_the_stage_and_no_scale() {
        let record = BenchRecord::serve(4, 7, 2.0, 128);
        assert_eq!(record.schema, BENCH_SCHEMA);
        assert_eq!(record.stage, "serve");
        assert_eq!(record.scale, None);
        assert_eq!(record.file_name(), "BENCH_serve.json");
        assert_eq!(record.samples_per_second, 64.0);
        let json = record.to_json();
        assert_eq!(BenchRecord::from_json(&json).unwrap(), record);
    }

    #[test]
    fn fingerprint_table_matches_the_sim_crate_digest() {
        // The helper predates SimParams::fingerprint_hex; pin the delegation
        // so artifacts produced before the move stay comparable.
        let params = SimParams::uniform_default();
        let expected = fnv1a(
            params
                .to_flat()
                .into_iter()
                .flat_map(|value| value.to_bits().to_le_bytes()),
        );
        assert_eq!(fingerprint_table(&params), format!("{expected:#018x}"));
        assert_eq!(params.stable_fingerprint(), expected);
    }

    #[test]
    fn matrix_summary_round_trips_through_json() {
        let summary = MatrixSummary {
            schema: MATRIX_SCHEMA.to_string(),
            scale: "smoke".to_string(),
            cells_total: 24,
            cells_completed: 19,
            cells_skipped: 4,
            skipped: vec![SkippedCell {
                cell: "uop:haswell:llvm_mca".to_string(),
                reason: "spec learns parameters llvm_sim never reads".to_string(),
            }],
            records: vec![sample_matrix_record()],
        };
        let json = summary.to_json();
        assert_eq!(MatrixSummary::from_json(&json).unwrap(), summary);
    }

    #[test]
    fn matrix_file_names_sanitize_their_components() {
        assert_eq!(
            matrix_cell_file_name("llvm-mca", "ivy bridge", "llvm_sim"),
            "MATRIX_llvm_mca_ivy_bridge_llvm_sim.json"
        );
    }

    #[test]
    fn the_criterion_shim_emits_this_schema() {
        // The vendored criterion shim hand-formats its JSON (it cannot depend
        // on this crate); this test pins the two to the same schema by
        // parsing a shim-produced record.
        let json = criterion::bench_record_json("mca/predict batch", 125.5);
        let record = BenchRecord::from_json(&json).expect("shim output parses as a BenchRecord");
        assert_eq!(record.schema, BENCH_SCHEMA);
        assert_eq!(record.stage, "criterion:mca/predict batch");
        assert_eq!(record.median_ns_per_iter, Some(125.5));
        assert!((record.samples_per_second - 1e9 / 125.5).abs() < 1e-3);
        assert!((record.wall_time_seconds - 125.5e-9).abs() < 1e-18);
        assert_eq!(record.scale, None);
        assert_eq!(record.samples, 0);
        assert_eq!(record.table_fingerprint, None);
        assert_eq!(record.speedup_vs_serial, None);
    }

    #[test]
    fn older_schema_records_still_load() {
        let v1 = r#"{"schema":"difftune-bench/1","stage":"fit","scale":"smoke","threads":4,"cpu_cores":1,"seed":0,"wall_time_seconds":0.05,"samples":4320,"samples_per_second":86400.0,"median_ns_per_iter":null,"table_fingerprint":null,"speedup_vs_serial":0.5}"#;
        let v2 = r#"{"schema":"difftune-bench/2","stage":"fit","scale":"smoke","threads":4,"cpu_cores":1,"seed":0,"wall_time_seconds":0.05,"samples":4320,"samples_per_second":86400.0,"median_ns_per_iter":null,"table_fingerprint":null,"speedup_vs_serial":0.5,"engine":"compiled","speedup_vs_taped":1.5}"#;
        for json in [v1, v2] {
            let record = BenchRecord::from_json(json).expect("an older record loads");
            assert_eq!(record.stage, "fit");
            assert_eq!(record.samples, 4320);
            assert_eq!(record.speedup_vs_serial, Some(0.5));
        }
    }
}
