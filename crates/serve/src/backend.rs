//! Servable backends: a [`Predictor`] bound to an identity.
//!
//! Five prediction sources are supported, mirroring the artifacts the rest
//! of the repository produces:
//!
//! * **default** — the expert-documentation tables
//!   ([`difftune_cpu::default_params`]), one per `(simulator, uarch)` pair;
//! * **checkpoint** — the learned θ inside a finished session
//!   [`RunCheckpoint`] (the `--checkpoint SIM:UARCH:SPEC=PATH` flag);
//! * **matrix** — `MATRIX_*.json` cell records from a `difftune-matrix`
//!   sweep (schema `difftune-matrix/2` onward carries the learned table's
//!   flat encoding), so every tuned scenario cell is directly servable;
//! * **surrogate** — `SURROGATE_*.json` artifacts: the trained surrogate
//!   itself answers with one forward pass instead of a simulator run
//!   (faster than the simulator only for the feature MLP);
//! * **policy** — the three-tier serve path
//!   ([`crate::policy::PolicyPredictor`]): derived automatically for every
//!   cell with a learned table, pairing it with the cell's surrogate (when
//!   one is loaded) under the registry's `--error-budget`, and the default
//!   answer for sourceless requests.
//!
//! All five hide behind the [`Predictor`] trait — a batch of blocks in,
//! timings out, plus the artifact fingerprint and the prediction kind — so
//! the shard job loop, the cache key, and `/backends` are generic over
//! prediction sources.
//!
//! Every loaded artifact is integrity-checked: the reconstructed table's
//! [`SimParams::stable_fingerprint`] (or the surrogate artifact's content
//! fingerprint) must match the fingerprint recorded in the artifact, so a
//! truncated or hand-edited file is rejected at load time instead of
//! silently serving wrong timings.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use difftune::{BackendId, RunCheckpoint};
use difftune_bench::matrix::{CellKey, SimulatorKind, SpecKind};
use difftune_bench::record::{fnv1a, MatrixRecord, MATRIX_SCHEMA};
use difftune_cpu::{default_params, Microarch};
use difftune_isa::BasicBlock;
use difftune_sim::{ParamBounds, SimParams, Simulator};
use difftune_surrogate::{SurrogateArtifact, SurrogateForward, SURROGATE_SCHEMA};

use crate::policy::policy_backend;

pub use difftune::Source;

/// A prediction source: a batch of basic blocks in, one timing per block
/// out, in order.
///
/// Both the table-driven simulators and the learned surrogate implement
/// this, so everything downstream of backend resolution — the shard job
/// loop, the prediction cache, `/backends` — is generic over how timings
/// are produced. Implementations must be deterministic: the same block
/// yields the same bits regardless of batch composition, cache state, or
/// call history (the serving tier's determinism contract leans on this).
pub trait Predictor: std::fmt::Debug + Send + Sync {
    /// Predicts a timing for every block, in order.
    fn predict_batch(&self, blocks: &[BasicBlock]) -> Vec<f64>;

    /// The artifact digest (`{:#018x}`) pinning exactly what answers: the
    /// table fingerprint for table backends, the surrogate artifact's
    /// content fingerprint for surrogate backends.
    fn fingerprint(&self) -> &str;

    /// The prediction family: `"table"`, `"surrogate"`, or `"policy"`.
    fn kind(&self) -> &'static str;

    /// The cache-key tier tag for `block`: [`crate::policy::TIER_PLAIN`] for
    /// ordinary predictors; the policy predictor returns the tier (2 =
    /// surrogate, 3 = simulator) its cell answers from, so cached
    /// policy answers stay attributable to the tier that produced them.
    fn tier_tag(&self, _block: &BasicBlock) -> u8 {
        0
    }
}

/// A simulator running a parameter table — the classic backend.
#[derive(Debug)]
struct TablePredictor {
    simulator: Box<dyn Simulator>,
    table: SimParams,
    fingerprint: String,
}

impl Predictor for TablePredictor {
    fn predict_batch(&self, blocks: &[BasicBlock]) -> Vec<f64> {
        self.simulator.predict_batch(&self.table, blocks)
    }

    fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    fn kind(&self) -> &'static str {
        "table"
    }
}

/// The learned surrogate answering directly: tokenize, encode the embedded
/// table as features, and run one forward pass per block on plain kernels
/// (encode its instructions, then the block body; see
/// [`difftune_surrogate::infer`]), bit-equal to a taped forward pass.
///
/// Concurrency: engines are pooled, not serialized. A batch checks an
/// engine out (or builds a fresh one when all are busy), predicts without
/// holding any lock, and checks it back in — so concurrent batches from the
/// policy layer and direct surrogate traffic run in parallel instead of
/// queueing on one mutex. Bit-determinism survives because an engine's only
/// state is its encoder memo, which decides whether an opcode's leading
/// state is computed or reused, never the bits: a fresh engine and a warm
/// engine produce the same predictions.
#[derive(Debug)]
struct SurrogatePredictor {
    /// The verified artifact — kept whole so the pool can mint additional
    /// engines on demand.
    artifact: SurrogateArtifact,
    /// Idle forward engines. The lock is held only to pop/push; predictions
    /// run outside it.
    engines: Mutex<Vec<SurrogateForward>>,
    fingerprint: String,
}

impl SurrogatePredictor {
    fn new(artifact: &SurrogateArtifact) -> Result<Self, String> {
        Ok(SurrogatePredictor {
            engines: Mutex::new(vec![SurrogateForward::from_artifact(artifact)?]),
            fingerprint: artifact.fingerprint.clone(),
            artifact: artifact.clone(),
        })
    }

    /// Pops an idle engine, or mints a new one when every engine is busy.
    /// Minting cannot fail: the artifact already built an engine in
    /// [`SurrogatePredictor::new`], so its weights are known-compatible.
    fn checkout(&self) -> SurrogateForward {
        let idle = self
            .engines
            .lock()
            .expect("surrogate engine pool lock poisoned")
            .pop();
        idle.unwrap_or_else(|| {
            SurrogateForward::from_artifact(&self.artifact)
                .expect("the artifact was verified and engine-built at load time")
        })
    }

    fn checkin(&self, engine: SurrogateForward) {
        self.engines
            .lock()
            .expect("surrogate engine pool lock poisoned")
            .push(engine);
    }

    /// Idle engines currently pooled (tests assert the pool grew under
    /// concurrency).
    #[cfg(test)]
    fn pooled_engines(&self) -> usize {
        self.engines
            .lock()
            .expect("surrogate engine pool lock poisoned")
            .len()
    }
}

impl Predictor for SurrogatePredictor {
    fn predict_batch(&self, blocks: &[BasicBlock]) -> Vec<f64> {
        let mut engine = self.checkout();
        let answers = engine.predict_batch(blocks);
        self.checkin(engine);
        answers
    }

    fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    fn kind(&self) -> &'static str {
        "surrogate"
    }
}

/// One servable backend: a [`Predictor`] plus the identity it serves under.
#[derive(Debug)]
pub struct Backend {
    /// The backend id (`<source>:<sim>:<uarch>` for defaults,
    /// `<source>:<sim>:<uarch>:<spec>` for learned backends) — echoed in
    /// every `/predict` response.
    pub id: String,
    /// The backend's source.
    pub source: Source,
    /// The simulator family (for surrogates: the family mimicked).
    pub simulator_kind: SimulatorKind,
    /// The microarchitecture the backend targets.
    pub uarch: Microarch,
    /// The parameter spec a learned backend was tuned under (`None` for
    /// defaults, which exist independently of any spec).
    pub spec: Option<SpecKind>,
    /// The prediction source answering requests.
    pub predictor: Box<dyn Predictor>,
    /// The parameter table (for surrogates: the learned table embedded in
    /// the artifact, which the surrogate encodes as its feature inputs).
    pub table: SimParams,
    /// The artifact digest in `{:#018x}` rendering
    /// ([`Predictor::fingerprint`]), echoed in responses so clients can pin
    /// the exact artifact they were answered from.
    pub table_fingerprint: String,
    /// Cache/shard fingerprint: the artifact digest folded with the
    /// simulator kind (and, for surrogates, the prediction kind). Two
    /// backends sharing a table but not a simulator (e.g. the mca and uop
    /// defaults of one uarch) predict differently, so the cache key must
    /// separate them — and a surrogate trained on a cell predicts
    /// differently from the cell's table, so those separate too.
    pub cache_fingerprint: u64,
}

impl Backend {
    fn new(
        source: Source,
        simulator_kind: SimulatorKind,
        uarch: Microarch,
        spec: Option<SpecKind>,
        table: SimParams,
    ) -> Self {
        let id = BackendId {
            source,
            simulator: simulator_kind,
            uarch,
            spec,
        }
        .to_string();
        let table_digest = table.stable_fingerprint();
        let cache_fingerprint = fnv1a(
            simulator_kind
                .key()
                .bytes()
                .chain([0xff])
                .chain(table_digest.to_le_bytes()),
        );
        let predictor = TablePredictor {
            simulator: simulator_kind.build(),
            table: table.clone(),
            fingerprint: table.fingerprint_hex(),
        };
        Backend {
            id,
            source,
            simulator_kind,
            uarch,
            spec,
            table_fingerprint: predictor.fingerprint.clone(),
            predictor: Box::new(predictor),
            table,
            cache_fingerprint,
        }
    }

    fn from_surrogate(artifact: &SurrogateArtifact) -> Result<Self, String> {
        let key = CellKey::parse(&artifact.cell)
            .map_err(|error| format!("cell id {:?}: {error}", artifact.cell))?;
        let predictor = SurrogatePredictor::new(artifact)?;
        let id = BackendId {
            source: Source::Surrogate,
            simulator: key.simulator,
            uarch: key.uarch,
            spec: Some(key.spec),
        }
        .to_string();
        let cache_fingerprint = fnv1a(
            "surrogate"
                .bytes()
                .chain([0xff])
                .chain(key.simulator.key().bytes())
                .chain([0xff])
                .chain(artifact.stable_fingerprint().to_le_bytes()),
        );
        Ok(Backend {
            id,
            source: Source::Surrogate,
            simulator_kind: key.simulator,
            uarch: key.uarch,
            spec: Some(key.spec),
            table: artifact.table(),
            table_fingerprint: predictor.fingerprint.clone(),
            predictor: Box::new(predictor),
            cache_fingerprint,
        })
    }

    /// The prediction family answering for this backend
    /// ([`Predictor::kind`]).
    pub fn kind(&self) -> &'static str {
        self.predictor.kind()
    }

    /// The shard this backend's requests are routed to, out of `shards`
    /// workers. Derived from [`Backend::cache_fingerprint`], so a backend
    /// always lands on the same shard and its cache entries never split.
    pub fn shard_index(&self, shards: usize) -> usize {
        (self.cache_fingerprint % shards.max(1) as u64) as usize
    }
}

/// A `/predict` request's backend selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendQuery {
    /// Requested simulator (default `mca`).
    pub simulator: SimulatorKind,
    /// Requested microarchitecture (default `haswell`).
    pub uarch: Microarch,
    /// Requested spec (default `llvm_mca`; ignored for the `default` source).
    pub spec: SpecKind,
    /// Requested source; `None` resolves learned-first
    /// (policy → matrix → checkpoint → default).
    pub source: Option<Source>,
}

impl Default for BackendQuery {
    fn default() -> Self {
        BackendQuery {
            simulator: SimulatorKind::Mca,
            uarch: Microarch::Haswell,
            spec: SpecKind::LlvmMca,
            source: None,
        }
    }
}

impl BackendQuery {
    /// The backend id this query names under one specific source (defaults
    /// exist independently of any spec, so their id drops the spec segment).
    pub fn id_for(&self, source: Source) -> String {
        BackendId {
            source,
            simulator: self.simulator,
            uarch: self.uarch,
            spec: (source != Source::Default).then_some(self.spec),
        }
        .to_string()
    }

    /// The candidate backend ids in resolution order: the exact id when a
    /// source is pinned, otherwise the three-tier policy first, then
    /// learned tables (`policy` → `matrix` → `checkpoint` → `default`; bare
    /// surrogates answer only when explicitly requested, because they
    /// approximate the simulator rather than run it — the policy wraps them
    /// under the error budget instead). This order is the resolution
    /// contract — the registry and the routing tier both resolve through
    /// it, so a request hashes to the same backend identity no matter which
    /// process resolves it.
    pub fn candidate_ids(&self) -> Vec<String> {
        match self.source {
            Some(source) => vec![self.id_for(source)],
            None => [
                Source::Policy,
                Source::Matrix,
                Source::Checkpoint,
                Source::Default,
            ]
            .iter()
            .map(|&source| self.id_for(source))
            .collect(),
        }
    }
}

/// What the server loaded at startup — and what `POST /reload` rescans. The
/// spec is source *locations*, not tables: a reload re-reads every artifact,
/// fingerprint-verifies it, and only then swaps the registry.
#[derive(Debug, Clone, Default)]
pub struct ReloadSpec {
    /// Load the expert default tables for every `(simulator, uarch)` pair.
    pub defaults: bool,
    /// `MATRIX_*.json` directories (`--tables`).
    pub table_dirs: Vec<PathBuf>,
    /// Session checkpoints with their cell bindings (`--checkpoint`).
    pub checkpoints: Vec<(CellKey, PathBuf)>,
    /// The `--error-budget` gating policy tier 2 (default `0.0`: the policy
    /// serves tier 3 until the operator vouches for a surrogate accuracy).
    pub error_budget: f64,
    /// Per-cell overrides (`--error-budget CELL=BUDGET`, repeatable), keyed
    /// by canonical cell id. Cells without an override fall back to
    /// `error_budget`.
    pub cell_budgets: Vec<(String, f64)>,
}

/// The set of loaded backends, keyed for per-request resolution.
///
/// Beyond the id index, the registry keeps the inputs the policy layer
/// derives from: the configured error budget, each cell's recorded
/// surrogate-vs-simulator MAPE (from its matrix record), and the structured
/// warnings lenient loads accumulated. Every mutation that changes a cell's
/// table or surrogate rebuilds the derived `policy:` backends, so they can
/// never go stale relative to their halves.
#[derive(Debug, Default)]
pub struct BackendRegistry {
    /// Backends by id (the resolution and listing index).
    backends: BTreeMap<String, Arc<Backend>>,
    /// The `--error-budget` policy tier 2 is gated by.
    error_budget: f64,
    /// Per-cell budget overrides; cells not listed use `error_budget`.
    cell_budgets: BTreeMap<String, f64>,
    /// Recorded `surrogate_vs_sim_mape` per canonical cell id.
    cell_mape: BTreeMap<String, f64>,
    /// Structured warnings from lenient loads (e.g. a corrupt surrogate
    /// artifact skipped so its cell serves table-only).
    warnings: Vec<String>,
}

impl BackendRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        BackendRegistry::default()
    }

    /// A registry pre-loaded with the expert default table for every
    /// `(simulator, uarch)` pair — the baseline backends that exist without
    /// any artifact on disk.
    pub fn with_defaults() -> Self {
        let mut registry = BackendRegistry::new();
        for simulator in SimulatorKind::ALL {
            for uarch in Microarch::ALL {
                registry.register(Backend::new(
                    Source::Default,
                    simulator,
                    uarch,
                    None,
                    default_params(uarch),
                ));
            }
        }
        registry
    }

    pub(crate) fn register(&mut self, backend: Backend) {
        self.backends.insert(backend.id.clone(), Arc::new(backend));
    }

    /// Sets the error budget gating policy tier 2 and rebuilds the derived
    /// `policy:` backends under it.
    pub fn set_error_budget(&mut self, budget: f64) {
        self.error_budget = budget;
        self.refresh_policies();
    }

    /// The configured error budget.
    pub fn error_budget(&self) -> f64 {
        self.error_budget
    }

    /// Sets a per-cell budget override and rebuilds the derived `policy:`
    /// backends. Cells without an override keep using the global budget.
    pub fn set_cell_budget(&mut self, cell: &str, budget: f64) {
        self.cell_budgets.insert(cell.to_string(), budget);
        self.refresh_policies();
    }

    /// The budget gating a cell's policy: its override, or the global one.
    pub fn budget_for(&self, cell: &str) -> f64 {
        self.cell_budgets
            .get(cell)
            .copied()
            .unwrap_or(self.error_budget)
    }

    /// Structured warnings accumulated by lenient loads — artifacts that
    /// were skipped (never fatally) with their cells degraded, surfaced so
    /// operators see *why* a policy runs tier 3.
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Drops and re-derives every `policy:` backend from the current cells:
    /// one policy per cell with a learned table (matrix preferred over
    /// checkpoint), paired with the cell's surrogate backend when one is
    /// loaded and gated by the cell's recorded MAPE against the budget.
    /// Cells without a learned table (default-only, surrogate-only) get no
    /// policy, so sourceless resolution falls through to the defaults there.
    fn refresh_policies(&mut self) {
        self.backends
            .retain(|_, backend| backend.source != Source::Policy);
        let mut tables: BTreeMap<String, Arc<Backend>> = BTreeMap::new();
        let mut surrogates: BTreeMap<String, Arc<Backend>> = BTreeMap::new();
        for backend in self.backends.values() {
            let Some(spec) = backend.spec else { continue };
            let cell = CellKey {
                simulator: backend.simulator_kind,
                uarch: backend.uarch,
                spec,
            }
            .id();
            match backend.source {
                Source::Matrix => {
                    tables.insert(cell, Arc::clone(backend));
                }
                Source::Checkpoint => {
                    tables.entry(cell).or_insert_with(|| Arc::clone(backend));
                }
                Source::Surrogate => {
                    surrogates.insert(cell, Arc::clone(backend));
                }
                Source::Default | Source::Policy => {}
            }
        }
        let policies: Vec<Backend> = tables
            .iter()
            .map(|(cell, table)| {
                policy_backend(
                    table,
                    surrogates.get(cell),
                    self.cell_mape.get(cell).copied(),
                    self.budget_for(cell),
                )
            })
            .collect();
        for policy in policies {
            self.register(policy);
        }
    }

    /// Number of loaded backends.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// True when no backend is loaded.
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// Every backend id, sorted.
    pub fn ids(&self) -> Vec<String> {
        self.backends.keys().cloned().collect()
    }

    /// Every backend as `(id, kind, fingerprint)`, sorted by id — the
    /// listing `/backends` and `--list-backends` report, complete by
    /// construction because it walks the same index resolution uses.
    pub fn entries(&self) -> Vec<(String, &'static str, String)> {
        self.backends
            .values()
            .map(|backend| {
                (
                    backend.id.clone(),
                    backend.kind(),
                    backend.table_fingerprint.clone(),
                )
            })
            .collect()
    }

    /// Builds a registry from a [`ReloadSpec`] — the startup *and* hot-reload
    /// loading path, so the two cannot drift apart.
    ///
    /// `strict` controls how pre-`difftune-matrix/2` records are treated: at
    /// startup (`false`) they are skipped with a warning, because a sweep
    /// directory legitimately accumulates old records; on reload (`true`)
    /// they are errors, because the operator explicitly asked to serve that
    /// directory's current contents and a silently unservable table is a
    /// torn deploy.
    ///
    /// # Errors
    ///
    /// Any artifact failure (unreadable file, parse failure, fingerprint
    /// mismatch, and — when `strict` — an unservable schema). On error no
    /// registry is produced, so a reload keeps serving the old one.
    pub fn load(spec: &ReloadSpec, strict: bool) -> Result<BackendRegistry, String> {
        let mut registry = if spec.defaults {
            BackendRegistry::with_defaults()
        } else {
            BackendRegistry::new()
        };
        registry.error_budget = spec.error_budget;
        registry.cell_budgets = spec.cell_budgets.iter().cloned().collect();
        for dir in &spec.table_dirs {
            registry.add_matrix_dir_with(dir, strict)?;
        }
        for (key, path) in &spec.checkpoints {
            registry.add_checkpoint(key, path)?;
        }
        if registry.is_empty() {
            return Err("the reload spec yields no backends at all".to_string());
        }
        Ok(registry)
    }

    /// Every loaded backend's cache/shard fingerprint. Reload diffs two of
    /// these sets to find which shards' caches hold entries for tables that
    /// no longer exist.
    pub fn cache_fingerprints(&self) -> BTreeSet<u64> {
        self.backends
            .values()
            .map(|backend| backend.cache_fingerprint)
            .collect()
    }

    /// Loads every servable `MATRIX_*.json` cell record and every
    /// `SURROGATE_*.json` artifact in a directory. Returns the number of
    /// backends added.
    ///
    /// # Errors
    ///
    /// Reports unreadable directories and corrupt artifacts (parse failures,
    /// wrong schema, fingerprint mismatches). `MATRIX_summary.json` and
    /// `MATRIX_ckpt_*.json` files are skipped, as are records whose schema
    /// predates `difftune-matrix/2` (they carry no table to serve).
    pub fn add_matrix_dir(&mut self, dir: &Path) -> Result<usize, String> {
        self.add_matrix_dir_with(dir, false)
    }

    /// [`BackendRegistry::add_matrix_dir`] with an explicit strictness: when
    /// `strict`, an artifact whose schema this build cannot serve is an
    /// error instead of a skip (the hot-reload policy).
    ///
    /// # Errors
    ///
    /// See [`BackendRegistry::add_matrix_dir`]; additionally, unservable
    /// schemas when `strict`.
    pub fn add_matrix_dir_with(&mut self, dir: &Path, strict: bool) -> Result<usize, String> {
        let entries = std::fs::read_dir(dir)
            .map_err(|error| format!("cannot read table directory {}: {error}", dir.display()))?;
        let mut names: Vec<String> = entries
            .filter_map(|entry| entry.ok())
            .filter_map(|entry| entry.file_name().into_string().ok())
            .filter(|name| {
                name.ends_with(".json")
                    && ((name.starts_with("MATRIX_")
                        && name != "MATRIX_summary.json"
                        && !name.starts_with("MATRIX_ckpt_"))
                        || name.starts_with("SURROGATE_"))
            })
            .collect();
        names.sort();

        let mut added = 0;
        for name in names {
            let path = dir.join(&name);
            let json = std::fs::read_to_string(&path)
                .map_err(|error| format!("cannot read {}: {error}", path.display()))?;
            // Check the schema tag on the raw value tree *before* the typed
            // parse: artifacts of another schema generation may not even
            // parse into today's types (pre-/2 matrix records are missing
            // `learned_table`) — and they should be skipped as legitimately
            // unservable, not reported as corrupt.
            let kind_label = if name.starts_with("SURROGATE_") {
                "surrogate artifact"
            } else {
                "matrix cell record"
            };
            let schema = serde_json::from_str_value(&json)
                .ok()
                .and_then(|value| {
                    value
                        .get("schema")
                        .and_then(|s| s.as_str().map(String::from))
                })
                .ok_or_else(|| format!("{}: not a {kind_label}", path.display()))?;
            let expected = if name.starts_with("SURROGATE_") {
                SURROGATE_SCHEMA
            } else {
                MATRIX_SCHEMA
            };
            if schema != expected {
                if strict {
                    return Err(format!(
                        "{}: schema {schema:?} is not servable by this build (need {expected}); \
                         refusing to reload from a directory with unservable records",
                        path.display(),
                    ));
                }
                eprintln!(
                    "[difftune-serve] {}: schema {schema:?} is not servable by this build; \
                     re-run the sweep to produce servable {expected} artifacts",
                    path.display(),
                );
                continue;
            }
            if name.starts_with("SURROGATE_") {
                // Parse first, verify second: garbage that is not an
                // artifact at all stays fatal in both modes, but an artifact
                // that parses and fails integrity (fingerprint mismatch,
                // incompatible weights) is downgraded to a structured
                // warning in lenient (startup) loads — the cell serves
                // table-only with its policy pinned to tier 3, never a 500.
                let artifact = SurrogateArtifact::parse_json(&json).map_err(|error| {
                    format!("{}: not a surrogate artifact: {error}", path.display())
                })?;
                if let Err(error) = self.add_surrogate_artifact(&artifact) {
                    if strict {
                        return Err(format!("{}: {error}", path.display()));
                    }
                    let warning = format!(
                        "{}: unservable surrogate artifact ({error}); serving cell {} \
                         table-only — its policy degrades to tier 3",
                        path.display(),
                        artifact.cell,
                    );
                    eprintln!("[difftune-serve] {warning}");
                    self.warnings.push(warning);
                    continue;
                }
            } else {
                let record = MatrixRecord::from_json(&json).map_err(|error| {
                    format!("{}: not a matrix cell record: {error}", path.display())
                })?;
                self.add_matrix_record(&record)
                    .map_err(|error| format!("{}: {error}", path.display()))?;
            }
            added += 1;
        }
        Ok(added)
    }

    /// Registers one verified surrogate artifact as a `surrogate:` backend.
    ///
    /// # Errors
    ///
    /// Reports an unparsable cell id and any integrity failure
    /// ([`SurrogateArtifact::verify`] — schema, content fingerprint, table
    /// round trip, weight compatibility).
    pub fn add_surrogate_artifact(&mut self, artifact: &SurrogateArtifact) -> Result<(), String> {
        artifact.verify()?;
        self.register(Backend::from_surrogate(artifact)?);
        self.refresh_policies();
        Ok(())
    }

    /// Registers one matrix cell record as a backend.
    ///
    /// # Errors
    ///
    /// Reports an unparsable cell id, an empty or truncated `learned_table`,
    /// and any fingerprint mismatch between the reconstructed table and the
    /// record.
    pub fn add_matrix_record(&mut self, record: &MatrixRecord) -> Result<(), String> {
        let key = CellKey::parse(&record.cell)
            .map_err(|error| format!("cell id {:?}: {error}", record.cell))?;
        if record.learned_table.is_empty() {
            return Err(format!("cell {} has an empty learned_table", record.cell));
        }
        let table = SimParams::from_flat(&record.learned_table, &ParamBounds::default());
        let fingerprint = table.fingerprint_hex();
        if fingerprint != record.table_fingerprint {
            return Err(format!(
                "cell {}: reconstructed table fingerprints as {fingerprint} but the record says \
                 {} — the artifact is corrupt",
                record.cell, record.table_fingerprint
            ));
        }
        if let Some(mape) = record.surrogate_vs_sim_mape {
            self.cell_mape.insert(key.id(), mape);
        }
        self.register(Backend::new(
            Source::Matrix,
            key.simulator,
            key.uarch,
            Some(key.spec),
            table,
        ));
        self.refresh_policies();
        Ok(())
    }

    /// Loads a finished session checkpoint's learned θ as a backend for the
    /// given cell coordinates (checkpoints do not record what they tuned, so
    /// the caller supplies the binding).
    ///
    /// When the checkpoint also carries trained surrogate weights *and* the
    /// configuration they were trained under, the pair is snapshotted into a
    /// surrogate artifact ([`SurrogateArtifact::from_weights`]) and
    /// registered as the cell's `surrogate:` backend — unless a file
    /// artifact already claimed the cell (directories load before
    /// checkpoints, so file artifacts deterministically win). A weight/
    /// config mismatch degrades to a structured warning, never an error:
    /// the table backend is the artifact the operator asked for.
    ///
    /// # Errors
    ///
    /// Reports unreadable/unparsable files and checkpoints without a learned
    /// table (θ exists only once the optimize stage has run).
    pub fn add_checkpoint(&mut self, key: &CellKey, path: &Path) -> Result<(), String> {
        let json = std::fs::read_to_string(path)
            .map_err(|error| format!("cannot read {}: {error}", path.display()))?;
        let checkpoint = RunCheckpoint::from_json(&json)
            .map_err(|error| format!("{}: not a RunCheckpoint: {error}", path.display()))?;
        let theta = checkpoint.theta.as_ref().ok_or_else(|| {
            format!(
                "{}: checkpoint at stage {:?} has no learned θ yet (resume and finish the run \
                 first)",
                path.display(),
                checkpoint.stage
            )
        })?;
        let table = theta.to_sim_params();
        if let (Some(weights), Some(config)) =
            (&checkpoint.surrogate_params, checkpoint.surrogate_config)
        {
            let surrogate_id = BackendId {
                source: Source::Surrogate,
                simulator: key.simulator,
                uarch: key.uarch,
                spec: Some(key.spec),
            }
            .to_string();
            if !self.backends.contains_key(&surrogate_id) {
                let built = SurrogateArtifact::from_weights(&key.id(), config, weights, &table)
                    .and_then(|artifact| Backend::from_surrogate(&artifact));
                match built {
                    Ok(backend) => self.register(backend),
                    Err(error) => {
                        let warning = format!(
                            "{}: checkpoint surrogate for cell {} is unservable ({error}); \
                             serving the cell table-only — its policy degrades to tier 3",
                            path.display(),
                            key.id(),
                        );
                        eprintln!("[difftune-serve] {warning}");
                        self.warnings.push(warning);
                    }
                }
            }
        }
        self.register(Backend::new(
            Source::Checkpoint,
            key.simulator,
            key.uarch,
            Some(key.spec),
            table,
        ));
        self.refresh_policies();
        Ok(())
    }

    /// Resolves a request's backend.
    ///
    /// With an explicit `source` the exact backend must exist. Without one,
    /// the derived three-tier policy wins, then learned tables over
    /// defaults: `policy`, then `matrix`, then `checkpoint`, then
    /// `default`. The resolution order is fixed, so a given registry answers
    /// a given query identically on every request.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing backend and listing the loaded
    /// ids (the server surfaces it as `404`).
    pub fn resolve(&self, query: &BackendQuery) -> Result<Arc<Backend>, String> {
        let candidates = query.candidate_ids();
        for id in &candidates {
            if let Some(backend) = self.backends.get(id) {
                return Ok(Arc::clone(backend));
            }
        }
        Err(format!(
            "no backend for {} (loaded backends: {})",
            candidates.join(" / "),
            if self.backends.is_empty() {
                "none".to_string()
            } else {
                self.ids().join(", ")
            }
        ))
    }
}

/// FNV-1a fingerprint of a block's canonical text. Canonical text (rather
/// than the client's spelling) lets differently formatted requests for the
/// same block share a fingerprint. The server keys its cache with
/// [`block_key`] instead, which hashes the parsed block without rendering it.
pub fn block_fingerprint(canonical_text: &str) -> u64 {
    fnv1a(canonical_text.bytes())
}

/// The block half of the prediction-cache key: FNV-1a over the parsed
/// block's structure (its derived [`Hash`]), with no text rendering. Blocks
/// that parse to the same structure get the same key, however the client
/// spelled them. The key is stable within one build of the server; it never
/// leaves the process.
pub fn block_key(block: &BasicBlock) -> u64 {
    let mut hasher = Fnv1a(0xcbf2_9ce4_8422_2325);
    block.hash(&mut hasher);
    hasher.finish()
}

/// A fixed-state FNV-1a [`Hasher`] (the same constants as
/// [`fnv1a`]), so [`block_key`] does not depend on a per-process seed.
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use difftune_bench::record::{fingerprint_table, CategoryScore};

    /// A synthetic but internally consistent matrix record over a perturbed
    /// default table.
    fn fake_record(cell: &str, uarch: Microarch) -> MatrixRecord {
        let mut table = default_params(uarch);
        table.per_inst[5].write_latency += 2;
        MatrixRecord {
            schema: MATRIX_SCHEMA.to_string(),
            cell: cell.to_string(),
            simulator: "mca".to_string(),
            uarch: uarch.key().to_string(),
            spec: "llvm_mca".to_string(),
            scale: "smoke".to_string(),
            seed: 1,
            train_blocks: 1,
            heldout_blocks: 1,
            simulated_samples: 1,
            num_learned_parameters: 1,
            default_mape: 0.2,
            default_tau: 0.8,
            learned_mape: 0.2,
            learned_tau: 0.8,
            surrogate_mape: None,
            surrogate_tau: None,
            surrogate_vs_sim_mape: None,
            surrogate_vs_sim_tau: None,
            surrogate_fingerprint: None,
            surrogate_blocks_per_second: None,
            simulator_blocks_per_second: None,
            by_category: Vec::<CategoryScore>::new(),
            table_fingerprint: fingerprint_table(&table),
            learned_table: table.to_flat(),
        }
    }

    #[test]
    fn block_keys_follow_structure_not_spelling() {
        let key = |text: &str| block_key(&text.parse().expect("block parses"));
        let canonical = "addq %rax, 8(%rdi,%rcx,4)\nmovl $-1, %eax";
        let base = key(canonical);
        for variant in [
            "  addq   %rax ,8( %rdi , %rcx , 4 )\n\tmovl\t$-1,%eax  ",
            "ADDQ %rax, 8(%rdi,%rcx,4); MOVL $-1, %eax",
            "addq %rax, 0x8(%rdi,%rcx,4)\n# comment\n\nmovl $-0x1, %eax",
        ] {
            assert_eq!(key(variant), base, "{variant:?}");
        }
        for different in [
            "addq %rbx, 8(%rdi,%rcx,4)\nmovl $-1, %eax",
            "addq %rax, 8(%rdi,%rcx,2)\nmovl $-1, %eax",
            "addq %rax, 16(%rdi,%rcx,4)\nmovl $-1, %eax",
            "addq %rax, 8(%rdi,%rcx,4)\nmovl $1, %eax",
            "subq %rax, 8(%rdi,%rcx,4)\nmovl $-1, %eax",
            "addl %eax, 8(%rdi,%rcx,4)\nmovl $-1, %eax",
            "movl $-1, %eax\naddq %rax, 8(%rdi,%rcx,4)",
            "addq %rax, 8(%rdi,%rcx,4)",
        ] {
            assert_ne!(key(different), base, "{different:?}");
        }
        // The structural key agrees with the text fingerprint on which
        // blocks are the same.
        let block: BasicBlock = canonical.parse().unwrap();
        let reparsed: BasicBlock = block.to_string().parse().unwrap();
        assert_eq!(block_key(&reparsed), base);
        assert_eq!(
            block_fingerprint(&reparsed.to_string()),
            block_fingerprint(&block.to_string())
        );
    }

    #[test]
    fn defaults_cover_every_simulator_uarch_pair() {
        let registry = BackendRegistry::with_defaults();
        assert_eq!(
            registry.len(),
            SimulatorKind::ALL.len() * Microarch::ALL.len()
        );
        let backend = registry
            .resolve(&BackendQuery::default())
            .expect("default haswell mca backend exists");
        assert_eq!(backend.id, "default:mca:haswell");
        assert_eq!(backend.table, default_params(Microarch::Haswell));
    }

    #[test]
    fn matrix_records_become_backends_and_win_sourceless_resolution() {
        let mut registry = BackendRegistry::with_defaults();
        registry
            .add_matrix_record(&fake_record("mca:haswell:llvm_mca", Microarch::Haswell))
            .expect("consistent record loads");

        // Sourceless resolution lands on the derived policy wrapping the
        // matrix table (at the default 0.0 budget it serves the same table
        // values through tier 3).
        let learned = registry.resolve(&BackendQuery::default()).unwrap();
        assert_eq!(learned.id, "policy:mca:haswell:llvm_mca");
        assert_eq!(learned.kind(), "policy");
        assert_ne!(learned.table, default_params(Microarch::Haswell));

        // The matrix table itself still answers when pinned.
        let matrix = registry
            .resolve(&BackendQuery {
                source: Some(Source::Matrix),
                ..BackendQuery::default()
            })
            .unwrap();
        assert_eq!(matrix.id, "matrix:mca:haswell:llvm_mca");
        assert_eq!(matrix.table, learned.table);

        // An explicit source still reaches the defaults.
        let defaults = registry
            .resolve(&BackendQuery {
                source: Some(Source::Default),
                ..BackendQuery::default()
            })
            .unwrap();
        assert_eq!(defaults.id, "default:mca:haswell");
    }

    #[test]
    fn corrupt_matrix_records_are_rejected() {
        let mut registry = BackendRegistry::new();

        let mut truncated = fake_record("mca:haswell:llvm_mca", Microarch::Haswell);
        truncated.learned_table.clear();
        assert!(registry
            .add_matrix_record(&truncated)
            .unwrap_err()
            .contains("empty"));

        let mut tampered = fake_record("mca:haswell:llvm_mca", Microarch::Haswell);
        tampered.learned_table[3] += 1.0;
        assert!(registry
            .add_matrix_record(&tampered)
            .unwrap_err()
            .contains("corrupt"));

        let bad_cell = MatrixRecord {
            cell: "not-a-cell".to_string(),
            ..fake_record("mca:haswell:llvm_mca", Microarch::Haswell)
        };
        assert!(registry.add_matrix_record(&bad_cell).is_err());
        assert!(registry.is_empty());
    }

    #[test]
    fn pre_v2_records_are_skipped_while_v2_records_load() {
        let dir = std::env::temp_dir().join(format!(
            "difftune-serve-prev2-{}-{:x}",
            std::process::id(),
            fnv1a("pre_v2".bytes())
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir is writable");

        // A servable /2 record.
        let v2 = fake_record("mca:haswell:llvm_mca", Microarch::Haswell);
        std::fs::write(dir.join(v2.file_name()), v2.to_json()).unwrap();

        // A /1-era record: same shape minus `learned_table`, older schema
        // tag. It cannot even parse as today's MatrixRecord, so the loader
        // must skip it from the raw schema tag, not report corruption.
        let v1 = fake_record("mca:skylake:llvm_mca", Microarch::Skylake);
        let value = serde_json::from_str_value(&v1.to_json()).unwrap();
        let entries: Vec<(String, serde::Value)> = value
            .as_map()
            .unwrap()
            .iter()
            .filter(|(key, _)| key != "learned_table")
            .map(|(key, entry)| {
                if key == "schema" {
                    (
                        key.clone(),
                        serde::Value::Str("difftune-matrix/1".to_string()),
                    )
                } else {
                    (key.clone(), entry.clone())
                }
            })
            .collect();
        std::fs::write(
            dir.join(v1.file_name()),
            serde_json::to_string(&serde::Value::Map(entries)).unwrap(),
        )
        .unwrap();

        // Summary and checkpoint files are ignored by name.
        std::fs::write(dir.join("MATRIX_summary.json"), "{}").unwrap();
        std::fs::write(dir.join("MATRIX_ckpt_mca_haswell_llvm_mca.json"), "{}").unwrap();

        let mut registry = BackendRegistry::new();
        let added = registry
            .add_matrix_dir(&dir)
            .expect("the /1 record must not be fatal");
        assert_eq!(added, 1, "exactly the /2 record loads");
        assert_eq!(
            registry.ids(),
            vec!["matrix:mca:haswell:llvm_mca", "policy:mca:haswell:llvm_mca"]
        );

        // Garbage in a MATRIX_*.json name is still a hard error.
        std::fs::write(dir.join("MATRIX_bogus_cell_garbage.json"), "not json").unwrap();
        assert!(registry
            .add_matrix_dir(&dir)
            .unwrap_err()
            .contains("not a matrix cell record"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_loading_rejects_pre_v2_records_instead_of_skipping() {
        let dir = std::env::temp_dir().join(format!(
            "difftune-serve-strict-{}-{:x}",
            std::process::id(),
            fnv1a("strict".bytes())
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir is writable");

        let v2 = fake_record("mca:haswell:llvm_mca", Microarch::Haswell);
        std::fs::write(dir.join(v2.file_name()), v2.to_json()).unwrap();
        let v1 = fake_record("mca:skylake:llvm_mca", Microarch::Skylake);
        let mut v1_json = serde_json::from_str_value(&v1.to_json()).unwrap();
        if let serde::Value::Map(entries) = &mut v1_json {
            for (key, entry) in entries.iter_mut() {
                if key == "schema" {
                    *entry = serde::Value::Str("difftune-matrix/1".to_string());
                }
            }
        }
        std::fs::write(
            dir.join(v1.file_name()),
            serde_json::to_string(&v1_json).unwrap(),
        )
        .unwrap();

        // Lenient (startup) load skips the /1 record; strict (reload) refuses
        // the whole directory so the old registry keeps serving.
        let spec = ReloadSpec {
            defaults: false,
            table_dirs: vec![dir.clone()],
            checkpoints: Vec::new(),
            error_budget: 0.0,
            cell_budgets: Vec::new(),
        };
        let lenient = BackendRegistry::load(&spec, false).expect("lenient load succeeds");
        assert_eq!(
            lenient.ids(),
            vec!["matrix:mca:haswell:llvm_mca", "policy:mca:haswell:llvm_mca"]
        );
        let error = BackendRegistry::load(&spec, true).unwrap_err();
        assert!(error.contains("difftune-matrix/1"), "{error}");
        assert!(error.contains("refusing to reload"), "{error}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_refuses_an_empty_spec_and_reports_fingerprint_sets() {
        let error = BackendRegistry::load(&ReloadSpec::default(), true).unwrap_err();
        assert!(error.contains("no backends"), "{error}");

        let registry = BackendRegistry::load(
            &ReloadSpec {
                defaults: true,
                ..ReloadSpec::default()
            },
            true,
        )
        .expect("defaults alone are a valid spec");
        let fingerprints = registry.cache_fingerprints();
        assert_eq!(
            fingerprints.len(),
            registry.len(),
            "every backend has a distinct cache fingerprint"
        );
    }

    #[test]
    fn candidate_ids_follow_the_resolution_contract() {
        let query = BackendQuery::default();
        assert_eq!(
            query.candidate_ids(),
            vec![
                "policy:mca:haswell:llvm_mca",
                "matrix:mca:haswell:llvm_mca",
                "checkpoint:mca:haswell:llvm_mca",
                "default:mca:haswell",
            ]
        );
        let pinned = BackendQuery {
            source: Some(Source::Default),
            ..BackendQuery::default()
        };
        assert_eq!(pinned.candidate_ids(), vec!["default:mca:haswell"]);
    }

    #[test]
    fn missing_backends_resolve_to_an_error_naming_the_options() {
        let registry = BackendRegistry::with_defaults();
        let error = registry
            .resolve(&BackendQuery {
                source: Some(Source::Matrix),
                ..BackendQuery::default()
            })
            .unwrap_err();
        assert!(error.contains("matrix:mca:haswell:llvm_mca"), "{error}");
        assert!(error.contains("default:mca:haswell"), "{error}");
    }

    #[test]
    fn shared_tables_get_distinct_cache_fingerprints_per_simulator() {
        // default:mca:haswell and default:uop:haswell share the same table;
        // their predictions differ, so their cache identities must too.
        let registry = BackendRegistry::with_defaults();
        let mca = registry
            .resolve(&BackendQuery {
                source: Some(Source::Default),
                ..BackendQuery::default()
            })
            .unwrap();
        let uop = registry
            .resolve(&BackendQuery {
                simulator: SimulatorKind::Uop,
                source: Some(Source::Default),
                ..BackendQuery::default()
            })
            .unwrap();
        assert_eq!(mca.table_fingerprint, uop.table_fingerprint);
        assert_ne!(mca.cache_fingerprint, uop.cache_fingerprint);
    }

    /// A tiny but genuine surrogate artifact over a perturbed default table.
    fn fake_artifact(cell: &str, uarch: Microarch) -> SurrogateArtifact {
        use difftune_surrogate::{FeatureMlpConfig, FeatureMlpModel, ModelConfig};
        let config = FeatureMlpConfig {
            hidden_dim: 8,
            parameter_inputs: true,
            seed: 3,
        };
        let model = FeatureMlpModel::new(config);
        let mut table = default_params(uarch);
        table.per_inst[7].write_latency += 1;
        SurrogateArtifact::new(cell, ModelConfig::Mlp(config), &model, &table)
    }

    #[test]
    fn surrogate_artifacts_become_explicit_source_backends() {
        let mut registry = BackendRegistry::with_defaults();
        registry
            .add_surrogate_artifact(&fake_artifact("mca:haswell:llvm_mca", Microarch::Haswell))
            .expect("a consistent artifact loads");

        // Sourceless resolution still prefers tables; the surrogate answers
        // only when asked for.
        let sourceless = registry.resolve(&BackendQuery::default()).unwrap();
        assert_eq!(sourceless.id, "default:mca:haswell");
        let surrogate = registry
            .resolve(&BackendQuery {
                source: Some(Source::Surrogate),
                ..BackendQuery::default()
            })
            .unwrap();
        assert_eq!(surrogate.id, "surrogate:mca:haswell:llvm_mca");
        assert_eq!(surrogate.kind(), "surrogate");
        assert_ne!(surrogate.table, default_params(Microarch::Haswell));

        // The listing reports every predictor with kind and fingerprint.
        let entries = registry.entries();
        assert_eq!(entries.len(), registry.len());
        let ids: Vec<&String> = entries.iter().map(|(id, _, _)| id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "entries are sorted by id");
        let (_, kind, fingerprint) = entries
            .iter()
            .find(|(id, _, _)| id == "surrogate:mca:haswell:llvm_mca")
            .unwrap();
        assert_eq!(*kind, "surrogate");
        assert_eq!(*fingerprint, surrogate.table_fingerprint);
    }

    #[test]
    fn surrogate_predictions_match_the_in_process_forward_pass() {
        use difftune_surrogate::{block_param_features, global_features, Vocab};
        use difftune_tensor::{Graph, Var};

        let artifact = fake_artifact("mca:haswell:llvm_mca", Microarch::Haswell);
        let mut registry = BackendRegistry::new();
        registry.add_surrogate_artifact(&artifact).unwrap();
        let backend = registry
            .resolve(&BackendQuery {
                source: Some(Source::Surrogate),
                ..BackendQuery::default()
            })
            .unwrap();

        let blocks: Vec<BasicBlock> = [
            "addq %rax, %rbx",
            "imulq %rbx, %rcx\naddq %rcx, %rax",
            "movq (%rdi), %rax\naddq %rax, %rbx",
        ]
        .iter()
        .map(|text| text.parse().unwrap())
        .collect();

        // In-process reference: a fresh taped forward pass per block.
        let model = artifact.load_model().unwrap();
        let table = artifact.table();
        let vocab = Vocab::new();
        let global = global_features(&table);
        let expected: Vec<f64> = blocks
            .iter()
            .map(|block| {
                let tokenized = vocab.tokenize_block(block);
                let features = block_param_features(&table, &tokenized);
                let mut graph = Graph::new(model.params());
                let feature_vars: Vec<Var> =
                    features.iter().map(|f| graph.input(f.clone())).collect();
                let global_var = graph.input(global.clone());
                let prediction = model.forward(
                    &mut graph,
                    &tokenized,
                    Some(&feature_vars),
                    Some(global_var),
                );
                f64::from(graph.value(prediction)[0])
            })
            .collect();

        // Served path (compiled replay), twice: cold cache and warm cache
        // must both be bit-equal to the reference.
        for _ in 0..2 {
            let served = backend.predictor.predict_batch(&blocks);
            let served_bits: Vec<u64> = served.iter().map(|v| v.to_bits()).collect();
            let expected_bits: Vec<u64> = expected.iter().map(|v| v.to_bits()).collect();
            assert_eq!(served_bits, expected_bits);
        }
    }

    #[test]
    fn tampered_surrogate_artifacts_are_rejected() {
        let mut registry = BackendRegistry::new();
        let mut tampered = fake_artifact("mca:haswell:llvm_mca", Microarch::Haswell);
        tampered.learned_table[0] += 1.0;
        assert!(registry
            .add_surrogate_artifact(&tampered)
            .unwrap_err()
            .contains("fingerprint"));
        assert!(registry.is_empty());
    }

    #[test]
    fn surrogate_artifacts_load_from_table_directories() {
        let dir = std::env::temp_dir().join(format!(
            "difftune-serve-surrogate-{}-{:x}",
            std::process::id(),
            fnv1a("surrogate_dir".bytes())
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir is writable");

        let record = fake_record("mca:haswell:llvm_mca", Microarch::Haswell);
        std::fs::write(dir.join(record.file_name()), record.to_json()).unwrap();
        let artifact = fake_artifact("mca:haswell:llvm_mca", Microarch::Haswell);
        std::fs::write(dir.join(artifact.file_name()), artifact.to_json()).unwrap();

        let mut registry = BackendRegistry::new();
        let added = registry.add_matrix_dir(&dir).unwrap();
        assert_eq!(added, 2, "the record and the artifact both load");
        assert_eq!(
            registry.ids(),
            vec![
                "matrix:mca:haswell:llvm_mca",
                "policy:mca:haswell:llvm_mca",
                "surrogate:mca:haswell:llvm_mca"
            ]
        );

        // An artifact of an unknown schema generation is skipped leniently
        // and fatal strictly, like unservable matrix schemas.
        let mut future = serde_json::from_str_value(&artifact.to_json()).unwrap();
        if let serde::Value::Map(entries) = &mut future {
            for (key, entry) in entries.iter_mut() {
                if key == "schema" {
                    *entry = serde::Value::Str("difftune-surrogate/999".to_string());
                }
            }
        }
        std::fs::write(
            dir.join("SURROGATE_mca_skylake_llvm_mca.json"),
            serde_json::to_string(&future).unwrap(),
        )
        .unwrap();
        let mut lenient = BackendRegistry::new();
        assert_eq!(lenient.add_matrix_dir(&dir).unwrap(), 2);
        let spec = ReloadSpec {
            defaults: false,
            table_dirs: vec![dir.clone()],
            checkpoints: Vec::new(),
            error_budget: 0.0,
            cell_budgets: Vec::new(),
        };
        let error = BackendRegistry::load(&spec, true).unwrap_err();
        assert!(error.contains("difftune-surrogate/999"), "{error}");

        std::fs::remove_dir_all(&dir).ok();
    }

    use crate::policy::{TIER_SIMULATOR, TIER_SURROGATE};

    /// [`fake_record`] with a measured surrogate-vs-simulator MAPE.
    fn fake_record_with_mape(cell: &str, uarch: Microarch, mape: f64) -> MatrixRecord {
        MatrixRecord {
            surrogate_vs_sim_mape: Some(mape),
            ..fake_record(cell, uarch)
        }
    }

    fn parse_block(text: &str) -> BasicBlock {
        text.parse().expect("test blocks parse")
    }

    #[test]
    fn policies_gate_the_surrogate_tier_on_the_error_budget() {
        let mut registry = BackendRegistry::with_defaults();
        registry
            .add_matrix_record(&fake_record_with_mape(
                "mca:haswell:llvm_mca",
                Microarch::Haswell,
                5.0,
            ))
            .unwrap();
        registry
            .add_surrogate_artifact(&fake_artifact("mca:haswell:llvm_mca", Microarch::Haswell))
            .unwrap();
        let block = parse_block("addq %rax, %rbx");
        let matrix = registry
            .resolve(&BackendQuery {
                source: Some(Source::Matrix),
                ..BackendQuery::default()
            })
            .unwrap();
        let surrogate = registry
            .resolve(&BackendQuery {
                source: Some(Source::Surrogate),
                ..BackendQuery::default()
            })
            .unwrap();

        // Default budget 0.0 < MAPE 5.0: the policy serves the simulator.
        let policy = registry.resolve(&BackendQuery::default()).unwrap();
        assert_eq!(policy.id, "policy:mca:haswell:llvm_mca");
        assert_eq!(policy.predictor.tier_tag(&block), TIER_SIMULATOR);
        assert_eq!(
            policy.predictor.predict_batch(std::slice::from_ref(&block))[0].to_bits(),
            matrix.predictor.predict_batch(std::slice::from_ref(&block))[0].to_bits(),
            "tier 3 answers with the learned table's exact bits"
        );

        // Budget 10.0 >= MAPE 5.0: tier 2 opens.
        registry.set_error_budget(10.0);
        let policy = registry.resolve(&BackendQuery::default()).unwrap();
        assert_eq!(policy.predictor.tier_tag(&block), TIER_SURROGATE);
        assert_eq!(
            policy.predictor.predict_batch(std::slice::from_ref(&block))[0].to_bits(),
            surrogate
                .predictor
                .predict_batch(std::slice::from_ref(&block))[0]
                .to_bits(),
            "tier 2 answers with the surrogate's exact bits"
        );

        // Tightening the budget below the MAPE closes tier 2 again, and the
        // rebuilt policy has a new cache identity (stale entries retire).
        let open_fingerprint = policy.cache_fingerprint;
        registry.set_error_budget(1.0);
        let policy = registry.resolve(&BackendQuery::default()).unwrap();
        assert_eq!(policy.predictor.tier_tag(&block), TIER_SIMULATOR);
        assert_ne!(policy.cache_fingerprint, open_fingerprint);
    }

    #[test]
    fn an_unmeasured_surrogate_only_clears_an_infinite_budget() {
        let mut registry = BackendRegistry::new();
        registry
            .add_matrix_record(&fake_record("mca:haswell:llvm_mca", Microarch::Haswell))
            .unwrap();
        registry
            .add_surrogate_artifact(&fake_artifact("mca:haswell:llvm_mca", Microarch::Haswell))
            .unwrap();
        let block = parse_block("addq %rax, %rbx");

        registry.set_error_budget(1e12);
        let policy = registry.resolve(&BackendQuery::default()).unwrap();
        assert_eq!(
            policy.predictor.tier_tag(&block),
            TIER_SIMULATOR,
            "no recorded MAPE means no finite budget vouches for tier 2"
        );

        registry.set_error_budget(f64::INFINITY);
        let policy = registry.resolve(&BackendQuery::default()).unwrap();
        assert_eq!(policy.predictor.tier_tag(&block), TIER_SURROGATE);
    }

    #[test]
    fn matrix_tables_win_the_policy_over_checkpoint_tables() {
        let record = fake_record("mca:haswell:llvm_mca", Microarch::Haswell);
        let checkpoint_table = default_params(Microarch::Haswell);
        assert_ne!(checkpoint_table.to_flat(), record.learned_table);

        // Checkpoint first, then matrix: the matrix table takes the policy.
        let mut registry = BackendRegistry::new();
        registry.register(Backend::new(
            Source::Checkpoint,
            SimulatorKind::Mca,
            Microarch::Haswell,
            Some(SpecKind::LlvmMca),
            checkpoint_table.clone(),
        ));
        registry.add_matrix_record(&record).unwrap();
        let policy = registry.resolve(&BackendQuery::default()).unwrap();
        assert_eq!(policy.id, "policy:mca:haswell:llvm_mca");
        assert_eq!(policy.table.to_flat(), record.learned_table);

        // Matrix first, then checkpoint: same winner.
        let mut registry = BackendRegistry::new();
        registry.add_matrix_record(&record).unwrap();
        registry.register(Backend::new(
            Source::Checkpoint,
            SimulatorKind::Mca,
            Microarch::Haswell,
            Some(SpecKind::LlvmMca),
            checkpoint_table.clone(),
        ));
        registry.refresh_policies();
        let policy = registry.resolve(&BackendQuery::default()).unwrap();
        assert_eq!(policy.table.to_flat(), record.learned_table);

        // A checkpoint-only cell still gets a policy.
        let mut registry = BackendRegistry::new();
        registry.register(Backend::new(
            Source::Checkpoint,
            SimulatorKind::Mca,
            Microarch::Haswell,
            Some(SpecKind::LlvmMca),
            checkpoint_table.clone(),
        ));
        registry.refresh_policies();
        let policy = registry.resolve(&BackendQuery::default()).unwrap();
        assert_eq!(policy.table, checkpoint_table);
    }

    #[test]
    fn corrupt_surrogate_artifacts_degrade_the_cell_to_table_only() {
        let dir = std::env::temp_dir().join(format!(
            "difftune-serve-corrupt-{}-{:x}",
            std::process::id(),
            fnv1a("corrupt_artifact".bytes())
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir is writable");

        let record = fake_record_with_mape("mca:haswell:llvm_mca", Microarch::Haswell, 0.5);
        std::fs::write(dir.join(record.file_name()), record.to_json()).unwrap();
        let mut tampered = fake_artifact("mca:haswell:llvm_mca", Microarch::Haswell);
        tampered.learned_table[0] += 1.0;
        std::fs::write(dir.join(tampered.file_name()), tampered.to_json()).unwrap();

        // Lenient (startup) load: the corrupt artifact becomes a structured
        // warning, the cell serves table-only, and its policy pins tier 3
        // even under a budget that would otherwise open tier 2.
        let mut registry = BackendRegistry::new();
        registry.set_error_budget(f64::INFINITY);
        let added = registry.add_matrix_dir(&dir).unwrap();
        assert_eq!(added, 1, "only the record loads");
        assert_eq!(
            registry.ids(),
            vec!["matrix:mca:haswell:llvm_mca", "policy:mca:haswell:llvm_mca"]
        );
        assert_eq!(registry.warnings().len(), 1);
        assert!(
            registry.warnings()[0].contains("tier 3"),
            "{:?}",
            registry.warnings()
        );
        let policy = registry.resolve(&BackendQuery::default()).unwrap();
        assert_eq!(
            policy.predictor.tier_tag(&parse_block("addq %rax, %rbx")),
            TIER_SIMULATOR
        );

        // Strict (reload) load refuses the directory outright.
        let spec = ReloadSpec {
            defaults: false,
            table_dirs: vec![dir.clone()],
            checkpoints: Vec::new(),
            error_budget: f64::INFINITY,
            cell_budgets: Vec::new(),
        };
        let error = BackendRegistry::load(&spec, true).unwrap_err();
        assert!(error.contains("fingerprint"), "{error}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn surrogate_engine_pool_predicts_concurrently_without_changing_bits() {
        let artifact = fake_artifact("mca:haswell:llvm_mca", Microarch::Haswell);
        let predictor = SurrogatePredictor::new(&artifact).unwrap();
        let blocks: Vec<BasicBlock> = [
            "addq %rax, %rbx",
            "imulq %rbx, %rcx\naddq %rcx, %rax",
            "movq (%rdi), %rax\naddq %rax, %rbx",
        ]
        .iter()
        .map(|text| parse_block(text))
        .collect();
        let serial: Vec<u64> = predictor
            .predict_batch(&blocks)
            .iter()
            .map(|v| v.to_bits())
            .collect();

        // Two engines checked out at once: the second is minted on demand —
        // the pool never serializes concurrent batches on one lock — and a
        // fresh engine's bits equal a warm engine's, since its memo only
        // decides whether an opcode's leading state is computed or reused.
        let mut first = predictor.checkout();
        let mut second = predictor.checkout();
        for engine in [&mut first, &mut second] {
            let bits: Vec<u64> = engine
                .predict_batch(&blocks)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(bits, serial);
        }
        predictor.checkin(first);
        predictor.checkin(second);
        assert_eq!(
            predictor.pooled_engines(),
            2,
            "the pool grew under concurrency"
        );

        // And genuinely concurrent callers all get the serial bits.
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        predictor
                            .predict_batch(&blocks)
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            for handle in handles {
                assert_eq!(handle.join().expect("no panic"), serial);
            }
        });
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 48,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The tier choice is a pure function of `(effective budget, cell
        /// metadata)`: two independently built policies over the same
        /// inputs agree on every generated block, every block of the cell
        /// gets the same tier, repeated queries never flip, and running
        /// predictions in between changes nothing. The
        /// effective budget is the cell's override when one is set
        /// (`--error-budget CELL=BUDGET`) and the global budget otherwise —
        /// mixed-budget fleets gate each cell independently.
        #[test]
        fn tier_choice_is_a_pure_function_of_block_budget_and_metadata(
            seed in 0u64..10_000,
            budget in 0.0f64..20.0,
            cell_budget in proptest::option::of(0.0f64..20.0),
            mape in proptest::option::of(0.0f64..20.0),
        ) {
            use difftune_isa::{BlockGenerator, GeneratorConfig};
            use rand::{rngs::StdRng, SeedableRng};

            let build = || {
                let mut registry = BackendRegistry::new();
                let mut record =
                    fake_record("mca:haswell:llvm_mca", Microarch::Haswell);
                record.surrogate_vs_sim_mape = mape;
                registry.add_matrix_record(&record).unwrap();
                registry
                    .add_surrogate_artifact(&fake_artifact(
                        "mca:haswell:llvm_mca",
                        Microarch::Haswell,
                    ))
                    .unwrap();
                registry.set_error_budget(budget);
                if let Some(cell_budget) = cell_budget {
                    registry.set_cell_budget("mca:haswell:llvm_mca", cell_budget);
                }
                proptest::prop_assert_eq!(
                    registry.budget_for("mca:haswell:llvm_mca"),
                    cell_budget.unwrap_or(budget)
                );
                registry.resolve(&BackendQuery::default()).unwrap()
            };
            let (first, second) = (build(), build());
            let effective = cell_budget.unwrap_or(budget);

            let generator = BlockGenerator::new(GeneratorConfig::default());
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cell_tier = None;
            for _ in 0..8 {
                let block = generator.generate(&mut rng);
                let tier = first.predictor.tier_tag(&block);
                // The tier is the cell's: every block of it gets the same one.
                proptest::prop_assert_eq!(*cell_tier.get_or_insert(tier), tier);
                proptest::prop_assert!(tier == TIER_SURROGATE || tier == TIER_SIMULATOR);
                proptest::prop_assert_eq!(second.predictor.tier_tag(&block), tier);
                if tier == TIER_SURROGATE {
                    proptest::prop_assert!(mape.unwrap_or(f64::INFINITY) <= effective);
                }
                // A prediction in between must not perturb the choice.
                first.predictor.predict_batch(std::slice::from_ref(&block));
                proptest::prop_assert_eq!(first.predictor.tier_tag(&block), tier);
            }
        }
    }
}
