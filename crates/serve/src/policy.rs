//! The three-tier prediction policy: LRU cache → surrogate → simulator.
//!
//! DiffTune's deployment bargain ("Programming with Neural Surrogates of
//! Programs", Renda et al. 2021) is to serve the learned surrogate as the
//! fast path and fall back to the original program when confidence is low.
//! [`PolicyPredictor`] is that bargain as a [`Predictor`]: for one cell it
//! pairs the cell's learned table (the full simulator, tier 3) with the
//! cell's surrogate (tier 2) and routes each block to exactly one of them —
//! tier 1, the per-shard LRU, lives in the server's cache pass and is keyed
//! by the tier tag this module computes, so a cached block never re-enters
//! the policy at all.
//!
//! The tier decision ([`PolicyPredictor::tier_for`]) is a **pure function**
//! of the block and the cell's frozen metadata:
//!
//! * tier 3 (simulator) when the cell has no servable surrogate at all;
//! * tier 3 when the cell's recorded `surrogate_vs_sim_mape` exceeds the
//!   configured `--error-budget` (an unknown MAPE only clears an infinite
//!   budget — trust requires evidence);
//! * tier 3 when the block's structure fails surrogate program-keying (the
//!   taped fallback path exists but is not the fast path the budget vouches
//!   for);
//! * tier 2 (surrogate) otherwise.
//!
//! Nothing here consults cache state, shard identity, or request history,
//! which is what makes determinism invariant #8 hold: policy responses are
//! byte-identical across shard counts, cache states, and thread counts
//! given the same budget. Pinning `"source"` explicitly bypasses the policy
//! entirely (the query resolves the pinned backend), preserving existing
//! behavior byte-for-byte.

use std::sync::Arc;

use difftune::BackendId;
use difftune_bench::record::fnv1a;
use difftune_isa::BasicBlock;

use crate::backend::{Backend, Predictor, Source};

/// Cache-key tier tag for plain (non-policy) backends.
pub const TIER_PLAIN: u8 = 0;
/// Cache-key tier tag for policy blocks answered by the surrogate.
pub const TIER_SURROGATE: u8 = 2;
/// Cache-key tier tag for policy blocks answered by the full simulator.
pub const TIER_SIMULATOR: u8 = 3;

/// A cell's three-tier policy: the learned table as tier 3, the surrogate
/// (when servable) as tier 2, gated by the cell's recorded accuracy against
/// a configured error budget.
#[derive(Debug)]
pub struct PolicyPredictor {
    /// Tier 3: the cell's learned-table backend (matrix preferred over
    /// checkpoint).
    table: Arc<Backend>,
    /// Tier 2: the cell's surrogate backend, when one loaded and verified.
    surrogate: Option<Arc<Backend>>,
    /// The cell's recorded `surrogate_vs_sim_mape` from its matrix record,
    /// when the sweep measured one.
    mape: Option<f64>,
    /// The configured `--error-budget` the MAPE is held against.
    budget: f64,
    /// Combined digest over both halves and the budget.
    fingerprint: String,
}

impl PolicyPredictor {
    /// The tier this policy answers `block` from — a pure function of the
    /// block and the cell's frozen metadata (see the module docs for the
    /// decision table).
    pub fn tier_for(&self, block: &BasicBlock) -> u8 {
        let Some(surrogate) = &self.surrogate else {
            return TIER_SIMULATOR;
        };
        if self.mape.unwrap_or(f64::INFINITY) > self.budget {
            return TIER_SIMULATOR;
        }
        if surrogate.predictor.replayable(block).unwrap_or(false) {
            TIER_SURROGATE
        } else {
            TIER_SIMULATOR
        }
    }

    /// The recorded surrogate-vs-simulator MAPE gating tier 2.
    pub fn mape(&self) -> Option<f64> {
        self.mape
    }

    /// The configured error budget.
    pub fn budget(&self) -> f64 {
        self.budget
    }
}

impl Predictor for PolicyPredictor {
    /// Routes every block to its tier's predictor and merges the answers
    /// back in request order. A batch that one tier answers whole goes to
    /// that tier untouched; only a mixed batch is split. Each sub-predictor
    /// sees one batch per call, and both sub-predictors are themselves
    /// deterministic and batch-composition-independent, so the merged
    /// answer is too.
    fn predict_batch(&self, blocks: &[BasicBlock]) -> Vec<f64> {
        let tiers: Vec<u8> = blocks.iter().map(|block| self.tier_for(block)).collect();
        let backend_for = |tier: u8| match tier {
            TIER_SURROGATE => self
                .surrogate
                .as_ref()
                .expect("tier 2 is only assigned when the surrogate exists"),
            _ => &self.table,
        };
        if let Some(&tier) = tiers.first() {
            if tiers.iter().all(|&other| other == tier) {
                return backend_for(tier).predictor.predict_batch(blocks);
            }
        }
        let mut out = vec![0.0_f64; blocks.len()];
        for tier in [TIER_SURROGATE, TIER_SIMULATOR] {
            let indices: Vec<usize> = (0..blocks.len()).filter(|&i| tiers[i] == tier).collect();
            if indices.is_empty() {
                continue;
            }
            let batch: Vec<BasicBlock> = indices.iter().map(|&i| blocks[i].clone()).collect();
            let answers = backend_for(tier).predictor.predict_batch(&batch);
            for (&index, answer) in indices.iter().zip(answers) {
                out[index] = answer;
            }
        }
        out
    }

    fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    fn kind(&self) -> &'static str {
        "policy"
    }

    fn tier_tag(&self, block: &BasicBlock) -> u8 {
        self.tier_for(block)
    }
}

/// Builds the `policy:<cell>` backend over a cell's learned-table backend
/// and (optional) surrogate backend.
///
/// The cache fingerprint folds both halves' cache fingerprints with the
/// budget and the recorded MAPE, so a reload that changes *any* tier input —
/// the table, the surrogate, the budget, or the measured accuracy — retires
/// the policy's cache entries exactly like a table swap retires a table's.
pub fn policy_backend(
    table: &Arc<Backend>,
    surrogate: Option<&Arc<Backend>>,
    mape: Option<f64>,
    budget: f64,
) -> Backend {
    let spec = table
        .spec
        .expect("policies are built over learned backends, which carry a spec");
    let id = BackendId {
        source: Source::Policy,
        simulator: table.simulator_kind,
        uarch: table.uarch,
        spec: Some(spec),
    }
    .to_string();
    let surrogate_fingerprint = surrogate.map_or(0, |backend| backend.cache_fingerprint);
    let cache_fingerprint = fnv1a(
        "policy"
            .bytes()
            .chain([0xff])
            .chain(table.cache_fingerprint.to_le_bytes())
            .chain([0xff])
            .chain(surrogate_fingerprint.to_le_bytes())
            .chain([0xff])
            .chain(budget.to_bits().to_le_bytes())
            .chain(mape.unwrap_or(f64::NAN).to_bits().to_le_bytes()),
    );
    let predictor = PolicyPredictor {
        table: Arc::clone(table),
        surrogate: surrogate.map(Arc::clone),
        mape,
        budget,
        fingerprint: format!("{cache_fingerprint:#018x}"),
    };
    Backend {
        id,
        source: Source::Policy,
        simulator_kind: table.simulator_kind,
        uarch: table.uarch,
        spec: Some(spec),
        table: table.table.clone(),
        // Responses echo the learned-table digest, not the policy digest:
        // whichever tier answers, the cell being served is the learned
        // table's, and clients pinning artifacts (and the reload tests)
        // track that digest across sources. The policy's own combined
        // digest lives in `cache_fingerprint` / `Predictor::fingerprint`.
        table_fingerprint: table.table_fingerprint.clone(),
        predictor: Box::new(predictor),
        cache_fingerprint,
    }
}
