//! The three-tier prediction policy: LRU cache → surrogate → simulator.
//!
//! DiffTune's deployment bargain ("Programming with Neural Surrogates of
//! Programs", Renda et al. 2021) is to serve the learned surrogate as the
//! fast path and fall back to the original program when confidence is low.
//! [`PolicyPredictor`] is that bargain as a [`Predictor`]: for one cell it
//! pairs the cell's learned table (the full simulator, tier 3) with the
//! cell's surrogate (tier 2) and answers from exactly one of them —
//! tier 1, the per-shard LRU, lives in the server's cache pass and is keyed
//! by the tier tag this module computes, so a cached block never re-enters
//! the policy at all.
//!
//! The tier is decided once per cell, when [`policy_backend`] builds the
//! policy, from the cell's frozen metadata alone:
//!
//! * tier 3 (simulator) when the cell has no servable surrogate at all;
//! * tier 3 when the cell's recorded `surrogate_vs_sim_mape` exceeds the
//!   configured `--error-budget` (an unknown MAPE only clears an infinite
//!   budget — trust requires evidence);
//! * tier 2 (surrogate) otherwise.
//!
//! Every block of a cell therefore takes the same tier: both servable model
//! families answer every non-empty block, so no block needs a check of its
//! own.
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

/// A cell's three-tier policy: every block goes to the tier chosen for the
/// cell — the learned table (tier 3) or the surrogate (tier 2).
#[derive(Debug)]
pub struct PolicyPredictor {
    /// The tier answering this cell: [`TIER_SURROGATE`] or
    /// [`TIER_SIMULATOR`].
    tier: u8,
    /// The backend of that tier.
    answer: Arc<Backend>,
    /// Combined digest over both halves and the budget.
    fingerprint: String,
}

impl Predictor for PolicyPredictor {
    /// Hands the batch whole to the cell's tier.
    fn predict_batch(&self, blocks: &[BasicBlock]) -> Vec<f64> {
        self.answer.predictor.predict_batch(blocks)
    }

    fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    fn kind(&self) -> &'static str {
        "policy"
    }

    /// The cell's tier: the same for every block.
    fn tier_tag(&self, _block: &BasicBlock) -> u8 {
        self.tier
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
    let (tier, answer) = match surrogate {
        Some(surrogate) if mape.unwrap_or(f64::INFINITY) <= budget => (TIER_SURROGATE, surrogate),
        _ => (TIER_SIMULATOR, table),
    };
    let predictor = PolicyPredictor {
        tier,
        answer: Arc::clone(answer),
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
