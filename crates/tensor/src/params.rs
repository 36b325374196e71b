//! Named parameter storage and gradient accumulation.

use serde::{Deserialize, Serialize};

use crate::Tensor;

/// Identifier of a parameter within a [`Params`] store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The dense index of this parameter.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A named store of trainable tensors.
///
/// Computation graphs borrow the store immutably; optimizers update it in
/// place between graph evaluations.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Params {
    names: Vec<String>,
    values: Vec<Tensor>,
}

impl Params {
    /// Creates an empty parameter store.
    pub fn new() -> Self {
        Params::default()
    }

    /// Adds a named parameter and returns its id.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.names.push(name.into());
        self.values.push(value);
        ParamId(self.values.len() - 1)
    }

    /// The value of a parameter.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable access to a parameter's value.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// The name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Looks up a parameter id by name.
    pub fn by_name(&self, name: &str) -> Option<ParamId> {
        self.names.iter().position(|n| n == name).map(ParamId)
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar values across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Iterates over `(id, name, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, value)| (ParamId(i), self.names[i].as_str(), value))
    }
}

/// Gradient accumulation buffers, one slot per parameter in a [`Params`] store.
///
/// Buffers are allocated lazily on first accumulation and reused across
/// samples, so per-sample backward passes do not reallocate large embedding
/// gradients.
///
/// A store **collects** a set of parameters: [`Grads::new`] collects every
/// parameter, [`Grads::only`] a subset. Accumulation into a parameter the
/// store does not collect is ignored, so its slot stays `None`, and
/// [`Graph::backward`](crate::Graph::backward) skips every tape node whose
/// gradient cannot reach a collected parameter. Collected slots hold the
/// same bits either way: a subset store is a full store with the other
/// slots never written.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Grads {
    slots: Vec<Option<Tensor>>,
    /// `None` collects every parameter; `Some(mask)` collects the ids whose
    /// entry is `true` (ids past the mask's end are not collected).
    collected: Option<Vec<bool>>,
}

impl Grads {
    /// Creates a gradient store matching a parameter store that collects
    /// every parameter.
    pub fn new(params: &Params) -> Self {
        Grads {
            slots: vec![None; params.len()],
            collected: None,
        }
    }

    /// Creates a gradient store that collects only the parameters in `ids`,
    /// which must belong to `params`.
    ///
    /// Use it when a loss is differentiated with respect to a few parameters
    /// while the rest stay frozen: the backward pass then does no work for
    /// the frozen ones.
    pub fn only(params: &Params, ids: &[ParamId]) -> Self {
        let mut collected = vec![false; params.len()];
        for id in ids {
            collected[id.0] = true;
        }
        Grads {
            slots: vec![None; params.len()],
            collected: Some(collected),
        }
    }

    /// True if this store collects gradients for `id`.
    pub(crate) fn collects(&self, id: ParamId) -> bool {
        self.collected
            .as_ref()
            .is_none_or(|mask| mask.get(id.0).copied().unwrap_or(false))
    }

    /// Makes this store collect the same set as `other`, dropping the slots
    /// of parameters it no longer collects. The [`Batch`](crate::Batch)
    /// engine gives its per-chunk stores the destination store's set.
    pub(crate) fn collect_like(&mut self, other: &Grads) {
        if self.collected != other.collected {
            self.collected.clone_from(&other.collected);
            for (index, slot) in self.slots.iter_mut().enumerate() {
                if !other.collects(ParamId(index)) {
                    *slot = None;
                }
            }
        }
    }

    /// The accumulated gradient for a parameter, if any was produced.
    pub fn get(&self, id: ParamId) -> Option<&Tensor> {
        self.slots.get(id.0).and_then(Option::as_ref)
    }

    /// Adds `value * scale` into the gradient slot for `id`; a no-op if the
    /// store does not collect `id`.
    pub fn accumulate(&mut self, id: ParamId, value: &Tensor, scale: f32) {
        if !self.collects(id) {
            return;
        }
        if self.slots.len() <= id.0 {
            self.slots.resize(id.0 + 1, None);
        }
        match &mut self.slots[id.0] {
            Some(existing) => existing.add_scaled(value, scale),
            slot @ None => {
                let mut fresh = Tensor::zeros(value.shape().to_vec());
                fresh.add_scaled(value, scale);
                *slot = Some(fresh);
            }
        }
    }

    /// Adds a single scaled value into one element of the gradient slot,
    /// allocating the slot (with the given shape) if needed. Used for sparse
    /// updates such as embedding rows. A no-op if the store does not collect
    /// `id`.
    pub fn accumulate_at(
        &mut self,
        id: ParamId,
        shape: &[usize],
        offset: usize,
        values: &[f32],
        scale: f32,
    ) {
        if !self.collects(id) {
            return;
        }
        if self.slots.len() <= id.0 {
            self.slots.resize(id.0 + 1, None);
        }
        let slot = self.slots[id.0].get_or_insert_with(|| Tensor::zeros(shape.to_vec()));
        let data = slot.data_mut();
        for (i, v) in values.iter().enumerate() {
            data[offset + i] += v * scale;
        }
    }

    /// Clears all accumulated gradients (keeping allocations).
    pub fn zero(&mut self) {
        for slot in self.slots.iter_mut().flatten() {
            slot.fill_zero();
        }
    }

    /// Resizes the slot table to match `params` and zeroes every already
    /// allocated buffer, keeping the allocations for reuse and the collected
    /// set. The deterministic [`Batch`](crate::Batch) engine calls this
    /// between batches so gradient slots stop allocating after the first
    /// batch. The store must keep being used with parameters of the same
    /// shapes; reusing it across different models panics on the first shape
    /// mismatch, as accumulation always has.
    ///
    /// Note the difference from a fresh [`Grads::new`]: a slot that was ever
    /// populated stays `Some` (holding zeros) rather than reverting to
    /// `None`, so optimizers that skip `None` slots (see
    /// [`optim`](crate::optim)) will treat a parameter untouched in this
    /// batch but touched earlier as having an explicit zero gradient — Adam
    /// then still decays its moments and applies a step. Today every model
    /// touches every parameter each batch, so the two behave identically;
    /// a future sparse model should reconsider this before reusing a store
    /// across batches.
    pub fn reset(&mut self, params: &Params) {
        self.slots.resize(params.len(), None);
        self.zero();
    }

    /// Merges another gradient store into this one (summing overlapping
    /// slots). Slots of parameters this store does not collect are ignored.
    pub fn merge(&mut self, other: &Grads) {
        if self.slots.len() < other.slots.len() {
            self.slots.resize(other.slots.len(), None);
        }
        for (i, slot) in other.slots.iter().enumerate() {
            if let Some(grad) = slot {
                self.accumulate(ParamId(i), grad, 1.0);
            }
        }
    }

    /// The global L2 norm over all accumulated gradients.
    pub fn global_norm(&self) -> f32 {
        self.slots
            .iter()
            .flatten()
            .map(|t| t.data().iter().map(|v| v * v).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scales every accumulated gradient by a constant (used for gradient
    /// clipping and for averaging over a batch).
    pub fn scale(&mut self, factor: f32) {
        for slot in self.slots.iter_mut().flatten() {
            for v in slot.data_mut() {
                *v *= factor;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_add_and_lookup() {
        let mut params = Params::new();
        let a = params.add("a", Tensor::vector(vec![1.0, 2.0]));
        let b = params.add("b", Tensor::scalar(5.0));
        assert_eq!(params.len(), 2);
        assert_eq!(params.num_scalars(), 3);
        assert_eq!(params.by_name("a"), Some(a));
        assert_eq!(params.by_name("missing"), None);
        assert_eq!(params.name(b), "b");
        params.get_mut(a).data_mut()[0] = 9.0;
        assert_eq!(params.get(a).data(), &[9.0, 2.0]);
    }

    #[test]
    fn grads_accumulate_and_zero() {
        let mut params = Params::new();
        let a = params.add("a", Tensor::vector(vec![0.0, 0.0]));
        let mut grads = Grads::new(&params);
        assert!(grads.get(a).is_none());
        grads.accumulate(a, &Tensor::vector(vec![1.0, 2.0]), 2.0);
        grads.accumulate(a, &Tensor::vector(vec![1.0, 1.0]), 1.0);
        assert_eq!(grads.get(a).unwrap().data(), &[3.0, 5.0]);
        grads.zero();
        assert_eq!(grads.get(a).unwrap().data(), &[0.0, 0.0]);
    }

    #[test]
    fn sparse_accumulation_and_merge() {
        let mut params = Params::new();
        let table = params.add("table", Tensor::matrix(3, 2, vec![0.0; 6]));
        let mut g1 = Grads::new(&params);
        g1.accumulate_at(table, &[3, 2], 2, &[1.0, 2.0], 1.0);
        let mut g2 = Grads::new(&params);
        g2.accumulate_at(table, &[3, 2], 2, &[10.0, 10.0], 0.5);
        g1.merge(&g2);
        assert_eq!(
            g1.get(table).unwrap().data(),
            &[0.0, 0.0, 6.0, 7.0, 0.0, 0.0]
        );
    }

    #[test]
    fn a_subset_store_ignores_what_it_does_not_collect() {
        let mut params = Params::new();
        let a = params.add("a", Tensor::vector(vec![0.0, 0.0]));
        let table = params.add("table", Tensor::matrix(2, 2, vec![0.0; 4]));
        let mut full = Grads::new(&params);
        full.accumulate(a, &Tensor::vector(vec![1.0, 2.0]), 1.0);
        full.accumulate_at(table, &[2, 2], 2, &[3.0, 4.0], 1.0);

        let mut only_a = Grads::only(&params, &[a]);
        assert!(only_a.collects(a) && !only_a.collects(table));
        only_a.accumulate(a, &Tensor::vector(vec![1.0, 2.0]), 1.0);
        only_a.accumulate(table, &Tensor::matrix(2, 2, vec![1.0; 4]), 1.0);
        only_a.accumulate_at(table, &[2, 2], 2, &[3.0, 4.0], 1.0);
        assert_eq!(only_a.get(a), full.get(a));
        assert!(only_a.get(table).is_none());

        only_a.reset(&params);
        only_a.merge(&full);
        assert_eq!(only_a.get(a), full.get(a));
        assert!(only_a.get(table).is_none(), "reset keeps the set");

        // A per-chunk store taking over a destination's set drops the slots
        // it no longer collects.
        full.collect_like(&only_a);
        assert!(full.get(table).is_none() && full.get(a).is_some());
        assert!(Grads::only(&params, &[a, table]).collects(table));
    }

    #[test]
    fn global_norm_and_scale() {
        let mut params = Params::new();
        let a = params.add("a", Tensor::vector(vec![0.0, 0.0]));
        let mut grads = Grads::new(&params);
        grads.accumulate(a, &Tensor::vector(vec![3.0, 4.0]), 1.0);
        assert!((grads.global_norm() - 5.0).abs() < 1e-6);
        grads.scale(0.5);
        assert_eq!(grads.get(a).unwrap().data(), &[1.5, 2.0]);
    }
}
