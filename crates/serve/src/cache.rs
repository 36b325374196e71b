//! The fingerprint-keyed prediction cache.
//!
//! Every `(block, backend)` pair maps to exactly one prediction — simulators
//! are pure functions — so serving can memoize aggressively: the cache key is
//! the block's structural FNV-1a key ([`crate::backend::block_key`]) crossed
//! with the backend's fingerprint (simulator kind × table digest), and the
//! value is the predicted timing. Because a hit returns the same `f64` the
//! simulator would recompute, the cache affects latency only, never response
//! bytes — the cold-vs-warm bit-identity the e2e suite asserts.
//!
//! The implementation is a hand-rolled LRU (no external crates in this
//! workspace): a `HashMap` index into a slab of doubly-linked slots, O(1)
//! lookup, insert, refresh, and eviction.

use std::collections::HashMap;

/// A cache key: `(block fingerprint, backend fingerprint, tier tag)`.
///
/// The tier tag is `0` for ordinary backends; policy backends tag each
/// block with the tier that answered it (2 = surrogate, 3 = simulator), so
/// a cached policy answer stays attributable to its tier in the metrics.
/// The tier is a pure function of the block and the policy's frozen
/// metadata, so a block still maps to exactly one key.
pub type CacheKey = (u64, u64, u8);

/// Sentinel for "no neighbor" in the intrusive list.
const NONE: usize = usize::MAX;

#[derive(Debug)]
struct Slot {
    key: CacheKey,
    value: f64,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used map from [`CacheKey`] to a predicted
/// timing. Capacity 0 disables caching (every lookup misses, inserts are
/// dropped).
#[derive(Debug)]
pub struct LruCache {
    map: HashMap<CacheKey, usize>,
    slots: Vec<Slot>,
    /// Slots vacated by [`LruCache::remove`], reused before the slab grows.
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot (the eviction candidate).
    tail: usize,
    capacity: usize,
}

impl LruCache {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            slots: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            head: NONE,
            tail: NONE,
            capacity,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up a key, marking it most recently used on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<f64> {
        let index = *self.map.get(key)?;
        self.detach(index);
        self.attach_front(index);
        Some(self.slots[index].value)
    }

    /// Inserts (or refreshes) an entry, evicting the least recently used
    /// entry when at capacity.
    pub fn insert(&mut self, key: CacheKey, value: f64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&index) = self.map.get(&key) {
            self.slots[index].value = value;
            self.detach(index);
            self.attach_front(index);
            return;
        }
        let index = if self.map.len() < self.capacity {
            if let Some(index) = self.free.pop() {
                self.slots[index].key = key;
                self.slots[index].value = value;
                index
            } else {
                let index = self.slots.len();
                self.slots.push(Slot {
                    key,
                    value,
                    prev: NONE,
                    next: NONE,
                });
                index
            }
        } else {
            // Reuse the least-recently-used slot in place.
            let index = self.tail;
            self.detach(index);
            self.map.remove(&self.slots[index].key);
            self.slots[index].key = key;
            self.slots[index].value = value;
            index
        };
        self.map.insert(key, index);
        self.attach_front(index);
    }

    /// Removes one entry, returning its value if it was cached.
    pub fn remove(&mut self, key: &CacheKey) -> Option<f64> {
        let index = self.map.remove(key)?;
        self.detach(index);
        self.free.push(index);
        Some(self.slots[index].value)
    }

    /// Drops every entry belonging to one backend fingerprint (the second
    /// half of the cache key) — the hot-reload invalidation path. Returns the
    /// number of entries removed.
    pub fn purge_backend(&mut self, backend_fingerprint: u64) -> usize {
        let stale: Vec<CacheKey> = self
            .map
            .keys()
            .filter(|(_, backend, _)| *backend == backend_fingerprint)
            .copied()
            .collect();
        for key in &stale {
            self.remove(key);
        }
        stale.len()
    }

    /// The cached keys from most to least recently used (test/debug helper).
    pub fn keys_most_recent_first(&self) -> Vec<CacheKey> {
        let mut keys = Vec::with_capacity(self.map.len());
        let mut cursor = self.head;
        while cursor != NONE {
            keys.push(self.slots[cursor].key);
            cursor = self.slots[cursor].next;
        }
        keys
    }

    /// Unlinks a slot from the recency list.
    fn detach(&mut self, index: usize) {
        let (prev, next) = (self.slots[index].prev, self.slots[index].next);
        if prev != NONE {
            self.slots[prev].next = next;
        } else if self.head == index {
            self.head = next;
        }
        if next != NONE {
            self.slots[next].prev = prev;
        } else if self.tail == index {
            self.tail = prev;
        }
        self.slots[index].prev = NONE;
        self.slots[index].next = NONE;
    }

    /// Links a slot in as most recently used.
    fn attach_front(&mut self, index: usize) {
        self.slots[index].next = self.head;
        self.slots[index].prev = NONE;
        if self.head != NONE {
            self.slots[self.head].prev = index;
        }
        self.head = index;
        if self.tail == NONE {
            self.tail = index;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        (n, 0xb1, 0)
    }

    #[test]
    fn inserts_evict_in_least_recently_used_order() {
        let mut cache = LruCache::new(3);
        cache.insert(key(1), 1.0);
        cache.insert(key(2), 2.0);
        cache.insert(key(3), 3.0);
        assert_eq!(cache.keys_most_recent_first(), vec![key(3), key(2), key(1)]);

        // Over capacity: the oldest entry (1) goes first.
        cache.insert(key(4), 4.0);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.get(&key(1)), None);
        assert_eq!(cache.keys_most_recent_first(), vec![key(4), key(3), key(2)]);

        // And then 2, 3, 4 in turn — strict FIFO when nothing is touched.
        cache.insert(key(5), 5.0);
        cache.insert(key(6), 6.0);
        cache.insert(key(7), 7.0);
        assert_eq!(cache.keys_most_recent_first(), vec![key(7), key(6), key(5)]);
    }

    #[test]
    fn a_hit_refreshes_recency_and_changes_the_eviction_victim() {
        let mut cache = LruCache::new(3);
        cache.insert(key(1), 1.0);
        cache.insert(key(2), 2.0);
        cache.insert(key(3), 3.0);

        // Touch the oldest entry; now 2 is the eviction candidate.
        assert_eq!(cache.get(&key(1)), Some(1.0));
        assert_eq!(cache.keys_most_recent_first(), vec![key(1), key(3), key(2)]);
        cache.insert(key(4), 4.0);
        assert_eq!(cache.get(&key(2)), None, "2 was least recently used");
        assert_eq!(cache.get(&key(1)), Some(1.0), "1 was refreshed and kept");
    }

    #[test]
    fn reinserting_updates_the_value_and_recency_without_growing() {
        let mut cache = LruCache::new(2);
        cache.insert(key(1), 1.0);
        cache.insert(key(2), 2.0);
        cache.insert(key(1), 10.0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(1)), Some(10.0));
        cache.insert(key(3), 3.0);
        assert_eq!(
            cache.get(&key(2)),
            None,
            "2 was the oldest after 1's refresh"
        );
    }

    #[test]
    fn distinct_backends_do_not_collide() {
        let mut cache = LruCache::new(4);
        cache.insert((7, 100, 0), 1.5);
        cache.insert((7, 200, 0), 2.5);
        assert_eq!(cache.get(&(7, 100, 0)), Some(1.5));
        assert_eq!(cache.get(&(7, 200, 0)), Some(2.5));
    }

    #[test]
    fn distinct_tier_tags_do_not_collide_and_purge_crosses_tiers() {
        let mut cache = LruCache::new(4);
        cache.insert((7, 100, 2), 1.5);
        cache.insert((7, 100, 3), 2.5);
        assert_eq!(cache.get(&(7, 100, 2)), Some(1.5));
        assert_eq!(cache.get(&(7, 100, 3)), Some(2.5));
        assert_eq!(cache.purge_backend(100), 2, "purge ignores the tier tag");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = LruCache::new(0);
        cache.insert(key(1), 1.0);
        assert!(cache.is_empty());
        assert_eq!(cache.get(&key(1)), None);
    }

    #[test]
    fn removed_entries_free_their_slots_for_reuse() {
        let mut cache = LruCache::new(3);
        cache.insert(key(1), 1.0);
        cache.insert(key(2), 2.0);
        cache.insert(key(3), 3.0);

        assert_eq!(cache.remove(&key(2)), Some(2.0));
        assert_eq!(cache.remove(&key(2)), None, "already removed");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.keys_most_recent_first(), vec![key(3), key(1)]);

        // The vacated slot is reused without growing the slab, and the list
        // stays coherent through further inserts and evictions.
        cache.insert(key(4), 4.0);
        cache.insert(key(5), 5.0);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.get(&key(1)), None, "evicted as least recent");
        assert_eq!(cache.keys_most_recent_first(), vec![key(5), key(4), key(3)]);
    }

    #[test]
    fn purging_a_backend_removes_exactly_its_entries() {
        let mut cache = LruCache::new(8);
        for n in 0..3 {
            cache.insert((n, 100, 0), n as f64);
            cache.insert((n, 200, 0), n as f64 + 10.0);
        }
        assert_eq!(cache.purge_backend(100), 3);
        assert_eq!(cache.len(), 3);
        for n in 0..3 {
            assert_eq!(cache.get(&(n, 100, 0)), None);
            assert_eq!(cache.get(&(n, 200, 0)), Some(n as f64 + 10.0));
        }
        assert_eq!(cache.purge_backend(100), 0, "nothing left to purge");
    }

    #[test]
    fn a_single_slot_cache_stays_consistent() {
        let mut cache = LruCache::new(1);
        for n in 0..100 {
            cache.insert(key(n), n as f64);
            assert_eq!(cache.len(), 1);
            assert_eq!(cache.get(&key(n)), Some(n as f64));
            if n > 0 {
                assert_eq!(cache.get(&key(n - 1)), None);
            }
        }
    }
}
