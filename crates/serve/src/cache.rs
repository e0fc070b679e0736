//! Hot-query cache for the request scheduler.
//!
//! A bounded map from a query's *identity bits* to its [`TopK`] answer.
//! The key is the exact [`f32::to_bits`] image of the **unit-normalized**
//! query vector — normalization is the quantization step: every query is
//! projected onto the unit sphere before the engine scores it (see
//! `index::normalize_into`), so two queries that normalize to the same bit
//! pattern are *provably* answered identically by the engine, and the cache
//! can hand back a stored `TopK` without ever violating the scheduler's
//! bit-identical-to-`top_k` contract. Colinear queries that differ by an
//! exact power-of-two scale normalize to identical bits and still hit.
//!
//! `k` is fixed per engine (it lives in `ServeConfig`), so it does not need
//! to be part of the key; the scheduler owns one cache per engine.
//!
//! Eviction is least-recently-used via a monotone touch tick: `get` and
//! `insert` stamp the entry, and a full insert evicts the minimum-tick entry
//! with an O(capacity) scan. Capacities are small (hot set, not a store), so
//! the scan beats maintaining an intrusive list, and the map stays a plain
//! `HashMap` like the rest of the workspace's small-bounded structures.

use std::collections::HashMap;

use crate::topk::TopK;

/// Exact bit image of a normalized query — the cache key.
pub(crate) type QueryKey = Vec<u32>;

#[derive(Clone, Debug)]
struct Entry {
    answer: TopK,
    last_used: u64,
}

/// Bounded LRU map from normalized-query bits to `TopK` answers.
/// `capacity == 0` disables the cache (every lookup misses, inserts are
/// dropped), which is the scheduler's default.
#[derive(Debug, Default)]
pub(crate) struct QueryCache {
    entries: HashMap<QueryKey, Entry>,
    capacity: usize,
    tick: u64,
}

impl QueryCache {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::with_capacity(capacity),
            capacity,
            tick: 0,
        }
    }

    /// Bit image of a normalized query vector.
    pub(crate) fn key_of(unit_query: &[f32]) -> QueryKey {
        unit_query.iter().map(|value| value.to_bits()).collect()
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Looks up an answer and marks it most-recently-used.
    pub(crate) fn get(&mut self, key: &[u32]) -> Option<TopK> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(key)?;
        entry.last_used = tick;
        Some(entry.answer.clone())
    }

    /// Stores an answer, evicting the least-recently-used entry when full.
    pub(crate) fn insert(&mut self, key: QueryKey, answer: TopK) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.answer = answer;
            entry.last_used = tick;
            return;
        }
        if self.entries.len() >= self.capacity {
            // O(capacity) LRU scan; see the module docs for why this beats
            // an intrusive list at hot-set sizes.
            let evict = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key.clone());
            if let Some(evict) = evict {
                self.entries.remove(&evict);
            }
        }
        self.entries.insert(
            key,
            Entry {
                answer,
                last_used: tick,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::{BoundedTopK, Neighbor};

    fn answer(node: u32) -> TopK {
        let mut heap = BoundedTopK::new(1, 1);
        heap.push(Neighbor {
            node,
            score: 1.0 - node as f32 * 0.01,
        });
        heap.into_topk()
    }

    fn key(tag: u32) -> QueryKey {
        vec![tag, tag.wrapping_mul(31)]
    }

    #[test]
    fn get_returns_what_was_inserted() {
        let mut cache = QueryCache::new(4);
        cache.insert(key(1), answer(1));
        assert_eq!(cache.get(&key(1)), Some(answer(1)));
        assert_eq!(cache.get(&key(2)), None);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut cache = QueryCache::new(0);
        cache.insert(key(1), answer(1));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.get(&key(1)), None);
    }

    #[test]
    fn eviction_removes_the_least_recently_used() {
        let mut cache = QueryCache::new(2);
        cache.insert(key(1), answer(1));
        cache.insert(key(2), answer(2));
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), answer(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1)).is_some(), "recently used survives");
        assert_eq!(cache.get(&key(2)), None, "LRU entry evicted");
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn reinsert_updates_in_place_without_eviction() {
        let mut cache = QueryCache::new(2);
        cache.insert(key(1), answer(1));
        cache.insert(key(2), answer(2));
        cache.insert(key(1), answer(9));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(1)), Some(answer(9)));
        assert!(cache.get(&key(2)).is_some(), "update evicted nothing");
    }

    #[test]
    fn key_of_is_exact_bits() {
        let a = QueryCache::key_of(&[0.5, -0.25]);
        let b = QueryCache::key_of(&[0.5, -0.25]);
        let c = QueryCache::key_of(&[0.5, -0.25 + f32::EPSILON]);
        assert_eq!(a, b);
        assert_ne!(a, c, "any bit difference is a different key");
    }
}
