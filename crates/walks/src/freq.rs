//! Machine-local walk-frequency storage for InCoM (§3.1).
//!
//! Every machine keeps, per walk currently executing on it, the occurrence
//! counts of the nodes that walk accepted locally — the "local frequency
//! lists" of Figure 2. The walk engine queries and bumps one `(walk, node)`
//! count per accepted node, and drops a walk's whole list the moment the
//! walk terminates, so the access pattern is:
//!
//! * `accept(walk, node)` — extremely hot, once per accepted node;
//! * `release(walk)` — once per walk termination.
//!
//! [`FreqStore`] serves this pattern with a single open-addressed
//! directory (walk id → list handle, hashed with a SplitMix-style finalizer
//! instead of std's SipHash) over a pool of compact `(node, count)` lists
//! that are recycled through a free-list when walks terminate. In steady
//! state `accept` touches one directory slot plus one short contiguous list
//! and allocates nothing.
//!
//! The seed's `HashMap<walk, HashMap<node, count>>` store survives only in
//! this module's tests, as the oracle a property test drives through random
//! `accept` / `release` / `clear` sequences next to [`FreqStore`]. Walk-level
//! equivalence is InCoM ≡ full-path (`prop_walks`): the full-path mode never
//! consults a frequency store, so equal corpora mean equal counts.

use crate::rng::mix64;
use distger_graph::NodeId;

/// Empty-slot marker in the directory. Walk ids are `round · |V| + source`,
/// which never reaches `u64::MAX` in practice.
const EMPTY: u64 = u64::MAX;

/// Minimum directory capacity (power of two).
const MIN_CAPACITY: usize = 16;

/// SplitMix64-style finalizer: cheap, statistically strong scrambling of
/// sequential walk ids (std's default SipHash costs ~10× more per probe).
#[inline]
fn mix(walk_id: u64) -> u64 {
    mix64(walk_id.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// Flat per-machine frequency store: open-addressed walk directory plus
/// recycled compact count lists.
#[derive(Clone, Debug, Default)]
pub struct FreqStore {
    /// Directory keys (walk ids), `EMPTY` marks a free slot.
    keys: Vec<u64>,
    /// Directory values: index into `lists`, parallel to `keys`.
    handles: Vec<u32>,
    /// Number of occupied directory slots.
    occupied: usize,
    /// Per-walk `(node, count)` lists; cleared lists keep their capacity.
    lists: Vec<Vec<(NodeId, u32)>>,
    /// Indices of `lists` entries available for reuse.
    free: Vec<u32>,
}

impl FreqStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn mask(&self) -> usize {
        self.keys.len() - 1
    }

    /// Index of `walk_id`'s directory slot, or of the empty slot where it
    /// would be inserted.
    #[inline]
    fn probe(&self, walk_id: u64) -> usize {
        let mask = self.mask();
        let mut i = (mix(walk_id) as usize) & mask;
        loop {
            let k = self.keys[i];
            if k == walk_id || k == EMPTY {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.keys.len() * 2).max(MIN_CAPACITY);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_handles = std::mem::replace(&mut self.handles, vec![0; new_cap]);
        for (k, h) in old_keys.into_iter().zip(old_handles) {
            if k != EMPTY {
                let slot = self.probe(k);
                self.keys[slot] = k;
                self.handles[slot] = h;
            }
        }
    }

    /// Records that `walk_id` accepted `node` on this machine and returns the
    /// number of times the walk had accepted that node here **before** this
    /// acceptance (the `n_L` input of Theorem 1).
    pub fn accept(&mut self, walk_id: u64, node: NodeId) -> u32 {
        if self.keys.is_empty() {
            self.grow();
        }
        let mut slot = self.probe(walk_id);
        let list_idx = if self.keys[slot] == EMPTY {
            // Grow only when actually inserting, keeping the load factor
            // below 7/8; pure lookups never trigger a rehash.
            if (self.occupied + 1) * 8 > self.keys.len() * 7 {
                self.grow();
                slot = self.probe(walk_id);
            }
            self.keys[slot] = walk_id;
            self.occupied += 1;
            let idx = match self.free.pop() {
                Some(idx) => idx,
                None => {
                    self.lists.push(Vec::new());
                    (self.lists.len() - 1) as u32
                }
            };
            self.handles[slot] = idx;
            idx
        } else {
            self.handles[slot]
        };
        let list = &mut self.lists[list_idx as usize];
        // Walks are short (≤ 80 nodes), so a linear scan over the compact
        // list is cache-friendly and cheaper than any per-walk hashing.
        for entry in list.iter_mut() {
            if entry.0 == node {
                let prev = entry.1;
                entry.1 += 1;
                return prev;
            }
        }
        list.push((node, 1));
        0
    }

    /// Drops `walk_id`'s frequency list (the walk terminated, §3.1); its
    /// allocation is recycled for future walks. A no-op for unknown walks.
    pub fn release(&mut self, walk_id: u64) {
        if self.keys.is_empty() {
            return;
        }
        let slot = self.probe(walk_id);
        if self.keys[slot] == EMPTY {
            return;
        }
        let list_idx = self.handles[slot];
        self.lists[list_idx as usize].clear();
        self.free.push(list_idx);
        self.occupied -= 1;

        // Backward-shift deletion keeps probe chains intact without
        // tombstones: slide later chain members into the hole.
        let mask = self.mask();
        let mut hole = slot;
        let mut i = (slot + 1) & mask;
        while self.keys[i] != EMPTY {
            let home = (mix(self.keys[i]) as usize) & mask;
            // `i` can fill the hole iff its home position does not lie
            // (cyclically) strictly between the hole and `i`.
            let between = if hole <= i {
                hole < home && home <= i
            } else {
                hole < home || home <= i
            };
            if !between {
                self.keys[hole] = self.keys[i];
                self.handles[hole] = self.handles[i];
                self.keys[i] = EMPTY;
                hole = i;
            }
            i = (i + 1) & mask;
        }
        self.keys[hole] = EMPTY;
    }

    /// Forgets every walk while keeping the directory and the list pool
    /// allocated — the round-boundary reset of the run-scoped walk engine:
    /// walks that hopped away and terminated elsewhere never `release` their
    /// local list, so without this the store would leak one list per
    /// departed walk per round.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.occupied = 0;
        self.free.clear();
        for (idx, list) in self.lists.iter_mut().enumerate() {
            list.clear();
            self.free.push(idx as u32);
        }
    }

    /// Number of walks with a live frequency list.
    pub fn active_walks(&self) -> usize {
        self.occupied
    }

    /// Estimated resident bytes (directory plus count-list pool).
    pub fn memory_bytes(&self) -> usize {
        self.keys.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
            + self
                .lists
                .iter()
                .map(|l| l.capacity() * std::mem::size_of::<(NodeId, u32)>())
                .sum::<usize>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn accept_counts_per_walk_and_node() {
        let mut s = FreqStore::new();
        assert_eq!(s.accept(7, 3), 0);
        assert_eq!(s.accept(7, 3), 1);
        assert_eq!(s.accept(7, 3), 2);
        assert_eq!(s.accept(7, 4), 0);
        assert_eq!(s.accept(8, 3), 0, "walks are independent");
        assert_eq!(s.active_walks(), 2);
    }

    #[test]
    fn release_forgets_and_recycles() {
        let mut s = FreqStore::new();
        s.accept(1, 10);
        s.accept(1, 10);
        s.accept(2, 10);
        s.release(1);
        assert_eq!(s.active_walks(), 1);
        assert_eq!(s.accept(1, 10), 0, "released walk restarts from zero");
        // Walk 2 is untouched by walk 1's release.
        assert_eq!(s.accept(2, 10), 1);
        // Releasing an unknown walk is a no-op.
        s.release(99);
        assert_eq!(s.active_walks(), 2);
    }

    #[test]
    fn growth_keeps_all_counts() {
        let mut s = FreqStore::new();
        for walk in 0..1000u64 {
            for node in 0..4u32 {
                s.accept(walk, node);
            }
            s.accept(walk, 0);
        }
        assert_eq!(s.active_walks(), 1000);
        for walk in 0..1000u64 {
            assert_eq!(s.accept(walk, 0), 2, "walk {walk} lost its count");
            assert_eq!(s.accept(walk, 3), 1);
        }
    }

    #[test]
    fn interleaved_release_preserves_probe_chains() {
        // Many walks, released in an order designed to exercise the
        // backward-shift deletion across wrapped probe chains.
        let mut s = FreqStore::new();
        let walks: Vec<u64> = (0..500).map(|i| i * 17 + 3).collect();
        for &w in &walks {
            s.accept(w, (w % 50) as NodeId);
        }
        for &w in walks.iter().step_by(2) {
            s.release(w);
        }
        for &w in walks.iter().skip(1).step_by(2) {
            assert_eq!(s.accept(w, (w % 50) as NodeId), 1, "walk {w} lost");
        }
        for &w in walks.iter().step_by(2) {
            assert_eq!(s.accept(w, (w % 50) as NodeId), 0, "walk {w} leaked");
        }
    }

    /// The seed's nested-`HashMap` store: the oracle [`FreqStore`] is
    /// checked against.
    #[derive(Default)]
    struct NestedFreqStore {
        map: HashMap<u64, HashMap<NodeId, u32>>,
    }

    impl NestedFreqStore {
        fn accept(&mut self, walk_id: u64, node: NodeId) -> u32 {
            let entry = self
                .map
                .entry(walk_id)
                .or_default()
                .entry(node)
                .or_insert(0);
            *entry += 1;
            *entry - 1
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Flat ≡ nested over random `accept` / `release` / `clear`
        /// sequences: every `accept` returns the oracle's prior count, and
        /// both agree on the live-walk count after every operation. Few walk
        /// ids and nodes make repeats, releases of live walks and backward
        /// shifts across probe chains common.
        #[test]
        fn flat_store_matches_the_nested_oracle(
            ops in prop::collection::vec((0u32..64, 0u64..97, 0u32..13), 0..3000),
        ) {
            let (mut flat, mut nested) = (FreqStore::new(), NestedFreqStore::default());
            for (op, walk, node) in ops {
                match op {
                    0 => {
                        flat.clear();
                        nested.map.clear();
                    }
                    1..=3 => {
                        flat.release(walk);
                        nested.map.remove(&walk);
                    }
                    _ => prop_assert_eq!(flat.accept(walk, node), nested.accept(walk, node)),
                }
                prop_assert_eq!(flat.active_walks(), nested.map.len());
            }
        }
    }

    #[test]
    fn clear_forgets_everything_and_recycles_all_lists() {
        let mut s = FreqStore::new();
        for walk in 0..200u64 {
            s.accept(walk, (walk % 9) as NodeId);
            s.accept(walk, (walk % 9) as NodeId);
        }
        let resident = s.memory_bytes();
        s.clear();
        assert_eq!(s.active_walks(), 0);
        // Counts restart from zero and pooled capacity is reused, not grown.
        for walk in 0..200u64 {
            assert_eq!(s.accept(walk, (walk % 9) as NodeId), 0, "walk {walk}");
        }
        assert!(s.memory_bytes() <= resident + 256 * std::mem::size_of::<u32>());
    }

    #[test]
    fn round_reset_drops_departed_walks_and_reuses_allocations() {
        // The round-boundary contract (see `FreqStore::clear`): walks
        // that hop to another machine and terminate there never `release`
        // their local list — only `clear` reclaims it. Simulate several
        // rounds of that.
        let mut store = FreqStore::new();
        let mut peak = 0usize;
        for round in 0..5u64 {
            for walk in 0..300u64 {
                let id = round * 300 + walk;
                store.accept(id, (walk % 11) as NodeId);
                store.accept(id, (walk % 11) as NodeId);
                if walk % 3 == 0 {
                    // Terminated locally: releases its list.
                    store.release(id);
                }
                // walk % 3 != 0: departed mid-walk, no release — the round
                // reset must reclaim these.
            }
            assert_eq!(store.active_walks(), 200, "round {round}");
            store.clear();
            assert_eq!(store.active_walks(), 0, "round {round} leaked walks");
            if round == 0 {
                peak = store.memory_bytes();
            } else {
                assert!(
                    store.memory_bytes() <= peak,
                    "round {round}: resident bytes grew across identical \
                     fill/clear cycles ({} > {peak}) — allocations are not \
                     being recycled",
                    store.memory_bytes()
                );
            }
        }
        // Counts restart from zero after a reset.
        assert_eq!(store.accept(0, 5), 0);
    }

    #[test]
    fn memory_accounting_is_positive_and_bounded() {
        let mut s = FreqStore::new();
        for walk in 0..64u64 {
            for node in 0..8u32 {
                s.accept(walk, node);
            }
        }
        let full = s.memory_bytes();
        assert!(full > 0);
        for walk in 0..64u64 {
            s.release(walk);
        }
        // Released lists keep their capacity (they are pooled), so memory
        // does not shrink — but it must not grow either.
        assert!(s.memory_bytes() <= full + 64 * std::mem::size_of::<u32>());
        assert_eq!(s.active_walks(), 0);
    }
}
