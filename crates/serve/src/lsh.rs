//! Approximate top-k: random-hyperplane LSH with multi-probe buckets.
//!
//! Sign-random-projection hashing (Charikar's SimHash) is the natural LSH
//! family for cosine similarity: a signature bit is the side of a random
//! hyperplane a vector falls on, and two vectors at angle `θ` agree on a bit
//! with probability `1 − θ/π`. The index keeps `tables` independent
//! signature tables; a query gathers the nodes in its own bucket of every
//! table, plus — **multi-probe** — the buckets at Hamming distance 1 reached
//! by flipping the query's *least confident* bits (smallest `|q · plane|`
//! margin first), which recovers most of the recall extra tables would buy
//! without their memory. Candidates are deduplicated and handed to the exact
//! scorer for re-ranking, so LSH results are always *true* cosine scores over
//! a candidate subset — the only approximation is which nodes get scored.

use crate::index::EmbeddingIndex;
use crate::normal::gaussian;
use crate::workers::Workers;
use distger_cluster::machine_split;
use distger_embed::kernel::dot;
use distger_graph::NodeId;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// The most hash tables one index may hold. A LOAD payload's `tables` comes
/// from a peer and is checked against this before any hyperplane is drawn:
/// the index draws `tables × bits × dim` of them.
pub(crate) const MAX_TABLES: usize = 64;

/// Configuration of the LSH backend.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LshConfig {
    /// Signature width per table in bits (1..=24). More bits → smaller
    /// buckets → fewer candidates but lower recall.
    pub bits: u32,
    /// Number of independent hash tables (1..=64). More tables → higher
    /// recall, linearly more memory and candidate-gathering work.
    pub tables: usize,
    /// Extra Hamming-distance-1 buckets probed per table, least-confident
    /// bits first (0 disables multi-probe).
    pub probes: usize,
    /// Seed of the random hyperplanes; a fixed seed makes the whole backend
    /// deterministic.
    pub seed: u64,
}

impl Default for LshConfig {
    fn default() -> Self {
        Self {
            bits: 16,
            tables: 8,
            probes: 8,
            seed: 0x15AC,
        }
    }
}

/// Built signature tables over an [`EmbeddingIndex`].
#[derive(Clone, Debug)]
pub struct LshIndex {
    dim: usize,
    bits: u32,
    probes: usize,
    /// `tables × bits` hyperplane normals, each of length `dim`, row-major.
    planes: Vec<f32>,
    /// Per table: signature → nodes, nodes in ascending id order (buckets are
    /// filled by one in-order pass over the index).
    buckets: Vec<HashMap<u32, Vec<NodeId>>>,
}

/// Per-thread scratch for candidate gathering: an epoch-stamped seen set (no
/// `O(n)` clearing between queries) and the per-bit margin buffer.
#[derive(Clone, Debug)]
pub struct ProbeScratch {
    stamps: Vec<u32>,
    epoch: u32,
    margins: Vec<f32>,
    flip_order: Vec<usize>,
}

impl ProbeScratch {
    /// Scratch sized for `index`.
    pub fn for_index(lsh: &LshIndex, index: &EmbeddingIndex) -> Self {
        Self {
            stamps: vec![0; index.num_nodes()],
            epoch: 0,
            margins: vec![0.0; lsh.bits as usize],
            flip_order: (0..lsh.bits as usize).collect(),
        }
    }
}

impl LshIndex {
    /// Draws the hyperplanes from `config.seed` and buckets every node of
    /// `index` in all tables.
    ///
    /// # Panics
    /// Panics if `bits` is outside `1..=24` or `tables` outside `1..=64`.
    pub fn build(index: &EmbeddingIndex, config: &LshConfig) -> Self {
        let mut lsh = Self::unfilled(index.dim(), config);
        let mut signatures = Vec::new();
        lsh.sign(index, 0..index.num_nodes(), &mut signatures);
        lsh.fill(0, &signatures);
        lsh
    }

    /// [`build`](Self::build) with the signatures computed in contiguous
    /// node chunks on the calling thread and `workers`' helpers. The buckets
    /// are filled in node order on the calling thread, so the index is the
    /// one `build` makes.
    pub(crate) fn build_on(
        index: &Arc<EmbeddingIndex>,
        config: &LshConfig,
        workers: &Workers,
    ) -> Self {
        let mut lsh = Self::unfilled(index.dim(), config);
        let participants = workers.helpers() + 1;
        let chunks: Arc<Vec<Mutex<Vec<u32>>>> =
            Arc::new((0..participants).map(|_| Mutex::default()).collect());
        let job = {
            let signer = lsh.clone();
            let index = Arc::clone(index);
            let chunks = Arc::clone(&chunks);
            move |participant, participants| {
                let nodes = machine_split(index.num_nodes(), participants, participant);
                let mut signatures = Vec::with_capacity(nodes.len() * signer.tables());
                signer.sign(&index, nodes, &mut signatures);
                // Each participant locks only its own chunk, and no code
                // panics while holding it.
                *chunks[participant]
                    .lock()
                    .expect("chunk lock is never poisoned") = signatures;
            }
        };
        workers.run(participants, Arc::new(job));
        let mut first = 0;
        for chunk in chunks.iter() {
            let signatures = std::mem::take(&mut *chunk.lock().expect("signing has finished"));
            lsh.fill(first, &signatures);
            first += signatures.len() / lsh.tables();
        }
        lsh
    }

    /// Hyperplanes drawn, buckets empty.
    fn unfilled(dim: usize, config: &LshConfig) -> Self {
        assert!(
            (1..=24).contains(&config.bits),
            "signature width must be 1..=24 bits"
        );
        assert!(
            (1..=MAX_TABLES).contains(&config.tables),
            "need 1..={MAX_TABLES} hash tables, got {}",
            config.tables
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let plane_count = config.tables * config.bits as usize;
        let mut planes = Vec::with_capacity(plane_count * dim);
        for _ in 0..plane_count * dim {
            planes.push(gaussian(&mut rng));
        }
        Self {
            dim,
            bits: config.bits,
            probes: config.probes,
            planes,
            buckets: vec![HashMap::new(); config.tables],
        }
    }

    /// Appends every table's signature of each node in `nodes` to `out`,
    /// node-major.
    fn sign(&self, index: &EmbeddingIndex, nodes: Range<usize>, out: &mut Vec<u32>) {
        for node in nodes {
            let row = index.unit_vector(node as NodeId);
            for table in 0..self.tables() {
                out.push(self.signature(table, row));
            }
        }
    }

    /// Buckets the nodes `first..` whose node-major signatures `sign`
    /// wrote, in node order, so every bucket stays ascending.
    fn fill(&mut self, first: usize, signatures: &[u32]) {
        let tables = self.tables();
        for (offset, row) in signatures.chunks_exact(tables).enumerate() {
            let node = (first + offset) as NodeId;
            for (bucket, &sig) in self.buckets.iter_mut().zip(row) {
                bucket.entry(sig).or_default().push(node);
            }
        }
    }

    /// Number of hash tables.
    pub fn tables(&self) -> usize {
        self.buckets.len()
    }

    /// The signature of `v` in `table`: bit `b` is set when `v` lies on the
    /// positive side of hyperplane `b`.
    pub fn signature(&self, table: usize, v: &[f32]) -> u32 {
        let mut sig = 0u32;
        for b in 0..self.bits as usize {
            if dot(self.plane(table, b), v) > 0.0 {
                sig |= 1 << b;
            }
        }
        sig
    }

    /// Gathers the deduplicated candidate set for a unit-normalized query:
    /// the query's own bucket in every table plus `probes` Hamming-1 buckets
    /// per table, least-confident bits flipped first. Candidate order is
    /// deterministic (probe order, then ascending node id within a bucket).
    pub fn candidates(
        &self,
        query_unit: &[f32],
        scratch: &mut ProbeScratch,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        scratch.epoch += 1;
        if scratch.epoch == 0 {
            // Stamp wrap-around: reset the whole seen set once every 2^32
            // queries instead of branching per node.
            scratch.stamps.fill(0);
            scratch.epoch = 1;
        }
        let epoch = scratch.epoch;
        for table in 0..self.buckets.len() {
            let mut sig = 0u32;
            for b in 0..self.bits as usize {
                let margin = dot(self.plane(table, b), query_unit);
                scratch.margins[b] = margin;
                if margin > 0.0 {
                    sig |= 1 << b;
                }
            }
            self.collect_bucket(table, sig, epoch, scratch, out);
            if self.probes > 0 {
                // Flip the bits the query was least sure about, one at a
                // time (Hamming distance 1), smallest |margin| first; equal
                // margins break by bit index so probing is deterministic.
                scratch.flip_order.sort_unstable_by(|&a, &b| {
                    scratch.margins[a]
                        .abs()
                        .total_cmp(&scratch.margins[b].abs())
                        .then(a.cmp(&b))
                });
                for p in 0..self.probes.min(self.bits as usize) {
                    let bit = scratch.flip_order[p];
                    self.collect_bucket(table, sig ^ (1 << bit), epoch, scratch, out);
                }
            }
        }
    }

    /// Resident memory in bytes (hyperplanes plus bucket directories).
    pub fn memory_bytes(&self) -> usize {
        let bucket_bytes: usize = self
            .buckets
            .iter()
            .map(|table| {
                table
                    .values()
                    .map(|b| b.len() * std::mem::size_of::<NodeId>() + std::mem::size_of::<u64>())
                    .sum::<usize>()
            })
            .sum();
        self.planes.len() * std::mem::size_of::<f32>() + bucket_bytes + std::mem::size_of::<Self>()
    }

    #[inline]
    fn plane(&self, table: usize, bit: usize) -> &[f32] {
        let i = (table * self.bits as usize + bit) * self.dim;
        &self.planes[i..i + self.dim]
    }

    #[inline]
    fn collect_bucket(
        &self,
        table: usize,
        sig: u32,
        epoch: u32,
        scratch: &mut ProbeScratch,
        out: &mut Vec<NodeId>,
    ) {
        if let Some(bucket) = self.buckets[table].get(&sig) {
            for &node in bucket {
                let stamp = &mut scratch.stamps[node as usize];
                if *stamp != epoch {
                    *stamp = epoch;
                    out.push(node);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::gaussian_clusters;
    use crate::index::normalized;

    fn small_index() -> EmbeddingIndex {
        EmbeddingIndex::build(&gaussian_clusters(200, 16, 4, 0.05, 7))
    }

    #[test]
    fn every_node_is_its_own_candidate() {
        let index = small_index();
        let lsh = LshIndex::build(&index, &LshConfig::default());
        let mut scratch = ProbeScratch::for_index(&lsh, &index);
        let mut out = Vec::new();
        for node in 0..index.num_nodes() as NodeId {
            lsh.candidates(index.unit_vector(node), &mut scratch, &mut out);
            assert!(
                out.contains(&node),
                "node {node} missing from its own candidate set"
            );
        }
    }

    #[test]
    fn candidates_are_deduplicated_and_deterministic() {
        let index = small_index();
        let lsh = LshIndex::build(&index, &LshConfig::default());
        let mut scratch = ProbeScratch::for_index(&lsh, &index);
        let q = normalized(index.unit_vector(3));
        let mut a = Vec::new();
        lsh.candidates(&q, &mut scratch, &mut a);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len(), "duplicate candidates");
        // Same query again through the same scratch: identical output.
        let mut b = Vec::new();
        lsh.candidates(&q, &mut scratch, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn same_seed_same_tables_different_seed_different_planes() {
        let index = small_index();
        let config = LshConfig::default();
        let a = LshIndex::build(&index, &config);
        let b = LshIndex::build(&index, &config);
        assert_eq!(a.planes, b.planes);
        let c = LshIndex::build(&index, &LshConfig { seed: 99, ..config });
        assert_ne!(a.planes, c.planes);
    }

    #[test]
    fn multi_probe_only_grows_the_candidate_set() {
        let index = small_index();
        let base = LshConfig {
            probes: 0,
            ..LshConfig::default()
        };
        let probing = LshConfig {
            probes: 6,
            ..LshConfig::default()
        };
        let lsh0 = LshIndex::build(&index, &base);
        let lsh6 = LshIndex::build(&index, &probing);
        let mut s0 = ProbeScratch::for_index(&lsh0, &index);
        let mut s6 = ProbeScratch::for_index(&lsh6, &index);
        let (mut c0, mut c6) = (Vec::new(), Vec::new());
        let mut grew = false;
        for node in (0..200).step_by(17) {
            let q = index.unit_vector(node);
            lsh0.candidates(q, &mut s0, &mut c0);
            lsh6.candidates(q, &mut s6, &mut c6);
            let set0: std::collections::HashSet<_> = c0.iter().copied().collect();
            let set6: std::collections::HashSet<_> = c6.iter().copied().collect();
            assert!(set0.is_subset(&set6), "probing lost candidates");
            grew |= set6.len() > set0.len();
        }
        assert!(grew, "probing never added a candidate");
    }

    #[test]
    fn a_build_on_helpers_equals_the_one_thread_build_bucket_for_bucket() {
        let config = LshConfig::default();
        // 0..=4 helpers over node counts the participants do not divide.
        for (nodes, helpers) in [(200, 0), (200, 1), (203, 2), (7, 4), (1, 3)] {
            let index = Arc::new(EmbeddingIndex::build(&gaussian_clusters(
                nodes, 16, 4, 0.05, 7,
            )));
            let serial = LshIndex::build(&index, &config);
            let parallel = LshIndex::build_on(&index, &config, &Workers::spawn(helpers));
            assert_eq!(parallel.planes, serial.planes);
            assert_eq!(
                parallel.buckets, serial.buckets,
                "{nodes} nodes on {helpers} helpers"
            );
        }
    }

    #[test]
    fn memory_counts_planes_and_buckets() {
        let index = small_index();
        let config = LshConfig::default();
        let lsh = LshIndex::build(&index, &config);
        let plane_bytes = config.tables * config.bits as usize * index.dim() * 4;
        assert!(lsh.memory_bytes() > plane_bytes);
        assert_eq!(lsh.tables(), config.tables);
    }

    #[test]
    #[should_panic(expected = "1..=24")]
    fn oversized_signature_rejected() {
        LshIndex::build(
            &small_index(),
            &LshConfig {
                bits: 25,
                ..LshConfig::default()
            },
        );
    }
}
