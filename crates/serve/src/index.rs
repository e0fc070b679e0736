//! The read-optimized embedding index.
//!
//! Serving works on cosine similarity, and `cos(q, v) = q̂ · v̂` once both
//! sides are unit vectors — so the index pre-normalizes every embedding row
//! at build time. A query is then one dot product per visited node with no
//! per-step square roots or divisions, which is what keeps the exact scan's
//! inner loop a pure fused multiply-add chain.

use distger_embed::kernel::dot;
use distger_embed::Embeddings;
use distger_graph::NodeId;

/// Node-major matrix of pre-normalized (unit-length) embedding rows.
///
/// Rows whose embedding is the zero vector stay zero (their cosine against
/// anything is 0, matching [`Embeddings::cosine`]); the original L2 norms are
/// retained for consumers that need un-normalized scores.
#[derive(Clone, Debug, PartialEq)]
pub struct EmbeddingIndex {
    dim: usize,
    /// `num_nodes × dim` unit vectors, node-major.
    units: Vec<f32>,
    /// Original L2 norm per node.
    norms: Vec<f32>,
}

impl EmbeddingIndex {
    /// Builds the index by L2-normalizing every row of `embeddings`.
    pub fn build(embeddings: &Embeddings) -> Self {
        let dim = embeddings.dim();
        let n = embeddings.num_nodes();
        let mut units = Vec::with_capacity(n * dim);
        let mut norms = Vec::with_capacity(n);
        for node in 0..n {
            let row = embeddings.vector(node as NodeId);
            let norm = dot(row, row).sqrt();
            norms.push(norm);
            if norm > 0.0 {
                units.extend(row.iter().map(|x| x / norm));
            } else {
                units.extend_from_slice(row);
            }
        }
        Self { dim, units, norms }
    }

    /// Embedding dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of indexed nodes.
    pub fn num_nodes(&self) -> usize {
        self.norms.len()
    }

    /// The unit vector of `node` (all-zero if the embedding was zero).
    #[inline]
    pub fn unit_vector(&self, node: NodeId) -> &[f32] {
        let i = node as usize * self.dim;
        &self.units[i..i + self.dim]
    }

    /// The whole node-major unit-vector matrix (for chunked scans).
    pub fn unit_vectors(&self) -> &[f32] {
        &self.units
    }

    /// The original L2 norm of `node`'s embedding.
    pub fn norm(&self, node: NodeId) -> f32 {
        self.norms[node as usize]
    }

    /// Cosine similarity of a unit-normalized query against `node`.
    #[inline]
    pub fn cosine(&self, query_unit: &[f32], node: NodeId) -> f32 {
        dot(query_unit, self.unit_vector(node))
    }

    /// Resident memory in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.units.len() + self.norms.len()) * std::mem::size_of::<f32>()
            + std::mem::size_of::<Self>()
    }
}

/// Returns `v` scaled to unit length (unchanged if it is the zero vector).
/// Test-only convenience; the serving hot path uses [`normalize_into`].
#[cfg(test)]
pub(crate) fn normalized(v: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; v.len()];
    normalize_into(v, &mut out);
    out
}

/// Writes `v` scaled to unit length into `out` (a copy if `v` is the zero
/// vector) — the allocation-free form for per-query hot loops.
pub(crate) fn normalize_into(v: &[f32], out: &mut [f32]) {
    debug_assert_eq!(v.len(), out.len());
    let norm = dot(v, v).sqrt();
    if norm > 0.0 {
        for (o, x) in out.iter_mut().zip(v) {
            *o = x / norm;
        }
    } else {
        out.copy_from_slice(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_unit_length_and_norms_preserved() {
        let e = Embeddings::from_node_major(vec![3.0, 4.0, 0.0, 0.0, 1.0, 1.0], 2);
        let index = EmbeddingIndex::build(&e);
        assert_eq!(index.num_nodes(), 3);
        assert_eq!(index.dim(), 2);
        assert!((index.norm(0) - 5.0).abs() < 1e-6);
        assert_eq!(index.norm(1), 0.0);
        let row0 = index.unit_vector(0);
        assert!((row0[0] - 0.6).abs() < 1e-6 && (row0[1] - 0.8).abs() < 1e-6);
        // The zero row stays zero instead of becoming NaN.
        assert_eq!(index.unit_vector(1), &[0.0, 0.0]);
        let row2 = index.unit_vector(2);
        assert!((dot(row2, row2) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_matches_embeddings_cosine() {
        let e = Embeddings::from_node_major(vec![1.0, 2.0, -3.0, 0.5, 2.0, 2.0], 2);
        let index = EmbeddingIndex::build(&e);
        for u in 0..3u32 {
            for v in 0..3u32 {
                let q = normalized(e.vector(u));
                assert!(
                    (index.cosine(&q, v) - e.cosine(u, v)).abs() < 1e-5,
                    "cosine mismatch at ({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn memory_accounts_for_both_matrices() {
        let e = Embeddings::zeros(10, 4);
        let index = EmbeddingIndex::build(&e);
        assert!(index.memory_bytes() >= 10 * 4 * 4 + 10 * 4);
    }
}
