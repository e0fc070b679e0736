//! Exact top-k: a chunked brute-force cosine scan.
//!
//! The scan visits every node, so its value is being *predictably* fast: the
//! node-major unit-vector matrix is walked in blocks of `SCAN_CHUNK` rows,
//! scores for a block are computed into a flat buffer first (a tight loop
//! over the workspace's one `dot` kernel, untangled from the heap's
//! branches), and only then offered to the bounded heap — which rejects
//! almost all of them with a single comparison once the heap is warm.
//!
//! This backend is the ground truth the LSH backend's `recall@k` is measured
//! against; its recall is 1.0 by construction.

use crate::index::EmbeddingIndex;
use crate::topk::{BoundedTopK, Neighbor, TopK};
use distger_embed::kernel::dot;
use distger_graph::NodeId;

/// Rows scored per block before the heap sees them.
const SCAN_CHUNK: usize = 256;

/// Scans the whole index for the `k` nodes most cosine-similar to the
/// unit-normalized query.
pub(crate) fn scan_top_k(index: &EmbeddingIndex, query_unit: &[f32], k: usize) -> TopK {
    let dim = index.dim();
    let mut heap = BoundedTopK::new(k, index.num_nodes());
    let mut scores = [0.0f32; SCAN_CHUNK];
    let mut base: usize = 0;
    for block in index.unit_vectors().chunks(SCAN_CHUNK * dim) {
        let rows = block.len() / dim;
        for (r, score) in scores[..rows].iter_mut().enumerate() {
            *score = dot(&block[r * dim..(r + 1) * dim], query_unit);
        }
        for (r, &score) in scores[..rows].iter().enumerate() {
            heap.push(Neighbor {
                node: (base + r) as NodeId,
                score,
            });
        }
        base += rows;
    }
    heap.into_topk()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::normalized;
    use distger_embed::Embeddings;

    fn axis_embeddings(n: usize, dim: usize) -> Embeddings {
        // Node i points along axis i % dim with magnitude growing in i.
        let mut data = vec![0.0f32; n * dim];
        for i in 0..n {
            data[i * dim + i % dim] = 1.0 + i as f32;
        }
        Embeddings::from_node_major(data, dim)
    }

    #[test]
    fn finds_the_aligned_axis_nodes_first() {
        let e = axis_embeddings(600, 4); // > 2 chunks
        let index = EmbeddingIndex::build(&e);
        let mut q = vec![0.0f32; 4];
        q[2] = 1.0;
        let top = scan_top_k(&index, &q, 5);
        // Every node on axis 2 has cosine exactly 1; ties break by node id,
        // so the smallest axis-2 ids win in ascending order.
        assert_eq!(top.nodes().collect::<Vec<_>>(), vec![2, 6, 10, 14, 18]);
        for n in top.neighbors() {
            assert!((n.score - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn matches_naive_per_node_cosine() {
        let e = Embeddings::from_node_major(
            (0..7 * 3).map(|i| ((i * 37 % 11) as f32) - 5.0).collect(),
            3,
        );
        let index = EmbeddingIndex::build(&e);
        let q = normalized(e.vector(4));
        let top = scan_top_k(&index, &q, 7);
        let mut expected: Vec<(u32, f32)> = (0..7u32).map(|v| (v, e.cosine(4, v))).collect();
        expected.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for (got, want) in top.neighbors().iter().zip(&expected) {
            assert_eq!(got.node, want.0);
            assert!((got.score - want.1).abs() < 1e-5);
        }
    }

    #[test]
    fn k_larger_than_index_returns_all_nodes() {
        let e = axis_embeddings(3, 2);
        let index = EmbeddingIndex::build(&e);
        let top = scan_top_k(&index, &[1.0, 0.0], 10);
        assert_eq!(top.len(), 3);
    }
}
