//! The speed-of-light row: first-order uniform random walks over two flat
//! CSR arrays, one thread, no machines, no messages, no information
//! tracking — what a step costs when nothing else is paid for. The engine's
//! steps/s divided by this is what InCoM + BSP cost.

use std::hint::black_box;
use std::time::Instant;

use distger::graph::CsrGraph;

use crate::stats::SplitMix64;

pub struct FlatGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl FlatGraph {
    pub fn from_csr(graph: &CsrGraph) -> Self {
        let mut offsets = Vec::with_capacity(graph.num_nodes() + 1);
        let mut targets = Vec::with_capacity(graph.num_arcs());
        offsets.push(0);
        for u in 0..graph.num_nodes() as u32 {
            targets.extend_from_slice(graph.neighbors(u));
            offsets.push(targets.len() as u32);
        }
        Self { offsets, targets }
    }

    /// Takes `steps` uniform steps in walks of `walk_len` nodes started from
    /// every node in turn; returns steps per second. A walk that reaches a
    /// node without neighbours restarts from the next start node.
    pub fn uniform_steps_per_s(&self, steps: u64, walk_len: usize, seed: u64) -> f64 {
        let nodes = self.offsets.len() - 1;
        assert!(
            nodes > 0 && walk_len > 1,
            "need a graph and walks of two nodes"
        );
        let mut rng = SplitMix64::new(seed);
        let mut taken = 0u64;
        let mut checksum = 0u64;
        let mut start = 0usize;
        let clock = Instant::now();
        while taken < steps {
            let mut cur = start;
            start = (start + 1) % nodes;
            for _ in 1..walk_len {
                let (lo, hi) = (self.offsets[cur], self.offsets[cur + 1]);
                taken += 1;
                if lo == hi {
                    break;
                }
                cur = self.targets[(lo + rng.below(hi - lo)) as usize] as usize;
                checksum += cur as u64;
            }
        }
        let secs = clock.elapsed().as_secs_f64();
        black_box(checksum);
        taken as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distger::prelude::barabasi_albert;

    #[test]
    fn flat_arrays_mirror_the_graph_and_walks_run() {
        let graph = barabasi_albert(200, 3, 5);
        let flat = FlatGraph::from_csr(&graph);
        assert_eq!(flat.offsets.len(), 201);
        assert_eq!(flat.targets.len(), graph.num_arcs());
        for u in 0..200u32 {
            let range = flat.offsets[u as usize] as usize..flat.offsets[u as usize + 1] as usize;
            assert_eq!(&flat.targets[range], graph.neighbors(u));
        }
        assert!(flat.uniform_steps_per_s(10_000, 40, 1) > 0.0);
    }
}
