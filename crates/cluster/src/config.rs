//! Cluster configuration.

use crate::comm::NetworkModel;

/// Describes the simulated cluster: how many machines participate and how
/// their interconnect behaves. The defaults mirror the paper's testbed
/// (8 machines, 100 Gbps).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterConfig {
    /// Number of logical machines.
    pub num_machines: usize,
    /// Worker threads per machine used for local computation.
    pub threads_per_machine: usize,
    /// Analytic model of the interconnect, used to convert measured message
    /// traffic into modelled communication time.
    pub network: NetworkModel,
}

impl ClusterConfig {
    /// A cluster of `num_machines` machines with the paper's interconnect.
    pub fn new(num_machines: usize) -> Self {
        assert!(num_machines > 0, "need at least one machine");
        Self {
            num_machines,
            threads_per_machine: 2,
            network: NetworkModel::default(),
        }
    }

    /// Single-machine configuration (no cross-machine traffic possible).
    pub fn single() -> Self {
        Self::new(1)
    }

    /// Builder-style override of the per-machine thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0);
        self.threads_per_machine = threads;
        self
    }

    /// Builder-style override of the network model.
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self::new(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_mirror_paper_testbed() {
        let c = ClusterConfig::default();
        assert_eq!(c.num_machines, 8);
        assert!(c.threads_per_machine >= 1);
    }

    #[test]
    fn builders_apply() {
        let c = ClusterConfig::new(4)
            .with_threads(3)
            .with_network(NetworkModel::new(1e9, 1e-3));
        assert_eq!(c.num_machines, 4);
        assert_eq!(c.threads_per_machine, 3);
        assert_eq!(c.network.bandwidth_bytes_per_sec, 1e9);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_machines_rejected() {
        ClusterConfig::new(0);
    }
}
