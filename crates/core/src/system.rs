//! The three compared walk systems (Figures 5, 6, 8 and Table 4) as
//! [`DistGerConfig`] presets; run one with
//! [`run_pipeline`](crate::run_pipeline).

use crate::pipeline::DistGerConfig;

/// The systems of the paper's evaluation that this repository implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// KnightKing: routine random walks + Pword2vec.
    KnightKing,
    /// HuGE-D: information-oriented walks with full-path computation.
    HugeD,
    /// DistGER: InCoM + MPGP + DSGL.
    DistGer,
}

impl SystemKind {
    /// All systems in the order Figure 5 plots them.
    pub const ALL: [SystemKind; 3] = [
        SystemKind::KnightKing,
        SystemKind::HugeD,
        SystemKind::DistGer,
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::KnightKing => "KnightKing",
            SystemKind::HugeD => "HuGE-D",
            SystemKind::DistGer => "DistGER",
        }
    }

    /// The system on `num_machines` machines, synchronizing replicas twice
    /// per epoch. Callers set the seed, dimension and epochs.
    pub fn config(&self, num_machines: usize) -> DistGerConfig {
        let mut config = match self {
            SystemKind::KnightKing => DistGerConfig::knightking(num_machines),
            SystemKind::HugeD => DistGerConfig::huge_d(num_machines),
            SystemKind::DistGer => DistGerConfig::distger(num_machines),
        };
        config.training.sync_rounds_per_epoch = 2;
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_pipeline;
    use distger_graph::barabasi_albert;

    #[test]
    fn every_system_produces_embeddings() {
        let g = barabasi_albert(150, 3, 2);
        for system in SystemKind::ALL {
            let mut config = system.config(2).with_seed(1);
            config.training.dim = 16;
            config.training.epochs = 1;
            let result = run_pipeline(&g, &config);
            assert_eq!(result.embeddings.num_nodes(), 150, "{}", system.name());
            assert!(result.end_to_end_secs() >= 0.0);
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> =
            SystemKind::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 3);
    }
}
