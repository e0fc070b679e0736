//! The trained model, pinned.
//!
//! The constants below were recorded from the two trainer bodies that existed
//! before training became one chunk loop over a `ControlChannel`: the
//! in-process pool trainer (`train_distributed`) and the sequential
//! per-endpoint trainer (`train_distributed_over`). At `threads = 1` training
//! is deterministic, so for a fixed corpus and config the embeddings must
//! repeat bit for bit, and so must the pair count and the synchronization
//! traffic — for every trainer kind, both sync strategies, one, two and four
//! in-process machines, and two and three loopback endpoints.
//!
//! If a constant ever has to change, the trainer no longer computes the model
//! the benchmark's `link_auc` was measured on: that is a finding to report,
//! not a number to edit.

use std::net::TcpListener;
use std::time::Duration;

use distger_cluster::wire::{put_u32, Checksum};
use distger_embed::{
    train_distributed, train_distributed_over, Embeddings, SocketTransport, SyncStrategy,
    TrainStats, TrainerConfig, TrainerKind,
};
use distger_walks::rng::SplitMix64;
use distger_walks::Corpus;

/// 90 walks of 12 tokens over 48 nodes, skewed towards low node ids so the
/// hotness blocks differ in size; nodes 44..48 never occur.
fn corpus() -> Corpus {
    let mut rng = SplitMix64::new(2024);
    let walks = (0..90)
        .map(|_| {
            (0..12)
                .map(|_| (rng.next_bounded(44) * rng.next_bounded(44) / 43) as u32)
                .collect()
        })
        .collect();
    Corpus::from_walks(walks, 48)
}

fn config(kind: TrainerKind, sync: SyncStrategy) -> TrainerConfig {
    TrainerConfig::small()
        .with_dim(8)
        .with_threads(1)
        .with_kind(kind)
        .with_sync(sync)
        .with_seed(5)
}

/// Checksum of every embedding value's bit pattern, node by node.
fn embedding_checksum(embeddings: &Embeddings) -> u64 {
    let mut bytes = Vec::with_capacity(4 * embeddings.num_nodes() * embeddings.dim());
    for node in 0..embeddings.num_nodes() as u32 {
        for x in embeddings.vector(node) {
            put_u32(&mut bytes, x.to_bits());
        }
    }
    let mut sum = Checksum::new();
    sum.update(&bytes);
    sum.finish(&[])
}

/// `(embedding checksum, pairs, sync messages, sync bytes)`.
fn fingerprint((embeddings, stats): (Embeddings, TrainStats)) -> (u64, u64, u64, u64) {
    (
        embedding_checksum(&embeddings),
        stats.pairs_processed,
        stats.sync_comm.messages,
        stats.sync_comm.bytes,
    )
}

/// One machine per endpoint over loopback TCP: the workers on scoped threads,
/// the coordinator on this one.
fn loopback(corpus: &Corpus, config: &TrainerConfig, endpoints: usize) -> (Embeddings, TrainStats) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
    let addr = listener.local_addr().expect("loopback listener address");
    std::thread::scope(|scope| {
        for _ in 1..endpoints {
            scope.spawn(move || {
                let mut transport =
                    SocketTransport::worker(addr, Duration::from_secs(10)).expect("worker connect");
                let result = train_distributed_over(&mut transport, None, config)
                    .expect("worker training run");
                assert!(result.is_none(), "workers return no result");
            });
        }
        let mut transport = SocketTransport::coordinator(&listener, endpoints, endpoints)
            .expect("coordinator accept");
        train_distributed_over(&mut transport, Some(corpus), config)
            .expect("coordinator training run")
            .expect("coordinator returns the result")
    })
}

const KINDS: [(&str, TrainerKind); 3] = [
    ("hogwild", TrainerKind::Hogwild),
    ("pword2vec", TrainerKind::Pword2vec),
    ("dsgl", TrainerKind::Dsgl { multi_windows: 2 }),
];
const SYNCS: [(&str, SyncStrategy); 2] = [
    ("full", SyncStrategy::Full),
    ("hotness", SyncStrategy::HotnessBlock),
];

type Fingerprint = (u64, u64, u64, u64);

#[test]
fn in_process_embeddings_are_pinned() {
    let corpus = corpus();
    let expected: [((&str, &str, usize), Fingerprint); 18] = [
        (("hogwild", "full", 1), (0xfcd2f09db3d3548f, 16200, 0, 0)),
        (
            ("hogwild", "full", 2),
            (0x65ec09ec1aea2229, 16200, 1536, 49152),
        ),
        (
            ("hogwild", "full", 4),
            (0x2f91ff45e6758e1d, 16200, 3072, 98304),
        ),
        (("hogwild", "hotness", 1), (0xfcd2f09db3d3548f, 16200, 0, 0)),
        (
            ("hogwild", "hotness", 2),
            (0x8c4bfa2255eefe02, 16200, 928, 29696),
        ),
        (
            ("hogwild", "hotness", 4),
            (0xc4c7c71c8c42f8c8, 16200, 1856, 59392),
        ),
        (("pword2vec", "full", 1), (0xfe8d7a4bca4c8294, 16200, 0, 0)),
        (
            ("pword2vec", "full", 2),
            (0x31ed23354b04c3ae, 16200, 1536, 49152),
        ),
        (
            ("pword2vec", "full", 4),
            (0x4ba6e714d4c43268, 16200, 3072, 98304),
        ),
        (
            ("pword2vec", "hotness", 1),
            (0xfe8d7a4bca4c8294, 16200, 0, 0),
        ),
        (
            ("pword2vec", "hotness", 2),
            (0x9c36e4ed2eefb466, 16200, 928, 29696),
        ),
        (
            ("pword2vec", "hotness", 4),
            (0x6fb2266739a99abc, 16200, 1856, 59392),
        ),
        (("dsgl", "full", 1), (0x239284fdabfb60a4, 16200, 0, 0)),
        (
            ("dsgl", "full", 2),
            (0x7492e0b8e4e79b7c, 16200, 1536, 49152),
        ),
        (
            ("dsgl", "full", 4),
            (0xd838c75142ad855f, 16200, 3072, 98304),
        ),
        (("dsgl", "hotness", 1), (0x239284fdabfb60a4, 16200, 0, 0)),
        (
            ("dsgl", "hotness", 2),
            (0x8df5172e8fba04e4, 16200, 928, 29696),
        ),
        (
            ("dsgl", "hotness", 4),
            (0x34ec592427e6e3a5, 16200, 1856, 59392),
        ),
    ];
    let mut cases = expected.iter();
    for (kind_name, kind) in KINDS {
        for (sync_name, sync) in SYNCS {
            for machines in [1, 2, 4] {
                let (case, pinned) = cases.next().expect("one pinned row per case");
                assert_eq!(*case, (kind_name, sync_name, machines), "case order");
                let got = fingerprint(train_distributed(&corpus, machines, &config(kind, sync)));
                assert_eq!(
                    got, *pinned,
                    "{kind_name} / {sync_name} on {machines} machines"
                );
            }
        }
    }
}

#[test]
fn loopback_embeddings_are_pinned() {
    let corpus = corpus();
    // DSGL with two windows; two endpoints repeat the in-process two-machine
    // rows above bit for bit.
    let expected: [((&str, usize), Fingerprint); 4] = [
        (("full", 2), (0x7492e0b8e4e79b7c, 16200, 1536, 49152)),
        (("full", 3), (0x7f1262f46cf8cbd3, 16200, 2304, 73728)),
        (("hotness", 2), (0x8df5172e8fba04e4, 16200, 928, 29696)),
        (("hotness", 3), (0x9b133fca0d9a7f75, 16200, 1392, 44544)),
    ];
    let mut cases = expected.iter();
    for (sync_name, sync) in SYNCS {
        for endpoints in [2, 3] {
            let (case, pinned) = cases.next().expect("one pinned row per case");
            assert_eq!(*case, (sync_name, endpoints), "case order");
            let config = config(TrainerKind::Dsgl { multi_windows: 2 }, sync);
            let got = fingerprint(loopback(&corpus, &config, endpoints));
            assert_eq!(got, *pinned, "{sync_name} on {endpoints} endpoints");
        }
    }
}
