//! Property test for crash-safe history recovery: a history file torn at
//! **any** byte offset — as a daemon aborted mid-write leaves it — must
//! recover to exactly the acked ingest prefix, and a daemon serving the
//! recovered history must answer bit-identically to one that replayed
//! only the acked ingests. Exercised end to end through an in-process
//! [`Server`] over both the tcp and unix transports.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use netcorr_core::AlgorithmConfig;
use netcorr_measure::PathObservations;
use netcorr_serve::{Client, ListenAddr, Server, TomographyService};
use netcorr_topology::toy;
use proptest::prelude::*;

/// SplitMix64 — seeded snapshot content, independent of proptest's own
/// sampling so a failing case replays from its printed inputs alone.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic observation block over Figure 1(a)'s three paths.
fn block(seed: u64, tag: u64, snapshots: usize) -> PathObservations {
    let mut b = PathObservations::new(3);
    for s in 0..snapshots {
        let word = splitmix64(seed ^ tag.wrapping_mul(0x9e37_79b9).wrapping_add(s as u64));
        b.record_snapshot(&[word & 1 == 1, word & 2 == 2, word & 4 == 4])
            .unwrap();
    }
    b
}

fn service(history: Option<&Path>) -> TomographyService {
    let mut s = TomographyService::new(&toy::figure_1a(), &AlgorithmConfig::default()).unwrap();
    if let Some(path) = history {
        s.enable_history(path).unwrap();
    }
    s
}

/// Drives the post-recovery session over either transport: checks the
/// recovered state, streams one more block, and returns the served
/// probabilities.
fn drive<S: std::io::Read + std::io::Write>(
    client: &mut Client<S>,
    acked_snapshots: usize,
    acked_generation: u64,
    post: &PathObservations,
) -> (bool, u64, Vec<f64>) {
    let status = client.status().unwrap();
    let history = status.history.expect("history enabled");
    let recovered = history.recovered;
    let generation = history.generation;
    assert_eq!(
        status.num_snapshots, acked_snapshots,
        "recovery must land on exactly the acked prefix"
    );
    assert_eq!(generation, acked_generation);
    client.ingest(post).unwrap();
    let infer = client.infer().unwrap();
    assert!(!infer.stale);
    (recovered, generation, client.probabilities().unwrap())
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `sizes` are the per-ingest block sizes; the **last** block's
    /// history write is the one that tears (it is never acked), at a
    /// byte offset derived from `tear`. `transport` picks tcp or unix.
    #[test]
    fn torn_history_recovers_to_the_exact_acked_prefix(
        sizes in prop::collection::vec(1usize..=12, 1..=5),
        tear in 0usize..=1_000_000,
        content_seed in 0u64..=u64::MAX,
        transport in 0usize..=1,
    ) {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "netcorr_fault_recovery_{}_{case}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let history = dir.join("history.ncobs3");

        // Life 1: every block ingests durably; the final current file
        // holds the last generation and `.prev` the one before it.
        let mut first = service(Some(&history));
        for (i, &n) in sizes.iter().enumerate() {
            first.ingest_observations(&block(content_seed, i as u64, n)).unwrap();
        }
        drop(first);

        // The crash: the last generation's write tears at an arbitrary
        // byte offset — the file keeps only a prefix of the sealed
        // bytes, exactly as an aborted writer leaves it. Everything
        // before the last block is the acked prefix.
        let sealed = std::fs::read(&history).unwrap();
        let acked_blocks = sizes.len() - 1;
        let torn_len = tear % sealed.len();
        std::fs::write(&history, &sealed[..torn_len]).unwrap();
        let acked_snapshots: usize = sizes[..acked_blocks].iter().sum();
        let post = block(content_seed, 0xdead, 9);

        // Life 2: a daemon over the torn file, behind a real server
        // socket on the sampled transport.
        let recovered_service = service(Some(&history));
        prop_assert_eq!(recovered_service.num_snapshots(), acked_snapshots);
        let listen = if transport == 0 || cfg!(not(unix)) {
            ListenAddr::Tcp("127.0.0.1:0".into())
        } else {
            ListenAddr::Unix(dir.join("recovery.sock"))
        };
        let server = Server::bind(recovered_service, &listen).unwrap();
        let description = server.local_description();
        let handle = std::thread::spawn(move || server.run());
        let (recovered, generation, probs) = if let Some(addr) =
            description.strip_prefix("tcp://")
        {
            let mut client = Client::connect_tcp(addr).unwrap();
            let out = drive(&mut client, acked_snapshots, acked_blocks as u64, &post);
            client.shutdown().unwrap();
            out
        } else {
            let mut client = Client::connect_unix(dir.join("recovery.sock")).unwrap();
            let out = drive(&mut client, acked_snapshots, acked_blocks as u64, &post);
            client.shutdown().unwrap();
            out
        };
        handle.join().unwrap().unwrap();
        prop_assert!(recovered, "a torn current file must be reported as recovered");
        prop_assert_eq!(generation, acked_blocks as u64);

        // Comparator: replay only the acked ingests (plus the
        // post-recovery block) with no history at all — the recovered
        // daemon must be bit-identical to it.
        let mut comparator = service(None);
        for (i, &n) in sizes[..acked_blocks].iter().enumerate() {
            comparator.ingest_observations(&block(content_seed, i as u64, n)).unwrap();
        }
        comparator.ingest_observations(&post).unwrap();
        comparator.reinfer().unwrap();
        let expected = comparator.probabilities().unwrap();
        prop_assert_eq!(probs.len(), expected.len());
        for (link, (&served, &replayed)) in probs.iter().zip(expected).enumerate() {
            prop_assert_eq!(
                served.to_bits(),
                replayed.to_bits(),
                "link {}: recovered daemon served {}, acked replay gives {}",
                link, served, replayed
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
