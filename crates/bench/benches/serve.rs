//! Benchmarks for the online tomography daemon (`netcorr-serve`):
//! request-dispatch latency, snapshot ingest throughput, and warm vs
//! cold re-inference in the live-stream regime.
//!
//! Three groups:
//!
//! * `serve_query` — in-process dispatch of `PROB` / `PROBS` / `STATUS`
//!   request lines through [`netcorr_serve::protocol::execute`], the
//!   exact function the socket sessions call. Queries read the cached
//!   estimate, so this is the daemon's floor latency with the socket
//!   taken out of the picture.
//! * `serve_ingest` — pushing framed v3 observation blocks into the
//!   service (`OBS` handling without the socket): one 300-snapshot block
//!   with no history, and 1-snapshot blocks into a service whose history
//!   file already holds 20,000 snapshots, so every ack persists it.
//! * `serve_reinfer` — the payoff measurement for the warm-start
//!   machinery: over the identical sequence of stream-boundary
//!   right-hand sides (sparse plan, online tolerance), solving each cold
//!   vs chaining each solve from the previous solution, plus the
//!   end-to-end `TomographyService` loop (ingest + warm re-infer per
//!   batch).

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use netcorr_bench::{fixture, serve_reinfer_workload, Fixture, SERVE_HEAD_SNAPSHOTS};
use netcorr_core::AlgorithmConfig;
use netcorr_eval::figures::TopologyFamily;
use netcorr_eval::persist;
use netcorr_eval::scenario::CorrelationLevel;
use netcorr_measure::PathObservations;
use netcorr_serve::{protocol, TomographyService};

fn bench_fixture() -> Fixture {
    fixture(
        TopologyFamily::PlanetLab,
        0.10,
        CorrelationLevel::HighlyCorrelated,
        0.0,
        0.0,
        7,
    )
}

/// A service with the fixture's observations ingested and inferred —
/// the steady state a query-serving daemon sits in.
fn ready_service(fx: &Fixture) -> TomographyService {
    let mut service = TomographyService::new(&fx.scenario.instance, &AlgorithmConfig::default())
        .expect("service builds");
    service
        .ingest_observations(&fx.observations)
        .expect("fixture observations ingest");
    service.reinfer().expect("inference succeeds");
    service
}

fn query_dispatch(c: &mut Criterion) {
    let fx = bench_fixture();
    let mut service = ready_service(&fx);
    let num_links = service.num_links();

    let mut group = c.benchmark_group("serve_query");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));
    group.bench_function("prob_one_link", |b| {
        let mut link = 0;
        b.iter(|| {
            let line = format!("PROB {link}");
            link = (link + 1) % num_links;
            let reply = protocol::execute(&mut service, &line, &mut std::io::empty());
            assert!(reply.text.starts_with("OK "));
        })
    });
    group.bench_function("probs_all_links", |b| {
        b.iter(|| {
            let reply = protocol::execute(&mut service, "PROBS", &mut std::io::empty());
            assert!(reply.text.starts_with("OK "));
        })
    });
    group.bench_function("status", |b| {
        b.iter(|| {
            let reply = protocol::execute(&mut service, "STATUS", &mut std::io::empty());
            assert!(reply.text.starts_with("OK "));
        })
    });
    group.finish();
}

fn ingest(c: &mut Criterion) {
    let fx = bench_fixture();
    let mut service = TomographyService::new(&fx.scenario.instance, &AlgorithmConfig::default())
        .expect("service builds");
    let block = fx.observations.to_binary();
    let snapshots = fx.observations.num_snapshots();

    let mut group = c.benchmark_group("serve_ingest");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));
    group.bench_function(format!("block_{snapshots}_snapshots"), |b| {
        b.iter(|| {
            let ingested = service.ingest_block(&block).expect("block ingests");
            assert_eq!(ingested, snapshots);
        })
    });

    // The daemon's `--history` ack: the history is a 20,000-snapshot file
    // (the fixture's snapshots repeated) and each ingest adds one snapshot.
    let dir = std::env::temp_dir().join(format!("netcorr_bench_history_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let file = dir.join("history.ncobs3");
    let mut preload = PathObservations::new(fx.observations.num_paths());
    for s in 0..20_000 {
        preload
            .record_snapshot(&fx.observations.snapshot(s % snapshots))
            .expect("fixture width");
    }
    persist::atomic_write(&file, &persist::encode_history(&preload.to_binary(), 1))
        .expect("history preload writes");
    let mut persisted = TomographyService::new(&fx.scenario.instance, &AlgorithmConfig::default())
        .expect("service builds");
    persisted.enable_history(&file).expect("history loads");
    let mut one = PathObservations::new(fx.observations.num_paths());
    one.record_snapshot(&fx.observations.snapshot(0))
        .expect("fixture width");
    let one = one.to_binary();
    group.bench_function("history_1_snapshot_at_20000", |b| {
        b.iter(|| {
            let ingested = persisted.ingest_block(&one).expect("block persists");
            assert_eq!(ingested, 1);
        })
    });
    group.finish();
    drop(persisted);
    std::fs::remove_dir_all(&dir).ok();
}

fn reinfer(c: &mut Criterion) {
    let fx = bench_fixture();
    let (context, rhs_sequence) = serve_reinfer_workload(&fx);
    let refreshes = rhs_sequence.len();

    let mut group = c.benchmark_group("serve_reinfer");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function(format!("cold_{refreshes}_refreshes"), |b| {
        b.iter(|| {
            for rhs in &rhs_sequence {
                let (estimate, _) = context.reinfer(rhs, None).expect("solves");
                assert!(estimate.diagnostics.residual.is_finite());
            }
        })
    });
    group.bench_function(format!("warm_{refreshes}_refreshes"), |b| {
        b.iter(|| {
            let mut warm: Option<Vec<f64>> = None;
            for rhs in &rhs_sequence {
                let (estimate, x) = context.reinfer(rhs, warm.as_deref()).expect("solves");
                assert!(estimate.diagnostics.residual.is_finite());
                warm = Some(x);
            }
        })
    });
    // The full daemon loop: fresh service, warm-up history, then a
    // re-inference per arriving snapshot — what one stream of the fixture
    // costs end to end (dense default plan, so this also covers the
    // RHS-refresh path).
    group.bench_function("service_loop_end_to_end", |b| {
        b.iter(|| {
            let mut service =
                TomographyService::new(&fx.scenario.instance, &AlgorithmConfig::default())
                    .expect("service builds");
            let total = fx.observations.num_snapshots();
            let head = SERVE_HEAD_SNAPSHOTS.min(total);
            for i in 0..head {
                service
                    .push_snapshot(&fx.observations.snapshot(i))
                    .expect("width matches");
            }
            service.reinfer().expect("inference succeeds");
            for i in head..total {
                service
                    .push_snapshot(&fx.observations.snapshot(i))
                    .expect("width matches");
                service.reinfer().expect("inference succeeds");
            }
        })
    });
    group.finish();
}

criterion_group!(benches, query_dispatch, ingest, reinfer);
criterion_main!(benches);
