//! Micro-benchmarks for the substrates: topology generation, simulation
//! throughput, and the numerical solvers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

use netcorr_bench::{bench_instance, fixture};
use netcorr_eval::figures::TopologyFamily;
use netcorr_eval::persist;
use netcorr_eval::scenario::CorrelationLevel;
use netcorr_linalg::{
    cgls, cgls_indicator, min_l1_norm_solution, IndicatorMatrix, Matrix, QrDecomposition,
    SparseMatrix,
};
use netcorr_measure::reference::{ScalarEstimator, ScalarObservations};
use netcorr_measure::{PathCounts, PathObservations, ProbabilityEstimator, StreamingEstimator};
use netcorr_sim::{SimulationConfig, Simulator, TransmissionModel};
use netcorr_topology::generators::{brite, planetlab};
use netcorr_topology::path::PathId;
use rand::RngExt;

fn topology_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology_generation");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("brite_small", |b| {
        b.iter(|| {
            brite::generate(&brite::BriteConfig::small(), &mut StdRng::seed_from_u64(1))
                .expect("generation succeeds")
        })
    });
    group.bench_function("planetlab_small", |b| {
        b.iter(|| {
            planetlab::generate(
                &planetlab::PlanetLabConfig::small(),
                &mut StdRng::seed_from_u64(1),
            )
            .expect("generation succeeds")
        })
    });
    group.finish();
}

fn simulation_throughput(c: &mut Criterion) {
    let fixture = fixture(
        TopologyFamily::PlanetLab,
        0.10,
        CorrelationLevel::HighlyCorrelated,
        0.0,
        0.0,
        7,
    );
    let mut group = c.benchmark_group("simulation_100_snapshots");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    // 200 packets keeps the per-packet reference affordable; the paper
    // (and `SimulationConfig::default()`) sends 1000.
    for (name, transmission, packets_per_path) in [
        ("binomial", TransmissionModel::Binomial, 200),
        ("binomial_1000_packets", TransmissionModel::Binomial, 1000),
        ("exact", TransmissionModel::Exact, 200),
        ("per_packet", TransmissionModel::PerPacket, 200),
    ] {
        let config = SimulationConfig {
            transmission,
            packets_per_path,
            ..SimulationConfig::default()
        };
        let simulator = Simulator::new(&fixture.scenario.instance, &fixture.scenario.model, config)
            .expect("valid simulator");
        group.bench_function(BenchmarkId::new("transmission", name), |b| {
            b.iter(|| simulator.run(100, &mut StdRng::seed_from_u64(3)))
        });
    }
    group.finish();
}

fn solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("solvers");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));

    // Dense least squares on a 120 x 80 incidence-like system. Its top
    // 80 rows are upper unitriangular, so it has full column rank, like
    // the independent rows the dense exact plan factors.
    let rows = 120;
    let cols = 80;
    let dense = Matrix::from_fn(rows, cols, |i, j| {
        if i == j || ((i >= cols || j > i) && (i * 7 + j * 13) % 11 < 3) {
            1.0
        } else {
            0.0
        }
    });
    let x_true: Vec<f64> = (0..cols).map(|i| -((i % 9) as f64) / 20.0).collect();
    let b = dense.matvec(&x_true).unwrap();
    group.bench_function("dense_least_squares_120x80", |bench| {
        bench.iter(|| {
            QrDecomposition::new(&dense)
                .and_then(|qr| qr.solve_least_squares(&b))
                .expect("solve succeeds")
        })
    });

    // Sparse CGLS on a 600 x 400 0/1 system, over the general row matrix
    // and over the indicator matrix the sparse solver plan runs (the same
    // iterates, bit for bit).
    let mut sparse = SparseMatrix::new(400);
    let mut state = 99u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for _ in 0..600 {
        let len = 4 + next() % 6;
        let mut cols: Vec<usize> = (0..len).map(|_| next() % 400).collect();
        cols.sort_unstable();
        cols.dedup();
        sparse.push_indicator_row(&cols).unwrap();
    }
    let x_true: Vec<f64> = (0..400).map(|i| -((i % 7) as f64) / 15.0).collect();
    let rhs = sparse.matvec(&x_true).unwrap();
    group.bench_function("cgls_600x400", |bench| {
        bench.iter(|| cgls(&sparse, &rhs, 1e-8, 2000, 1e-10, None).expect("cgls succeeds"))
    });
    let all_rows: Vec<usize> = (0..sparse.rows()).collect();
    let indicator = IndicatorMatrix::gather(&sparse, &all_rows).expect("0/1 rows");
    group.bench_function("cgls_indicator_600x400", |bench| {
        bench.iter(|| {
            cgls_indicator(&indicator, &rhs, 1e-8, 2000, 1e-10, None).expect("cgls succeeds")
        })
    });

    // Minimum-L1 LP on an under-determined 20 x 40 system.
    let wide = Matrix::from_fn(20, 40, |i, j| if (i + 3 * j) % 7 < 2 { 1.0 } else { 0.0 });
    let x_sparse: Vec<f64> = (0..40)
        .map(|i| if i % 9 == 0 { -0.4 } else { 0.0 })
        .collect();
    let b_wide = wide.matvec(&x_sparse).unwrap();
    group.bench_function("min_l1_lp_20x40", |bench| {
        bench.iter(|| min_l1_norm_solution(&wide, &b_wide).expect("lp succeeds"))
    });
    group.finish();
}

/// Pair-query, exact-state and load-tier estimator benchmarks: the
/// bit-packed columnar estimator against the scalar reference, on a
/// PlanetLab-class observation matrix (1500 paths × 4096 snapshots). The
/// pair set is every intersecting pair of a hub-structured path set (150
/// shared links × 10 paths each → 6750 pairs), mirroring how the
/// equation builder enumerates candidates per shared link. The load
/// benchmarks persist the same matrix as a v3 file and compare the
/// zero-copy mapped load (`persist::map_observations` — header
/// validation only, no word copy) against the heap-copying loader
/// (`persist::read_observations`). The committed `BENCH_estimator.json`
/// baseline tracks these numbers across PRs.
fn estimator_queries(c: &mut Criterion) {
    const PATHS: usize = 1500;
    const SNAPSHOTS: usize = 4096;
    const HUBS: usize = 150;

    let mut rng = StdRng::seed_from_u64(0xc01);
    let mut packed = PathObservations::with_capacity(PATHS, SNAPSHOTS);
    let mut row = vec![false; PATHS];
    for _ in 0..SNAPSHOTS {
        for cell in row.iter_mut() {
            *cell = rng.random_bool(0.2);
        }
        packed.record_snapshot(&row).expect("width matches");
    }
    let scalar = ScalarObservations::from_packed(&packed);
    let packed_est = ProbabilityEstimator::new(&packed).expect("non-empty");
    let scalar_est = ScalarEstimator::new(&scalar).expect("non-empty");

    // All intersecting pairs: paths sharing one of the 150 hub links.
    let per_hub = PATHS / HUBS;
    let mut pairs = Vec::new();
    for hub in 0..HUBS {
        let base = hub * per_hub;
        for a in 0..per_hub {
            for b in a + 1..per_hub {
                pairs.push((PathId(base + a), PathId(base + b)));
            }
        }
    }
    // An exact-state target pattern observed at least once.
    let target: std::collections::BTreeSet<PathId> =
        packed.congested_paths(0).into_iter().collect();

    // Streaming estimator with every pair registered and the full
    // snapshot stream pushed: registered-pair queries are O(1) counter
    // reads, so this measures the constant-time query floor.
    let mut streaming = StreamingEstimator::with_capacity(PATHS, SNAPSHOTS);
    streaming.register_pairs(&pairs).expect("valid pairs");
    for snapshot in packed.snapshots() {
        streaming.push_snapshot(&snapshot).expect("width matches");
    }

    let mut group = c.benchmark_group("estimator");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function(BenchmarkId::new("pair_queries_packed", pairs.len()), |b| {
        b.iter(|| packed_est.log_prob_pairs_good(&pairs).expect("valid pairs"))
    });
    group.bench_function(
        BenchmarkId::new("pair_queries_streaming", pairs.len()),
        |b| {
            b.iter(|| {
                streaming
                    .log_prob_pairs_good(&pairs)
                    .expect("registered pairs")
            })
        },
    );
    // The zero-copy memory tier: the same matrix persisted as a v3 file,
    // loaded either by mapping it in place or by copying it onto the
    // heap, then queried through the borrowed view.
    let file =
        std::env::temp_dir().join(format!("netcorr_bench_load_{}.ncobs3", std::process::id()));
    persist::write_observations(&file, &packed).expect("workload persists");
    group.bench_function("load_zero_copy_mmap", |b| {
        b.iter(|| {
            let mapped = persist::map_observations(&file).expect("mapped load");
            assert_eq!(mapped.num_snapshots(), SNAPSHOTS);
            mapped
        })
    });
    group.bench_function("load_heap_copy", |b| {
        b.iter(|| {
            let owned = persist::read_observations(&file).expect("heap load");
            assert_eq!(owned.num_snapshots(), SNAPSHOTS);
            owned
        })
    });
    let mapped = persist::map_observations(&file).expect("mapped load");
    group.bench_function(BenchmarkId::new("pair_queries_mapped", pairs.len()), |b| {
        b.iter(|| {
            mapped
                .view()
                .log_prob_pairs_good(&pairs)
                .expect("valid pairs")
        })
    });
    group.bench_function(BenchmarkId::new("pair_queries_scalar", pairs.len()), |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|&(x, y)| scalar_est.log_prob_paths_good(&[x, y]).expect("valid"))
                .sum::<f64>()
        })
    });
    group.bench_function("exact_state_packed", |b| {
        b.iter(|| packed_est.prob_exactly_congested(&target).expect("valid"))
    });
    group.bench_function("exact_state_scalar", |b| {
        b.iter(|| scalar_est.prob_exactly_congested(&target).expect("valid"))
    });
    group.bench_function("all_good_packed", |b| {
        b.iter(|| packed_est.prob_all_paths_good())
    });
    group.bench_function("all_good_scalar", |b| {
        b.iter(|| scalar_est.prob_all_paths_good())
    });
    group.finish();
    drop(mapped);
    std::fs::remove_file(&file).ok();
}

fn instance_statistics(c: &mut Criterion) {
    // Not strictly a benchmark target of the paper, but useful to watch:
    // coverage queries are on the hot path of the identifiability check and
    // the theorem algorithm.
    let instance = bench_instance(TopologyFamily::PlanetLab, 11);
    let links: Vec<_> = instance.topology.link_ids().collect();
    let mut group = c.benchmark_group("coverage_queries");
    group.sample_size(30);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("coverage_of_every_link", |b| {
        b.iter(|| {
            links
                .iter()
                .map(|&l| instance.paths.coverage(&[l]).len())
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    topology_generation,
    simulation_throughput,
    solvers,
    estimator_queries,
    instance_statistics
);
criterion_main!(benches);
