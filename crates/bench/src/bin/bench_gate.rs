//! CI regression gate for the estimator and inference hot paths.
//!
//! Two checks, each re-timed with plain `std::time`; the build **fails**
//! (exit code 1) if either drops below its recorded floor:
//!
//! * **Estimator** — the `estimator` benchmark workload (1500 paths ×
//!   4096 snapshots, 6750 intersecting pairs — the same fixture as
//!   `benches/micro.rs`): packed pair-query speedup over the scalar
//!   reference must stay above `acceptance.pair_queries_speedup_floor`
//!   in `BENCH_estimator.json`.
//! * **Zero-copy load** — the same matrix persisted as a v3 file:
//!   mapping it query-ready (`persist::map_observations`, header
//!   validation only) must beat the heap-copying loader
//!   (`persist::read_observations`) by
//!   `acceptance.zero_copy_load_speedup_floor` in
//!   `BENCH_estimator.json`. The active popcount kernel tier is printed
//!   for the record.
//! * **Row selection** — the brite-paper topology (seed 42), correlation
//!   equations: the exact sparse selection
//!   ([`netcorr_linalg::rank::select_indicator_rows`]) must pick the
//!   identical rows as the Gram–Schmidt oracle
//!   ([`netcorr_linalg::rank::IndependentRowSelector`]) and beat it by
//!   `acceptance.selection_speedup_floor` in `BENCH_inference.json`.
//!   Per-trial inference through a prebuilt
//!   [`netcorr_core::InferenceContext`] vs the one-shot algorithm
//!   rebuilding everything per call (smoke-scale PlanetLab) is printed
//!   for the record; most of what it used to show being saved was the
//!   selection, which is now cheap.
//!
//! * **Serve** — the online-daemon workloads from `benches/serve.rs`:
//!   in-process `PROB` query dispatch through the wire protocol must
//!   stay above `acceptance.query_throughput_floor_per_sec`, and the
//!   warm-started re-inference sweep over the steady-state refresh
//!   right-hand sides must spend fewer CGLS iterations than the cold
//!   sweep by `acceptance.warm_reinfer_speedup_floor` (a deterministic
//!   ratio; the wall-clock sweep times are printed for the record),
//!   both in `BENCH_serve.json`. A third serve check bounds crash
//!   recovery: restarting over a history file torn mid-write (recover
//!   the rotated `.prev` generation, map and attach it) may cost at
//!   most `acceptance.recovery_cold_start_ratio_ceiling` of a restart
//!   over a clean file.
//!
//! Every floor comes from its JSON file: a missing key fails the gate
//! with the key's name, so a code default can never drift from the
//! committed baseline.
//!
//! Run from the repository root, in release mode:
//!
//! ```text
//! cargo run --release -p netcorr-bench --bin bench_gate
//! ```
//!
//! The baseline paths can be overridden with the `BENCH_BASELINE`,
//! `BENCH_INFERENCE_BASELINE`, `BENCH_SERVE_BASELINE` and
//! `BENCH_ROBUSTNESS_BASELINE` environment variables.

use std::time::Instant;

use netcorr_bench::{fixture, serve_reinfer_workload};
use netcorr_core::equations::equation_structure;
use netcorr_core::{AlgorithmConfig, CorrelationAlgorithm, InferenceContext};
use netcorr_eval::figures::{base_instance, Scale, TopologyFamily};
use netcorr_eval::persist;
use netcorr_eval::robustness::RobustnessConfig;
use netcorr_eval::scenario::CorrelationLevel;
use netcorr_linalg::rank::{select_indicator_rows, IndependentRowSelector};
use netcorr_linalg::SparseMatrix;
use netcorr_measure::bitset::simd;
use netcorr_measure::reference::{ScalarEstimator, ScalarObservations};
use netcorr_measure::{PathCounts, PathObservations, ProbabilityEstimator, StreamingEstimator};
use netcorr_topology::path::PathId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const PATHS: usize = 1500;
const SNAPSHOTS: usize = 4096;
const HUBS: usize = 150;

/// Extracts `"<key>": <number>` from the baseline JSON with a plain text
/// scan (the vendored serde_json shim only serializes).
fn read_floor(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let key = format!("\"{key}\":");
    let start = text.find(&key)? + key.len();
    let rest = text[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The floor `key` from the baseline JSON at `path`; fails the gate,
/// naming the key, when it is missing or not a number.
fn floor(path: &str, key: &str) -> f64 {
    read_floor(path, key).unwrap_or_else(|| {
        eprintln!("bench_gate: FAIL — no numeric `{key}` in {path}");
        std::process::exit(1);
    })
}

/// Mean seconds per iteration of `f` over `iters` timed runs (after
/// `warmup` discarded runs).
fn time_mean(warmup: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// The Gram–Schmidt oracle's selection: rows offered densely, in order,
/// until they span every column.
fn oracle_selection(matrix: &SparseMatrix, tolerance: f64) -> Vec<usize> {
    let mut selector = IndependentRowSelector::new(matrix.cols(), tolerance);
    let mut dense = vec![0.0; matrix.cols()];
    let mut selected = Vec::new();
    for row in 0..matrix.rows() {
        if selector.is_complete() {
            break;
        }
        dense.iter_mut().for_each(|v| *v = 0.0);
        for &(col, value) in matrix.row(row) {
            dense[col] = value;
        }
        if selector.offer(&dense) {
            selected.push(row);
        }
    }
    selected
}

fn main() {
    let baseline =
        std::env::var("BENCH_BASELINE").unwrap_or_else(|_| "BENCH_estimator.json".into());
    let pair_floor = floor(&baseline, "pair_queries_speedup_floor");

    // Same workload as the `estimator` criterion group in benches/micro.rs.
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
    let mut streaming = StreamingEstimator::with_capacity(PATHS, SNAPSHOTS);
    streaming.register_pairs(&pairs).expect("valid pairs");
    for snapshot in packed.snapshots() {
        streaming.push_snapshot(&snapshot).expect("width matches");
    }

    let packed_mean = time_mean(3, 20, || {
        let sum: f64 = packed_est
            .log_prob_pairs_good(&pairs)
            .expect("valid pairs")
            .iter()
            .sum();
        assert!(sum.is_finite());
    });
    let streaming_mean = time_mean(3, 20, || {
        let sum: f64 = streaming
            .log_prob_pairs_good(&pairs)
            .expect("registered pairs")
            .iter()
            .sum();
        assert!(sum.is_finite());
    });
    let scalar_mean = time_mean(1, 3, || {
        let sum: f64 = pairs
            .iter()
            .map(|&(a, b)| scalar_est.log_prob_paths_good(&[a, b]).expect("valid"))
            .sum();
        assert!(sum.is_finite());
    });

    let speedup = scalar_mean / packed_mean;
    println!(
        "bench_gate: pair queries over {} pairs x {SNAPSHOTS} snapshots",
        pairs.len()
    );
    println!("  packed    {:>10.1} us/iter", packed_mean * 1e6);
    println!(
        "  streaming {:>10.1} us/iter (O(1) per registered pair)",
        streaming_mean * 1e6
    );
    println!("  scalar    {:>10.1} us/iter", scalar_mean * 1e6);
    println!("  speedup   {speedup:>10.1}x (floor {pair_floor}x from {baseline})");

    if speedup < pair_floor {
        eprintln!("bench_gate: FAIL — packed/scalar speedup {speedup:.1}x is below {pair_floor}x");
        std::process::exit(1);
    }

    // --- Zero-copy load gate. ---
    println!(
        "bench_gate: active popcount kernel tier: {}",
        simd::active_tier().as_str()
    );

    let load_floor = floor(&baseline, "zero_copy_load_speedup_floor");
    let file = std::env::temp_dir().join(format!(
        "netcorr_bench_gate_load_{}.ncobs3",
        std::process::id()
    ));
    persist::write_observations(&file, &packed).expect("workload persists");
    let mapped_mean = time_mean(3, 50, || {
        let mapped = persist::map_observations(&file).expect("mapped load");
        assert_eq!(mapped.num_snapshots(), SNAPSHOTS);
    });
    let heap_mean = time_mean(3, 20, || {
        let owned = persist::read_observations(&file).expect("heap load");
        assert_eq!(owned.num_snapshots(), SNAPSHOTS);
    });
    // The mapped view must answer bit-identically to the in-memory
    // estimator it replaces.
    let mapped = persist::map_observations(&file).expect("mapped load");
    assert_eq!(
        mapped.view().prob_all_paths_good().expect("non-empty"),
        packed_est.prob_all_paths_good().expect("non-empty"),
        "mapped view disagrees with the owning estimator"
    );
    drop(mapped);
    std::fs::remove_file(&file).ok();
    let load_speedup = heap_mean / mapped_mean;
    println!(
        "bench_gate: v3 load of {PATHS} paths x {SNAPSHOTS} snapshots ({} KiB)",
        PATHS * SNAPSHOTS.div_ceil(64) * 8 / 1024
    );
    println!("  mapped (zero-copy) {:>9.1} us/load", mapped_mean * 1e6);
    println!("  heap (copying)     {:>9.1} us/load", heap_mean * 1e6);
    println!("  speedup            {load_speedup:>9.1}x (floor {load_floor}x from {baseline})");

    if load_speedup < load_floor {
        eprintln!(
            "bench_gate: FAIL — zero-copy load speedup {load_speedup:.1}x is below {load_floor}x"
        );
        std::process::exit(1);
    }

    // --- Inference gate: exact row selection vs the Gram–Schmidt oracle. ---
    let inference_baseline =
        std::env::var("BENCH_INFERENCE_BASELINE").unwrap_or_else(|_| "BENCH_inference.json".into());
    let selection_floor = floor(&inference_baseline, "selection_speedup_floor");

    let brite = base_instance(TopologyFamily::Brite, Scale::Paper, 42).expect("brite-paper");
    let config = AlgorithmConfig::default();
    let structure = equation_structure(&brite, &config.equations).expect("structure builds");
    let matrix = structure.matrix();
    let tolerance = config.solver.independence_tolerance;
    let oracle = oracle_selection(matrix, tolerance);
    let exact = select_indicator_rows(matrix).expect("indicator rows");
    if exact.selected != oracle {
        eprintln!(
            "bench_gate: FAIL — exact selection ({} rows) differs from the Gram–Schmidt oracle \
             ({} rows)",
            exact.rank(),
            oracle.len()
        );
        std::process::exit(1);
    }
    let oracle_mean = time_mean(1, 3, || {
        assert_eq!(oracle_selection(matrix, tolerance).len(), oracle.len());
    });
    let exact_mean = time_mean(3, 20, || {
        assert_eq!(
            select_indicator_rows(matrix)
                .expect("indicator rows")
                .rank(),
            oracle.len()
        );
    });
    let selection_speedup = oracle_mean / exact_mean;
    println!(
        "bench_gate: row selection on brite-paper ({} links, {} equations, rank {}, {} identified)",
        matrix.cols(),
        matrix.rows(),
        exact.rank(),
        exact.num_identified()
    );
    println!(
        "  Gram-Schmidt oracle {:>9.1} us/selection",
        oracle_mean * 1e6
    );
    println!(
        "  exact (two primes)  {:>9.1} us/selection",
        exact_mean * 1e6
    );
    println!(
        "  speedup             {selection_speedup:>9.1}x, identical rows (floor \
         {selection_floor}x from {inference_baseline})"
    );
    if selection_speedup < selection_floor {
        eprintln!(
            "bench_gate: FAIL — exact selection speedup {selection_speedup:.1}x is below \
             {selection_floor}x"
        );
        std::process::exit(1);
    }

    // Structure reuse, for the record: per-trial inference on a
    // smoke-scale PlanetLab fixture with and without the
    // observation-independent work (structure, selection, QR) hoisted out.
    let fx = fixture(
        TopologyFamily::PlanetLab,
        0.10,
        CorrelationLevel::HighlyCorrelated,
        0.0,
        0.0,
        7,
    );
    let instance = &fx.scenario.instance;
    let context = InferenceContext::for_correlation(instance, config).expect("context builds");
    let rebuilt_mean = time_mean(2, 15, || {
        let estimate = CorrelationAlgorithm::with_config(instance, config)
            .infer(&fx.observations)
            .expect("inference succeeds");
        assert!(estimate.diagnostics.residual.is_finite());
    });
    let cached_mean = time_mean(2, 15, || {
        let estimate = context.infer(&fx.observations).expect("inference succeeds");
        assert!(estimate.diagnostics.residual.is_finite());
    });
    println!(
        "bench_gate: per-trial inference on a smoke PlanetLab fixture ({} links, {} equations)",
        context.num_links(),
        context.structure().num_equations()
    );
    println!("  structure rebuilt {:>10.1} us/iter", rebuilt_mean * 1e6);
    println!("  structure cached  {:>10.1} us/iter", cached_mean * 1e6);
    println!(
        "  ratio             {:>10.1}x (recorded, not gated)",
        rebuilt_mean / cached_mean
    );

    // --- Serve gate: query dispatch throughput + warm re-inference. ---
    let serve_baseline =
        std::env::var("BENCH_SERVE_BASELINE").unwrap_or_else(|_| "BENCH_serve.json".into());
    let query_floor = floor(&serve_baseline, "query_throughput_floor_per_sec");
    let warm_floor = floor(&serve_baseline, "warm_reinfer_speedup_floor");

    // Query dispatch: the same in-process `PROB` path as the
    // `serve_query` benchmark — what one daemon session costs per query
    // once the socket is taken out of the picture.
    let mut service = netcorr_serve::TomographyService::new(instance, &AlgorithmConfig::default())
        .expect("service builds");
    service
        .ingest_observations(&fx.observations)
        .expect("fixture observations ingest");
    service.reinfer().expect("inference succeeds");
    let num_links = service.num_links();
    const QUERIES_PER_ITER: usize = 1000;
    let query_mean = time_mean(3, 20, || {
        for q in 0..QUERIES_PER_ITER {
            let line = format!("PROB {}", q % num_links);
            let reply =
                netcorr_serve::protocol::execute(&mut service, &line, &mut std::io::empty());
            assert!(reply.text.starts_with("OK "));
        }
    }) / QUERIES_PER_ITER as f64;
    let query_throughput = 1.0 / query_mean;

    // Warm vs cold re-inference over the identical steady-state refresh
    // sequence (sparse plan, online tolerance) — the daemon's warm chain
    // must actually be cheaper than solving every refresh from zero. The
    // floored metric is the **CGLS iteration ratio**, which is fully
    // deterministic for a given workload (wall-clock tracks it, since
    // every iteration costs the same two matvecs, but timing a ~1.15x
    // effect on a shared CI box would flake); the measured sweep times
    // are printed alongside for the record.
    let (serve_context, rhs_sequence) = serve_reinfer_workload(&fx);
    let mut cold_iterations = 0usize;
    let cold_mean = time_mean(2, 10, || {
        cold_iterations = 0;
        for rhs in &rhs_sequence {
            let (estimate, _) = serve_context.reinfer(rhs, None).expect("solves");
            cold_iterations += estimate.diagnostics.iterations;
        }
    });
    let mut warm_iterations = 0usize;
    let warm_mean = time_mean(2, 10, || {
        warm_iterations = 0;
        let mut warm: Option<Vec<f64>> = None;
        for rhs in &rhs_sequence {
            let (estimate, x) = serve_context.reinfer(rhs, warm.as_deref()).expect("solves");
            warm_iterations += estimate.diagnostics.iterations;
            warm = Some(x);
        }
    });
    let warm_speedup = cold_iterations as f64 / warm_iterations.max(1) as f64;
    println!(
        "bench_gate: serve — query dispatch + warm re-inference ({} links, {} refreshes)",
        num_links,
        rhs_sequence.len()
    );
    println!(
        "  PROB dispatch     {:>10.2} us/query ({:.0} queries/s, floor {query_floor}/s from \
         {serve_baseline})",
        query_mean * 1e6,
        query_throughput
    );
    println!(
        "  cold refresh sweep {:>9.1} us ({cold_iterations} CGLS iterations)",
        cold_mean * 1e6
    );
    println!(
        "  warm refresh sweep {:>9.1} us ({warm_iterations} CGLS iterations)",
        warm_mean * 1e6
    );
    println!(
        "  warm speedup      {warm_speedup:>10.2}x fewer iterations (floor {warm_floor}x from \
         {serve_baseline}; wall-clock {:.2}x)",
        cold_mean / warm_mean
    );

    if query_throughput < query_floor {
        eprintln!(
            "bench_gate: FAIL — query throughput {query_throughput:.0}/s is below {query_floor}/s"
        );
        std::process::exit(1);
    }
    if warm_speedup < warm_floor {
        eprintln!(
            "bench_gate: FAIL — warm re-inference iteration speedup {warm_speedup:.2}x is below \
             {warm_floor}x"
        );
        std::process::exit(1);
    }

    // --- Serve recovery gate: crash recovery vs plain cold start. ---
    // A daemon restarted over a history torn by a crash mid-write
    // (quarantine the torn bytes, promote the rotated `.prev`
    // generation, map and attach the survivor) must cost close to a
    // restart over a clean file — recovery is a rename plus the same
    // map-and-attach, so it may add at most
    // `acceptance.recovery_cold_start_ratio_ceiling` (2x). The
    // filesystem state is re-torn between iterations *outside* the
    // timed region, since recovery repairs it in place.
    let recovery_ceiling = floor(&serve_baseline, "recovery_cold_start_ratio_ceiling");
    let dir = std::env::temp_dir().join(format!(
        "netcorr_bench_gate_recovery_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let history = dir.join("history.ncobs3");
    let prev = dir.join("history.ncobs3.prev");
    let torn_quarantine = dir.join("history.ncobs3.torn");
    let split = fx.observations.num_snapshots() / 2;
    let slice = |range: std::ops::Range<usize>| {
        let mut block = PathObservations::new(fx.observations.num_paths());
        for i in range {
            block
                .record_snapshot(&fx.observations.snapshot(i))
                .expect("width matches");
        }
        block
    };
    {
        // Seed the two generations: current = gen 2, `.prev` = gen 1.
        let mut seeder =
            netcorr_serve::TomographyService::new(instance, &AlgorithmConfig::default())
                .expect("service builds");
        seeder.enable_history(&history).expect("history enables");
        seeder
            .ingest_observations(&slice(0..split))
            .expect("first generation ingests");
        seeder
            .ingest_observations(&slice(split..fx.observations.num_snapshots()))
            .expect("second generation ingests");
    }
    let clean_bytes = std::fs::read(&history).expect("sealed history");
    let prev_bytes = std::fs::read(&prev).expect("rotated generation");
    let torn_bytes = &clean_bytes[..clean_bytes.len() * 3 / 5];
    let time_start = |torn: bool, iters: usize| -> f64 {
        let mut total = 0.0;
        for i in 0..iters + 2 {
            std::fs::remove_file(&torn_quarantine).ok();
            std::fs::write(&history, if torn { torn_bytes } else { &clean_bytes }).unwrap();
            std::fs::write(&prev, &prev_bytes).unwrap();
            let start = Instant::now();
            let mut service =
                netcorr_serve::TomographyService::new(instance, &AlgorithmConfig::default())
                    .expect("service builds");
            let reloaded = service.enable_history(&history).expect("startup succeeds");
            let elapsed = start.elapsed().as_secs_f64();
            let status = service.status().history.expect("history enabled");
            if torn {
                assert!(status.recovered, "torn start must recover");
                assert_eq!(reloaded, split, "recovery lands on the acked generation");
            } else {
                assert!(!status.recovered, "clean start must not recover");
            }
            if i >= 2 {
                total += elapsed; // two warm-up starts discarded
            }
        }
        total / iters as f64
    };
    let clean_mean = time_start(false, 20);
    let recovery_mean = time_start(true, 20);
    std::fs::remove_dir_all(&dir).ok();
    let recovery_ratio = recovery_mean / clean_mean;
    println!(
        "bench_gate: serve — crash recovery vs clean cold start ({} snapshots, {} history KiB)",
        fx.observations.num_snapshots(),
        clean_bytes.len() / 1024
    );
    println!("  clean start        {:>9.1} us", clean_mean * 1e6);
    println!("  recovered start    {:>9.1} us", recovery_mean * 1e6);
    println!(
        "  ratio              {recovery_ratio:>9.2}x (ceiling {recovery_ceiling}x from \
         {serve_baseline})"
    );
    if recovery_ratio > recovery_ceiling {
        eprintln!(
            "bench_gate: FAIL — recovery makes cold start {recovery_ratio:.2}x slower, ceiling \
             is {recovery_ceiling}x"
        );
        std::process::exit(1);
    }

    // --- Robustness gate: degradation curves vs committed thresholds. ---
    // Re-runs the seeded model-misspecification matrix (deterministic, a
    // few seconds at smoke scale) and compares every cell against the
    // per-cell thresholds committed in ROBUSTNESS.json, plus the asserted
    // worm scenario. A change that silently degrades accuracy or
    // identifiability under perturbed conditions fails here even when the
    // clean-model tests still pass.
    let robustness_baseline =
        std::env::var("BENCH_ROBUSTNESS_BASELINE").unwrap_or_else(|_| "ROBUSTNESS.json".into());
    match std::fs::read_to_string(&robustness_baseline) {
        Err(err) => {
            eprintln!(
                "bench_gate: robustness baseline {robustness_baseline} unreadable ({err}); \
                 skipping the robustness gate"
            );
        }
        Ok(baseline) => {
            let report = netcorr_eval::robustness::run_matrix(&RobustnessConfig::smoke())
                .expect("robustness matrix runs");
            if let Err(message) = report.worm.check() {
                eprintln!("bench_gate: FAIL — {message}");
                std::process::exit(1);
            }
            let checks = netcorr_eval::robustness::check_against_baseline(&report, &baseline)
                .expect("committed robustness baseline covers the smoke matrix");
            let failures: Vec<_> = checks.iter().filter(|c| !c.passes()).collect();
            println!(
                "bench_gate: robustness — {} cells vs {robustness_baseline}, worm correlation \
                 mean {:.4} <= independence {:.4}",
                checks.len(),
                report.worm.correlation.mean,
                report.worm.independence.mean
            );
            for check in &failures {
                eprintln!(
                    "  REGRESSION {}: mean error {:.4} (max {:.4}), detection rate {:.4} (min \
                     {:.4})",
                    check.cell,
                    check.measured_mean,
                    check.max_mean,
                    check.measured_detection,
                    check.min_detection
                );
            }
            if !failures.is_empty() {
                eprintln!(
                    "bench_gate: FAIL — {}/{} robustness cells regressed past their committed \
                     thresholds",
                    failures.len(),
                    checks.len()
                );
                std::process::exit(1);
            }
        }
    }
    println!("bench_gate: OK");
}
