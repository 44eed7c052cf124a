//! Integration test: the full pipeline on a BRITE-style topology — the
//! smoke-scale version of the paper's Figure 3 experiment.

use netcorr::eval::figures::{base_instance, Scale, TopologyFamily};
use netcorr::eval::runner::{run_experiment, ExperimentConfig};
use netcorr::eval::scenario::{CorrelationLevel, ScenarioConfig};

fn experiment_config() -> ExperimentConfig {
    ExperimentConfig {
        trials: 2,
        snapshots: 500,
        base_seed: 2010,
        parallel: true,
        ..ExperimentConfig::smoke()
    }
}

#[test]
fn correlation_algorithm_outperforms_the_baseline_under_ideal_conditions() {
    // Figure 3(c) at smoke scale: 10% congested links, highly correlated.
    let base = base_instance(TopologyFamily::Brite, Scale::Smoke, 2010).unwrap();
    let scenario = ScenarioConfig {
        congested_fraction: 0.10,
        correlation_level: CorrelationLevel::HighlyCorrelated,
        ..ScenarioConfig::default()
    };
    let result = run_experiment(&base, &scenario, &experiment_config()).unwrap();
    let corr = result.correlation_summary();
    let indep = result.independence_summary();

    assert!(
        corr.count > 10,
        "expected a meaningful number of scored links"
    );
    // The correlation algorithm is accurate in absolute terms...
    assert!(corr.mean < 0.10, "correlation mean error {}", corr.mean);
    // ...and at least as good as the independence baseline (up to a small
    // noise margin; the paper-scale `fig3` / `fig4` / `fig5` /
    // `all_experiments` runs in README "Build, test, bench" show the gap).
    assert!(
        corr.mean <= indep.mean + 0.01,
        "correlation {} vs independence {}",
        corr.mean,
        indep.mean
    );
}

#[test]
fn baseline_error_grows_with_congestion_but_correlation_stays_flat() {
    // Figure 3(a) at smoke scale, comparing the 5% and 25% points.
    let base = base_instance(TopologyFamily::Brite, Scale::Smoke, 7).unwrap();
    let config = experiment_config();
    let run = |fraction: f64| {
        let scenario = ScenarioConfig {
            congested_fraction: fraction,
            correlation_level: CorrelationLevel::HighlyCorrelated,
            ..ScenarioConfig::default()
        };
        run_experiment(&base, &scenario, &config).unwrap()
    };
    let light = run(0.05);
    let heavy = run(0.25);
    // The correlation algorithm's error stays small even with heavy,
    // highly-correlated congestion.
    assert!(
        heavy.correlation_summary().mean < 0.12,
        "correlation mean at 25% congestion: {}",
        heavy.correlation_summary().mean
    );
    // The baseline degrades (or at best stays the same) as congestion grows.
    assert!(
        heavy.independence_summary().mean + 0.02 >= light.independence_summary().mean,
        "independence mean went from {} (5%) to {} (25%)",
        light.independence_summary().mean,
        heavy.independence_summary().mean
    );
    // And at 25% congestion the correlation algorithm is no worse than the
    // baseline.
    assert!(
        heavy.correlation_summary().mean <= heavy.independence_summary().mean + 0.01,
        "correlation {} vs independence {} at 25% congestion",
        heavy.correlation_summary().mean,
        heavy.independence_summary().mean
    );
}

#[test]
fn unidentifiable_links_degrade_gracefully() {
    // Figure 4(a)/(b) at smoke scale: the correlation algorithm still beats
    // the baseline when a quarter / half of the congested links are
    // unidentifiable.
    let base = base_instance(TopologyFamily::Brite, Scale::Smoke, 13).unwrap();
    let config = experiment_config();
    for fraction in [0.25, 0.5] {
        let scenario = ScenarioConfig {
            congested_fraction: 0.10,
            correlation_level: CorrelationLevel::HighlyCorrelated,
            unidentifiable_fraction: fraction,
            ..ScenarioConfig::default()
        };
        let result = run_experiment(&base, &scenario, &config).unwrap();
        let corr = result.correlation_summary();
        let indep = result.independence_summary();
        assert!(
            corr.mean <= indep.mean + 0.02,
            "unidentifiable fraction {fraction}: correlation {} vs independence {}",
            corr.mean,
            indep.mean
        );
    }
}
