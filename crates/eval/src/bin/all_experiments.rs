//! Runs the complete evaluation (Figures 3, 4 and 5) and prints a compact
//! summary comparing the measured numbers against the qualitative claims of
//! the paper. The full tables are written as CSV files; README "Build,
//! test, bench" shows how to run this binary and the per-figure `fig3` /
//! `fig4` / `fig5` binaries.

use netcorr_eval::cli::{usage, CliOptions, CliOutcome};
use netcorr_eval::figures::{fig3, fig4, fig5, CdfComparison};
use netcorr_eval::report;
use netcorr_eval::scenario::CorrelationLevel;

fn main() {
    let options = match CliOptions::from_env() {
        Ok(CliOutcome::Run(options)) => options,
        Ok(CliOutcome::HelpRequested) => {
            println!("{}", usage());
            return;
        }
        Err(err) => {
            eprintln!("{err}");
            std::process::exit(2);
        }
    };
    if let Err(err) = run(&options) {
        eprintln!("all_experiments failed: {err}");
        std::process::exit(1);
    }
}

fn check(label: &str, holds: bool) {
    println!("  [{}] {}", if holds { "ok" } else { "??" }, label);
}

fn summarize_cdf(name: &str, comparison: &CdfComparison) {
    let (corr_below, indep_below) = comparison.fraction_below(0.1);
    println!(
        "  {name}: err<=0.1 for {corr_below:.0}% (correlation) vs {indep_below:.0}% (independence); \
         mean {:.3} vs {:.3}",
        comparison.correlation_summary.mean, comparison.independence_summary.mean
    );
    check(
        "correlation algorithm at least as accurate as the baseline",
        comparison.correlation_summary.mean <= comparison.independence_summary.mean + 1e-9,
    );
}

fn run(options: &CliOptions) -> Result<(), netcorr_eval::EvalError> {
    println!("netcorr full evaluation ({:?} scale)", options.scale);
    println!(
        "trials: {}, snapshots per trial: {}, base seed: {}",
        options.experiment.trials, options.experiment.snapshots, options.experiment.base_seed
    );

    // ---- Figure 3 ----
    println!("\n=== Figure 3: ideal conditions (Brite) ===");
    let sweep = fig3::congestion_sweep(
        options.scale,
        CorrelationLevel::HighlyCorrelated,
        &options.experiment,
    )?;
    println!(
        "{}",
        report::format_sweep_table("Figure 3(a) mean / 3(b) 90th percentile", &sweep)
    );
    report::write_sweep_csv(&options.out_dir.join("fig3ab.csv"), &sweep)?;
    let first = sweep.first().expect("sweep is non-empty");
    let last = sweep.last().expect("sweep is non-empty");
    check(
        "correlation algorithm mean error stays below the baseline across the sweep",
        sweep
            .iter()
            .all(|p| p.correlation.mean <= p.independence.mean + 1e-9),
    );
    check(
        "baseline error grows with the fraction of congested links",
        last.independence.mean >= first.independence.mean,
    );

    let fig3c = fig3::cdf_at_ten_percent(
        options.scale,
        CorrelationLevel::HighlyCorrelated,
        &options.experiment,
    )?;
    report::write_cdf_csv(&options.out_dir.join("fig3c.csv"), &fig3c)?;
    summarize_cdf("Fig 3(c) highly correlated", &fig3c);
    let fig3d = fig3::cdf_at_ten_percent(
        options.scale,
        CorrelationLevel::LooselyCorrelated,
        &options.experiment,
    )?;
    report::write_cdf_csv(&options.out_dir.join("fig3d.csv"), &fig3d)?;
    summarize_cdf("Fig 3(d) loosely correlated", &fig3d);

    // ---- Figure 4 ----
    println!("\n=== Figure 4: unidentifiable links (10% congested) ===");
    let comparisons = fig4::full_figure(options.scale, &options.experiment)?;
    for (comparison, name) in comparisons.iter().zip(["fig4a", "fig4b", "fig4c", "fig4d"]) {
        report::write_cdf_csv(&options.out_dir.join(format!("{name}.csv")), comparison)?;
        summarize_cdf(name, comparison);
    }

    // ---- Figure 5 ----
    println!("\n=== Figure 5: unknown correlation patterns (10% congested) ===");
    let comparisons = fig5::full_figure(options.scale, &options.experiment)?;
    for (comparison, name) in comparisons.iter().zip(["fig5a", "fig5b", "fig5c", "fig5d"]) {
        report::write_cdf_csv(&options.out_dir.join(format!("{name}.csv")), comparison)?;
        summarize_cdf(name, comparison);
    }

    println!("\nCSV output written to {}", options.out_dir.display());
    Ok(())
}
