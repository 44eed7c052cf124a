//! The exact row selection against its floating-point oracle on the
//! seed-42 fixtures, for both algorithms' equation structures.
//!
//! The oracle is the Gram–Schmidt selector (`IndependentRowSelector`)
//! offered the rows in priority order; a link is identified by the oracle
//! iff its unit vector is rejected by a selector already holding the
//! selected rows. On the smoke fixtures and brite-paper the oracle runs
//! inside the test. On planetlab-paper it takes seconds even in release
//! mode, so its answer is recorded in `tests/data/planetlab_paper_selection.txt`
//! and the test compares against the file. To re-record it:
//!
//! ```text
//! NETCORR_RECORD_SELECTION=1 cargo test --release --test selection_oracle
//! ```

use netcorr::core::{AlgorithmConfig, InferenceContext};
use netcorr::eval::figures::{base_instance, Scale, TopologyFamily};
use netcorr::linalg::rank::{select_indicator_rows, IndependentRowSelector};
use netcorr::linalg::SparseMatrix;

const SEED: u64 = 42;
const RECORDED: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/planetlab_paper_selection.txt"
);

/// The two algorithms' configurations, named as in the recorded file.
fn configs() -> [(&'static str, AlgorithmConfig); 2] {
    let mut correlation = AlgorithmConfig::default();
    correlation.equations.respect_correlation = true;
    let mut independence = AlgorithmConfig::default();
    independence.equations.respect_correlation = false;
    [("correlation", correlation), ("independence", independence)]
}

/// What the oracle selects and identifies.
#[derive(Debug, PartialEq)]
struct Selection {
    selected: Vec<usize>,
    identified: Vec<bool>,
}

fn oracle(matrix: &SparseMatrix, tolerance: f64) -> Selection {
    let cols = matrix.cols();
    let mut selector = IndependentRowSelector::new(cols, tolerance);
    let mut selected = Vec::new();
    let mut dense = vec![0.0; cols];
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
    let identified = (0..cols)
        .map(|k| {
            let mut unit = vec![0.0; cols];
            unit[k] = 1.0;
            !selector.clone().offer(&unit)
        })
        .collect();
    Selection {
        selected,
        identified,
    }
}

/// The context's selection: its rank and identified links, plus the
/// exact selector's row indices over the same structure.
fn exact(context: &InferenceContext) -> Selection {
    let selection = select_indicator_rows(context.structure().matrix()).unwrap();
    assert_eq!(context.rank(), selection.rank());
    assert_eq!(context.identified_links(), selection.identified.as_slice());
    Selection {
        selected: selection.selected,
        identified: context.identified_links().to_vec(),
    }
}

/// Checks both configurations of one fixture against the live oracle and
/// returns `(equations, rank, identified)` per configuration.
fn check_against_oracle(family: TopologyFamily, scale: Scale) -> Vec<(usize, usize, usize)> {
    let instance = base_instance(family, scale, SEED).unwrap();
    configs()
        .iter()
        .map(|(name, config)| {
            let context = InferenceContext::new(&instance, config).unwrap();
            let exact = exact(&context);
            let oracle = oracle(
                context.structure().matrix(),
                config.solver.independence_tolerance,
            );
            assert_eq!(exact, oracle, "{family:?} {scale:?} {name}");
            let identified = exact.identified.iter().filter(|&&id| id).count();
            (
                context.structure().num_equations(),
                exact.selected.len(),
                identified,
            )
        })
        .collect()
}

#[test]
fn planetlab_smoke_selection_matches_the_oracle() {
    let counts = check_against_oracle(TopologyFamily::PlanetLab, Scale::Smoke);
    // (equations, rank, identified links) of 80 links.
    assert_eq!(counts, vec![(360, 57, 40), (360, 61, 46)]);
}

#[test]
fn brite_smoke_selection_matches_the_oracle() {
    let counts = check_against_oracle(TopologyFamily::Brite, Scale::Smoke);
    assert_eq!(counts, vec![(298, 62, 60), (312, 62, 60)]);
}

#[test]
fn brite_paper_selection_matches_the_oracle() {
    let counts = check_against_oracle(TopologyFamily::Brite, Scale::Paper);
    assert_eq!(counts, vec![(1775, 223, 169), (2406, 278, 251)]);
}

/// Index lists as comma-separated runs, `a-b` for consecutive indices.
fn encode_runs(indices: &[usize]) -> String {
    let mut runs: Vec<String> = Vec::new();
    let mut i = 0;
    while i < indices.len() {
        let start = indices[i];
        while i + 1 < indices.len() && indices[i + 1] == indices[i] + 1 {
            i += 1;
        }
        runs.push(if indices[i] == start {
            start.to_string()
        } else {
            format!("{start}-{}", indices[i])
        });
        i += 1;
    }
    runs.join(",")
}

fn decode_runs(text: &str) -> Vec<usize> {
    if text.is_empty() {
        return Vec::new();
    }
    text.split(',')
        .flat_map(|run| match run.split_once('-') {
            Some((a, b)) => a.parse::<usize>().unwrap()..=b.parse().unwrap(),
            None => {
                let a: usize = run.parse().unwrap();
                a..=a
            }
        })
        .collect()
}

/// One recorded line: `<config> links=<n> rank=<r> selected=<runs>
/// identified=<runs>`.
fn encode(name: &str, selection: &Selection) -> String {
    let identified: Vec<usize> = (0..selection.identified.len())
        .filter(|&k| selection.identified[k])
        .collect();
    format!(
        "{name} links={} rank={} selected={} identified={}",
        selection.identified.len(),
        selection.selected.len(),
        encode_runs(&selection.selected),
        encode_runs(&identified)
    )
}

fn decode(line: &str) -> (String, Selection) {
    let mut words = line.split(' ');
    let name = words.next().unwrap().to_string();
    let mut field = |key: &str| {
        let word = words.next().unwrap();
        word.strip_prefix(key)
            .and_then(|w| w.strip_prefix('='))
            .unwrap_or_else(|| panic!("expected {key}= in {word:.40}"))
            .to_string()
    };
    let links: usize = field("links").parse().unwrap();
    let rank: usize = field("rank").parse().unwrap();
    let selected = decode_runs(&field("selected"));
    let mut identified = vec![false; links];
    for k in decode_runs(&field("identified")) {
        identified[k] = true;
    }
    assert_eq!(selected.len(), rank, "{name}: rank and index list disagree");
    (
        name,
        Selection {
            selected,
            identified,
        },
    )
}

#[test]
fn planetlab_paper_selection_matches_the_recorded_oracle() {
    let instance = base_instance(TopologyFamily::PlanetLab, Scale::Paper, SEED).unwrap();
    if std::env::var_os("NETCORR_RECORD_SELECTION").is_some() {
        let lines: Vec<String> = configs()
            .iter()
            .map(|(name, config)| {
                let context = InferenceContext::new(&instance, config).unwrap();
                let oracle = oracle(
                    context.structure().matrix(),
                    config.solver.independence_tolerance,
                );
                encode(name, &oracle)
            })
            .collect();
        std::fs::write(RECORDED, lines.join("\n") + "\n").unwrap();
    }
    let recorded = std::fs::read_to_string(RECORDED).unwrap();
    let recorded: Vec<(String, Selection)> = recorded.lines().map(decode).collect();
    assert_eq!(recorded.len(), 2);
    for ((name, config), (recorded_name, oracle)) in configs().iter().zip(&recorded) {
        assert_eq!(name, recorded_name);
        let context = InferenceContext::new(&instance, config).unwrap();
        assert_eq!(exact(&context), *oracle, "planetlab-paper {name}");
    }
    let ranks: Vec<usize> = recorded.iter().map(|(_, s)| s.selected.len()).collect();
    assert_eq!(ranks, vec![857, 930]);
}

#[test]
fn run_encoding_round_trips() {
    for indices in [vec![], vec![3], vec![0, 1, 2, 5, 7, 8], vec![4, 6, 8]] {
        assert_eq!(decode_runs(&encode_runs(&indices)), indices);
    }
    assert_eq!(encode_runs(&[0, 1, 2, 5, 7, 8]), "0-2,5,7-8");
}
