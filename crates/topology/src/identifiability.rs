//! Assumption 4 (identifiability) analysis.
//!
//! Assumption 4 of the paper requires that no two distinct correlation
//! subsets `A, B ∈ C̃` cover exactly the same set of paths
//! (`ψ(A) ≠ ψ(B)`). When it holds, the congestion probability of every set
//! of links is identifiable from end-to-end measurements (Theorem 1); when
//! it fails, the links that belong to the conflicting subsets are
//! *unidentifiable* — their congestion probability cannot be computed
//! accurately, although the rest of the network still can (Section 5,
//! "Unidentifiable Links").
//!
//! Two analyses are provided:
//!
//! * [`check_identifiability`] — the exact check: enumerate every
//!   correlation subset of every correlation set, compute its coverage
//!   signature and look for collisions. Exponential in the size of a
//!   correlation set, so sets larger than
//!   [`IdentifiabilityConfig::max_subset_size`] are only partially
//!   enumerated (all subsets up to size 2 plus the full set) and reported
//!   as truncated.
//! * [`node_heuristic_violations`] — the structural heuristic of
//!   Section 3.3: an intermediate node whose ingress links all belong to
//!   one correlation set and whose egress links all belong to one
//!   correlation set makes the two subsets cover the same paths.

use std::collections::{BTreeMap, BTreeSet};

use crate::correlation::CorrelationSetId;
use crate::graph::{LinkId, NodeId};
use crate::path::PathId;
use crate::TopologyInstance;

/// Configuration of the exhaustive identifiability check.
#[derive(Debug, Clone, Copy)]
pub struct IdentifiabilityConfig {
    /// Correlation sets with more links than this are not exhaustively
    /// enumerated; only their singletons, pairs and the full set are
    /// checked, and the set is reported in
    /// [`IdentifiabilityReport::truncated_sets`].
    pub max_subset_size: usize,
}

impl Default for IdentifiabilityConfig {
    fn default() -> Self {
        IdentifiabilityConfig {
            max_subset_size: 16,
        }
    }
}

/// A pair of correlation subsets that cover exactly the same set of paths,
/// violating Assumption 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageConflict {
    /// The first subset.
    pub subset_a: Vec<LinkId>,
    /// The second subset.
    pub subset_b: Vec<LinkId>,
    /// The common coverage `ψ(A) = ψ(B)`.
    pub coverage: BTreeSet<PathId>,
}

/// The result of an identifiability analysis.
#[derive(Debug, Clone)]
pub struct IdentifiabilityReport {
    /// `true` if no coverage collision was found among the enumerated
    /// subsets (and no correlation set had to be truncated).
    pub holds: bool,
    /// Representative conflicting subset pairs (one per colliding coverage
    /// signature, pairing the first two subsets found).
    pub conflicts: Vec<CoverageConflict>,
    /// Links that belong to at least one conflicting correlation subset;
    /// these are the "unidentifiable links" of Section 5.
    pub unidentifiable_links: BTreeSet<LinkId>,
    /// Total number of correlation subsets whose coverage was computed.
    pub checked_subsets: usize,
    /// Correlation sets that were too large for exhaustive enumeration.
    pub truncated_sets: Vec<CorrelationSetId>,
}

/// Runs the exact identifiability check on an instance.
pub fn check_identifiability(
    instance: &TopologyInstance,
    config: IdentifiabilityConfig,
) -> IdentifiabilityReport {
    let mut signature_to_subsets: BTreeMap<Vec<PathId>, Vec<Vec<LinkId>>> = BTreeMap::new();
    let mut truncated_sets = Vec::new();
    let mut checked_subsets = 0;

    for (set_id, links) in instance.correlation.sets() {
        let subsets: Vec<Vec<LinkId>> = if links.len() <= config.max_subset_size {
            instance
                .correlation
                .subsets_of_set(set_id, config.max_subset_size)
                .expect("size checked above")
        } else {
            truncated_sets.push(set_id);
            truncated_subsets(links)
        };
        for subset in subsets {
            let coverage: Vec<PathId> = instance.paths.coverage(&subset).into_iter().collect();
            checked_subsets += 1;
            signature_to_subsets
                .entry(coverage)
                .or_default()
                .push(subset);
        }
    }

    let mut conflicts = Vec::new();
    let mut unidentifiable_links = BTreeSet::new();
    for (signature, subsets) in &signature_to_subsets {
        if subsets.len() < 2 {
            continue;
        }
        for subset in subsets {
            unidentifiable_links.extend(subset.iter().copied());
        }
        conflicts.push(CoverageConflict {
            subset_a: subsets[0].clone(),
            subset_b: subsets[1].clone(),
            coverage: signature.iter().copied().collect(),
        });
    }

    IdentifiabilityReport {
        holds: conflicts.is_empty() && truncated_sets.is_empty(),
        conflicts,
        unidentifiable_links,
        checked_subsets,
        truncated_sets,
    }
}

/// Partial subset enumeration for oversized correlation sets: all
/// singletons, all pairs and the full set. Coverage collisions among these
/// small subsets catch the overwhelmingly common violations (they are the
/// ones produced by the structural pattern of Section 3.3) without the
/// exponential blow-up.
fn truncated_subsets(links: &[LinkId]) -> Vec<Vec<LinkId>> {
    let mut subsets: Vec<Vec<LinkId>> = Vec::new();
    for (i, &a) in links.iter().enumerate() {
        subsets.push(vec![a]);
        for &b in &links[i + 1..] {
            subsets.push(vec![a, b]);
        }
    }
    // The full set, unless it is already covered by the pair enumeration.
    if links.len() > 2 {
        subsets.push(links.to_vec());
    }
    subsets
}

/// The structural heuristic of Section 3.3: returns the intermediate nodes
/// whose ingress links all belong to one correlation set and whose egress
/// links all belong to one correlation set. Each such node makes the
/// correlation subset formed by its ingress links and the one formed by its
/// egress links cover (essentially) the same paths, so Assumption 4 is
/// expected to fail around it.
pub fn node_heuristic_violations(instance: &TopologyInstance) -> Vec<NodeId> {
    let mut violations = Vec::new();
    for node in instance.topology.node_ids() {
        if !instance.topology.is_intermediate(node) {
            continue;
        }
        let ingress = instance.topology.in_links(node);
        let egress = instance.topology.out_links(node);
        let ingress_sets: BTreeSet<CorrelationSetId> = ingress
            .iter()
            .map(|&l| instance.correlation.set_of(l))
            .collect();
        let egress_sets: BTreeSet<CorrelationSetId> = egress
            .iter()
            .map(|&l| instance.correlation.set_of(l))
            .collect();
        if ingress_sets.len() == 1 && egress_sets.len() == 1 {
            violations.push(node);
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy;

    #[test]
    fn assumption_4_holds_on_figure_1a() {
        let inst = toy::figure_1a();
        let report = check_identifiability(&inst, IdentifiabilityConfig::default());
        assert!(report.holds, "conflicts: {:?}", report.conflicts);
        assert!(report.unidentifiable_links.is_empty());
        // |C̃| = 5 subsets checked.
        assert_eq!(report.checked_subsets, 5);
        assert!(report.truncated_sets.is_empty());
        assert!(node_heuristic_violations(&inst).is_empty());
    }

    #[test]
    fn assumption_4_fails_on_figure_1b() {
        let inst = toy::figure_1b();
        let report = check_identifiability(&inst, IdentifiabilityConfig::default());
        assert!(!report.holds);
        assert_eq!(report.conflicts.len(), 1);
        let conflict = &report.conflicts[0];
        // {e1, e2} vs {e3}, both covering {P1, P2}.
        let mut subsets = [conflict.subset_a.clone(), conflict.subset_b.clone()];
        subsets.sort();
        assert_eq!(subsets[0], vec![LinkId(0), LinkId(1)]);
        assert_eq!(subsets[1], vec![LinkId(2)]);
        assert_eq!(
            conflict.coverage,
            BTreeSet::from([crate::path::PathId(0), crate::path::PathId(1)])
        );
        // All three links are unidentifiable.
        assert_eq!(
            report.unidentifiable_links,
            BTreeSet::from([LinkId(0), LinkId(1), LinkId(2)])
        );
        // The structural heuristic flags node v3 (index 2).
        assert_eq!(node_heuristic_violations(&inst), vec![NodeId(2)]);
    }

    #[test]
    fn single_correlation_set_fails_everywhere_on_figure_1a() {
        let inst = toy::figure_1a_single_set();
        let report = check_identifiability(&inst, IdentifiabilityConfig::default());
        assert!(!report.holds);
        // Node v3 has all ingress and egress links in the same set.
        assert_eq!(node_heuristic_violations(&inst), vec![NodeId(2)]);
        // e.g. {e3, e4} covers all three paths, just like {e1, e2}, etc.
        assert!(!report.conflicts.is_empty());
        assert!(!report.unidentifiable_links.is_empty());
    }

    #[test]
    fn lan_scenario_with_identifiable_structure() {
        let inst = toy::figure_2a_lan();
        let report = check_identifiability(&inst, IdentifiabilityConfig::default());
        // Every correlation subset of the LAN covers a distinct set of
        // paths because each router pair is reached via a distinct access
        // link combination.
        assert!(report.holds, "conflicts: {:?}", report.conflicts);
        assert!(node_heuristic_violations(&inst).is_empty());
    }

    #[test]
    fn truncated_enumeration_reports_oversized_sets() {
        let inst = toy::figure_1a();
        let config = IdentifiabilityConfig { max_subset_size: 1 };
        let report = check_identifiability(&inst, config);
        // The {e1, e2} set exceeds the limit, so the report cannot claim
        // that the assumption holds.
        assert!(!report.holds);
        assert_eq!(report.truncated_sets, vec![CorrelationSetId(0)]);
        // But no actual conflict exists among the enumerated subsets.
        assert!(report.conflicts.is_empty());
    }

    #[test]
    fn truncated_subsets_include_singletons_pairs_and_full_set() {
        let links: Vec<LinkId> = (0..5).map(LinkId).collect();
        let subsets = truncated_subsets(&links);
        // 5 singletons + 10 pairs + 1 full set.
        assert_eq!(subsets.len(), 16);
        assert!(subsets.contains(&vec![LinkId(0)]));
        assert!(subsets.contains(&vec![LinkId(1), LinkId(4)]));
        assert!(subsets.contains(&links));
    }
}
